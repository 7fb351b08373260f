"""Downstream evaluation: kNN classification probe on instance
representations, and anomaly scoring via masked/unmasked encoding distance."""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import encoder as enc
from .data import write_csv


@dataclass
class EvalReport:
    task: str
    accuracy: Optional[float] = None
    f1: Optional[float] = None
    precision: Optional[float] = None
    recall: Optional[float] = None
    per_class: dict = field(default_factory=dict)
    config: dict = field(default_factory=dict)

    def to_text(self) -> str:
        lines = [f"task: {self.task}"]
        for name in ("accuracy", "f1", "precision", "recall"):
            value = getattr(self, name)
            if value is not None:
                lines.append(f"{name}: {value:.4f}")
        if self.per_class:
            lines.append("per-class counts: " + ", ".join(
                f"{k}={v}" for k, v in sorted(self.per_class.items())))
        if self.config:
            lines.append("config: " + ", ".join(f"{k}={v}" for k, v in sorted(self.config.items())))
        return "\n".join(lines)

    def to_csv(self, path) -> None:
        fields = {"task": self.task}
        for name in ("accuracy", "f1", "precision", "recall"):
            value = getattr(self, name)
            if value is not None:
                fields[name] = value
        write_csv(path, fields.keys(), [fields.values()])


def classify_probe(train_reprs, train_labels, test_reprs, test_labels, k: int = 1) -> EvalReport:
    """k-nearest-neighbor vote in representation space (Euclidean); vote ties
    fall back to the nearest neighbor's label."""
    train_reprs = np.asarray(train_reprs, dtype=np.float64)
    test_reprs = np.asarray(test_reprs, dtype=np.float64)
    train_labels = np.asarray(train_labels)
    test_labels = np.asarray(test_labels)
    n_tr = train_reprs.shape[0]
    if train_labels.size == 0 or test_labels.size == 0:
        raise ValueError("labels must be nonempty")
    if not 1 <= k <= n_tr:
        raise ValueError(f"k must be in [1, {n_tr}]")
    diffs = test_reprs[:, None, :] - train_reprs[None, :, :]
    dists = np.sqrt((diffs ** 2).sum(axis=2))
    order = np.argsort(dists, axis=1, kind="stable")
    neigh = train_labels[order[:, :k]]
    # votes[i, j]: how many of query i's neighbours share neighbour j's label;
    # argmax takes the nearest neighbour whose label has the most votes
    votes = (neigh[:, :, None] == neigh[:, None, :]).sum(axis=2)
    preds = neigh[np.arange(len(neigh)), votes.argmax(axis=1)]
    correct = preds == test_labels
    per_class = {int(c): int(((test_labels == c) & correct).sum()) for c in np.unique(test_labels)}
    return EvalReport(
        task="classify",
        accuracy=float(correct.mean()),
        per_class=per_class,
        config={"k": k, "n_train": int(n_tr), "n_test": int(test_labels.size)},
    )


# Window timestamps per masked `encode` in `anomaly_scores`: a chunk of
# windows holds at most this many rows of every activation, so memory stays
# bounded on long series (a 128-step series at depth 3 is one chunk).
WINDOW_ROWS = 8192


def anomaly_scores(model: enc.EncoderModel, series: np.ndarray) -> np.ndarray:
    """Per-timestamp scores for one [L, D] series: L1 distance at position t
    between the encoding with the observation at t hidden and the plain one.

    Hiding t moves the output at t only through inputs in [t - R, t + R],
    where R = (KERNEL_SIZE // 2) * 2 * (2^depth - 1): block b holds two
    convolutions of dilation 2^b.  So t is scored from the one window of
    W = min(L, 2R + 1) timestamps that starts at clip(t - R, 0, L - W).  It
    lies inside the series, so its zero-padded edges are the series' own.
    One unmasked encode of the series gives the reference; the L windows,
    each with its t hidden, are encoded in chunks of at most WINDOW_ROWS
    window timestamps.  The cost is O(L * (2R + 1)), not the O(L^2) of one
    full encode per timestamp (`oracle.anomaly_scores`), whose scores these
    equal.

    Raises ValueError naming the first timestamp with a non-finite value.
    """
    series = np.asarray(series, dtype=np.float64)
    if series.ndim == 1:
        series = series[:, None]
    if series.ndim != 2:
        raise ValueError("series must be [L, D]")
    bad = np.flatnonzero(~np.isfinite(series).all(axis=1))
    if bad.size:
        raise ValueError(f"series value at timestamp {bad[0]} is not finite")
    length = series.shape[0]
    scores = np.empty(length)
    if length == 0:
        return scores
    full = enc.encode(model, series[None]).data[0]
    radius = (enc.KERNEL_SIZE // 2) * 2 * (2 ** model.config.depth - 1)
    width = min(length, 2 * radius + 1)
    ts = np.arange(length)
    starts = np.clip(ts - radius, 0, length - width)
    offsets = ts - starts
    # [L - W + 1, W, D]: every window of W consecutive timestamps, as a view
    windows = np.lib.stride_tricks.sliding_window_view(series, width, axis=0).transpose(0, 2, 1)
    per_chunk = max(1, WINDOW_ROWS // width)
    for lo in range(0, length, per_chunk):
        rows = slice(lo, lo + per_chunk)
        at = offsets[rows]
        masked = enc.encode(model, windows[starts[rows]], mask_mode="last_point",
                            mask_index=at).data
        scores[rows] = np.abs(masked[np.arange(at.size), at] - full[rows]).sum(axis=1)
    return scores


def threshold_anomalies(scores, labels=None, c: float = 3.0):
    """Static mean + c*stdev threshold; returns (binary flags, EvalReport).

    Precision/recall/F1 are filled in when ground-truth labels are given.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if scores.size == 0:
        raise ValueError("scores must be nonempty")
    threshold = scores.mean() + c * scores.std()
    flags = scores > threshold
    report = EvalReport(task="anomaly", config={"c": c, "threshold": float(threshold)})
    if labels is not None:
        labels = np.asarray(labels, dtype=bool)
        if labels.shape != scores.shape:
            raise ValueError("labels must match scores")
        tp = int((flags & labels).sum())
        fp = int((flags & ~labels).sum())
        fn = int((~flags & labels).sum())
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        report.precision, report.recall, report.f1 = precision, recall, f1
        report.per_class = {"tp": tp, "fp": fp, "fn": fn}
    return flags, report
