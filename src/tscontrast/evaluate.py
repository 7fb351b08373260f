"""Downstream evaluation: kNN classification probe on instance
representations, and anomaly scoring via masked/unmasked encoding distance."""
from __future__ import annotations

import csv
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import encoder as enc


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
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(fields.keys())
            writer.writerow(fields.values())


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


def anomaly_scores(model: enc.EncoderModel, series: np.ndarray) -> np.ndarray:
    """Per-timestamp scores for one [L, D] series: L1 distance at position t
    between the encoding with the observation at t hidden and the plain one."""
    series = np.asarray(series, dtype=np.float64)
    if series.ndim == 1:
        series = series[:, None]
    if series.ndim != 2:
        raise ValueError("series must be [L, D]")
    x = series[None, :, :]
    full = enc.encode(model, x).data[0]
    length = series.shape[0]
    scores = np.empty(length)
    for t in range(length):
        masked = enc.encode(model, x, mask_mode="last_point", mask_index=t).data[0]
        scores[t] = np.abs(masked[t] - full[t]).sum()
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
