"""Downstream evaluation: kNN classification probe on instance
representations, and anomaly scoring by the distance between the encoding
with one timestamp hidden and the plain one."""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate
from typing import Optional

import numpy as np

from . import autodiff as ad
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


# Cells of the [rows, N_train, M] differences a block of `classify_probe` holds
# (2 MB of float64), whatever the test rows; a block holds at least one row.
PROBE_CELLS = 1 << 18


def classify_probe(train_reprs, train_labels, test_reprs, test_labels, k: int = 1) -> EvalReport:
    """k-nearest-neighbor vote in representation space (Euclidean); vote ties
    fall back to the nearest neighbor's label.  Test rows are scored in blocks
    of `PROBE_CELLS`, each keeping its rows' k nearest labels."""
    train_reprs = np.asarray(train_reprs, dtype=np.float64)
    test_reprs = np.asarray(test_reprs, dtype=np.float64)
    train_labels = np.asarray(train_labels)
    test_labels = np.asarray(test_labels)
    n_tr = train_reprs.shape[0]
    if train_labels.size == 0 or test_labels.size == 0:
        raise ValueError("labels must be nonempty")
    if not 1 <= k <= n_tr:
        raise ValueError(f"k must be in [1, {n_tr}]")
    rows = max(1, PROBE_CELLS // max(1, train_reprs.size))
    neigh = np.empty((len(test_reprs), k), dtype=train_labels.dtype)
    for lo in range(0, len(test_reprs), rows):
        diffs = test_reprs[lo:lo + rows, None, :] - train_reprs[None, :, :]
        dists = np.sqrt((diffs ** 2).sum(axis=2))
        neigh[lo:lo + rows] = train_labels[np.argsort(dists, axis=1, kind="stable")[:, :k]]
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


# Timestamps per chunk of `anomaly_scores` times the steps of the widest
# window a chunk gathers: a chunk holds at most this many rows of any
# activation, so memory stays bounded on long series (a 128-step series at
# depth 3 is one chunk).  At 4096 rows a chunk's [rows, hidden] window and
# product arrays stay within a 2 MB L2 cache at hidden 16 to 32; at 8192 a
# depth-4 chunk's [8177, 16] arrays outgrow it, and scoring a 512-step
# series at depth 4 took 20% longer (same scores).
WINDOW_ROWS = 4096


def _cone_widths(reaches: list[int]) -> list[int]:
    """Half-width min(r, q) of the outputs each conv stage recomputes: hiding
    t changes a stage's output within r steps of t, r the reach of it and the
    stages before, and only outputs within q steps, q the reach of the stages
    after it, still reach t."""
    total = sum(reaches)
    return [min(r, total - r) for r in accumulate(reaches)]


def _window(rows: np.ndarray, lo: int, n: int, half: int, centre: np.ndarray) -> np.ndarray:
    """[n, 2 half + 1, H]: the [L, H] plain-pass `rows` at offsets -half..half
    around each t of lo..lo + n - 1, with `centre` ([n, 2c + 1, H], also
    centred on t) over the middle ones; every position outside [0, L) is 0."""
    at = np.arange(lo, lo + n)[:, None] + np.arange(-half, half + 1)
    win = rows.take(at, axis=0, mode="clip")
    c = centre.shape[1] // 2
    k = min(c, half)
    win[:, half - k:half + k + 1] = centre[:, c - k:c + k + 1]
    win[(at < 0) | (at >= rows.shape[0])] = 0.0
    return win


def cone_stage(model: enc.EncoderModel, windows: np.ndarray, b: int, i: int) -> np.ndarray:
    """Convolution `i` of block `b` over [n, W, H] windows, forward only:
    the [n, W - 2d, H] outputs (d its dilation) whose taps all lie inside
    their window.  Each tap is one GEMM over all n W window rows; the kept
    rows are added in tap order and then the bias, so every output has the
    bits of `encoder.conv_stage` at an interior position."""
    kernel, bias, dil = enc.stage_weights(model, b, i)
    n, width, hidden = windows.shape
    keep = width - (enc.KERNEL_SIZE - 1) * dil
    rows = windows.reshape(n * width, hidden)
    out = np.zeros((n, keep, kernel.shape[2]))
    product = np.empty((n * width, kernel.shape[2]))
    for j, tap in enumerate(kernel.data):
        np.matmul(rows, tap, out=product)
        out += product.reshape(n, width, -1)[:, j * dil:j * dil + keep]
    out += bias.data
    return out


def anomaly_scores(model: enc.EncoderModel, series: np.ndarray) -> np.ndarray:
    """Per-timestamp scores for one [L, D] series: L1 distance at position t
    between the encoding with the observation at t hidden and the plain one.

    Hiding t zeroes the input projection at t alone, and each conv stage
    widens the changed span by its reach d = (KERNEL_SIZE // 2) * 2^b on each
    side; of a stage's outputs, only those within q steps of t, q the reach
    of the stages after it, can still move the output at t.  So one plain
    pass (`encoder.residual_stream`) keeps h_b, gelu(h_b) and gelu(y1_b) of
    every block b as [L, H] rows, and then, for a chunk of timestamps at
    once, each stage computes only its outputs within w = min(r, q) of t,
    r its reach plus that of the stages before it (half-widths 1, 2, 4, 6,
    4, 0 at depth 3): `cone_stage` over the [n, 2(w + d) + 1, H] window
    gathered around t (recomputed values in the middle, the plain pass's
    rows around them, 0 outside [0, L)), then the residual over the same
    offsets.  The output projection reads the stream at t alone.  A series
    costs one plain pass plus sum(2w + 1) positions per timestamp, 40 at
    depth 3 and 98 at depth 4, against 2R + 1 per stage (174 and 488) for
    an encode of its receptive-field window with t hidden.  The scores
    equal those of one full encode per hidden timestamp
    (`oracle.anomaly_scores`) to rounding, not bit for bit.

    Raises ValueError naming the first timestamp with a non-finite value,
    and the encoder's ValueError for a series of the wrong width.
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
    if length == 0:
        return np.empty(0)
    depth = model.config.depth
    reaches = [(enc.KERNEL_SIZE // 2) * enc.dilation(b) for b in range(depth)]
    widths = _cone_widths([d for d in reaches for _ in (1, 2)])
    widest = max(w + reaches[s // 2] for s, w in enumerate(widths))
    out, blocks = enc.residual_stream(model, enc.project(model, series[None]))
    per_chunk = max(1, WINDOW_ROWS // (2 * widest + 1))
    at_t = np.empty((length, model.config.hidden))  # the residual stream at t, t hidden
    for lo in range(0, length, per_chunk):
        n = min(per_chunk, length - lo)
        h = np.zeros((n, 1, model.config.hidden))  # the hidden projection at t
        for b, (h_b, gelu_h, gelu_y1) in enumerate(blocks):
            d, w1, w2 = reaches[b], widths[2 * b], widths[2 * b + 1]
            y = cone_stage(model, _window(gelu_h.data[0], lo, n, w1 + d, ad.gelu(h).data), b, 1)
            y = cone_stage(model, _window(gelu_y1.data[0], lo, n, w2 + d, ad.gelu(y).data), b, 2)
            h = _window(h_b.data[0], lo, n, w2, h)
            h += y
        at_t[lo:lo + n] = h[:, 0]  # the last stage's width is 0
    # one projection of all L rows, so a row's arithmetic is the plain pass's
    # whatever the chunk size
    masked = enc.readout(model, at_t).data
    return np.abs(masked - enc.readout(model, out).data[0]).sum(axis=1)


def threshold_anomalies(scores, labels=None, *, c: float):
    """Static mean + c*stdev threshold; returns (binary flags, EvalReport).

    `c` has no default of its own: the CLI passes the config's `eval.anomaly_c`.
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
