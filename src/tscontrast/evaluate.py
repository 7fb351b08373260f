"""Downstream evaluation: 1-NN classification probe on instance
representations, and anomaly scoring by the distance between the encoding
with one timestamp hidden and the plain one."""
from __future__ import annotations

import logging
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import accumulate
from typing import NamedTuple, Optional

import numpy as np

from . import autodiff as ad
from . import encoder as enc
from .data import write_csv

_log = logging.getLogger(__name__)


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


def classify_probe(train_reprs, train_labels, test_reprs, test_labels) -> EvalReport:
    """1-nearest-neighbor probe in representation space: each test row takes
    the label of its nearest training row (Euclidean), the lower training row
    on equal distances.  Test rows are scored in blocks of `PROBE_CELLS`.

    Raises ValueError for sets that are not 2-D or differ in width, for a
    label count other than its set's row count, for empty labels, and for a
    representation that is not finite, naming its row."""
    train_reprs = np.asarray(train_reprs, dtype=np.float64)
    test_reprs = np.asarray(test_reprs, dtype=np.float64)
    train_labels = np.asarray(train_labels)
    test_labels = np.asarray(test_labels)
    if train_reprs.ndim != 2 or test_reprs.ndim != 2 or train_reprs.shape[1] != test_reprs.shape[1]:
        raise ValueError(f"representations must be [N, M] of one width, got train "
                         f"{list(train_reprs.shape)} and test {list(test_reprs.shape)}")
    for name, reprs, labels in (("train", train_reprs, train_labels),
                                ("test", test_reprs, test_labels)):
        if labels.size == 0:
            raise ValueError("labels must be nonempty")
        if labels.shape != (len(reprs),):
            raise ValueError(f"{name} labels must be one per {name} row, [{len(reprs)}], "
                             f"got {list(labels.shape)}")
        bad = np.flatnonzero(~np.isfinite(reprs).all(axis=1))
        if bad.size:
            raise ValueError(f"{name} representation row {bad[0]} is not finite")
    rows = max(1, PROBE_CELLS // max(1, train_reprs.size))
    preds = np.empty(len(test_reprs), dtype=train_labels.dtype)
    for lo in range(0, len(test_reprs), rows):
        diffs = test_reprs[lo:lo + rows, None, :] - train_reprs[None, :, :]
        preds[lo:lo + rows] = train_labels[np.sqrt((diffs ** 2).sum(axis=2)).argmin(axis=1)]
    correct = preds == test_labels
    per_class = {int(c): int(((test_labels == c) & correct).sum()) for c in np.unique(test_labels)}
    return EvalReport(
        task="classify",
        accuracy=float(correct.mean()),
        per_class=per_class,
        config={"n_train": len(train_reprs), "n_test": len(test_reprs)},
    )


# Timestamps per chunk of `anomaly_scores` times the offsets of its widest
# gather (7 from depth 2 on): a chunk holds at most this many rows of any
# activation, so memory stays bounded on long series (a 128-step series is
# one chunk at every depth).  At 4096 rows a chunk's [rows, hidden] gathers
# and GEMM products stay within a 2 MB L2 cache at hidden 16 to 32; at 8192
# they outgrow it, and scoring a 2048-step series at depth 4, hidden 16 took
# 16% longer (53.6 against 62.2 ms on a 2-CPU Haswell, same scores).
WINDOW_ROWS = 4096

# tap j of a conv stage of dilation d reads its input at offset (j - K // 2) d
_TAPS = np.arange(enc.KERNEL_SIZE) - enc.KERNEL_SIZE // 2


class _Gather(NamedTuple):
    """Rows gathered around each t: the plain pass's at t + `offsets`, except
    that slot `into[k]` takes the recomputed value `pick[k]`."""
    offsets: np.ndarray
    pick: np.ndarray
    into: np.ndarray


class _Stage(NamedTuple):
    """The input gather of a conv stage's cone, and per tap the slots of that
    gather that the tap reads for the stage's recomputed outputs, in order."""
    gather: _Gather
    taps: tuple


def _reads(offsets: np.ndarray, d: int) -> np.ndarray:
    """The sorted offsets that a stage of dilation d reads to compute
    `offsets`: their Minkowski sum with d * _TAPS."""
    return np.unique(offsets[:, None] + d * _TAPS)


def _gather(offsets: np.ndarray, recomputed: np.ndarray) -> _Gather:
    """Gather at `offsets` of a value recomputed at `recomputed`."""
    pick = np.flatnonzero(np.isin(recomputed, offsets))
    return _Gather(offsets, pick, np.searchsorted(offsets, recomputed[pick]))


@lru_cache(maxsize=None)
def _cone_plan(depth: int) -> tuple[tuple[_Stage, _Stage, _Gather], ...]:
    """Per block b: its two conv stages, and the gather of h_b at the second
    stage's outputs that the residual adds them to.

    Stage s (block s // 2, dilation d) recomputes the offsets from t both
    changed by hiding t and reaching the output at t.  Forward from {0}, the
    hidden projection, a stage's output changes at the offsets where its
    input does plus d * _TAPS; the residual changes where y2_b does, whose
    offsets hold h_b's.  Backward from {0}, the output, a stage's input
    reaches t at the offsets its reaching outputs read, and h_b where
    h_{b+1} or gelu(h_b) does.  The recomputed input of stage s is then the
    output of stage s - 1 (h_b for a first stage), {0} for stage 0; it holds
    every changed offset that stage s or the residual reads, since those
    offsets reach t."""
    dils = [enc.dilation(s // 2) for s in range(2 * depth)]
    # changed[s]: of stage s's input; changed[s + 1]: of its output
    changed = list(accumulate(dils, _reads, initial=np.array([0])))
    reached = [None] * (2 * depth)  # of each stage's output
    h = np.array([0])               # of h_{b+1}
    for b in reversed(range(depth)):
        reached[2 * b + 1] = h
        reached[2 * b] = _reads(h, dils[2 * b])
        h = np.union1d(h, _reads(reached[2 * b], dils[2 * b]))
    kept = [np.intersect1d(c, r) for c, r in zip(changed[1:], reached)]
    inputs = [np.array([0])] + kept[:-1]
    stages = []
    for s, (out, d) in enumerate(zip(kept, dils)):
        gather = _gather(_reads(out, d), inputs[s])
        taps = tuple(np.searchsorted(gather.offsets, out + d * j) for j in _TAPS)
        stages.append(_Stage(gather, taps))
    return tuple((stages[2 * b], stages[2 * b + 1],
                  _gather(kept[2 * b + 1], inputs[2 * b]))
                 for b in range(depth))


def _window(rows: np.ndarray, lo: int, n: int, gather: _Gather, recomputed: np.ndarray) -> np.ndarray:
    """[n, G, H]: the [L, H] plain-pass `rows` at t + `gather.offsets` for
    each t of lo..lo + n - 1, the [n, R, H] `recomputed` values placed as
    `gather` says; every position outside [0, L) is 0."""
    at = np.arange(lo, lo + n)[:, None] + gather.offsets
    win = rows.take(at, axis=0, mode="clip")
    win[:, gather.into] = recomputed[:, gather.pick]
    win[(at < 0) | (at >= rows.shape[0])] = 0.0
    return win


def cone_stage(model: enc.EncoderModel, windows: np.ndarray, b: int, i: int, taps) -> np.ndarray:
    """Convolution `i` of block `b` over [n, G, H] gathered inputs, forward
    only: the [n, K, H] outputs whose tap j reads slots `taps[j]` (K of
    them) of the gather.  Each tap is one GEMM over all n G gathered rows,
    never a lone row (numpy sends a one-row product to BLAS's matrix-vector
    routine, which can round differently); the products of the slots it
    reads are added in tap order and then the bias, so every output has the
    bits of `encoder.conv_stage` at the same position wherever BLAS rounds
    a row alike in any product of two or more rows."""
    kernel, bias, _ = enc.stage_weights(model, b, i)
    n, width, hidden = windows.shape
    rows = windows.reshape(n * width, hidden)
    out = np.zeros((n, len(taps[0]), kernel.shape[2]))
    product = np.empty((n * width, kernel.shape[2]))
    for slots, tap in zip(taps, kernel.data):
        np.matmul(rows, tap, out=product)
        out += product.reshape(n, width, -1)[:, slots]
    out += bias.data
    return out


def anomaly_scores(model: enc.EncoderModel, series: np.ndarray) -> np.ndarray:
    """Per-timestamp scores for one [L, D] series: L1 distance at position t
    between the encoding with the observation at t hidden and the plain one.

    Hiding t zeroes the input projection at t alone.  A conv stage of
    dilation d reads only offsets -d, 0 and +d, so hiding t changes its
    output at the offsets where its input changed plus those three, and of
    those only the ones whose taps lead, stage by stage, back to the output
    at t can still move it (`_cone_plan`).  So one plain pass
    (`encoder.residual_stream`) keeps h_b, gelu(h_b) and gelu(y1_b) of every
    block b as [L, H] rows, and then, for a chunk of timestamps at once,
    each stage computes only those offsets: `cone_stage` over the plain
    rows gathered at the offsets its taps read (recomputed values on their
    own offsets, 0 outside [0, L)), then the residual at the same offsets.
    The output projection reads the stream at t alone.  A series costs one
    plain pass plus 8 depth - 6 stage positions per timestamp from depth 2
    on (18 at depth 3, 26 at depth 4), against 2R + 1 per stage (174 and
    488) for an encode of its receptive-field window with t hidden.  The
    scores equal those of one full encode per hidden timestamp
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
    projected = enc.project(model, series[None])  # checks the width, even of no steps
    plan = _cone_plan(model.depth)
    stages = [stage for block in plan for stage in block[:2]]
    per_chunk = max(1, WINDOW_ROWS // max(stage.gather.offsets.size for stage in stages))
    if _log.isEnabledFor(logging.DEBUG):
        _log.debug("anomaly_scores: %d steps in %d chunks, %d cone positions per timestamp",
                   length, -(-length // per_chunk), sum(stage.taps[0].size for stage in stages))
    if length == 0:
        return np.empty(0)
    out, blocks = enc.residual_stream(model, projected)
    hidden = model.params["proj_w"].shape[1]
    at_t = np.empty((length, hidden))  # the residual stream at t, t hidden
    for lo in range(0, length, per_chunk):
        n = min(per_chunk, length - lo)
        h = np.zeros((n, 1, hidden))  # the hidden projection at t
        for b, ((h_b, gelu_h, gelu_y1), (first, second, residual)) in enumerate(zip(blocks, plan)):
            y = cone_stage(model, _window(gelu_h.data[0], lo, n, first.gather, ad.gelu(h).data),
                           b, 1, first.taps)
            y = cone_stage(model, _window(gelu_y1.data[0], lo, n, second.gather, ad.gelu(y).data),
                           b, 2, second.taps)
            h = _window(h_b.data[0], lo, n, residual, h)
            h += y
        at_t[lo:lo + n] = h[:, 0]  # the last stage computes offset 0 alone
    # one projection of all L rows, so a row's arithmetic is the plain pass's
    # whatever the chunk size.  The cone's GEMMs run over the n G rows of a
    # chunk's gathers, so a score keeps its bits under any `WINDOW_ROWS` only
    # where BLAS rounds a row alike in any product of two or more rows
    # (OpenBLAS does at hidden 16 and 32, and not at 26)
    masked = enc.readout(model, at_t).data
    return np.abs(masked - enc.readout(model, out).data[0]).sum(axis=1)


def threshold_anomalies(scores, labels=None, *, c: float):
    """Static mean + c*stdev threshold; returns (binary flags, EvalReport).

    `c` has no default of its own: the CLI passes the config's `eval.anomaly_c`.
    Precision/recall/F1 are filled in when ground-truth labels are given.  A
    score that is not finite is an error naming its timestamp, the first if
    there are several.  So is a threshold that is not finite, naming the
    scores' range and `c`: finite scores near the float64 limit can overflow
    the mean or the stdev.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if scores.size == 0:
        raise ValueError("scores must be nonempty")
    bad = np.flatnonzero(~np.isfinite(scores))
    if bad.size:
        raise ValueError(f"anomaly score at timestamp {bad[0]} is not finite: {scores[bad[0]]}")
    with np.errstate(over="ignore", invalid="ignore"):  # inf, or inf - inf
        threshold = scores.mean() + c * scores.std()
    if not np.isfinite(threshold):
        raise ValueError(f"anomaly threshold mean + c * stdev is not finite ({threshold}) for "
                         f"scores in [{scores.min()}, {scores.max()}] with c={c}")
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
