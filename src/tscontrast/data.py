"""Time-series collections: TSV ingestion, normalization, synthesis, cropping."""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np


@dataclass(frozen=True)
class TimeSeriesSet:
    """A padded batch of (possibly variable-length) multivariate series.

    values: [N, T_max, D]; positions at or beyond lengths[i] are padding and
    must never enter distances or losses.
    """
    values: np.ndarray
    lengths: np.ndarray
    labels: Optional[np.ndarray] = None

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        lengths = np.asarray(self.lengths, dtype=np.int64)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "lengths", lengths)
        if values.ndim != 3:
            raise ValueError("values must have shape [N, T_max, D]")
        n, t_max, _ = values.shape
        if lengths.shape != (n,):
            raise ValueError("lengths must have shape [N]")
        if n and (lengths.min() < 1 or lengths.max() > t_max):
            raise ValueError("lengths must satisfy 1 <= length <= T_max")
        if self.labels is not None:
            labels = np.asarray(self.labels, dtype=np.int64)
            object.__setattr__(self, "labels", labels)
            if labels.shape != (n,):
                raise ValueError("labels must have shape [N]")

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def t_max(self) -> int:
        return self.values.shape[1]

    @property
    def dims(self) -> int:
        return self.values.shape[2]

    def series(self, i: int) -> np.ndarray:
        """Unpadded [length_i, D] view of series i."""
        return self.values[i, : self.lengths[i], :]

    def subset(self, idx) -> "TimeSeriesSet":
        idx = np.asarray(idx)
        return TimeSeriesSet(
            values=self.values[idx],
            lengths=self.lengths[idx],
            labels=None if self.labels is None else self.labels[idx],
        )


@dataclass(frozen=True)
class ViewPair:
    """Two same-length random crops per series plus overlap bookkeeping.

    overlap_start_a/_b are offsets *within* each view; `overlap` cuts the
    segments of the two views that cover the same original timestamps.
    """
    view_a: np.ndarray
    view_b: np.ndarray
    overlap_start_a: int
    overlap_start_b: int
    overlap_len: int

    def __post_init__(self):
        if self.overlap_len < 1:
            raise ValueError("overlap must be nonempty")
        for name, start in (("a", self.overlap_start_a), ("b", self.overlap_start_b)):
            view = self.view_a if name == "a" else self.view_b
            if start < 0 or start + self.overlap_len > view.shape[1]:
                raise ValueError(f"overlap does not fit inside view_{name}")

    def overlap(self, xa, xb):
        """The overlap segments of `xa` and `xb`, arrays or Tensors whose axis 1
        is aligned with view_a and view_b (the views themselves, or their
        representations)."""
        return (xa[:, self.overlap_start_a : self.overlap_start_a + self.overlap_len],
                xb[:, self.overlap_start_b : self.overlap_start_b + self.overlap_len])


def load_ucr_tsv(path) -> TimeSeriesSet:
    """Read a UCR-style TSV: label first, one univariate series per line.

    Trailing NaN cells shorten the series; interior NaNs, infinite values
    and non-finite or non-integral labels are rejected with the line number.
    """
    rows = []
    with open(path, "r") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line.strip():
                continue
            cells = line.split("\t")
            if len(cells) < 2:
                raise ValueError(f"{path}:{lineno}: need a label and at least one value")
            try:
                label = float(cells[0])
                vals = np.array([float(c) for c in cells[1:]], dtype=np.float64)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: non-numeric cell") from exc
            if not math.isfinite(label):
                raise ValueError(f"{path}:{lineno}: non-finite label")
            if not label.is_integer():
                raise ValueError(f"{path}:{lineno}: non-integral label")
            if np.isinf(vals).any():
                raise ValueError(f"{path}:{lineno}: infinite value")
            nan = np.isnan(vals)
            if nan.any():
                first = int(np.argmax(nan))
                if not nan[first:].all():
                    raise ValueError(f"{path}:{lineno}: interior missing values")
                vals = vals[:first]
            if vals.size == 0:
                raise ValueError(f"{path}:{lineno}: series has no valid values")
            rows.append((int(label), vals))
    if not rows:
        raise ValueError(f"{path}: empty file")
    t_max = max(v.size for _, v in rows)
    n = len(rows)
    values = np.zeros((n, t_max, 1))
    lengths = np.zeros(n, dtype=np.int64)
    labels = np.zeros(n, dtype=np.int64)
    for i, (label, vals) in enumerate(rows):
        values[i, : vals.size, 0] = vals
        lengths[i] = vals.size
        labels[i] = label
    return TimeSeriesSet(values=values, lengths=lengths, labels=labels)


def write_ucr_tsv(tset: TimeSeriesSet, path) -> None:
    """Inverse of load_ucr_tsv; univariate sets only, padding written as NaN."""
    if tset.dims != 1:
        raise ValueError("UCR TSV export is univariate only")
    labels = tset.labels if tset.labels is not None else np.zeros(tset.n, dtype=np.int64)
    with open(path, "w") as fh:
        for i in range(tset.n):
            cells = [str(int(labels[i]))]
            for t in range(tset.t_max):
                cells.append(repr(float(tset.values[i, t, 0])) if t < tset.lengths[i] else "NaN")
            fh.write("\t".join(cells) + "\n")


def znormalize(tset: TimeSeriesSet) -> TimeSeriesSet:
    """Per-series, per-channel zero mean / unit population stdev over the valid
    prefix.  Constant channels map to all-zeros; padding stays zero."""
    values = np.zeros_like(tset.values)
    for i in range(tset.n):
        li = tset.lengths[i]
        seg = tset.values[i, :li, :]
        mean = seg.mean(axis=0)
        std = seg.std(axis=0)
        std = np.where(std > 0, std, 1.0)
        out = (seg - mean) / std
        out[:, seg.std(axis=0) == 0] = 0.0
        values[i, :li, :] = out
    return TimeSeriesSet(values=values, lengths=tset.lengths, labels=tset.labels)


_WAVEFORMS = {
    "sine": lambda phase: np.sin(phase),
    "square": lambda phase: np.sign(np.sin(phase)),
    "sawtooth": lambda phase: 2.0 * (phase / (2 * np.pi) - np.floor(phase / (2 * np.pi) + 0.5)),
}


def make_synthetic(
    n_per_class: int,
    length: int,
    classes: Sequence[dict],
    noise_std: float = 0.0,
    seed: int = 0,
) -> TimeSeriesSet:
    """Deterministic desk-scale corpus.  Each class spec is a dict with keys
    kind ('sine' | 'square' | 'sawtooth'), freq (cycles over the series), and
    optional amplitude.  Phase is random per series."""
    if n_per_class < 1:
        raise ValueError("n_per_class must be >= 1")
    if length < 8:
        raise ValueError("length must be >= 8")
    if not classes:
        raise ValueError("need at least one class spec")
    for spec in classes:
        if not isinstance(spec, dict) or spec.get("kind") not in _WAVEFORMS:
            raise ValueError(f"class spec needs a known waveform 'kind': {spec!r}")
        freq = spec.get("freq")
        if isinstance(freq, bool) or not isinstance(freq, numbers.Real) or not freq > 0:
            raise ValueError(f"class spec needs a positive numeric 'freq': {spec!r}")
        unknown = set(spec) - {"kind", "freq", "amplitude"}
        if unknown:
            raise ValueError(f"unknown class spec keys: {sorted(unknown)}")
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    t = np.arange(length) / length
    all_vals, labels = [], []
    for ci, spec in enumerate(classes):
        wave = _WAVEFORMS[spec["kind"]]
        amp = float(spec.get("amplitude", 1.0))
        for _ in range(n_per_class):
            phase = rng.uniform(0, 2 * np.pi)
            x = amp * wave(2 * np.pi * spec["freq"] * t + phase)
            if noise_std > 0:
                x = x + rng.normal(0.0, noise_std, size=length)
            all_vals.append(x)
            labels.append(ci)
    values = np.stack(all_vals)[:, :, None]
    n = values.shape[0]
    return TimeSeriesSet(
        values=values,
        lengths=np.full(n, length, dtype=np.int64),
        labels=np.asarray(labels, dtype=np.int64),
    )


# the shortest series crop_two_views accepts
MIN_CROP_LENGTH = 4


def crop_two_views(tset: TimeSeriesSet, seed: int) -> ViewPair:
    """Two equal-length random overlapping crops, shared across the batch.

    Crop length is uniform in [ceil(T/2), T] and offsets are uniform subject
    to a nonempty overlap; T is the shortest series length in the batch.
    """
    t = int(tset.lengths.min())
    if t < MIN_CROP_LENGTH:
        raise ValueError(f"every series must have length >= {MIN_CROP_LENGTH}")
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    crop_len = int(rng.integers(math.ceil(t / 2), t + 1))
    off_a = int(rng.integers(0, t - crop_len + 1))
    lo = max(0, off_a - crop_len + 1)
    hi = min(t - crop_len, off_a + crop_len - 1)
    off_b = int(rng.integers(lo, hi + 1))
    ov_lo = max(off_a, off_b)
    ov_hi = min(off_a, off_b) + crop_len
    return ViewPair(
        view_a=tset.values[:, off_a : off_a + crop_len].copy(),
        view_b=tset.values[:, off_b : off_b + crop_len].copy(),
        overlap_start_a=ov_lo - off_a,
        overlap_start_b=ov_lo - off_b,
        overlap_len=ov_hi - ov_lo,
    )
