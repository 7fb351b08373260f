"""Time-series collections: TSV ingestion, normalization, synthesis, cropping;
and the one way every artifact is written to disk."""
from __future__ import annotations

import contextlib
import csv
import hashlib
import math
import numbers
import os
import sys
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

    def fingerprint(self) -> str:
        """SHA-256 hex digest of the shape (N, D), the lengths and every
        series' unpadded values; labels and padding contents do not enter it."""
        digest = hashlib.sha256(np.array([self.n, self.dims], dtype=np.int64).tobytes())
        digest.update(self.lengths.tobytes())
        digest.update(self.values[np.arange(self.t_max) < self.lengths[:, None]].tobytes())
        return digest.hexdigest()

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
    and non-finite, non-integral or out-of-int64-range labels (|label| >=
    2^63) are rejected with the line number, and bytes that are not UTF-8
    with the file's path.
    """
    rows = []
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.rstrip("\n")
                if not line.strip():
                    continue
                cells = line.split("\t")
                if len(cells) < 2:
                    raise ValueError(f"{path}:{lineno}: need a label and at least one value")
                try:
                    label = float(cells[0])
                    vals = np.array(cells[1:], dtype=np.float64)
                except ValueError as exc:
                    raise ValueError(f"{path}:{lineno}: non-numeric cell") from exc
                if not math.isfinite(label):
                    raise ValueError(f"{path}:{lineno}: non-finite label")
                if not label.is_integer():
                    raise ValueError(f"{path}:{lineno}: non-integral label")
                if abs(label) >= 2.0 ** 63:  # past int64, where the labels are stored
                    raise ValueError(f"{path}:{lineno}: label out of range")
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
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from None
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


@contextlib.contextmanager
def whole_file(path, mode: str = "w"):
    """Write `path` all or nothing: the block writes to `<path>.<pid>.tmp`
    beside it (text mode with newline="" unless `mode` is binary), which is
    moved onto `path` when the block completes and removed when it raises.

    np.save/np.savez/np.savetxt on the handle write to it as given; np.savez
    adds its ".npz" suffix only to a bare file name.
    """
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, mode, newline=None if "b" in mode else "") as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):  # the write failed
            os.remove(tmp)


def write_csv(path, header, rows) -> None:
    """A CSV file of one header row and `rows`, through `whole_file`."""
    with whole_file(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_ucr_tsv(tset: TimeSeriesSet, path) -> None:
    """Inverse of load_ucr_tsv; univariate sets only, padding written as NaN."""
    if tset.dims != 1:
        raise ValueError("UCR TSV export is univariate only")
    labels = tset.labels if tset.labels is not None else np.zeros(tset.n, dtype=np.int64)
    with whole_file(path) as fh:
        for label, row, length in zip(labels.tolist(), tset.values[:, :, 0], tset.lengths.tolist()):
            cells = [str(label), *map(repr, row[:length].tolist())] + ["NaN"] * (tset.t_max - length)
            fh.write("\t".join(cells) + "\n")


# Below this, a deviation's square is subnormal or zero (2**-1022 is the
# smallest normal float64).
TINY_DEVIATION = 2.0 ** -511


def znormalize(tset: TimeSeriesSet) -> TimeSeriesSet:
    """Per-series, per-channel zero mean / unit population stdev over the valid
    prefix.  Constant channels map to all-zeros; padding stays zero.  A series
    whose mean or stdev is not finite (NaN cells, or values so large that the
    stdev overflows) raises ValueError naming its index, the lowest if there
    are several.

    A non-constant channel whose stdev comes out below `TINY_DEVIATION`,
    where squared deviations are subnormal or zero, is normalized from its
    deviations scaled by an exact power of two (its largest to [0.5, 1)), so
    it gets what the same values at a normal scale get.

    Series of one length are normalized together, as one [n_l, l, D] block
    reduced over its steps: a series gets the bits it gets alone
    (`oracle.znormalize` is the per-series loop)."""
    values = np.zeros_like(tset.values)
    unscalable = []  # (index, mean, stdev) of each length group's first
    for length in np.unique(tset.lengths):
        rows = np.flatnonzero(tset.lengths == length)
        seg = tset.values[rows, :length, :]
        with np.errstate(over="ignore", invalid="ignore"):
            mean = seg.mean(axis=1, keepdims=True)
            spread = seg.std(axis=1, keepdims=True)
        bad = np.flatnonzero(~(np.isfinite(mean) & np.isfinite(spread)).all(axis=(1, 2)))
        if bad.size:
            unscalable.append((rows[bad[0]], mean[bad[0], 0], spread[bad[0], 0]))
            continue
        dev = seg - mean
        tiny = spread < TINY_DEVIATION
        if tiny.any():
            peak = np.abs(dev).max(axis=1, keepdims=True)
            tiny &= peak > 0
            dev = np.ldexp(dev, np.where(tiny, -np.frexp(peak)[1], 0))
            spread = np.where(tiny, np.sqrt(np.square(dev).mean(axis=1, keepdims=True)), spread)
        out = dev / np.where(spread > 0, spread, 1.0)
        values[rows, :length, :] = np.where(spread == 0, 0.0, out)
    if unscalable:
        i, mean, spread = min(unscalable, key=lambda bad: bad[0])
        raise ValueError(f"series {i}: mean or stdev is not finite, so it cannot be "
                         f"z-normalized (mean {mean.tolist()}, stdev {spread.tolist()})")
    return TimeSeriesSet(values=values, lengths=tset.lengths, labels=tset.labels)


_WAVEFORMS = {
    "sine": lambda phase: np.sin(phase),
    "square": lambda phase: np.sign(np.sin(phase)),
    "sawtooth": lambda phase: 2.0 * (phase / (2 * np.pi) - np.floor(phase / (2 * np.pi) + 0.5)),
}


# the most cells (series x steps) make_synthetic builds: 800 MB of float64
MAX_SYNTHETIC_CELLS = 10 ** 8


def make_synthetic(
    n_per_class: int,
    length: int,
    classes: Sequence[dict],
    noise_std: float = 0.0,
    seed: int = 0,
) -> TimeSeriesSet:
    """Deterministic desk-scale corpus of unit-amplitude waves.  Each class
    spec is a dict with exactly the keys kind ('sine' | 'square' | 'sawtooth')
    and freq (cycles over the series), a number whose phase 2*pi*freq is
    finite.  Phase is random per series.  A corpus of more than
    `MAX_SYNTHETIC_CELLS` cells, n_per_class * len(classes) * length, is
    rejected before anything is built."""
    for name, value, lowest in (("n_per_class", n_per_class, 1), ("length", length, 8)):
        if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < lowest:
            raise ValueError(f"{name} must be an int >= {lowest}, got {value!r}")
    if not classes:
        raise ValueError("need at least one class spec")
    if (isinstance(noise_std, bool) or not isinstance(noise_std, numbers.Real)
            or not 0 <= noise_std < math.inf):
        raise ValueError(f"noise_std must be a finite number >= 0, got {noise_std!r}")
    if isinstance(seed, bool) or not isinstance(seed, numbers.Integral) or seed < 0:
        raise ValueError(f"seed must be an int >= 0, got {seed!r}")
    for i, spec in enumerate(classes):
        if not isinstance(spec, dict) or spec.get("kind") not in _WAVEFORMS:
            raise ValueError(f"classes[{i}]: class spec needs a known waveform 'kind': {spec!r}")
        freq = spec.get("freq")
        # min() keeps an int too large for a float from overflowing the product
        if (isinstance(freq, bool) or not isinstance(freq, numbers.Real) or not freq > 0
                or not math.isfinite(2 * math.pi * min(freq, sys.float_info.max))):
            raise ValueError(f"classes[{i}]: class spec needs a positive numeric 'freq' "
                             f"whose phase 2*pi*freq is finite: {spec!r}")
        unknown = set(spec) - {"kind", "freq"}
        if unknown:
            raise ValueError(f"classes[{i}]: unknown class spec keys: {sorted(unknown)}")
    if n_per_class * len(classes) * length > MAX_SYNTHETIC_CELLS:
        raise ValueError(f"n_per_class x classes x length is over MAX_SYNTHETIC_CELLS = "
                         f"{MAX_SYNTHETIC_CELLS}: n_per_class must be <= "
                         f"{MAX_SYNTHETIC_CELLS // (len(classes) * length)} for "
                         f"{len(classes)} classes of length {length}")
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    t = np.arange(length) / length
    all_vals, labels = [], []
    for ci, spec in enumerate(classes):
        wave = _WAVEFORMS[spec["kind"]]
        for _ in range(n_per_class):
            phase = rng.uniform(0, 2 * np.pi)
            x = wave(2 * np.pi * spec["freq"] * t + phase)
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
    """Two equal-length random overlapping crops.

    Crop length is uniform in [ceil(T/2), T] and offsets are uniform subject
    to a nonempty overlap; T is the shortest series length in the batch.  Both
    views of row i then move by one more draw, uniform in [0, L_i - T], so
    every step of a longer series can be cropped (in a batch of equal lengths
    every such draw is 0); the overlap offsets within the views stay shared.
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
    steps = np.arange(crop_len) + rng.integers(0, tset.lengths - t + 1)[:, None]  # [N, crop_len]
    rows = np.arange(tset.n)[:, None]
    return ViewPair(
        view_a=tset.values[rows, off_a + steps],
        view_b=tset.values[rows, off_b + steps],
        overlap_start_a=ov_lo - off_a,
        overlap_start_b=ov_lo - off_b,
        overlap_len=ov_hi - ov_lo,
    )
