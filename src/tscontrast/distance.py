"""Pairwise data-space distances: DTW family, Euclidean, cosine; caching."""
from __future__ import annotations

import logging
import numbers
import os
import struct
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .data import TimeSeriesSet, whole_file

METRICS = ("cos", "euc", "dtw", "fastdtw", "tam")

_log = logging.getLogger(__name__)


@dataclass(frozen=True)
class DistanceMatrix:
    """Min-max normalized distances, as `pairwise` makes them: every value
    finite and in [0, 1], the domain of `assign.w_instance`'s kernels.
    `values` is a read-only view, so a built matrix keeps that domain; the
    array it was built from is not copied and stays writable."""
    values: np.ndarray
    metric: str

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64).view()
        values.flags.writeable = False
        object.__setattr__(self, "values", values)
        if values.ndim != 2 or values.shape[0] != values.shape[1]:
            raise ValueError("distance matrix must be square")
        if self.metric not in METRICS:
            raise ValueError(f"unknown metric: {self.metric!r}")
        # min and max carry a NaN through, and no comparison with it holds
        if not (values.min(initial=0.0) >= 0.0 and values.max(initial=0.0) <= 1.0):
            i, j = np.argwhere(~((values >= 0.0) & (values <= 1.0)))[0].tolist()
            defect = "outside [0, 1]" if np.isfinite(values[i, j]) else "not finite"
            raise ValueError(f"normalized distance {float(values[i, j])!r} at ({i}, {j}) {defect}")

    @property
    def n(self) -> int:
        return self.values.shape[0]


def _as_batch(a, b):
    """[1, T, D] arrays of one pair, for the batched metrics."""
    a, b = (np.asarray(x, dtype=np.float64) for x in (a, b))
    a, b = (x[:, None] if x.ndim == 1 else x for x in (a, b))
    if a.ndim != 2 or b.ndim != 2 or min(a.shape[0], b.shape[0]) < 1:
        raise ValueError("series must be [T, D] with T >= 1")
    if a.shape[1] != b.shape[1]:
        raise ValueError(f"channel mismatch: {a.shape[1]} vs {b.shape[1]}")
    return a[None], b[None]


# Cap on the float64 cells one pass of pairwise holds (2 MB), padded cells
# included: for dtw its three-diagonal ring, its copies of a and b and its
# cost buffer (`_ring_cells`); for tam and fastdtw, whose backtracking reads
# every cell, the whole skewed table; for euc and cos, a row's [P, m, D] block.
_CHUNK_CELLS = 1 << 18
# A pass of a bucketed metric pads its pairs to its longest lengths, and
# closes before its padded table cells would pass this many times the pairs'
# own plus `_DIAGONAL_CELLS` per anti-diagonal of its padded table: the DP
# fills every padded cell, whether it keeps them or not.
_BUCKET_WASTE = 2
# The padded cells a pass may add per anti-diagonal of its padded table, the
# fixed cost a separate pass would pay for that diagonal: `_dp` spends ~4 us
# of numpy calls on each diagonal whatever its pairs, the time of ~1500
# padded cells at ~2.5 ns each, and each pass adds its own set-up (2-CPU
# x86_64, numpy 2.4).  At 4096 the 28 pairs of lengths 40-147 of the
# ragged-ucr benchmark share one dtw pass instead of four (2.8 ms against
# 4.6 ms; 1500 makes two, 3.5 ms); at 16384 the 20 pairs of one 1000-step
# series among 40-step ones join the short pairs' pass, and their pairwise
# dtw takes 73 ms instead of 10 ms.
_DIAGONAL_CELLS = 4096
# The metrics whose pairs are bucketed: each pair's DTW is its own cell of the
# padded table.  fastdtw keeps exact length pairs, because `_reduce_by_half`
# keeps an odd last step alone and a padded series would coarsen differently.
_BUCKETED = ("dtw", "tam")


def _table_cells(ta: int, tb: int) -> int:
    return (ta + tb + 1) * (ta + 1)


def _ring_cells(ta: int, tb: int, d: int, masked: bool = False) -> int:
    """Cells one pair holds in a dtw pass: three diagonals of its skewed
    table, its padded copies of a and b and their step-major copies in `_dp`,
    its cost buffer, and five for its last cell: the diagonal, the flat index
    and the value, and their temporaries.  A `masked` pass, whose pairs have
    bands of their own, also holds their [ta] int64 bounds and the `_outside`
    mask: at most one byte per cell of the ta x tb grid, and two int64
    indexes per diagonal while it is built."""
    return 3 * (ta + 1) + (3 * ta + 2 * tb) * d + 5 + masked * (ta * tb // 8 + 4 * ta + 2 * tb)


def _runs(lo, hi, ta: int, tb: int) -> tuple[np.ndarray, np.ndarray]:
    """[P, ta + tb - 1] first and end rows [start, stop) of each pair's run on
    each anti-diagonal k = i + j, for bounds `lo`/`hi` of shape [P, ta] (P is
    1 for bounds of shape [ta] or [1, ta]).  Row i meets diagonal k inside
    its bounds iff lo[i] + i <= k <= hi[i] + i; both sides grow strictly with
    i, so those rows are one run, and start counts the rows with
    hi[i] + i < k, stop those with lo[i] + i <= k: one cumulative sum over
    the diagonals of each side's keys, which are distinct within a pair."""
    lo, hi = np.atleast_2d(lo, hi)
    p, diagonals = hi.shape[0], ta + tb - 1
    rows, pairs = np.arange(ta), np.arange(p)[:, None]
    hits = np.zeros((2, p, diagonals + 1), dtype=np.int32)
    hits[0, pairs, hi + rows + 1] = 1
    # a key past the last diagonal (lo[i] = tb) counts on none
    hits[1, pairs, np.minimum(lo + rows, diagonals)] = 1
    start, stop = hits.cumsum(axis=2, dtype=np.int32)[:, :, :diagonals]
    return start, stop


def _outside(start, stop, i0s, i1s, masked) -> np.ndarray:
    """[row, pair] mask of the cells outside their own pair's run: for each
    diagonal of `masked` in turn, the rows i0..i1 of the union of the runs,
    so each diagonal's mask is one block of rows.  Each pair toggles a byte
    at its run's first row and past its last, and a running XOR down the
    rows, eight pairs a word and in place, leaves 1 inside the runs; the
    pair axis is padded to whole words.  Beside two [diagonals, P] flat
    indexes, only the one byte per cell of the mask is allocated."""
    p = start.shape[0]
    if not len(masked):  # every pass of one length pair, so keep it cheap
        return np.zeros((0, p), dtype=bool)
    lo, hi = i0s[masked], i1s[masked]
    widths, width = hi - lo, -(-p // 8) * 8
    cells, rows = int(widths.sum()), (np.cumsum(widths) - widths - lo)[:, None]
    first, end = start.T[masked].astype(np.intp), stop.T[masked].astype(np.intp)
    # an empty run marks the spare row past the last, which nothing reads; the
    # others mark distinct rows each, and a run's end may be the next one's start
    empty = first >= end
    for at in first, end:
        at += rows
        at[empty] = cells + 1
        at *= width
        at += np.arange(p)
    marks = np.zeros((cells + 2, width), dtype=np.uint8)
    flat = marks.reshape(-1)
    flat[first] = 1
    flat[end] ^= 1
    words = marks.view(np.uint64)
    np.bitwise_xor.accumulate(words, axis=0, out=words)
    outside = marks.view(np.bool_)
    np.logical_not(marks, out=outside)
    return outside[:cells, :p]


def _dp(a: np.ndarray, b: np.ndarray, lo, hi, ends=None) -> np.ndarray:
    """Cumulative-cost tables of P alignments with the step pattern
    {(1,0),(0,1),(1,1)}, filled one anti-diagonal at a time.

    `a` is [P, ta, D] and `b` is [P, tb, D].  Row i of pair p is filled on
    columns lo[p, i]..hi[p, i] (inclusive; `lo`/`hi` are [ta], [1, ta] or
    [P, ta]) and every other cell stays inf, so the full matrix, a Sakoe-Chiba
    band and a FastDTW window all run through this one loop.  The table is
    skewed with the pair innermost, S[i + j + 2, i + 1, p] = acc[p, i, j]:
    the cells of one anti-diagonal depend only on the two before it, and on
    each diagonal the rows i0..i1 of every pair are one contiguous run of the
    flat table, as are their three predecessors, so each diagonal is two
    `np.minimum` and one `np.add` over runs addressed by offset.  The step
    costs of a run come from step-major copies of a and of b reversed
    ([t, P, D]), where the partners of rows i0..i1 are again one run each.
    Column 0 and diagonals 0-1 are an inf pad except S[0, 0, :] = 0, the
    predecessor of (0, 0), so every cell is cost + min(up, left, diagonal).

    The planes S[q] are kept in a ring of slots, plane q in slot q mod R.
    Without `ends` the ring is the whole table (R = ta + tb + 1), which is
    returned for `_backtrack`.  With `ends` = (la, lb), each [P] ints,
    R is 3, the planes one diagonal reads and writes, and the [P] values
    of each pair's cell (la[p] - 1, lb[p] - 1) are returned, read as its
    diagonal is written.  The slot that takes plane k + 2 still holds plane
    k + 2 - R.  Of its rows outside diagonal k's run, later diagonals read
    only row i0(k), just above the run, and only where the next run starts
    there too, i0(k + 1) = i0(k), as the runs' first and end rows never
    decrease.  That row is reset to inf there if the older plane wrote it:
    i0(k - R) < i0(k) <= i1(k - R), or k = R - 2 and i0(k) = 0 (the origin),
    so never with R = ta + tb + 1.  A pair whose last cell lies outside the
    run of its diagonal, also where no pair's run meets that diagonal, reads inf.
    """
    p, ta, d = a.shape
    tb = b.shape[1]
    width, diagonals = ta + 1, ta + tb - 1
    ring = ta + tb + 1 if ends is None else 3
    steps_a = np.ascontiguousarray(a.transpose(1, 0, 2)).reshape(-1)
    steps_rb = np.ascontiguousarray(b[:, ::-1].transpose(1, 0, 2)).reshape(-1)
    s = np.full((ring, width, p), np.inf)
    s[0, 0] = 0.0
    flat = s.reshape(-1)
    start, stop = _runs(lo, hi, ta, tb)
    # the loop fills the union [i0, i1) of the pairs' runs on each diagonal
    i0s, i1s = start.min(axis=0), stop.max(axis=0)
    shared = (start.max(axis=0) == i0s) & (stop.min(axis=0) == i1s)
    # a diagonal on which every pair's run is empty can have i0 > i1: it
    # must not be masked, as its negative width has no rows to mark
    filled = i0s < i1s
    outside, at_mask = _outside(start, stop, i0s, i1s, np.flatnonzero(filled & ~shared)), 0
    base = np.arange(diagonals + 2) % ring * width  # plane q starts at base[q] * p
    # whether diagonal k first resets row i0 of plane k + 2, by the docstring's rule
    reset = np.zeros(diagonals, dtype=bool)
    reset[ring:] = (i0s[:-ring] < i0s[ring:]) & (i0s[ring:] <= i1s[:-ring])
    reset[ring - 2:ring - 1] = i0s[ring - 2:ring - 1] == 0
    reset[:-1] &= i0s[1:] == i0s[:-1]
    finished = repeat(None)
    if ends is not None:
        # a pair whose last cell (la - 1, lb - 1) lies outside its diagonal's
        # run keeps inf; the others read it as that diagonal is written
        la, lb = ends
        last, finished = la + lb - 2, [None] * diagonals
        covered = (i0s[last] < la) & (la <= i1s[last])
        for k in set(last[covered].tolist()):
            pairs = np.flatnonzero(covered & (last == k))
            finished[k] = (pairs, (base[k + 2] + la[pairs]) * p + pairs)
        values = np.full(p, np.inf)
    # per diagonal: the run's cells, its flat offset, those of its up and
    # diagonal predecessors, those of its step costs in a and in b reversed
    runs = zip(((i1s - i0s) * p).tolist(), ((base[2:] + i0s + 1) * p).tolist(),
               ((base[1:-1] + i0s) * p).tolist(), ((base[:-2] + i0s) * p).tolist(),
               (i0s * p * d).tolist(), ((tb - 1 - np.arange(diagonals) + i0s) * p * d).tolist(),
               shared.tolist(), reset.tolist(), finished)
    diff = np.empty(ta * p * d)
    for n, at, up, diagonal, ai, bi, same, clear, done in runs:
        if clear:
            flat[at - p:at] = np.inf
        if n > 0:
            # a's rows i0..i1 and their partners, b's columns k - i0 down to k - i1 + 1
            cost = diff[:n * d]
            np.subtract(steps_a[ai:ai + n * d], steps_rb[bi:bi + n * d], out=cost)
            np.square(cost, out=cost)
            if d > 1:
                # channels added left to right, as the scalar step cost adds them
                cost = np.cumsum(cost.reshape(n, d), axis=1)[:, -1]
            np.sqrt(cost, out=cost)
            if not same:
                rows = n // p
                np.copyto(cost.reshape(rows, p), np.inf, where=outside[at_mask:at_mask + rows])
                at_mask += rows
            # the run's cells, then those of its up (i - 1, j) and diagonal
            # (i - 1, j - 1) predecessors; the left ones (i, j - 1) follow up's
            out = flat[at:at + n]
            np.minimum(flat[up:up + n], flat[up + p:up + p + n], out=out)
            np.minimum(out, flat[diagonal:diagonal + n], out=out)
            np.add(cost, out, out=out)
        if done is not None:
            values[done[0]] = flat[done[1]]
    return s if ends is None else values


def _backtrack(s: np.ndarray, la, lb):
    """Optimal warping paths of every pair in the skewed table `s` of `_dp`.

    `la`/`lb` are the pairs' own lengths, [P] or one int for all, so pair p's
    walk goes from (la[p]-1, lb[p]-1) back to (0, 0) along the cheapest
    predecessor, the first minimum of (diagonal, vertical, horizontal): ties
    prefer the diagonal step, then the vertical one.  The inf pad keeps a
    walk on row 0 or column 0 on it.  Each walk is a flat index into
    S[i + j + 2, i + 1, p], so one step of all pairs is one gather of their
    [3, P] predecessors and one argmin.  Returns (rows, cols), each
    [steps, P] and last cell first; a pair whose path ended earlier repeats
    (0, 0).
    """
    _, width, p = s.shape
    plane = width * p
    flat = s.reshape(-1)
    # a cell is tracked by its flat index ((i + j + 2) * width + i + 1) * P + p
    # in `s`; a step moves it by `moves`
    moves = np.array([[-2 * plane - p], [-plane - p], [-plane]])
    pairs = np.arange(p)
    origin = (2 * width + 1) * p + pairs
    cell = ((la + lb) * width + la) * p + pairs
    walk = [cell]
    # pair p's walk takes at least max(la[p], lb[p]) - 1 steps
    fewest = int(np.max(np.maximum(la, lb))) - 1
    for step in range(int(np.max(la + lb)) - 2):
        if step >= fewest and (cell == origin).all():
            break
        best = flat.take(cell + moves).argmin(axis=0)  # of the [3, P] predecessors
        cell = np.maximum(cell + moves.take(best), origin)  # a finished walk stays at (0, 0)
        walk.append(cell)
    at = np.stack(walk) // p  # (i + j + 2) * width + i + 1
    rows = at % width - 1
    return rows, at // width - 2 - rows


def _full_bounds(ta: int, tb: int):
    return np.zeros(ta, dtype=np.int64), np.full(ta, tb - 1)


def _pair_bands(la, lb, ta: int, band) -> tuple[np.ndarray, np.ndarray]:
    """[P, ta] bounds of each pair's own Sakoe-Chiba band, the columns j of
    row i with |i*lb - j*la| <= band*max(la, lb), in a table padded to `ta`
    rows; [ta] when every pair has the same lengths.  The left side is an
    integer, so flooring the width keeps the bounds exact; widths past la*lb
    admit every cell.  Rows past a pair's length repeat its last row, so lo
    and hi stay non-decreasing, as `_dp` assumes."""
    if (la == la[0]).all() and (lb == lb[0]).all():
        la, lb = la[:1], lb[:1]
    la, lb = la[:, None], lb[:, None]
    # min(la, lb) already admits every cell, and a larger int could overflow
    band = min(band, int(np.minimum(la, lb).max()))
    width = np.floor(np.minimum(band * np.maximum(la, lb), la * lb)).astype(np.int64)
    i = np.minimum(np.arange(ta), la - 1) * lb
    lo = np.maximum(-((width - i) // la), 0)
    hi = np.minimum((i + width) // la, lb - 1)
    return (lo[0], hi[0]) if len(lo) == 1 else (lo, hi)


def _reduce_by_half(a: np.ndarray) -> np.ndarray:
    """[P, t, D] -> [P, ceil(t/2), D]: means of consecutive steps; an odd
    last step is kept as it is."""
    p, t, d = a.shape
    pairs = a[:, : t - t % 2].reshape(p, t // 2, 2, d).mean(axis=2)
    if t % 2:
        pairs = np.concatenate([pairs, a[:, -1:]], axis=1)
    return pairs


def _window_bounds(rows, cols, ta: int, tb: int, radius: int):
    """[P, ta] per-row column bounds of the FastDTW windows: every cell of a
    coarse path (`rows`/`cols` as `_backtrack` returns them) widened by
    `radius` in both directions, projected onto the 2x finer grid.  A
    monotone path widened by a square covers one contiguous run of columns in
    each row, so [lo, hi] describes the window exactly."""
    coarse_rows = int(rows[0, 0]) + 1
    pair = np.broadcast_to(np.arange(rows.shape[1]), rows.shape)
    first = np.full((rows.shape[1], coarse_rows), np.iinfo(np.int64).max)
    last = np.zeros((rows.shape[1], coarse_rows), dtype=np.int64)
    np.minimum.at(first, (pair, rows), cols)
    np.maximum.at(last, (pair, rows), cols)
    coarse_row = np.arange(ta) // 2
    lo = 2 * (first[:, np.maximum(coarse_row - radius, 0)] - radius)
    hi = 2 * (last[:, np.minimum(coarse_row + radius, coarse_rows - 1)] + radius) + 1
    return np.maximum(lo, 0), np.minimum(hi, tb - 1)


def _fastdtw_dp(a, b, radius: int, ends=None) -> np.ndarray:
    """`_dp` of FastDTW, `ends` as there: align the half-length series
    recursively, then fill only the window around the projected coarse path.

    Once either series has at most 2 * radius + 2 steps, the full table is
    filled at once: that series' half has at most radius + 1 steps, so the
    window, the coarse path from (0, 0) to the last coarse cell widened by
    `radius`, would cover every fine cell anyway.  The result is the same,
    one recursion level sooner (`oracle.fastdtw` keeps the radius + 2 rule)."""
    ta, tb = a.shape[1], b.shape[1]
    if min(ta, tb) <= 2 * radius + 2:
        return _dp(a, b, *_full_bounds(ta, tb), ends)
    ha, hb = _reduce_by_half(a), _reduce_by_half(b)
    rows, cols = _backtrack(_fastdtw_dp(ha, hb, radius), ha.shape[1], hb.shape[1])
    return _dp(a, b, *_window_bounds(rows, cols, ta, tb, radius), ends)


# The batched metrics below take two [P, T, D] batches and the pairs' own
# lengths la, lb ([P] each).  A bucketed metric reads pair p's value at its
# own cell (la[p]-1, lb[p]-1): a DTW cell depends only on the cells above it
# and to its left, so that cell is the DTW of the pair's unpadded series.


def _dtw_values(a, b, la, lb, band=None) -> np.ndarray:
    ta, tb = a.shape[1], b.shape[1]
    bounds = _full_bounds(ta, tb) if band is None else _pair_bands(la, lb, ta, band)
    return _dp(a, b, *bounds, (la, lb))


def _fastdtw_values(a, b, radius: int) -> np.ndarray:
    p, ta, _ = a.shape
    return _fastdtw_dp(a, b, radius, (np.full(p, ta), np.full(p, b.shape[1])))


def _share(count, total) -> np.ndarray:
    """count / total per pair, 0 where total is 0."""
    return np.divide(count, total, out=np.zeros(count.shape), where=total > 0)


def _tam_values(a, b, la, lb) -> np.ndarray:
    """Advance and delay proportions plus the out-of-phase fraction of the
    optimal warping path of every pair; two single-step series are in phase."""
    rows, cols = _backtrack(_dp(a, b, *_full_bounds(a.shape[1], b.shape[1])), la, lb)
    di, dj = rows[:-1] - rows[1:], cols[:-1] - cols[1:]
    advance = np.sum((di == 0) & (dj == 1), axis=0)
    delay = np.sum((di == 1) & (dj == 0), axis=0)
    phase = np.sum((di == 1) & (dj == 1), axis=0)
    values = _share(advance, lb - 1) + _share(delay, la - 1) + (
        1.0 - _share(phase, np.minimum(la, lb) - 1))
    values[(la == 1) & (lb == 1)] = 0.0
    return values


def _one_pair(metric: str, a, b, params: dict | None = None) -> float:
    """`metric` of one pair, its params checked as `pairwise` checks them."""
    fn = _batched(metric, *checked_params(metric, params))
    a, b = _as_batch(a, b)
    return float(fn(a, b, np.array([a.shape[1]]), np.array([b.shape[1]]))[0])


def dtw(a, b, band: int | None = None) -> float:
    """Classic dynamic-programming DTW; `band` is an optional Sakoe-Chiba
    half-width (off by default)."""
    return _one_pair("dtw", a, b, {"band": band})


def fastdtw(a, b, radius: int = 1) -> float:
    """Recursive coarsen-and-refine DTW approximation (linear-time family);
    equals exact DTW once the radius covers the full alignment matrix."""
    return _one_pair("fastdtw", a, b, {"radius": radius})


def tam(a, b) -> float:
    """Time alignment measurement from the optimal warping path: advance and
    delay proportions plus the out-of-phase fraction; 0 = fully in phase,
    3 = fully out of phase."""
    return _one_pair("tam", a, b)


# the param key each metric reads, with its default; any other key is rejected
METRIC_PARAMS = {"dtw": {"band": None}, "fastdtw": {"radius": 1}}


def checked_params(metric: str, params: dict | None) -> tuple[int, float | None]:
    """(radius, band) from `metric`'s params, checked without a cast: the one
    check of every distance entry point and of the config.  A key that
    `metric` does not read is an error, not ignored."""
    params = params or {}
    reads = METRIC_PARAMS.get(metric, ())
    unknown = set(params) - set(reads)
    if unknown:
        raise ValueError(f"unknown pairwise params: {sorted(unknown)} "
                         f"({metric} reads {', '.join(reads) or 'none'})")
    radius = params.get("radius", METRIC_PARAMS["fastdtw"]["radius"])
    band = params.get("band", METRIC_PARAMS["dtw"]["band"])
    if isinstance(radius, bool) or not isinstance(radius, numbers.Integral) or radius < 1:
        raise ValueError(f"radius must be an int >= 1, got {radius!r}")
    if band is not None and (isinstance(band, bool) or not isinstance(band, numbers.Real)
                             or not band >= 0):
        raise ValueError(f"band must be None or a number >= 0, got {band!r}")
    return radius, band


def _batched(metric: str, radius: int, band: float | None):
    """`metric` of the DTW family as a function of two [P, T, D] batches of
    pairs and the pairs' own [P] lengths, at params `checked_params` returned."""
    table = {"tam": _tam_values,
             "dtw": lambda a, b, la, lb: _dtw_values(a, b, la, lb, band),
             "fastdtw": lambda a, b, la, lb: _fastdtw_values(a, b, radius)}
    return table[metric]


def _chunks(runs, waste: int, allowance: int, held) -> list[tuple[int, int]]:
    """[start, stop) passes over the ranks of the pairs of `runs`, one
    (la, lb, count) per distinct length pair in sorted order, each run taking
    the next `count` ranks.  A pass is padded to its longest la and lb; it
    closes before the pair that would take the cells it holds,
    `held(ta, tb, mixed)` per pair where
    `mixed` says it holds more than one length pair, past `_CHUNK_CELLS`, or
    its padded table cells past `waste` times its pairs' own plus `allowance`
    per anti-diagonal, but always takes at least one pair.  At `waste` 1 and
    `allowance` 0 every pass holds one length pair only.  Both tests are
    linear in the pairs a run adds, so each run is one step of arithmetic:
    how many of its pairs join the open pass, then passes of its own, as
    many pairs each as the cap allows (`oracle.chunks` is the same rule
    pair by pair)."""
    passes, start, at, ta, tb, own = [], 0, 0, 0, 0, 0
    for a, b, count in runs:
        cells, join = _table_cells(a, b), 0
        if start < at:
            # pair n of the run joins while (pairs + n) * held stays within the
            # cap and n * excess within slack, which holds for every n >= 1 or
            # none when excess <= 0
            pa, pb, pairs = max(ta, a), max(tb, b), at - start
            padded = _table_cells(pa, pb)
            join = _CHUNK_CELLS // held(pa, pb, True) - pairs
            slack = waste * own + allowance * (pa + pb - 1) - pairs * padded
            excess = padded - waste * cells
            if excess > 0:
                join = min(join, slack // excess)
            elif excess > slack:
                join = 0
            join = min(max(join, 0), count)
            if join == count:
                ta, tb, own, at = pa, pb, own + count * cells, at + count
                continue
            passes.append((start, at + join))
        size, first = max(_CHUNK_CELLS // held(a, b, False), 1), at + join
        start = first + (count - join - 1) // size * size
        passes.extend((p, p + size) for p in range(first, start, size))
        ta, tb, at = a, b, at + count
        own = (at - start) * cells
    if start < at:
        passes.append((start, at))
    return passes


def _groups(lengths: np.ndarray):
    """How `pairwise` enumerates the pairs i < j of the DTW family: (order,
    bounds).  `order` sorts the series by length, stably, into G groups of
    equal length, order[bounds[g]:bounds[g + 1]] for g < G, each in index
    order; a member of a group pairs with every series of higher index."""
    order = np.argsort(lengths, kind="stable")
    _, starts = np.unique(lengths[order], return_index=True)
    return order, np.append(starts, len(order))


def _partners(groups, g: int) -> np.ndarray:
    """[N] count, for each series of `order` in turn, of group g's members
    that pair with it: those of lower index."""
    order, bounds = groups
    return np.searchsorted(order[bounds[g]:bounds[g + 1]], order)


def _length_runs(lengths: np.ndarray, groups) -> list[tuple[int, int, int]]:
    """(la, lb, count) of each distinct length pair among the pairs of
    `_groups`, sorted: group g's pairs come in the order of their partner
    in `order`, so its runs follow the partners' groups."""
    order, bounds = groups
    group_lengths = lengths[order[bounds[:-1]]].tolist()
    runs = []
    for g, a in enumerate(group_lengths):
        below = np.add.reduceat(_partners(groups, g), bounds[:-1])
        runs += zip(repeat(a), group_lengths, below.tolist())
    return [run for run in runs if run[2]]


def _pass_pairs(groups, passes):
    """(i, j) index arrays of each pass's pairs, in the ranks `_length_runs`
    counts, built a pass at a time: group g's pairs are, for each series of
    `order` in turn, its partners in the group (`_partners`), so a pass's
    series are those between the two that hold its first and last rank in
    their running sum.  Equal lengths take the upper triangle column by
    column."""
    order, bounds = groups
    g, first, end = -1, 0, 0
    for start, stop in passes:
        i, j = [], []
        while start < stop:
            while start >= end:  # the next group that has pairs
                g += 1
                below = _partners(groups, g)
                ends = np.cumsum(below)
                # rank r of series t's partners is member r + member[t] of the group
                member = bounds[g] + below - ends
                first, end = end, end + int(ends[-1])
            # ranks [lo, hi) of the group: series t0..t1 of `order`, the first
            # and last of them cut to the ranks inside
            lo, hi = start - first, min(stop, end) - first
            t0, t1 = np.searchsorted(ends, (lo, hi - 1), side="right").tolist()
            counts = below[t0:t1 + 1].copy()
            counts[0] -= lo - (ends[t0] - below[t0])
            counts[-1] -= ends[t1] - hi
            t = np.repeat(np.arange(t0, t1 + 1), counts)
            i.append(order[np.arange(lo, hi) + member[t]])
            j.append(order[t])
            start = min(stop, end)
        yield (i[0], j[0]) if len(i) == 1 else (np.concatenate(i), np.concatenate(j))


def _padded(values: np.ndarray, rows: np.ndarray, lengths: np.ndarray, t: int) -> np.ndarray:
    """[P, t, D] copy of the first t steps of the given rows, zero past each
    row's own length, so no padding value enters a cost (inf - inf would)."""
    out = values[rows, :t]
    out[np.arange(t) >= lengths[:, None]] = 0.0
    return out


def _grouped_values(tset: TimeSeriesSet, metric: str, radius: int, band: float | None):
    """([N, N] raw `metric` distances of the pairs i < j, mirrored, their min,
    their max) of the DTW family.  The pairs run sorted by (len_i, len_j) in
    passes of at most `_CHUNK_CELLS` cells held, padded cells included: for
    dtw those of its ring (`_ring_cells`), so hundreds of pairs share one
    pass, with the mask of each pair's own band when dtw has a `band` and the
    pass mixes lengths, and for tam and fastdtw those of the whole table.  A
    pass holds one length pair, or for a bucketed metric a length bucket:
    pairs of nearby lengths padded to the pass's longest, as long as its
    padded table cells stay within `_BUCKET_WASTE` times the pairs' own plus
    `_DIAGONAL_CELLS` per anti-diagonal.  Equal lengths make the same passes
    either way.  The passes are planned per distinct length pair (`_chunks`)
    and each holds its pair indices only while it runs (`_pass_pairs`).  Logs
    one DEBUG record of the passes; the padded cells are those of the
    passes' ta x tb grids."""
    n, lengths = tset.n, tset.lengths
    groups = _groups(lengths)
    runs = _length_runs(lengths, groups)
    ring, banded = metric == "dtw", band is not None
    held = ((lambda ta, tb, mixed: _ring_cells(ta, tb, tset.dims, banded and mixed)) if ring
            else (lambda ta, tb, mixed: _table_cells(ta, tb)))
    bucketed = metric in _BUCKETED
    passes = _chunks(runs, _BUCKET_WASTE if bucketed else 1, _DIAGONAL_CELLS if bucketed else 0,
                     held)
    fn, values = _batched(metric, radius, band), np.zeros((n, n))
    lo, hi, padded = np.inf, -np.inf, 0
    for i, j in _pass_pairs(groups, passes):
        pa, pb = lengths[i], lengths[j]
        ta, tb = int(pa.max()), int(pb.max())
        got = fn(_padded(tset.values, i, pa, ta), _padded(tset.values, j, pb, tb), pa, pb)
        values[i, j] = values[j, i] = got
        # np.minimum and np.maximum carry a NaN through
        lo, hi = np.minimum(lo, got.min()), np.maximum(hi, got.max())
        padded += len(got) * ta * tb
    _log.debug("pairwise %s: %d pairs of %d length pair%s in %d %s pass%s, %d padded cells",
               metric, n * (n - 1) // 2, len(runs), "" if len(runs) == 1 else "s", len(passes),
               "ring" if ring else "table", "" if len(passes) == 1 else "es", padded)
    return values, lo, hi


def _prefix_values(tset: TimeSeriesSet, metric: str):
    """([N, N] raw euc or cos distances, mirrored, their min, their max).
    Both read a pair's common prefix: with the series sorted by length,
    stably, each series x of length m meets the first m steps y of every
    later one, in blocks of at most `_CHUNK_CELLS` cells.  euc is |x - y|,
    cos 1 - their cosine similarity, clipped to [0, 2] and NaN where either
    has zero norm.  Logs one DEBUG record of the passes, one per block."""
    n, cos = tset.n, metric == "cos"
    order = np.argsort(tset.lengths, kind="stable")
    values, lo, hi, passes = np.zeros((n, n)), np.inf, -np.inf, 0
    with np.errstate(divide="ignore", invalid="ignore"):  # cos of a zero norm is NaN
        for at, i in enumerate(order[:-1].tolist()):
            m = int(tset.lengths[i])
            x = np.ascontiguousarray(tset.values[i:i + 1, :m])
            size = max(_CHUNK_CELLS // (m * tset.dims), 1)
            for start in range(at + 1, n, size):
                j = order[start:start + size]
                y = np.ascontiguousarray(tset.values[j, :m])
                if cos:
                    nx, ny = (np.sqrt(np.square(z).sum(axis=(1, 2))) for z in (x, y))
                    got = np.clip(1.0 - (x * y).sum(axis=(1, 2)) / (nx * ny), 0.0, 2.0)
                else:
                    got = np.sqrt(np.square(x - y).sum(axis=(1, 2)))
                values[i, j] = values[j, i] = got
                lo, hi = np.minimum(lo, got.min()), np.maximum(hi, got.max())
                passes += 1
    _log.debug("pairwise %s: %d pairs in %d row pass%s", metric, n * (n - 1) // 2, passes,
               "" if passes == 1 else "es")
    return values, lo, hi


def pairwise(tset: TimeSeriesSet, metric: str, params: dict | None = None) -> DistanceMatrix:
    """Upper-triangle pairwise distances on unpadded series, mirrored, then
    min-max normalized over the off-diagonal entries, in place; the padding
    of `tset` is never read.  `euc` and `cos` read each pair's common prefix,
    one row of the length-sorted series at a time against every later one
    (`_prefix_values`).  The DTW family runs in passes planned per distinct
    length pair (`_grouped_values`), whose pairs share one `_dp` with the
    pair index innermost, so each anti-diagonal of all of them is one
    contiguous run: `dtw` and `tam` by length bucket, nearby lengths padded
    to the longest and each pair read at its own cell, and `fastdtw` by
    exact length pair.  A `dtw` pass holds three diagonals of the skewed
    table, so hundreds of pairs share it; `tam` and `fastdtw`, whose
    backtracking reads every cell, are capped as the whole table.  A pass
    or a row block holds at most 2 MB, padded cells included.  Logs one
    DEBUG record per call on `tscontrast.distance`: the metric, the pairs
    and the passes, and for the DTW family the distinct length pairs,
    whether a ring or a table caps the passes, and the padded cells.
    `params` holds only the keys `metric` reads (`METRIC_PARAMS`): `band` for
    dtw (None or a number >= 0) and `radius` for fastdtw (an int >= 1, default
    1); any other key, a key of another metric too, is rejected.  Raises
    ValueError naming the first pair, in row-major order, whose distance is
    not finite: a `band` that admits no warping path, or a zero-norm common
    prefix under `cos`."""
    if metric not in METRICS:
        raise ValueError(f"unknown metric: {metric!r}")
    radius, band = checked_params(metric, params)
    if tset.n < 2:
        raise ValueError("pairwise needs at least 2 series")
    values, lo, hi = (_prefix_values(tset, metric) if metric in ("euc", "cos")
                      else _grouped_values(tset, metric, radius, band))
    if not (np.isfinite(lo) and np.isfinite(hi)):
        i, j = np.argwhere(~np.isfinite(values))[0].tolist()
        raise ValueError(f"{metric} distance between series {i} and {j} (lengths "
                         f"{tset.lengths[i]} and {tset.lengths[j]}) is not finite")
    if hi > lo:
        values -= lo
        values /= hi - lo
    else:
        # all off-diagonal distances equal: define them as maximally similar
        values.fill(0.0)
    np.fill_diagonal(values, 0.0)
    return DistanceMatrix(values=values, metric=metric)


_MAGIC = b"TSDM"
_VERSION = 2
_HEADER = struct.Struct("<4sH8sI")  # magic, version, metric tag, N


def save_matrix(m: DistanceMatrix, path) -> None:
    """A TSDM v2 file, written all or nothing through `whole_file`: the
    `_HEADER`, then row i's cells (i, i + 1) ... (i, N - 1) as native float64
    for each row in turn.  A matrix with a nonzero diagonal cell or unequal
    to its transpose is a ValueError, raised before any file is opened."""
    values = m.values
    if np.diagonal(values).any() or (values != values.T).any():
        raise ValueError("matrix is not symmetric with a zero diagonal: a TSDM file "
                         "stores its upper triangle only")
    with whole_file(path, "wb") as fh:
        fh.write(_HEADER.pack(_MAGIC, _VERSION, m.metric.encode("ascii"), m.n))
        for i in range(m.n - 1):
            fh.write(values[i, i + 1:].tobytes())


def load_matrix(path) -> DistanceMatrix:
    """Each malformed part of the file is a ValueError that names it, and a
    value that is not finite or not in [0, 1] names its cell.  The triangle
    is mirrored, so the matrix is symmetric with a zero diagonal."""
    with open(path, "rb") as fh:
        head = fh.read(_HEADER.size)
        if len(head) < _HEADER.size:
            raise ValueError(f"{path}: truncated distance cache")
        magic, version, metric_tag, n = _HEADER.unpack(head)
        if magic != _MAGIC:
            raise ValueError(f"{path}: not a distance cache")
        if version != _VERSION:
            raise ValueError(f"{path}: unsupported cache version {version}")
        metric = metric_tag.rstrip(b"\x00").decode("ascii", errors="replace")
        if metric not in METRICS:
            raise ValueError(f"{path}: unknown metric {metric!r}")
        # the file's size first, so a corrupt N allocates nothing; each row's
        # cells are then read into the one array the matrix keeps and copied
        # down their column (a file cut short meanwhile reads fewer bytes)
        if os.fstat(fh.fileno()).st_size - _HEADER.size != n * (n - 1) * 4:
            raise ValueError(f"{path}: size mismatch for N={n}")
        values = np.zeros((n, n))
        for i in range(n - 1):
            if fh.readinto(values[i, i + 1:]) != 8 * (n - 1 - i):
                raise ValueError(f"{path}: size mismatch for N={n}")
            values[i + 1:, i] = values[i, i + 1:]
    try:
        return DistanceMatrix(values, metric)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
