"""Pairwise data-space distances: DTW family, Euclidean, cosine; caching."""
from __future__ import annotations

import math
import numbers
import struct
from dataclasses import dataclass

import numpy as np

from .data import TimeSeriesSet, whole_file

METRICS = ("cos", "euc", "dtw", "fastdtw", "tam")


@dataclass(frozen=True)
class DistanceMatrix:
    values: np.ndarray
    metric: str
    normalized: bool = False

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        object.__setattr__(self, "values", values)
        if values.ndim != 2 or values.shape[0] != values.shape[1]:
            raise ValueError("distance matrix must be square")
        if self.metric not in METRICS:
            raise ValueError(f"unknown metric: {self.metric!r}")

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


# Cap on the cells of one skewed DP table: pairwise runs its pairs in chunks
# of at most this many cells (2 MB of float64), padded cells included.
_CHUNK_CELLS = 1 << 18
# A chunk of a bucketed metric pads its pairs to its longest lengths, and
# closes before its padded cells would pass this many times the pairs' own.
_BUCKET_WASTE = 2
# The metrics whose pairs are bucketed: each pair's DTW is its own cell of the
# padded table.  fastdtw keeps exact length pairs, because `_reduce_by_half`
# keeps an odd last step alone and a padded series would coarsen differently;
# euc and cos keep their common-prefix groups.
_BUCKETED = ("dtw", "tam")


def _table_cells(ta: int, tb: int) -> int:
    return (ta + tb + 1) * (ta + 1)


def _cost_diagonal(a, rb, k: int, i0: int, i1: int) -> np.ndarray:
    """[P, i1 - i0] step costs of the cells (i, k - i), i0 <= i < i1: the L2
    norm of the channel difference.  `rb` is b with its steps reversed, so
    the partners of a[:, i0:i1] are one forward slice of it."""
    tail = rb.shape[1] - 1 - k
    diff = a[:, i0:i1] - rb[:, tail + i0:tail + i1]
    np.square(diff, out=diff)
    cost = diff[:, :, 0] if diff.shape[2] == 1 else diff.sum(axis=2)
    return np.sqrt(cost)


def _dp(a: np.ndarray, b: np.ndarray, lo, hi) -> np.ndarray:
    """Cumulative-cost tables of P alignments with the step pattern
    {(1,0),(0,1),(1,1)}, filled one anti-diagonal at a time.

    `a` is [P, ta, D] and `b` is [P, tb, D].  Row i of pair p is filled on
    columns lo[p, i]..hi[p, i] (inclusive; `lo`/`hi` are [ta], [1, ta] or
    [P, ta]) and every other cell stays inf, so the full matrix, a Sakoe-Chiba
    band and a FastDTW window all run through this one loop.  The table is
    skewed, S[i + j + 2, p, i + 1] = acc[p, i, j]: the cells of one
    anti-diagonal depend only on the two before it, so each diagonal is two
    `np.minimum` and one `np.add` over contiguous slices.  Column 0 and
    diagonals 0-1 are an inf pad except S[0, :, 0] = 0, the predecessor of
    (0, 0), so every cell is cost + min(up, left, diagonal).
    """
    p, ta, _ = a.shape
    tb = b.shape[1]
    lo, hi = np.atleast_2d(lo, hi)
    rb = np.ascontiguousarray(b[:, ::-1])
    s = np.full((ta + tb + 1, p, ta + 1), np.inf)
    s[0, :, 0] = 0.0
    # Row i meets diagonal k inside its bounds iff lo[i] + i <= k <= hi[i] + i;
    # both sides grow with i, so those rows are one run [start, stop) per pair
    # and the loop fills the union of the runs.
    rows, diagonals = np.arange(ta), np.arange(ta + tb - 1)
    start = np.array([np.searchsorted(h + rows, diagonals, "left") for h in hi])
    stop = np.array([np.searchsorted(l + rows, diagonals, "right") for l in lo])
    i0s, i1s = start.min(axis=0), stop.max(axis=0)
    shared = (start.max(axis=0) == i0s) & (stop.min(axis=0) == i1s)
    if not shared.all():
        # [P, diagonal, row]: cells outside their own pair's run get cost inf
        outside = (rows < start[..., None]) | (rows >= stop[..., None])
    for k, i0, i1, same in zip(range(ta + tb - 1), i0s.tolist(), i1s.tolist(), shared.tolist()):
        if i0 >= i1:
            continue
        cost = _cost_diagonal(a, rb, k, i0, i1)
        if not same:
            np.copyto(cost, np.inf, where=outside[:, k, i0:i1])
        d = k + 2
        out = s[d, :, i0 + 1:i1 + 1]
        np.minimum(s[d - 1, :, i0:i1], s[d - 1, :, i0 + 1:i1 + 1], out=out)
        np.minimum(out, s[d - 2, :, i0:i1], out=out)
        np.add(cost, out, out=out)
    return s


def _backtrack(s: np.ndarray, la, lb):
    """Optimal warping paths of every pair in the skewed table `s` of `_dp`.

    `la`/`lb` are the pairs' own lengths, [P] or one int for all, so pair p's
    walk goes from (la[p]-1, lb[p]-1) back to (0, 0) along the cheapest
    predecessor, the first minimum of (diagonal, vertical, horizontal): ties
    prefer the diagonal step, then the vertical one.  The inf pad keeps a
    walk on row 0 or column 0 on it.  Returns (rows, cols), each
    [steps, P] and last cell first; a pair whose path ended earlier repeats
    (0, 0).
    """
    _, p, width = s.shape
    plane = p * width
    flat = s.reshape(-1)
    # a cell is tracked by its flat index in `s`; a step moves it by `moves`
    moves = np.array([-2 * plane - 1, -plane - 1, -plane])
    origin = 2 * plane + np.arange(p) * width + 1
    cell = origin + (la + lb - 2) * plane + la - 1
    walk = [cell]
    # pair p's walk takes at least max(la[p], lb[p]) - 1 steps
    fewest = int(np.max(np.maximum(la, lb))) - 1
    for step in range(int(np.max(la + lb)) - 2):
        if step >= fewest and (cell == origin).all():
            break
        best = np.argmin(flat[cell[:, None] + moves], axis=1)
        cell = np.maximum(cell + moves[best], origin)  # a finished walk stays at (0, 0)
        walk.append(cell)
    at = np.stack(walk) - np.arange(p) * width  # (i + j + 2) * plane + i + 1
    rows = at % width - 1
    return rows, at // plane - 2 - rows


def _full_bounds(ta: int, tb: int):
    return np.zeros(ta, dtype=np.int64), np.full(ta, tb - 1)


def _pair_bands(la, lb, ta: int, band) -> tuple[np.ndarray, np.ndarray]:
    """[P, ta] bounds of each pair's own Sakoe-Chiba band in a table padded to
    `ta` rows, or [ta] when every pair has the same lengths.  Rows past a
    pair's length repeat its last row, so lo and hi stay non-decreasing, as
    `_dp` assumes."""
    keys = list(zip(la.tolist(), lb.tolist()))
    bands = {key: tuple(np.pad(x, (0, ta - key[0]), mode="edge")
                        for x in _band_bounds(*key, band)) for key in set(keys)}
    if len(bands) == 1:
        return bands[keys[0]]
    lo, hi = zip(*(bands[key] for key in keys))
    return np.stack(lo), np.stack(hi)


def _band_bounds(ta: int, tb: int, band) -> tuple[np.ndarray, np.ndarray]:
    """Columns j of row i with |i*tb - j*ta| <= band*max(ta, tb).  The left
    side is an integer, so flooring the width keeps the bounds exact; widths
    past ta*tb admit every cell."""
    width = math.floor(min(band * max(ta, tb), ta * tb))
    i = np.arange(ta) * tb
    lo = np.maximum(-((width - i) // ta), 0)
    hi = np.minimum((i + width) // ta, tb - 1)
    return lo, hi


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


def _fastdtw_table(a, b, radius: int) -> np.ndarray:
    """`_dp` table of FastDTW: align the half-length series recursively, then
    fill only the window around the projected coarse path."""
    ta, tb = a.shape[1], b.shape[1]
    if ta <= radius + 2 or tb <= radius + 2:
        return _dp(a, b, *_full_bounds(ta, tb))
    ha, hb = _reduce_by_half(a), _reduce_by_half(b)
    rows, cols = _backtrack(_fastdtw_table(ha, hb, radius), ha.shape[1], hb.shape[1])
    return _dp(a, b, *_window_bounds(rows, cols, ta, tb, radius))


# The batched metrics below take two [P, T, D] batches and the pairs' own
# lengths la, lb ([P] each).  A bucketed metric reads pair p's value at its
# own cell (la[p]-1, lb[p]-1): a DTW cell depends only on the cells above it
# and to its left, so that cell is the DTW of the pair's unpadded series.


def _dtw_values(a, b, la, lb, band=None) -> np.ndarray:
    ta, tb = a.shape[1], b.shape[1]
    bounds = _full_bounds(ta, tb) if band is None else _pair_bands(la, lb, ta, band)
    return _dp(a, b, *bounds)[la + lb, np.arange(a.shape[0]), la]


def _fastdtw_values(a, b, radius: int) -> np.ndarray:
    return _fastdtw_table(a, b, radius)[-1, :, a.shape[1]]


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


def _euc_values(a, b) -> np.ndarray:
    t = min(a.shape[1], b.shape[1])
    return np.sqrt(np.square(a[:, :t] - b[:, :t]).sum(axis=(1, 2)))


def _cos_values(a, b) -> np.ndarray:
    """1 - cosine similarity of the common prefix, clipped to [0, 2]; NaN when
    either prefix has zero norm."""
    t = min(a.shape[1], b.shape[1])
    u, v = a[:, :t], b[:, :t]
    nu, nv = (np.sqrt(np.square(x).sum(axis=(1, 2))) for x in (u, v))
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.clip(1.0 - (u * v).sum(axis=(1, 2)) / (nu * nv), 0.0, 2.0)


def _one_pair(metric: str, a, b, params: dict | None = None) -> float:
    """`metric` of one pair, its params checked as `pairwise` checks them."""
    fn = _batched(metric, *checked_params(params))
    a, b = _as_batch(a, b)
    return float(fn(a, b, np.array([a.shape[1]]), np.array([b.shape[1]]))[0])


def dtw(a, b, band: int | None = None) -> float:
    """Classic dynamic-programming DTW; `band` is an optional Sakoe-Chiba
    half-width (off by default)."""
    return _one_pair("dtw", a, b, {"band": band})


def dtw_path(a, b):
    """Optimal warping path as a list of (i, j), plus its cost.  Ties prefer
    the diagonal step, then the vertical one."""
    a, b = _as_batch(a, b)
    ta, tb = a.shape[1], b.shape[1]
    s = _dp(a, b, *_full_bounds(ta, tb))
    rows, cols = _backtrack(s, ta, tb)
    steps = int(np.argmax((rows[:, 0] == 0) & (cols[:, 0] == 0))) + 1
    path = list(zip(rows[steps - 1::-1, 0].tolist(), cols[steps - 1::-1, 0].tolist()))
    return path, float(s[-1, 0, ta])


def fastdtw(a, b, radius: int = 1) -> float:
    """Recursive coarsen-and-refine DTW approximation (linear-time family);
    equals exact DTW once the radius covers the full alignment matrix."""
    return _one_pair("fastdtw", a, b, {"radius": radius})


def tam(a, b) -> float:
    """Time alignment measurement from the optimal warping path: advance and
    delay proportions plus the out-of-phase fraction; 0 = fully in phase,
    3 = fully out of phase."""
    return _one_pair("tam", a, b)


def euclidean(a, b) -> float:
    """Flattened L2 distance; unequal lengths compare the common prefix."""
    return _one_pair("euc", a, b)


def cosine_dist(a, b) -> float:
    """1 - cosine similarity of the flattened common prefix; in [0, 2]."""
    d = _one_pair("cos", a, b)
    if math.isnan(d):
        raise ValueError("cosine distance undefined for zero-norm input")
    return d


def checked_params(params: dict | None) -> tuple[int, float | None]:
    """(radius, band) from a metric's params, checked without a cast: the one
    check of every distance entry point and of the config."""
    params = params or {}
    unknown = set(params) - {"radius", "band"}
    if unknown:
        raise ValueError(f"unknown pairwise params: {sorted(unknown)}")
    radius, band = params.get("radius", 1), params.get("band")
    if isinstance(radius, bool) or not isinstance(radius, numbers.Integral) or radius < 1:
        raise ValueError(f"radius must be an int >= 1, got {radius!r}")
    if band is not None and (isinstance(band, bool) or not isinstance(band, numbers.Real)
                             or not band >= 0):
        raise ValueError(f"band must be None or a number >= 0, got {band!r}")
    return radius, band


def _batched(metric: str, radius: int, band: float | None):
    """`metric` as a function of two [P, T, D] batches of pairs and the pairs'
    own [P] lengths."""
    table = {"cos": lambda a, b, la, lb: _cos_values(a, b),
             "euc": lambda a, b, la, lb: _euc_values(a, b),
             "tam": _tam_values,
             "dtw": lambda a, b, la, lb: _dtw_values(a, b, la, lb, band),
             "fastdtw": lambda a, b, la, lb: _fastdtw_values(a, b, radius)}
    if metric not in table:
        raise ValueError(f"unknown metric: {metric!r}")
    return table[metric]


def _chunks(la: list, lb: list, waste: int):
    """[start, stop) runs of the sorted pairs with lengths `la`/`lb`.  A run
    is padded to its longest la and lb; it closes before the pair that would
    take its padded table cells past `_CHUNK_CELLS` or past `waste` times its
    pairs' own cells, but always takes at least one pair.  At `waste` 1 every
    run holds one length pair only."""
    runs, start, ta, tb, own = [], 0, 0, 0, 0
    for p, (a, b) in enumerate(zip(la, lb)):
        cells = _table_cells(a, b)
        padded = (p + 1 - start) * _table_cells(max(ta, a), max(tb, b))
        if p > start and (padded > _CHUNK_CELLS or padded > waste * (own + cells)):
            runs.append((start, p))
            start, ta, tb, own = p, 0, 0, 0
        ta, tb, own = max(ta, a), max(tb, b), own + cells
    runs.append((start, len(la)))
    return runs


def _padded(values: np.ndarray, rows: np.ndarray, lengths: np.ndarray, t: int) -> np.ndarray:
    """[P, t, D] copy of the first t steps of the given rows, zero past each
    row's own length, so no padding value enters a cost (inf - inf would)."""
    out = values[rows, :t]
    out[np.arange(t) >= lengths[:, None]] = 0.0
    return out


def _grouped_values(tset: TimeSeriesSet, fn, prefix: bool, bucket: bool) -> np.ndarray:
    """[N, N] raw distances of the pairs i < j, mirrored.  The pairs are sorted
    by (len_i, len_j), or by min(len_i, len_j) for a metric that reads only the
    common `prefix`, and run in chunks of at most `_CHUNK_CELLS` table cells,
    padded cells included.  A chunk holds one length pair, or for a `bucket`
    metric a length bucket: pairs of nearby lengths padded to the chunk's
    longest, as long as its padded cells stay within `_BUCKET_WASTE` times the
    pairs' own.  Equal lengths make the same chunks either way."""
    n, lengths = tset.n, tset.lengths
    values = np.zeros((n, n))
    first, second = np.triu_indices(n, k=1)
    la, lb = lengths[first], lengths[second]
    if prefix:
        la = lb = np.minimum(la, lb)
    order = np.lexsort((lb, la))
    la, lb, first, second = la[order], lb[order], first[order], second[order]
    for start, stop in _chunks(la.tolist(), lb.tolist(), _BUCKET_WASTE if bucket else 1):
        i, j, pa, pb = (x[start:stop] for x in (first, second, la, lb))
        ta, tb = int(pa.max()), int(pb.max())
        values[i, j] = values[j, i] = fn(_padded(tset.values, i, pa, ta),
                                          _padded(tset.values, j, pb, tb), pa, pb)
    return values


def pairwise(tset: TimeSeriesSet, metric: str, params: dict | None = None) -> DistanceMatrix:
    """Upper-triangle pairwise distances on unpadded series, mirrored, then
    min-max normalized over the off-diagonal entries.  Pairs run in chunks of
    at most 2 MB of DP table, padded cells included: `dtw` and `tam` by length
    bucket (nearby lengths share a table padded to the longest, each pair read
    at its own cell), `fastdtw` by exact length pair and `euc`/`cos` by common
    prefix (see `_grouped_values`); the padding of `tset` is never read.
    `params` may hold `radius` (fastdtw; an int >= 1, default 1) and `band`
    (dtw; None or a number >= 0); any other key is rejected.  Raises ValueError naming the
    first pair whose distance is not finite: a `band` that admits no warping
    path, or a zero-norm common prefix under `cos`."""
    fn = _batched(metric, *checked_params(params))
    if tset.n < 2:
        raise ValueError("pairwise needs at least 2 series")
    n = tset.n
    values = _grouped_values(tset, fn, prefix=metric in ("cos", "euc"),
                             bucket=metric in _BUCKETED)
    bad = np.argwhere(~np.isfinite(values))
    if bad.size:
        i, j = bad[0].tolist()
        raise ValueError(f"{metric} distance between series {i} and {j} (lengths "
                         f"{tset.lengths[i]} and {tset.lengths[j]}) is not finite")
    off = ~np.eye(n, dtype=bool)
    lo, hi = values[off].min(), values[off].max()
    if hi > lo:
        values = (values - lo) / (hi - lo)
    else:
        # all off-diagonal distances equal: define them as maximally similar
        values = np.zeros_like(values)
    np.fill_diagonal(values, 0.0)
    return DistanceMatrix(values=values, metric=metric, normalized=True)


_MAGIC = b"TSDM"
_VERSION = 1


def save_matrix(m: DistanceMatrix, path) -> None:
    """A TSDM v1 file, written all or nothing through `whole_file`."""
    metric_tag = m.metric.encode("ascii").ljust(8, b"\x00")
    with whole_file(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<HB8sI", _VERSION, int(m.normalized), metric_tag, m.n))
        fh.write(np.ascontiguousarray(m.values).tobytes())


def load_matrix(path) -> DistanceMatrix:
    """Each malformed part of the file is a ValueError that names it."""
    with open(path, "rb") as fh:
        blob = fh.read()
    header = struct.calcsize("<4sHB8sI")
    if len(blob) < header:
        raise ValueError(f"{path}: truncated distance cache")
    magic, version, normalized, metric_tag, n = struct.unpack("<4sHB8sI", blob[:header])
    if magic != _MAGIC:
        raise ValueError(f"{path}: not a distance cache")
    if version != _VERSION:
        raise ValueError(f"{path}: unsupported cache version {version}")
    metric = metric_tag.rstrip(b"\x00").decode("ascii", errors="replace")
    if metric not in METRICS:
        raise ValueError(f"{path}: unknown metric {metric!r}")
    body = blob[header:]
    if len(body) != n * n * 8:
        raise ValueError(f"{path}: size mismatch for N={n}")
    values = np.frombuffer(body, dtype=np.float64).reshape(n, n).copy()
    if not np.isfinite(values).all():
        raise ValueError(f"{path}: non-finite distance values")
    return DistanceMatrix(values=values, metric=metric, normalized=bool(normalized))

