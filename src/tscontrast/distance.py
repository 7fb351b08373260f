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


# Cap on the cells of one skewed DP table: pairwise runs the pairs of a length
# group in chunks of at most this many cells (2 MB of float64).
_CHUNK_CELLS = 1 << 18


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


def _backtrack(s: np.ndarray, ta: int, tb: int):
    """Optimal warping paths of every pair in the skewed table `s` of `_dp`.

    Each walk goes from (ta-1, tb-1) back to (0, 0) along the cheapest
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
    cell = origin + (ta + tb - 2) * plane + ta - 1
    walk = [cell]
    for step in range(ta + tb - 2):
        if step >= max(ta, tb) - 1 and (cell == origin).all():
            break
        best = np.argmin(flat[cell[:, None] + moves], axis=1)
        cell = np.maximum(cell + moves[best], origin)  # a finished walk stays at (0, 0)
        walk.append(cell)
    at = np.stack(walk) - np.arange(p) * width  # (i + j + 2) * plane + i + 1
    rows = at % width - 1
    return rows, at // plane - 2 - rows


def _full_bounds(ta: int, tb: int):
    return np.zeros(ta, dtype=np.int64), np.full(ta, tb - 1)


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


def _dtw_values(a, b, band=None) -> np.ndarray:
    ta, tb = a.shape[1], b.shape[1]
    bounds = _full_bounds(ta, tb) if band is None else _band_bounds(ta, tb, band)
    return _dp(a, b, *bounds)[-1, :, ta]


def _fastdtw_values(a, b, radius: int) -> np.ndarray:
    return _fastdtw_table(a, b, radius)[-1, :, a.shape[1]]


def _tam_values(a, b) -> np.ndarray:
    """Advance and delay proportions plus the out-of-phase fraction of the
    optimal warping path of every pair."""
    ta, tb = a.shape[1], b.shape[1]
    if ta == 1 and tb == 1:
        return np.zeros(a.shape[0])
    rows, cols = _backtrack(_dp(a, b, *_full_bounds(ta, tb)), ta, tb)
    di, dj = rows[:-1] - rows[1:], cols[:-1] - cols[1:]
    advance = np.sum((di == 0) & (dj == 1), axis=0)
    delay = np.sum((di == 1) & (dj == 0), axis=0)
    phase = np.sum((di == 1) & (dj == 1), axis=0)
    p_adv = advance / (tb - 1) if tb > 1 else 0.0
    p_del = delay / (ta - 1) if ta > 1 else 0.0
    p_phase = phase / (min(ta, tb) - 1) if min(ta, tb) > 1 else 0.0
    return p_adv + p_del + (1.0 - p_phase)


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
    return float(_batched(metric, *checked_params(params))(*_as_batch(a, b))[0])


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
    """`metric` as a function of two [P, T, D] batches of pairs."""
    table = {"cos": _cos_values, "euc": _euc_values, "tam": _tam_values,
             "dtw": lambda a, b: _dtw_values(a, b, band),
             "fastdtw": lambda a, b: _fastdtw_values(a, b, radius)}
    if metric not in table:
        raise ValueError(f"unknown metric: {metric!r}")
    return table[metric]


def _grouped_values(tset: TimeSeriesSet, fn, prefix: bool) -> np.ndarray:
    """[N, N] raw distances of the pairs i < j, mirrored.  The pairs are grouped
    by (len_i, len_j), or by min(len_i, len_j) for a metric that reads only the
    common `prefix`, and each group runs in chunks of at most `_CHUNK_CELLS`
    table cells."""
    n, lengths = tset.n, tset.lengths
    values = np.zeros((n, n))
    first, second = np.triu_indices(n, k=1)
    la, lb = lengths[first], lengths[second]
    if prefix:
        la = lb = np.minimum(la, lb)
    keys = la * (tset.t_max + 1) + lb
    order = np.argsort(keys, kind="stable")
    for group in np.split(order, np.flatnonzero(np.diff(keys[order])) + 1):
        ta, tb = int(la[group[0]]), int(lb[group[0]])
        size = max(1, _CHUNK_CELLS // _table_cells(ta, tb))
        for c in range(0, group.size, size):
            i, j = first[group[c:c + size]], second[group[c:c + size]]
            values[i, j] = values[j, i] = fn(tset.values[i, :ta], tset.values[j, :tb])
    return values


def pairwise(tset: TimeSeriesSet, metric: str, params: dict | None = None) -> DistanceMatrix:
    """Upper-triangle pairwise distances on unpadded series, mirrored, then
    min-max normalized over the off-diagonal entries.  `params` may hold
    `radius` (fastdtw; an int >= 1, default 1) and `band` (dtw; None or a
    number >= 0); any other key is rejected.  Raises ValueError naming the
    first pair whose distance is not finite: a `band` that admits no warping
    path, or a zero-norm common prefix under `cos`."""
    fn = _batched(metric, *checked_params(params))
    if tset.n < 2:
        raise ValueError("pairwise needs at least 2 series")
    n = tset.n
    values = _grouped_values(tset, fn, prefix=metric in ("cos", "euc"))
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

