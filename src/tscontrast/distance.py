"""Pairwise data-space distances: DTW family, Euclidean, cosine; caching."""
from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .data import TimeSeriesSet

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


def _as_2d(a) -> np.ndarray:
    a = np.asarray(a, dtype=np.float64)
    if a.ndim == 1:
        a = a[:, None]
    if a.ndim != 2 or a.shape[0] < 1:
        raise ValueError("series must be [T, D] with T >= 1")
    return a


def _check_dims(a, b):
    if a.shape[1] != b.shape[1]:
        raise ValueError(f"channel mismatch: {a.shape[1]} vs {b.shape[1]}")


def _cost_matrix(a, b) -> np.ndarray:
    # per-step cost = L2 norm of the channel difference
    diff = a[:, None, :] - b[None, :, :]
    return np.sqrt((diff ** 2).sum(axis=2))


def _dtw_cumulative(cost: np.ndarray, lo, hi) -> list:
    """Cumulative-cost table for the step pattern {(1,0),(0,1),(1,1)}.

    Row i is filled on columns lo[i]..hi[i] (inclusive) and every other cell
    stays inf, so the full matrix, a Sakoe-Chiba band and a FastDTW window all
    run through this one loop.  Returned as a list of rows of floats.
    """
    ta, tb = cost.shape
    c = cost.tolist()
    acc = [[math.inf] * tb for _ in range(ta)]
    for i in range(ta):
        row, up, ci = acc[i], acc[i - 1], c[i]
        for j in range(lo[i], hi[i] + 1):
            if i == 0:
                best = 0.0 if j == 0 else row[j - 1]
            elif j == 0:
                best = up[0]
            else:
                best = min(up[j], row[j - 1], up[j - 1])
            row[j] = ci[j] + best
    return acc


def _full_bounds(ta: int, tb: int):
    return [0] * ta, [tb - 1] * ta


def _band_bounds(ta: int, tb: int, band) -> tuple[np.ndarray, np.ndarray]:
    """Columns j of row i with |i*tb - j*ta| <= band*max(ta, tb).  The left
    side is an integer, so flooring the width keeps the bounds exact; widths
    past ta*tb admit every cell."""
    width = math.floor(min(band * max(ta, tb), ta * tb))
    i = np.arange(ta) * tb
    lo = np.maximum(-((width - i) // ta), 0)
    hi = np.minimum((i + width) // ta, tb - 1)
    return lo, hi


def _backtrack(acc) -> list:
    """Walk back from the last cell to (0, 0) along the cheapest predecessor;
    ties prefer the diagonal step, then the vertical one."""
    i, j = len(acc) - 1, len(acc[0]) - 1
    path = [(i, j)]
    while i > 0 or j > 0:
        if i == 0:
            j -= 1
        elif j == 0:
            i -= 1
        else:
            _, i, j = min((acc[i - 1][j - 1], i - 1, j - 1), (acc[i - 1][j], i - 1, j),
                          (acc[i][j - 1], i, j - 1), key=lambda c: c[0])
        path.append((i, j))
    path.reverse()
    return path


def dtw(a, b, band: int | None = None) -> float:
    """Classic dynamic-programming DTW; `band` is an optional Sakoe-Chiba
    half-width (off by default)."""
    a, b = _as_2d(a), _as_2d(b)
    _check_dims(a, b)
    ta, tb = a.shape[0], b.shape[0]
    if band is None:
        lo, hi = _full_bounds(ta, tb)
    elif not band >= 0:
        raise ValueError("band must be >= 0")
    else:
        lo, hi = _band_bounds(ta, tb, band)
    return float(_dtw_cumulative(_cost_matrix(a, b), lo, hi)[-1][-1])


def dtw_path(a, b):
    """Optimal warping path as a list of (i, j), plus its cost.  Ties prefer
    the diagonal step, then the vertical one."""
    a, b = _as_2d(a), _as_2d(b)
    _check_dims(a, b)
    acc = _dtw_cumulative(_cost_matrix(a, b), *_full_bounds(a.shape[0], b.shape[0]))
    return _backtrack(acc), float(acc[-1][-1])


def _reduce_by_half(a: np.ndarray) -> np.ndarray:
    t = a.shape[0]
    pairs = a[: t - t % 2].reshape(t // 2, 2, a.shape[1]).mean(axis=1)
    if t % 2:
        pairs = np.vstack([pairs, a[-1:]])
    return pairs


def _window_bounds(coarse_path, ta: int, tb: int, radius: int):
    """Per-row column bounds of the FastDTW window: every coarse path cell
    widened by `radius` in both directions, projected onto the 2x finer grid.
    A monotone path widened by a square covers one contiguous run of columns
    in each row, so [lo, hi] describes the window exactly."""
    p = np.asarray(coarse_path)
    rows = np.arange(p[-1, 0] + 1)
    first = p[np.searchsorted(p[:, 0], rows), 1]
    last = p[np.searchsorted(p[:, 0], rows, side="right") - 1, 1]
    coarse_row = np.arange(ta) // 2
    lo = 2 * (first[np.maximum(coarse_row - radius, 0)] - radius)
    hi = 2 * (last[np.minimum(coarse_row + radius, rows[-1])] + radius) + 1
    return np.maximum(lo, 0), np.minimum(hi, tb - 1)


def _fastdtw_path(a, b, radius):
    ta, tb = a.shape[0], b.shape[0]
    if ta <= radius + 2 or tb <= radius + 2:
        return dtw_path(a, b)
    coarse_path, _ = _fastdtw_path(_reduce_by_half(a), _reduce_by_half(b), radius)
    acc = _dtw_cumulative(_cost_matrix(a, b), *_window_bounds(coarse_path, ta, tb, radius))
    return _backtrack(acc), float(acc[-1][-1])


def fastdtw(a, b, radius: int = 1) -> float:
    """Recursive coarsen-and-refine DTW approximation (linear-time family);
    equals exact DTW once the radius covers the full alignment matrix."""
    if radius < 1:
        raise ValueError("radius must be >= 1")
    a, b = _as_2d(a), _as_2d(b)
    _check_dims(a, b)
    _, cost = _fastdtw_path(a, b, radius)
    return cost


def tam(a, b) -> float:
    """Time alignment measurement from the optimal warping path: advance and
    delay proportions plus the out-of-phase fraction; 0 = fully in phase,
    3 = fully out of phase."""
    a, b = _as_2d(a), _as_2d(b)
    _check_dims(a, b)
    if a.shape[0] == 1 and b.shape[0] == 1:
        return 0.0
    path, _ = dtw_path(a, b)
    p = np.array(path)
    di = np.diff(p[:, 0])
    dj = np.diff(p[:, 1])
    advance = int(np.sum((di == 0) & (dj == 1)))
    delay = int(np.sum((di == 1) & (dj == 0)))
    phase = int(np.sum((di == 1) & (dj == 1)))
    ta, tb = a.shape[0], b.shape[0]
    p_adv = advance / (tb - 1) if tb > 1 else 0.0
    p_del = delay / (ta - 1) if ta > 1 else 0.0
    p_phase = phase / (min(ta, tb) - 1) if min(ta, tb) > 1 else 0.0
    return float(p_adv + p_del + (1.0 - p_phase))


def euclidean(a, b) -> float:
    """Flattened L2 distance; unequal lengths compare the common prefix."""
    a, b = _as_2d(a), _as_2d(b)
    _check_dims(a, b)
    t = min(a.shape[0], b.shape[0])
    return float(np.linalg.norm(a[:t].ravel() - b[:t].ravel()))


def cosine_dist(a, b) -> float:
    """1 - cosine similarity of the flattened common prefix; in [0, 2]."""
    a, b = _as_2d(a), _as_2d(b)
    _check_dims(a, b)
    t = min(a.shape[0], b.shape[0])
    u, v = a[:t].ravel(), b[:t].ravel()
    nu, nv = np.linalg.norm(u), np.linalg.norm(v)
    if nu == 0 or nv == 0:
        raise ValueError("cosine distance undefined for zero-norm input")
    return float(1.0 - np.dot(u, v) / (nu * nv))


def _metric_fn(metric: str, params: dict):
    params = dict(params or {})
    if metric == "dtw":
        band = params.get("band")
        return lambda a, b: dtw(a, b, band=band)
    if metric == "fastdtw":
        radius = int(params.get("radius", 1))
        return lambda a, b: fastdtw(a, b, radius=radius)
    if metric == "tam":
        return tam
    if metric == "euc":
        return euclidean
    if metric == "cos":
        return cosine_dist
    raise ValueError(f"unknown metric: {metric!r}")


def pairwise(tset: TimeSeriesSet, metric: str, params: dict | None = None) -> DistanceMatrix:
    """Upper-triangle pairwise distances on unpadded series, mirrored, then
    min-max normalized over the off-diagonal entries."""
    if tset.n < 2:
        raise ValueError("pairwise needs at least 2 series")
    fn = _metric_fn(metric, params)
    n = tset.n
    values = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            values[i, j] = values[j, i] = fn(tset.series(i), tset.series(j))
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
    metric_tag = m.metric.encode("ascii").ljust(8, b"\x00")
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<HB8sI", _VERSION, int(m.normalized), metric_tag, m.n))
        fh.write(np.ascontiguousarray(m.values).tobytes())


def load_matrix(path) -> DistanceMatrix:
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
    metric = metric_tag.rstrip(b"\x00").decode("ascii")
    body = blob[header:]
    if len(body) != n * n * 8:
        raise ValueError(f"{path}: size mismatch for N={n}")
    values = np.frombuffer(body, dtype=np.float64).reshape(n, n).copy()
    return DistanceMatrix(values=values, metric=metric, normalized=bool(normalized))


def export_csv(m: DistanceMatrix, path) -> None:
    np.savetxt(path, m.values, delimiter=",")
