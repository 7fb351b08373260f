"""Soft assignment weights for instance pairs and timestamp pairs.

Instance weights come from the normalized data-space distances, in [0, 1] by
`DistanceMatrix`'s check, temporal weights from integer timestamp gaps; both
have the paper-free kernels used in ablations plus the default sigmoid form.
Every setting (sharpness, alpha, kernel, the pooling factor of the hierarchy)
is read from a checked `config.TrainConfig`; the ablation kernels' widths are
fixed constants.  The losses read the [2P, 2P] extension of either table.
"""
from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .distance import DistanceMatrix

if TYPE_CHECKING:  # config imports this module for the kernel names and widths
    from .config import TrainConfig

INSTANCE_KERNELS = ("sigmoid", "no_kernel", "gaussian", "laplacian")
TEMPORAL_KERNELS = ("sigmoid", "neighbor", "linear", "gaussian")

# widths of the ablation kernels
KERNEL_SIGMA = 0.5          # sigma of the gaussian / laplacian instance kernels
NEIGHBOR_WINDOW_FRAC = 0.3  # half-width of the neighbor temporal kernel, as a fraction of T
GAUSSIAN_STD = 1.0          # std of the gaussian temporal kernel


def _sigmoid(x):
    # piecewise form keeps exp() arguments nonpositive (no overflow)
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    e = np.exp(x[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def w_instance(dist: DistanceMatrix, cfg: TrainConfig) -> np.ndarray:
    """[N, N] soft weights, non-increasing in the normalized distance."""
    d = dist.values
    if cfg.inst_kernel == "sigmoid":
        w = 2.0 * cfg.alpha * _sigmoid(-cfg.tau_inst * d)
    elif cfg.inst_kernel == "no_kernel":
        w = 1.0 - d
    elif cfg.inst_kernel == "gaussian":
        w = np.exp(-(d ** 2) / (2.0 * KERNEL_SIGMA ** 2))
    else:  # laplacian
        w = np.exp(-d / KERNEL_SIGMA)
    return w


def effective_tau(cfg: TrainConfig, level_k: int) -> float:
    """Temporal sharpness at pooling depth k: pool_m^k times tau_temp, or
    tau_temp itself when the hierarchy is off."""
    if not cfg.hierarchical_tau:
        return cfg.tau_temp
    return cfg.pool_m ** level_k * cfg.tau_temp


def w_temporal(t: int, level_k: int, cfg: TrainConfig) -> np.ndarray:
    """[T, T] soft weights from timestamp gaps at hierarchy level k."""
    if t < 1:
        raise ValueError("T must be >= 1")
    if level_k < 0:
        raise ValueError("level_k must be >= 0")
    gap = np.abs(np.arange(t)[:, None] - np.arange(t)[None, :]).astype(np.float64)
    if cfg.temp_kernel == "sigmoid":
        w = 2.0 * _sigmoid(-effective_tau(cfg, level_k) * gap)
    elif cfg.temp_kernel == "neighbor":
        window = int(np.ceil(NEIGHBOR_WINDOW_FRAC * t))
        w = (gap <= window).astype(np.float64)
    elif cfg.temp_kernel == "linear":
        w = np.ones((t, t)) if t == 1 else 1.0 - gap / (t - 1)
    else:  # gaussian
        w = np.exp(-(gap ** 2) / (2.0 * GAUSSIAN_STD ** 2))
    return w


def extend_instance(w: np.ndarray) -> np.ndarray:
    """[2N, 2N] extension with zero diagonal, 1 at cross-view positives, and
    the soft weight (indexed mod N) elsewhere.  Temporal weights [T, T]
    extend by the same rule with period T."""
    w = np.asarray(w, dtype=np.float64)
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise ValueError("assignment weights must be square")
    period = w.shape[0]
    out = np.tile(w, (2, 2))
    np.fill_diagonal(out[:period, period:], 1.0)   # cross-view positive pairs
    np.fill_diagonal(out[period:, :period], 1.0)
    np.fill_diagonal(out, 0.0)                     # anchor excluded
    return out


extend_temporal = extend_instance

