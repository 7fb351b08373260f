"""Soft assignment weights for instance pairs and timestamp pairs.

Instance weights come from the normalized data-space distance matrix, temporal
weights from integer timestamp gaps; both have the paper-free kernels used in
ablations plus the default sigmoid form.  Extended/normalized variants back
the KL-identity checks.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distance import DistanceMatrix

INSTANCE_KERNELS = ("sigmoid", "no_kernel", "gaussian", "laplacian")
TEMPORAL_KERNELS = ("sigmoid", "neighbor", "linear", "gaussian")


@dataclass(frozen=True)
class InstanceAssignConfig:
    tau: float = 10.0          # sharpness of the sigmoid decay
    alpha: float = 0.5         # upper bound on distinct-pair weights
    kernel: str = "sigmoid"
    kernel_sigma: float = 0.5  # sigma for gaussian / laplacian

    def __post_init__(self):
        if self.tau <= 0:
            raise ValueError("tau must be > 0")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must be in [0, 1]")
        if self.kernel not in INSTANCE_KERNELS:
            raise ValueError(f"unknown instance kernel: {self.kernel!r}")
        if self.kernel_sigma <= 0:
            raise ValueError("kernel_sigma must be > 0")


@dataclass(frozen=True)
class TemporalAssignConfig:
    tau_base: float = 1.0          # base sharpness, scaled by m^k per level
    pool_kernel_m: int = 2
    kernel: str = "sigmoid"
    neighbor_window_frac: float = 0.3
    gaussian_std: float = 1.0
    hierarchical: bool = True      # False: tau_base at every level (ablation)

    def __post_init__(self):
        if self.tau_base <= 0:
            raise ValueError("tau_base must be > 0")
        if self.pool_kernel_m < 2:
            raise ValueError("pool_kernel_m must be >= 2")
        if self.kernel not in TEMPORAL_KERNELS:
            raise ValueError(f"unknown temporal kernel: {self.kernel!r}")
        if not 0.0 < self.neighbor_window_frac <= 1.0:
            raise ValueError("neighbor_window_frac must be in (0, 1]")
        if self.gaussian_std <= 0:
            raise ValueError("gaussian_std must be > 0")


def _sigmoid(x):
    # piecewise form keeps exp() arguments nonpositive (no overflow)
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    e = np.exp(x[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def w_instance(dist: DistanceMatrix, cfg: InstanceAssignConfig) -> np.ndarray:
    """[N, N] soft weights, non-increasing in the normalized distance."""
    if not dist.normalized:
        raise ValueError("instance weights need a min-max normalized matrix")
    d = dist.values
    if cfg.kernel == "sigmoid":
        w = 2.0 * cfg.alpha * _sigmoid(-cfg.tau * d)
    elif cfg.kernel == "no_kernel":
        w = 1.0 - d
    elif cfg.kernel == "gaussian":
        w = np.exp(-(d ** 2) / (2.0 * cfg.kernel_sigma ** 2))
    else:  # laplacian
        w = np.exp(-d / cfg.kernel_sigma)
    return w


def effective_tau(cfg: TemporalAssignConfig, level_k: int) -> float:
    """Sharpness at pooling depth k: m^k times the base value, or the base
    value itself when the hierarchy is off."""
    if not cfg.hierarchical:
        return cfg.tau_base
    return cfg.pool_kernel_m ** level_k * cfg.tau_base


def w_temporal(t: int, level_k: int, cfg: TemporalAssignConfig) -> np.ndarray:
    """[T, T] soft weights from timestamp gaps at hierarchy level k."""
    if t < 1:
        raise ValueError("T must be >= 1")
    if level_k < 0:
        raise ValueError("level_k must be >= 0")
    gap = np.abs(np.arange(t)[:, None] - np.arange(t)[None, :]).astype(np.float64)
    if cfg.kernel == "sigmoid":
        w = 2.0 * _sigmoid(-effective_tau(cfg, level_k) * gap)
    elif cfg.kernel == "neighbor":
        window = int(np.ceil(cfg.neighbor_window_frac * t))
        w = (gap <= window).astype(np.float64)
    elif cfg.kernel == "linear":
        w = np.ones((t, t)) if t == 1 else 1.0 - gap / (t - 1)
    else:  # gaussian
        w = np.exp(-(gap ** 2) / (2.0 * cfg.gaussian_std ** 2))
    return w


def extend_instance(w: np.ndarray) -> np.ndarray:
    """[2N, 2N] extension with zero diagonal, 1 at cross-view positives, and
    the soft weight (indexed mod N) elsewhere.  Temporal weights [T, T]
    extend by the same rule with period T."""
    w = np.asarray(w, dtype=np.float64)
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise ValueError("assignment weights must be square")
    period = w.shape[0]
    idx = np.arange(2 * period)
    mod_i = idx[:, None] % period
    mod_j = idx[None, :] % period
    out = w[mod_i, mod_j]
    out[mod_i == mod_j] = 1.0       # positive pair / same-origin rule
    np.fill_diagonal(out, 0.0)      # anchor excluded
    return out


extend_temporal = extend_instance


def normalize_assignments(w_ext: np.ndarray):
    """Row-normalize extended assignments; returns (q, Z) with Z the row sums."""
    w_ext = np.asarray(w_ext, dtype=np.float64)
    if np.any(w_ext < 0):
        raise ValueError("assignments must be nonnegative")
    z = w_ext.sum(axis=1)
    if np.any(z <= 0):
        raise ValueError("every row needs at least one positive entry")
    return w_ext / z[:, None], z
