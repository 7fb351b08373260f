"""Soft contrastive objectives.

Two views of a batch are stacked so row i and row i+N hold the same instance;
the instance loss contrasts rows at each shared timestamp, the temporal loss
contrasts timestamps of the doubled 2T axis within each instance.  Weighted
cross-entropies use the extended assignment matrices, so the hard InfoNCE
case falls out at zero soft weights.  Everything is built from autodiff ops
so the joint objective is differentiable end to end.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import assign as asg
from . import autodiff as ad
from . import encoder as enc
from .autodiff import Tensor
from .distance import DistanceMatrix


@dataclass
class LossBreakdown:
    total: float
    instance_term: float
    temporal_term: float
    lam: float
    per_level: list = field(default_factory=list)  # (k, instance, temporal)

    def csv_row(self):
        cells = [self.total, self.instance_term, self.temporal_term]
        for _, li, lt in self.per_level:
            cells.extend([li, lt])
        return cells


def _log_p(z: Tensor, temperature: float = 1.0) -> Tensor:
    """[B, A, A] log-probabilities; entry (b, i, j) is log p of pair (i, j) in
    group b, self-similarities excluded from the normalizer."""
    a = z.shape[1]
    if a < 2:
        raise ValueError("need at least 2 items to contrast")
    sim = ad.matmul(z, ad.transpose(z, (0, 2, 1)))         # [B, A, A]
    if temperature != 1.0:
        sim = ad.mul(sim, 1.0 / temperature)
    mask = ~np.eye(a, dtype=bool)[None, :, :]
    return ad.masked_log_softmax(sim, mask)


def _probabilities(z: Tensor, temperature: float) -> np.ndarray:
    """exp of `_log_p` with the excluded diagonal set to zero."""
    logp = _log_p(z, temperature)
    return np.where(~np.eye(logp.shape[1], dtype=bool)[None, :, :], np.exp(logp.data), 0.0)


def _weighted_ce(logp: Tensor, w_ext: np.ndarray) -> Tensor:
    """Mean over the B*A anchors of the cross-entropy weighted by `w_ext`."""
    b, a = logp.shape[0], logp.shape[1]
    return ad.mul(ad.tsum(ad.mul(logp, w_ext[None, :, :])), -1.0 / (b * a))


def _temporal_view(reps: Tensor) -> Tensor:
    """[2N, T, M] stack -> [N, 2T, M], the two views of each instance joined
    along time."""
    if reps.shape[0] % 2 != 0:
        raise ValueError("stacked representations must pair up")
    n = reps.shape[0] // 2
    return ad.concat([reps[:n], reps[n:]], axis=1)


def p_instance(reps, temperature: float = 1.0) -> np.ndarray:
    """Softmax pair probabilities as [T, 2N, 2N] values (diagonal zero)."""
    return _probabilities(ad.transpose(ad.as_tensor(reps), (1, 0, 2)), temperature)


def soft_instance_loss(reps, w_ext: np.ndarray, temperature: float = 1.0) -> Tensor:
    """Mean over anchors (i, t) of the weighted cross-entropy against the
    extended instance assignments."""
    reps = ad.as_tensor(reps)
    two_n = reps.shape[0]
    if w_ext.shape != (two_n, two_n):
        raise ValueError(f"extended weights must be [{two_n}, {two_n}]")
    return _weighted_ce(_log_p(ad.transpose(reps, (1, 0, 2)), temperature), w_ext)


def p_temporal(reps_2t, temperature: float = 1.0) -> np.ndarray:
    """Softmax timestamp-pair probabilities as [2T, 2T] (or [N, 2T, 2T])."""
    arr = ad.as_tensor(reps_2t)
    squeeze = arr.ndim == 2
    if squeeze:
        arr = ad.reshape(arr, (1,) + arr.shape)
    out = _probabilities(arr, temperature)
    return out[0] if squeeze else out


def soft_temporal_loss(reps, w_ext_t: np.ndarray, temperature: float = 1.0) -> Tensor:
    """Mean over anchors (i, t) with t on the doubled 2T axis.

    `reps` is the [2N, T, M] stack; the two views of instance i are rows i
    and i+N and are concatenated along time before contrasting.
    """
    reps = ad.as_tensor(reps)
    t = reps.shape[1]
    if w_ext_t.shape != (2 * t, 2 * t):
        raise ValueError(f"extended temporal weights must be [{2 * t}, {2 * t}]")
    return _weighted_ce(_log_p(_temporal_view(reps), temperature), w_ext_t)


def joint_loss(
    reps_a,
    reps_b,
    dist: DistanceMatrix | np.ndarray,
    icfg: asg.InstanceAssignConfig,
    tcfg: asg.TemporalAssignConfig,
    lam: float = 0.5,
    temperature: float = 1.0,
    hard: bool = False,
):
    """Hierarchical joint objective over the pooling ladder of two aligned
    views [N, T, M]; returns (scalar Tensor, LossBreakdown).

    Instance weights are computed once from the distance matrix; temporal
    weights are rebuilt per level with sharpness `asg.effective_tau` (m^k *
    tau_base, or tau_base throughout when `tcfg.hierarchical` is off).  With
    `hard=True` every soft weight is zeroed, leaving only the cross-view
    positives (the conventional contrastive baseline).
    """
    if not 0.0 <= lam <= 1.0:
        raise ValueError("lambda must be in [0, 1]")
    reps_a, reps_b = ad.as_tensor(reps_a), ad.as_tensor(reps_b)
    if reps_a.shape != reps_b.shape:
        raise ValueError("views must have matching overlap shapes")
    n = reps_a.shape[0]
    if hard:
        w_inst = np.zeros((n, n))
    elif isinstance(dist, DistanceMatrix):
        w_inst = asg.w_instance(dist, icfg)
    else:
        w_inst = np.asarray(dist, dtype=np.float64)
    if w_inst.shape != (n, n):
        raise ValueError(f"instance weights must be [{n}, {n}]")
    w_inst_ext = asg.extend_instance(w_inst)

    ladder_a = enc.pool_ladder(reps_a, tcfg.pool_kernel_m)
    ladder_b = enc.pool_ladder(reps_b, tcfg.pool_kernel_m)
    per_level = []
    level_totals = []
    for k, (ra, rb) in enumerate(zip(ladder_a, ladder_b)):
        stacked = ad.concat([ra, rb], axis=0)              # [2N, T_k, M]
        inst_k = soft_instance_loss(stacked, w_inst_ext, temperature)
        if hard:
            w_t = np.zeros((ra.shape[1], ra.shape[1]))
        else:
            w_t = asg.w_temporal(ra.shape[1], k, tcfg)
        temp_k = soft_temporal_loss(stacked, asg.extend_temporal(w_t), temperature)
        level_totals.append(ad.add(ad.mul(inst_k, lam), ad.mul(temp_k, 1.0 - lam)))
        per_level.append((k, float(inst_k.data), float(temp_k.data)))

    total = ad.mul(ad.tsum(ad.concat([ad.reshape(t, (1,)) for t in level_totals], axis=0)),
                   1.0 / len(level_totals))
    breakdown = LossBreakdown(
        total=float(total.data),
        instance_term=float(np.mean([li for _, li, _ in per_level])),
        temporal_term=float(np.mean([lt for _, _, lt in per_level])),
        lam=lam,
        per_level=per_level,
    )
    return total, breakdown


def kl_identity_check(reps, w_ext: np.ndarray, which: str, temperature: float = 1.0):
    """Return (lhs, rhs): the weighted cross-entropy loss versus its
    scaled-KL rewrite Z * (KL(Q || P) + H(Q)), both averaged over anchors."""
    reps = ad.as_tensor(reps)
    if which == "instance":
        lhs = float(soft_instance_loss(reps, w_ext, temperature).data)
        view = ad.transpose(reps, (1, 0, 2))
    elif which == "temporal":
        lhs = float(soft_temporal_loss(reps, w_ext, temperature).data)
        view = _temporal_view(reps)
    else:
        raise ValueError("which must be 'instance' or 'temporal'")
    logp = _log_p(view, temperature).data                 # [B, A, A]
    rows = logp.reshape(-1, logp.shape[-1])                # anchors x A
    w_rows = np.broadcast_to(w_ext[None, :, :], logp.shape).reshape(-1, logp.shape[-1])

    q_rows, z_rows = asg.normalize_assignments(w_rows)
    # KL(Q||P) + H(Q) per anchor; 0 log 0 = 0 by convention
    with np.errstate(divide="ignore", invalid="ignore"):
        logq = np.where(q_rows > 0, np.log(np.where(q_rows > 0, q_rows, 1.0)), 0.0)
    kl = np.where(q_rows > 0, q_rows * (logq - rows), 0.0).sum(axis=1)
    entropy = -np.where(q_rows > 0, q_rows * logq, 0.0).sum(axis=1)
    rhs = float(np.mean(z_rows * (kl + entropy)))
    return lhs, rhs
