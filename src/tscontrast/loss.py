"""Soft contrastive objectives.

Two views of a batch are stacked so row i and row i+N hold the same instance;
the instance loss contrasts rows at each shared timestamp, the temporal loss
contrasts timestamps of the doubled 2T axis within each instance.  Weighted
cross-entropies use the extended assignment matrices, so the hard InfoNCE
case falls out at zero soft weights.  Each term at each level of the pooling
ladder is one autodiff node with a closed-form gradient; the ladder and the
level mean are autodiff ops, so the joint objective is differentiable end to
end.  `joint_loss` takes the batch's instance weights and reads `lam`, `hard`,
the pooling factor and the temporal settings from one `config.TrainConfig`.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import assign as asg
from . import autodiff as ad
from . import encoder as enc
from .autodiff import Tensor
from .config import TrainConfig


@dataclass
class LossBreakdown:
    total: float
    instance_term: float
    temporal_term: float
    per_level: list = field(default_factory=list)  # (k, instance, temporal)

    def csv_row(self):
        cells = [self.total, self.instance_term, self.temporal_term]
        for _, li, lt in self.per_level:
            cells.extend([li, lt])
        return cells


# cells of G + Gᵀ that `_soft_ce`'s backward builds at once: whole groups,
# at least one, so a batch of small groups is one matmul call
_BLOCK_CELLS = 2 ** 16


def _groups(x: np.ndarray, temporal: bool) -> np.ndarray:
    """The [2N, T, M] stack as [B, A, M] contrast groups: [T, 2N, M] for the
    instance term, [N, 2T, M] (the two views of each instance joined along
    time) for the temporal term."""
    if not temporal:
        return x.transpose(1, 0, 2)
    two_n, t, m = x.shape
    n = two_n // 2
    return x.reshape(2, n, t, m).transpose(1, 0, 2, 3).reshape(n, 2 * t, m)


def _ungroup(g: np.ndarray, temporal: bool) -> np.ndarray:
    """Inverse of `_groups`: [2N, T, M], a view of `g` or a copy."""
    if not temporal:
        return g.transpose(1, 0, 2)
    n, two_t, m = g.shape
    return g.reshape(n, 2, two_t // 2, m).transpose(1, 0, 2, 3).reshape(2 * n, two_t // 2, m)


def _softmax_off_diagonal(z: np.ndarray):
    """(log p, p), both [B, A, A]: the softmax of each row of the logits
    z zᵀ over the entries off the diagonal, with log p and p 0 on it.  The
    two are the only [B, A, A] arrays it allocates: p is built in exp's
    output."""
    a = z.shape[1]
    if a < 2:
        raise ValueError("need at least 2 items to contrast")
    diag = np.arange(a)
    sim = np.matmul(z, z.transpose(0, 2, 1))
    sim[:, diag, diag] = -np.inf
    sim -= sim.max(axis=-1, keepdims=True)
    p = np.exp(sim)
    total = p.sum(axis=-1, keepdims=True)
    sim -= np.log(total)
    sim[:, diag, diag] = 0.0          # not -inf, so a zero weight there adds 0
    p /= total
    return sim, p


def _soft_ce(reps: Tensor, w_ext: np.ndarray, temporal: bool) -> Tensor:
    """Mean over the B*A anchors of the cross-entropy of the off-diagonal
    softmax weighted by `w_ext` (its diagonal ignored), as one graph node.

    With s = z zᵀ, p its row softmax and c = 1/(B·A), the loss is
    −c Σ w ⊙ log p, so G = ∂L/∂s = c (p · Σ_{j≠i} w_ij − w) off the diagonal
    (0 on it) and ∂L/∂z = (G + Gᵀ) z.

    It holds two [B, A, A] arrays at most.  The forward weights log p in its
    own buffer and keeps only p.  The backward builds G in p's buffer, so it
    runs once per forward, and G + Gᵀ a block of groups at a time
    (`_BLOCK_CELLS`); the sums and their order are those of whole-array ops.
    """
    z = _groups(reps.data, temporal)
    b, a = z.shape[0], z.shape[1]
    logp, p = _softmax_off_diagonal(z)
    c = 1.0 / (b * a)
    logp *= w_ext
    out = np.sum(logp) * -c

    def bwd(g):
        nonlocal p
        if p is None:
            raise RuntimeError("the soft contrastive loss's backward runs once per forward")
        gs, p = p, None
        w = w_ext.copy()
        np.fill_diagonal(w, 0.0)
        gs *= w.sum(axis=1)[:, None]
        gs -= w
        gs *= g * c
        gz = np.empty((b, a, z.shape[2]))
        step = max(1, _BLOCK_CELLS // (a * a))
        for i in range(0, b, step):
            block = gs[i:i + step]
            np.matmul(block + block.transpose(0, 2, 1), z[i:i + step], out=gz[i:i + step])
        ad._accumulate(reps, _ungroup(gz, temporal), owned=True)

    return Tensor(out, parents=(reps,), backward=bwd)


def soft_instance_loss(reps, w_ext: np.ndarray) -> Tensor:
    """Mean over anchors (i, t) of the weighted cross-entropy against the
    extended instance assignments."""
    reps = ad.as_tensor(reps)
    two_n = reps.shape[0]
    if w_ext.shape != (two_n, two_n):
        raise ValueError(f"extended weights must be [{two_n}, {two_n}]")
    return _soft_ce(reps, w_ext, temporal=False)


def soft_temporal_loss(reps, w_ext_t: np.ndarray) -> Tensor:
    """Mean over anchors (i, t) with t on the doubled 2T axis.

    `reps` is the [2N, T, M] stack; the two views of instance i are rows i
    and i+N and are concatenated along time before contrasting.
    """
    reps = ad.as_tensor(reps)
    t = reps.shape[1]
    if w_ext_t.shape != (2 * t, 2 * t):
        raise ValueError(f"extended temporal weights must be [{2 * t}, {2 * t}]")
    if reps.shape[0] % 2 != 0:
        raise ValueError("stacked representations must pair up")
    return _soft_ce(reps, w_ext_t, temporal=True)


def joint_loss(reps_a, reps_b, w_inst: np.ndarray, cfg: TrainConfig):
    """Hierarchical joint objective over the pooling ladder of two aligned
    views [N, T, M]; returns (scalar Tensor, LossBreakdown).

    `w_inst` holds the batch's [N, N] instance weights (`asg.w_instance`).
    Temporal weights are rebuilt per level from `cfg` with sharpness
    `asg.effective_tau` (pool_m^k * tau_temp, or tau_temp throughout when
    `cfg.hierarchical_tau` is off), and `cfg.lam` weights the instance term.
    With `cfg.hard` every soft weight is zeroed, leaving only the cross-view
    positives (the conventional contrastive baseline).
    """
    reps_a, reps_b = ad.as_tensor(reps_a), ad.as_tensor(reps_b)
    if reps_a.shape != reps_b.shape:
        raise ValueError("views must have matching overlap shapes")
    n = reps_a.shape[0]
    w_inst = np.zeros((n, n)) if cfg.hard else np.asarray(w_inst, dtype=np.float64)
    if w_inst.shape != (n, n):
        raise ValueError(f"instance weights must be [{n}, {n}]")
    w_inst_ext = asg.extend_instance(w_inst)

    # max-pooling acts on each row alone, so pooling the stack pools both views
    ladder = enc.pool_ladder(ad.concat([reps_a, reps_b], axis=0), cfg.pool_m)
    per_level = []
    level_totals = []
    for k, stacked in enumerate(ladder):                   # [2N, T_k, M]
        t_k = stacked.shape[1]
        inst_k = soft_instance_loss(stacked, w_inst_ext)
        if cfg.hard:
            w_t = np.zeros((t_k, t_k))
        else:
            w_t = asg.w_temporal(t_k, k, cfg)
        temp_k = soft_temporal_loss(stacked, asg.extend_temporal(w_t))
        level_totals.append(ad.add(ad.mul(inst_k, cfg.lam), ad.mul(temp_k, 1.0 - cfg.lam)))
        per_level.append((k, float(inst_k.data), float(temp_k.data)))

    total = ad.mul(ad.tsum(ad.concat([ad.reshape(t, (1,)) for t in level_totals], axis=0)),
                   1.0 / len(level_totals))
    breakdown = LossBreakdown(
        total=float(total.data),
        instance_term=float(np.mean([li for _, li, _ in per_level])),
        temporal_term=float(np.mean([lt for _, _, lt in per_level])),
        per_level=per_level,
    )
    return total, breakdown

