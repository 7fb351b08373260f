"""Seeded pretraining loop: batching, view cropping, loss, Adam step,
logging, and bit-exact checkpoint/resume."""
from __future__ import annotations

import csv
import json
import logging
import zlib
from dataclasses import dataclass, asdict

import numpy as np

from . import assign as asg
from . import autodiff as ad
from . import encoder as enc
from . import loss as losses
from .data import TimeSeriesSet, crop_two_views
from .distance import DistanceMatrix

log = logging.getLogger("tscontrast.train")


def split_seed(master: int, label: str) -> int:
    """Derive an independent stream seed from one master seed and a label."""
    return int(np.random.SeedSequence([master, zlib.crc32(label.encode())]).generate_state(1)[0])


@dataclass
class TrainConfig:
    lr: float = 0.001
    batch_size: int = 8
    iters: int = 200
    lam: float = 0.5
    tau_inst: float = 10.0
    tau_temp: float = 1.0
    alpha: float = 0.5
    inst_kernel: str = "sigmoid"
    temp_kernel: str = "sigmoid"
    kernel_sigma: float = 0.5
    neighbor_window_frac: float = 0.3
    gaussian_std: float = 1.0
    pool_m: int = 2
    hierarchical_tau: bool = True
    hard: bool = False  # conventional contrastive baseline: all soft weights zero
    temperature: float = 1.0
    hidden: int = 32
    repr_dims: int = 16
    depth: int = 4
    mask_mode: str = "none"
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    seed: int = 0

    def instance_cfg(self) -> asg.InstanceAssignConfig:
        return asg.InstanceAssignConfig(
            tau=self.tau_inst, alpha=self.alpha,
            kernel=self.inst_kernel, kernel_sigma=self.kernel_sigma,
        )

    def temporal_cfg(self) -> asg.TemporalAssignConfig:
        return asg.TemporalAssignConfig(
            tau_base=self.tau_temp, pool_kernel_m=self.pool_m,
            kernel=self.temp_kernel,
            neighbor_window_frac=self.neighbor_window_frac,
            gaussian_std=self.gaussian_std, hierarchical=self.hierarchical_tau,
        )

    def encoder_cfg(self, input_dims: int) -> enc.EncoderConfig:
        return enc.EncoderConfig(
            input_dims=input_dims, hidden=self.hidden, output_dims=self.repr_dims,
            depth=self.depth, mask_mode=self.mask_mode,
        )


@dataclass
class TrainState:
    model: enc.EncoderModel
    m: dict
    v: dict
    step: int
    rng: np.random.Generator

    @classmethod
    def fresh(cls, cfg: TrainConfig, input_dims: int) -> "TrainState":
        model = enc.init_encoder(cfg.encoder_cfg(input_dims), seed=split_seed(cfg.seed, "init"))
        moments_m = {name: np.zeros_like(t.data) for name, t in model.params.items()}
        moments_v = {name: np.zeros_like(t.data) for name, t in model.params.items()}
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(split_seed(cfg.seed, "loop"))))
        return cls(model=model, m=moments_m, v=moments_v, step=0, rng=rng)


def _adam_step(state: TrainState, cfg: TrainConfig):
    t = state.step + 1
    for name, p in state.model.params.items():
        g = p.grad
        if g is None:
            continue
        state.m[name] = cfg.beta1 * state.m[name] + (1 - cfg.beta1) * g
        state.v[name] = cfg.beta2 * state.v[name] + (1 - cfg.beta2) * g * g
        m_hat = state.m[name] / (1 - cfg.beta1 ** t)
        v_hat = state.v[name] / (1 - cfg.beta2 ** t)
        p.data = p.data - cfg.lr * m_hat / (np.sqrt(v_hat) + cfg.eps)


def evaluate_batch_loss(state: TrainState, batch: TimeSeriesSet, w_inst: np.ndarray,
                        cfg: TrainConfig, crop_seed: int, mask_seed: int | None = None):
    """Forward pass on one batch; returns (scalar Tensor, LossBreakdown)."""
    views = crop_two_views(batch, seed=crop_seed)
    mask_rng = None
    if cfg.mask_mode == "binomial":
        mask_rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(mask_seed or 0)))
    ra = enc.encode(state.model, views.view_a, mask_mode=cfg.mask_mode, rng=mask_rng)
    rb = enc.encode(state.model, views.view_b, mask_mode=cfg.mask_mode, rng=mask_rng)
    ra_ov = ra[:, views.overlap_start_a : views.overlap_start_a + views.overlap_len]
    rb_ov = rb[:, views.overlap_start_b : views.overlap_start_b + views.overlap_len]
    return losses.joint_loss(ra_ov, rb_ov, w_inst, cfg.instance_cfg(), cfg.temporal_cfg(),
                             lam=cfg.lam, temperature=cfg.temperature, hard=cfg.hard)


def pretrain(tset: TimeSeriesSet, dist: DistanceMatrix, cfg: TrainConfig,
             state: TrainState | None = None, log_path=None):
    """Optimize the joint objective; returns (model, list of per-step logs).

    Deterministic per seed; resuming from a checkpointed state reproduces the
    uninterrupted run bitwise.
    """
    if dist.n != tset.n:
        raise ValueError(f"distance matrix is {dist.n}x{dist.n} but the set has {tset.n} series")
    if state is None:
        state = TrainState.fresh(cfg, tset.dims)
    if cfg.lam > 0 and not cfg.hard:
        w_full = asg.w_instance(dist, cfg.instance_cfg())
    else:
        w_full = np.zeros((tset.n, tset.n))
    history = []
    n = tset.n
    bs = min(cfg.batch_size, n)
    while state.step < cfg.iters:
        # each step draws its own batch so a resumed run replays identically
        idx = state.rng.choice(n, size=bs, replace=False)
        crop_seed = int(state.rng.integers(0, 2 ** 32))
        mask_seed = int(state.rng.integers(0, 2 ** 32))
        if idx.size < 2:
            log.warning("skipping size-1 batch at step %d (instance loss undefined)", state.step)
            state.step += 1
            continue
        batch = tset.subset(idx)
        w_batch = w_full[np.ix_(idx, idx)]
        total, breakdown = evaluate_batch_loss(state, batch, w_batch, cfg, crop_seed, mask_seed)
        if not np.isfinite(total.data):
            raise RuntimeError(f"non-finite loss at step {state.step}; aborting")
        ad.zero_grads(state.model.params.values())
        ad.backward(total)
        _adam_step(state, cfg)
        state.step += 1
        history.append((state.step, breakdown))
    if log_path is not None:
        write_log_csv(history, log_path)
    return state.model, history


def write_log_csv(history, path):
    depth = max((len(b.per_level) for _, b in history), default=0)
    header = ["step", "total", "instance_term", "temporal_term"]
    for k in range(depth):
        header += [f"level{k}_instance", f"level{k}_temporal"]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for step, b in history:
            row = [step] + b.csv_row()
            row += [""] * (len(header) - len(row))
            writer.writerow(row)


_CKPT_VERSION = 1


def _rng_state_to_json(state: dict) -> dict:
    """Make a bit-generator state dict JSON-safe (uint64 arrays -> lists)."""
    out = {}
    for key, value in state.items():
        if isinstance(value, dict):
            out[key] = _rng_state_to_json(value)
        elif isinstance(value, np.ndarray):
            out[key] = {"__ndarray__": value.tolist(), "dtype": str(value.dtype)}
        elif isinstance(value, np.integer):
            out[key] = int(value)
        else:
            out[key] = value
    return out


def _rng_state_from_json(state: dict) -> dict:
    out = {}
    for key, value in state.items():
        if isinstance(value, dict) and "__ndarray__" in value:
            out[key] = np.array(value["__ndarray__"], dtype=value["dtype"])
        elif isinstance(value, dict):
            out[key] = _rng_state_from_json(value)
        else:
            out[key] = value
    return out


def save_checkpoint(state: TrainState, cfg: TrainConfig, path) -> None:
    arrays = {}
    for name, t in state.model.params.items():
        arrays[f"param/{name}"] = t.data
        arrays[f"adam_m/{name}"] = state.m[name]
        arrays[f"adam_v/{name}"] = state.v[name]
    meta = {
        "train_config": asdict(cfg),
        "encoder_config": asdict(state.model.config),
        "rng_state": _rng_state_to_json(state.rng.bit_generator.state),
        "step": state.step,
    }
    np.savez(
        path,
        version=np.int64(_CKPT_VERSION),
        meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
        **arrays,
    )


def load_checkpoint(path):
    """Returns (TrainState, TrainConfig) restored bit-exactly."""
    with np.load(path) as blob:
        if "version" not in blob.files or int(blob["version"]) != _CKPT_VERSION:
            raise ValueError(f"{path}: unsupported or corrupt checkpoint")
        meta = json.loads(bytes(blob["meta"]).decode())
        cfg = TrainConfig(**meta["train_config"])
        ecfg = enc.EncoderConfig(**meta["encoder_config"])
        params, m, v = {}, {}, {}
        for key in blob.files:
            if key.startswith("param/"):
                name = key[len("param/"):]
                params[name] = ad.Tensor(blob[key].copy(), requires_grad=True, name=name)
                m[name] = blob[f"adam_m/{name}"].copy()
                v[name] = blob[f"adam_v/{name}"].copy()
    rng = np.random.Generator(np.random.Philox())
    rng.bit_generator.state = _rng_state_from_json(meta["rng_state"])
    model = enc.EncoderModel(params=params, config=ecfg)
    return TrainState(model=model, m=m, v=v, step=int(meta["step"]), rng=rng), cfg
