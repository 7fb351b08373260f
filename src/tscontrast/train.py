"""Seeded pretraining loop: batching, view cropping, loss, Adam step,
logging, and bit-exact checkpoint/resume."""
from __future__ import annotations

import csv
import json
import logging
import zipfile
import zlib
from dataclasses import asdict, dataclass, fields

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
    tau_inst: float = asg.InstanceAssignConfig.tau
    tau_temp: float = asg.TemporalAssignConfig.tau_base
    alpha: float = asg.InstanceAssignConfig.alpha
    inst_kernel: str = asg.InstanceAssignConfig.kernel
    temp_kernel: str = asg.TemporalAssignConfig.kernel
    kernel_sigma: float = asg.InstanceAssignConfig.kernel_sigma
    neighbor_window_frac: float = asg.TemporalAssignConfig.neighbor_window_frac
    gaussian_std: float = asg.TemporalAssignConfig.gaussian_std
    pool_m: int = asg.TemporalAssignConfig.pool_kernel_m
    hierarchical_tau: bool = asg.TemporalAssignConfig.hierarchical
    hard: bool = False  # conventional contrastive baseline: all soft weights zero
    hidden: int = enc.EncoderConfig.hidden
    repr_dims: int = enc.EncoderConfig.output_dims
    depth: int = enc.EncoderConfig.depth
    mask_mode: str = "none"
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
        return enc.EncoderConfig(input_dims=input_dims, hidden=self.hidden,
                                 output_dims=self.repr_dims, depth=self.depth)


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


# Adam's moment decay rates and denominator guard (Kingma & Ba's defaults)
_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8
# train_config keys that earlier checkpoints hold, with the one value each may take
_RETIRED_KEYS = {"temperature": 1.0, "beta1": _BETA1, "beta2": _BETA2, "eps": _EPS}


def _adam_step(state: TrainState, cfg: TrainConfig):
    t = state.step + 1
    for name, p in state.model.params.items():
        g = p.grad
        if g is None:
            continue
        state.m[name] = _BETA1 * state.m[name] + (1 - _BETA1) * g
        state.v[name] = _BETA2 * state.v[name] + (1 - _BETA2) * g * g
        m_hat = state.m[name] / (1 - _BETA1 ** t)
        v_hat = state.v[name] / (1 - _BETA2 ** t)
        p.data = p.data - cfg.lr * m_hat / (np.sqrt(v_hat) + _EPS)


def evaluate_batch_loss(state: TrainState, batch: TimeSeriesSet, w_inst: np.ndarray,
                        cfg: TrainConfig, crop_seed: int, mask_seed: int | None = None):
    """Forward pass on one batch; returns (scalar Tensor, LossBreakdown)."""
    views = crop_two_views(batch, seed=crop_seed)
    mask_rng = None
    if cfg.mask_mode == "binomial":
        mask_rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(mask_seed or 0)))
    ra = enc.encode(state.model, views.view_a, mask_mode=cfg.mask_mode, rng=mask_rng)
    rb = enc.encode(state.model, views.view_b, mask_mode=cfg.mask_mode, rng=mask_rng)
    ra_ov, rb_ov = views.overlap(ra, rb)
    return losses.joint_loss(ra_ov, rb_ov, w_inst, cfg.instance_cfg(), cfg.temporal_cfg(),
                             lam=cfg.lam, hard=cfg.hard)


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
    w_full = asg.w_instance(dist, cfg.instance_cfg())
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
        "rng_state": _rng_state_to_json(state.rng.bit_generator.state),
        "step": state.step,
    }
    # np.savez appends ".npz" to a bare file name; a handle writes the path as given
    with open(path, "wb") as fh:
        np.savez(
            fh,
            version=np.int64(_CKPT_VERSION),
            meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
            **arrays,
        )


def load_checkpoint(path):
    """Returns (TrainState, TrainConfig) restored bit-exactly.

    The architecture comes from `train_config` and the input width from the
    projection weights; weights of any other name or shape are rejected.
    """
    try:
        with np.load(path) as blob:
            arrays = {key: blob[key] for key in blob.files}
    except (EOFError, ValueError, zipfile.BadZipFile) as exc:
        raise ValueError(f"{path}: unreadable checkpoint ({exc})") from None
    if "version" not in arrays or int(arrays["version"]) != _CKPT_VERSION:
        raise ValueError(f"{path}: unsupported or corrupt checkpoint")
    meta = json.loads(bytes(arrays["meta"]).decode())
    stored = meta["train_config"]
    for key, value in _RETIRED_KEYS.items():
        if key in stored and stored.pop(key) != value:
            raise ValueError(f"{path}: train_config {key} is retired and must be {value}")
    unknown = sorted(set(stored) - {f.name for f in fields(TrainConfig)})
    if unknown:
        raise ValueError(f"{path}: unknown train_config key(s): {', '.join(unknown)}")
    cfg = TrainConfig(**stored)
    params, m, v = {}, {}, {}
    for key in arrays:
        if key.startswith("param/"):
            name = key[len("param/"):]
            params[name] = ad.Tensor(arrays[key], requires_grad=True)
            m[name] = arrays[f"adam_m/{name}"]
            v[name] = arrays[f"adam_v/{name}"]
    shapes = {name: t.shape for name, t in params.items()}
    if len(shapes.get("proj_w", ())) != 2:
        raise ValueError(f"{path}: no [input_dims, hidden] proj_w weights")
    ecfg = cfg.encoder_cfg(shapes["proj_w"][0])
    expected = {name: shape for name, (shape, _) in enc.param_shapes(ecfg).items()}
    if shapes != expected:
        differ = sorted(name for name in set(shapes) | set(expected)
                        if shapes.get(name) != expected.get(name))
        raise ValueError(f"{path}: weights do not match the train_config architecture "
                         f"(hidden={cfg.hidden}, repr_dims={cfg.repr_dims}, depth={cfg.depth}); "
                         f"differing: {', '.join(differ)}")
    rng = np.random.Generator(np.random.Philox())
    rng.bit_generator.state = _rng_state_from_json(meta["rng_state"])
    model = enc.EncoderModel(params=params, config=ecfg)
    return TrainState(model=model, m=m, v=v, step=int(meta["step"]), rng=rng), cfg
