"""Seeded pretraining loop: batching, view cropping, loss, Adam step,
logging, and bit-exact checkpoint/resume."""
from __future__ import annotations

import csv
import json
import zipfile
import zlib
from dataclasses import asdict, dataclass

import numpy as np

from . import assign as asg
from . import autodiff as ad
from . import encoder as enc
from . import loss as losses
from .data import TimeSeriesSet, crop_two_views
from .distance import DistanceMatrix


def split_seed(master: int, label: str) -> int:
    """Derive an independent stream seed from one master seed and a label."""
    return int(np.random.SeedSequence([master, zlib.crc32(label.encode())]).generate_state(1)[0])


@dataclass(frozen=True)
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

    def __post_init__(self):
        # each rule reads one field, so config.validate can check a key alone
        for name, lowest in (("lr", 0), ("batch_size", 2), ("iters", 0), ("seed", 0)):
            value = getattr(self, name)
            if not value >= lowest:  # NaN fails too
                raise ValueError(f"{name} must be >= {lowest}, got {value}")
        if not 0.0 <= self.lam <= 1.0:
            raise ValueError(f"lambda must be in [0, 1], got {self.lam}")
        if self.mask_mode not in enc.MASK_MODES:
            raise ValueError(f"mask_mode must be one of {enc.MASK_MODES}, got {self.mask_mode!r}")
        self.instance_cfg()
        self.temporal_cfg()
        self.encoder_cfg(input_dims=1)

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
    if tset.n < 2:
        raise ValueError(f"training needs at least 2 series, got {tset.n}")
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


def save_checkpoint(state: TrainState, cfg: TrainConfig, path) -> None:
    arrays = {}
    for name, t in state.model.params.items():
        arrays[f"param/{name}"] = t.data
        arrays[f"adam_m/{name}"] = state.m[name]
        arrays[f"adam_v/{name}"] = state.v[name]
    meta = {
        "train_config": asdict(cfg),
        "rng_state": state.rng.bit_generator.state,
        "step": state.step,
    }
    # np.savez appends ".npz" to a bare file name; a handle writes the path as given
    with open(path, "wb") as fh:
        np.savez(
            fh,
            version=np.int64(_CKPT_VERSION),
            meta=np.frombuffer(json.dumps(meta, default=lambda a: a.tolist()).encode(),
                               dtype=np.uint8),
            **arrays,
        )


def load_checkpoint(path):
    """Returns (TrainState, TrainConfig) restored bit-exactly.

    The settings in `train_config` pass the same checks as a config file.
    The architecture comes from them and the input width from the projection
    weights; weights of any other name or shape are rejected.  A missing or
    malformed field raises a ValueError naming the file and the field.
    """
    from .config import train_config_from_fields  # config imports this module

    try:
        # np.load leaves a file it opened itself open when the zip is bad
        with open(path, "rb") as fh:
            blob = np.load(fh)
            if not isinstance(blob, np.lib.npyio.NpzFile):
                raise ValueError("a single array, not an archive")
            with blob:
                arrays = {key: blob[key] for key in blob.files}
    except (EOFError, ValueError, zipfile.BadZipFile) as exc:
        raise ValueError(f"{path}: unreadable checkpoint ({exc})") from None
    if "version" not in arrays or arrays["version"].tolist() != _CKPT_VERSION:
        raise ValueError(f"{path}: not a version {_CKPT_VERSION} checkpoint")
    params = {key[len("param/"):]: ad.Tensor(a, requires_grad=True)
              for key, a in arrays.items() if key.startswith("param/")}
    try:
        # earlier checkpoints wrote each RNG array as {"__ndarray__": list, "dtype": name}
        meta = json.loads(bytes(arrays["meta"]).decode(),
                          object_hook=lambda d: d["__ndarray__"] if "__ndarray__" in d else d)
        stored, rng_state, step = (meta[key] for key in ("train_config", "rng_state", "step"))
        m = {name: arrays[f"adam_m/{name}"] for name in params}
        v = {name: arrays[f"adam_v/{name}"] for name in params}
    except KeyError as exc:
        raise ValueError(f"{path}: checkpoint has no {exc.args[0]}") from None
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: meta is not a JSON object ({exc})") from None
    if type(step) is not int or step < 0:
        raise ValueError(f"{path}: step must be an integer >= 0, got {json.dumps(step)}")
    rng = np.random.Generator(np.random.Philox())
    try:
        rng.bit_generator.state = rng_state
    except (TypeError, ValueError, LookupError, OverflowError) as exc:
        raise ValueError(f"{path}: rng_state is not a Philox state "
                         f"({type(exc).__name__}: {exc})") from None
    if not isinstance(stored, dict):
        raise ValueError(f"{path}: train_config must be an object")
    for key, value in _RETIRED_KEYS.items():
        if key in stored and stored.pop(key) != value:
            raise ValueError(f"{path}: train_config {key} is retired and must be {value}")
    try:
        cfg = train_config_from_fields(stored)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
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
    # a moment of another shape would broadcast silently in the Adam update
    for name, shape in shapes.items():
        if m[name].shape != shape or v[name].shape != shape:
            raise ValueError(f"{path}: adam moments of {name} must have its shape {shape}")
    model = enc.EncoderModel(params=params, config=ecfg)
    return TrainState(model=model, m=m, v=v, step=step, rng=rng), cfg
