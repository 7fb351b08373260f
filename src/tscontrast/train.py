"""Seeded pretraining loop: batching, view cropping, loss, Adam step,
logging, and bit-exact checkpoint/resume."""
from __future__ import annotations

import json
import logging
import math
import zipfile
import zlib
from dataclasses import asdict, dataclass

import numpy as np

from . import assign as asg
from . import autodiff as ad
from . import encoder as enc
from . import loss as losses
from .config import TrainConfig, validate
from .data import TimeSeriesSet, crop_two_views, whole_file, write_csv
from .distance import DistanceMatrix

_log = logging.getLogger(__name__)


def split_seed(master: int, label: str) -> int:
    """Derive an independent stream seed from one master seed and a label."""
    return int(np.random.SeedSequence([master, zlib.crc32(label.encode())]).generate_state(1)[0])


@dataclass
class TrainState:
    model: enc.EncoderModel
    m: dict
    v: dict
    step: int
    rng: np.random.Generator

    @classmethod
    def fresh(cls, cfg: TrainConfig, input_dims: int) -> "TrainState":
        model = enc.init_encoder(cfg, input_dims, seed=split_seed(cfg.seed, "init"))
        moments_m = {name: np.zeros_like(t.data) for name, t in model.params.items()}
        moments_v = {name: np.zeros_like(t.data) for name, t in model.params.items()}
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(split_seed(cfg.seed, "loop"))))
        return cls(model=model, m=moments_m, v=moments_v, step=0, rng=rng)


# Adam's moment decay rates and denominator guard (Kingma & Ba's defaults)
_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8


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
                        cfg: TrainConfig, crop_seed: int, mask_seed: int):
    """Forward pass on one batch; returns (scalar Tensor, LossBreakdown)."""
    views = crop_two_views(batch, seed=crop_seed)
    mask_rng = None
    if cfg.mask_mode == "binomial":
        mask_rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(mask_seed)))
    ra = enc.encode(state.model, views.view_a, mask_mode=cfg.mask_mode, rng=mask_rng)
    rb = enc.encode(state.model, views.view_b, mask_mode=cfg.mask_mode, rng=mask_rng)
    ra_ov, rb_ov = views.overlap(ra, rb)
    return losses.joint_loss(ra_ov, rb_ov, w_inst, cfg)


def _culprit(breakdown) -> str:
    """Name the first non-finite term of a step's breakdown, instance before
    temporal at each level, as ` (<term> term, level <k>)`; empty if none."""
    for k, inst, temp in breakdown.per_level:
        for term, value in (("instance", inst), ("temporal", temp)):
            if not np.isfinite(value):
                return f" ({term} term, level {k})"
    return ""


def pretrain(tset: TimeSeriesSet, dist: DistanceMatrix, cfg: TrainConfig,
             state: TrainState | None = None):
    """Optimize the joint objective; returns (model, list of per-step logs).

    Deterministic per seed; resuming from a checkpointed state reproduces the
    uninterrupted run bitwise.  A run holds one step's graph at a time: each
    step's graph is freed when the step ends, after its Adam update and
    before the next step's forward pass builds its own.

    The state's weights require gradients while the run lasts, and no longer
    once it returns or raises: the model it returns, like the state it
    trained, then holds no gradients and encodes and scores with no autodiff
    tape.
    """
    if dist.n != tset.n:
        raise ValueError(f"distance matrix is {dist.n}x{dist.n} but the set has {tset.n} series")
    if tset.n < 2:
        raise ValueError(f"training needs at least 2 series, got {tset.n}")
    if state is None:
        state = TrainState.fresh(cfg, tset.dims)
    history = []
    n = tset.n
    bs = min(cfg.batch_size, n)
    params = state.model.params.values()
    for p in params:
        p.requires_grad = True
    try:
        while state.step < cfg.iters:
            # each step draws its own batch so a resumed run replays identically
            idx = state.rng.choice(n, size=bs, replace=False)
            crop_seed = int(state.rng.integers(0, 2 ** 32))
            mask_seed = int(state.rng.integers(0, 2 ** 32))
            batch = tset.subset(idx)
            # the kernels act cell by cell: the batch's block of the distances
            # gives the weights of the whole matrix's block, with no N x N copy
            w_batch = asg.w_instance(DistanceMatrix(dist.values[np.ix_(idx, idx)], dist.metric),
                                     cfg)
            total, breakdown = evaluate_batch_loss(state, batch, w_batch, cfg, crop_seed, mask_seed)
            if not np.isfinite(total.data):
                raise RuntimeError(f"non-finite loss at step {state.step}"
                                   f"{_culprit(breakdown)}; aborting")
            ad.zero_grads(params)
            ad.backward(total)
            _adam_step(state, cfg)
            state.step += 1
            history.append((state.step, breakdown))
            # `total` is the last reference to this step's graph and its
            # activations (backward has freed its adjoints): drop it here, or
            # it lives on through the next step's forward pass until `total`
            # is rebound
            del total
    finally:
        ad.zero_grads(params)
        for p in params:
            p.requires_grad = False
    return state.model, history


def write_log_csv(history, path):
    depth = max((len(b.per_level) for _, b in history), default=0)
    header = ["step", "total", "instance_term", "temporal_term"]
    for k in range(depth):
        header += [f"level{k}_instance", f"level{k}_temporal"]
    rows = ([step] + b.csv_row() for step, b in history)
    write_csv(path, header, (row + [""] * (len(header) - len(row)) for row in rows))


# the three arrays of weights and Adam moments a checkpoint holds
_KINDS = ("param", "adam_m", "adam_v")


def save_checkpoint(state: TrainState, cfg: TrainConfig, path) -> None:
    """Write the state as a version 3 checkpoint, an npz of five members.

    `version` is 3.  `meta` is JSON of the `train_config`, the RNG state, the
    step and `input_dims`, the projection's input width.  `param`, `adam_m`
    and `adam_v` are flat float64 arrays: the weights, or their moments,
    raveled and concatenated in `encoder.param_shapes(train_config,
    input_dims)` order, whatever order the model holds them in.  Weights or
    moments of another name or shape than `cfg`'s architecture declares are
    a ValueError naming them, raised before any file is written.
    """
    weights = {name: t.data for name, t in state.model.params.items()}
    input_dims = weights["proj_w"].shape[0]
    shapes = {name: shape for name, (shape, _) in enc.param_shapes(cfg, input_dims).items()}
    differ = sorted({name for arrays in (weights, state.m, state.v)
                     for name in set(arrays) | set(shapes)
                     if np.shape(arrays.get(name)) != shapes.get(name)})
    if differ:
        raise ValueError(f"weights or their Adam moments do not match the train_config "
                         f"architecture (hidden={cfg.hidden}, repr_dims={cfg.repr_dims}, "
                         f"depth={cfg.depth}); differing: {', '.join(differ)}")
    flat = {kind: np.concatenate([np.ravel(arrays[name]) for name in shapes], dtype=np.float64)
            for kind, arrays in zip(_KINDS, (weights, state.m, state.v))}
    meta = {
        "train_config": asdict(cfg),
        "rng_state": state.rng.bit_generator.state,
        "step": state.step,
        "input_dims": input_dims,
    }
    with whole_file(path, "wb") as fh:
        np.savez(
            fh,
            version=np.int64(3),
            meta=np.frombuffer(json.dumps(meta, default=lambda a: a.tolist()).encode(),
                               dtype=np.uint8),
            **flat,
        )


def _split_flat(path, arrays: dict, shapes: dict) -> dict:
    """kind -> {name: view} of a checkpoint's flat arrays, split by `shapes`,
    the `encoder.param_shapes` of its architecture.  Each array must hold
    finite numbers only: the error names the weight whose span holds the
    first bad value, and an array of no numeric dtype fails at its first
    value."""
    names = list(shapes)
    sizes = [math.prod(shape) for shape, _ in shapes.values()]
    total = sum(sizes)  # in Python ints, so a huge architecture cannot overflow
    maps = {}
    for kind in _KINDS:
        values = arrays[kind]
        if values.ndim != 1:
            raise ValueError(f"{path}: {kind} must be a 1-D array, got shape {values.shape}")
        if values.size != total:
            raise ValueError(f"{path}: {kind} holds {values.size} values, "
                             f"but the train_config's weights take {total}")
        ends = np.cumsum(sizes)  # past the size check, so each offset fits in int64
        bad = (np.flatnonzero(~np.isfinite(values)) if values.dtype.kind in "fiu"
               else np.arange(min(values.size, 1)))
        if bad.size:
            name = names[int(np.searchsorted(ends, bad[0], side="right"))]
            raise ValueError(f"{path}: {kind}/{name} holds a value that is not a finite number")
        maps[kind] = {name: values[end - size:end].reshape(shape)
                      for name, (shape, _), size, end in zip(names, shapes.values(), sizes, ends)}
    return maps


def load_checkpoint(path):
    """Returns (TrainState, TrainConfig) restored bit-exactly.

    Reads the one format `save_checkpoint` writes, version 3; a file of any
    other version is an error naming it.  The settings in `train_config`
    pass the same checks as a config file, and `input_dims` must be an
    integer >= 1.  The flat arrays are split into views by
    `encoder.param_shapes` of that architecture and input width, so each
    must hold exactly its values, all finite.  A missing or malformed field
    raises a ValueError naming the file and the field.  Logs the file and
    its member count at DEBUG.

    The weights require no gradient, so encoding and scoring with them keeps
    no autodiff tape; `pretrain` on the state marks them while it trains.
    """
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
    if "version" not in arrays or arrays["version"].tolist() != 3:
        raise ValueError(f"{path}: not a version 3 checkpoint")
    _log.debug("%s: checkpoint format version 3, %d members", path, len(arrays))
    try:
        meta = json.loads(bytes(arrays["meta"]).decode())
        stored, rng_state, step, input_dims = (meta[key] for key in
                                               ("train_config", "rng_state", "step", "input_dims"))
    except KeyError as exc:
        raise ValueError(f"{path}: checkpoint has no {exc.args[0]}") from None
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: meta is not a JSON object ({exc})") from None
    if not isinstance(stored, dict):
        raise ValueError(f"{path}: train_config must be an object")
    try:
        cfg = validate({"train": stored}).train_config
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    if type(input_dims) is not int or input_dims < 1:
        raise ValueError(f"{path}: input_dims must be an integer >= 1, "
                         f"got {json.dumps(input_dims)}")
    try:
        # a NaN weight would encode to NaN, and score and probe with it
        maps = _split_flat(path, arrays, enc.param_shapes(cfg, input_dims))
    except KeyError as exc:
        raise ValueError(f"{path}: checkpoint has no {exc.args[0]}") from None
    if type(step) is not int or step < 0:
        raise ValueError(f"{path}: step must be an integer >= 0, got {json.dumps(step)}")
    rng = np.random.Generator(np.random.Philox())
    try:
        rng.bit_generator.state = rng_state
    except (TypeError, ValueError, LookupError, OverflowError) as exc:
        raise ValueError(f"{path}: rng_state is not a Philox state "
                         f"({type(exc).__name__}: {exc})") from None
    params = {name: ad.Tensor(a) for name, a in maps["param"].items()}
    return TrainState(model=enc.EncoderModel(params), m=maps["adam_m"], v=maps["adam_v"],
                      step=step, rng=rng), cfg
