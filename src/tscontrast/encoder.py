"""Per-timestamp embedding network: input projection, dilated convolution
blocks with residuals, and the max-pooling ladder used by the hierarchical
loss.  Timestamp masking is chosen per call: training and anomaly scoring
mask, every other use encodes unmasked."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor

MASK_MODES = ("none", "binomial", "last_point")
KERNEL_SIZE = 3  # taps per dilated convolution


@dataclass(frozen=True)
class EncoderConfig:
    """A model's architecture; `TrainConfig.encoder_cfg` builds the trained one."""
    input_dims: int
    hidden: int
    output_dims: int
    depth: int              # dilated blocks, dilation 2^b at block b

    def __post_init__(self):
        if self.depth < 1 or self.output_dims < 1 or self.hidden < 1 or self.input_dims < 1:
            raise ValueError("encoder dimensions must be >= 1")


@dataclass
class EncoderModel:
    params: dict          # name -> Tensor (requires_grad)
    config: EncoderConfig


def _uniform(rng, shape, fan_in):
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape)


def dilation(b: int) -> int:
    """Dilation of both convolutions of block `b`."""
    return 2 ** b


def _stage_names(b: int, i: int) -> tuple[str, str]:
    """Parameter names of the kernel and bias of convolution `i` of block `b`."""
    return f"block{b}_conv{i}", f"block{b}_bias{i}"


def param_shapes(cfg: EncoderConfig) -> dict:
    """name -> (shape, fan_in) of every weight, in initialization order."""
    k, h = KERNEL_SIZE, cfg.hidden
    shapes = {"proj_w": ((cfg.input_dims, h), cfg.input_dims), "proj_b": ((h,), cfg.input_dims)}
    for b in range(cfg.depth):
        for i in (1, 2):
            kernel, bias = _stage_names(b, i)
            shapes[kernel] = ((k, h, h), k * h)
            shapes[bias] = ((h,), k * h)
    shapes["out_w"] = ((h, cfg.output_dims), h)
    shapes["out_b"] = ((cfg.output_dims,), h)
    return shapes


def init_encoder(cfg: EncoderConfig, seed: int = 0) -> EncoderModel:
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    params = {name: Tensor(_uniform(rng, shape, fan), requires_grad=True)
              for name, (shape, fan) in param_shapes(cfg).items()}
    return EncoderModel(params=params, config=cfg)


def build_mask(mask_mode: str, batch: int, length: int, rng=None, mask_index=None) -> np.ndarray | None:
    """0/1 keep-mask of shape [batch, length, 1], or None for no masking.

    `last_point` hides the same timestamp in every row: `mask_index`, one
    integer, or None for the last timestamp."""
    if mask_mode == "none":
        return None
    if mask_mode == "binomial":
        if rng is None:
            raise ValueError("binomial masking needs an RNG")
        return (rng.random((batch, length, 1)) > 0.5).astype(np.float64)
    if mask_mode == "last_point":
        idx = np.asarray(length - 1 if mask_index is None else mask_index)
        if not np.issubdtype(idx.dtype, np.integer):
            raise ValueError(f"mask_index must be integer, got {idx.dtype}")
        if idx.ndim != 0:
            raise ValueError(f"mask_index must be one integer, got an array of shape {idx.shape}")
        if not 0 <= idx < length:
            raise ValueError(f"mask_index {idx} out of range for length {length}")
        mask = np.ones((batch, length, 1))
        mask[:, idx, 0] = 0.0
        return mask
    raise ValueError(f"unknown mask mode: {mask_mode!r}")


def project(model: EncoderModel, x) -> Tensor:
    """Input projection of [B, L, D] inputs to the [B, L, H] residual stream;
    raises ValueError unless D is the model's input width."""
    x = ad.as_tensor(x)
    if x.ndim != 3 or x.shape[2] != model.config.input_dims:
        raise ValueError(f"expected input [B, L, {model.config.input_dims}], got {x.shape}")
    return ad.add(ad.matmul(x, model.params["proj_w"]), model.params["proj_b"])


def stage_weights(model: EncoderModel, b: int, i: int) -> tuple[Tensor, Tensor, int]:
    """(kernel [K, H, H], bias [H], dilation) of convolution `i` (1 or 2) of
    block `b`."""
    kernel, bias = _stage_names(b, i)
    return model.params[kernel], model.params[bias], dilation(b)


def conv_stage(model: EncoderModel, y, b: int, i: int) -> Tensor:
    """Convolution `i` (1 or 2) of block `b` on [B, L, H] inputs: the
    same-length dilated convolution by its kernel, plus its bias."""
    kernel, bias, d = stage_weights(model, b, i)
    return ad.add(ad.conv1d_dilated(y, kernel, d), bias)


def readout(model: EncoderModel, h) -> Tensor:
    """Output projection of the [..., H] residual stream to [..., M]."""
    return ad.add(ad.matmul(h, model.params["out_w"]), model.params["out_b"])


def encode(model: EncoderModel, x, mask_mode: str = "none", rng=None, mask_index=None) -> Tensor:
    """Map [B, L, D] inputs to per-timestamp representations [B, L, M].

    Unmasked by default.  Masked timestamps are zeroed after the input
    projection, before the conv stack, so context can still fill them in.
    Block b is gelu -> conv_stage(b, 1) -> gelu -> conv_stage(b, 2), added
    to its input.
    """
    h = project(model, x)
    mask = build_mask(mask_mode, h.shape[0], h.shape[1], rng=rng, mask_index=mask_index)
    if mask is not None:
        h = ad.mul(h, mask)
    for b in range(model.config.depth):
        y = conv_stage(model, ad.gelu(h), b, 1)
        h = ad.add(h, conv_stage(model, ad.gelu(y), b, 2))
    return readout(model, h)


def pool_ladder(r: Tensor, m: int) -> list[Tensor]:
    """Level 0 is r itself; each next level max-pools by m along time, down to
    the last level of length >= 2 (a length-1 input yields a single level)."""
    if m < 2:
        raise ValueError("pool kernel must be >= 2")
    levels = [ad.as_tensor(r)]
    while True:
        length = levels[-1].shape[1]
        if length < 2 or -(-length // m) < 2:
            break
        levels.append(ad.max_pool1d(levels[-1], m))
    return levels


def instance_repr(r) -> np.ndarray:
    """Whole-series vectors: max over the time axis of [B, L, M] values."""
    arr = r.data if isinstance(r, Tensor) else np.asarray(r)
    return arr.max(axis=1)

