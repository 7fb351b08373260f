"""Per-timestamp embedding network: input projection, dilated convolution
blocks with residuals, and the max-pooling ladder used by the hierarchical
loss.  Timestamp masking is for training only; every other use encodes
unmasked, and anomaly scoring hides timestamps itself."""
from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor

if TYPE_CHECKING:  # config imports this module for the mask modes
    from .config import TrainConfig

MASK_MODES = ("none", "binomial")
KERNEL_SIZE = 3  # taps per dilated convolution


@dataclass
class EncoderModel:
    """A model is its weights: every reader takes the architecture from them.

    Building one (`init_encoder`, `train.load_checkpoint`) also imports
    GELU's `erf` (`autodiff.load_erf`), so the one-time scipy.special import
    lands in set-up, never in a training step or a scoring request."""
    params: dict          # name -> Tensor; requires_grad from init_encoder and while pretrain runs

    def __post_init__(self):
        ad.load_erf()

    @property
    def depth(self) -> int:
        """Dilated blocks: the blocks whose first kernel is present."""
        b = 0
        while _stage_names(b, 1)[0] in self.params:
            b += 1
        return b


def _uniform(rng, shape, fan_in):
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape)


def dilation(b: int) -> int:
    """Dilation of both convolutions of block `b`."""
    return 2 ** b


def _stage_names(b: int, i: int) -> tuple[str, str]:
    """Parameter names of the kernel and bias of convolution `i` of block `b`."""
    return f"block{b}_conv{i}", f"block{b}_bias{i}"


def param_shapes(cfg: TrainConfig, input_dims: int) -> dict:
    """name -> (shape, fan_in) of every weight of the architecture `cfg`
    declares (hidden, repr_dims, depth) on inputs of width `input_dims`, in
    initialization order."""
    if input_dims < 1:
        raise ValueError(f"input_dims must be >= 1, got {input_dims}")
    k, h = KERNEL_SIZE, cfg.hidden
    shapes = {"proj_w": ((input_dims, h), input_dims), "proj_b": ((h,), input_dims)}
    for b in range(cfg.depth):
        for i in (1, 2):
            kernel, bias = _stage_names(b, i)
            shapes[kernel] = ((k, h, h), k * h)
            shapes[bias] = ((h,), k * h)
    shapes["out_w"] = ((h, cfg.repr_dims), h)
    shapes["out_b"] = ((cfg.repr_dims,), h)
    return shapes


def init_encoder(cfg: TrainConfig, input_dims: int, seed: int = 0) -> EncoderModel:
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    params = {name: Tensor(_uniform(rng, shape, fan), requires_grad=True)
              for name, (shape, fan) in param_shapes(cfg, input_dims).items()}
    return EncoderModel(params=params)


def project(model: EncoderModel, x) -> Tensor:
    """Input projection of [B, L, D] inputs to the [B, L, H] residual stream;
    raises ValueError unless D is the model's input width."""
    x = ad.as_tensor(x)
    dims = model.params["proj_w"].shape[0]
    if x.ndim != 3 or x.shape[2] != dims:
        raise ValueError(f"expected input [B, L, {dims}], got {x.shape}")
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


def residual_stream(model: EncoderModel, h, blocks: list | None = None) -> Tensor:
    """The dilated blocks on the [B, L, H] residual stream `h`: the output
    stream.  Block b is gelu -> conv_stage(b, 1) -> gelu -> conv_stage(b, 2),
    added to its input.  Appends block b's input h_b, gelu(h_b) and gelu(y1_b)
    (y1_b its first stage) to a given list `blocks`; with none, none is kept."""
    for b in range(model.depth):
        gelu_h = ad.gelu(h)
        gelu_y1 = ad.gelu(conv_stage(model, gelu_h, b, 1))
        if blocks is not None:
            blocks.append((h, gelu_h, gelu_y1))
        h = ad.add(h, conv_stage(model, gelu_y1, b, 2))
    return h


def encode(model: EncoderModel, x, mask_mode: str = "none", rng=None) -> Tensor:
    """Map [B, L, D] inputs to per-timestamp representations [B, L, M].

    Unmasked by default.  Training may pass `mask_mode="binomial"` with an
    RNG: each timestamp of each row is then zeroed with probability 1/2
    after the input projection, before the conv stack, so context can still
    fill it in.  A zero-padded ragged array is encoded as given, padding
    included: its convs carry the padded steps into the valid ones, so
    encode each length on its own steps for representations that do not
    depend on the rest of the batch.
    """
    h = project(model, x)
    if mask_mode == "binomial":
        if rng is None:
            raise ValueError("binomial masking needs an RNG")
        h = ad.mul(h, (rng.random((h.shape[0], h.shape[1], 1)) > 0.5).astype(np.float64))
    elif mask_mode != "none":
        raise ValueError(f"unknown mask mode: {mask_mode!r}")
    return readout(model, residual_stream(model, h))


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

