"""Minimal reverse-mode autodiff on dense float64 numpy arrays.

The graph lives on the tensors themselves: an op whose output requires a
gradient records its parents and a closure that pushes the adjoint back to
them.  An output that no input needs a gradient for keeps neither, so a
forward pass on weights that need none (inference) holds no tape: each
activation is freed once nothing reads it.  `backward` walks the graph once
in reverse topological order and leaves gradients on leaves only, the
tensors no op made (weights, inputs): an op output's adjoint is freed as soon
as that op's backward has run.  Only what the encoder and the contrastive
losses need is implemented, plus `transpose` and `masked_log_softmax`, kept as
general ops; everything is float64.

GELU's `erf` comes from scipy.special, which costs more start-up time and
memory than the rest of the package together.  It is imported on the first
call of `load_erf`, not with this module, so a process that only computes
distances never loads it; `encoder.EncoderModel` calls `load_erf` when a
model is built or loaded, so no training step or scoring request pays it.
"""
from __future__ import annotations

import functools

import numpy as np

_SQRT2 = np.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)


@functools.cache
def load_erf():
    """scipy.special.erf, imported on the first call."""
    from scipy.special import erf
    return erf


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False, parents=(), backward=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = bool(requires_grad) or any(p.requires_grad for p in parents)
        # a constant keeps no tape: the closure and parents die with the op
        self._parents = tuple(parents) if self.requires_grad else ()
        self._backward = backward if self.requires_grad else None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, grad={self.requires_grad})"

    def __getitem__(self, key):
        return tslice(self, key)


def as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def _accumulate(t: Tensor, g: np.ndarray, owned: bool = False):
    """Add adjoint `g` into `t.grad`.  An op passes `owned=True` for a fresh
    array of its own that nothing else sees, which a first adjoint keeps."""
    if not t.requires_grad:
        return
    if t.grad is None:
        # unless owned, a copy: add hands both parents one adjoint, and
        # reshape/transpose/concat views of theirs; a later in-place add into
        # one holder must not write through to another
        t.grad = g if owned else np.array(g, dtype=np.float64)
    else:
        t.grad += g


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Sum an adjoint down to the shape it was broadcast from."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, (gs, ss) in enumerate(zip(g.shape, shape)):
        if ss == 1 and gs != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g.reshape(shape)


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out_data = a.data + b.data

    def bwd(g):
        _accumulate(a, _unbroadcast(g, a.data.shape))
        _accumulate(b, _unbroadcast(g, b.data.shape))

    return Tensor(out_data, parents=(a, b), backward=bwd)


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out_data = a.data * b.data

    def bwd(g):
        _accumulate(a, _unbroadcast(g * b.data, a.data.shape), owned=True)
        _accumulate(b, _unbroadcast(g * a.data, b.data.shape), owned=True)

    return Tensor(out_data, parents=(a, b), backward=bwd)


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out_data = np.matmul(a.data, b.data)

    def bwd(g):
        ga = np.matmul(g, np.swapaxes(b.data, -1, -2))
        gb = np.matmul(np.swapaxes(a.data, -1, -2), g)
        _accumulate(a, _unbroadcast(ga, a.data.shape), owned=True)
        _accumulate(b, _unbroadcast(gb, b.data.shape), owned=True)

    return Tensor(out_data, parents=(a, b), backward=bwd)


def gelu(a) -> Tensor:
    """Exact erf-based GELU; smooth, so finite-difference checks stay clean."""
    a = as_tensor(a)
    phi = 0.5 * (1.0 + load_erf()(a.data / _SQRT2))
    out_data = a.data * phi

    def bwd(g):
        # g * (phi + a * pdf(a)) in one buffer, in that order of operations
        buf = np.square(a.data, out=np.empty_like(a.data))
        buf *= -0.5
        np.exp(buf, out=buf)
        buf *= _INV_SQRT_2PI
        buf *= a.data
        buf += phi
        buf *= g
        _accumulate(a, buf, owned=True)

    return Tensor(out_data, parents=(a,), backward=bwd)


def tsum(a) -> Tensor:
    """The sum of every element, as a scalar."""
    a = as_tensor(a)
    out_data = a.data.sum()

    def bwd(g):
        _accumulate(a, np.full_like(a.data, g), owned=True)

    return Tensor(out_data, parents=(a,), backward=bwd)


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    out_data = a.data.reshape(shape)

    def bwd(g):
        _accumulate(a, g.reshape(a.data.shape))

    return Tensor(out_data, parents=(a,), backward=bwd)


def transpose(a, axes) -> Tensor:
    a = as_tensor(a)
    out_data = np.transpose(a.data, axes)
    inv = np.argsort(axes)

    def bwd(g):
        _accumulate(a, np.transpose(g, inv))

    return Tensor(out_data, parents=(a,), backward=bwd)


def concat(tensors, axis=0) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def bwd(g):
        for t, piece in zip(tensors, np.split(g, splits, axis=axis)):
            _accumulate(t, piece)

    return Tensor(out_data, parents=tuple(tensors), backward=bwd)


def tslice(a, key) -> Tensor:
    a = as_tensor(a)
    out_data = a.data[key]

    def bwd(g):  # kept only when `a` requires a gradient
        if a.grad is None:
            a.grad = np.zeros_like(a.data)
        a.grad[key] += g  # basic slicing only, so indices never repeat

    return Tensor(out_data, parents=(a,), backward=bwd)


def masked_log_softmax(a, mask: np.ndarray) -> Tensor:
    """Log-softmax over the last axis restricted to `mask` (bool, True = valid).

    Invalid positions get output 0 and receive no gradient; the normalizer
    sums over valid positions only.  Rows must contain at least one valid
    entry.
    """
    a = as_tensor(a)
    mask = np.asarray(mask, dtype=bool)
    mask = np.broadcast_to(mask, a.data.shape)
    if not mask.any(axis=-1).all():
        raise ValueError("masked_log_softmax: a row has no valid entries")
    neg = np.where(mask, a.data, -np.inf)
    mx = neg.max(axis=-1, keepdims=True)
    e = np.where(mask, np.exp(a.data - mx), 0.0)
    z = e.sum(axis=-1, keepdims=True)
    logp = np.where(mask, a.data - mx - np.log(z), 0.0)
    p = e / z

    def bwd(g):
        gm = np.where(mask, g, 0.0)
        _accumulate(a, gm - p * gm.sum(axis=-1, keepdims=True))

    return Tensor(logp, parents=(a,), backward=bwd)


def _tap_rows(s: int, n: int) -> tuple[slice, slice]:
    """(source, destination) rows of a tap shifted by s on n rows: output
    row r reads input row r + s."""
    return (slice(s, n), slice(0, n - s)) if s >= 0 else (slice(0, n + s), slice(-s, n))


def _zero_crossing(buf: np.ndarray, batch: int, length: int, u: int):
    """Zero the rows (b, t >= length - u), b < batch - 1, of a [batch *
    length, C] buffer whose first rows hold a tap shifted by u rows: their
    partner lies in the next series.  One series has none."""
    if batch > 1:
        buf.reshape(batch, length, buf.shape[1])[:-1, length - u:] = 0.0


def _tap_sum(rows: np.ndarray, mats, shifts, batch: int, length: int) -> np.ndarray:
    """Sum over taps j of rows @ mats[j] shifted by shifts[j], on the
    contiguous [batch * length, C] rows of `batch` series: output row (b, t)
    gets product row (b, t + s) of each tap, nothing where t + s leaves
    [0, length).

    The tap with shift 0 starts the sum.  Every other tap is one 2-D GEMM
    over the rows it reaches, its rows whose partner lies in a neighbouring
    series zeroed, added as one contiguous block shifted by s rows.  Adding
    an exact 0 leaves a sum as it was, so with three taps each output is
    (centre + left) + right: the float order of adding the taps in turn to
    zeros.
    """
    n = rows.shape[0]
    out = rows @ mats[shifts.index(0)]
    prod = np.empty_like(out)
    for s, mat in zip(shifts, mats):
        if s == 0 or abs(s) >= length:
            continue
        src, dst = _tap_rows(s, n)
        block = prod[:n - abs(s)]
        np.matmul(rows[src], mat, out=block)
        _zero_crossing(prod, batch, length, abs(s))
        out[dst] += block
    return out


def conv1d_dilated(x, kernel, dilation=1) -> Tensor:
    """Same-length dilated 1-D convolution.

    x: [B, L, Cin], kernel: [K, Cin, Cout]; taps are centered, out-of-range
    positions are zero-padded.  x is read as its contiguous [B·L, Cin] rows:
    tap j is one 2-D GEMM over all rows, shifted by (j - K // 2) * dilation
    rows, with the products that would cross into a neighbouring series
    zeroed (`_tap_sum`).  The backward pass does the same with the adjoint's
    rows and each tap's transposed kernel for x, and for the kernel one GEMM
    per tap of the shifted input rows against the adjoint's rows, a copy of
    them with the crossing rows zeroed for a side tap.
    """
    x, kernel = as_tensor(x), as_tensor(kernel)
    B, L, Cin = x.data.shape
    K, KCin, Cout = kernel.data.shape
    if KCin != Cin:
        raise ValueError(f"conv1d_dilated: channel mismatch {Cin} vs {KCin}")
    if dilation < 1:
        raise ValueError(f"conv1d_dilated: dilation must be >= 1, got {dilation}")
    n = B * L
    shifts = [(j - K // 2) * dilation for j in range(K)]
    rows = np.ascontiguousarray(x.data).reshape(n, Cin)
    out_data = _tap_sum(rows, kernel.data, shifts, B, L).reshape(B, L, Cout)

    def bwd(g):
        g2 = np.ascontiguousarray(g).reshape(n, Cout)
        kernel_t = np.ascontiguousarray(kernel.data.transpose(0, 2, 1))
        gx = _tap_sum(g2, kernel_t, [-s for s in shifts], B, L)
        gk = np.zeros_like(kernel.data)
        gbuf = np.empty_like(g2)
        for j, s in enumerate(shifts):
            if s == 0:
                np.matmul(rows.T, g2, out=gk[j])
            elif abs(s) < L:
                src, dst = _tap_rows(s, n)
                block = gbuf[:n - abs(s)]
                np.copyto(block, g2[dst])
                _zero_crossing(gbuf, B, L, abs(s))
                np.matmul(rows[src].T, block, out=gk[j])
        _accumulate(x, gx.reshape(B, L, Cin), owned=True)
        _accumulate(kernel, gk, owned=True)

    return Tensor(out_data, parents=(x, kernel), backward=bwd)


def max_pool1d(x, m: int) -> Tensor:
    """Max-pool along axis 1 with kernel = stride = m; last window may be short.

    Output length is ceil(L / m).  The windows are read straight from x
    when m divides L, else from a copy padded with -inf.  A loop over the m
    slots of every window keeps each window's first maximum and its slot (a
    NaN wins its window, as with numpy's argmax), with `np.where` on the
    whole [B, S, C] slot at once.  The subgradient routes to that slot.
    """
    x = as_tensor(x)
    if m < 1:
        raise ValueError("pool kernel must be >= 1")
    B, L, C = x.data.shape
    S = -(-L // m)
    if L % m:
        padded = np.full((B, S * m, C), -np.inf)
        padded[:, :L, :] = x.data
    else:
        padded = x.data
    windows = padded.reshape(B, S, m, C)
    # np.where below makes a fresh output; with one slot, copy, so it never aliases x
    out_data = windows[:, :, 0] if m > 1 else windows[:, :, 0].copy()
    idx = np.zeros((B, S, C), dtype=np.intp)
    for slot in range(1, m):
        value = windows[:, :, slot]
        wins = ~(value <= out_data)  # greater, or either is NaN
        wins &= out_data == out_data  # a NaN already kept stays
        out_data = np.where(wins, value, out_data)
        idx = np.where(wins, slot, idx)

    def bwd(g):
        buf = np.empty((B, S, m, C))
        for slot in range(m):
            buf[:, :, slot] = np.where(idx == slot, g, 0.0)
        _accumulate(x, buf.reshape(B, S * m, C)[:, :L, :], owned=True)

    return Tensor(out_data, parents=(x,), backward=bwd)


def backward(loss: Tensor):
    """Accumulate gradients of a scalar loss into every reachable leaf: each
    tensor that requires a gradient and is no op's output (weights, inputs).

    An op output's adjoint is freed as soon as that op's backward has run,
    so after the call every op output's `.grad` is None and the pass holds
    only the adjoints of the nodes still to run.  Raises ValueError unless
    the loss is a scalar that requires a gradient: one that needs none has
    no tape, and would leave every `.grad` unset."""
    if loss.data.shape != ():
        raise ValueError("backward root must be a scalar")
    if not loss.requires_grad:
        raise ValueError("backward root requires no gradient: no input of its graph does")
    topo, seen = [], set()
    stack = [(loss, False)]
    while stack:
        node, done = stack.pop()
        if done:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen:
                stack.append((p, False))
    loss.grad = np.asarray(1.0)
    for node in reversed(topo):
        if node._backward is None:
            continue  # a leaf keeps its gradient
        # an op output's adjoint is dead once its own backward has run
        g, node.grad = node.grad, None
        if g is not None:
            node._backward(np.asarray(g))


def zero_grads(tensors):
    for t in tensors:
        t.grad = None
