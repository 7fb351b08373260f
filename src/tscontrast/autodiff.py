"""Minimal reverse-mode autodiff on dense float64 numpy arrays.

The graph lives on the tensors themselves: every op records its parents and
a closure that pushes the adjoint back to them.  `backward` walks the graph
once in reverse topological order.  Only what the encoder and the contrastive
losses need is implemented, plus `transpose` and `masked_log_softmax`, kept as
general ops; everything is float64.
"""
from __future__ import annotations

import numpy as np
from scipy.special import erf

_SQRT2 = np.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False, parents=(), backward=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = bool(requires_grad) or any(p.requires_grad for p in parents)
        self._parents = tuple(parents)
        self._backward = backward

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
        # unless owned, a copy: reshape/transpose/concat pass on views of
        # their output's grad, which a later in-place add must not write through to
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
    phi = 0.5 * (1.0 + erf(a.data / _SQRT2))
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


def tsum(a, axis=None) -> Tensor:
    a = as_tensor(a)
    out_data = a.data.sum(axis=axis)

    def bwd(g):
        if axis is None:
            _accumulate(a, np.full_like(a.data, g), owned=True)
        else:
            _accumulate(a, np.broadcast_to(np.expand_dims(g, axis), a.data.shape).copy(), owned=True)

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

    def bwd(g):
        if not a.requires_grad:
            return
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


def conv1d_dilated(x, kernel, dilation=1) -> Tensor:
    """Same-length dilated 1-D convolution.

    x: [B, L, Cin], kernel: [K, Cin, Cout]; taps are centered, out-of-range
    positions are zero-padded.
    """
    x, kernel = as_tensor(x), as_tensor(kernel)
    B, L, Cin = x.data.shape
    K, KCin, Cout = kernel.data.shape
    if KCin != Cin:
        raise ValueError(f"conv1d_dilated: channel mismatch {Cin} vs {KCin}")
    center = K // 2
    out_data = np.zeros((B, L, Cout))
    spans = []
    for j in range(K):
        off = (j - center) * dilation
        lo, hi = max(0, -off), min(L, L - off)
        spans.append((off, lo, hi))
        if lo < hi:
            out_data[:, lo:hi, :] += x.data[:, lo + off:hi + off, :] @ kernel.data[j]

    def bwd(g):
        gx = np.zeros_like(x.data)
        gk = np.zeros_like(kernel.data)
        for j, (off, lo, hi) in enumerate(spans):
            if lo >= hi:
                continue
            gx[:, lo + off:hi + off, :] += g[:, lo:hi, :] @ kernel.data[j].T
            gk[j] += x.data[:, lo + off:hi + off].reshape(-1, Cin).T @ g[:, lo:hi].reshape(-1, Cout)
        _accumulate(x, gx, owned=True)
        _accumulate(kernel, gk, owned=True)

    return Tensor(out_data, parents=(x, kernel), backward=bwd)


def max_pool1d(x, m: int) -> Tensor:
    """Max-pool along axis 1 with kernel = stride = m; last window may be short.

    Output length is ceil(L / m).  The subgradient routes to the first argmax
    in each window.
    """
    x = as_tensor(x)
    if m < 1:
        raise ValueError("pool kernel must be >= 1")
    B, L, C = x.data.shape
    S = -(-L // m)
    padded = np.full((B, S * m, C), -np.inf)
    padded[:, :L, :] = x.data
    windows = padded.reshape(B, S, m, C)
    idx = windows.argmax(axis=2)
    out_data = np.take_along_axis(windows, idx[:, :, None, :], axis=2)[:, :, 0, :]

    def bwd(g):
        buf = np.zeros((B, S, m, C))
        np.put_along_axis(buf, idx[:, :, None, :], g[:, :, None, :], axis=2)
        _accumulate(x, buf.reshape(B, S * m, C)[:, :L, :], owned=True)

    return Tensor(out_data, parents=(x,), backward=bwd)


def backward(loss: Tensor):
    """Accumulate gradients of a scalar loss into every reachable tensor."""
    if loss.data.shape != ():
        raise ValueError("backward root must be a scalar")
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
        if node._backward is not None and node.grad is not None:
            node._backward(np.asarray(node.grad))


def zero_grads(tensors):
    for t in tensors:
        t.grad = None
