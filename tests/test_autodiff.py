import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from tscontrast import autodiff as ad
from tscontrast import oracle
from tscontrast.oracle import fd_gradient


def _check_grad(build, arrays, tol=1e-6):
    """Compare reverse-mode gradients with central differences."""
    tensors = [ad.Tensor(a, requires_grad=True) for a in arrays]
    out = build(*tensors)
    ad.backward(out)

    def f():
        return float(build(*[ad.Tensor(t.data) for t in tensors]).data)

    fd = fd_gradient(f, [t.data for t in tensors])
    for t, g in zip(tensors, fd):
        denom = max(np.abs(g).max(), 1e-8)
        assert np.abs(t.grad - g).max() / denom < tol


def test_add_mul_broadcast_grads(rng):
    a = rng.normal(size=(3, 4))
    b = rng.normal(size=(4,))
    _check_grad(lambda x, y: ad.tsum(ad.mul(ad.add(x, y), x)), [a, b])


def test_matmul_batched_grads(rng):
    a = rng.normal(size=(2, 3, 4))
    b = rng.normal(size=(2, 4, 5))
    _check_grad(lambda x, y: ad.tsum(ad.matmul(x, y)), [a, b])


def test_gelu_value_and_grad(rng):
    a = rng.normal(size=(6,))
    out = ad.gelu(ad.Tensor(a))
    from scipy.special import erf
    expected = a * 0.5 * (1 + erf(a / np.sqrt(2)))
    np.testing.assert_allclose(out.data, expected)
    _check_grad(lambda x: ad.tsum(ad.gelu(x)), [a])


def test_sum_mean_axes(rng):
    a = rng.normal(size=(3, 4))
    assert ad.tsum(ad.Tensor(a)).data == pytest.approx(a.sum())


def test_reshape_transpose_concat_slice(rng):
    a = rng.normal(size=(2, 6))
    b = rng.normal(size=(3, 4))
    _check_grad(lambda x: ad.tsum(ad.mul(ad.reshape(x, (3, 4)), ad.reshape(x, (3, 4)))), [a])
    _check_grad(lambda x: ad.tsum(ad.mul(ad.transpose(x, (1, 0)), 2.0)), [b])
    _check_grad(lambda x, y: ad.tsum(ad.concat([x, ad.reshape(y, (3, 4))], axis=0)), [b, a])
    _check_grad(lambda x: ad.tsum(ad.mul(x[1:, :2], x[1:, :2])), [b])


def test_masked_log_softmax_values(rng):
    a = rng.normal(size=(3, 3))
    mask = ~np.eye(3, dtype=bool)
    out = ad.masked_log_softmax(ad.Tensor(a), mask)
    # valid entries exponentiate to a row-stochastic matrix; diagonal is 0
    p = np.where(mask, np.exp(out.data), 0.0)
    np.testing.assert_allclose(p.sum(axis=1), 1.0)
    assert np.all(out.data[np.eye(3, dtype=bool)] == 0.0)


def test_masked_log_softmax_grad(rng):
    a = rng.normal(size=(4, 4))
    mask = ~np.eye(4, dtype=bool)
    w = rng.uniform(size=(4, 4)) * mask
    _check_grad(lambda x: ad.tsum(ad.mul(ad.masked_log_softmax(x, mask), w)), [a])


def test_masked_log_softmax_rejects_empty_row():
    with pytest.raises(ValueError):
        ad.masked_log_softmax(ad.Tensor(np.ones((2, 2))), np.zeros((2, 2), dtype=bool))


def test_conv1d_dilated_matches_direct(rng):
    x = rng.normal(size=(1, 6, 1))
    k = rng.normal(size=(3, 1, 1))
    out = ad.conv1d_dilated(ad.Tensor(x), ad.Tensor(k)).data[0, :, 0]
    padded = np.concatenate([[0.0], x[0, :, 0], [0.0]])
    expected = np.array([padded[i : i + 3] @ k[:, 0, 0] for i in range(6)])
    np.testing.assert_allclose(out, expected)


def test_conv1d_dilated_grads(rng):
    x = rng.normal(size=(2, 7, 3))
    k = rng.normal(size=(3, 3, 2))
    _check_grad(lambda a, b: ad.tsum(ad.mul(ad.conv1d_dilated(a, b, dilation=2), 1.5)), [x, k])


@settings(max_examples=60, deadline=None)
@given(b=st.integers(1, 3), length=st.integers(1, 12), cin=st.integers(1, 4),
       cout=st.integers(1, 4), taps=st.integers(1, 3), dilation=st.integers(1, 8),
       seed=st.integers(0, 2**32 - 1))
@example(b=2, length=3, cin=2, cout=3, taps=3, dilation=5, seed=0)  # side taps empty
@example(b=3, length=12, cin=4, cout=4, taps=3, dilation=8, seed=1)
def test_conv1d_dilated_matches_direct_oracle(b, length, cin, cout, taps, dilation, seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(b, length, cin))
    k = rng.normal(size=(taps, cin, cout))
    w = rng.normal(size=(b, length, cout))  # a non-uniform output adjoint
    out = ad.conv1d_dilated(ad.Tensor(x), ad.Tensor(k), dilation=dilation).data
    np.testing.assert_allclose(out, oracle.conv1d_direct(x, k, dilation), rtol=0, atol=1e-12)
    _check_grad(lambda a, c: ad.tsum(ad.mul(ad.conv1d_dilated(a, c, dilation=dilation), w)), [x, k])


@settings(max_examples=60, deadline=None)
@given(b=st.integers(1, 3), length=st.integers(0, 12), cin=st.integers(1, 4),
       cout=st.integers(1, 4), taps=st.integers(1, 3), dilation=st.integers(1, 8),
       seed=st.integers(0, 2**32 - 1))
@example(b=2, length=0, cin=2, cout=3, taps=3, dilation=1, seed=0)  # empty series
@example(b=3, length=4, cin=3, cout=2, taps=3, dilation=5, seed=1)  # side taps wholly outside
@example(b=8, length=48, cin=32, cout=32, taps=3, dilation=8, seed=2)  # a training shape
def test_conv1d_dilated_backward_matches_direct_adjoint(b, length, cin, cout, taps, dilation, seed):
    """Both adjoints of the convolution equal the scalar-loop adjoint of
    `oracle.conv1d_direct` for a non-uniform output adjoint."""
    rng = np.random.default_rng(seed)
    x = ad.Tensor(rng.normal(size=(b, length, cin)), requires_grad=True)
    k = ad.Tensor(rng.normal(size=(taps, cin, cout)), requires_grad=True)
    w = rng.normal(size=(b, length, cout))
    ad.backward(ad.tsum(ad.mul(ad.conv1d_dilated(x, k, dilation=dilation), w)))
    gx, gk = oracle.conv1d_direct_grads(x.data, k.data, dilation, w)
    np.testing.assert_allclose(x.grad, gx, rtol=0, atol=1e-12)
    np.testing.assert_allclose(k.grad, gk, rtol=0, atol=1e-12)


def test_conv1d_dilated_backward_reads_a_transposed_adjoint_like_its_copy(rng):
    """An output adjoint that arrives as a transposed view gives the same
    bits as the same adjoint laid out contiguously."""
    x0, k0 = rng.normal(size=(3, 10, 4)), rng.normal(size=(3, 4, 5))
    w = rng.normal(size=(3, 5, 10))

    def grads(transposed):
        x, k = ad.Tensor(x0, requires_grad=True), ad.Tensor(k0, requires_grad=True)
        y = ad.conv1d_dilated(x, k, dilation=2)
        if transposed:  # transpose's backward hands on a non-contiguous view
            loss = ad.tsum(ad.mul(ad.transpose(y, (0, 2, 1)), w))
        else:
            loss = ad.tsum(ad.mul(y, np.ascontiguousarray(w.transpose(0, 2, 1))))
        ad.backward(loss)
        return x.grad, k.grad

    for a, c in zip(grads(True), grads(False)):
        assert a.tobytes() == c.tobytes()


def test_conv1d_channel_mismatch():
    with pytest.raises(ValueError):
        ad.conv1d_dilated(ad.Tensor(np.zeros((1, 4, 2))), ad.Tensor(np.zeros((3, 3, 2))))


def test_max_pool1d_values_and_short_window(rng):
    x = rng.normal(size=(1, 5, 2))
    out = ad.max_pool1d(ad.Tensor(x), 2)
    assert out.shape == (1, 3, 2)
    np.testing.assert_allclose(out.data[0, 2], x[0, 4])  # last window has one entry
    np.testing.assert_allclose(out.data[0, 0], x[0, :2].max(axis=0))


def test_max_pool1d_grad_routes_to_argmax(rng):
    x = rng.normal(size=(2, 6, 3))
    w = rng.normal(size=(2, 3, 3))
    _check_grad(lambda a: ad.tsum(ad.mul(ad.max_pool1d(a, 2), w)), [x])


_POOL_CELLS = st.sampled_from([-2.0, -1.0, 0.0, 1.0, 2.0, np.inf, -np.inf, np.nan])


@settings(max_examples=120, deadline=None)
@given(m=st.integers(1, 4), x=st.tuples(st.integers(1, 2), st.integers(1, 13), st.integers(1, 3))
       .flatmap(lambda shape: arrays(np.float64, shape, elements=_POOL_CELLS)),
       seed=st.integers(0, 2**32 - 1))
@example(m=2, x=np.array([[[1.0], [1.0], [np.nan], [np.nan], [-np.inf], [-np.inf], [2.0]]]), seed=0)
@example(m=3, x=np.array([[[-np.inf], [-np.inf], [np.nan], [0.0], [np.nan]]]), seed=0)
def test_max_pool1d_matches_direct_scan_on_ties_and_non_finite(m, x, seed):
    """Values and the routed adjoint equal a scalar scan for the first
    maximum of each window, bit for bit: ties go to the earliest slot, a NaN
    wins its window, -inf ties with the padding of a short last window."""
    values, where = oracle.max_pool_direct(x, m)
    w = np.random.default_rng(seed).normal(size=values.shape)
    t = ad.Tensor(x, requires_grad=True)
    out = ad.max_pool1d(t, m)
    with np.errstate(invalid="ignore"):  # the loss itself may read inf - inf
        ad.backward(ad.tsum(ad.mul(out, w)))
    assert out.data.tobytes() == values.tobytes()
    expected = np.zeros_like(x)
    b, _, c = np.indices(where.shape)
    expected[b, where, c] = w
    assert t.grad.tobytes() == expected.tobytes()


def test_conv1d_rejects_a_dilation_below_one():
    with pytest.raises(ValueError):
        ad.conv1d_dilated(ad.Tensor(np.zeros((1, 4, 2))), ad.Tensor(np.zeros((3, 2, 2))), dilation=0)


def test_backward_requires_scalar():
    with pytest.raises(ValueError):
        ad.backward(ad.Tensor(np.zeros(3), requires_grad=True))


def test_grads_accumulate_on_reuse():
    a = ad.Tensor(2.0, requires_grad=True)
    out = ad.add(ad.mul(a, a), a)  # a^2 + a -> grad 2a + 1 = 5
    ad.backward(out)
    assert a.grad == pytest.approx(5.0)


def test_zero_grads():
    a = ad.Tensor(1.0, requires_grad=True)
    ad.backward(ad.mul(a, 3.0))
    assert a.grad is not None
    ad.zero_grads([a])
    assert a.grad is None


def test_first_grad_is_a_copy_not_an_alias(rng):
    """reshape hands x a view of r's adjoint as x's first adjoint; x's second
    adjoint must not write through it.  r is an op output, whose adjoint
    backward frees, so a zero leaf added at r reads it."""
    x = ad.Tensor(rng.normal(size=(2, 6)), requires_grad=True)
    w = rng.normal(size=(3, 4))
    v = rng.normal(size=(2, 6))

    def run():
        at_r = ad.Tensor(np.zeros((3, 4)), requires_grad=True)
        r = ad.add(ad.reshape(x, (3, 4)), at_r)
        ad.backward(ad.add(ad.tsum(ad.mul(r, w)), ad.tsum(ad.mul(x, v))))
        return at_r

    at_r = run()
    first, snapshot = x.grad, x.grad.copy()
    np.testing.assert_array_equal(at_r.grad, w)
    np.testing.assert_array_equal(x.grad, w.reshape(2, 6) + v)
    ad.zero_grads([x])
    at_r = run()
    np.testing.assert_array_equal(at_r.grad, w)
    assert x.grad.tobytes() == snapshot.tobytes()
    assert first.tobytes() == snapshot.tobytes()  # the second run wrote a new array


# op -> (forward on the inputs, input shapes); each backward hands its inputs
# fresh adjoints that the first consumer's grad keeps and the second adds into
_FRESH_ADJOINT_OPS = {
    "gelu": (ad.gelu, [(3, 5)]),
    "conv1d_dilated": (lambda x, k: ad.conv1d_dilated(x, k, 2), [(2, 7, 3), (3, 3, 4)]),
    "matmul": (ad.matmul, [(2, 3, 4), (4, 5)]),
    "mul": (ad.mul, [(3, 4), (4,)]),
    "tsum": (ad.tsum, [(3, 4, 2)]),
    "tsum_all": (lambda x: ad.reshape(ad.tsum(x), (1,)), [(3, 4)]),
}


@pytest.mark.parametrize("op", sorted(_FRESH_ADJOINT_OPS))
def test_two_consumers_get_the_same_grads_on_every_backward(op, rng):
    """Every input feeds two applications of the op.  Two backwards separated
    by zero_grads give bit-identical grads, leave the first run's grads and
    the inputs as they were, and match one consumer weighted by the sum."""
    forward, shapes = _FRESH_ADJOINT_OPS[op]
    arrays = [rng.normal(size=shape) for shape in shapes]
    inputs = [ad.Tensor(a.copy(), requires_grad=True) for a in arrays]
    out_shape = forward(*[ad.Tensor(a) for a in arrays]).shape
    w1, w2 = rng.normal(size=(2,) + out_shape)

    def run(weights):
        terms = [ad.tsum(ad.mul(forward(*inputs), w)) for w in weights]
        ad.backward(terms[0] if len(terms) == 1 else ad.add(*terms))
        return [t.grad for t in inputs]

    first = run([w1, w2])
    snapshot = [g.copy() for g in first]
    ad.zero_grads(inputs)
    second = run([w1, w2])
    for g1, g2, kept in zip(first, second, snapshot):
        assert g2.tobytes() == kept.tobytes()
        assert g1.tobytes() == kept.tobytes()  # the second run wrote new arrays
    for t, a in zip(inputs, arrays):
        assert t.data.tobytes() == a.tobytes()
    ad.zero_grads(inputs)
    for got, want in zip(snapshot, run([w1 + w2])):
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


# op -> (forward on the inputs, input shapes): every op of the module
_TAPE_OPS = {
    "add": (ad.add, [(3, 4), (4,)]),
    "mul": (ad.mul, [(3, 4), (4,)]),
    "matmul": (ad.matmul, [(2, 3, 4), (4, 5)]),
    "gelu": (ad.gelu, [(3, 5)]),
    "tsum": (ad.tsum, [(3, 4)]),
    "reshape": (lambda x: ad.reshape(x, (6, 2)), [(3, 4)]),
    "transpose": (lambda x: ad.transpose(x, (1, 0)), [(3, 4)]),
    "concat": (lambda x, y: ad.concat([x, y], axis=0), [(2, 3), (1, 3)]),
    "tslice": (lambda x: x[1:, :2], [(3, 4)]),
    "masked_log_softmax": (lambda x: ad.masked_log_softmax(x, ~np.eye(3, dtype=bool)),
                           [(3, 3)]),
    "conv1d_dilated": (lambda x, k: ad.conv1d_dilated(x, k, 2), [(2, 7, 3), (3, 3, 4)]),
    "max_pool1d": (lambda x: ad.max_pool1d(x, 2), [(2, 5, 3)]),
}


@pytest.mark.parametrize("op", sorted(_TAPE_OPS))
def test_an_op_keeps_a_tape_only_when_an_input_needs_a_gradient(op, rng):
    """With no input that needs a gradient the output keeps neither its
    parents nor its backward closure; with any one input that does, both."""
    forward, shapes = _TAPE_OPS[op]
    arrays = [rng.normal(size=shape) for shape in shapes]
    out = forward(*[ad.Tensor(a) for a in arrays])
    assert not out.requires_grad
    assert out._parents == () and out._backward is None
    for marked in range(len(arrays)):
        inputs = [ad.Tensor(a, requires_grad=i == marked) for i, a in enumerate(arrays)]
        out = forward(*inputs)
        assert out.requires_grad and out._backward is not None
        assert [p is t for p, t in zip(out._parents, inputs)] == [True] * len(inputs)


@pytest.mark.parametrize("op", sorted(_TAPE_OPS))
def test_backward_leaves_gradients_on_leaves_only(op, rng):
    """After backward, the op's output holds no adjoint, and each input that
    requires a gradient holds one; an input that requires none holds none."""
    forward, shapes = _TAPE_OPS[op]
    arrays = [rng.normal(size=shape) for shape in shapes]
    for marked in range(len(arrays)):
        inputs = [ad.Tensor(a, requires_grad=i == marked) for i, a in enumerate(arrays)]
        out = forward(*inputs)
        summed = ad.tsum(ad.mul(out, rng.normal(size=out.shape)))
        ad.backward(summed)
        assert out.grad is None and summed.grad is None
        assert [t.grad is not None for t in inputs] == [i == marked for i in range(len(inputs))]
        assert inputs[marked].grad.shape == arrays[marked].shape


def test_backward_frees_every_interior_adjoint(rng):
    """x feeds two ops, an add takes one tensor as both of its inputs, and a
    constant enters the graph: after backward every op output holds no
    adjoint, the constant none, and x and the kernel their gradients."""
    x = ad.Tensor(rng.normal(size=(2, 5, 3)), requires_grad=True)
    k = ad.Tensor(rng.normal(size=(3, 3, 3)), requires_grad=True)
    const = rng.normal(size=(2, 5, 3))
    y = ad.mul(x, 3.0)
    doubled = ad.add(y, y)                                  # 6x
    gelu_x = ad.gelu(x)                                     # x's second consumer
    conv = ad.conv1d_dilated(gelu_x, k, 2)
    shifted = ad.add(conv, const)
    pooled = ad.max_pool1d(shifted, 2)
    sums = [ad.tsum(doubled), ad.tsum(pooled)]
    root = ad.add(*sums)
    ad.backward(root)
    outputs = [y, doubled, gelu_x, conv, shifted, pooled, *sums, root]
    assert [t.grad is None for t in outputs] == [True] * len(outputs)
    assert k.grad is not None
    # the same pooled branch on a fresh leaf: x's gradient is its own plus 6
    x_alone = ad.Tensor(x.data, requires_grad=True)
    ad.backward(ad.tsum(ad.max_pool1d(ad.add(ad.conv1d_dilated(ad.gelu(x_alone), k.data, 2),
                                             const), 2)))
    np.testing.assert_allclose(x.grad, x_alone.grad + 6.0, rtol=1e-12, atol=1e-12)


def test_backward_rejects_a_root_that_needs_no_gradient(rng):
    x = ad.Tensor(rng.normal(size=(3,)))
    with pytest.raises(ValueError, match="requires no gradient"):
        ad.backward(ad.tsum(ad.mul(x, x)))
    assert x.grad is None
