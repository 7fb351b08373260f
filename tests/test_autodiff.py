import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
    np.testing.assert_allclose(ad.tsum(ad.Tensor(a), axis=1).data, a.sum(axis=1))
    _check_grad(lambda x: ad.tsum(ad.mul(ad.tsum(x, axis=0), ad.tsum(x, axis=0))), [a])


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
    """reshape hands x a view of r's grad as x's first adjoint; x's second
    adjoint must not write through it into r.grad."""
    x = ad.Tensor(rng.normal(size=(2, 6)), requires_grad=True)
    w = rng.normal(size=(3, 4))
    v = rng.normal(size=(2, 6))

    def run():
        r = ad.reshape(x, (3, 4))
        ad.backward(ad.add(ad.tsum(ad.mul(r, w)), ad.tsum(ad.mul(x, v))))
        return r

    r = run()
    first, snapshot = x.grad, x.grad.copy()
    np.testing.assert_array_equal(r.grad, w)
    np.testing.assert_array_equal(x.grad, w.reshape(2, 6) + v)
    ad.zero_grads([x])
    r = run()
    np.testing.assert_array_equal(r.grad, w)
    assert x.grad.tobytes() == snapshot.tobytes()
    assert first.tobytes() == snapshot.tobytes()  # the second run wrote a new array
