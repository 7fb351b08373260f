import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tscontrast import assign as asg
from tscontrast import autodiff as ad
from tscontrast import encoder as enc
from tscontrast import loss as losses
from tscontrast import oracle
from tscontrast.config import TrainConfig
from tscontrast.distance import DistanceMatrix


def test_instance_loss_matches_oracle(rng):
    for _ in range(10):
        n, t, m = rng.integers(2, 5), rng.integers(1, 5), rng.integers(1, 5)
        reps = rng.normal(size=(2 * n, t, m))
        w = rng.uniform(size=(n, n))
        w = (w + w.T) / 2
        ours = float(losses.soft_instance_loss(ad.Tensor(reps), asg.extend_instance(w)).data)
        ref = oracle.scalar_loss_eq3(reps, w)
        assert abs(ours - ref) < 1e-10


def test_temporal_loss_matches_oracle(rng):
    for _ in range(10):
        n, t, m = rng.integers(1, 4), rng.integers(2, 5), rng.integers(1, 5)
        reps = rng.normal(size=(2 * n, t, m))
        w_t = asg.w_temporal(t, 0, TrainConfig())
        ours = float(losses.soft_temporal_loss(ad.Tensor(reps), asg.extend_temporal(w_t)).data)
        ref = oracle.scalar_loss_eq6(reps, w_t)
        assert abs(ours - ref) < 1e-10


def test_hard_reduction(rng):
    n, t, m = 3, 4, 5
    reps = rng.normal(size=(2 * n, t, m))
    inst = float(losses.soft_instance_loss(
        ad.Tensor(reps), asg.extend_instance(np.zeros((n, n)))).data)
    assert abs(inst - oracle.infonce_instance(reps)) < 1e-10
    temp = float(losses.soft_temporal_loss(
        ad.Tensor(reps), asg.extend_temporal(np.zeros((t, t)))).data)
    assert abs(temp - oracle.infonce_temporal(reps)) < 1e-10


# term -> (loss, weight extension, scalar oracle, size of the [P, P] weights)
_TERMS = {
    "instance": (losses.soft_instance_loss, asg.extend_instance, oracle.scalar_loss_eq3,
                 lambda n, t: n),
    "temporal": (losses.soft_temporal_loss, asg.extend_temporal, oracle.scalar_loss_eq6,
                 lambda n, t: t),
}
_CASE = dict(term=st.sampled_from(sorted(_TERMS)), n=st.integers(1, 3), t=st.integers(1, 4),
             m=st.integers(1, 3), weights=st.sampled_from(["soft", "hard", "diagonal"]),
             seed=st.integers(0, 2 ** 32 - 1))


def _fused_case(term, n, t, m, weights, seed):
    """(reps, w, w_ext): soft, all-zero (`hard`) or soft weights whose
    extension carries a nonzero diagonal, which the loss must ignore."""
    rng = np.random.default_rng(seed)
    _, extend, _, size = _TERMS[term]
    reps = rng.uniform(-1.5, 1.5, size=(2 * n, t, m))
    p = size(n, t)
    w = np.zeros((p, p)) if weights == "hard" else rng.uniform(size=(p, p))
    w_ext = extend(w)
    if weights == "diagonal":
        np.fill_diagonal(w_ext, rng.uniform(0.5, 3.0, size=2 * p))
    return reps, w, w_ext


@settings(max_examples=120, deadline=None)
@given(**_CASE)
@example(term="instance", n=1, t=3, m=2, weights="soft", seed=0)      # A = 2
@example(term="temporal", n=2, t=1, m=2, weights="diagonal", seed=0)  # A = 2
def test_fused_term_matches_scalar_oracle(term, n, t, m, weights, seed):
    reps, w, w_ext = _fused_case(term, n, t, m, weights, seed)
    fn, _, scalar, _ = _TERMS[term]
    ours = float(fn(ad.Tensor(reps), w_ext).data)
    assert abs(ours - scalar(reps, w)) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(**_CASE)
@example(term="instance", n=1, t=2, m=2, weights="hard", seed=0)
@example(term="temporal", n=1, t=1, m=3, weights="soft", seed=0)
def test_fused_term_gradient_matches_central_differences(term, n, t, m, weights, seed):
    reps, _, w_ext = _fused_case(term, n, t, m, weights, seed)
    fn = _TERMS[term][0]
    x = ad.Tensor(reps.copy(), requires_grad=True)
    ad.backward(fn(x, w_ext))
    (numeric,) = oracle.fd_gradient(lambda: float(fn(ad.Tensor(reps), w_ext).data), [reps])
    np.testing.assert_allclose(x.grad, numeric, rtol=1e-6, atol=1e-7)


@pytest.mark.parametrize("term, shape, w_size, message", [
    ("temporal", (3, 4, 2), 8, "stacked representations must pair up"),
    ("instance", (1, 4, 2), 1, "need at least 2 items to contrast"),
    ("instance", (4, 3, 2), 3, r"extended weights must be \[4, 4\]"),
    ("temporal", (4, 3, 2), 3, r"extended temporal weights must be \[6, 6\]"),
])
def test_fused_term_rejects_bad_shapes(term, shape, w_size, message):
    with pytest.raises(ValueError, match=message):
        _TERMS[term][0](ad.Tensor(np.ones(shape)), np.ones((w_size, w_size)))


@pytest.mark.parametrize("term", sorted(_TERMS))
def test_fused_term_nan_input_gives_nan_without_warning(term):
    reps, _, w_ext = _fused_case(term, 2, 3, 2, "soft", 5)
    reps[1, 2, 0] = np.nan
    x = ad.Tensor(reps, requires_grad=True)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = _TERMS[term][0](x, w_ext)
        ad.backward(out)
    assert np.isnan(out.data)


def test_temporal_term_holds_two_pair_matrices_at_most(rng, peak_bytes):
    """A [16, 128, 16] stack is 8 instances of two 128-step views, so the
    temporal term's pair matrices are [8, 256, 256].  Its forward holds two
    of them at once (log p and p); its backward adds none, building G in p's
    buffer and G + Gᵀ a block of groups at a time."""
    reps = ad.Tensor(rng.normal(size=(16, 128, 16)), requires_grad=True)
    w_ext = rng.uniform(size=(256, 256))
    one = 8 * 256 * 256 * 8
    out = []
    assert peak_bytes(lambda: out.append(losses.soft_temporal_loss(reps, w_ext))) <= 2.5 * one
    assert peak_bytes(lambda: ad.backward(out[0])) <= 0.5 * one
    assert reps.grad.shape == reps.shape


@pytest.mark.parametrize("term", sorted(_TERMS))
def test_fused_term_backward_runs_once_per_forward(term):
    """The backward builds its adjoint in the forward's buffer, so a second
    backward through the same term raises instead of reading it."""
    reps, _, w_ext = _fused_case(term, 2, 3, 2, "soft", 5)
    x = ad.Tensor(reps, requires_grad=True)
    out = _TERMS[term][0](x, w_ext)
    ad.backward(out)
    first = x.grad.copy()
    with pytest.raises(RuntimeError, match="runs once per forward"):
        ad.backward(out)
    assert x.grad.tobytes() == first.tobytes()


def test_kl_identity(rng):
    for _ in range(5):
        n, t, m = 3, 4, 4
        reps = rng.normal(size=(2 * n, t, m))
        w = rng.uniform(size=(n, n))
        lhs = float(losses.soft_instance_loss(ad.Tensor(reps), asg.extend_instance(w)).data)
        assert abs(lhs - oracle.scaled_kl_loss(reps, w, temporal=False)) < 1e-10
        w_t = rng.uniform(size=(t, t))
        lhs = float(losses.soft_temporal_loss(ad.Tensor(reps), asg.extend_temporal(w_t)).data)
        assert abs(lhs - oracle.scaled_kl_loss(reps, w_t, temporal=True)) < 1e-10


def _joint_inputs(rng, n=3, t=8, m=4):
    """Two views [n, t, m] and the default instance weights of a random
    normalized distance matrix."""
    ra = rng.normal(size=(n, t, m))
    rb = rng.normal(size=(n, t, m))
    d = rng.uniform(size=(n, n))
    d = (d + d.T) / 2
    np.fill_diagonal(d, 0.0)
    d = d / d.max()
    dist = DistanceMatrix(values=d, metric="dtw")
    return ra, rb, asg.w_instance(dist, TrainConfig())


def test_joint_loss_breakdown(rng):
    ra, rb, w = _joint_inputs(rng)
    total, bd = losses.joint_loss(ra, rb, w, TrainConfig(lam=0.3))
    assert total.data.shape == ()
    assert len(bd.per_level) == 3  # T=8 -> 8, 4, 2
    expected = np.mean([0.3 * li + 0.7 * lt for _, li, lt in bd.per_level])
    assert bd.total == pytest.approx(expected)
    assert bd.total == pytest.approx(float(total.data))


def test_joint_loss_lambda_extremes(rng):
    ra, rb, w = _joint_inputs(rng)
    total0, bd0 = losses.joint_loss(ra, rb, w, TrainConfig(lam=0.0))
    assert bd0.total == pytest.approx(bd0.temporal_term)
    total1, bd1 = losses.joint_loss(ra, rb, w, TrainConfig(lam=1.0))
    assert bd1.total == pytest.approx(bd1.instance_term)


def test_joint_loss_hard_flag(rng):
    ra, rb, w = _joint_inputs(rng)
    _, hard_bd = losses.joint_loss(ra, rb, w, TrainConfig(hard=True))
    n = ra.shape[0]
    _, zero_bd = losses.joint_loss(ra, rb, np.zeros((n, n)), TrainConfig())
    # hard=True zeroes the instance weights; temporal weights differ (also zeroed)
    assert hard_bd.per_level[0][1] == pytest.approx(zero_bd.per_level[0][1])
    assert hard_bd.temporal_term <= zero_bd.temporal_term + 1e-9


@settings(max_examples=60, deadline=None)
@given(length=st.integers(1, 200), m=st.integers(2, 4), seed=st.integers(0, 2 ** 32 - 1))
@example(length=1, m=2, seed=0)  # one level of one step
@example(length=4, m=4, seed=0)  # pooling would leave one step: one level
@example(length=5, m=2, seed=0)  # a short last window: 5, 3, 2
def test_pool_ladder_and_joint_loss_levels_match_the_scalar_ladder(length, m, seed):
    """Ceil pooling down to the last level of length >= 2, and the joint loss
    has an instance and a temporal term at each of those levels."""
    rng = np.random.default_rng(seed)
    expected = oracle.pool_ladder_lengths(length, m)
    ra, rb = rng.normal(size=(2, 2, length, 2))
    ladder = enc.pool_ladder(ad.Tensor(ra), m)
    assert [level.shape[1] for level in ladder] == expected
    _, bd = losses.joint_loss(ra, rb, np.zeros((2, 2)), TrainConfig(pool_m=m))
    assert [k for k, _, _ in bd.per_level] == list(range(len(expected)))
    assert all(np.isfinite([li, lt]).all() for _, li, lt in bd.per_level)


def test_joint_loss_shape_checks(rng):
    ra, rb, w = _joint_inputs(rng)
    with pytest.raises(ValueError):
        losses.joint_loss(ra, rb[:2], w, TrainConfig())
    with pytest.raises(ValueError):
        losses.joint_loss(ra, rb, np.zeros((2, 2)), TrainConfig())


def test_csv_row_order():
    bd = losses.LossBreakdown(total=1.0, instance_term=2.0, temporal_term=3.0,
                              per_level=[(0, 4.0, 5.0), (1, 6.0, 7.0)])
    assert bd.csv_row() == [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]
