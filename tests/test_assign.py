import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tscontrast import assign as asg
from tscontrast import oracle
from tscontrast.config import TrainConfig
from tscontrast.distance import DistanceMatrix


def _dist(values):
    return DistanceMatrix(values=np.asarray(values, dtype=float), metric="dtw")


def test_instance_requires_normalized():
    # the kernels assume distances in [0, 1]: no matrix outside that is built
    for value, defect in ((1.5, "outside [0, 1]"), (-0.25, "outside [0, 1]"),
                          (math.nan, "not finite"), (math.inf, "not finite")):
        values = np.zeros((3, 3))
        values[1, 2] = value
        with pytest.raises(ValueError, match=re.escape(
                f"normalized distance {value!r} at (1, 2) {defect}")):
            DistanceMatrix(values=values, metric="dtw")


@pytest.mark.parametrize("kernel", asg.INSTANCE_KERNELS)
def test_instance_kernels_monotone_nonincreasing(kernel):
    d = np.linspace(0, 1, 11)
    m = _dist(np.tile(d, (11, 1)))
    cfg = TrainConfig(inst_kernel=kernel, tau_inst=5.0, alpha=0.5)
    w = asg.w_instance(m, cfg)[0]
    assert np.all(np.diff(w) <= 1e-12)
    assert np.all(w >= 0.0) and np.all(w <= 1.0)


def test_instance_sigmoid_alpha_at_zero():
    for alpha in (0.25, 0.5, 0.75, 1.0):
        cfg = TrainConfig(alpha=alpha)
        w = asg.w_instance(_dist([[0.0, 0.0], [0.0, 0.0]]), cfg)
        assert w[0, 1] == pytest.approx(alpha)


def test_effective_tau_scaling():
    cfg = TrainConfig(tau_temp=1.5, pool_m=2)
    flat = TrainConfig(tau_temp=1.5, pool_m=2, hierarchical_tau=False)
    for k in range(5):
        assert asg.effective_tau(cfg, k) == pytest.approx(2 ** k * 1.5)
        assert asg.effective_tau(flat, k) == 1.5


@pytest.mark.parametrize("kernel", asg.TEMPORAL_KERNELS)
def test_temporal_kernels_monotone_in_gap(kernel):
    cfg = TrainConfig(temp_kernel=kernel, tau_temp=1.0)
    w = asg.w_temporal(10, 0, cfg)
    row = w[0]  # gap increases along the row
    assert np.all(np.diff(row) <= 1e-12)
    assert np.all(w >= 0.0) and np.all(w <= 1.0)
    np.testing.assert_allclose(w, w.T)


def test_temporal_neighbor_window():
    cfg = TrainConfig(temp_kernel="neighbor")
    w = asg.w_temporal(10, 0, cfg)  # window = ceil(3) = 3, two-sided inclusive
    assert w[0, 3] == 1.0 and w[0, 4] == 0.0
    assert w[5, 2] == 1.0 and w[5, 8] == 1.0 and w[5, 9] == 0.0


def test_temporal_linear_endpoints():
    cfg = TrainConfig(temp_kernel="linear")
    w = asg.w_temporal(5, 0, cfg)
    assert w[0, 0] == 1.0
    assert w[0, 4] == pytest.approx(0.0)


def test_temporal_sharpening_with_level():
    cfg = TrainConfig(temp_kernel="sigmoid", tau_temp=1.0)
    w0 = asg.w_temporal(8, 0, cfg)
    w2 = asg.w_temporal(8, 2, cfg)
    assert np.all(w2[0, 1:] <= w0[0, 1:] + 1e-12)  # sharper decay at depth


def test_temporal_validation():
    cfg = TrainConfig()
    with pytest.raises(ValueError):
        asg.w_temporal(0, 0, cfg)
    with pytest.raises(ValueError):
        asg.w_temporal(4, -1, cfg)


def test_extend_instance_structure(rng):
    w = rng.uniform(size=(3, 3))
    w = (w + w.T) / 2
    ext = asg.extend_instance(w)
    assert ext.shape == (6, 6)
    assert np.all(np.diag(ext) == 0.0)
    for i in range(3):
        assert ext[i, i + 3] == 1.0 and ext[i + 3, i] == 1.0  # cross-view positives
    for i in range(6):
        for j in range(6):
            if i != j and i % 3 != j % 3:
                assert ext[i, j] == w[i % 3, j % 3]


@settings(max_examples=80, deadline=None)
@given(p=st.integers(1, 40), symmetric=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
@example(p=1, symmetric=False, seed=0)
@example(p=40, symmetric=False, seed=0)
def test_extend_instance_matches_scalar_oracle(p, symmetric, seed):
    w = np.random.default_rng(seed).uniform(0.0, 2.0, size=(p, p))
    if symmetric:
        w = (w + w.T) / 2
    np.testing.assert_array_equal(asg.extend_instance(w), oracle.extend_weights(w))


def test_extend_temporal_matches_instance_rule(rng):
    w = rng.uniform(size=(4, 4))
    np.testing.assert_array_equal(asg.extend_temporal(w), asg.extend_instance(w))


def test_extend_rejects_nonsquare():
    with pytest.raises(ValueError):
        asg.extend_instance(np.zeros((2, 3)))

