import numpy as np
import pytest

from tscontrast import autodiff as ad
from tscontrast import encoder as enc
from tscontrast.config import TrainConfig


def _model(depth=2, hidden=8, out=4, dims=2):
    return enc.init_encoder(TrainConfig(hidden=hidden, repr_dims=out, depth=depth), dims, seed=3)


def test_config_validation():
    with pytest.raises(ValueError, match="input_dims must be >= 1, got 0"):
        enc.init_encoder(TrainConfig(hidden=8, repr_dims=4, depth=2), 0)


def test_init_deterministic():
    a = _model()
    b = _model()
    for name in a.params:
        np.testing.assert_array_equal(a.params[name].data, b.params[name].data)


def test_encode_shape(rng):
    model = _model()
    x = rng.normal(size=(3, 10, 2))
    out = enc.encode(model, x)
    assert out.shape == (3, 10, 4)


def test_encode_rejects_bad_input(rng):
    model = _model()
    with pytest.raises(ValueError):
        enc.encode(model, rng.normal(size=(3, 10, 5)))


def test_binomial_mask_changes_output(rng):
    model = _model()
    x = rng.normal(size=(2, 12, 2))
    plain = enc.encode(model, x).data
    mask_rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(0)))
    masked = enc.encode(model, x, mask_mode="binomial", rng=mask_rng).data
    assert not np.array_equal(plain, masked)


def test_binomial_mask_needs_rng(rng):
    model = _model()
    with pytest.raises(ValueError):
        enc.encode(model, rng.normal(size=(1, 8, 2)), mask_mode="binomial")


def test_encode_rejects_an_unknown_mask_mode(rng):
    assert enc.MASK_MODES == ("none", "binomial")
    with pytest.raises(ValueError, match="unknown mask mode: 'bogus'"):
        enc.encode(_model(), rng.normal(size=(1, 8, 2)), mask_mode="bogus")


def test_pool_ladder_lengths(rng):
    r = ad.Tensor(rng.normal(size=(2, 8, 3)))
    lengths = [lvl.shape[1] for lvl in enc.pool_ladder(r, 2)]
    assert lengths == [8, 4, 2]
    lengths = [lvl.shape[1] for lvl in enc.pool_ladder(ad.Tensor(rng.normal(size=(2, 1, 3))), 2)]
    assert lengths == [1]
    lengths = [lvl.shape[1] for lvl in enc.pool_ladder(ad.Tensor(rng.normal(size=(2, 7, 3))), 3)]
    assert lengths == [7, 3]


def test_instance_repr_is_time_max(rng):
    x = rng.normal(size=(4, 9, 5))
    np.testing.assert_array_equal(enc.instance_repr(x), x.max(axis=1))
    np.testing.assert_array_equal(enc.instance_repr(ad.Tensor(x)), x.max(axis=1))

