import pytest

import tscontrast as tc
from tscontrast import distance as dist


def test_every_exported_name_resolves_once():
    assert len(tc.__all__) == len(set(tc.__all__))
    for name in tc.__all__:
        assert getattr(tc, name) is not None, name


@pytest.mark.parametrize("name", ["dtw_path", "euclidean", "cosine_dist"])
def test_deleted_single_pair_functions_stay_gone(name):
    # pairwise is the one entry point of euc and cos, and no caller reads a path
    assert not hasattr(tc, name)
    assert not hasattr(dist, name)
