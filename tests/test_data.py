import numpy as np
import pytest

from tscontrast import data as ds


def _toy_set():
    values = np.zeros((2, 4, 1))
    values[0, :, 0] = [1, 2, 3, 4]
    values[1, :3, 0] = [5, 6, 7]
    return ds.TimeSeriesSet(values=values, lengths=[4, 3], labels=[0, 1])


def test_set_validation():
    with pytest.raises(ValueError):
        ds.TimeSeriesSet(values=np.zeros((2, 4)), lengths=[4, 4])
    with pytest.raises(ValueError):
        ds.TimeSeriesSet(values=np.zeros((2, 4, 1)), lengths=[5, 4])
    with pytest.raises(ValueError):
        ds.TimeSeriesSet(values=np.zeros((2, 4, 1)), lengths=[4, 4], labels=[1])


def test_series_and_subset():
    tset = _toy_set()
    assert tset.series(1).shape == (3, 1)
    sub = tset.subset([1])
    assert sub.n == 1 and sub.lengths[0] == 3 and sub.labels[0] == 1


def test_tsv_round_trip(tmp_path):
    tset = _toy_set()
    path = tmp_path / "toy.tsv"
    ds.write_ucr_tsv(tset, path)
    back = ds.load_ucr_tsv(path)
    assert np.array_equal(back.lengths, tset.lengths)
    assert np.array_equal(back.labels, tset.labels)
    for i in range(tset.n):
        np.testing.assert_array_equal(back.series(i), tset.series(i))


def test_tsv_trailing_nan_shortens(tmp_path):
    path = tmp_path / "v.tsv"
    path.write_text("1\t0.5\t0.25\tNaN\tNaN\n2\t1.0\t2.0\t3.0\t4.0\n")
    tset = ds.load_ucr_tsv(path)
    assert list(tset.lengths) == [2, 4]


def test_tsv_interior_nan_rejected(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("1\t0.5\tNaN\t0.25\n")
    with pytest.raises(ValueError, match="interior"):
        ds.load_ucr_tsv(path)


def test_tsv_empty_and_malformed(tmp_path):
    empty = tmp_path / "empty.tsv"
    empty.write_text("\n")
    with pytest.raises(ValueError):
        ds.load_ucr_tsv(empty)
    bad = tmp_path / "text.tsv"
    bad.write_text("1\tabc\n")
    with pytest.raises(ValueError, match="non-numeric"):
        ds.load_ucr_tsv(bad)


def test_znormalize_stats():
    tset = _toy_set()
    out = ds.znormalize(tset)
    for i in range(out.n):
        seg = out.series(i)
        assert seg.mean() == pytest.approx(0.0, abs=1e-12)
        assert seg.std() == pytest.approx(1.0)
    # padding stays zero
    assert out.values[1, 3, 0] == 0.0


def test_znormalize_constant_channel():
    tset = ds.TimeSeriesSet(values=np.full((1, 5, 1), 7.0), lengths=[5])
    out = ds.znormalize(tset)
    assert np.all(out.values == 0.0)


def test_make_synthetic_deterministic_and_labeled():
    classes = [{"kind": "sine", "freq": 2.0}, {"kind": "square", "freq": 3.0}]
    a = ds.make_synthetic(4, 16, classes, noise_std=0.1, seed=5)
    b = ds.make_synthetic(4, 16, classes, noise_std=0.1, seed=5)
    c = ds.make_synthetic(4, 16, classes, noise_std=0.1, seed=6)
    np.testing.assert_array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)
    assert list(np.unique(a.labels)) == [0, 1]
    assert a.n == 8


def test_make_synthetic_validation():
    with pytest.raises(ValueError):
        ds.make_synthetic(0, 16, [{"kind": "sine", "freq": 1.0}])
    with pytest.raises(ValueError):
        ds.make_synthetic(2, 4, [{"kind": "sine", "freq": 1.0}])
    with pytest.raises(ValueError):
        ds.make_synthetic(2, 16, [{"kind": "triangle", "freq": 1.0}])
    with pytest.raises(ValueError):
        ds.make_synthetic(2, 16, [{"kind": "sine", "freq": 1.0, "bogus": 3}])
    with pytest.raises(ValueError):
        ds.make_synthetic(2, 16, [])


def test_crop_two_views_invariants():
    tset = ds.make_synthetic(3, 20, [{"kind": "sine", "freq": 2.0}], seed=0)
    for seed in range(50):
        views = ds.crop_two_views(tset, seed=seed)
        t = views.view_a.shape[1]
        assert views.view_b.shape[1] == t
        assert 10 <= t <= 20
        assert views.overlap_len >= 1
        np.testing.assert_array_equal(views.overlap_a(), views.overlap_b())


def test_crop_two_views_deterministic():
    tset = ds.make_synthetic(2, 16, [{"kind": "sine", "freq": 1.0}], seed=0)
    a = ds.crop_two_views(tset, seed=9)
    b = ds.crop_two_views(tset, seed=9)
    np.testing.assert_array_equal(a.view_a, b.view_a)
    np.testing.assert_array_equal(a.view_b, b.view_b)
    assert a.overlap_start_a == b.overlap_start_a


def test_crop_full_length():
    tset = ds.make_synthetic(2, 16, [{"kind": "sine", "freq": 1.0}], seed=0)
    views = ds.crop_two_views(tset, seed=0, full_length=True)
    assert views.overlap_len == 16
    np.testing.assert_array_equal(views.view_a, views.view_b)


def test_crop_rejects_tiny_series():
    tset = ds.TimeSeriesSet(values=np.zeros((2, 3, 1)), lengths=[3, 3])
    with pytest.raises(ValueError):
        ds.crop_two_views(tset, seed=0)


@pytest.mark.parametrize("spec", [5, "sine", {"kind": "sine", "freq": "2"},
                                  {"kind": "sine", "freq": True}, {"kind": "sine"}])
def test_make_synthetic_rejects_malformed_class_spec(spec):
    with pytest.raises(ValueError, match="class spec"):
        ds.make_synthetic(2, 16, [spec])
