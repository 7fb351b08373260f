import ast
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from tscontrast import data as ds
from tscontrast import oracle


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


def test_tsv_writes_label_repr_and_nan_padding(tmp_path):
    # the padding cells hold 9.0, which must not be written
    values = np.array([[0.1, 1 / 3, -2.5e-300], [3.0, 9.0, 9.0]])[:, :, None]
    tset = ds.TimeSeriesSet(values=values, lengths=[3, 1], labels=[7, 0])
    path = tmp_path / "ragged.tsv"
    ds.write_ucr_tsv(tset, path)
    assert path.read_text() == "7\t0.1\t0.3333333333333333\t-2.5e-300\n0\t3.0\tNaN\tNaN\n"


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


@pytest.mark.parametrize("line, why", [
    ("2\t1.0\tinf\t3.0", "infinite value"),
    ("2\t1.0\t-inf", "infinite value"),
    ("2\t1.0\tInfinity\t3.0", "infinite value"),
    ("inf\t1.0\t2.0", "non-finite label"),
    ("1.5\t1.0\t2.0", "non-integral label"),
    # past int64, where the labels are stored
    ("1e20\t1.0\t2.0", "label out of range"),
    ("-1e19\t1.0\t2.0", "label out of range"),
    ("9223372036854775808\t1.0\t2.0", "label out of range"),
])
def test_tsv_non_finite_cell_rejected_with_line(tmp_path, line, why):
    # an inf cell used to load and turn into NaN under znormalize
    path = tmp_path / "inf.tsv"
    path.write_text(f"1\t0.5\t0.25\n{line}\n")
    with pytest.raises(ValueError, match=f"{path.name}:2: {why}"):
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
    latin1 = tmp_path / "latin1.tsv"
    latin1.write_bytes(b"1\t0.5\n2\t0.25\xe9\n")  # an e-acute in Latin-1
    with pytest.raises(ValueError, match="^" + re.escape(
            f"{latin1}: 'utf-8' codec can't decode byte 0xe9 in position 12")):
        ds.load_ucr_tsv(latin1)


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


@pytest.mark.parametrize("row", [[1e300, -1e300] * 3, [1e308] * 6, [0.0] * 5 + [math.nan]])
def test_znormalize_rejects_a_series_it_cannot_scale(row):
    # +-1e300 used to overflow the stdev to inf and normalize to all zeros
    # with only a RuntimeWarning (an error in this suite)
    values = np.zeros((3, 6, 1))
    values[0, :, 0] = np.arange(6)
    values[1, :, 0] = row
    values[2, :, 0] = np.arange(6)[::-1]
    with pytest.raises(ValueError, match=r"^series 1: mean or stdev is not finite"):
        ds.znormalize(ds.TimeSeriesSet(values, [6, 6, 6]))


# cells that float() reads in its own ways, or rejects
_ODD_CELLS = [" 1.5 ", "1_0", "1__0", "_1", "infinity", "-Infinity", "+NaN", "nan", "1e500",
              "-1e-400", "\u0661\u0662", "0x1p3", "1,5", "", " ", "1e", ".5", "5.", "+.5e-3",
              "0.1\u00a0", "\u2003-2", "1.0\x00", "\x0b7\x0c", "1e+308", "4.9e-324"]
_CELLS = st.lists(st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(allow_nan=False, allow_infinity=False, width=32).map(str),
    st.integers(-10 ** 20, 10 ** 20).map(str),
    st.sampled_from(_ODD_CELLS),
    st.text(st.characters(blacklist_characters="\t\n\r", codec="utf-8"), max_size=6)),
    min_size=1, max_size=8)


@settings(max_examples=300, deadline=None)
@given(cells=_CELLS)
def test_tsv_cells_read_as_float_reads_them(tmp_path_factory, cells):
    """A line's values are float()'s values of its cells, bit for bit, and a
    cell float() rejects is a non-numeric cell on that line."""
    path = tmp_path_factory.mktemp("tsv") / "cells.tsv"
    path.write_text("0\t1.0\n1\t" + "\t".join(cells) + "\n", encoding="utf-8")
    try:
        expected = np.array([float(c) for c in cells])
    except ValueError:
        with pytest.raises(ValueError, match=r"cells\.tsv:2: non-numeric cell$"):
            ds.load_ucr_tsv(path)
        return
    if np.isinf(expected).any():
        with pytest.raises(ValueError, match=r"cells\.tsv:2: infinite value$"):
            ds.load_ucr_tsv(path)
        return
    nan = np.isnan(expected)
    if nan.any():  # the trailing NaNs shorten the series; the rest is covered above
        return
    assert ds.load_ucr_tsv(path).series(1)[:, 0].tobytes() == expected.tobytes()


@st.composite
def _ragged_sets(draw):
    """Sets of lengths 1-200 and 1-4 channels at magnitudes from 1e-5 to 1e5,
    offset from zero by up to 100 times that, with constant channels."""
    n = draw(st.integers(1, 12))
    dims = draw(st.integers(1, 4))
    lengths = draw(st.lists(st.integers(1, 200), min_size=n, max_size=n))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    scale = 10.0 ** rng.uniform(-5, 5, size=(n, 1, dims))
    values = (rng.normal(size=(n, max(lengths), dims))
              + rng.uniform(-100, 100, size=(n, 1, dims))) * scale
    for i, d in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, dims - 1)),
                              max_size=3)):
        values[i, :, d] = rng.normal()
    values[np.arange(max(lengths)) >= np.array(lengths)[:, None]] = 0.0
    return ds.TimeSeriesSet(values, lengths)


@settings(max_examples=150, deadline=None)
@given(tset=_ragged_sets())
def test_znormalize_equals_the_per_series_loop(tset):
    assert ds.znormalize(tset).values.tobytes() == oracle.znormalize(tset).tobytes()


def test_znormalize_names_the_lowest_unscalable_series_across_lengths():
    # series 1 (length 6) and series 3 (length 4) cannot be scaled; the
    # length-4 group comes first, but series 1 has the lower index
    values = np.zeros((4, 6, 1))
    values[:, :, 0] = np.arange(6)
    values[1, :, 0] = [1e300, -1e300] * 3
    values[3, :4, 0] = [0.0, 1.0, np.nan, 2.0]
    tset = ds.TimeSeriesSet(values, [5, 6, 4, 4])
    message = r"^series 1: mean or stdev is not finite, so it cannot be z-normalized \(mean"
    with pytest.raises(ValueError, match=message):
        oracle.znormalize(tset)
    with pytest.raises(ValueError, match=message):
        ds.znormalize(tset)


@st.composite
def _integer_series(draw):
    """One [t, d] series of integers whose every channel takes two values or more."""
    t, d = draw(st.integers(2, 40)), draw(st.integers(1, 3))
    channels = [draw(st.lists(st.integers(-1000, 1000), min_size=t, max_size=t)
                     .filter(lambda c: len(set(c)) > 1)) for _ in range(d)]
    return np.array(channels, dtype=np.float64).T


@settings(max_examples=100, deadline=None)
@given(x=_integer_series(), k=st.integers(0, 1000))
def test_znormalize_is_unchanged_by_a_tiny_power_of_two_scale(x, k):
    # below 2**-511 a deviation's square is subnormal or zero: at k = 1000 the
    # stdev used to underflow and every channel normalized to zeros
    big, tiny = (ds.TimeSeriesSet(v[None], [len(x)]) for v in (x, x * 2.0 ** -k))
    got = ds.znormalize(tiny).values
    np.testing.assert_allclose(got, ds.znormalize(big).values, rtol=1e-12, atol=0)
    assert got.tobytes() == oracle.znormalize(tiny).tobytes()


@pytest.mark.parametrize("scale", [1e-300, 1e-160])
def test_znormalize_keeps_a_tiny_non_constant_series(scale):
    # 1e-300 used to normalize to zeros, as if constant; at 1e-160 the squares
    # are subnormal and the output was off by a relative 3.6e-5
    x = np.array([[[1.0], [-1.0], [3.0]]])
    want = ds.znormalize(ds.TimeSeriesSet(x, [3])).values
    got = ds.znormalize(ds.TimeSeriesSet(x * scale, [3])).values
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


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


_CLASSES = [{"kind": "sine", "freq": 1.0}]


# (n_per_class, length, classes): 10**400 series per class, and one series
# per class more than MAX_SYNTHETIC_CELLS allows at length 64 and 3 classes
_OVERSIZED = {
    "huge": (10 ** 400, 16, _CLASSES),
    "just-over": (ds.MAX_SYNTHETIC_CELLS // (3 * 64) + 1, 64, _CLASSES * 3),
}


@pytest.mark.parametrize("case", sorted(_OVERSIZED))
def test_make_synthetic_rejects_a_corpus_over_the_cap_before_building_it(case, peak_bytes):
    n_per_class, length, classes = _OVERSIZED[case]

    def build():
        cap = ds.MAX_SYNTHETIC_CELLS
        with pytest.raises(ValueError, match=f"over MAX_SYNTHETIC_CELLS = {cap}: n_per_class "
                                             f"must be <= {cap // (len(classes) * length)} for "
                                             f"{len(classes)} classes of length {length}$"):
            ds.make_synthetic(n_per_class, length, classes)

    assert peak_bytes(build) < 2 ** 16


def test_make_synthetic_builds_a_corpus_at_the_cap(monkeypatch):
    monkeypatch.setattr(ds, "MAX_SYNTHETIC_CELLS", 3 * 2 * 16)
    assert ds.make_synthetic(3, 16, _CLASSES * 2).values.size == 3 * 2 * 16
    for n_per_class, length in ((4, 16), (3, 17)):
        with pytest.raises(ValueError, match="over MAX_SYNTHETIC_CELLS = 96: n_per_class must"):
            ds.make_synthetic(n_per_class, length, _CLASSES * 2)


@pytest.mark.parametrize("value", [-0.5, math.nan, math.inf, True, "0.1", None])
def test_make_synthetic_rejects_bad_noise_std(value):
    with pytest.raises(ValueError, match=f"noise_std must be a finite number >= 0, got {value!r}"):
        ds.make_synthetic(2, 16, _CLASSES, noise_std=value)


@pytest.mark.parametrize("value", [-1, True, 1.5, "3", None])
def test_make_synthetic_rejects_bad_seed(value):
    with pytest.raises(ValueError, match=f"seed must be an int >= 0, got {value!r}"):
        ds.make_synthetic(2, 16, _CLASSES, seed=value)


@pytest.mark.parametrize("name,lowest,value", [
    ("n_per_class", 1, 0), ("n_per_class", 1, True), ("n_per_class", 1, 2.0),
    ("length", 8, 7), ("length", 8, 8.5), ("length", 8, True), ("length", 8, "16")])
def test_make_synthetic_rejects_bad_sizes(name, lowest, value):
    # a float length of 8.5 once made 9 steps stored as 8
    sizes = {"n_per_class": 2, "length": 16, name: value}
    with pytest.raises(ValueError, match=re.escape(f"{name} must be an int >= {lowest}, "
                                                   f"got {value!r}")):
        ds.make_synthetic(sizes["n_per_class"], sizes["length"], _CLASSES)


def test_crop_two_views_invariants():
    tset = ds.make_synthetic(3, 20, [{"kind": "sine", "freq": 2.0}], seed=0)
    for seed in range(50):
        views = ds.crop_two_views(tset, seed=seed)
        t = views.view_a.shape[1]
        assert views.view_b.shape[1] == t
        assert 10 <= t <= 20
        assert views.overlap_len >= 1
        np.testing.assert_array_equal(*views.overlap(views.view_a, views.view_b))


def test_crop_two_views_deterministic():
    tset = ds.make_synthetic(2, 16, [{"kind": "sine", "freq": 1.0}], seed=0)
    a = ds.crop_two_views(tset, seed=9)
    b = ds.crop_two_views(tset, seed=9)
    np.testing.assert_array_equal(a.view_a, b.view_a)
    np.testing.assert_array_equal(a.view_b, b.view_b)
    assert a.overlap_start_a == b.overlap_start_a


def test_crop_rejects_tiny_series():
    tset = ds.TimeSeriesSet(values=np.zeros((2, 3, 1)), lengths=[3, 3])
    with pytest.raises(ValueError):
        ds.crop_two_views(tset, seed=0)


def _shared_crop(t, seed):
    """(crop length, offset of view a, offset of view b): the draws of one
    crop shared by every row of a batch whose shortest length is t."""
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    crop_len = int(rng.integers(math.ceil(t / 2), t + 1))
    off_a = int(rng.integers(0, t - crop_len + 1))
    off_b = int(rng.integers(max(0, off_a - crop_len + 1),
                             min(t - crop_len, off_a + crop_len - 1) + 1))
    return crop_len, off_a, off_b


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 4), length=st.integers(ds.MIN_CROP_LENGTH, 40),
       seed=st.integers(0, 2 ** 32 - 1))
def test_equal_length_crop_is_one_slice_for_every_row(n, length, seed):
    values = np.random.default_rng(seed).normal(size=(n, length, 2))
    views = ds.crop_two_views(ds.TimeSeriesSet(values, [length] * n), seed=seed)
    crop_len, off_a, off_b = _shared_crop(length, seed)
    np.testing.assert_array_equal(views.view_a, values[:, off_a:off_a + crop_len])
    np.testing.assert_array_equal(views.view_b, values[:, off_b:off_b + crop_len])


_LADDER = st.lists(st.integers(ds.MIN_CROP_LENGTH, 30), min_size=2, max_size=5).filter(
    lambda lengths: len(set(lengths)) > 1)


def _numbered(lengths):
    """Series whose cell at step t holds t, padded with NaN."""
    values = np.full((len(lengths), max(lengths), 1), np.nan)
    for i, length in enumerate(lengths):
        values[i, :length, 0] = np.arange(length)
    return ds.TimeSeriesSet(values, lengths)


@settings(max_examples=80, deadline=None)
@given(lengths=_LADDER, seed=st.integers(0, 2 ** 32 - 1))
def test_ragged_crop_reads_no_padding(lengths, seed):
    views = ds.crop_two_views(_numbered(lengths), seed=seed)
    assert np.isfinite(views.view_a).all() and np.isfinite(views.view_b).all()
    # each row's two views cover the same steps over the overlap
    np.testing.assert_array_equal(*views.overlap(views.view_a, views.view_b))
    # and the offsets within the views are the batch's shared draws
    crop_len, off_a, off_b = _shared_crop(min(lengths), seed)
    assert views.view_a.shape[1] == crop_len
    assert views.overlap_start_a == max(off_a, off_b) - off_a


def test_ragged_crop_reaches_every_step_of_the_longest_series():
    lengths = [8, 13, 30]
    tset = _numbered(lengths)
    seen = set()
    for seed in range(200):
        views = ds.crop_two_views(tset, seed=seed)
        seen.update(views.view_a[2, :, 0].astype(int).tolist())
        seen.update(views.view_b[2, :, 0].astype(int).tolist())
    assert seen == set(range(30))


@pytest.mark.parametrize("spec", [5, "sine", {"kind": "sine", "freq": "2"},
                                  {"kind": "sine", "freq": True}, {"kind": "sine"},
                                  {"kind": "sine", "freq": 2.0, "amplitude": 1.0},
                                  # 2*pi*freq overflows to infinity
                                  {"kind": "sine", "freq": math.inf},
                                  {"kind": "sine", "freq": 1e308},
                                  {"kind": "sine", "freq": 10 ** 400}])
def test_make_synthetic_rejects_malformed_class_spec(spec):
    with pytest.raises(ValueError, match="class spec"):
        ds.make_synthetic(2, 16, [spec])


_RAGGED = st.integers(1, 3).flatmap(lambda d: st.lists(
    st.integers(1, 40).flatmap(lambda t: arrays(np.float64, (t, d), elements=st.floats(-10, 10))),
    min_size=1, max_size=5))


def _padded(series, fill=0.0, labels=None):
    t_max = max(len(s) for s in series)
    values = np.full((len(series), t_max, series[0].shape[1]), fill)
    for i, s in enumerate(series):
        values[i, : len(s)] = s
    return ds.TimeSeriesSet(values=values, lengths=[len(s) for s in series], labels=labels)


@settings(max_examples=60, deadline=None)
@given(series=_RAGGED, data=st.data())
def test_fingerprint_names_exactly_the_valid_values(series, data):
    tset = _padded(series)
    fp = tset.fingerprint()
    # padding contents and labels do not enter it
    fill = data.draw(st.floats(allow_nan=True, allow_infinity=True))
    labels = data.draw(st.lists(st.integers(-5, 5), min_size=len(series), max_size=len(series)))
    assert _padded(series, fill, labels).fingerprint() == fp
    # any valid value does
    i = data.draw(st.integers(0, len(series) - 1))
    t = data.draw(st.integers(0, len(series[i]) - 1))
    c = data.draw(st.integers(0, series[i].shape[1] - 1))
    changed = [s.copy() for s in series]
    changed[i][t, c] = data.draw(st.floats(-10, 10).filter(lambda v: v != series[i][t, c]))
    assert _padded(changed).fingerprint() != fp
    # so does a length, with the values kept
    lengths = tset.lengths.copy()
    lengths[i] += 1
    padded = np.concatenate([tset.values, np.zeros((tset.n, 1, tset.dims))], axis=1)
    assert ds.TimeSeriesSet(values=padded, lengths=lengths).fingerprint() != fp
    if tset.lengths[i] > 1:
        lengths[i] -= 2
        assert ds.TimeSeriesSet(values=tset.values, lengths=lengths).fingerprint() != fp
    # and so does D: one more channel, or the channels laid out along time
    wider = np.concatenate([tset.values, np.zeros((tset.n, tset.t_max, 1))], axis=2)
    assert ds.TimeSeriesSet(values=wider, lengths=tset.lengths).fingerprint() != fp
    if tset.dims > 1:
        flat = tset.values.reshape(tset.n, -1, 1)
        assert ds.TimeSeriesSet(values=flat, lengths=tset.lengths * tset.dims).fingerprint() != fp


_PACKAGE = Path(ds.__file__).parent


def _unguarded_writes(node, in_helper=False, in_with=False):
    """(line, call) of each file write under `node` that bypasses `whole_file`:
    an `open` for writing outside `whole_file` itself, or an np.save,
    np.savez or np.savetxt call outside a `with whole_file(...)` block."""
    if isinstance(node, ast.FunctionDef) and node.name == "whole_file":
        in_helper = True
    if isinstance(node, ast.With) and any(
            isinstance(item.context_expr, ast.Call)
            and ast.unparse(item.context_expr.func).split(".")[-1] == "whole_file"
            for item in node.items):
        in_with = True
    if isinstance(node, ast.Call):
        name = ast.unparse(node.func)
        if name == "open" and not in_helper:
            modes = node.args[1:2] + [k.value for k in node.keywords if k.arg == "mode"]
            if any(not isinstance(m, ast.Constant) or set(str(m.value)) & set("wax+")
                   for m in modes):
                yield node.lineno, name
        if name in ("np.save", "np.savez", "np.savetxt") and not in_with:
            yield node.lineno, name
    for child in ast.iter_child_nodes(node):
        yield from _unguarded_writes(child, in_helper, in_with)


def test_every_write_goes_through_whole_file():
    found = {path.name: list(_unguarded_writes(ast.parse(path.read_text())))
             for path in sorted(_PACKAGE.glob("*.py"))}
    assert {name: writes for name, writes in found.items() if writes} == {}
    # the guard itself flags each idiom it forbids, and nothing else
    source = """
def f(p, m):
    open(p, "w"); open(p, mode="ab"); open(p, "r+"); open(p, m); np.savez(p)
    open(p); open(p, "rb")
    with ds.whole_file(p, "wb") as fh:
        np.savez(fh); np.savetxt(fh, x)
    with open(p) as fh:
        np.savetxt(fh, x)
"""
    assert [line for line, _ in _unguarded_writes(ast.parse(source))] == [3] * 5 + [8]
