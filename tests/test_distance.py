import contextlib
import io
import json
import math
import re
import struct
import types
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from tscontrast import cli
from tscontrast import config as engine_config
from tscontrast import data as ds
from tscontrast import distance as dist
from tscontrast import evaluate as ev
from tscontrast import oracle
from tscontrast import train as tr


def test_dtw_matches_brute_force(rng):
    for _ in range(30):
        ta, tb = rng.integers(1, 7, size=2)
        d = int(rng.integers(1, 3))
        a = rng.normal(size=(ta, d))
        b = rng.normal(size=(tb, d))
        assert dist.dtw(a, b) == pytest.approx(oracle.brute_dtw(a, b), abs=1e-12)


def test_dtw_identity_and_symmetry(rng):
    a = rng.normal(size=(6, 2))
    b = rng.normal(size=(5, 2))
    assert dist.dtw(a, a) == pytest.approx(0.0, abs=1e-12)
    assert dist.dtw(a, b) == pytest.approx(dist.dtw(b, a))


def test_dtw_band_no_tighter_than_exact(rng):
    a = rng.normal(size=(8, 1))
    b = rng.normal(size=(8, 1))
    assert dist.dtw(a, b, band=1) >= dist.dtw(a, b) - 1e-12


_SHORT_SERIES = st.integers(1, 6).flatmap(
    lambda t: arrays(np.float64, (t, 1), elements=st.floats(-10, 10)))


@settings(max_examples=150, deadline=None)
@given(a=_SHORT_SERIES, b=_SHORT_SERIES, band=st.integers(0, 3))
@example(a=np.zeros((2, 1)), b=np.zeros((3, 1)), band=0)  # no path fits the band
def test_banded_dtw_matches_oracle(a, b, band):
    expected = oracle.brute_dtw(a, b, band=band)
    got = dist.dtw(a, b, band=band)
    if math.isinf(expected):
        assert math.isinf(got)
    else:
        assert got == pytest.approx(expected, abs=1e-9)


@settings(max_examples=150, deadline=None)
@given(a=_SHORT_SERIES, b=_SHORT_SERIES, band=st.none() | st.integers(0, 3))
def test_dp_oracle_matches_brute_force(a, b, band):
    # the scalar-DP oracle stands in for brute_dtw past length 6
    assert oracle.dp_dtw(a, b, band=band) == oracle.brute_dtw(a, b, band=band)


def test_dtw_rejects_negative_band():
    # pairwise checks its params before any work: a misspelt key is not ignored
    tset = _corpus()
    with pytest.raises(ValueError, match="unknown pairwise params: \\['bnad'\\]"):
        dist.pairwise(tset, "dtw", {"bnad": 2})
    # dtw and pairwise check the band alike, with no cast
    for band in (-1, math.nan, "2", True):
        message = re.escape(f"band must be None or a number >= 0, got {band!r}")
        with pytest.raises(ValueError, match=message):
            dist.dtw(np.zeros((4, 1)), np.zeros((4, 1)), band=band)
        with pytest.raises(ValueError, match=message):
            dist.pairwise(tset, "dtw", {"band": band})


# each metric with a valid value of a key it does not read
_FOREIGN_PARAMS = [(metric, key, value) for metric in dist.METRICS
                   for key, value in (("band", 3), ("radius", 7))
                   if key not in dist.METRIC_PARAMS.get(metric, ())]


@pytest.mark.parametrize("metric, key, value", _FOREIGN_PARAMS)
def test_pairwise_rejects_a_param_its_metric_does_not_read(metric, key, value):
    # a key of another metric used to be dropped without a word
    with pytest.raises(ValueError, match=re.escape(f"unknown pairwise params: ['{key}'] "
                                                   f"({metric} reads ")):
        dist.pairwise(_corpus(), metric, {key: value})


def test_fastdtw_exact_at_full_radius(rng):
    for _ in range(5):
        a = rng.normal(size=(30, 2))
        b = rng.normal(size=(24, 2))
        assert dist.fastdtw(a, b, radius=30) == dist.dtw(a, b)


def test_fastdtw_radius_validation():
    # fastdtw and pairwise take the radius as given, with no cast
    for radius in (0, 1.9, 2.0, "2", True, None):
        message = re.escape(f"radius must be an int >= 1, got {radius!r}")
        with pytest.raises(ValueError, match=message):
            dist.fastdtw(np.zeros((4, 1)), np.zeros((4, 1)), radius=radius)
        with pytest.raises(ValueError, match=message):
            dist.pairwise(_corpus(), "fastdtw", {"radius": radius})


def test_tam_properties(rng):
    a = rng.normal(size=(8, 1))
    assert dist.tam(a, a) == pytest.approx(0.0)
    b = rng.normal(size=(6, 1))
    value = dist.tam(a, b)
    assert 0.0 <= value <= 3.0
    # matches the path-proportion oracle on the same optimal path
    path, _ = oracle.dp_dtw_path(a, b)
    assert value == pytest.approx(oracle.tam_from_path(path, 8, 6))


def test_euclidean_and_cosine():
    a = np.array([[1.0], [0.0]])
    b = np.array([[0.0], [1.0]])
    # euc reads sqrt(2), 0, sqrt(2) and cos 1, 0, 1: both normalize to 1, 0, 1
    for metric in ("euc", "cos"):
        np.testing.assert_array_equal(dist.pairwise(_ragged_set([a, b, a]), metric).values,
                                      [[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])


def test_channel_mismatch_rejected():
    with pytest.raises(ValueError):
        dist.dtw(np.zeros((3, 1)), np.zeros((3, 2)))


def _with_nonzero_start(draw, shape):
    """A float array whose first cell is nonzero, so every prefix has nonzero norm."""
    x = draw(arrays(np.float64, shape, elements=st.floats(-10, 10)))
    x[0, 0] = draw(st.floats(0.5, 10) | st.floats(-10, -0.5))
    return x


def _corpus():
    return ds.znormalize(ds.make_synthetic(
        3, 16, [{"kind": "sine", "freq": 2.0}, {"kind": "square", "freq": 3.0}], seed=2))


@pytest.mark.parametrize("metric", dist.METRICS)
def test_pairwise_normalized(metric):
    tset = _corpus()
    m = dist.pairwise(tset, metric, {"radius": 2} if metric == "fastdtw" else None)
    assert m.values.min() >= 0.0 and m.values.max() <= 1.0
    assert np.all(np.diag(m.values) == 0.0)
    off = m.values[~np.eye(m.n, dtype=bool)]
    assert off.min() == pytest.approx(0.0)
    assert off.max() == pytest.approx(1.0)
    np.testing.assert_allclose(m.values, m.values.T)


def _ragged_set(series, fill=0.0):
    """The series padded to one array with `fill`, which no distance may read."""
    t_max = max(len(s) for s in series)
    values = np.full((len(series), t_max, series[0].shape[1]), fill)
    for i, s in enumerate(series):
        values[i, : len(s)] = s
    return ds.TimeSeriesSet(values=values, lengths=[len(s) for s in series])


def _normalized(raw):
    """The min-max normalization `pairwise` documents, applied to oracle values."""
    off = ~np.eye(raw.shape[0], dtype=bool)
    lo, hi = raw[off].min(), raw[off].max()
    out = (raw - lo) / (hi - lo) if hi > lo else np.zeros_like(raw)
    np.fill_diagonal(out, 0.0)
    return out


def _oracle_tam(a, b):
    path, _ = oracle.dp_dtw_path(a, b)
    return oracle.tam_from_path(path, len(a), len(b))


def _ragged_series(channels):
    return channels.flatmap(lambda d: st.lists(
        st.integers(1, 40).flatmap(
            lambda t: arrays(np.float64, (t, d), elements=st.floats(-10, 10))),
        min_size=3, max_size=5))


# 8 and 9 channels are past numpy's 8-way pairwise summation: a step cost must
# still add its channels left to right, as the oracle does
_RAGGED_SETS = _ragged_series(st.sampled_from([1, 2, 8, 9]))

# padding values that fail a test if they reach a cost: the suite turns the
# warnings of inf - inf and of squaring 1e300 into errors
_FILLS = st.sampled_from([0.0, math.nan, math.inf, -math.inf, 1e300])


@settings(max_examples=40, deadline=None)
@given(series=_RAGGED_SETS, band=st.integers(0, 6), fill=_FILLS,
       cap=st.sampled_from(["zero", "one pair", "default"]))
# band 0 on unequal lengths: the run's first row stays put, and no run meets
# the last cell (0, 3) of a 1 x 4 pair, whose slot still holds its (0, 0)
@example(series=[np.ones((1, 1)), np.arange(4.0)[:, None], np.zeros((4, 1))], band=0,
         fill=math.nan, cap="default")
# single-step series: (0, 0) reads the origin, a longer partner reads its slot again
@example(series=[np.ones((1, 1)), np.zeros((1, 1)), np.full((3, 1), 2.0)], band=0,
         fill=math.nan, cap="default")
def test_pairwise_matches_scalar_oracle_bit_for_bit(series, band, fill, cap):
    # a dtw pass keeps three diagonals in a ring of slots: a cell read from a
    # reused slot must be the one the whole table holds, whatever the pass size
    tset = _ragged_set(series, fill)
    longest, d = int(tset.lengths.max()), tset.dims
    cells = {"zero": 0, "one pair": dist._ring_cells(longest, longest, d),
             "default": dist._CHUNK_CELLS}[cap]
    cases = (("dtw", None, oracle.dp_dtw),
             ("dtw", {"band": band}, lambda a, b: oracle.dp_dtw(a, b, band=band)),
             ("tam", None, _oracle_tam))
    n = tset.n
    for metric, params, fn in cases:
        raw = np.zeros((n, n))
        for i in range(n):
            for j in range(i + 1, n):
                raw[i, j] = raw[j, i] = fn(series[i], series[j])
        with mock.patch.object(dist, "_CHUNK_CELLS", cells):
            bad = np.argwhere(~np.isfinite(raw))
            if bad.size:  # a band that admits no path for some pair
                i, j = bad[0].tolist()
                with pytest.raises(ValueError, match=f"series {i} and {j} .* not finite"):
                    dist.pairwise(tset, metric, params)
                continue
            got = dist.pairwise(tset, metric, params).values
        assert got.tobytes() == _normalized(raw).tobytes(), (metric, params, cap)


def _noise(seed, *lengths):
    """Seeded normal [t, 2] series, one per length."""
    rng = np.random.default_rng(seed)
    return [rng.normal(size=(t, 2)) for t in lengths]


@settings(max_examples=30, deadline=None)
@given(series=_ragged_series(st.integers(1, 3)), radius=st.integers(1, 3), fill=_FILLS)
# `_fastdtw_dp` fills the full table once either series has at most
# 2 * radius + 2 steps, the oracle only at radius + 2: one series and both at
# 2r+2 (the shortcut) and at 2r+3 (the first length that still recurses; on
# these seeds a full table there would change a pair's value)
@example(series=_noise(7, 4, 4, 5, 5, 13), radius=1, fill=0.0)
@example(series=_noise(16, 6, 6, 7, 7, 17), radius=2, fill=0.0)
@example(series=_noise(30, 8, 8, 9, 9, 21), radius=3, fill=math.nan)
def test_pairwise_fastdtw_matches_scalar_oracle_bit_for_bit(series, radius, fill):
    tset = _ragged_set(series, fill)
    n = tset.n
    raw = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            raw[i, j] = raw[j, i] = oracle.fastdtw(series[i], series[j], radius)
    got = dist.pairwise(tset, "fastdtw", {"radius": radius}).values
    assert got.tobytes() == _normalized(raw).tobytes()


@st.composite
def _dp_windows(draw):
    """A `_dp` call on any window: P pairs of [ta, D] and [tb, D] series whose
    row i fills columns lo[i]..hi[i], lo and hi each non-decreasing (a row
    with lo > hi is empty), per pair or shared as [ta] bounds, and each
    pair's own lengths la <= ta and lb <= tb."""
    p, ta, tb, d = (draw(st.integers(1, top)) for top in (4, 8, 8, 2))
    a, b = (draw(arrays(np.float64, (p, t, d), elements=st.floats(-10, 10))) for t in (ta, tb))
    windows = 1 if draw(st.booleans()) else p
    lo = np.sort(draw(arrays(np.int64, (windows, ta), elements=st.integers(0, tb))))
    hi = draw(arrays(np.int64, (windows, ta), elements=st.integers(-1, tb - 1)))
    # hi is drawn on its own or as a width past lo, so that many windows
    # connect (0, 0) to later rows, and others leave whole diagonals empty
    hi = np.maximum.accumulate(np.clip(hi + lo * draw(st.booleans()), 0, tb - 1), axis=1)
    la, lb = (np.array(draw(st.lists(st.integers(1, t), min_size=p, max_size=p))) for t in (ta, tb))
    return a, b, (lo[0], hi[0]) if windows == 1 else (lo, hi), la, lb


def _zero_window(tb, lo, hi, la, lb):
    """A `_dp_windows` draw of zero-valued series: every cell its window
    reaches from (0, 0) costs 0, and every other cell must stay inf."""
    lo, hi, la, lb = map(np.array, (lo, hi, la, lb))
    return np.zeros((len(la), lo.shape[-1], 1)), np.zeros((len(la), tb, 1)), (lo, hi), la, lb


@settings(max_examples=500, deadline=None)
@given(window=_dp_windows())
# the window leaves out (0, 0): the origin's 0, still in the slot that takes
# plane 3, must not reach (0, 2)
@example(window=_zero_window(3, [1], [2], [1], [3]))
# the run's first row advances to row 1 on diagonal 3: (0, 0)'s 0, still in
# that row of its slot, must not reach (1, 3)
@example(window=_zero_window(4, [0, 2], [0, 3], [2], [4]))
# no run meets the last cell (0, 3), which reads inf, not the 0 that (0, 0)
# left in its slot
@example(window=_zero_window(4, [0, 0], [1, 1], [1], [4]))
# every row is empty and the pairs' runs differ: i0 > i1 on diagonal 2
@example(window=_zero_window(3, [[3, 3], [3, 3]], [[0, 1], [0, 0]], [1, 1], [1, 1]))
def test_dp_matches_the_scalar_table_on_any_window(window):
    # both modes of the one DP, against the row-by-row table of each pair's
    # own prefixes: the ring's values and the whole table's cell of (la-1, lb-1)
    a, b, bounds, la, lb = window
    pairs = np.arange(len(a))
    lo, hi = (np.broadcast_to(x, a.shape[:2]) for x in bounds)
    expected = np.array([
        oracle._dp_table(a[p, :la[p]].tolist(), b[p, :lb[p]].tolist(),
                         lambda i, j: lo[p, i] <= j <= hi[p, i])[la[p] - 1][lb[p] - 1]
        for p in pairs])
    assert dist._dp(a, b, *bounds, (la, lb)).tobytes() == expected.tobytes()
    assert dist._dp(a, b, *bounds)[la + lb, la, pairs].tobytes() == expected.tobytes()


@st.composite
def _ragged_nonzero_sets(draw):
    d = draw(st.integers(1, 3))
    return [_with_nonzero_start(draw, (draw(st.integers(1, 40)), d))
            for _ in range(draw(st.integers(2, 8)))]


@settings(max_examples=60, deadline=None)
@given(series=_ragged_nonzero_sets(), fill=_FILLS)
def test_euc_and_cos_match_scalar_oracles_on_ragged_sets(series, fill):
    tset = _ragged_set(series, fill)
    n = tset.n
    for metric, expected in (("euc", oracle.euclidean_prefix), ("cos", oracle.cosine_prefix)):
        raw = np.zeros((n, n))
        for i in range(n):
            for j in range(i + 1, n):
                raw[i, j] = raw[j, i] = expected(series[i], series[j])
        off = raw[~np.eye(n, dtype=bool)]
        # min-max normalization divides the rounding error by the spread, so the
        # matrices are compared where the spread is far above it
        if n == 2 or off.max() - off.min() > 1e-2 * max(off.max(), 1.0):
            np.testing.assert_allclose(dist.pairwise(tset, metric).values, _normalized(raw),
                                       rtol=0, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(lengths=st.lists(st.integers(1, 12), min_size=2, max_size=5), band=st.integers(0, 2),
       seed=st.integers(0, 2 ** 32 - 1))
def test_pairwise_raises_exactly_when_a_band_admits_no_path(lengths, band, seed):
    rng = np.random.default_rng(seed)
    series = [rng.normal(size=(t, 1)) for t in lengths]
    infeasible = [(i, j) for i in range(len(series)) for j in range(i + 1, len(series))
                  if oracle.dp_dtw(series[i], series[j], band=band) == math.inf]
    tset = _ragged_set(series)
    if infeasible:
        i, j = infeasible[0]
        with pytest.raises(ValueError, match=f"series {i} and {j} "
                                             f"\\(lengths {lengths[i]} and {lengths[j]}\\)"):
            dist.pairwise(tset, "dtw", {"band": band})
    else:
        assert np.isfinite(dist.pairwise(tset, "dtw", {"band": band}).values).all()


def test_pairwise_names_pair_a_band_cannot_align():
    rng = np.random.default_rng(0)
    tset = _ragged_set([rng.normal(size=(t, 1)) for t in (6, 40, 40)])
    with pytest.raises(ValueError, match=r"series 0 and 1 \(lengths 6 and 40\) is not finite"):
        dist.pairwise(tset, "dtw", {"band": 0})


def test_pairwise_cos_names_zero_norm_series():
    values = np.random.default_rng(0).normal(size=(4, 8, 1))
    values[2] = 0.0
    tset = ds.TimeSeriesSet(values=values, lengths=[8, 8, 8, 8])
    with pytest.raises(ValueError, match=r"cos distance between series 0 and 2 "
                                         r"\(lengths 8 and 8\) is not finite"):
        dist.pairwise(tset, "cos")


@pytest.mark.parametrize("tables", [0, 1, 2])
def test_pairwise_chunking_keeps_values(monkeypatch, tables):
    rng = np.random.default_rng(4)
    lengths = [9, 9, 9, 9, 9, 12, 12, 12, 5]
    tset = _ragged_set([rng.normal(size=(t, 2)) for t in lengths])
    methods = (("dtw", None), ("dtw", {"band": 2}), ("fastdtw", {"radius": 1}), ("tam", None))
    whole = [dist.pairwise(tset, m, p).values for m, p in methods]
    # At the default cap the 36 pairs fit in a few passes: dtw and tam pad
    # pairs of nearby lengths to one length bucket, fastdtw keeps one length
    # pair per pass.  A cap of one (9, 9) table puts each of the 10 (9, 9)
    # pairs of tam and fastdtw in a pass of its own, a cap of two at most two
    # in one, while dtw's smaller rings take a few more; a cap of 0 is below
    # every pair, so each pass takes the one pair it must.
    monkeypatch.setattr(dist, "_CHUNK_CELLS", tables * dist._table_cells(9, 9))
    for (metric, params), before in zip(methods, whole):
        assert np.array_equal(dist.pairwise(tset, metric, params).values, before)


def _dp_calls(monkeypatch, tset, metric, params=None):
    """(a.shape, b.shape, lo.shape, hi.shape, whether it keeps a ring of three
    diagonals) of each `_dp` call of one `pairwise`."""
    calls, dp = [], dist._dp

    def spy(a, b, lo, hi, ends=None):
        calls.append((a.shape, b.shape, np.shape(lo), np.shape(hi), ends is not None))
        return dp(a, b, lo, hi, ends)

    with monkeypatch.context() as patch:
        patch.setattr(dist, "_dp", spy)
        dist.pairwise(tset, metric, params)
    return calls


def _own_cells(lengths):
    return sum(dist._table_cells(int(a), int(b))
               for i, a in enumerate(lengths) for b in lengths[i + 1:])


_BUCKETED_METHODS = [("dtw", None), ("dtw", {"band": 8}), ("tam", None)]


@pytest.mark.parametrize("metric, params", _BUCKETED_METHODS)
def test_equal_lengths_keep_the_chunks_of_exact_grouping(monkeypatch, metric, params):
    # 60 series of 64 steps, as the desk corpus: 1770 pairs of one length
    # pair, one band for all, and no padding.  A dtw pass holds 520 cells per
    # pair (its ring, its series copies and its cost buffer), so 504 pairs
    # under the cap; a tam pass holds whole tables, 31 per pass.
    tset = ds.TimeSeriesSet(values=np.random.default_rng(7).normal(size=(60, 64, 1)),
                            lengths=[64] * 60)
    ring = metric == "dtw"
    if ring:
        sizes = [504, 504, 504, 258]
    else:
        per_chunk = dist._CHUNK_CELLS // dist._table_cells(64, 64)
        sizes = [per_chunk] * (1770 // per_chunk) + [1770 % per_chunk]
    assert _dp_calls(monkeypatch, tset, metric, params) == [
        ((p, 64, 1), (p, 64, 1), (64,), (64,), ring) for p in sizes]


@pytest.mark.parametrize("metric, params", _BUCKETED_METHODS)
def test_length_buckets_pad_at_most_twice_their_own_cells(monkeypatch, metric, params):
    # one long series among short ones: its pairs must not pad the short ones
    lengths = [40] * 10 + [1000] + [40] * 10
    rng = np.random.default_rng(8)
    tset = _ragged_set([rng.normal(size=(t, 1)) for t in lengths], fill=math.nan)
    calls = _dp_calls(monkeypatch, tset, metric, params)
    padded = [a[0] * dist._table_cells(a[1], b[1]) for a, b, *_ in calls]
    assert sum(padded) <= 2 * _own_cells(lengths)
    # a pass stays under the cap unless it holds one pair: a dtw pass holds
    # at least its rings, a tam pass its whole tables
    held = [a[0] * (dist._ring_cells(a[1], b[1], 1) if ring else dist._table_cells(a[1], b[1]))
            for a, b, _, _, ring in calls]
    assert all(cells <= dist._CHUNK_CELLS or a[0] == 1 for cells, (a, *_) in zip(held, calls))


@pytest.mark.parametrize("metric, params", _BUCKETED_METHODS)
def test_ragged_pairs_share_tables(monkeypatch, metric, params):
    # the ragged-ucr slice: 28 pairs of 22 distinct length pairs
    lengths = [40, 67, 93, 120, 147, 40, 67, 93]
    assert len({(a, b) for i, a in enumerate(lengths) for b in lengths[i + 1:]}) == 22
    rng = np.random.default_rng(9)
    tset = _ragged_set([rng.normal(size=(t, 1)) for t in lengths])
    assert len(_dp_calls(monkeypatch, tset, metric, params)) < 22


@pytest.mark.parametrize("ragged", [False, True], ids=["60x64", "ragged"])
@pytest.mark.parametrize("params", [None, {"band": 8}, {"band": 100}])
def test_dtw_passes_hold_no_more_than_a_whole_table_pass(ragged, params, peak_bytes):
    # 31 whole 64 x 64 skewed tables, the most one pass of the 60 x 64 set
    # holds when it keeps every cell, peak at 2 273 742 bytes or more under
    # tracemalloc (numpy 2.4, Python 3.11); hundreds of pairs in rings of three
    # diagonals, and ragged pairs with bands of their own, stay below that
    rng = np.random.default_rng(7)
    if ragged:
        lengths = np.linspace(40, 160, 30).astype(int)
        tset = _ragged_set([rng.normal(size=(t, 1)) for t in lengths])
    else:
        tset = ds.TimeSeriesSet(values=rng.normal(size=(60, 64, 1)), lengths=[64] * 60)
    assert peak_bytes(lambda: dist.pairwise(tset, "dtw", params), warm_up=True) <= 2_273_000


def test_pairwise_logs_its_passes_at_debug_only(caplog):
    tset = ds.TimeSeriesSet(values=np.random.default_rng(3).normal(size=(12, 64, 1)),
                            lengths=[64] * 12)
    caplog.set_level("DEBUG", logger="tscontrast.distance")
    dist.pairwise(tset, "dtw")
    dist.pairwise(tset, "tam")
    # 66 pairs of 64 x 64 cells: one pass of rings, or whole tables 31 a pass
    assert {(r.name, r.levelname) for r in caplog.records} == {("tscontrast.distance", "DEBUG")}
    assert [r.getMessage() for r in caplog.records] == [
        "pairwise dtw: 66 pairs in 1 ring passes, 270336 padded cells",
        "pairwise tam: 66 pairs in 3 table passes, 270336 padded cells"]
    caplog.clear()
    caplog.set_level("INFO", logger="tscontrast.distance")
    dist.pairwise(tset, "dtw")
    assert not caplog.records


_TIED_SETS = st.lists(st.integers(1, 30).flatmap(
    lambda t: arrays(np.float64, (t, 1), elements=st.integers(-2, 2).map(float))),
    min_size=3, max_size=8)


@settings(max_examples=40, deadline=None)
@given(series=_TIED_SETS, fill=_FILLS)
# two single-step series are in phase, also in a bucket with longer pairs
@example(series=[np.ones((1, 1)), np.zeros((1, 1)), np.ones((2, 1)), np.zeros((2, 1))],
         fill=math.nan)
def test_ragged_tam_breaks_ties_as_the_oracle(series, fill):
    # integer values make equal predecessors, so each pair's walk must start
    # at its own last cell of the bucket's table and break ties as the oracle
    tset = _ragged_set(series, fill)
    n = tset.n
    raw = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            raw[i, j] = raw[j, i] = _oracle_tam(series[i], series[j])
    assert dist.pairwise(tset, "tam").values.tobytes() == _normalized(raw).tobytes()


def test_dtw_path_matches_scalar_oracle_on_long_series(rng):
    for _ in range(10):
        ta, tb = rng.integers(1, 61, size=2)
        a = rng.normal(size=(ta, 1))
        b = np.round(rng.normal(size=(tb, 1)))  # rounded values make ties
        # tam reads every step of the optimal path, so ties must break as the oracle's
        assert dist.tam(a, b) == _oracle_tam(a, b)


def test_pairwise_all_equal_distances():
    # two identical pairs of distinct series: off-diagonals are not all equal,
    # so construct a degenerate case directly
    values = np.zeros((3, 4, 1))
    values[0, :, 0] = [0, 1, 0, 1]
    values[1, :, 0] = [1, 0, 1, 0]
    values[2, :, 0] = [0, 1, 0, 1]
    tset = ds.TimeSeriesSet(values=values, lengths=[4, 4, 4])
    m = dist.pairwise(tset, "euc")
    assert m.values[0, 2] == 0.0  # identical series at distance zero


def test_pairwise_needs_two_series():
    tset = ds.TimeSeriesSet(values=np.zeros((1, 4, 1)), lengths=[4])
    with pytest.raises(ValueError):
        dist.pairwise(tset, "euc")


def test_matrix_cache_round_trip(tmp_path):
    tset = _corpus()
    m = dist.pairwise(tset, "dtw")
    path = tmp_path / "cache.bin"
    dist.save_matrix(m, path)
    back = dist.load_matrix(path)
    assert back.metric == "dtw"
    assert np.array_equal(back.values, m.values)  # bit-exact


# a TSDM v1 file that `save_matrix` wrote for the 4-series set below when the
# matrix still carried its normalized flag: header, then 16 float64 cells
_EARLIER_TSDM = bytes.fromhex(
    "5453444d01000164747700000000000400000000000000000000005ba6c571fc4ced3faf60edaae876e9"
    "3f2c682319ce71ea3f5ba6c571fc4ced3f0000000000000000e535f9ad76cbef3f000000000000f03faf"
    "60edaae876e93fe535f9ad76cbef3f000000000000000000000000000000002c682319ce71ea3f000000"
    "000000f03f00000000000000000000000000000000")


def test_matrix_file_from_before_the_flag_was_dropped_loads_equal(tmp_path):
    path = tmp_path / "earlier.bin"
    path.write_bytes(_EARLIER_TSDM)
    tset = ds.znormalize(ds.make_synthetic(
        2, 8, [{"kind": "sine", "freq": 1.0}, {"kind": "square", "freq": 2.0}],
        noise_std=0.1, seed=4))
    fresh = dist.pairwise(tset, "dtw")
    back = dist.load_matrix(path)
    assert back.metric == "dtw" and back.values.tobytes() == fresh.values.tobytes()
    dist.save_matrix(fresh, tmp_path / "now.bin")
    assert (tmp_path / "now.bin").read_bytes() == _EARLIER_TSDM  # the layout is unchanged


def _symmetric_matrix(n, seed=0):
    a = np.random.default_rng(seed).uniform(size=(n, n))
    a = (a + a.T) / 2
    np.fill_diagonal(a, 0.0)
    return dist.DistanceMatrix(a, "dtw")


def test_built_matrix_values_are_read_only(tmp_path):
    """A built or loaded matrix refuses writes, so no value can leave
    [0, 1] after the check (a write of 7.0 once gave `w_instance` a
    no_kernel weight of -6.0); the array it was built from is not copied
    and stays writable."""
    source = _symmetric_matrix(5).values.copy()
    m = dist.DistanceMatrix(source, "dtw")
    assert np.shares_memory(m.values, source) and source.flags.writeable
    dist.save_matrix(m, tmp_path / "m.bin")
    for matrix in (m, dist.load_matrix(tmp_path / "m.bin")):
        with pytest.raises(ValueError, match="read-only"):
            matrix.values[0, 1] = 7.0
        assert 0.0 <= matrix.values.min() and matrix.values.max() <= 1.0


def test_load_matrix_holds_one_copy_of_the_values(tmp_path, peak_bytes):
    """Read into the one [N, N] array it returns: at N = 1000 the peak stays
    near the 8 MB of values (26.1 MB when the file's bytes, their body slice
    and a copy were held at once)."""
    path = tmp_path / "m.bin"
    dist.save_matrix(_symmetric_matrix(1000), path)
    assert peak_bytes(lambda: dist.load_matrix(path), warm_up=True) <= 1.2 * 8 * 1000 * 1000


@pytest.mark.parametrize("change", ["short", "long", "huge-n"])
def test_load_matrix_refuses_a_body_of_the_wrong_size(tmp_path, change):
    path = tmp_path / "m.bin"
    dist.save_matrix(_symmetric_matrix(4), path)
    blob = path.read_bytes()
    n = 4
    if change == "short":
        blob = blob[:-1]
    elif change == "long":
        blob += b"\x00"
    else:  # a corrupt N is refused before anything of its size is allocated
        n = 2 ** 31
        blob = blob[:15] + struct.pack("<I", n) + blob[19:]
    path.write_bytes(blob)
    with pytest.raises(ValueError, match=re.escape(f"{path}: size mismatch for N={n}")):
        dist.load_matrix(path)


def test_matrix_cache_rejects_garbage(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(ValueError, match="not a distance cache"):
        dist.load_matrix(path)
    path.write_bytes(b"TS")
    with pytest.raises(ValueError, match="truncated"):
        dist.load_matrix(path)


def _writer_inputs(folder):
    """A config, a UCR TSV of `_corpus` and an untrained checkpoint in `folder`."""
    folder.mkdir()
    inputs = types.SimpleNamespace(cfg=folder / "config.json", tsv=folder / "data.tsv",
                                   ckpt=folder / "model.npz", side=folder)
    inputs.cfg.write_text(json.dumps({
        "dataset": {"synthetic": {"n_per_class": 3, "length": 16, "seed": 2, "classes": [
            {"kind": "sine", "freq": 2.0}, {"kind": "square", "freq": 3.0}]}},
        "distance": {"metric": "euc"},
        "train": {"iters": 2, "batch_size": 4, "hidden": 4, "repr_dims": 3, "depth": 1}}))
    ds.write_ucr_tsv(_corpus(), inputs.tsv)
    train_cfg = engine_config.load(inputs.cfg).train_config
    tr.save_checkpoint(tr.TrainState.fresh(train_cfg, 1), train_cfg, inputs.ckpt)
    return inputs


def _cli(*argv):
    """Run the CLI; a failed run raises an OSError holding its exit code and stderr."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = cli.main([str(a) for a in argv])
    if code:
        raise OSError(f"exit {code}: {err.getvalue()}")


# every file the package writes: writer(target, inputs) writes `target`, and
# any other output of the same command goes beside the inputs
_WRITERS = {
    "save_matrix": lambda t, i: dist.save_matrix(dist.pairwise(_corpus(), "euc"), t),
    "save_checkpoint": lambda t, i: tr.save_checkpoint(*tr.load_checkpoint(i.ckpt), t),
    "write_log_csv": lambda t, i: tr.write_log_csv(
        tr.pretrain(_corpus(), dist.pairwise(_corpus(), "euc"),
                    tr.TrainConfig(iters=2, hidden=4, depth=1))[1], t),
    "EvalReport.to_csv": lambda t, i: ev.EvalReport("classify", accuracy=0.5).to_csv(t),
    "write_ucr_tsv": lambda t, i: ds.write_ucr_tsv(_corpus(), t),
    "pretrain --out": lambda t, i: _cli("pretrain", "--config", i.cfg, "--out", t),
    "pretrain --log": lambda t, i: _cli("pretrain", "--config", i.cfg,
                                        "--out", i.side / "out.npz", "--log", t),
    "encode --out": lambda t, i: _cli("encode", "--ckpt", i.ckpt, "--data", i.tsv, "--out", t),
    "encode --full": lambda t, i: _cli("encode", "--ckpt", i.ckpt, "--data", i.tsv,
                                       "--out", i.side / "reps.csv", "--full", t),
    "evaluate --out": lambda t, i: _cli("evaluate", "--task", "classify",
                                        "--ckpt", i.ckpt, "--train-data", i.tsv,
                                        "--test-data", i.tsv, "--out", t),
    "evaluate --scores-out": lambda t, i: _cli("evaluate", "--task", "anomaly",
                                               "--ckpt", i.ckpt, "--data", i.tsv,
                                               "--scores-out", t),
    "ablate --out": lambda t, i: _cli("ablate", "--config", i.cfg, "--axis", "hierarchy",
                                      "--iters", 1, "--out", t),
    "distances --out": lambda t, i: _cli("distances", "--config", i.cfg, "--out", t),
    "distances --csv": lambda t, i: _cli("distances", "--config", i.cfg,
                                         "--out", i.side / "d.bin", "--csv", t),
}


@pytest.mark.parametrize("existed", [False, True])
@pytest.mark.parametrize("writer", _WRITERS)
def test_save_matrix_is_all_or_nothing(tmp_path, monkeypatch, full_disk_open, writer, existed):
    """Every writer, failing partway: the target is absent or as it was, and
    nothing else is left beside it."""
    inputs = _writer_inputs(tmp_path / "in")
    out = tmp_path / "out"
    out.mkdir()
    target = out / "artifact"
    write = _WRITERS[writer]
    if existed:
        write(target, inputs)
    before = target.read_bytes() if existed else None
    monkeypatch.setattr(ds, "open", lambda file, *args, **kwargs: (
        full_disk_open if str(file).startswith(str(target)) else open)(file, *args, **kwargs),
        raising=False)
    with pytest.raises(OSError, match="No space left"):
        write(target, inputs)
    assert list(out.iterdir()) == ([target] if existed else [])  # no stray file
    if existed:
        assert target.read_bytes() == before
        if writer in ("save_checkpoint", "pretrain --out"):
            tr.load_checkpoint(target)  # still a whole checkpoint


@pytest.mark.parametrize("defect", ["non-finite-value", "undecodable-tag", "unknown-tag",
                                    "out-of-range", "nonzero-diagonal", "asymmetric",
                                    "unnormalized-flag"])
def test_load_matrix_names_the_file_for_each_malformed_part(tmp_path, break_tsdm, defect):
    path = tmp_path / "m.bin"
    dist.save_matrix(dist.pairwise(_corpus(), "dtw"), path)
    message = break_tsdm(path, defect)
    with pytest.raises(ValueError, match=re.escape(f"{path}: {message}")):
        dist.load_matrix(path)

