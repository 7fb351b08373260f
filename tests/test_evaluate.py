import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tscontrast import autodiff as ad
from tscontrast import data as ds
from tscontrast import encoder as enc
from tscontrast import evaluate as ev
from tscontrast import oracle
from tscontrast.config import TrainConfig


def test_probe_separated_clusters(rng):
    train = np.vstack([rng.normal(0, 0.1, (10, 3)), rng.normal(5, 0.1, (10, 3))])
    labels = np.array([0] * 10 + [1] * 10)
    test = np.vstack([rng.normal(0, 0.1, (5, 3)), rng.normal(5, 0.1, (5, 3))])
    test_labels = np.array([0] * 5 + [1] * 5)
    report = ev.classify_probe(train, labels, test, test_labels)
    assert report.accuracy == 1.0
    assert report.per_class == {0: 5, 1: 5}


@st.composite
def _probe_case(draw):
    """Integer-valued representations on a small grid, so distances are exact
    and many tie; up to 4 labels."""
    dims = draw(st.integers(1, 3))
    n_train = draw(st.integers(1, 10))
    n_test = draw(st.integers(1, 4))
    grid = st.integers(-2, 2)
    train = draw(st.lists(st.lists(grid, min_size=dims, max_size=dims),
                          min_size=n_train, max_size=n_train))
    test = draw(st.lists(st.lists(grid, min_size=dims, max_size=dims),
                         min_size=n_test, max_size=n_test))
    labels = draw(st.lists(st.integers(0, 3), min_size=n_train, max_size=n_train))
    # blocks of one test row, of a few, or all rows in one
    cells = draw(st.sampled_from([1, n_train * dims * 2, ev.PROBE_CELLS]))
    return np.array(train, dtype=float), np.array(labels), np.array(test, dtype=float), cells


@settings(max_examples=300, deadline=None)
@given(_probe_case())
def test_probe_votes_like_the_oracle(case):
    train, labels, test, cells = case
    expected = np.array([oracle.nearest_label(train, labels, row) for row in test])
    with mock.patch.object(ev, "PROBE_CELLS", cells):
        report = ev.classify_probe(train, labels, test, expected)
    assert report.accuracy == 1.0  # every prediction is the oracle's label


def _criterion_7_reprs(depth):
    """Instance representations of the criterion-7 corpus under an untrained
    default encoder of `depth` blocks: [60, 16]."""
    tset = ds.znormalize(ds.make_synthetic(
        20, 64, [{"kind": "sine", "freq": 2.0}, {"kind": "square", "freq": 3.0},
                 {"kind": "sawtooth", "freq": 4.0}], noise_std=0.3, seed=7))
    model = enc.init_encoder(TrainConfig(depth=depth), 1, seed=0)
    return enc.instance_repr(enc.encode(model, tset.values)), tset.labels


@pytest.mark.parametrize("cells", [1, 16 * 30 * 7, 1 << 40], ids=["row", "rows", "unblocked"])
@pytest.mark.parametrize("depth", [1, 4])
def test_probe_blocks_keep_the_unblocked_report(cells, depth):
    reps, labels = _criterion_7_reprs(depth)
    args = (reps[::2], labels[::2], reps[1::2], labels[1::2])
    with mock.patch.object(ev, "PROBE_CELLS", 1 << 40):
        whole = ev.classify_probe(*args)
    with mock.patch.object(ev, "PROBE_CELLS", cells):
        assert ev.classify_probe(*args) == whole
    nearest = [oracle.nearest_label(reps[::2], labels[::2], row) for row in reps[1::2]]
    assert whole.accuracy == np.mean(np.array(nearest) == labels[1::2])


@pytest.mark.parametrize("n_test", [200, 2000])
def test_probe_memory_does_not_grow_with_the_test_rows(n_test, peak_bytes):
    # unblocked, the [n_test, 500, 16] differences alone were 12.8 and 128 MB
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(5)))
    train, test = rng.normal(size=(500, 16)), rng.normal(size=(n_test, 16))
    labels, test_labels = rng.integers(0, 5, 500), rng.integers(0, 5, n_test)
    peak = peak_bytes(lambda: ev.classify_probe(train, labels, test, test_labels))
    # a block's differences and their squares, plus what grows with n_test
    assert peak < 2.5 * 8 * ev.PROBE_CELLS


def test_probe_validation():
    train = np.zeros((3, 2))
    with pytest.raises(ValueError, match="labels must be nonempty"):
        ev.classify_probe(train, np.array([]), np.zeros((1, 2)), np.array([0]))


_THREE = np.arange(6.0).reshape(3, 2)


@pytest.mark.parametrize("args,message", [
    # unchecked, 3 train rows with 2 labels raised IndexError, and 3 test rows
    # with 1 label read as accuracy 0.6667 of n_test = 1
    ((_THREE, [0, 1], _THREE, [0, 1, 0]), "train labels must be one per train row, [3], got [2]"),
    ((_THREE, [0, 1, 0], _THREE, [0]), "test labels must be one per test row, [3], got [1]"),
    ((_THREE, [0, 1, 0], _THREE, [[0], [1], [0]]),
     "test labels must be one per test row, [3], got [3, 1]"),
    ((_THREE, [0, 1, 0], _THREE[:, :1], [0, 1, 0]),
     "representations must be [N, M] of one width, got train [3, 2] and test [3, 1]"),
    ((_THREE.ravel(), [0] * 6, _THREE, [0, 1, 0]),
     "representations must be [N, M] of one width, got train [6] and test [3, 2]"),
    ((_THREE, [0, 1, 0], _THREE[None], [0, 1, 0]),
     "representations must be [N, M] of one width, got train [3, 2] and test [1, 3, 2]"),
], ids=["train-labels", "test-labels", "2-d-labels", "widths", "1-d-train", "3-d-test"])
def test_probe_rejects_inputs_it_would_misread(args, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        ev.classify_probe(*args)


@pytest.mark.parametrize("where", ["train", "test"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_probe_names_the_first_non_finite_row(where, value):
    reprs = {"train": np.zeros((4, 2)), "test": np.zeros((4, 2))}
    reprs[where][2, 1] = value
    reprs[where][3, 0] = value
    with pytest.raises(ValueError, match=f"^{where} representation row 2 is not finite$"):
        ev.classify_probe(reprs["train"], [0, 1, 0, 1], reprs["test"], [0, 1, 0, 1])


def test_anomaly_scores_spike(rng):
    model = enc.init_encoder(TrainConfig(hidden=8, repr_dims=4, depth=2), 1, seed=0)
    series = rng.normal(0, 0.1, (32, 1))
    scores = ev.anomaly_scores(model, series)
    assert scores.shape == (32,)
    assert np.all(scores >= 0)
    flat = ev.anomaly_scores(model, series[:, 0])  # 1-D input accepted
    np.testing.assert_array_equal(scores, flat)
    with pytest.raises(ValueError):
        ev.anomaly_scores(model, np.zeros((2, 3, 4)))


def test_hiding_a_timestamp_moves_its_own_output(rng):
    model = enc.init_encoder(TrainConfig(hidden=8, repr_dims=4, depth=2), 2, seed=3)
    assert np.all(ev.anomaly_scores(model, rng.normal(size=(16, 2))) > 0)


@st.composite
def _scoring_case(draw, hidden=st.integers(1, 8)):
    """A random small encoder, its width drawn from `hidden`, and a series;
    lengths 1, R - 1, R and R + 1 (R the receptive radius), at which every
    cone is cut at both ends of the series, and one window (2R + 1) and one
    past it are drawn on purpose.  From depth
    5 (R = 62) on, the widest window (77 steps and more) is wider than most
    series, so most of its positions lie outside [0, L)."""
    depth = draw(st.integers(1, 6))
    radius = 2 * (2 ** depth - 1)
    length = draw(st.one_of(st.integers(0, 150),
                            st.sampled_from([1, radius - 1, radius, radius + 1,
                                             2 * radius + 1, 2 * radius + 2])))
    dims = draw(st.integers(1, 3))
    cfg = TrainConfig(hidden=draw(hidden), repr_dims=draw(st.integers(1, 4)), depth=depth)
    seed = draw(st.integers(0, 2 ** 16))
    series = np.random.Generator(np.random.Philox(seed)).normal(size=(length, dims))
    return enc.init_encoder(cfg, dims, seed=seed), series


@settings(max_examples=40, deadline=None)
@given(_scoring_case())
def test_anomaly_scores_match_the_oracle(case):
    model, series = case
    scores = ev.anomaly_scores(model, series)
    assert scores.shape == (series.shape[0],)
    np.testing.assert_allclose(scores, oracle.anomaly_scores(model, series),
                               rtol=1e-12, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(_scoring_case())
def test_weights_that_need_no_gradient_encode_and_score_alike_with_no_tape(case):
    """The same weight arrays, not marked as needing a gradient, give the
    same bits for `encode` and `anomaly_scores`, and `encode` keeps no tape."""
    marked, series = case
    plain = enc.EncoderModel({name: ad.Tensor(p.data) for name, p in marked.params.items()})
    batch = np.stack([series, series[::-1]])
    taped, untaped = enc.encode(marked, batch), enc.encode(plain, batch)
    assert taped._backward is not None
    assert untaped._parents == () and untaped._backward is None
    assert untaped.data.tobytes() == taped.data.tobytes()
    assert ev.anomaly_scores(plain, series).tobytes() == ev.anomaly_scores(marked, series).tobytes()


@st.composite
def _far_change(draw):
    """A random small encoder, a series, a timestamp t and the same series
    changed only outside [t - R, t + R]."""
    depth = draw(st.integers(1, 4))
    radius = 2 * (2 ** depth - 1)
    dims = draw(st.integers(1, 2))
    cfg = TrainConfig(hidden=draw(st.integers(1, 6)), repr_dims=draw(st.integers(1, 3)), depth=depth)
    length = draw(st.integers(1, 2 * radius + 40))
    t = draw(st.integers(0, length - 1))
    seed = draw(st.integers(0, 2 ** 16))
    rng = np.random.Generator(np.random.Philox(seed))
    series = rng.normal(size=(length, dims))
    changed = series.copy()
    far = np.abs(np.arange(length) - t) > radius
    changed[far] = rng.normal(scale=draw(st.sampled_from([0.1, 1.0, 10.0])),
                              size=(int(far.sum()), dims))
    return enc.init_encoder(cfg, dims, seed=seed), series, changed, t


@settings(max_examples=40, deadline=None)
@given(_far_change())
def test_anomaly_score_ignores_steps_past_the_receptive_radius(case):
    model, series, changed, t = case
    np.testing.assert_allclose(ev.anomaly_scores(model, changed)[t],
                               ev.anomaly_scores(model, series)[t], rtol=1e-12, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(_scoring_case(st.one_of(st.integers(1, 8), st.sampled_from([16, 32]))))
def test_anomaly_scores_do_not_depend_on_the_chunking(case):
    """The widest window holds 5 steps at depth 1 up to 157 at depth 6, so
    1 row makes one timestamp a chunk at every depth, 100 rows chunks of 20
    down to 2 timestamps up to depth 4, and 1000 rows chunks of 200 down to
    6 (58, 58 and 34 for 150 steps at depth 3).  The chunks then start at
    every position relative to both ends of the series, and the positions
    each zeroes outside [0, L) must leave every score's bits as they are in
    the default chunking.

    A chunk's cone GEMMs run over its n G gathered rows, so this holds where
    BLAS rounds a row alike in any product of two or more rows: hidden 1-8,
    ragged-ucr's 16 and the default 32 here.  OpenBLAS does not at every
    width: at 26, scores' last bits move with the chunk size."""
    model, series = case
    default = ev.anomaly_scores(model, series).tobytes()
    for rows in (1, 100, 1000):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ev, "WINDOW_ROWS", rows)
            assert ev.anomaly_scores(model, series).tobytes() == default, rows


def _spy_on_the_cone(monkeypatch):
    """Record the [B, L] of every same-length conv, and the [n, G] -> [n, K]
    (gather -> kept) shape and the tap slots of every cone stage."""
    plain, cone = [], []
    conv, stage = ad.conv1d_dilated, ev.cone_stage

    def counting_conv(x, kernel, dilation=1):
        plain.append(x.shape[:2])
        return conv(x, kernel, dilation)

    def counting_stage(model, windows, b, i, taps):
        out = stage(model, windows, b, i, taps)
        cone.append((windows.shape[:2], out.shape[:2], taps))
        return out

    monkeypatch.setattr(ad, "conv1d_dilated", counting_conv)
    monkeypatch.setattr(ev, "cone_stage", counting_stage)
    return plain, cone


@pytest.mark.parametrize("depth", [3, 4])
def test_anomaly_scores_convolve_at_most_half_of_full_windows(depth, monkeypatch):
    """Conv output positions computed during one scoring of a 128-step
    series (the plain pass's plus the cone's), against one plain encode plus
    a full window of min(L, 2R + 1) steps per timestamp."""
    plain, cone = _spy_on_the_cone(monkeypatch)
    model = enc.init_encoder(TrainConfig(hidden=4, repr_dims=2, depth=depth), 1)
    length, radius = 128, 2 * (2 ** depth - 1)
    ev.anomaly_scores(model, np.zeros((length, 1)))
    computed = sum(b * steps for b, steps in plain) + sum(n * kept for _, (n, kept), _ in cone)
    full_windows = 2 * depth * length * (1 + min(length, 2 * radius + 1))
    assert 0 < computed <= full_windows / 2, (computed, full_windows)


@pytest.mark.parametrize("depth, kept", [(3, 18), (4, 26)])
def test_anomaly_cone_computes_only_the_kept_positions(depth, kept, monkeypatch):
    """Per timestamp the cone computes 8 depth - 6 conv outputs (the offsets
    hiding t changes that still reach t), from gathers of exactly the rows
    their taps read: each tap reads K slots in increasing order, and every
    gathered row is read by some tap.  The only same-length convs are the
    plain pass's, one per stage.  Each chunk of timestamps runs every stage
    once, in order (a 128-step series is one chunk at both depths)."""
    plain, cone = _spy_on_the_cone(monkeypatch)
    model = enc.init_encoder(TrainConfig(hidden=4, repr_dims=2, depth=depth), 1)
    length, stages = 128, 2 * depth
    ev.anomaly_scores(model, np.zeros((length, 1)))
    assert plain == [(1, length)] * stages
    assert len(cone) == stages
    assert sum(n * k for _, (n, k), _ in cone) == kept * length
    for (n, width), (n_out, k), taps in cone:
        assert n == n_out == length
        assert len(taps) == enc.KERNEL_SIZE
        assert all(len(slots) == k and np.all(np.diff(slots) > 0) for slots in taps)
        assert np.array_equal(np.unique(np.concatenate(taps)), np.arange(width))


def _changed_and_reaching(model, series, t):
    """Per conv stage, in encoder order, the offsets from t of its output
    that hiding t changes, and of those that the output at t reads: from
    two plain passes and one backward pass, with no cone planning."""
    h = enc.project(model, series[None])
    hidden = h.data.copy()
    hidden[0, t] = 0.0
    outputs = []
    for stream in (h, hidden):
        blocks = []
        enc.residual_stream(model, stream, blocks)
        outputs.append([enc.conv_stage(model, x, b, i).data[0]
                        for b, (_, gelu_h, gelu_y1) in enumerate(blocks)
                        for i, x in ((1, gelu_h), (2, gelu_y1))])
    # the output at t weighted by nonzero weights, back to every stage: y1_b
    # through gelu(y1_b) (gelu' has one root), y2_b as h_{b+1} = h_b + y2_b.
    # backward frees every op output's adjoint, so the blocks run here with
    # a zero leaf added at gelu(y1_b) and at h_{b+1}: its grad is the adjoint there
    probes = []

    def probed(x):
        probes.append(ad.Tensor(np.zeros(x.shape), requires_grad=True))
        return ad.add(x, probes[-1])

    out = h
    for b in range(model.depth):
        gelu_y1 = probed(ad.gelu(enc.conv_stage(model, ad.gelu(out), b, 1)))
        out = probed(ad.add(out, enc.conv_stage(model, gelu_y1, b, 2)))
    assert out.data.tobytes() == enc.residual_stream(model, h).data.tobytes()
    repr_dims = model.params["out_w"].shape[1]
    weights = np.zeros(out.shape[:2] + (repr_dims,))
    weights[0, t] = np.random.default_rng(t).uniform(0.5, 1.5, repr_dims)
    ad.backward(ad.tsum(ad.mul(enc.readout(model, out), weights)))
    return [np.flatnonzero((plain != masked).any(axis=1) & (probe.grad[0] != 0).any(axis=1)) - t
            for plain, masked, probe in zip(*outputs, probes)]


@pytest.mark.parametrize("depth", [1, 2, 3, 4])
@pytest.mark.parametrize("seed", [0, 1])
def test_the_cone_is_what_hiding_t_changes_and_what_reaches_t(depth, seed):
    """t sits 2R from both ends, so no stage of its cone is cut by the
    series' ends."""
    radius = 2 * (2 ** depth - 1)
    model = enc.init_encoder(TrainConfig(hidden=6, repr_dims=3, depth=depth), 2, seed=seed)
    series = np.random.default_rng(seed).normal(size=(4 * radius + 1, 2))
    computed = [stage.gather.offsets[stage.taps[enc.KERNEL_SIZE // 2]]
                for block in ev._cone_plan(depth) for stage in block[:2]]
    expected = _changed_and_reaching(model, series, 2 * radius)
    assert [c.tolist() for c in computed] == [e.tolist() for e in expected]


@settings(max_examples=40, deadline=None)
@given(offsets=st.lists(st.integers(-8, 8), min_size=1, max_size=17, unique=True),
       n=st.integers(1, 5), hidden=st.integers(1, 8), b=st.integers(0, 2),
       i=st.sampled_from([1, 2]), seed=st.integers(0, 2 ** 16))
def test_cone_stage_equals_conv_stage_at_the_kept_offsets(offsets, n, hidden, b, i, seed):
    """Bit for bit, the outputs of `conv_stage` at any sorted set of offsets
    (one offset included) around n timestamps, from the rows its taps read
    gathered in order."""
    model = enc.init_encoder(TrainConfig(hidden=hidden, repr_dims=1, depth=3), 1, seed=seed)
    d = enc.dilation(b)
    kept = np.array(sorted(offsets))
    reads = kept[:, None] + d * (np.arange(enc.KERNEL_SIZE) - enc.KERNEL_SIZE // 2)
    gather = np.unique(reads)
    taps = tuple(np.searchsorted(gather, column) for column in reads.T)
    series = np.random.default_rng(seed).normal(size=(1, 40, hidden))
    at_t = 12 + np.arange(n)  # every read lies inside the 40 steps
    windows = series[0, at_t[:, None] + gather]
    full = enc.conv_stage(model, series, b, i).data[0]
    assert ev.cone_stage(model, windows, b, i, taps).tobytes() == \
        full[at_t[:, None] + kept].tobytes()


def test_anomaly_scores_check_the_series_width():
    model = enc.init_encoder(TrainConfig(hidden=4, repr_dims=2, depth=2), 2)
    for length in (9, 0):  # an empty series too, before its early return
        for width in (1, 5):
            with pytest.raises(ValueError, match=r"expected input \[B, L, 2\]"):
                ev.anomaly_scores(model, np.zeros((length, width)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_anomaly_scores_name_the_first_non_finite_timestamp(bad):
    model = enc.init_encoder(TrainConfig(hidden=4, repr_dims=2, depth=1), 2)
    series = np.zeros((5, 2))
    series[3, 1] = bad
    series[4, 0] = np.nan
    with pytest.raises(ValueError, match="timestamp 3 is not finite"):
        ev.anomaly_scores(model, series)
    with pytest.raises(ValueError, match="timestamp 1 is not finite"):
        ev.anomaly_scores(model, np.array([0.0, bad, 1.0]))
    assert ev.anomaly_scores(model, np.zeros((0, 2))).shape == (0,)


def test_anomaly_scores_log_one_record_at_debug_only(caplog):
    model = enc.init_encoder(TrainConfig(hidden=4, repr_dims=2, depth=3), 1)
    caplog.set_level("DEBUG", logger="tscontrast.evaluate")
    ev.anomaly_scores(model, np.zeros((128, 1)))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ev, "WINDOW_ROWS", 100)  # 14 timestamps a chunk: the gathers hold 7 rows
        ev.anomaly_scores(model, np.zeros((128, 1)))
    assert {(r.name, r.levelname) for r in caplog.records} == {("tscontrast.evaluate", "DEBUG")}
    assert [r.getMessage() for r in caplog.records] == [
        "anomaly_scores: 128 steps in 1 chunks, 18 cone positions per timestamp",
        "anomaly_scores: 128 steps in 10 chunks, 18 cone positions per timestamp"]
    caplog.clear()
    caplog.set_level("INFO", logger="tscontrast.evaluate")
    ev.anomaly_scores(model, np.zeros((128, 1)))
    assert not caplog.records


def test_anomaly_scores_compute_no_debug_record_when_debug_is_off(caplog, monkeypatch):
    def no_record(*args):
        raise AssertionError("anomaly_scores built a DEBUG record with DEBUG off")

    model = enc.init_encoder(TrainConfig(hidden=4, repr_dims=2, depth=3), 1)
    caplog.set_level("INFO", logger="tscontrast.evaluate")
    monkeypatch.setattr(ev._log, "debug", no_record)
    assert ev.anomaly_scores(model, np.zeros((16, 1))).shape == (16,)


def test_anomaly_scores_memory_stays_near_one_encode(rng, peak_bytes):
    """Depth 4 gives 61-step windows; all 4096 of them in one batch would
    take ~60x the memory of one encode of the series."""
    model = enc.init_encoder(TrainConfig(hidden=8, repr_dims=4, depth=4), 1)
    series = rng.normal(size=(4096, 1))
    one_encode = peak_bytes(lambda: enc.encode(model, series[None]))
    scoring = peak_bytes(lambda: ev.anomaly_scores(model, series))
    assert scoring <= 4 * one_encode, (scoring, one_encode)


def test_threshold_anomalies():
    scores = np.array([1.0, 1.0, 1.0, 10.0, 1.0])
    flags, report = ev.threshold_anomalies(scores, c=1.0)
    assert list(flags) == [False, False, False, True, False]
    labels = np.array([0, 0, 0, 1, 0], dtype=bool)
    flags, report = ev.threshold_anomalies(scores, labels=labels, c=1.0)
    assert report.f1 == 1.0 and report.precision == 1.0 and report.recall == 1.0
    assert report.per_class == {"tp": 1, "fp": 0, "fn": 0}
    with pytest.raises(ValueError):
        ev.threshold_anomalies(np.array([]), c=1.0)
    with pytest.raises(ValueError):
        ev.threshold_anomalies(scores, labels=labels[:3], c=1.0)
    for value in (np.nan, np.inf, -np.inf):  # a NaN threshold once read F1 0.0
        bad = np.array([1.0, value, 1.0, value])
        with pytest.raises(ValueError, match=rf"^anomaly score at timestamp 1 is not finite: "
                                             rf"{re.escape(str(value))}$"):
            ev.threshold_anomalies(bad, labels=labels[:4], c=1.0)


@pytest.mark.parametrize("scores,c", [([1e308, 1e308, -1e308, 1e308], 3.0),
                                      ([0.0, 10.0, 0.0, 10.0], 1e308)],
                         ids=["overflowing-scores", "overflowing-c"])
def test_threshold_anomalies_rejects_a_threshold_that_overflows(scores, c):
    # finite scores whose mean or stdev overflows once gave threshold=inf and F1 0.0
    scores = np.array(scores)
    message = (rf"^anomaly threshold mean \+ c \* stdev is not finite \((?:inf|nan)\) for scores in "
               rf"\[{re.escape(str(scores.min()))}, {re.escape(str(scores.max()))}\] "
               rf"with c={re.escape(str(c))}$")
    with pytest.raises(ValueError, match=message):
        ev.threshold_anomalies(scores, c=c)


def test_report_text_and_csv(tmp_path):
    report = ev.EvalReport(task="classify", accuracy=0.95, config={"k": 1})
    text = report.to_text()
    assert "accuracy: 0.9500" in text and "k=1" in text
    path = tmp_path / "report.csv"
    report.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0].split(",")[:2] == ["task", "accuracy"]
    assert lines[1].split(",")[0] == "classify"
