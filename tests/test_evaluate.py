import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tscontrast import encoder as enc
from tscontrast import evaluate as ev
from tscontrast import oracle


def test_probe_separated_clusters(rng):
    train = np.vstack([rng.normal(0, 0.1, (10, 3)), rng.normal(5, 0.1, (10, 3))])
    labels = np.array([0] * 10 + [1] * 10)
    test = np.vstack([rng.normal(0, 0.1, (5, 3)), rng.normal(5, 0.1, (5, 3))])
    test_labels = np.array([0] * 5 + [1] * 5)
    report = ev.classify_probe(train, labels, test, test_labels, k=3)
    assert report.accuracy == 1.0
    assert report.per_class == {0: 5, 1: 5}


def test_probe_tie_breaks_to_nearest():
    train = np.array([[0.0], [1.0]])
    labels = np.array([7, 9])
    report = ev.classify_probe(train, labels, np.array([[0.2]]), np.array([7]), k=2)
    assert report.accuracy == 1.0  # tie between labels 7 and 9 -> nearest wins


@st.composite
def _probe_case(draw):
    """Integer-valued representations on a small grid, so distances are exact
    and many tie; up to 4 labels and any k."""
    dims = draw(st.integers(1, 3))
    n_train = draw(st.integers(1, 10))
    n_test = draw(st.integers(1, 4))
    grid = st.integers(-2, 2)
    train = draw(st.lists(st.lists(grid, min_size=dims, max_size=dims),
                          min_size=n_train, max_size=n_train))
    test = draw(st.lists(st.lists(grid, min_size=dims, max_size=dims),
                         min_size=n_test, max_size=n_test))
    labels = draw(st.lists(st.integers(0, 3), min_size=n_train, max_size=n_train))
    k = draw(st.integers(1, n_train))
    return np.array(train, dtype=float), np.array(labels), np.array(test, dtype=float), k


@settings(max_examples=300, deadline=None)
@given(_probe_case())
def test_probe_votes_like_the_oracle(case):
    train, labels, test, k = case
    expected = np.array([oracle.knn_vote(train, labels, row, k) for row in test])
    report = ev.classify_probe(train, labels, test, expected, k=k)
    assert report.accuracy == 1.0  # every prediction is the oracle's label


def test_probe_validation():
    train = np.zeros((3, 2))
    labels = np.array([0, 1, 0])
    with pytest.raises(ValueError):
        ev.classify_probe(train, labels, np.zeros((1, 2)), np.array([0]), k=4)
    with pytest.raises(ValueError):
        ev.classify_probe(train, np.array([]), np.zeros((1, 2)), np.array([0]))


def test_anomaly_scores_spike(rng):
    model = enc.init_encoder(
        enc.EncoderConfig(input_dims=1, hidden=8, output_dims=4, depth=2), seed=0)
    series = rng.normal(0, 0.1, (32, 1))
    scores = ev.anomaly_scores(model, series)
    assert scores.shape == (32,)
    assert np.all(scores >= 0)
    flat = ev.anomaly_scores(model, series[:, 0])  # 1-D input accepted
    np.testing.assert_array_equal(scores, flat)
    with pytest.raises(ValueError):
        ev.anomaly_scores(model, np.zeros((2, 3, 4)))


def test_threshold_anomalies():
    scores = np.array([1.0, 1.0, 1.0, 10.0, 1.0])
    flags, report = ev.threshold_anomalies(scores, c=1.0)
    assert list(flags) == [False, False, False, True, False]
    labels = np.array([0, 0, 0, 1, 0], dtype=bool)
    flags, report = ev.threshold_anomalies(scores, labels=labels, c=1.0)
    assert report.f1 == 1.0 and report.precision == 1.0 and report.recall == 1.0
    assert report.per_class == {"tp": 1, "fp": 0, "fn": 0}
    with pytest.raises(ValueError):
        ev.threshold_anomalies(np.array([]))
    with pytest.raises(ValueError):
        ev.threshold_anomalies(scores, labels=labels[:3])


def test_report_text_and_csv(tmp_path):
    report = ev.EvalReport(task="classify", accuracy=0.95, config={"k": 1})
    text = report.to_text()
    assert "accuracy: 0.9500" in text and "k=1" in text
    path = tmp_path / "report.csv"
    report.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0].split(",")[:2] == ["task", "accuracy"]
    assert lines[1].split(",")[0] == "classify"
