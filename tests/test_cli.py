import gc
import json
import re
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tscontrast import cli
from tscontrast import config as engine_config
from tscontrast import data as ds
from tscontrast import distance as dist
from tscontrast import encoder as enc
from tscontrast import evaluate as ev
from tscontrast import train as tr


def _config(tmp_path, **overrides):
    raw = {
        "dataset": {"synthetic": {
            "n_per_class": 3, "length": 16, "seed": 2, "noise_std": 0.1,
            "classes": [{"kind": "sine", "freq": 2.0}, {"kind": "square", "freq": 3.0}],
        }},
        "distance": {"metric": "euc"},
        "train": {"iters": 2, "batch_size": 4, "hidden": 6, "repr_dims": 3, "depth": 2},
    }
    raw.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    return str(path)


def test_usage_error_exit_code():
    assert cli.main(["no-such-command"]) == 1
    assert cli.main(["pretrain"]) == 1  # missing required flags


# the params each metric reads, at their defaults
_METRIC_PARAMS = {"dtw": {"band": None}, "fastdtw": {"radius": 1}}


def _cache_file(cache, tset, metric="euc", **params):
    """The cache entry of a metric and the params it reads, as in `dtw-band8.0`."""
    name = "".join(f"-{k}{v}" for k, v in {**_METRIC_PARAMS.get(metric, {}), **params}.items())
    return cache / f"{metric}{name}-{tset.fingerprint()}.bin"


def _dataset():
    """The z-normalized set `_config` describes."""
    return ds.znormalize(ds.make_synthetic(
        3, 16, [{"kind": "sine", "freq": 2.0}, {"kind": "square", "freq": 3.0}],
        noise_std=0.1, seed=2))


def test_distances_cache_and_stats(tmp_path, capsys, caplog):
    cache = tmp_path / "cache"
    cfg = _config(tmp_path, distance={"metric": "euc", "cache": str(cache)})
    out = tmp_path / "dist.bin"
    entry = _cache_file(cache, _dataset())
    caplog.set_level("INFO", logger="tscontrast.cli")
    assert cli.main(["distances", "--config", cfg, "--out", str(out),
                     "--csv", str(tmp_path / "dist.csv")]) == 0
    assert capsys.readouterr().out.startswith("metric=euc")
    assert [r.getMessage() for r in caplog.records] == [
        f"distance cache miss: {entry} (no such file)"]
    first = out.read_bytes()
    out.unlink()
    caplog.clear()
    assert cli.main(["distances", "--config", cfg, "--out", str(out)]) == 0
    assert "cache" not in capsys.readouterr().out  # stdout holds only the result
    assert [r.getMessage() for r in caplog.records] == [f"distance cache hit: {entry}"]
    assert out.read_bytes() == first  # --out is written on a hit too
    grid = np.loadtxt(tmp_path / "dist.csv", delimiter=",")
    assert grid.shape == (6, 6)


def test_distances_metric_mismatch(tmp_path, capsys):
    # a matrix is filed under its metric: a second metric misses and is computed
    cache = tmp_path / "cache"
    out = tmp_path / "dist.bin"
    for metric in ("euc", "dtw"):
        cfg = _config(tmp_path, distance={"metric": metric, "cache": str(cache)})
        assert cli.main(["distances", "--config", cfg, "--out", str(out)]) == 0
        fresh = dist.pairwise(_dataset(), metric)
        assert dist.load_matrix(out).metric == metric
        assert out.read_bytes() == _cache_file(cache, _dataset(), metric).read_bytes()
        assert dist.load_matrix(out).values.tobytes() == fresh.values.tobytes()
    assert len(list(cache.iterdir())) == 2


def _capture_matrices(monkeypatch):
    """The matrices the CLI goes on to use, in order."""
    used, real = [], cli._distance_matrix

    def capture(cfg, tset):
        used.append(real(cfg, tset))
        return used[-1]

    monkeypatch.setattr(cli, "_distance_matrix", capture)
    return used


# the (distance, dataset.synthetic) settings of two runs that differ in one input
_CHANGED_INPUT = {
    "data": [({"metric": "dtw"}, {"seed": 0}), ({"metric": "dtw"}, {"seed": 1})],
    "band": [({"metric": "dtw"}, {}), ({"metric": "dtw", "band": 0.1}, {})],
    "radius": [({"metric": "fastdtw", "radius": 1}, {}), ({"metric": "fastdtw", "radius": 3}, {})],
}


@pytest.mark.parametrize("command", ["distances", "pretrain"])
@pytest.mark.parametrize("changed", sorted(_CHANGED_INPUT))
def test_cache_serves_only_the_matrix_of_the_same_inputs(tmp_path, capsys, monkeypatch,
                                                         command, changed):
    cache, out = tmp_path / "cache", tmp_path / "out"
    used = _capture_matrices(monkeypatch)
    fresh = []
    for distance, data in _CHANGED_INPUT[changed]:
        synthetic = {"n_per_class": 3, "length": 16, "noise_std": 0.1,
                     "classes": [{"kind": "sine", "freq": 2.0}, {"kind": "square", "freq": 3.0}],
                     **data}
        cfg = _config(tmp_path, dataset={"synthetic": synthetic},
                      distance={**distance, "cache": str(cache)})
        assert cli.main([command, "--config", cfg, "--out", str(out)]) == 0
        params = {key: value for key, value in distance.items() if key != "metric"}
        fresh.append(dist.pairwise(ds.znormalize(ds.make_synthetic(**synthetic)),
                                   distance["metric"], params))
        assert used[-1].values.tobytes() == fresh[-1].values.tobytes()
        if command == "distances":  # --out is rewritten and its stats are the new matrix's
            dist.save_matrix(fresh[-1], tmp_path / "fresh.bin")
            assert out.read_bytes() == (tmp_path / "fresh.bin").read_bytes()
            off = fresh[-1].values[~np.eye(fresh[-1].n, dtype=bool)]
            assert f"mean={off.mean():.6f}" in capsys.readouterr().out
    assert not np.array_equal(fresh[0].values, fresh[1].values)  # the input matters
    assert len(list(cache.iterdir())) == 2


@pytest.mark.parametrize("metric,unread", [("euc", {"band": 3}), ("euc", {"radius": 4}),
                                           ("dtw", {"radius": 4}), ("fastdtw", {"band": 3})])
def test_a_param_the_metric_does_not_read_keeps_the_cache_hit(tmp_path, capsys, monkeypatch,
                                                              metric, unread):
    cache = tmp_path / "cache"
    calls = _count_pairwise(monkeypatch)
    outputs = []
    for distance in ({"metric": metric}, {"metric": metric, **unread}):
        cfg = _config(tmp_path, distance={**distance, "cache": str(cache)})
        assert cli.main(["distances", "--config", cfg, "--out", str(tmp_path / "d.bin")]) == 0
        outputs.append((tmp_path / "d.bin").read_bytes())
    assert calls == [metric] and outputs[0] == outputs[1]
    assert list(cache.iterdir()) == [_cache_file(cache, _dataset(), metric)]


# settings retired from config files, each at the one value the code runs with;
# settings in the retired `assignment` and `loss` sections, which held
# TrainConfig fields before `train` held them all; and the retired `eval`
# section's `anomaly_c`, now `evaluate --anomaly-c`, at that flag's default
@pytest.mark.parametrize("section,key,value", [
    ("assignment", "kernel_sigma", 0.5), ("assignment", "gaussian_std", 1.0),
    ("assignment", "neighbor_window_frac", 0.3), ("loss", "temperature", 1.0),
    ("eval", "probe_k", 1), ("assignment", "alpha", 0.5), ("loss", "lambda", 0.5),
    ("eval", "anomaly_c", 3.0)])
def test_a_retired_key_is_an_unknown_key(tmp_path, capsys, section, key, value):
    cache, out = tmp_path / "cache", tmp_path / "d.bin"
    path = _config(tmp_path, distance={"metric": "euc", "cache": str(cache)},
                   **{section: {key: value}})
    message = (f"{path}: unknown keys in '{section}': ['{key}']"
               if section in engine_config.DEFAULTS
               else f"{path}: unknown keys in 'config': ['{section}']")
    with pytest.raises(ValueError) as error:
        engine_config.load(path)
    assert str(error.value) == message
    assert cli.main(["distances", "--config", path, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists() and not cache.exists()


@pytest.mark.parametrize("command", ["distances", "pretrain"])
def test_repeat_run_is_a_cache_hit(tmp_path, capsys, monkeypatch, command):
    cache = tmp_path / "cache"
    cfg = _config(tmp_path, distance={"metric": "dtw", "cache": str(cache)})
    calls = _count_pairwise(monkeypatch)
    outputs = []
    for run in range(2):
        out = tmp_path / f"run{run}.out"
        assert cli.main([command, "--config", cfg, "--out", str(out)]) == 0
        outputs.append(out.read_bytes())
    assert calls == ["dtw"]
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("command", [["distances", "--out"], ["pretrain", "--out"],
                                     ["ablate", "--axis", "metric", "--out"]],
                         ids=["distances", "pretrain", "ablate"])
def test_cache_file_from_before_directories_is_rejected(tmp_path, capsys, monkeypatch, command):
    cache = tmp_path / "dist.bin"
    dist.save_matrix(dist.pairwise(_dataset(), "euc"), cache)
    before = cache.read_bytes()
    calls = _count_pairwise(monkeypatch)
    cfg = _config(tmp_path, distance={"metric": "euc", "cache": str(cache)})
    out = tmp_path / "out"
    assert cli.main([command[0], "--config", cfg, *command[1:], str(out)]) == 2
    assert f"distance.cache {cache} must be a directory" in capsys.readouterr().err
    assert calls == [] and cache.read_bytes() == before and not out.exists()


def test_interrupted_cache_write_leaves_no_entry(tmp_path, capsys, monkeypatch, full_disk_open):
    cache, out = tmp_path / "cache", tmp_path / "d.bin"
    cfg = _config(tmp_path, distance={"metric": "euc", "cache": str(cache)})
    with monkeypatch.context() as patched:
        patched.setattr(ds, "open", full_disk_open, raising=False)
        assert cli.main(["distances", "--config", cfg, "--out", str(out)]) == 2
    assert "No space left" in capsys.readouterr().err
    assert list(cache.iterdir()) == [] and not out.exists()
    # the rerun misses the cache, computes the matrix and files it
    assert cli.main(["distances", "--config", cfg, "--out", str(out)]) == 0
    dist.save_matrix(dist.pairwise(_dataset(), "euc"), tmp_path / "fresh.bin")
    fresh = (tmp_path / "fresh.bin").read_bytes()
    assert _cache_file(cache, _dataset()).read_bytes() == fresh == out.read_bytes()
    assert len(list(cache.iterdir())) == 1


@pytest.mark.parametrize("defect", ["non-finite-value", "undecodable-tag", "unknown-tag",
                                    "out-of-range", "earlier-version"])
def test_malformed_cache_entry_exits_2_naming_it(tmp_path, capsys, break_tsdm, defect):
    cache = tmp_path / "cache"
    cache.mkdir()
    entry = _cache_file(cache, _dataset())
    dist.save_matrix(dist.pairwise(_dataset(), "euc"), entry)
    message = break_tsdm(entry, defect)
    cfg = _config(tmp_path, distance={"metric": "euc", "cache": str(cache)})
    ckpt = tmp_path / "model.npz"
    assert cli.main(["pretrain", "--config", cfg, "--out", str(ckpt)]) == 2
    assert f"{entry}: {message}" in capsys.readouterr().err
    assert not ckpt.exists()


def test_config_unknown_key_rejected(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"train": {"learning_rate": 0.1}}))
    assert cli.main(["distances", "--config", str(path),
                     "--out", str(tmp_path / "d.bin")]) == 2
    assert "unknown keys" in capsys.readouterr().err


def test_echo_config_round_trips(tmp_path, capsys):
    cfg = _config(tmp_path)
    assert cli.main(["distances", "--config", cfg, "--out", str(tmp_path / "d.bin"),
                     "--echo-config"]) == 0
    out = capsys.readouterr().out
    echoed = json.loads(out[: out.index("}\n}") + 3])
    reparsed = engine_config.validate(echoed)
    assert reparsed.effective() == echoed


def test_echoed_train_section_is_the_checkpoint_train_config(tmp_path, capsys):
    # one JSON form: what pretrain echoes is what its checkpoint stores
    ckpt = tmp_path / "model.npz"
    assert cli.main(["pretrain", "--config", _config(tmp_path), "--out", str(ckpt),
                     "--lambda", "0.25", "--echo-config"]) == 0
    out = capsys.readouterr().out
    echoed = json.loads(out[: out.index("}\n}") + 3])
    with np.load(ckpt) as blob:
        meta = json.loads(bytes(blob["meta"]).decode())
    assert echoed["train"] == meta["train_config"]
    assert echoed["train"]["lam"] == 0.25 and echoed["train"]["iters"] == 2


def test_pretrain_encode_evaluate_pipeline(tmp_path, capsys):
    cfg = _config(tmp_path)
    ckpt = str(tmp_path / "model.npz")
    log = str(tmp_path / "log.csv")
    assert cli.main(["pretrain", "--config", cfg, "--out", ckpt, "--log", log]) == 0
    assert (tmp_path / "log.csv").exists()

    tset = ds.make_synthetic(
        3, 16, [{"kind": "sine", "freq": 2.0}, {"kind": "square", "freq": 3.0}],
        noise_std=0.1, seed=2)
    tsv = tmp_path / "data.tsv"
    relabeled = ds.TimeSeriesSet(values=tset.values, lengths=tset.lengths, labels=tset.labels)
    ds.write_ucr_tsv(relabeled, tsv)

    reps_csv = str(tmp_path / "reps.csv")
    full = str(tmp_path / "full.npz")
    assert cli.main(["encode", "--ckpt", ckpt, "--data", str(tsv),
                     "--out", reps_csv, "--full", full]) == 0
    inst = np.loadtxt(reps_csv, delimiter=",")
    assert inst.shape == (6, 3)
    with np.load(full) as blob:
        np.testing.assert_allclose(blob["reps"].max(axis=1), inst)

    report_csv = str(tmp_path / "report.csv")
    assert cli.main(["evaluate", "--task", "classify", "--ckpt", ckpt,
                     "--train-data", str(tsv), "--test-data", str(tsv),
                     "--out", report_csv]) == 0
    out = capsys.readouterr().out
    assert "accuracy" in out
    assert (tmp_path / "report.csv").exists()


def test_outputs_written_at_exact_paths(tmp_path, capsys):
    # np.savez used to append ".npz", so `encode --ckpt model` found no file
    cfg = _config(tmp_path)
    ckpt = tmp_path / "model"
    assert cli.main(["pretrain", "--config", cfg, "--out", str(ckpt)]) == 0
    assert ckpt.exists() and not (tmp_path / "model.npz").exists()
    assert f"checkpoint -> {ckpt}" in capsys.readouterr().out

    tset = ds.make_synthetic(
        3, 16, [{"kind": "sine", "freq": 2.0}, {"kind": "square", "freq": 3.0}],
        noise_std=0.1, seed=2)
    tsv = tmp_path / "data.tsv"
    ds.write_ucr_tsv(tset, tsv)
    full = tmp_path / "reps"
    assert cli.main(["encode", "--ckpt", str(ckpt), "--data", str(tsv),
                     "--out", str(tmp_path / "reps.csv"), "--full", str(full)]) == 0
    assert full.exists() and not (tmp_path / "reps.npz").exists()
    with np.load(full) as blob:
        assert blob["reps"].shape[:2] == (6, 16)


def test_evaluate_anomaly(tmp_path, capsys):
    cfg = _config(tmp_path)
    ckpt = str(tmp_path / "model.npz")
    assert cli.main(["pretrain", "--config", cfg, "--out", ckpt]) == 0
    tset = ds.make_synthetic(1, 32, [{"kind": "sine", "freq": 2.0}], seed=3)
    tsv = tmp_path / "series.tsv"
    ds.write_ucr_tsv(tset, tsv)
    labels = tmp_path / "labels.csv"
    np.savetxt(labels, np.zeros(32), delimiter=",")
    scores_out = tmp_path / "scores.csv"
    assert cli.main(["evaluate", "--task", "anomaly", "--ckpt", ckpt,
                     "--data", str(tsv), "--labels", str(labels),
                     "--scores-out", str(scores_out)]) == 0
    assert "task: anomaly" in capsys.readouterr().out
    assert np.loadtxt(scores_out, delimiter=",").shape == (32,)


def test_evaluate_anomaly_with_a_non_finite_score_writes_nothing(tmp_path, capsys, monkeypatch):
    tset = ds.make_synthetic(1, 16, [{"kind": "sine", "freq": 2.0}], seed=3)
    tsv = tmp_path / "series.tsv"
    ds.write_ucr_tsv(tset, tsv)
    train_cfg = tr.TrainConfig(hidden=6, repr_dims=3, depth=2)
    ckpt = tmp_path / "model.npz"
    tr.save_checkpoint(tr.TrainState.fresh(train_cfg, tset.dims), train_cfg, ckpt)
    # what a model whose activations overflow scores
    monkeypatch.setattr(cli.ev, "anomaly_scores",
                        lambda model, series: np.where(np.arange(16) >= 5, np.nan, 1.0))
    scores_out, out = tmp_path / "scores.csv", tmp_path / "report.csv"
    assert cli.main(["evaluate", "--task", "anomaly",
                     "--ckpt", str(ckpt), "--data", str(tsv),
                     "--scores-out", str(scores_out), "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: anomaly score at timestamp 5 is not finite: nan\n"
    assert not scores_out.exists() and not out.exists()


def test_evaluate_anomaly_with_an_overflowing_threshold_exits_2(tmp_path, capsys, monkeypatch):
    tset = ds.make_synthetic(1, 16, [{"kind": "sine", "freq": 2.0}], seed=3)
    tsv = tmp_path / "series.tsv"
    ds.write_ucr_tsv(tset, tsv)
    train_cfg = tr.TrainConfig(hidden=6, repr_dims=3, depth=2)
    ckpt = tmp_path / "model.npz"
    tr.save_checkpoint(tr.TrainState.fresh(train_cfg, tset.dims), train_cfg, ckpt)
    # finite scores whose mean and stdev overflow float64
    monkeypatch.setattr(cli.ev, "anomaly_scores",
                        lambda model, series: np.where(np.arange(16) % 2, 1e308, -1e308))
    out = tmp_path / "report.csv"
    assert cli.main(["evaluate", "--task", "anomaly",
                     "--ckpt", str(ckpt), "--data", str(tsv), "--out", str(out)]) == 2
    assert re.fullmatch(r"error: anomaly threshold mean \+ c \* stdev is not finite \((?:inf|nan)\) "
                        r"for scores in \[-1e\+308, 1e\+308\] with c=3\.0\n",
                        capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("axis,expected_rows", [
    ("alpha", 4), ("assignment", 8), ("metric", 4), ("hierarchy", 2),
])
def test_ablate_row_counts(tmp_path, capsys, axis, expected_rows):
    cfg = _config(tmp_path)
    out = tmp_path / f"ablate_{axis}.csv"
    assert cli.main(["ablate", "--config", cfg, "--axis", axis, "--out", str(out)]) == 0
    rows = out.read_text().strip().splitlines()
    assert rows[0] == "axis,value,final_loss,probe_accuracy"
    assert len(rows) == 1 + expected_rows


def _count_pairwise(monkeypatch):
    calls, real = [], dist.pairwise

    def counted(tset, metric, params=None):
        calls.append(metric)
        return real(tset, metric, params)

    monkeypatch.setattr(cli.dist_mod, "pairwise", counted)
    return calls


def test_ablate_metric_axis_with_cache(tmp_path, capsys, monkeypatch):
    cache = tmp_path / "cache"
    cfg = _config(tmp_path, distance={"metric": "euc", "cache": str(cache)})
    calls = _count_pairwise(monkeypatch)
    sweeps = []
    for run in range(2):
        out = tmp_path / f"ablate{run}.csv"
        assert cli.main(["ablate", "--config", cfg, "--axis", "metric", "--out", str(out)]) == 0
        sweeps.append(out.read_text())
        assert sorted(calls) == sorted(cli.METRIC_GRID)  # the rerun computes none
    assert len(sweeps[0].strip().splitlines()) == 1 + 4
    assert sweeps[0] == sweeps[1]
    assert sorted(cache.iterdir()) == sorted(
        _cache_file(cache, _dataset(), metric) for metric in cli.METRIC_GRID)


def test_ablate_metric_axis_gives_each_metric_only_its_own_params(tmp_path, capsys,
                                                                  monkeypatch):
    # the config's band is dtw's alone: the cos, euc and tam rows still run
    calls, real = [], dist.pairwise

    def spy(tset, metric, params=None):
        calls.append((metric, params))
        return real(tset, metric, params)

    monkeypatch.setattr(cli.dist_mod, "pairwise", spy)
    cfg = _config(tmp_path, distance={"metric": "dtw", "band": 8})
    out = tmp_path / "ablate.csv"
    assert cli.main(["ablate", "--config", cfg, "--axis", "metric", "--out", str(out)]) == 0
    assert len(out.read_text().strip().splitlines()) == 1 + len(cli.METRIC_GRID)
    assert sorted(calls) == sorted((metric, {"band": 8} if metric == "dtw" else {})
                                   for metric in cli.METRIC_GRID)


def test_ablate_computes_shared_matrix_once(tmp_path, capsys, monkeypatch):
    calls = _count_pairwise(monkeypatch)
    out = tmp_path / "ablate.csv"
    assert cli.main(["ablate", "--config", _config(tmp_path), "--axis", "assignment",
                     "--out", str(out)]) == 0
    assert len(out.read_text().strip().splitlines()) == 1 + 8
    assert calls == ["euc"]


def test_ablate_holds_one_distance_matrix_at_a_time(tmp_path, capsys, monkeypatch):
    # the metric axis once kept all four N x N matrices until the sweep ended
    seen, real = [], tr.pretrain

    def spy(tset, dm, cfg, state=None):
        seen.append(weakref.ref(dm))
        gc.collect()
        assert [ref() is not None for ref in seen] == [False] * (len(seen) - 1) + [True]
        return real(tset, dm, cfg, state=state)

    monkeypatch.setattr(cli.tr, "pretrain", spy)
    out = tmp_path / "ablate.csv"
    assert cli.main(["ablate", "--config", _config(tmp_path), "--axis", "metric",
                     "--out", str(out)]) == 0
    assert len(seen) == len(cli.METRIC_GRID)


def test_config_rejects_negative_band(tmp_path, capsys):
    cfg = _config(tmp_path, distance={"metric": "dtw", "band": -1})
    assert cli.main(["distances", "--config", cfg, "--out", str(tmp_path / "d.bin")]) == 2
    assert "band" in capsys.readouterr().err


def test_distances_band_without_path_exits_2_and_writes_no_cache(tmp_path, capsys):
    rng = np.random.default_rng(0)
    values = np.zeros((3, 40, 1))
    values[:, :, 0] = rng.normal(size=(3, 40))
    tsv = tmp_path / "ragged.tsv"
    ds.write_ucr_tsv(ds.TimeSeriesSet(values=values, lengths=[6, 40, 40], labels=[0, 1, 1]), tsv)
    cfg = _config(tmp_path, dataset={"path": str(tsv)}, distance={"metric": "dtw", "band": 0})
    out = tmp_path / "d.bin"
    assert cli.main(["distances", "--config", cfg, "--out", str(out)]) == 2
    assert "series 0 and 1 (lengths 6 and 40)" in capsys.readouterr().err
    assert not out.exists()


def test_distances_label_past_int64_exits_2(tmp_path, capsys):
    tsv = tmp_path / "big.tsv"
    tsv.write_text("1e20\t0.5\t1.0\t0.25\t2.0\n1\t1.0\t0.5\t2.0\t0.25\n")
    cfg = _config(tmp_path, dataset={"path": str(tsv)})
    assert cli.main(["distances", "--config", cfg, "--out", str(tmp_path / "d.bin")]) == 2
    assert capsys.readouterr().err == f"error: {tsv}:1: label out of range\n"


def test_csv_export_matches_binary(tmp_path, capsys):
    cfg = _config(tmp_path)
    out = str(tmp_path / "dist.bin")
    csv_out = tmp_path / "dist.csv"
    assert cli.main(["distances", "--config", cfg, "--out", out, "--csv", str(csv_out)]) == 0
    binary = dist.load_matrix(out).values
    text = np.loadtxt(csv_out, delimiter=",")
    assert np.abs(binary - text).max() < 1e-9


def test_encode_missing_checkpoint(tmp_path, capsys):
    assert cli.main(["encode", "--ckpt", str(tmp_path / "nope.npz"),
                     "--data", str(tmp_path / "nope.tsv"),
                     "--out", str(tmp_path / "reps.csv")]) == 2


def test_evaluate_unknown_task():
    assert cli.main(["evaluate", "--task", "cluster", "--ckpt", "x.npz"]) == 1


def test_pretrain_lambda_one(tmp_path, capsys):
    cfg = _config(tmp_path)
    ckpt = str(tmp_path / "model.npz")
    assert cli.main(["pretrain", "--config", cfg, "--out", ckpt, "--lambda", "1.0"]) == 0
    import json as _json
    with np.load(ckpt) as blob:
        meta = _json.loads(bytes(blob["meta"]).decode())
    assert meta["train_config"]["lam"] == 1.0


def test_seed_flag_overrides_file(tmp_path, capsys):
    cfg = _config(tmp_path)
    ckpt_a = str(tmp_path / "a.npz")
    ckpt_b = str(tmp_path / "b.npz")
    ckpt_c = str(tmp_path / "c.npz")
    assert cli.main(["pretrain", "--config", cfg, "--out", ckpt_a]) == 0
    assert cli.main(["pretrain", "--config", cfg, "--out", ckpt_b, "--seed", "9"]) == 0
    assert cli.main(["pretrain", "--config", cfg, "--out", ckpt_c, "--seed", "9"]) == 0
    with np.load(ckpt_a) as a, np.load(ckpt_b) as b, np.load(ckpt_c) as c:
        key = "param"  # every weight, flat
        assert not np.array_equal(a[key], b[key])
        assert np.array_equal(b[key], c[key])


@pytest.mark.parametrize("command", [["distances", "--config", "config.json", "--out", "d.bin",
                                      "--seed", "1"],
                                     ["evaluate", "--task", "classify", "--ckpt", "x.npz",
                                      "--train-data", "a.tsv", "--test-data", "b.tsv",
                                      "--lambda", "0.3"]], ids=["distances", "evaluate"])
def test_training_flags_belong_to_training_commands(tmp_path, monkeypatch, capsys, command):
    # neither command reads the train section
    monkeypatch.chdir(tmp_path)
    _config(tmp_path)
    assert cli.main(command) == 1
    assert f"unrecognized arguments: {' '.join(command[-2:])}" in capsys.readouterr().err


@pytest.mark.parametrize("index", [6, 99, -1])
def test_evaluate_anomaly_series_index_out_of_range(tmp_path, capsys, index):
    tset = ds.make_synthetic(6, 16, [{"kind": "sine", "freq": 2.0}], seed=3)
    tsv = tmp_path / "series.tsv"
    ds.write_ucr_tsv(tset, tsv)
    train_cfg = tr.TrainConfig(hidden=6, repr_dims=3, depth=2)
    ckpt = tmp_path / "model.npz"
    tr.save_checkpoint(tr.TrainState.fresh(train_cfg, tset.dims), train_cfg, ckpt)
    assert cli.main(["evaluate", "--task", "anomaly",
                     "--ckpt", str(ckpt), "--data", str(tsv),
                     "--series-index", str(index)]) == 2
    assert f"--series-index {index} is out of range for 6 series" in capsys.readouterr().err


@pytest.mark.parametrize("bad", ["nan", "0.5", "2", "-1"])
def test_evaluate_anomaly_labels_must_be_0_or_1(tmp_path, capsys, bad):
    tset = ds.make_synthetic(1, 16, [{"kind": "sine", "freq": 2.0}], seed=3)
    tsv = tmp_path / "series.tsv"
    ds.write_ucr_tsv(tset, tsv)
    train_cfg = tr.TrainConfig(hidden=6, repr_dims=3, depth=2)
    ckpt = tmp_path / "model.npz"
    tr.save_checkpoint(tr.TrainState.fresh(train_cfg, tset.dims), train_cfg, ckpt)
    labels = tmp_path / "labels.csv"
    labels.write_text("\n".join(["0", "1", bad, "3"] + ["0"] * 12) + "\n")
    report = tmp_path / "report.csv"
    assert cli.main(["evaluate", "--task", "anomaly",
                     "--ckpt", str(ckpt), "--data", str(tsv), "--labels", str(labels),
                     "--out", str(report)]) == 2
    assert f"{labels}: anomaly labels must be 0 or 1, found {bad}" in capsys.readouterr().err
    assert not report.exists()


def test_evaluate_anomaly_labels_must_be_utf_8(tmp_path, capsys):
    # the error named no file, and the decoding followed the locale
    tset = ds.make_synthetic(1, 16, [{"kind": "sine", "freq": 2.0}], seed=3)
    tsv = tmp_path / "series.tsv"
    ds.write_ucr_tsv(tset, tsv)
    train_cfg = tr.TrainConfig(hidden=6, repr_dims=3, depth=2)
    ckpt = tmp_path / "model.npz"
    tr.save_checkpoint(tr.TrainState.fresh(train_cfg, tset.dims), train_cfg, ckpt)
    labels = tmp_path / "labels.csv"
    labels.write_bytes(b"\xff\xfe" + b"0\n" * 16)
    report = tmp_path / "report.csv"
    assert cli.main(["evaluate", "--task", "anomaly",
                     "--ckpt", str(ckpt), "--data", str(tsv), "--labels", str(labels),
                     "--out", str(report)]) == 2
    assert capsys.readouterr().err == (
        f"error: {labels}: 'utf-8' codec can't decode byte 0xff in position 0: "
        "invalid start byte\n")
    assert not report.exists()


def test_evaluate_anomaly_labels_must_count_the_timestamps(tmp_path, capsys):
    tset = ds.make_synthetic(1, 32, [{"kind": "sine", "freq": 2.0}], seed=3)
    tsv = tmp_path / "series.tsv"
    ds.write_ucr_tsv(tset, tsv)
    train_cfg = tr.TrainConfig(hidden=6, repr_dims=3, depth=2)
    ckpt = tmp_path / "model.npz"
    tr.save_checkpoint(tr.TrainState.fresh(train_cfg, tset.dims), train_cfg, ckpt)
    labels = tmp_path / "labels.csv"
    labels.write_text("0\n1\n0\n")
    report = tmp_path / "report.csv"
    assert cli.main(["evaluate", "--task", "anomaly",
                     "--ckpt", str(ckpt), "--data", str(tsv), "--labels", str(labels),
                     "--out", str(report)]) == 2
    assert f"{labels}: 3 anomaly labels for a series of 32 timestamps" in capsys.readouterr().err
    assert not report.exists()


def test_evaluate_anomaly_empty_labels_file_prints_only_the_error(tmp_path, capsys):
    tset = ds.make_synthetic(1, 32, [{"kind": "sine", "freq": 2.0}], seed=3)
    tsv = tmp_path / "series.tsv"
    ds.write_ucr_tsv(tset, tsv)
    train_cfg = tr.TrainConfig(hidden=6, repr_dims=3, depth=2)
    ckpt = tmp_path / "model.npz"
    tr.save_checkpoint(tr.TrainState.fresh(train_cfg, tset.dims), train_cfg, ckpt)
    labels = tmp_path / "labels.csv"
    labels.write_text("")
    assert cli.main(["evaluate", "--task", "anomaly",
                     "--ckpt", str(ckpt), "--data", str(tsv), "--labels", str(labels)]) == 2
    assert capsys.readouterr().err == (
        f"error: {labels}: 0 anomaly labels for a series of 32 timestamps\n")


@pytest.mark.parametrize("text, message", [
    ("0\n1\nabc\n" + "0\n" * 5, "line 3: cannot read 'abc' as an anomaly label"),
    ("0\n1,0\n" + "0\n" * 6, "line 2 holds 2 values, not one anomaly label"),
    ("0,1\n1,0\n0,0\n1,1\n", "line 1 holds 2 values, not one anomaly label"),
], ids=["unreadable-cell", "two-values-on-a-line", "4x2-for-8-steps"])
def test_evaluate_anomaly_labels_file_errors_name_the_file_and_line(tmp_path, capsys,
                                                                   text, message):
    tset = ds.make_synthetic(1, 8, [{"kind": "sine", "freq": 2.0}], seed=3)
    tsv = tmp_path / "series.tsv"
    ds.write_ucr_tsv(tset, tsv)
    train_cfg = tr.TrainConfig(hidden=6, repr_dims=3, depth=2)
    ckpt = tmp_path / "model.npz"
    tr.save_checkpoint(tr.TrainState.fresh(train_cfg, tset.dims), train_cfg, ckpt)
    labels = tmp_path / "labels.csv"
    labels.write_text(text)
    assert cli.main(["evaluate", "--task", "anomaly",
                     "--ckpt", str(ckpt), "--data", str(tsv), "--labels", str(labels)]) == 2
    assert capsys.readouterr().err == f"error: {labels}: {message}\n"


@st.composite
def _ragged_set(draw):
    """A small random encoder and a zero-padded set of 2-6 series of lengths 4-80."""
    lengths = draw(st.lists(st.integers(4, 80), min_size=2, max_size=6))
    seed = draw(st.integers(0, 2 ** 16))
    rng = np.random.Generator(np.random.Philox(seed))
    values = np.zeros((len(lengths), max(lengths), 1))
    for i, length in enumerate(lengths):
        values[i, :length] = rng.normal(size=(length, 1))
    cfg = tr.TrainConfig(hidden=draw(st.integers(1, 6)), repr_dims=draw(st.integers(1, 4)),
                         depth=draw(st.integers(1, 3)))
    return enc.init_encoder(cfg, 1, seed=seed), ds.TimeSeriesSet(values, lengths)


@settings(max_examples=30, deadline=None)
@given(_ragged_set())
def test_instance_reprs_do_not_depend_on_the_rest_of_the_set(case):
    model, tset = case
    alone = [enc.instance_repr(enc.encode(model, tset.series(i)[None]))[0] for i in range(tset.n)]
    np.testing.assert_allclose(cli._encode_by_length(model, tset)[0], alone, rtol=0, atol=1e-12)


def test_encode_full_holds_each_series_as_if_alone_and_0_past_its_length(tmp_path, capsys):
    ckpt = str(tmp_path / "model.npz")
    assert cli.main(["pretrain", "--config", _config(tmp_path), "--out", ckpt]) == 0
    rng = np.random.Generator(np.random.Philox(4))
    lengths = [30, 9, 60, 30, 17]
    values = np.zeros((len(lengths), max(lengths), 1))
    for i, length in enumerate(lengths):
        values[i, :length] = rng.normal(size=(length, 1))
    tsv = tmp_path / "ragged.tsv"
    ds.write_ucr_tsv(ds.TimeSeriesSet(values, lengths), tsv)
    reps_csv, full = tmp_path / "reps.csv", tmp_path / "full.npz"
    assert cli.main(["encode", "--ckpt", ckpt, "--data", str(tsv), "--out", str(reps_csv),
                     "--full", str(full)]) == 0
    state, _ = tr.load_checkpoint(ckpt)
    tset = ds.znormalize(ds.load_ucr_tsv(tsv))
    inst = np.loadtxt(reps_csv, delimiter=",")
    with np.load(full) as blob:
        reps = blob["reps"]
    assert reps.shape == (5, 60, 3)
    for i, length in enumerate(lengths):
        alone = enc.encode(state.model, tset.series(i)[None]).data[0]
        np.testing.assert_allclose(reps[i, :length], alone, rtol=0, atol=1e-12)
        assert not reps[i, length:].any()
        np.testing.assert_allclose(inst[i], alone.max(axis=0), rtol=0, atol=1e-12)


# an integer past float range, where a number is due: float() of it overflows
_HUGE = 10 ** 400


@pytest.mark.parametrize("key,value", [("noise_std", -0.5), ("noise_std", float("nan")),
                                       ("noise_std", True), ("seed", -1), ("seed", True),
                                       ("classes", [{"kind": "sine", "freq": 1e308}]),
                                       pytest.param("noise_std", _HUGE, id="noise_std-huge")])
def test_bad_synthetic_noise_or_seed_exits_2_naming_it(tmp_path, capsys, key, value):
    synthetic = {"n_per_class": 3, "length": 16, "seed": 2, "noise_std": 0.1,
                 "classes": [{"kind": "sine", "freq": 2.0}], key: value}
    out = tmp_path / "d.bin"
    cfg = _config(tmp_path, dataset={"synthetic": synthetic})
    assert cli.main(["distances", "--config", cfg, "--out", str(out)]) == 2
    assert key in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("n_per_class", [_HUGE, ds.MAX_SYNTHETIC_CELLS // 16 + 1],
                         ids=["huge", "just-over"])
def test_an_oversized_synthetic_corpus_exits_2_naming_n_per_class(tmp_path, capsys, peak_bytes,
                                                                    n_per_class):
    """One sine class of length 16: the corpus is rejected before it is built."""
    synthetic = {"n_per_class": n_per_class, "length": 16,
                 "classes": [{"kind": "sine", "freq": 2.0}]}
    out = tmp_path / "d.bin"
    cfg = _config(tmp_path, dataset={"synthetic": synthetic})
    codes = []
    assert peak_bytes(lambda: codes.append(
        cli.main(["distances", "--config", cfg, "--out", str(out)]))) < 2 ** 20
    assert codes == [2]
    assert "n_per_class" in capsys.readouterr().err
    assert not out.exists()


# `assignment` and `loss` label the TrainConfig fields that set the soft
# assignment and the loss; like every TrainConfig field, they sit in `train`
@pytest.mark.parametrize("section,key,value,names_key", [
    ("loss", "lam", 1.5, True),
    ("train", "mask_mode", "bogus", False),
    ("train", "depth", 0, True),
    ("train", "batch_size", 1, True),
    ("train", "iters", None, True),
    ("loss", "hard", "false", True),
    ("assignment", "tau_temp", float("nan"), True),  # json writes and reads NaN
    ("assignment", "tau_inst", float("inf"), True),
    pytest.param("loss", "lam", _HUGE, True, id="loss-lam-huge-True"),
    pytest.param("distance", "band", _HUGE, True, id="distance-band-huge-True"),
])
def test_bad_config_fails_before_any_work(tmp_path, capsys, section, key, value, names_key):
    cache = tmp_path / "dist.bin"
    sections = {
        "distance": {"metric": "euc", "cache": str(cache)},
        "train": {"iters": 2, "batch_size": 4, "hidden": 6, "repr_dims": 3, "depth": 2},
    }
    where = section if section in engine_config.DEFAULTS else "train"
    sections.setdefault(where, {})[key] = value
    ckpt = tmp_path / "model.npz"
    assert cli.main(["pretrain", "--config", _config(tmp_path, **sections),
                     "--out", str(ckpt)]) == 2
    err = capsys.readouterr().err
    assert not cache.exists() and not ckpt.exists()
    if names_key:
        assert f"{where}.{key}" in err


@pytest.mark.parametrize("command", [["pretrain", "--out"], ["ablate", "--axis", "alpha", "--out"]],
                         ids=["pretrain", "ablate"])
def test_short_series_fail_before_the_distance_matrix(tmp_path, capsys, command):
    tset = ds.make_synthetic(2, 16, [{"kind": "sine", "freq": 2.0}, {"kind": "square", "freq": 3.0}],
                             seed=2)
    lengths = tset.lengths.copy()
    lengths[1] = ds.MIN_CROP_LENGTH - 1
    tsv = tmp_path / "short.tsv"
    ds.write_ucr_tsv(ds.TimeSeriesSet(tset.values, lengths, tset.labels), tsv)
    cache = tmp_path / "dist.bin"
    out = tmp_path / "out"
    cfg = _config(tmp_path, dataset={"path": str(tsv)},
                  distance={"metric": "dtw", "cache": str(cache)})
    assert cli.main([command[0], "--config", cfg, *command[1:], str(out)]) == 2
    err = capsys.readouterr().err
    assert f"length >= {ds.MIN_CROP_LENGTH}" in err and "shortest has 3" in err
    assert not cache.exists() and not out.exists()


def test_series_too_large_to_normalize_exits_2_naming_it(tmp_path, capsys):
    # finite cells, so the loader takes them, but the stdev overflows
    tset = ds.make_synthetic(2, 16, [{"kind": "sine", "freq": 2.0}], seed=2)
    values = tset.values.copy()
    values[1, :, 0] = np.resize([1e300, -1e300], 16)
    tsv = tmp_path / "huge.tsv"
    ds.write_ucr_tsv(ds.TimeSeriesSet(values, tset.lengths, tset.labels), tsv)
    out = tmp_path / "model.npz"
    cfg = _config(tmp_path, dataset={"path": str(tsv)})
    assert cli.main(["pretrain", "--config", cfg, "--out", str(out)]) == 2
    assert "series 1: mean or stdev is not finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("mask_mode", [m for m in enc.MASK_MODES if m != "none"])
def test_masked_training_checkpoint_encodes_unmasked(tmp_path, capsys, mask_mode):
    cfg = _config(tmp_path, train={"iters": 3, "batch_size": 4, "hidden": 6, "repr_dims": 3,
                                   "depth": 2, "mask_mode": mask_mode})
    ckpt = str(tmp_path / "model.npz")
    assert cli.main(["pretrain", "--config", cfg, "--out", ckpt]) == 0
    tset = ds.make_synthetic(
        3, 16, [{"kind": "sine", "freq": 2.0}, {"kind": "square", "freq": 3.0}],
        noise_std=0.1, seed=2)
    tsv = str(tmp_path / "data.tsv")
    ds.write_ucr_tsv(tset, tsv)

    reps_csv = str(tmp_path / "reps.csv")
    assert cli.main(["encode", "--ckpt", ckpt, "--data", tsv, "--out", reps_csv]) == 0
    state, _ = tr.load_checkpoint(ckpt)
    values = ds.znormalize(ds.load_ucr_tsv(tsv)).values
    expected = enc.instance_repr(enc.encode(state.model, values, mask_mode="none"))
    np.testing.assert_array_equal(np.loadtxt(reps_csv, delimiter=","), expected)
    assert cli.main(["evaluate", "--task", "classify", "--ckpt", ckpt,
                     "--train-data", tsv, "--test-data", tsv]) == 0


@pytest.mark.parametrize("task,given,missing", [
    ("classify", [], ["--train-data", "--test-data"]),
    ("classify", ["--train-data", "train.tsv"], ["--test-data"]),
    ("anomaly", [], ["--data"]),
])
def test_evaluate_names_missing_data_flags(tmp_path, capsys, task, given, missing):
    # the checkpoint does not exist: the usage error comes before it is read
    assert cli.main(["evaluate", "--task", task,
                     "--ckpt", str(tmp_path / "nope.npz"), *given]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: --task {task} needs")
    for flag in missing:
        assert flag in err
    for flag in given[::2]:
        assert flag not in err


def _evaluate_inputs(tmp_path, task):
    """A checkpoint and a TSV in `tmp_path`, and the data flags of `task`."""
    tset = ds.make_synthetic(
        3, 16, [{"kind": "sine", "freq": 2.0}, {"kind": "square", "freq": 3.0}], seed=3)
    ds.write_ucr_tsv(tset, tmp_path / "data.tsv")
    train_cfg = tr.TrainConfig(hidden=6, repr_dims=3, depth=2)
    tr.save_checkpoint(tr.TrainState.fresh(train_cfg, tset.dims), train_cfg,
                       tmp_path / "model.npz")
    tsv = str(tmp_path / "data.tsv")
    return str(tmp_path / "model.npz"), (["--data", tsv] if task == "anomaly"
                                         else ["--train-data", tsv, "--test-data", tsv])


@pytest.mark.parametrize("c", [None, "2.0"], ids=["default", "2.0"])
@pytest.mark.parametrize("task", ["anomaly", "classify"])
def test_evaluate_runs_from_its_checkpoint_and_data_alone(tmp_path, monkeypatch, capsys, task, c):
    # no config file anywhere: like encode, evaluate reads none
    monkeypatch.chdir(tmp_path)
    ckpt, data = _evaluate_inputs(tmp_path, task)
    flags = [] if c is None else ["--anomaly-c", c]
    assert cli.main(["evaluate", "--task", task, "--ckpt", ckpt, *data, *flags,
                     "--out", "report.csv"]) == 0
    assert sorted(path.name for path in tmp_path.iterdir()) == ["data.tsv", "model.npz",
                                                                "report.csv"]
    text = capsys.readouterr().out
    if task == "anomaly":
        state, _ = tr.load_checkpoint(ckpt)
        scores = ev.anomaly_scores(state.model, ds.znormalize(ds.load_ucr_tsv(data[1])).series(0))
        _, report = ev.threshold_anomalies(scores, c=3.0 if c is None else float(c))
        assert text == report.to_text() + "\n"
    else:
        assert text.startswith("task: classify\naccuracy: ")


@pytest.mark.parametrize("flags", [["--config", "config.json"], ["--echo-config"]],
                         ids=["config", "echo-config"])
def test_evaluate_takes_no_config_flags(tmp_path, monkeypatch, capsys, flags):
    monkeypatch.chdir(tmp_path)
    _config(tmp_path)
    ckpt, data = _evaluate_inputs(tmp_path, "anomaly")
    assert cli.main(["evaluate", "--task", "anomaly", "--ckpt", ckpt, *data, *flags]) == 1
    assert f"unrecognized arguments: {' '.join(flags)}" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("task", ["anomaly", "classify"])
def test_a_non_finite_anomaly_c_exits_2_before_the_checkpoint_is_read(tmp_path, monkeypatch,
                                                                      capsys, task, value):
    # the check the config's eval.anomaly_c had at load: before any work.
    # `=` keeps argparse from reading -inf as an option
    def no_load(path):
        raise AssertionError("evaluate read the checkpoint")

    ckpt, data = _evaluate_inputs(tmp_path, task)
    monkeypatch.setattr(cli.tr, "load_checkpoint", no_load)
    out, scores_out = tmp_path / "report.csv", tmp_path / "scores.csv"
    assert cli.main(["evaluate", "--task", task, "--ckpt", ckpt, *data, f"--anomaly-c={value}",
                     "--out", str(out), "--scores-out", str(scores_out)]) == 2
    assert capsys.readouterr().err == f"error: --anomaly-c must be finite, got {float(value)}\n"
    assert not out.exists() and not scores_out.exists()
