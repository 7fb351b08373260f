import json

import numpy as np
import pytest

from tscontrast import cli
from tscontrast import config as engine_config
from tscontrast import data as ds
from tscontrast import distance as dist
from tscontrast import encoder as enc
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


def test_distances_cache_and_stats(tmp_path, capsys, caplog):
    cfg = _config(tmp_path)
    out = str(tmp_path / "dist.bin")
    caplog.set_level("INFO", logger="tscontrast.cli")
    assert cli.main(["distances", "--config", cfg, "--out", out,
                     "--csv", str(tmp_path / "dist.csv")]) == 0
    assert capsys.readouterr().out.startswith("metric=euc")
    assert [r.getMessage() for r in caplog.records] == [
        f"distance cache miss: {out} (no such file)"]
    caplog.clear()
    assert cli.main(["distances", "--config", cfg, "--out", out]) == 0
    assert "cache" not in capsys.readouterr().out  # stdout holds only the result
    assert [r.getMessage() for r in caplog.records] == [f"distance cache hit: {out}"]
    grid = np.loadtxt(tmp_path / "dist.csv", delimiter=",")
    assert grid.shape == (6, 6)


def test_distances_metric_mismatch(tmp_path, capsys):
    cfg = _config(tmp_path)
    out = str(tmp_path / "dist.bin")
    assert cli.main(["distances", "--config", cfg, "--out", out]) == 0
    capsys.readouterr()
    cfg2 = _config(tmp_path, distance={"metric": "dtw"})
    assert cli.main(["distances", "--config", cfg2, "--out", out]) == 2
    assert "metric" in capsys.readouterr().err


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
    assert cli.main(["evaluate", "--config", cfg, "--task", "classify", "--ckpt", ckpt,
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
    assert cli.main(["evaluate", "--config", cfg, "--task", "anomaly", "--ckpt", ckpt,
                     "--data", str(tsv), "--labels", str(labels),
                     "--scores-out", str(scores_out)]) == 0
    assert "task: anomaly" in capsys.readouterr().out
    assert np.loadtxt(scores_out, delimiter=",").shape == (32,)


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
    cache = tmp_path / "dist.bin"
    cfg = _config(tmp_path, distance={"metric": "euc", "cache": str(cache)})
    calls = _count_pairwise(monkeypatch)
    out = tmp_path / "ablate.csv"
    assert cli.main(["ablate", "--config", cfg, "--axis", "metric", "--out", str(out)]) == 0
    assert len(out.read_text().strip().splitlines()) == 1 + 4
    assert sorted(calls) == sorted(cli.METRIC_GRID)
    assert dist.load_matrix(cache).metric == "euc"  # only the base metric is cached


def test_ablate_computes_shared_matrix_once(tmp_path, capsys, monkeypatch):
    calls = _count_pairwise(monkeypatch)
    out = tmp_path / "ablate.csv"
    assert cli.main(["ablate", "--config", _config(tmp_path), "--axis", "assignment",
                     "--out", str(out)]) == 0
    assert len(out.read_text().strip().splitlines()) == 1 + 8
    assert calls == ["euc"]


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


def test_evaluate_unknown_task(tmp_path):
    cfg = _config(tmp_path)
    assert cli.main(["evaluate", "--config", cfg, "--task", "cluster",
                     "--ckpt", "x.npz"]) == 1


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
        key = "param/proj_w"
        assert not np.array_equal(a[key], b[key])
        assert np.array_equal(b[key], c[key])


@pytest.mark.parametrize("command", [["distances", "--out", "d.bin", "--seed", "1"],
                                     ["evaluate", "--task", "classify", "--ckpt", "x.npz",
                                      "--train-data", "a.tsv", "--test-data", "b.tsv",
                                      "--lambda", "0.3"]], ids=["distances", "evaluate"])
def test_training_flags_belong_to_training_commands(tmp_path, monkeypatch, command):
    # neither command reads the train or loss sections
    monkeypatch.chdir(tmp_path)
    assert cli.main([command[0], "--config", _config(tmp_path), *command[1:]]) == 1


@pytest.mark.parametrize("index", [6, 99, -1])
def test_evaluate_anomaly_series_index_out_of_range(tmp_path, capsys, index):
    tset = ds.make_synthetic(6, 16, [{"kind": "sine", "freq": 2.0}], seed=3)
    tsv = tmp_path / "series.tsv"
    ds.write_ucr_tsv(tset, tsv)
    train_cfg = tr.TrainConfig(hidden=6, repr_dims=3, depth=2)
    ckpt = tmp_path / "model.npz"
    tr.save_checkpoint(tr.TrainState.fresh(train_cfg, tset.dims), train_cfg, ckpt)
    assert cli.main(["evaluate", "--config", _config(tmp_path), "--task", "anomaly",
                     "--ckpt", str(ckpt), "--data", str(tsv),
                     "--series-index", str(index)]) == 2
    assert f"--series-index {index} is out of range for 6 series" in capsys.readouterr().err


@pytest.mark.parametrize("section,key,value,names_key", [
    ("loss", "lambda", 1.5, True),
    ("train", "mask_mode", "bogus", False),
    ("train", "depth", 0, True),
    ("train", "batch_size", 1, True),
    ("train", "iters", None, True),
    ("loss", "hard", "false", True),
])
def test_bad_config_fails_before_any_work(tmp_path, capsys, section, key, value, names_key):
    cache = tmp_path / "dist.bin"
    sections = {
        "distance": {"metric": "euc", "cache": str(cache)},
        "train": {"iters": 2, "batch_size": 4, "hidden": 6, "repr_dims": 3, "depth": 2},
    }
    sections.setdefault(section, {})[key] = value
    ckpt = tmp_path / "model.npz"
    assert cli.main(["pretrain", "--config", _config(tmp_path, **sections),
                     "--out", str(ckpt)]) == 2
    err = capsys.readouterr().err
    assert not cache.exists() and not ckpt.exists()
    if names_key:
        assert f"{section}.{key}" in err


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


@pytest.mark.parametrize("mask_mode", ["binomial", "last_point"])
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
    assert cli.main(["evaluate", "--config", cfg, "--task", "classify", "--ckpt", ckpt,
                     "--train-data", tsv, "--test-data", tsv]) == 0


@pytest.mark.parametrize("task,given,missing", [
    ("classify", [], ["--train-data", "--test-data"]),
    ("classify", ["--train-data", "train.tsv"], ["--test-data"]),
    ("anomaly", [], ["--data"]),
])
def test_evaluate_names_missing_data_flags(tmp_path, capsys, task, given, missing):
    # the checkpoint does not exist: the usage error comes before it is read
    assert cli.main(["evaluate", "--config", _config(tmp_path), "--task", task,
                     "--ckpt", str(tmp_path / "nope.npz"), *given]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: --task {task} needs")
    for flag in missing:
        assert flag in err
    for flag in given[::2]:
        assert flag not in err
