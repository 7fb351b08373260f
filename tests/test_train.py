import csv
import json
import re
from dataclasses import replace

import numpy as np
import pytest

from tscontrast import cli
from tscontrast import data as ds
from tscontrast import distance as dist
from tscontrast import train as tr


def _corpus(n_per_class=4, length=16):
    return ds.znormalize(ds.make_synthetic(
        n_per_class, length,
        [{"kind": "sine", "freq": 2.0}, {"kind": "square", "freq": 3.0}],
        noise_std=0.1, seed=2))


def _setup(**kwargs):
    tset = _corpus()
    dm = dist.pairwise(tset, "euc")
    defaults = dict(iters=5, batch_size=4, hidden=6, repr_dims=3, depth=2, seed=1)
    defaults.update(kwargs)
    return tset, dm, tr.TrainConfig(**defaults)


def test_split_seed_stable_and_distinct():
    assert tr.split_seed(7, "init") == tr.split_seed(7, "init")
    assert tr.split_seed(7, "init") != tr.split_seed(7, "loop")
    assert tr.split_seed(7, "init") != tr.split_seed(8, "init")


def test_pretrain_decreases_loss():
    tset, dm, cfg = _setup(iters=30)
    _, history = tr.pretrain(tset, dm, cfg)
    assert len(history) == 30
    assert history[-1][1].total < history[0][1].total


def test_pretrain_bitwise_deterministic():
    tset, dm, cfg = _setup()
    model_a, hist_a = tr.pretrain(tset, dm, cfg)
    model_b, hist_b = tr.pretrain(tset, dm, cfg)
    for name in model_a.params:
        assert np.array_equal(model_a.params[name].data, model_b.params[name].data)
    assert [b.total for _, b in hist_a] == [b.total for _, b in hist_b]


def test_pretrain_seed_changes_run():
    tset, dm, _ = _setup()
    cfg_a = tr.TrainConfig(iters=5, batch_size=4, hidden=6, repr_dims=3, depth=2, seed=1)
    cfg_b = tr.TrainConfig(iters=5, batch_size=4, hidden=6, repr_dims=3, depth=2, seed=2)
    model_a, _ = tr.pretrain(tset, dm, cfg_a)
    model_b, _ = tr.pretrain(tset, dm, cfg_b)
    assert not np.array_equal(model_a.params["proj_w"].data, model_b.params["proj_w"].data)


def test_pretrain_rejects_mismatched_matrix():
    tset, _, cfg = _setup()
    bad = dist.DistanceMatrix(values=np.zeros((3, 3)), metric="euc", normalized=True)
    with pytest.raises(ValueError):
        tr.pretrain(tset, bad, cfg)


def test_pretrain_needs_two_series():
    # the instance loss of a one-series batch is undefined
    tset, _, cfg = _setup()
    one = tset.subset(np.arange(1))
    single = dist.DistanceMatrix(values=np.zeros((1, 1)), metric="euc", normalized=True)
    with pytest.raises(ValueError, match="at least 2 series, got 1"):
        tr.pretrain(one, single, cfg)


def test_divergence_guard():
    tset, dm, cfg = _setup()
    state = tr.TrainState.fresh(cfg, tset.dims)
    state.model.params["proj_w"].data[0, 0] = np.nan
    with pytest.raises(RuntimeError, match="non-finite"):
        tr.pretrain(tset, dm, cfg, state=state)


def test_hierarchy_off_keeps_hard_and_lambda_checks():
    tset, _, _ = _setup()
    batch = tset.subset(np.arange(4))

    def batch_loss(**kwargs):
        _, _, cfg = _setup(**kwargs)
        state = tr.TrainState.fresh(cfg, tset.dims)
        total, _ = tr.evaluate_batch_loss(state, batch, np.zeros((4, 4)), cfg, crop_seed=3)
        return float(total.data)

    # hard=True zeroes every soft weight, so the temporal sharpness and the
    # hierarchy setting cannot move the loss
    reference = batch_loss(hard=True)
    for tau_temp in (0.5, 5.0):
        assert batch_loss(hard=True, hierarchical_tau=False, tau_temp=tau_temp) == reference
    with pytest.raises(ValueError, match="lambda"):
        batch_loss(hierarchical_tau=False, lam=1.5)


def test_checkpoint_round_trip(tmp_path):
    tset, dm, cfg = _setup()
    state = tr.TrainState.fresh(cfg, tset.dims)
    tr.pretrain(tset, dm, cfg, state=state)
    path = tmp_path / "ckpt.npz"
    tr.save_checkpoint(state, cfg, path)
    back, back_cfg = tr.load_checkpoint(path)
    assert back_cfg == cfg
    assert back.step == state.step
    # the restored generator continues the stream exactly
    assert back.rng.bit_generator.state["bit_generator"] == "Philox"
    assert np.array_equal(back.rng.random(5), state.rng.random(5))
    assert np.array_equal(back.rng.integers(0, 2 ** 32, 5), state.rng.integers(0, 2 ** 32, 5))
    for name in state.model.params:
        assert np.array_equal(back.model.params[name].data, state.model.params[name].data)
        assert np.array_equal(back.m[name], state.m[name])
        assert np.array_equal(back.v[name], state.v[name])


def test_load_checkpoint_rejects_bad_file(tmp_path, capsys):
    tset, _, cfg = _setup()
    good = tmp_path / "good.npz"
    tr.save_checkpoint(tr.TrainState.fresh(cfg, tset.dims), cfg, good)
    tsv = tmp_path / "data.tsv"
    ds.write_ucr_tsv(tset, tsv)
    np.savez(tmp_path / "version.npz", version=np.int64(99))
    np.save(tmp_path / "array.npy", np.zeros(3))
    (tmp_path / "empty.npz").write_bytes(b"")
    (tmp_path / "truncated.npz").write_bytes(good.read_bytes()[:good.stat().st_size // 2])
    tr.save_checkpoint(tr.TrainState.fresh(cfg, tset.dims), cfg, tmp_path / "listcfg.npz")
    _rewrite_meta(tmp_path / "listcfg.npz", lambda meta: meta.update(train_config=[]))
    for name in ("version.npz", "array.npy", "empty.npz", "truncated.npz", "listcfg.npz"):
        path = tmp_path / name
        with pytest.raises(ValueError, match=name):
            tr.load_checkpoint(path)
        assert cli.main(["encode", "--ckpt", str(path), "--data", str(tsv),
                         "--out", str(tmp_path / "reps.csv")]) == 2
        assert name in capsys.readouterr().err


def test_resume_equals_uninterrupted(tmp_path):
    tset, dm, _ = _setup()
    base = dict(batch_size=4, hidden=6, repr_dims=3, depth=2, seed=5)
    full_cfg = tr.TrainConfig(iters=10, **base)
    model_full, hist_full = tr.pretrain(tset, dm, full_cfg)

    half_cfg = tr.TrainConfig(iters=5, **base)
    state = tr.TrainState.fresh(half_cfg, tset.dims)
    tr.pretrain(tset, dm, half_cfg, state=state)
    path = tmp_path / "half.npz"
    tr.save_checkpoint(state, half_cfg, path)
    resumed, _ = tr.load_checkpoint(path)
    model_res, hist_res = tr.pretrain(tset, dm, full_cfg, state=resumed)

    for name in model_full.params:
        assert np.array_equal(model_full.params[name].data, model_res.params[name].data)
    assert [b.total for _, b in hist_full[5:]] == [b.total for _, b in hist_res]


def test_write_log_csv(tmp_path):
    tset, dm, cfg = _setup(iters=4)
    path = tmp_path / "log.csv"
    _, history = tr.pretrain(tset, dm, cfg, log_path=path)
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0][:4] == ["step", "total", "instance_term", "temporal_term"]
    assert "level0_instance" in rows[0]
    assert len(rows) == 1 + len(history)
    assert float(rows[1][1]) == pytest.approx(history[0][1].total)


def _rewrite_arrays(path, edit):
    """Rewrite a checkpoint's arrays in place with `edit(arrays)`."""
    with np.load(path) as blob:
        arrays = {key: blob[key] for key in blob.files}
    edit(arrays)
    np.savez(path, **arrays)


def _rewrite_meta(path, edit):
    """Rewrite a checkpoint's JSON metadata in place with `edit(meta)`."""
    def edit_arrays(arrays):
        meta = json.loads(bytes(arrays["meta"]).decode())
        edit(meta)
        arrays["meta"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)

    _rewrite_arrays(path, edit_arrays)


def _add_retired_keys(meta, **values):
    """Earlier formats also stored the loss temperature and Adam's constants."""
    meta["train_config"].update({"temperature": 1.0, "beta1": 0.9, "beta2": 0.999,
                                 "eps": 1e-8, **values})


def _resume_after_edits(tmp_path, *edits):
    """Train 4 of 8 binomial-mask steps, rewrite the checkpoint's meta with each
    of `edits`, and check the resumed run equals the uninterrupted one bit for bit."""
    tset, dm, _ = _setup()
    base = dict(batch_size=4, hidden=6, repr_dims=3, depth=2, seed=5, mask_mode="binomial")
    full_cfg = tr.TrainConfig(iters=8, **base)
    model_full, hist_full = tr.pretrain(tset, dm, full_cfg)

    half_cfg = tr.TrainConfig(iters=4, **base)
    state = tr.TrainState.fresh(half_cfg, tset.dims)
    tr.pretrain(tset, dm, half_cfg, state=state)
    path = tmp_path / "half.npz"
    tr.save_checkpoint(state, half_cfg, path)
    for edit in edits:
        _rewrite_meta(path, edit)
    resumed, cfg = tr.load_checkpoint(path)
    assert cfg == half_cfg
    model_res, hist_res = tr.pretrain(tset, dm, full_cfg, state=resumed)

    for name in model_full.params:
        assert np.array_equal(model_full.params[name].data, model_res.params[name].data)
    assert [b.csv_row() for _, b in hist_full[4:]] == [b.csv_row() for _, b in hist_res]


def test_parent_format_checkpoint_resumes_bit_exactly(tmp_path):
    # the earlier format also stored an encoder_config beside train_config
    _resume_after_edits(tmp_path, lambda meta: meta.update(encoder_config={
        "input_dims": 1, "hidden": 6, "output_dims": 3, "depth": 2,
        "kernel_size": 3, "mask_mode": "binomial"}), _add_retired_keys)


def _as_ndarray_cells(state):
    """The earlier RNG encoding: every array as {"__ndarray__": list, "dtype": name}."""
    if isinstance(state, dict):
        return {key: _as_ndarray_cells(value) for key, value in state.items()}
    if isinstance(state, list):
        return {"__ndarray__": state, "dtype": "uint64"}
    return state


@pytest.mark.parametrize("retired", [False, True], ids=["current-keys", "retired-keys"])
def test_ndarray_cell_rng_state_resumes_bit_exactly(tmp_path, retired):
    def to_cells(meta):
        meta["rng_state"] = _as_ndarray_cells(meta["rng_state"])
        assert meta["rng_state"]["state"]["counter"]["__ndarray__"]

    _resume_after_edits(tmp_path, to_cells, *([_add_retired_keys] if retired else []))


@pytest.mark.parametrize("field,value,key", [
    ("lr", "x", "train.lr"),
    ("lr", -0.1, "train.lr"),
    ("depth", 2.0, "train.depth"),
    ("lam", 1.5, "loss.lambda"),
    ("batch_size", 1, "train.batch_size"),
    ("mask_mode", "bogus", "train.mask_mode"),
    ("tau_inst", -1.0, "assignment.tau_inst"),
])
def test_load_checkpoint_checks_train_config_like_a_config_file(tmp_path, capsys,
                                                               field, value, key):
    tset, _, cfg = _setup()
    path = tmp_path / "ckpt.npz"
    tr.save_checkpoint(tr.TrainState.fresh(cfg, tset.dims), cfg, path)
    _rewrite_meta(path, lambda meta: meta["train_config"].update({field: value}))
    with pytest.raises(ValueError, match=rf"ckpt\.npz: {re.escape(key)}\b"):
        tr.load_checkpoint(path)

    tsv = tmp_path / "data.tsv"
    ds.write_ucr_tsv(tset, tsv)
    assert cli.main(["encode", "--ckpt", str(path), "--data", str(tsv),
                     "--out", str(tmp_path / "reps.csv")]) == 2
    err = capsys.readouterr().err
    assert "ckpt.npz" in err and key in err


def _set_counter(meta, value):
    meta["rng_state"]["state"]["counter"] = value


# a checkpoint field broken in one way each: (rewrite, edit, field the error names)
_BAD_FIELDS = {
    "step-fraction": (_rewrite_meta, lambda meta: meta.update(step=2.7), "step"),
    "step-bool": (_rewrite_meta, lambda meta: meta.update(step=True), "step"),
    "step-negative": (_rewrite_meta, lambda meta: meta.update(step=-4), "step"),
    "step-string": (_rewrite_meta, lambda meta: meta.update(step="x"), "step"),
    "step-list": (_rewrite_meta, lambda meta: meta.update(step=[1]), "step"),
    "rng-int": (_rewrite_meta, lambda meta: meta.update(rng_state=5), "rng_state"),
    "rng-no-state": (_rewrite_meta, lambda meta: meta.update(rng_state={"bit_generator": "Philox"}),
                     "rng_state"),
    "rng-counter-string": (_rewrite_meta, lambda meta: _set_counter(meta, "x"), "rng_state"),
    "version-list": (_rewrite_arrays, lambda arrays: arrays.update(version=np.array([1, 1])),
                     "version"),
    "no-meta": (_rewrite_arrays, lambda arrays: arrays.pop("meta"), "meta"),
    "meta-list": (_rewrite_arrays, lambda arrays: arrays.update(meta=np.frombuffer(b"[]", np.uint8)),
                  "meta"),
    "no-step": (_rewrite_meta, lambda meta: meta.pop("step"), "step"),
    "no-rng": (_rewrite_meta, lambda meta: meta.pop("rng_state"), "rng_state"),
    "no-train-config": (_rewrite_meta, lambda meta: meta.pop("train_config"), "train_config"),
    "no-adam-m": (_rewrite_arrays, lambda arrays: arrays.pop("adam_m/proj_w"), "adam_m/proj_w"),
    "adam-v-shape": (_rewrite_arrays, lambda arrays: arrays.update({"adam_v/proj_w": np.zeros(1)}),
                     "proj_w"),
}


@pytest.mark.parametrize("case", list(_BAD_FIELDS))
def test_load_checkpoint_names_a_bad_field(tmp_path, capsys, case):
    rewrite, edit, field = _BAD_FIELDS[case]
    tset, _, cfg = _setup()
    path = tmp_path / "ckpt.npz"
    tr.save_checkpoint(tr.TrainState.fresh(cfg, tset.dims), cfg, path)
    rewrite(path, edit)
    with pytest.raises(ValueError, match=rf"ckpt\.npz: .*{re.escape(field)}"):
        tr.load_checkpoint(path)

    tsv = tmp_path / "data.tsv"
    ds.write_ucr_tsv(tset, tsv)
    assert cli.main(["encode", "--ckpt", str(path), "--data", str(tsv),
                     "--out", str(tmp_path / "reps.csv")]) == 2
    err = capsys.readouterr().err
    assert "ckpt.npz" in err and field in err


@pytest.mark.parametrize("depth", [1, 3])
def test_load_checkpoint_rejects_weights_that_differ_from_config(tmp_path, capsys, depth):
    tset, _, cfg = _setup()
    state = tr.TrainState.fresh(cfg, tset.dims)
    path = tmp_path / "ckpt.npz"
    tr.save_checkpoint(state, cfg, path)
    _rewrite_meta(path, lambda meta: meta["train_config"].update(depth=depth))
    with pytest.raises(ValueError, match="ckpt.npz"):
        tr.load_checkpoint(path)

    tsv = tmp_path / "data.tsv"
    ds.write_ucr_tsv(tset, tsv)
    assert cli.main(["encode", "--ckpt", str(path), "--data", str(tsv),
                     "--out", str(tmp_path / "reps.csv")]) == 2
    assert "ckpt.npz" in capsys.readouterr().err


def test_load_checkpoint_rejects_unknown_train_config_key(tmp_path, capsys):
    tset, _, cfg = _setup()
    path = tmp_path / "ckpt.npz"
    tr.save_checkpoint(tr.TrainState.fresh(cfg, tset.dims), cfg, path)
    _rewrite_meta(path, lambda meta: meta["train_config"].update(warmup=3))
    with pytest.raises(ValueError, match=r"ckpt\.npz: unknown train_config key\(s\): warmup"):
        tr.load_checkpoint(path)

    tsv = tmp_path / "data.tsv"
    ds.write_ucr_tsv(tset, tsv)
    assert cli.main(["encode", "--ckpt", str(path), "--data", str(tsv),
                     "--out", str(tmp_path / "reps.csv")]) == 2
    assert "warmup" in capsys.readouterr().err


@pytest.mark.parametrize("key,value", [("temperature", 0.5), ("beta1", 0.8), ("eps", 1e-6)])
def test_load_checkpoint_rejects_retired_key_away_from_its_constant(tmp_path, capsys,
                                                                     key, value):
    tset, _, cfg = _setup()
    path = tmp_path / "ckpt.npz"
    tr.save_checkpoint(tr.TrainState.fresh(cfg, tset.dims), cfg, path)
    _rewrite_meta(path, lambda meta: _add_retired_keys(meta, **{key: value}))
    with pytest.raises(ValueError, match=rf"ckpt\.npz: train_config {key} is retired"):
        tr.load_checkpoint(path)

    tsv = tmp_path / "data.tsv"
    ds.write_ucr_tsv(tset, tsv)
    assert cli.main(["encode", "--ckpt", str(path), "--data", str(tsv),
                     "--out", str(tmp_path / "reps.csv")]) == 2
    assert key in capsys.readouterr().err


def test_lambda_zero_logs_the_soft_instance_terms():
    # with one seed both runs draw the same model, batch and crop on step 1
    tset, dm, cfg = _setup(iters=1)
    logged = {}
    for lam in (0.0, 0.5):
        _, history = tr.pretrain(tset, dm, replace(cfg, lam=lam))
        logged[lam] = [li for _, li, _ in history[0][1].per_level]
    assert logged[0.0] == logged[0.5]
