import csv
import hashlib
import json
import math
import re
import tempfile
import tracemalloc
import zipfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tscontrast import assign as asg
from tscontrast import autodiff as ad
from tscontrast import cli
from tscontrast import config as engine_config
from tscontrast import data as ds
from tscontrast import distance as dist
from tscontrast import encoder as enc
from tscontrast import loss as losses
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
    bad = dist.DistanceMatrix(values=np.zeros((3, 3)), metric="euc")
    with pytest.raises(ValueError):
        tr.pretrain(tset, bad, cfg)


def test_pretrain_needs_two_series():
    # the instance loss of a one-series batch is undefined
    tset, _, cfg = _setup()
    one = tset.subset(np.arange(1))
    single = dist.DistanceMatrix(values=np.zeros((1, 1)), metric="euc")
    with pytest.raises(ValueError, match="at least 2 series, got 1"):
        tr.pretrain(one, single, cfg)


def test_divergence_guard():
    tset, dm, cfg = _setup()
    state = tr.TrainState.fresh(cfg, tset.dims)
    state.model.params["proj_w"].data[0, 0] = np.nan
    with pytest.raises(RuntimeError, match=r"^non-finite loss at step 0 "
                                           r"\(instance term, level 0\); aborting$"):
        tr.pretrain(tset, dm, cfg, state=state)


def test_divergence_guard_names_first_term_in_ladder_order(monkeypatch):
    # level 1's temporal term goes first: levels in order, instance before temporal
    breakdown = losses.LossBreakdown(total=np.nan, instance_term=np.nan, temporal_term=np.nan,
                                     per_level=[(0, 1.0, 2.0), (1, 1.0, np.inf),
                                                (2, np.nan, np.nan)])
    monkeypatch.setattr(tr, "evaluate_batch_loss",
                        lambda *args: (ad.Tensor(np.nan), breakdown))
    tset, dm, cfg = _setup()
    with pytest.raises(RuntimeError, match=r"step 0 \(temporal term, level 1\)"):
        tr.pretrain(tset, dm, cfg)


def test_hierarchy_off_keeps_hard_and_lambda_checks():
    tset, _, _ = _setup()
    batch = tset.subset(np.arange(4))

    def batch_loss(**kwargs):
        _, _, cfg = _setup(**kwargs)
        state = tr.TrainState.fresh(cfg, tset.dims)
        total, _ = tr.evaluate_batch_loss(state, batch, np.zeros((4, 4)), cfg, crop_seed=3,
                                          mask_seed=0)
        return float(total.data)

    # hard=True zeroes every soft weight, so the temporal sharpness and the
    # hierarchy setting cannot move the loss
    reference = batch_loss(hard=True)
    for tau_temp in (0.5, 5.0):
        assert batch_loss(hard=True, hierarchical_tau=False, tau_temp=tau_temp) == reference
    with pytest.raises(ValueError, match="lam must be in"):
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


def test_checkpoint_keeps_each_weight_under_its_name_in_any_dict_order(tmp_path):
    """The flat arrays follow `param_shapes` order, whatever order the
    model's dicts are in, and every weight and moment loads under its own
    name."""
    tset, dm, cfg = _setup()
    state = tr.TrainState.fresh(cfg, tset.dims)
    tr.pretrain(tset, dm, cfg, state=state)
    names = list(enc.param_shapes(cfg, tset.dims))
    shuffled = [names[i] for i in np.random.Generator(np.random.Philox(3)).permutation(len(names))]
    assert shuffled != names
    state.model.params = {name: state.model.params[name] for name in shuffled}
    state.m = {name: state.m[name] for name in shuffled}
    state.v = {name: state.v[name] for name in shuffled}
    path = tmp_path / "ckpt.npz"
    tr.save_checkpoint(state, cfg, path)
    with np.load(path) as blob:
        assert blob["param"].tobytes() == np.concatenate(
            [state.model.params[name].data.ravel() for name in names]).tobytes()
    back, _ = tr.load_checkpoint(path)
    assert list(back.model.params) == names
    for name in names:
        assert back.model.params[name].data.tobytes() == state.model.params[name].data.tobytes()
        assert back.m[name].tobytes() == state.m[name].tobytes()
        assert back.v[name].tobytes() == state.v[name].tobytes()


def test_save_checkpoint_refuses_weights_of_another_architecture(tmp_path):
    # a depth-2 state saved under a depth-3 config was written, then refused at load
    tset, _, cfg = _setup(depth=2)
    state = tr.TrainState.fresh(cfg, tset.dims)
    with pytest.raises(ValueError, match=r"^weights or their Adam moments do not match the "
                                         r"train_config architecture \(hidden=6, repr_dims=3, depth=3\); differing: "
                                         r"block2_bias1, block2_bias2, block2_conv1, block2_conv2$"):
        tr.save_checkpoint(state, replace(cfg, depth=3), tmp_path / "ckpt.npz")
    assert list(tmp_path.iterdir()) == []


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
    # a binomial mask draws from the restored generator too; every level's
    # loss terms of the resumed steps must match the uninterrupted run's
    tset, dm, _ = _setup()
    for mask_mode in ("none", "binomial"):
        base = dict(batch_size=4, hidden=6, repr_dims=3, depth=2, seed=5, mask_mode=mask_mode)
        full_cfg = tr.TrainConfig(iters=10, **base)
        model_full, hist_full = tr.pretrain(tset, dm, full_cfg)

        half_cfg = tr.TrainConfig(iters=5, **base)
        state = tr.TrainState.fresh(half_cfg, tset.dims)
        tr.pretrain(tset, dm, half_cfg, state=state)
        path = tmp_path / "half.npz"
        tr.save_checkpoint(state, half_cfg, path)
        resumed, cfg = tr.load_checkpoint(path)
        assert cfg == half_cfg
        model_res, hist_res = tr.pretrain(tset, dm, full_cfg, state=resumed)

        for name in model_full.params:
            assert np.array_equal(model_full.params[name].data, model_res.params[name].data)
        assert [b.csv_row() for _, b in hist_full[5:]] == [b.csv_row() for _, b in hist_res]


def _marks(model):
    return {p.requires_grad for p in model.params.values()}


def test_loaded_weights_need_no_gradient_until_pretrain_trains_them(tmp_path, monkeypatch):
    """A loaded model encodes with no tape, and backpropagating through it
    is an error; a resumed `pretrain` marks its weights while each step runs
    and returns them, trained, unmarked."""
    tset, dm, cfg = _setup(iters=3)
    path = tmp_path / "ckpt.npz"
    trained = tr.TrainState.fresh(cfg, tset.dims)
    tr.pretrain(tset, dm, cfg, state=trained)
    tr.save_checkpoint(trained, cfg, path)
    state, _ = tr.load_checkpoint(path)
    assert _marks(state.model) == {False}
    reps = enc.encode(state.model, tset.values)
    assert reps._parents == () and reps._backward is None
    with pytest.raises(ValueError, match="requires no gradient"):
        ad.backward(ad.tsum(reps))
    before = {name: p.data.copy() for name, p in state.model.params.items()}
    seen, real = [], tr.evaluate_batch_loss

    def spy(state_, *args):
        seen.append(_marks(state_.model))
        return real(state_, *args)

    monkeypatch.setattr(tr, "evaluate_batch_loss", spy)
    model, _ = tr.pretrain(tset, dm, replace(cfg, iters=5), state=state)
    assert seen == [{True}, {True}] and state.step == 5
    assert model is state.model and _marks(model) == {False}
    assert all(not np.array_equal(p.data, before[name]) for name, p in model.params.items())


def test_pretrain_clears_the_mark_when_it_raises(tmp_path):
    tset, dm, cfg = _setup()
    path = tmp_path / "ckpt.npz"
    tr.save_checkpoint(tr.TrainState.fresh(cfg, tset.dims), cfg, path)
    state, _ = tr.load_checkpoint(path)
    state.model.params["proj_w"].data[0, 0] = np.nan
    with pytest.raises(RuntimeError, match="non-finite loss at step 0"):
        tr.pretrain(tset, dm, cfg, state=state)
    assert _marks(state.model) == {False}


def test_pretrain_leaves_no_gradient_when_it_returns_or_raises(monkeypatch):
    # the last step's gradients are a copy of the weights that nothing reads
    tset, dm, cfg = _setup(iters=2)
    model, _ = tr.pretrain(tset, dm, cfg)
    assert {p.grad is None for p in model.params.values()} == {True}
    calls, real = [], tr.evaluate_batch_loss

    def second_step_diverges(*args):
        calls.append(args)
        total, breakdown = real(*args)
        return (ad.Tensor(np.nan) if len(calls) == 2 else total), breakdown

    monkeypatch.setattr(tr, "evaluate_batch_loss", second_step_diverges)
    state = tr.TrainState.fresh(cfg, tset.dims)
    with pytest.raises(RuntimeError, match="non-finite loss at step 1"):
        tr.pretrain(tset, dm, cfg, state=state)
    assert {p.grad is None for p in state.model.params.values()} == {True}


def test_encoding_loaded_weights_holds_a_few_activations(tmp_path, peak_bytes):
    """With no tape, encoding N = 200 series of length 96 on default weights
    holds a few [N, L, H] activations at a time; a taped encode held 39."""
    n, length, cfg = 200, 96, tr.TrainConfig()
    path = tmp_path / "ckpt.npz"
    tr.save_checkpoint(tr.TrainState.fresh(cfg, 1), cfg, path)
    state, _ = tr.load_checkpoint(path)
    x = np.random.Generator(np.random.Philox(7)).normal(size=(n, length, 1))
    activation = n * length * cfg.hidden * 8
    peak = peak_bytes(lambda: enc.encode(state.model, x))
    assert peak <= 16 * activation, peak / activation


def test_write_log_csv(tmp_path):
    tset, dm, cfg = _setup(iters=4)
    path = tmp_path / "log.csv"
    _, history = tr.pretrain(tset, dm, cfg)
    tr.write_log_csv(history, path)
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


def _span(arrays, name) -> slice:
    """Where weight `name` lies in a version 3 checkpoint's flat arrays: its
    place in `encoder.param_shapes` of the file's own train_config and
    input_dims."""
    meta = json.loads(bytes(arrays["meta"]).decode())
    cfg = tr.TrainConfig(**meta["train_config"])
    start = 0
    for entry, (shape, _) in enc.param_shapes(cfg, meta["input_dims"]).items():
        if entry == name:
            return slice(start, start + math.prod(shape))
        start += math.prod(shape)
    raise KeyError(name)


def test_save_checkpoint_writes_five_members(tmp_path):
    tset, _, cfg = _setup()
    path = tmp_path / "ckpt.npz"
    tr.save_checkpoint(tr.TrainState.fresh(cfg, tset.dims), cfg, path)
    with zipfile.ZipFile(path) as zf:
        assert sorted(zf.namelist()) == ["adam_m.npy", "adam_v.npy", "meta.npy", "param.npy",
                                         "version.npy"]
    with np.load(path) as blob:
        arrays = {key: blob[key] for key in blob.files}
    assert arrays["version"].tolist() == 3
    meta = json.loads(bytes(arrays["meta"]).decode())
    assert sorted(meta) == ["input_dims", "rng_state", "step", "train_config"]
    assert meta["input_dims"] == tset.dims
    for kind in ("param", "adam_m", "adam_v"):
        assert arrays[kind].dtype == np.float64 and arrays[kind].ndim == 1


@pytest.mark.parametrize("field,value,key", [
    ("lr", "x", "train.lr"),
    ("lr", -0.1, "train.lr"),
    ("depth", 2.0, "train.depth"),
    ("lam", 1.5, "train.lam"),
    ("batch_size", 1, "train.batch_size"),
    ("mask_mode", "bogus", "train.mask_mode"),
    ("tau_inst", -1.0, "train.tau_inst"),
    # past float range: float() of it overflows
    pytest.param("lam", 10 ** 400, "train.lam", id="lam-huge-train.lam"),
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
    **{f"version-{case}": (_rewrite_arrays, edit, "version") for case, edit in (
        ("1", lambda arrays: arrays.update(version=np.int64(1))),
        ("2", lambda arrays: arrays.update(version=np.int64(2))),
        ("true", lambda arrays: arrays.update(version=np.bool_(True))),
        ("missing", lambda arrays: arrays.pop("version")))},
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
    "no-adam-m": (_rewrite_arrays, lambda arrays: arrays.pop("adam_m"), "adam_m"),
    "adam-v-shape": (_rewrite_arrays, lambda arrays: arrays.update(adam_v=np.zeros(1)), "adam_v"),
    "no-input-dims": (_rewrite_meta, lambda meta: meta.pop("input_dims"), "input_dims"),
    **{f"input-dims-{case}": (_rewrite_meta, lambda meta, value=value: meta.update(
        input_dims=value), "input_dims") for case, value in (
        ("0", 0), ("negative", -1), ("true", True), ("fraction", 1.5), ("string", "x"))},
    # the size is named, not overflowed: proj_w takes 6 x 10**30 values, the rest 483
    "input-dims-huge": (_rewrite_meta, lambda meta: meta.update(input_dims=10 ** 30),
                        f"param holds 489 values, but the train_config's weights take "
                        f"{6 * 10 ** 30 + 483}"),
    "param-short": (_rewrite_arrays, lambda arrays: arrays.update(param=arrays["param"][:-1]),
                    "param"),
    "adam-m-2d": (_rewrite_arrays, lambda arrays: arrays.update(adam_m=arrays["adam_m"][None]),
                  "adam_m"),
}


@pytest.mark.parametrize("case", list(_BAD_FIELDS))
def test_load_checkpoint_names_a_bad_field(tmp_path, capsys, case):
    rewrite, edit, field = _BAD_FIELDS[case]
    tset, _, cfg = _setup()
    path = tmp_path / "ckpt.npz"
    tr.save_checkpoint(tr.TrainState.fresh(cfg, tset.dims), cfg, path)
    rewrite(path, edit)
    with pytest.raises(ValueError, match=rf"ckpt\.npz: .*{re.escape(field)}") as error:
        tr.load_checkpoint(path)
    if case.startswith("version"):
        assert str(error.value) == f"{path}: not a version 3 checkpoint"

    tsv = tmp_path / "data.tsv"
    ds.write_ucr_tsv(tset, tsv)
    assert cli.main(["encode", "--ckpt", str(path), "--data", str(tsv),
                     "--out", str(tmp_path / "reps.csv")]) == 2
    assert capsys.readouterr().err == f"error: {error.value}\n"


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


@settings(max_examples=25, deadline=None)
@given(hidden=st.integers(1, 40), repr_dims=st.integers(1, 20), depth=st.integers(1, 6),
       dims=st.integers(1, 3))
def test_a_model_is_its_weights(hidden, repr_dims, depth, dims):
    """`init_encoder` builds exactly the weights `param_shapes` declares, the
    model reads its depth and widths back from them, and a checkpoint round
    trip keeps both."""
    cfg = tr.TrainConfig(hidden=hidden, repr_dims=repr_dims, depth=depth)
    expected = {name: shape for name, (shape, _) in enc.param_shapes(cfg, dims).items()}

    def check(model):
        assert {name: t.shape for name, t in model.params.items()} == expected
        assert model.depth == depth
        assert enc.encode(model, np.zeros((1, 3, dims))).shape == (1, 3, repr_dims)

    check(enc.init_encoder(cfg, dims))
    state = tr.TrainState.fresh(cfg, dims)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "ckpt.npz"
        tr.save_checkpoint(state, cfg, path)
        loaded, loaded_cfg = tr.load_checkpoint(path)
    assert loaded_cfg == cfg
    check(loaded.model)


def test_load_checkpoint_rejects_unknown_train_config_key(tmp_path, capsys):
    # a retired key, even at the one value it held, is no TrainConfig field:
    # checkpoints store asdict(TrainConfig)
    tset, _, cfg = _setup()
    tsv = tmp_path / "data.tsv"
    ds.write_ucr_tsv(tset, tsv)
    for key, value in (("warmup", 3), ("temperature", 1.0), ("beta1", 0.9),
                       ("kernel_sigma", 0.5)):
        path = tmp_path / f"{key}.npz"
        tr.save_checkpoint(tr.TrainState.fresh(cfg, tset.dims), cfg, path)
        _rewrite_meta(path, lambda meta: meta["train_config"].update({key: value}))
        message = f"{path}: unknown keys in 'train': ['{key}']"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            tr.load_checkpoint(path)
        assert cli.main(["encode", "--ckpt", str(path), "--data", str(tsv),
                         "--out", str(tmp_path / "reps.csv")]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


def test_load_checkpoint_rejects_an_eval_key(tmp_path):
    # checkpoints never stored eval keys, so a retired one is unknown there too
    tset, _, cfg = _setup()
    path = tmp_path / "ckpt.npz"
    tr.save_checkpoint(tr.TrainState.fresh(cfg, tset.dims), cfg, path)
    _rewrite_meta(path, lambda meta: meta["train_config"].update(probe_k=1))
    message = "ckpt.npz: unknown keys in 'train': ['probe_k']"
    with pytest.raises(ValueError, match=re.escape(message)):
        tr.load_checkpoint(path)


@pytest.mark.parametrize("array", ["param/proj_w", "adam_m/block0_bias1", "adam_v/out_w"])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_load_checkpoint_rejects_a_non_finite_array(tmp_path, array, value):
    tset, _, cfg = _setup()
    path = tmp_path / "ckpt.npz"
    tr.save_checkpoint(tr.TrainState.fresh(cfg, tset.dims), cfg, path)

    def spoil(arrays):
        # its first value, where a lookup one span off names the weight before
        kind, name = array.split("/")
        arrays[kind][_span(arrays, name).start] = value

    _rewrite_arrays(path, spoil)
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: {re.escape(array)} holds "
                                         "a value that is not a finite number$"):
        tr.load_checkpoint(path)


@pytest.mark.parametrize("kind", ["param", "adam_m", "adam_v"])
def test_load_checkpoint_names_the_first_weight_of_a_flat_array_of_strings(tmp_path, kind):
    tset, _, cfg = _setup()
    path = tmp_path / "ckpt.npz"
    tr.save_checkpoint(tr.TrainState.fresh(cfg, tset.dims), cfg, path)
    _rewrite_arrays(path, lambda arrays: arrays.update({kind: arrays[kind].astype(str)}))
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: {kind}/proj_w holds "
                                         "a value that is not a finite number$"):
        tr.load_checkpoint(path)


@pytest.mark.parametrize("command", [
    ["encode"],
    ["evaluate", "--task", "anomaly"],
    ["evaluate", "--task", "classify", "--train-data", "{tsv}", "--test-data", "{tsv}"],
], ids=["encode", "anomaly", "classify"])
def test_a_nan_weight_exits_2_before_any_output(tmp_path, capsys, command):
    # loaded, one NaN in proj_w gave `nan,nan` representations, threshold=nan
    # and an accuracy, each with exit 0
    tset = ds.znormalize(ds.make_synthetic(
        4, 16, [{"kind": "sine", "freq": 2.0}, {"kind": "square", "freq": 3.0}], seed=2))
    cfg = tr.TrainConfig(hidden=4, repr_dims=2, depth=1)
    path, tsv = tmp_path / "ckpt.npz", tmp_path / "data.tsv"
    tr.save_checkpoint(tr.TrainState.fresh(cfg, tset.dims), cfg, path)
    # proj_w, [1, 4], comes first in the flat weights: (0, 1) is their value 1
    _rewrite_arrays(path, lambda arrays: arrays["param"].__setitem__(1, np.nan))
    ds.write_ucr_tsv(tset, tsv)
    out = tmp_path / "out.csv"
    args = [arg.format(tsv=tsv) for arg in command]
    if command[0] == "encode" or command[2] == "anomaly":
        args += ["--data", str(tsv)]
    assert cli.main([*args, "--ckpt", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"error: {path}: param/proj_w holds a value that is not a finite number\n")
    assert not out.exists()


def test_a_valid_load_builds_one_train_config(tmp_path, monkeypatch):
    # validate builds TrainConfig from each key alone only to name a bad one
    tset, _, cfg = _setup()
    path, config = tmp_path / "ckpt.npz", tmp_path / "cfg.json"
    tr.save_checkpoint(tr.TrainState.fresh(cfg, tset.dims), cfg, path)
    config.write_text(json.dumps({"train": {"iters": 3, "lam": 0.25}}))
    expected = tr.TrainConfig(iters=3, lam=0.25)
    calls = []
    post_init = tr.TrainConfig.__post_init__

    def counting(self):
        calls.append(self)
        post_init(self)

    monkeypatch.setattr(tr.TrainConfig, "__post_init__", counting)
    assert engine_config.load(config).train_config == expected
    assert len(calls) == 1
    assert tr.load_checkpoint(path)[1] == cfg
    assert len(calls) == 2


def test_load_checkpoint_logs_its_format_at_debug_only(tmp_path, caplog):
    tset, _, cfg = _setup()
    path = tmp_path / "ckpt.npz"
    tr.save_checkpoint(tr.TrainState.fresh(cfg, tset.dims), cfg, path)
    caplog.set_level("DEBUG", logger="tscontrast.train")
    tr.load_checkpoint(path)
    assert [(r.name, r.levelname, r.getMessage()) for r in caplog.records] == [
        ("tscontrast.train", "DEBUG", f"{path}: checkpoint format version 3, 5 members")]
    caplog.clear()
    caplog.set_level("INFO", logger="tscontrast.train")
    tr.load_checkpoint(path)
    assert not caplog.records


def test_pretrain_holds_no_n_by_n_weight_matrix(peak_bytes):
    # one step at N = 1000 builds the batch's weights from its block alone
    n = 1000
    tset = ds.TimeSeriesSet(values=np.tile(np.sin(np.arange(16.0))[:, None], (n, 1, 1)),
                            lengths=[16] * n)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(3)))
    values = rng.uniform(size=(n, n))
    values = (values + values.T) / 2
    np.fill_diagonal(values, 0.0)
    dm = dist.DistanceMatrix(values, "euc")
    cfg = tr.TrainConfig(iters=1, batch_size=4, hidden=4, repr_dims=2, depth=1)
    state = tr.TrainState.fresh(cfg, 1)
    assert peak_bytes(lambda: tr.pretrain(tset, dm, cfg, state=state)) < n * n * 8


def test_pretrain_holds_one_step_graph_at_a_time(monkeypatch, peak_bytes):
    """Each step's graph dies before the next step builds its own: at ragged-ucr's
    sizes one step's graph takes ~16 MiB, which step k - 1 used to hold at the
    entry of step k's forward pass (and through it)."""
    tset = ds.znormalize(ds.make_synthetic(20, 128, [{"kind": "sine", "freq": 3.0}],
                                           noise_std=0.05, seed=11))
    cfg = tr.TrainConfig(iters=3, lam=0.0, mask_mode="binomial", seed=3, hidden=16, depth=3)
    held, real = [], tr.evaluate_batch_loss

    def spy(*args):
        held.append(tracemalloc.get_traced_memory()[0])
        return real(*args)

    monkeypatch.setattr(tr, "evaluate_batch_loss", spy)
    peak = peak_bytes(lambda: tr.pretrain(tset, dist.pairwise(tset, "euc"), cfg))
    assert len(held) == 3
    assert peak - held[0] >= 10 * 2 ** 20  # the one-step graph this test needs
    assert all(bytes_ - held[0] <= 2 ** 20 for bytes_ in held[1:]), held


def test_a_ragged_ucr_set_up_step_peaks_under_21_mb_traced(peak_bytes):
    """One training step at ragged-ucr's set-up sizes, on the full 128-step
    crop, peaks at <= 21 MB traced: 18.9 MB with each adjoint freed once its
    node's backward has run, 26.1 MB when interior adjoints lived as long as
    the graph and each soft term held three [B, A, A] arrays at once."""
    tset = ds.znormalize(ds.make_synthetic(20, 128, [{"kind": "sine", "freq": 3.0}],
                                           noise_std=0.05, seed=11))
    cfg = tr.TrainConfig(iters=1, lam=0.0, mask_mode="binomial", seed=3, hidden=16, depth=3)
    state = tr.TrainState.fresh(cfg, tset.dims)
    batch = tset.subset(np.arange(cfg.batch_size))
    w_inst = asg.w_instance(dist.pairwise(batch, "euc"), cfg)
    crop_seed = next(seed for seed in range(10 ** 4)
                     if ds.crop_two_views(batch, seed).view_a.shape[1] == 128)
    params = state.model.params.values()

    def step():
        total, _ = tr.evaluate_batch_loss(state, batch, w_inst, cfg, crop_seed, 0)
        ad.zero_grads(params)
        ad.backward(total)

    assert peak_bytes(step, warm_up=True) <= 21e6


# SHA-256 of each model's parameters (sorted by name) after 30 steps on the
# criterion-7 corpus and matrix: bit-identical since each step's instance
# weights came from slicing those of the whole matrix
_CRITERION_7_SHA256 = {
    "sigmoid": "955cad5f9cdb5e08c66448620e16dbfe703968884a43af90240eca33546c1f33",
    "no_kernel": "e7a1451eec8d3ba0ba40c41f3ea40d36d647889916a37506b05a994f86de3958",
    "gaussian": "c74088312a95c325f3fde551e1be5169e7c3927754ac3be4f4060c704ba4ce96",
    "laplacian": "a5e1d40a8bd7f51bd1bbeeec5c14366428a44c5f08850af952a96ea54161b542",
}


@pytest.fixture(scope="module")
def criterion_7_inputs():
    tset = ds.znormalize(ds.make_synthetic(
        20, 64, [{"kind": "sine", "freq": 2.0}, {"kind": "square", "freq": 3.0},
                 {"kind": "sawtooth", "freq": 4.0}], noise_std=0.3, seed=7))
    dm = dist.pairwise(tset, "dtw")
    assert hashlib.sha256(dm.values.tobytes()).hexdigest() == (
        "be1dc77d1811b337747088b72677126d3a391a2a3a32306a3286fec264deaae5")
    return tset, dm


@pytest.mark.parametrize("kernel", sorted(_CRITERION_7_SHA256))
def test_criterion_7_parameters_are_pinned(criterion_7_inputs, kernel):
    tset, dm = criterion_7_inputs
    cfg = tr.TrainConfig(iters=30, seed=0, tau_inst=20.0, tau_temp=2.5, inst_kernel=kernel)
    model, _ = tr.pretrain(tset, dm, cfg)
    digest = hashlib.sha256()
    for name in sorted(model.params):
        digest.update(model.params[name].data.tobytes())
    assert digest.hexdigest() == _CRITERION_7_SHA256[kernel]


def test_lambda_zero_logs_the_soft_instance_terms():
    # with one seed both runs draw the same model, batch and crop on step 1
    tset, dm, cfg = _setup(iters=1)
    logged = {}
    for lam in (0.0, 0.5):
        _, history = tr.pretrain(tset, dm, replace(cfg, lam=lam))
        logged[lam] = [li for _, li, _ in history[0][1].per_level]
    assert logged[0.0] == logged[0.5]
