"""Acceptance suite: one test per criterion, each printing a pass/fail line."""
import time

import numpy as np
import pytest

import tscontrast as tc
from tscontrast import assign as asg
from tscontrast import autodiff as ad
from tscontrast import cli
from tscontrast import distance as dist
from tscontrast import loss as losses
from tscontrast import oracle
from tscontrast import train as tr


def _report(capsys, num, ok, detail):
    with capsys.disabled():
        print(f"\n[criterion {num:2d}] {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def test_criterion_1_equation_fidelity(capsys):
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(101)))
    t0 = time.monotonic()
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 5))       # N <= 4
        t = int(rng.integers(1, 9))       # T <= 8
        m = int(rng.integers(1, 7))       # M <= 6
        reps = rng.normal(size=(2 * n, t, m))
        w = rng.uniform(size=(n, n))
        w = (w + w.T) / 2
        ours = float(losses.soft_instance_loss(ad.Tensor(reps), asg.extend_instance(w)).data)
        worst = max(worst, abs(ours - oracle.scalar_loss_eq3(reps, w)))
        if t >= 2:
            w_t = rng.uniform(size=(t, t))
            ours = float(losses.soft_temporal_loss(ad.Tensor(reps), asg.extend_temporal(w_t)).data)
            worst = max(worst, abs(ours - oracle.scalar_loss_eq6(reps, w_t)))
    elapsed = time.monotonic() - t0
    ok = worst < 1e-10 and elapsed < 10.0
    _report(capsys, 1, ok,
            f"instance/temporal losses vs scalar oracles: worst |diff| = {worst:.2e} "
            f"(tol 1e-10) over 100 random cases in {elapsed:.1f}s")


def test_criterion_2_hard_reduction(capsys):
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(102)))
    worst = 0.0
    for _ in range(20):
        n, t, m = int(rng.integers(2, 5)), int(rng.integers(2, 7)), int(rng.integers(1, 6))
        reps = rng.normal(size=(2 * n, t, m))
        inst = float(losses.soft_instance_loss(
            ad.Tensor(reps), asg.extend_instance(np.zeros((n, n)))).data)
        worst = max(worst, abs(inst - oracle.infonce_instance(reps)))
        temp = float(losses.soft_temporal_loss(
            ad.Tensor(reps), asg.extend_temporal(np.zeros((t, t)))).data)
        worst = max(worst, abs(temp - oracle.infonce_temporal(reps)))
    ok = worst < 1e-10
    _report(capsys, 2, ok,
            f"zero soft weights reduce both losses to transcribed InfoNCE: "
            f"worst |diff| = {worst:.2e} (tol 1e-10)")


def test_criterion_3_kl_identity(capsys):
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(103)))
    worst = 0.0
    for _ in range(100):
        n, t, m = int(rng.integers(2, 5)), int(rng.integers(2, 7)), int(rng.integers(1, 6))
        reps = rng.normal(size=(2 * n, t, m))
        w = rng.uniform(size=(n, n))
        lhs = float(losses.soft_instance_loss(ad.Tensor(reps), asg.extend_instance(w)).data)
        worst = max(worst, abs(lhs - oracle.scaled_kl_loss(reps, w, temporal=False)))
        w_t = rng.uniform(size=(t, t))
        lhs = float(losses.soft_temporal_loss(ad.Tensor(reps), asg.extend_temporal(w_t)).data)
        worst = max(worst, abs(lhs - oracle.scaled_kl_loss(reps, w_t, temporal=True)))
    ok = worst < 1e-8
    _report(capsys, 3, ok,
            f"loss equals Z*(KL(Q||P) + H(Q)) for both families: "
            f"worst |diff| = {worst:.2e} (tol 1e-8) over 100 configs")


def test_criterion_4_gradient_correctness(capsys):
    t0 = time.monotonic()
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(104)))
    n, t, d, m = 3, 8, 2, 4
    model = tc.init_encoder(tr.TrainConfig(hidden=6, repr_dims=m, depth=2), d, seed=1)
    xa = rng.normal(size=(n, t, d))
    xb = rng.normal(size=(n, t, d))
    dvals = rng.uniform(size=(n, n))
    dvals = (dvals + dvals.T) / 2
    np.fill_diagonal(dvals, 0.0)
    dm = dist.DistanceMatrix(values=dvals / dvals.max(), metric="dtw")
    cfg = tr.TrainConfig(lam=0.5)

    def forward():
        ra = tc.encode(model, xa)
        rb = tc.encode(model, xb)
        total, _ = losses.joint_loss(ra, rb, asg.w_instance(dm, cfg), cfg)
        return total

    total = forward()
    ad.zero_grads(model.params.values())
    ad.backward(total)
    names = sorted(model.params)
    fd = oracle.fd_gradient(lambda: float(forward().data),
                            [model.params[name].data for name in names])
    worst = 0.0
    for name, g in zip(names, fd):
        got = model.params[name].grad
        rel = np.linalg.norm(got - g) / max(np.linalg.norm(g), 1e-10)
        worst = max(worst, rel)
    elapsed = time.monotonic() - t0
    ok = worst < 1e-4 and elapsed < 60.0
    _report(capsys, 4, ok,
            f"joint-loss gradients vs central finite differences for all "
            f"{len(names)} encoder parameter tensors: worst rel err = {worst:.2e} "
            f"(tol 1e-4) in {elapsed:.1f}s")


def test_criterion_5_dtw_oracle_equivalence(capsys):
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(105)))
    worst_exact = 0.0
    for _ in range(40):
        ta, tb = int(rng.integers(1, 7)), int(rng.integers(1, 7))
        dch = int(rng.integers(1, 3))
        a, b = rng.normal(size=(ta, dch)), rng.normal(size=(tb, dch))
        worst_exact = max(worst_exact, abs(dist.dtw(a, b) - oracle.brute_dtw(a, b)))
    bitwise = True
    for _ in range(5):
        a, b = rng.normal(size=(32, 1)), rng.normal(size=(27, 1))
        bitwise = bitwise and dist.fastdtw(a, b, radius=32) == dist.dtw(a, b)
    worst_rel = 0.0
    ts = np.arange(100) / 100
    for _ in range(20):
        f = rng.uniform(1.0, 3.0)
        shift = rng.uniform(0.0, 0.15)
        a = np.sin(2 * np.pi * f * ts)[:, None]
        b = np.sin(2 * np.pi * f * (ts + shift))[:, None]
        exact = dist.dtw(a, b)
        if exact > 0:
            worst_rel = max(worst_rel, abs(dist.fastdtw(a, b, radius=1) - exact) / exact)
    ok = worst_exact < 1e-12 and bitwise and worst_rel <= 0.05
    _report(capsys, 5, ok,
            f"exact DTW vs brute force worst |diff| = {worst_exact:.2e}; "
            f"full-radius approximation bit-exact = {bitwise}; radius-1 worst rel err "
            f"on length-100 smooth pairs = {worst_rel:.4f} (tol 0.05)")


def test_criterion_6_kernel_properties(capsys):
    ok = True
    details = []
    # monotonicity in D for every instance kernel
    d_grid = np.linspace(0, 1, 21)
    m = dist.DistanceMatrix(values=np.tile(d_grid, (21, 1)), metric="dtw")
    for kernel in asg.INSTANCE_KERNELS:
        cfg = tr.TrainConfig(inst_kernel=kernel, tau_inst=8.0)
        w = asg.w_instance(m, cfg)[0]
        mono = bool(np.all(np.diff(w) <= 1e-12))
        ok = ok and mono
        details.append(f"inst:{kernel} mono={mono}")
    # monotonicity in |t - t'| for every temporal kernel
    for kernel in asg.TEMPORAL_KERNELS:
        cfg = tr.TrainConfig(temp_kernel=kernel)
        w = asg.w_temporal(12, 0, cfg)[0]
        mono = bool(np.all(np.diff(w) <= 1e-12))
        ok = ok and mono
        details.append(f"temp:{kernel} mono={mono}")
    # w_I = alpha at D = 0
    alpha_ok = True
    zero = dist.DistanceMatrix(values=np.zeros((2, 2)), metric="dtw")
    for alpha in (0.25, 0.5, 0.75, 1.0):
        w = asg.w_instance(zero, tr.TrainConfig(alpha=alpha))
        alpha_ok = alpha_ok and abs(w[0, 1] - alpha) < 1e-12
    ok = ok and alpha_ok
    # hierarchical sharpness tau_T = m^k * tau_base, verified numerically
    tau_ok = True
    for m_val in (2, 3):
        cfg = tr.TrainConfig(tau_temp=0.7, pool_m=m_val)
        for k in range(4):
            expected = m_val ** k * 0.7
            tau_ok = tau_ok and abs(asg.effective_tau(cfg, k) - expected) < 1e-12
            # the weight at gap 1 must match a direct sigmoid at the scaled tau
            w = asg.w_temporal(4, k, cfg)
            direct = 2.0 / (1.0 + np.exp(expected))
            tau_ok = tau_ok and abs(w[0, 1] - direct) < 1e-12
    ok = ok and tau_ok
    _report(capsys, 6, ok,
            f"all kernels monotone ({'; '.join(details)}); weight at zero distance "
            f"equals alpha = {alpha_ok}; hierarchical sharpness m^k scaling = {tau_ok}")


def _desk_corpus():
    return tc.znormalize(tc.make_synthetic(
        20, 64,
        [{"kind": "sine", "freq": 2.0}, {"kind": "square", "freq": 3.0},
         {"kind": "sawtooth", "freq": 4.0}],
        noise_std=0.3, seed=7))


def _probe_accuracy(model, tset):
    reps = tc.instance_repr(tc.encode(model, tset.values))
    report = tc.classify_probe(reps[::2], tset.labels[::2], reps[1::2], tset.labels[1::2])
    return report.accuracy


def test_criterion_7_end_to_end_desk_experiment(capsys):
    t0 = time.monotonic()
    tset = _desk_corpus()
    assert tset.n == 60 and tset.t_max == 64
    dm = dist.pairwise(tset, "dtw")
    # lambda = 0.5, lr = 0.001, bs = 8 are the pinned defaults; the sharpness
    # values are corpus-tuned within the sanctioned search ranges
    cfg = tr.TrainConfig(iters=200, seed=0, tau_inst=20.0, tau_temp=2.5)
    assert cfg.lam == 0.5 and cfg.lr == 0.001 and cfg.batch_size == 8
    model, history = tr.pretrain(tset, dm, cfg)
    initial = history[0][1].total
    final = float(np.mean([b.total for _, b in history[-10:]]))
    ratio = final / initial
    accuracy = _probe_accuracy(model, tset)

    lines = ["hard-CL vs soft-CL probe accuracy over 5 seeds:"]
    for seed in range(5):
        soft_cfg = tr.TrainConfig(iters=200, seed=seed, tau_inst=20.0, tau_temp=2.5)
        hard_cfg = tr.TrainConfig(iters=200, seed=seed, hard=True)
        soft_model, _ = tr.pretrain(tset, dm, soft_cfg)
        hard_model, _ = tr.pretrain(tset, dm, hard_cfg)
        lines.append(f"  seed {seed}: hard = {_probe_accuracy(hard_model, tset):.3f}, "
                     f"soft = {_probe_accuracy(soft_model, tset):.3f}")
    with capsys.disabled():
        print("\n" + "\n".join(lines))

    elapsed = time.monotonic() - t0
    ok = ratio <= 0.5 and accuracy >= 0.90 and elapsed < 300.0
    _report(capsys, 7, ok,
            f"60-series 3-class corpus, 200 iterations: loss {initial:.3f} -> "
            f"{final:.3f} (ratio {ratio:.3f}, need <= 0.5), probe accuracy "
            f"{accuracy:.3f} (need >= 0.90), in {elapsed:.0f}s (< 300s)")


def test_criterion_8_anomaly_smoke(capsys):
    t0 = time.monotonic()
    tset = tc.znormalize(tc.make_synthetic(
        20, 128, [{"kind": "sine", "freq": 3.0}], noise_std=0.05, seed=11))
    dm = dist.pairwise(tset, "euc")
    cfg = tr.TrainConfig(iters=100, lam=0.0, mask_mode="binomial", seed=3,
                         hidden=16, depth=3)
    model, _ = tr.pretrain(tset, dm, cfg)

    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(42)))
    ts = np.arange(128) / 128
    series = np.sin(2 * np.pi * 3.0 * ts + 1.0) + rng.normal(0, 0.05, 128)
    spike_at = 40
    series[spike_at] += 5.0
    series = (series - series.mean()) / series.std()

    scores = tc.anomaly_scores(model, series[:, None])
    np.testing.assert_allclose(scores, oracle.anomaly_scores(model, series[:, None]),
                               rtol=1e-12, atol=1e-12)
    argmax_ok = int(np.argmax(scores)) == spike_at
    labels = np.zeros(128, dtype=bool)
    labels[spike_at] = True
    best_f1, best_c = 0.0, None
    for c in np.arange(0.5, 8.01, 0.25):
        _, report = tc.threshold_anomalies(scores, labels=labels, c=float(c))
        if report.f1 > best_f1:
            best_f1, best_c = report.f1, float(c)
    elapsed = time.monotonic() - t0
    ok = argmax_ok and best_f1 >= 0.9 and elapsed < 120.0
    _report(capsys, 8, ok,
            f"score argmax on planted spike index = {argmax_ok}; best F1 = "
            f"{best_f1:.3f} at c = {best_c} (need >= 0.9); in {elapsed:.0f}s (< 120s)")


def test_criterion_9_determinism_and_persistence(capsys, tmp_path):
    tset = tc.znormalize(tc.make_synthetic(
        4, 16, [{"kind": "sine", "freq": 2.0}, {"kind": "square", "freq": 3.0}],
        noise_std=0.1, seed=2))
    dm = dist.pairwise(tset, "dtw")
    base = dict(batch_size=4, hidden=6, repr_dims=3, depth=2, seed=5)

    cfg = tr.TrainConfig(iters=8, **base)
    model_a, _ = tr.pretrain(tset, dm, cfg)
    model_b, _ = tr.pretrain(tset, dm, cfg)
    repro = all(np.array_equal(model_a.params[n].data, model_b.params[n].data)
                for n in model_a.params)

    cache = tmp_path / "dist.bin"
    dist.save_matrix(dm, cache)
    cache_ok = np.array_equal(dist.load_matrix(cache).values, dm.values)

    half_cfg = tr.TrainConfig(iters=4, **base)
    state = tr.TrainState.fresh(half_cfg, tset.dims)
    tr.pretrain(tset, dm, half_cfg, state=state)
    ckpt = tmp_path / "half.npz"
    tr.save_checkpoint(state, half_cfg, ckpt)
    loaded, _ = tr.load_checkpoint(ckpt)
    ckpt_ok = all(np.array_equal(loaded.model.params[n].data, state.model.params[n].data)
                  and np.array_equal(loaded.m[n], state.m[n])
                  and np.array_equal(loaded.v[n], state.v[n])
                  for n in state.model.params)
    model_res, _ = tr.pretrain(tset, dm, cfg, state=loaded)
    resume_ok = all(np.array_equal(model_a.params[n].data, model_res.params[n].data)
                    for n in model_a.params)

    ok = repro and cache_ok and ckpt_ok and resume_ok
    _report(capsys, 9, ok,
            f"fixed-seed rerun bitwise equal = {repro}; distance cache round-trip "
            f"bit-exact = {cache_ok}; checkpoint round-trip bit-exact = {ckpt_ok}; "
            f"resumed == uninterrupted = {resume_ok}")


def test_criterion_10_ablation_harness(capsys, tmp_path):
    import json
    raw = {
        "dataset": {"synthetic": {
            "n_per_class": 3, "length": 16, "seed": 2, "noise_std": 0.1,
            "classes": [{"kind": "sine", "freq": 2.0}, {"kind": "square", "freq": 3.0}],
        }},
        "distance": {"metric": "euc"},
        "train": {"iters": 2, "batch_size": 4, "hidden": 6, "repr_dims": 3, "depth": 2},
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(raw))
    expected = {"alpha": 4, "assignment": 8, "metric": 4, "hierarchy": 2}
    counts = {}
    values = {}
    for axis, rows in expected.items():
        out = tmp_path / f"{axis}.csv"
        code = cli.main(["ablate", "--config", str(cfg_path), "--axis", axis,
                         "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        counts[axis] = len(lines) - 1
        values[axis] = [line.split(",")[1] for line in lines[1:]]
    grids_ok = (
        values["alpha"] == ["0.25", "0.5", "0.75", "1.0"]
        and values["assignment"] == ["neighbor", "linear", "gaussian", "sigmoid",
                                     "no_kernel", "gaussian", "laplacian", "sigmoid"]
        and values["metric"] == ["cos", "euc", "dtw", "tam"]
        and values["hierarchy"] == ["True", "False"]
    )
    ok = counts == expected and grids_ok
    _report(capsys, 10, ok,
            f"ablation sweeps emit one CSV row per configuration: {counts} "
            f"(expected {expected}); grid values correct = {grids_ok}")
