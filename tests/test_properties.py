"""Cross-module property checks complementing the per-module unit tests."""
import numpy as np
import pytest

import tscontrast as tc
from tscontrast import assign as asg
from tscontrast import autodiff as ad
from tscontrast import data as ds
from tscontrast import distance as dist
from tscontrast import evaluate as ev
from tscontrast import loss as losses
from tscontrast import oracle
from tscontrast import train as tr
from tscontrast.config import TrainConfig


def test_dtw_small_closed_form():
    a = np.array([0.0, 1.0, 2.0])
    b = np.array([0.0, 2.0])
    # best alignment: (0,0) (1,0 or 1) (2,1); cheapest total cost is 1
    assert dist.dtw(a, b) == pytest.approx(oracle.brute_dtw(a, b))
    assert dist.dtw(a, b) == pytest.approx(1.0)


def test_dtw_bounded_by_aligned_cost(rng):
    for _ in range(20):
        t = int(rng.integers(2, 12))
        a = rng.normal(size=(t, 2))
        b = rng.normal(size=(t, 2))
        aligned = float(np.linalg.norm(a - b, axis=1).sum())
        assert dist.dtw(a, b) <= aligned + 1e-12


def test_brute_dtw_length_one():
    assert oracle.brute_dtw([3.0], [5.5]) == pytest.approx(2.5)


def test_cosine_antipodal(rng):
    # raw cos distances 2, 0, 2: the antipodal pairs normalize to 1, the identical pair to 0
    a = rng.normal(size=(6, 1))
    values = dist.pairwise(ds.TimeSeriesSet(values=np.stack([a, -a, a]), lengths=[6, 6, 6]),
                           "cos").values
    assert values[0, 1] == values[1, 2] == 1.0
    assert values[0, 2] == 0.0


def test_pairwise_two_series_single_value():
    # one distinct off-diagonal value: maps to all zeros by convention
    values = np.zeros((2, 4, 1))
    values[0, :, 0] = [0, 1, 2, 3]
    values[1, :, 0] = [1, 2, 3, 4]
    m = dist.pairwise(ds.TimeSeriesSet(values=values, lengths=[4, 4]), "euc")
    assert np.all(m.values == 0.0)


def test_znormalize_closed_form_and_idempotent():
    tset = ds.TimeSeriesSet(values=np.array([[[1.0], [2.0], [3.0]]]), lengths=[3])
    out = ds.znormalize(tset)
    np.testing.assert_allclose(out.values[0, :, 0], [-1.2247448, 0.0, 1.2247448], atol=1e-6)
    again = ds.znormalize(out)
    np.testing.assert_allclose(again.values, out.values, atol=1e-12)


def test_synthetic_classes_separate_under_dtw():
    tset = ds.znormalize(ds.make_synthetic(
        3, 32, [{"kind": "sine", "freq": 1.0}, {"kind": "sine", "freq": 4.0}],
        noise_std=0.0, seed=4))
    m = dist.pairwise(tset, "dtw")
    labels = tset.labels
    within = m.values[(labels[:, None] == labels[None, :]) & ~np.eye(6, dtype=bool)]
    across = m.values[labels[:, None] != labels[None, :]]
    # random phases can put same-class sines in antiphase, so compare averages
    assert within.mean() < across.mean()


def test_instance_weight_closed_forms():
    d1 = dist.DistanceMatrix(values=np.array([[0.0, 1.0], [1.0, 0.0]]), metric="dtw")
    w = asg.w_instance(d1, TrainConfig(tau_inst=10.0, alpha=0.5))
    assert w[0, 1] == pytest.approx(1.0 / (1.0 + np.exp(10.0)))
    w = asg.w_instance(d1, TrainConfig(inst_kernel="no_kernel"))
    assert w[0, 0] == 1.0 and w[0, 1] == 0.0


def test_instance_sharpness_limits():
    d = dist.DistanceMatrix(values=np.array([[0.0, 0.4], [0.4, 0.0]]), metric="dtw")
    tight = asg.w_instance(d, TrainConfig(tau_inst=1e6, alpha=0.5))
    assert tight[0, 1] == pytest.approx(0.0, abs=1e-12)  # hard-CL limit
    loose = asg.w_instance(d, TrainConfig(tau_inst=1e-9, alpha=0.5))
    assert loose[0, 1] == pytest.approx(0.5, abs=1e-6)   # -> alpha everywhere


def test_temporal_weight_closed_forms():
    cfg = TrainConfig(tau_temp=1.0)
    w = asg.w_temporal(5, 0, cfg)
    assert w[2, 2] == pytest.approx(1.0)                       # 2*sigmoid(0)
    assert w[0, 2] == pytest.approx(2.0 / (1.0 + np.exp(2.0)))


def test_extend_zeroed_soft_weights_is_hard_matrix(rng):
    n = 3
    ext = asg.extend_instance(np.zeros((n, n)))
    hard = np.zeros((2 * n, 2 * n))
    for i in range(2 * n):
        hard[i, (i + n) % (2 * n)] = 1.0
    np.testing.assert_array_equal(ext, hard)
    np.testing.assert_array_equal(ext.sum(axis=1), 1.0)  # hard: Z = 1 and one-hot rows


def test_instance_loss_degenerate_cases(rng):
    # N = 1: each anchor's only candidate is its positive, so the loss is -log 1
    reps = rng.normal(size=(2, 3, 4))
    loss = losses.soft_instance_loss(reps, asg.extend_instance(np.zeros((1, 1))))
    assert float(loss.data) == pytest.approx(0.0, abs=1e-12)
    # all representations equal: every candidate is equally likely
    reps = np.ones((6, 2, 4))
    w = rng.uniform(size=(3, 3))
    w = (w + w.T) / 2
    loss = losses.soft_instance_loss(reps, asg.extend_instance(w))
    assert float(loss.data) == pytest.approx(oracle.scalar_loss_eq3(reps, w), abs=1e-12)


def test_temporal_loss_T1_positive_only(rng):
    reps = rng.normal(size=(4, 1, 3))  # T=1: doubled axis has just the pair
    w_ext = asg.extend_temporal(np.zeros((1, 1)))
    loss = float(losses.soft_temporal_loss(ad.Tensor(reps), w_ext).data)
    assert loss == pytest.approx(0.0, abs=1e-12)  # single candidate: -log 1


def test_loss_invariant_under_batch_permutation(rng):
    n, t, m = 4, 6, 3
    ra, rb = rng.normal(size=(n, t, m)), rng.normal(size=(n, t, m))
    d = rng.uniform(size=(n, n))
    d = (d + d.T) / 2
    np.fill_diagonal(d, 0.0)
    cfg = TrainConfig()
    dm = dist.DistanceMatrix(values=d / d.max(), metric="dtw")
    base, _ = losses.joint_loss(ra, rb, asg.w_instance(dm, cfg), cfg)
    perm = rng.permutation(n)
    dmp = dist.DistanceMatrix(values=dm.values[np.ix_(perm, perm)], metric="dtw")
    permuted, _ = losses.joint_loss(ra[perm], rb[perm], asg.w_instance(dmp, cfg), cfg)
    assert float(permuted.data) == pytest.approx(float(base.data), rel=1e-12)


def test_loss_monotone_in_weight_of_negative_logp(rng):
    n, t, m = 3, 4, 3
    reps = rng.normal(size=(2 * n, t, m))
    w = rng.uniform(0.1, 0.4, size=(n, n))
    base = float(losses.soft_instance_loss(ad.Tensor(reps), asg.extend_instance(w)).data)
    w2 = w.copy()
    w2[0, 1] += 0.1  # log p < 0 always, so more weight means more loss
    bumped = float(losses.soft_instance_loss(ad.Tensor(reps), asg.extend_instance(w2)).data)
    assert bumped > base


def test_fd_gradient_quadratic_and_order():
    p = np.array([1.5, -0.5])
    grads = oracle.fd_gradient(lambda: float((p ** 2).sum()), [p])
    np.testing.assert_allclose(grads[0], 2 * p, atol=1e-9)
    # central differences converge at order h^2
    x = np.array([0.7])
    errs = []
    for h in (1e-2, 1e-3):
        g = oracle.fd_gradient(lambda: float(np.sin(x[0]) ** 3), [x], h=h)[0][0]
        errs.append(abs(g - 3 * np.sin(0.7) ** 2 * np.cos(0.7)))
    slope = np.log10(errs[0] / errs[1])
    assert 1.8 < slope < 2.2


def test_encode_batch_permutation_consistent(rng):
    model = tc.init_encoder(TrainConfig(hidden=6, repr_dims=3, depth=2), 2, seed=0)
    x = rng.normal(size=(4, 10, 2))
    out = tc.encode(model, x).data
    perm = np.array([2, 0, 3, 1])
    np.testing.assert_allclose(tc.encode(model, x[perm]).data, out[perm])


def test_binomial_mask_reproducible(rng):
    model = tc.init_encoder(TrainConfig(hidden=4, repr_dims=2, depth=1), 1, seed=0)
    x = rng.normal(size=(2, 12, 1))
    outs = []
    for _ in range(2):
        mask_rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(77)))
        outs.append(tc.encode(model, x, mask_mode="binomial", rng=mask_rng).data)
    np.testing.assert_array_equal(outs[0], outs[1])


def test_zero_lr_step_is_identity():
    tset = ds.znormalize(ds.make_synthetic(
        3, 16, [{"kind": "sine", "freq": 2.0}, {"kind": "square", "freq": 3.0}],
        noise_std=0.1, seed=2))
    dm = dist.pairwise(tset, "euc")
    cfg = tr.TrainConfig(iters=2, batch_size=4, hidden=6, repr_dims=3, depth=2,
                         seed=1, lr=0.0)
    state = tr.TrainState.fresh(cfg, tset.dims)
    before = {n: p.data.copy() for n, p in state.model.params.items()}
    tr.pretrain(tset, dm, cfg, state=state)
    for name, p in state.model.params.items():
        np.testing.assert_array_equal(p.data, before[name])


def test_probe_invariant_under_orthogonal_transform(rng):
    train = rng.normal(size=(12, 4))
    labels = np.array([0, 1, 2] * 4)
    test = rng.normal(size=(6, 4))
    test_labels = np.array([0, 1, 2, 0, 1, 2])
    base = ev.classify_probe(train, labels, test, test_labels).accuracy
    q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
    rotated = ev.classify_probe(train @ q, labels, test @ q, test_labels).accuracy
    assert base == rotated


def test_constant_encoder_zero_anomaly_scores(rng):
    model = tc.init_encoder(TrainConfig(hidden=4, repr_dims=2, depth=1), 1, seed=0)
    for name, p in model.params.items():
        p.data = np.zeros_like(p.data)  # encoder output independent of input
    scores = ev.anomaly_scores(model, rng.normal(size=(16, 1)))
    np.testing.assert_allclose(scores, 0.0, atol=1e-12)


def test_equal_scores_no_anomalies():
    flags, _ = ev.threshold_anomalies(np.full(10, 2.0), c=1.0)
    assert not flags.any()
