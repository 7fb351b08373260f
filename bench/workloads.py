"""The three benchmark workloads: inputs made from a seed, set-up, one job,
and the checks on each job's outputs.

Every call into the library goes through a module attribute looked up at
call time (``distance.pairwise``, ``encoder.encode``, ...), so the tracer in
``tracer.py`` sees it when it is installed.  Each workload is a closed loop
with one client: the next request starts when the previous one has finished.
"""
from __future__ import annotations

import functools
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from tscontrast import data, distance, encoder, evaluate, oracle, train

# The criterion-7 corpus: 3 classes x 20 series, length 64, noise 0.3.
DESK_CLASSES = (
    {"kind": "sine", "freq": 2.0},
    {"kind": "square", "freq": 3.0},
    {"kind": "sawtooth", "freq": 4.0},
)


def desk_corpus(seed: int) -> data.TimeSeriesSet:
    return data.znormalize(data.make_synthetic(20, 64, DESK_CLASSES, noise_std=0.3, seed=seed))


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence([seed, stream])))


def _dp_cells(lengths) -> int:
    """Cells of one full DTW table per pair: sum over i < j of len_i * len_j."""
    lengths = [int(x) for x in lengths]
    return sum(a * b for i, a in enumerate(lengths) for b in lengths[i + 1:])


class Checks:
    """Counts output checks; a failed one is remembered by its description."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok, what: str) -> None:
        self.attempted += 1
        if not bool(ok):
            self.failures.append(what)

    @property
    def failed(self) -> int:
        return len(self.failures)


class Workload:
    """Set-up once, then jobs in a closed loop.

    ``setup`` builds the inputs under ``workdir``; ``job`` runs one job and
    returns its outputs; ``check`` inspects them afterwards.  Both time every
    library call through ``timed``, which keeps the rescaled seconds in
    ``timings[key]`` and wall seconds in ``raw[key]``, and sums the parts of a
    set-up or job under ``"setup"``/``"job"``.  A request is what the one
    client waits for: a whole job unless the workload names a part.

    With a ``clock`` (see ``refclock.py``) every timed call is preceded by a
    fresh sample of the machine's speed, and its time is rescaled by it;
    without one, rescaled and wall seconds are equal.
    """

    name = ""
    request = "job"
    work_unit = ""

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = Path(workdir)
        self.timings: dict[str, list[float]] = {}
        self.raw: dict[str, list[float]] = {}
        self.clock = None
        self._total = self._raw_total = 0.0

    def _record(self, key: str, scaled: float, wall: float) -> None:
        self.timings.setdefault(key, []).append(scaled)
        self.raw.setdefault(key, []).append(wall)

    def timed(self, key: str, fn, *args, **kwargs):
        """Call ``fn`` and record its time under ``key``; returns its result."""
        speed = 1.0
        if self.clock is not None:
            last = self.raw.get(key)
            speed = self.clock.scale(last[-1] if last else 0.0)
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        wall = time.perf_counter() - t0
        self._record(key, wall * speed, wall)
        self._total += wall * speed
        self._raw_total += wall
        return out

    def _run(self, key: str, body):
        self._total = self._raw_total = 0.0
        out = body()
        self._record(key, self._total, self._raw_total)
        return out

    def run_setup(self) -> None:
        self._run("setup", self.setup)

    def run_job(self) -> dict:
        return self._run("job", self.job)

    def setup(self) -> None:
        raise NotImplementedError

    def job(self) -> dict:
        raise NotImplementedError

    def check(self, outputs: dict, checks: Checks) -> None:
        raise NotImplementedError

    def work(self) -> tuple[float, float]:
        """(work units, rescaled seconds spent on them) in the last job."""
        raise NotImplementedError

    def computed(self) -> dict:
        """Exact per-job counts derived from the inputs, not from timing."""
        return {}

    def named_metrics(self) -> dict:
        """The workload's own end-to-end figures, as name -> (value, unit)."""
        return {}

    def _median(self, key: str) -> float:
        return float(np.median(self.timings[key]))


class DeskDistances(Workload):
    """``pairwise`` for every metric on a 6-series slice of the criterion-7
    corpus, each followed by ``save_matrix``.  Job j takes series j mod 10,
    j mod 10 + 10, ..., so ten jobs cover all 60 series and every job aligns
    15 pairs per metric."""

    name = "desk-distances"
    work_unit = "DTW-family pairs"
    METHODS = (
        ("dtw", "dtw", None),
        ("dtw_band", "dtw", {"band": 8}),
        ("fastdtw", "fastdtw", {"radius": 1}),
        ("tam", "tam", None),
        ("euc", "euc", None),
        ("cos", "cos", None),
    )
    DTW_FAMILY = ("dtw", "dtw_band", "fastdtw", "tam")
    STRIDE = 10
    PREFIX = 6  # brute_dtw enumerates every path, so prefixes stay short

    def setup(self) -> None:
        self.corpus = self.timed("corpus", desk_corpus, self.seed)
        self.jobs_done = 0
        self.pick = _rng(self.seed, 1)

    def _subset(self, j: int) -> data.TimeSeriesSet:
        return self.corpus.subset(np.arange(j % self.STRIDE, self.corpus.n, self.STRIDE))

    def job(self) -> dict:
        sub = self._subset(self.jobs_done)
        self.jobs_done += 1
        self._pairs = sub.n * (sub.n - 1) // 2
        matrices = {}
        for key, metric, params in self.METHODS:
            m = self.timed(f"pairwise.{key}", distance.pairwise, sub, metric, params)
            self.timed("save", distance.save_matrix, m, self.workdir / f"{key}.bin")
            matrices[key] = m.values
        return {"subset": sub, "matrices": matrices}

    def work(self) -> tuple[float, float]:
        spent = sum(self.timings[f"pairwise.{k}"][-1] for k in self.DTW_FAMILY)
        return len(self.DTW_FAMILY) * self._pairs, spent

    def check(self, outputs: dict, checks: Checks) -> None:
        for key, values in outputs["matrices"].items():
            off = values[~np.eye(values.shape[0], dtype=bool)]
            checks.check(np.array_equal(values, values.T), f"{key} matrix symmetric")
            checks.check(np.all(np.diag(values) == 0.0), f"{key} matrix has a zero diagonal")
            checks.check(off.min() == 0.0 and off.max() == 1.0, f"{key} off-diagonal spans [0, 1]")
        sub = outputs["subset"]
        for _ in range(2):
            i, j = (int(x) for x in self.pick.choice(sub.n, size=2, replace=False))
            a, b = sub.series(i), sub.series(j)
            exact = distance.dtw(a, b)
            pa, pb = a[: self.PREFIX], b[: self.PREFIX]
            checks.check(np.isclose(distance.dtw(pa, pb), oracle.brute_dtw(pa, pb),
                                    rtol=1e-12, atol=1e-12),
                         f"dtw equals brute_dtw on a prefix of pair ({i}, {j})")
            checks.check(distance.fastdtw(a, b, radius=1) >= exact - 1e-12,
                         f"fastdtw >= dtw on pair ({i}, {j})")
            checks.check(distance.dtw(a, b, band=8) >= exact - 1e-12,
                         f"banded dtw >= dtw on pair ({i}, {j})")
            checks.check(0.0 <= distance.tam(a, b) <= 3.0, f"tam in [0, 3] on pair ({i}, {j})")

    def computed(self) -> dict:
        cache = sum((self.workdir / f"{key}.bin").stat().st_size for key, _, _ in self.METHODS)
        return {"distance.dp_cells": _dp_cells(self._subset(0).lengths),
                "distance.cache_bytes": cache}

    def named_metrics(self) -> dict:
        return {f"{key}_pairs_per_s": (self._pairs / self._median(f"pairwise.{key}"), "1/s")
                for key in self.DTW_FAMILY}


def stepwise_pretrain(tset, dm, cfg, run_step=None):
    """``pretrain`` called once per step on one resumable state.

    Returns (model, history); by the resume property this equals one
    ``pretrain(tset, dm, cfg)`` call bit for bit.  ``run_step(step)``, if
    given, runs each step (a no-argument callable) and returns its result."""
    state = train.TrainState.fresh(cfg, tset.dims)
    history = []
    for k in range(cfg.iters):
        step = functools.partial(train.pretrain, tset, dm, replace(cfg, iters=k + 1), state=state)
        _, h = step() if run_step is None else run_step(step)
        history.extend(h)
    return state.model, history


class DeskPretrain(Workload):
    """Cache hit, then the criterion-7 training run driven one step per
    ``pretrain`` call, then ``encode`` and the 1-NN probe.

    Set-up computes the DTW matrix of the whole corpus and saves it; each job
    reads it back with ``load_matrix``, as ``tscontrast pretrain`` does when
    its cache exists.  A job is the time to a probed model."""

    name = "desk-pretrain"
    request = "step"
    work_unit = "training steps"

    ITERS = 200

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.cfg = train.TrainConfig(iters=self.ITERS, seed=0, tau_inst=20.0, tau_temp=2.5)
        self.cache = self.workdir / "desk-dtw.bin"

    def setup(self) -> None:
        self.corpus = self.timed("corpus", desk_corpus, self.seed)
        self.matrix = self.timed("setup.pairwise", distance.pairwise, self.corpus, "dtw")
        self.timed("setup.save", distance.save_matrix, self.matrix, self.cache)

    def _probe(self, model):
        reps = encoder.instance_repr(encoder.encode(model, self.corpus.values))
        labels = self.corpus.labels
        return reps, evaluate.classify_probe(reps[::2], labels[::2], reps[1::2], labels[1::2])

    def job(self) -> dict:
        dm = self.timed("load", distance.load_matrix, self.cache)
        model, history = stepwise_pretrain(self.corpus, dm, self.cfg,
                                           functools.partial(self.timed, "step"))
        reps, report = self.timed("probe", self._probe, model)
        return {"matrix": dm.values, "model": model, "history": history, "reps": reps,
                "accuracy": report.accuracy}

    def work(self) -> tuple[float, float]:
        steps = self.timings["step"][-self.cfg.iters:]
        return len(steps), sum(steps)

    def check(self, outputs: dict, checks: Checks) -> None:
        checks.check(np.array_equal(outputs["matrix"], self.matrix.values),
                     "cached matrix reads back bit for bit")
        totals = [b.total for _, b in outputs["history"]]
        ratio = float(np.mean(totals[-10:]) / totals[0])
        checks.check(ratio <= 0.5, f"loss ratio {ratio:.3f} <= 0.5")
        checks.check(outputs["accuracy"] >= 0.90, f"probe accuracy {outputs['accuracy']:.3f} >= 0.90")

    def computed(self) -> dict:
        return {"distance.cache_bytes": self.cache.stat().st_size}

    def named_metrics(self) -> dict:
        steps_ms = np.asarray(self.timings["step"]) * 1e3
        return {
            "step_ms_p50": (float(np.percentile(steps_ms, 50)), "ms"),
            "step_ms_p95": (float(np.percentile(steps_ms, 95)), "ms"),
            "time_to_model_s": (self._median("job"), "s"),
        }


class RaggedUCR(Workload):
    """Forward-only use of a trained model on inputs of unequal length.

    Set-up trains the criterion-8 model and saves it, and writes a 3-class
    UCR TSV whose lengths spread over 40..160 by trailing NaN.  Each job loads
    both, encodes and probes the set, aligns a slice of it with DTW, and
    scores planted-spike series with ``anomaly_scores``."""

    name = "ragged-ucr"
    work_unit = "anomaly-scored timestamps"
    ANOMALY_LEN = 128
    TRAIN_ITERS = 100
    PER_CLASS = 10    # series per class in the TSV
    SLICE_STEP = 4    # every 4th TSV series goes into the DTW slice
    N_ANOMALY = 10    # spiked series scored per job

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.cfg = train.TrainConfig(iters=self.TRAIN_ITERS, lam=0.0, mask_mode="binomial", seed=3,
                                     hidden=16, depth=3)
        self.ckpt = self.workdir / "ragged-model.npz"
        self.tsv = self.workdir / "ragged.tsv"

    def _train(self):
        sines = data.znormalize(data.make_synthetic(
            20, self.ANOMALY_LEN, [{"kind": "sine", "freq": 3.0}], noise_std=0.05, seed=self.seed))
        state = train.TrainState.fresh(self.cfg, sines.dims)
        train.pretrain(sines, distance.pairwise(sines, "euc"), self.cfg, state=state)
        return state

    def setup(self) -> None:
        state = self.timed("setup.train", self._train)
        self.timed("setup.checkpoint", train.save_checkpoint, state, self.cfg, self.ckpt)
        self.timed("setup.tsv", data.write_ucr_tsv, self._ragged_set(), self.tsv)
        self.anomaly_series, self.spikes = self._spiked_series()

    def _ragged_set(self) -> data.TimeSeriesSet:
        """Lengths cycle through 10 values from 40 to 160 in a fixed order
        (step 3 mod 10), so every class gets every length and the amount of
        work does not depend on the seed; the seed picks the values."""
        full = data.make_synthetic(self.PER_CLASS, 160, DESK_CLASSES, noise_std=0.3,
                                   seed=int(_rng(self.seed, 2).integers(2 ** 31)))
        ladder = np.linspace(40, 160, 10).round().astype(np.int64)
        lengths = ladder[(3 * np.arange(full.n)) % ladder.size]
        values = full.values.copy()
        for i, length in enumerate(lengths):
            values[i, length:] = 0.0
        return data.TimeSeriesSet(values=values, lengths=lengths, labels=full.labels)

    def _spiked_series(self):
        rng = _rng(self.seed, 4)
        ts = np.arange(self.ANOMALY_LEN) / self.ANOMALY_LEN
        series, spikes = [], []
        for _ in range(self.N_ANOMALY):
            x = np.sin(2 * np.pi * 3.0 * ts + rng.uniform(0, 2 * np.pi))
            x = x + rng.normal(0.0, 0.05, self.ANOMALY_LEN)
            spike = int(rng.integers(8, self.ANOMALY_LEN - 8))
            x[spike] += 5.0
            series.append((x - x.mean()) / x.std())
            spikes.append(spike)
        return series, spikes

    def _encode_and_probe(self):
        """Checkpoint and TSV to probed representations, as ``tscontrast
        encode`` then ``evaluate --task classify`` would do it."""
        state, _ = train.load_checkpoint(self.ckpt)
        tset = data.znormalize(data.load_ucr_tsv(self.tsv))
        reps = encoder.instance_repr(encoder.encode(state.model, tset.values, mask_mode="none"))
        report = evaluate.classify_probe(reps[::2], tset.labels[::2], reps[1::2], tset.labels[1::2])
        return state.model, tset, reps, report

    def job(self) -> dict:
        model, tset, reps, report = self.timed("encode", self._encode_and_probe)
        part = tset.subset(np.arange(0, tset.n, self.SLICE_STEP))
        dm = self.timed("ragged_dtw", distance.pairwise, part, "dtw")
        scores = [self.timed("anomaly", evaluate.anomaly_scores, model, x[:, None])
                  for x in self.anomaly_series]
        self._n_series, self._n_pairs = tset.n, part.n * (part.n - 1) // 2
        self._lengths = tset.lengths
        return {"reps": reps, "accuracy": report.accuracy, "matrix": dm.values,
                "scores": np.stack(scores)}

    def work(self) -> tuple[float, float]:
        return self.N_ANOMALY * self.ANOMALY_LEN, sum(self.timings["anomaly"][-self.N_ANOMALY:])

    def check(self, outputs: dict, checks: Checks) -> None:
        checks.check(np.all(np.isfinite(outputs["reps"])), "every representation is finite")
        for i, (scores, spike) in enumerate(zip(outputs["scores"], self.spikes)):
            top = int(np.argmax(scores))
            checks.check(top == spike, f"series {i}: score argmax {top} on planted spike {spike}")

    def computed(self) -> dict:
        return {"distance.dp_cells": _dp_cells(self._lengths[:: self.SLICE_STEP])}

    def named_metrics(self) -> dict:
        return {
            "ragged_dtw_pairs_per_s": (self._n_pairs / self._median("ragged_dtw"), "1/s"),
            "encode_series_per_s": (self._n_series / self._median("encode"), "1/s"),
            "anomaly_timestamps_per_s": (self.ANOMALY_LEN / self._median("anomaly"), "1/s"),
        }


WORKLOADS = {w.name: w for w in (DeskDistances, DeskPretrain, RaggedUCR)}
