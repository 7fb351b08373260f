"""Self-test of the benchmark harness.

    python3 -m pytest -q bench/test_bench.py

1. The stepwise desk-pretrain loop (one ``pretrain`` call per step on one
   resumable state) gives bit for bit the parameters and loss history of a
   single ``pretrain`` call.
2. A traced job gives bit for bit the outputs of an untraced job, on every
   workload, and the trace leaves no wrapper installed.
3. ``run.py`` prints exactly the metrics ``BENCHMARK.json`` lists, and fails
   without printing a result where the library sources are missing.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

import tracer as tracing  # noqa: E402
import workloads as wl  # noqa: E402
from tscontrast import autodiff, distance, train  # noqa: E402


_DESK_CORPUS = wl.desk_corpus


def _small_corpus(seed: int):
    """Every fifth series of the criterion-7 corpus (12 series, 4 per class)."""
    return _DESK_CORPUS(seed).subset(np.arange(0, 60, 5))


def test_stepwise_pretrain_equals_single_call():
    corpus = _small_corpus(7)
    dm = distance.pairwise(corpus, "euc")
    cfg = train.TrainConfig(iters=6, seed=0, tau_inst=20.0, tau_temp=2.5)
    model, history = train.pretrain(corpus, dm, cfg)
    step_model, step_history = wl.stepwise_pretrain(corpus, dm, cfg)
    assert len(step_history) == cfg.iters
    for name, t in model.params.items():
        assert np.array_equal(t.data, step_model.params[name].data), name
    assert [s for s, _ in history] == [s for s, _ in step_history]
    assert [b.csv_row() for _, b in history] == [b.csv_row() for _, b in step_history]


def _shrink(monkeypatch):
    """Small inputs, so a job takes well under a second."""
    monkeypatch.setattr(wl, "desk_corpus", _small_corpus)
    monkeypatch.setattr(wl.DeskPretrain, "ITERS", 4)
    for name, value in (("TRAIN_ITERS", 3), ("PER_CLASS", 2), ("SLICE_STEP", 2), ("N_ANOMALY", 1)):
        monkeypatch.setattr(wl.RaggedUCR, name, value)


def _arrays(outputs: dict) -> dict:
    """Every array-valued output, flattened to name -> ndarray."""
    out = {}
    for key, value in outputs.items():
        if isinstance(value, dict):
            out.update({f"{key}.{k}": np.asarray(v) for k, v in value.items()})
        elif isinstance(value, np.ndarray):
            out[key] = value
        elif isinstance(value, float):
            out[key] = np.asarray(value)
        elif key == "history":
            out[key] = np.asarray([b.csv_row() for _, b in value])
        elif key == "model":
            out.update({f"param.{k}": t.data for k, t in value.params.items()})
    return out


def test_traced_job_equals_untraced(tmp_path, monkeypatch):
    _shrink(monkeypatch)
    originals = {op: getattr(autodiff, op) for op in tracing.AUTODIFF_OPS}
    for cls in wl.WORKLOADS.values():
        workload = cls(7, tmp_path)
        workload.setup()
        plain = _arrays(workload.job())
        if isinstance(workload, wl.DeskDistances):
            workload.jobs_done = 0  # the traced job takes the same slice
        tracer = tracing.Tracer()
        tracing.install(tracer)
        try:
            traced = _arrays(workload.job())
        finally:
            tracer.uninstall()
        assert len(tracer) > 0
        assert plain.keys() == traced.keys()
        for key in plain:
            assert np.array_equal(plain[key], traced[key]), f"{workload.name}: {key}"
    assert all(getattr(autodiff, op) is fn for op, fn in originals.items())


def test_layer_metrics_count_the_pretrain_job(tmp_path, monkeypatch):
    _shrink(monkeypatch)
    monkeypatch.setattr(wl.DeskPretrain, "ITERS", 2)
    workload = wl.DeskPretrain(7, tmp_path)
    workload.setup()
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        with tracer.span("bench.job"):
            workload.job()
    finally:
        tracer.uninstall()
    table = tracing.SpanTable(tracer, 0, len(tracer))
    layers = tracing.layer_metrics(table, 1, tracer.counts, table)
    assert layers["train.step.backward_ms"] > 0
    assert layers["autodiff.backward.graph_nodes"] > 0
    # 2 steps x 2 views x 4 blocks x 2 convs, plus the probe's encode
    assert layers["autodiff.conv1d_dilated.calls"] == 2 * 2 * 4 * 2 + 4 * 2


def _run_bench(root: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=root,
                          capture_output=True, text=True, timeout=170)


def test_run_prints_the_metrics_benchmark_json_lists():
    root = BENCH_DIR.parent
    doc = json.loads((root / "BENCHMARK.json").read_text())
    assert {w["name"] for w in doc["workloads"]} == set(wl.WORKLOADS)
    assert [m["name"] for m in doc["per_layer"]] == [n for n, _ in tracing.per_layer_names()]
    for trace, listed in (("0", doc["end_to_end"]), ("1", doc["per_layer"])):
        proc = _run_bench(root, "--workload", "desk-distances", "--seed", "3",
                          "--seconds", "0.1", "--trace", trace)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
        assert {k: v["unit"] for k, v in result["metrics"].items()} == \
            {m["name"]: m["unit"] for m in listed}


def test_run_fails_without_library_sources(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    proc = _run_bench(tmp_path, "--workload", "desk-distances", "--seed", "3",
                      "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
