"""Benchmark of tscontrast: three closed-loop workloads, output checks, and an
outside-in layer trace.

    python3 bench/run.py --workload desk-pretrain --seed 7 --seconds 10 --trace 0

With ``--trace 0`` it prints the workload's own figures and then, as its last
line, one JSON object with the end-to-end metrics of ``BENCHMARK.json``.  With
``--trace 1`` it runs half of the time untraced and half traced, and the JSON
holds the per-layer metrics instead.  Results (with provenance) and the spans
of a traced run are written under ``bench/out/``.  See ``bench/README.md``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
SETUP_REPEATS = 3


NPROC = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _cap_blas_threads() -> int:
    """Cap BLAS threads at the CPUs this process may use; must run before numpy
    is imported.  Returns the cap."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        try:
            want = int(os.environ.get(var, NPROC))
        except ValueError:
            want = NPROC
        os.environ[var] = str(max(1, min(want, NPROC)))
    return int(os.environ["OPENBLAS_NUM_THREADS"])


BLAS_THREADS = _cap_blas_threads()

if not (ROOT / "src" / "tscontrast" / "__init__.py").is_file():
    sys.exit(f"bench: no library sources at {ROOT / 'src' / 'tscontrast'}; "
             "run from a checkout of the repository")
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import tracer as tracing  # noqa: E402
from refclock import RefClock  # noqa: E402
from workloads import WORKLOADS, Checks  # noqa: E402


def _git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_build = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas_build = "unknown"
    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": NPROC,
        "blas": blas_build,
        "blas_threads": BLAS_THREADS,
        "machine": platform.machine(),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_jobs(workload, seconds: float, checks: Checks, tracer=None):
    """Closed loop: start the next job only after the last one finished, for
    ``seconds`` (at least one job).  Returns each job's rescaled seconds and
    its (work units, seconds on them); the output checks run between jobs,
    outside the timed parts and outside the trace."""
    times: list[float] = []
    work: list[tuple[float, float]] = []
    t_start = time.perf_counter()
    while not times or time.perf_counter() - t_start < seconds:
        if tracer is None:
            outputs = workload.run_job()
        else:
            tracing.install(tracer)
            try:
                with tracer.span("bench.job"):
                    outputs = workload.run_job()
            finally:
                tracer.uninstall()
        times.append(workload.timings["job"][-1])
        work.append(workload.work())
        workload.check(outputs, checks)
    return times, work


def _new_workload(args, clock: RefClock):
    workdir = OUT_DIR / "work" / args.workload
    workdir.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, workdir)
    workload.clock = clock
    return workload


def measure(args) -> tuple[dict, dict, Checks, dict]:
    """Untraced run: end-to-end metrics."""
    clock = RefClock()
    setups, raw_setups = [], []
    for _ in range(SETUP_REPEATS):
        workload = _new_workload(args, clock)
        workload.run_setup()
        setups.append(workload.timings["setup"][-1])
        raw_setups.append(workload.raw["setup"][-1])
    checks = Checks()
    jobs, work = run_jobs(workload, args.seconds, checks)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "request_ms_p50": (statistics.median(workload.timings[workload.request]) * 1e3, "ms"),
        "work_per_s": (sum(u for u, _ in work) / sum(t for _, t in work), "1/s"),
    }
    named = {"setup_s": metrics["setup_s"], "peak_rss_mb": metrics["peak_rss_mb"]}
    named.update(workload.named_metrics())
    named["failed_frac"] = (checks.failed / checks.attempted, "frac")
    info = {"jobs": len(jobs), "request": workload.request,
            "requests": len(workload.timings[workload.request]),
            "work_unit": workload.work_unit,
            "reference_kernel_ms_p50": statistics.median(clock.kernel_times) * 1e3,
            "raw_request_ms_p50": statistics.median(workload.raw[workload.request]) * 1e3,
            "setup_s_each": setups, "raw_setup_s_each": raw_setups, "job_s_each": jobs}
    return metrics, named, checks, info


def trace(args) -> tuple[dict, dict, Checks, dict]:
    """Traced run: half the time untraced, half traced; per-layer metrics."""
    workload = _new_workload(args, RefClock())
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        workload.run_setup()
    finally:
        tracer.uninstall()
    setup_table = tracing.SpanTable(tracer, 0, len(tracer))
    checks = Checks()
    plain, _ = run_jobs(workload, args.seconds / 2, checks)
    n_plain = len(workload.timings[workload.request])
    tracer.counts.clear()
    lo = len(tracer)
    traced, _ = run_jobs(workload, args.seconds / 2, checks, tracer)
    table = tracing.SpanTable(tracer, lo, len(tracer))
    layers = tracing.layer_metrics(table, len(traced), tracer.counts, setup_table)
    computed = workload.computed()
    layers["distance.dp_cells"] = computed.get("distance.dp_cells", 0)
    layers["distance.cache_bytes"] = computed.get("distance.cache_bytes", 0)
    for v in ("dtw", "tam"):
        cells = layers["distance.dp_cells"]
        ms = layers[f"distance.pairwise_ms.{v}"]
        layers[f"distance.ns_per_cell.{v}"] = ms * 1e6 / cells if cells and ms else 0.0
    layers["trace.overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1.0

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    tracer.save(OUT_DIR / f"spans-{args.workload}.npz")
    units = dict(tracing.per_layer_names())
    metrics = {name: (float(layers[name]), units[name]) for name in units}
    info = {"untraced_jobs": len(plain), "traced_jobs": len(traced), "spans": len(tracer)}
    if workload.request == "step":
        # step overhead in rescaled time; the parts against the traced steps' wall time
        scaled, wall = workload.timings["step"], workload.raw["step"]
        info["untraced_step_ms_p50"] = statistics.median(scaled[:n_plain]) * 1e3
        info["traced_step_ms_p50"] = statistics.median(scaled[n_plain:]) * 1e3
        info["traced_step_wall_ms_p50"] = statistics.median(wall[n_plain:]) * 1e3
        info["traced_step_parts_wall_ms"] = sum(layers[f"train.step.{p}_ms"]
                                                for p in tracing.STEP_PARTS)
    return metrics, {}, checks, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")

    prov = provenance()
    print("provenance: " + ", ".join(f"{k}={v}" for k, v in prov.items()))
    metrics, named, checks, info = (trace if args.trace else measure)(args)
    for name, (value, unit) in named.items():
        print(f"{args.workload}  {name:<26} {value:14.6g} {unit}")
    for key, value in info.items():
        if not isinstance(value, list):
            print(f"{args.workload}  {key}: {value}")
    for what in checks.failures:
        print(f"{args.workload}  FAILED CHECK: {what}")

    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "provenance": prov, "info": info,
              "named": {k: {"value": v, "unit": u} for k, (v, u) in named.items()},
              "failures": checks.failures, **result}
    out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
