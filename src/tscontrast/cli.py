"""Command-line entry point wiring the full pipeline.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numeric failure.
Set TSCONTRAST_VERBOSE=1 for debug logging.
"""
from __future__ import annotations

import argparse
import csv
import json
import logging
import os
import sys

import numpy as np

from . import config as engine_config
from . import data as ds
from . import distance as dist_mod
from . import encoder as enc
from . import evaluate as ev
from . import train as tr

log = logging.getLogger("tscontrast.cli")


def _build_dataset(cfg: engine_config.EngineConfig) -> ds.TimeSeriesSet:
    section = cfg.sections["dataset"]
    if section.get("path") is not None:
        tset = ds.load_ucr_tsv(section["path"])
    elif "synthetic" in section:
        tset = ds.make_synthetic(**section["synthetic"])
    else:
        raise ValueError("config needs dataset.path or dataset.synthetic")
    return ds.znormalize(tset)


def _distance_key(cfg: engine_config.EngineConfig) -> tuple:
    """(metric, radius, band): the settings that determine the matrix."""
    section = cfg.sections["distance"]
    return section["metric"], section["radius"], section["band"]


def _distance_matrix(cfg: engine_config.EngineConfig, tset: ds.TimeSeriesSet,
                     cache_path=None) -> dist_mod.DistanceMatrix:
    metric, radius, band = _distance_key(cfg)
    path = cache_path or cfg.sections["distance"]["cache"]
    if path and os.path.exists(path):
        matrix = dist_mod.load_matrix(path)
        if matrix.metric != metric:
            raise ValueError(
                f"cache {path} holds metric '{matrix.metric}' but config wants '{metric}'")
        if matrix.n != tset.n:
            raise ValueError(f"cache {path} is for N={matrix.n}, dataset has N={tset.n}")
        log.info("distance cache hit: %s", path)
        return matrix
    if path:
        log.info("distance cache miss: %s (no such file)", path)
    matrix = dist_mod.pairwise(tset, metric, {"radius": radius, "band": band})
    if path:
        dist_mod.save_matrix(matrix, path)
    return matrix


def _require_croppable(tset: ds.TimeSeriesSet) -> None:
    """Training crops every series: reject a short one before any work."""
    shortest = int(tset.lengths.min())
    if shortest < ds.MIN_CROP_LENGTH:
        raise ValueError(f"every series must have length >= {ds.MIN_CROP_LENGTH}; "
                         f"the shortest has {shortest}")


def _echo_config(cfg: engine_config.EngineConfig, args):
    if getattr(args, "echo_config", False):
        print(json.dumps(cfg.effective(), indent=2))


def _load_config(args) -> engine_config.EngineConfig:
    # flag > file > default; only pretrain and ablate take these flags
    flags = {"seed": ("train", "seed"), "iters": ("train", "iters"), "lam": ("loss", "lambda")}
    overrides = {where: getattr(args, attr) for attr, where in flags.items()
                 if getattr(args, attr, None) is not None}
    return engine_config.load(args.config, overrides)


def cmd_distances(args) -> int:
    cfg = _load_config(args)
    _echo_config(cfg, args)
    tset = _build_dataset(cfg)
    matrix = _distance_matrix(cfg, tset, cache_path=args.out)
    off = matrix.values[~np.eye(matrix.n, dtype=bool)]
    print(f"metric={matrix.metric} N={matrix.n} "
          f"offdiag min={off.min():.6f} max={off.max():.6f} mean={off.mean():.6f}")
    if args.csv:
        dist_mod.export_csv(matrix, args.csv)
    return 0


def cmd_pretrain(args) -> int:
    cfg = _load_config(args)
    _echo_config(cfg, args)
    tset = _build_dataset(cfg)
    _require_croppable(tset)
    matrix = _distance_matrix(cfg, tset)
    tcfg = cfg.train_config
    state = tr.TrainState.fresh(tcfg, tset.dims)
    tr.pretrain(tset, matrix, tcfg, state=state, log_path=args.log)
    tr.save_checkpoint(state, tcfg, args.out)
    print(f"trained {tcfg.iters} steps; checkpoint -> {args.out}")
    return 0


def cmd_encode(args) -> int:
    state, _ = tr.load_checkpoint(args.ckpt)
    tset = ds.znormalize(ds.load_ucr_tsv(args.data))
    inst = _instance_reprs(state.model, tset)
    np.savetxt(args.out, inst, delimiter=",")
    if args.full:
        # np.savez appends ".npz" to a bare file name; a handle writes the path as given
        with open(args.full, "wb") as fh:
            np.savez(fh, reps=enc.encode(state.model, tset.values).data)  # [N, T, M]
    print(f"wrote {inst.shape[0]} instance representations of dim {inst.shape[1]}")
    return 0


def _instance_reprs(model: enc.EncoderModel, tset: ds.TimeSeriesSet) -> np.ndarray:
    """[N, M] instance representations of every series in `tset`."""
    return enc.instance_repr(enc.encode(model, tset.values).data)


def _probe_split(tset, model, k):
    reps = _instance_reprs(model, tset)
    train_idx = np.arange(tset.n) % 2 == 0
    report = ev.classify_probe(
        reps[train_idx], tset.labels[train_idx],
        reps[~train_idx], tset.labels[~train_idx], k=k,
    )
    return report


# the data flags each evaluate task needs, by argparse dest
_EVAL_INPUTS = {"classify": ("train_data", "test_data"), "anomaly": ("data",)}


def cmd_evaluate(args) -> int:
    missing = [f"--{dest.replace('_', '-')}" for dest in _EVAL_INPUTS[args.task]
               if getattr(args, dest) is None]
    if missing:
        print(f"error: --task {args.task} needs {' and '.join(missing)}", file=sys.stderr)
        return 1
    cfg = _load_config(args)
    _echo_config(cfg, args)
    eval_cfg = cfg.sections["eval"]
    state, _ = tr.load_checkpoint(args.ckpt)
    if args.task == "classify":
        train_set = ds.znormalize(ds.load_ucr_tsv(args.train_data))
        test_set = ds.znormalize(ds.load_ucr_tsv(args.test_data))
        report = ev.classify_probe(_instance_reprs(state.model, train_set), train_set.labels,
                                   _instance_reprs(state.model, test_set), test_set.labels,
                                   k=eval_cfg["probe_k"])
    else:
        tset = ds.znormalize(ds.load_ucr_tsv(args.data))
        if not 0 <= args.series_index < tset.n:
            raise ValueError(f"--series-index {args.series_index} is out of range "
                             f"for {tset.n} series")
        series = tset.series(args.series_index)
        scores = ev.anomaly_scores(state.model, series)
        labels = None
        if args.labels:
            labels = np.loadtxt(args.labels, delimiter=",").astype(bool)
        _, report = ev.threshold_anomalies(scores, labels=labels, c=eval_cfg["anomaly_c"])
        if args.scores_out:
            np.savetxt(args.scores_out, scores, delimiter=",")
    print(report.to_text())
    if args.out:
        report.to_csv(args.out)
    return 0


# grids for the ablation axes
ALPHA_GRID = (0.25, 0.5, 0.75, 1.0)
TEMPORAL_KERNEL_GRID = ("neighbor", "linear", "gaussian", "sigmoid")
INSTANCE_KERNEL_GRID = ("no_kernel", "gaussian", "laplacian", "sigmoid")
METRIC_GRID = ("cos", "euc", "dtw", "tam")


def _ablate_rows(cfg: engine_config.EngineConfig, axis: str):
    if axis == "alpha":
        for a in ALPHA_GRID:
            yield "alpha", a, {"assignment": {"alpha": a}}
    elif axis == "assignment":
        for kernel in TEMPORAL_KERNEL_GRID:
            yield "temporal_kernel", kernel, {"assignment": {"temp_kernel": kernel}}
        for kernel in INSTANCE_KERNEL_GRID:
            yield "instance_kernel", kernel, {"assignment": {"inst_kernel": kernel}}
    elif axis == "metric":
        for metric in METRIC_GRID:
            yield "metric", metric, {"distance": {"metric": metric}}
    elif axis == "hierarchy":
        for flag in (True, False):
            yield "hierarchical_tau", flag, {"assignment": {"hierarchical_tau": flag}}
    else:
        raise ValueError(f"unknown ablation axis: {axis!r}")


def cmd_ablate(args) -> int:
    base = _load_config(args)
    _echo_config(base, args)
    tset = _build_dataset(base)
    _require_croppable(tset)
    base_key = _distance_key(base)
    matrices = {}
    rows = []
    for name, value, patch in _ablate_rows(base, args.axis):
        raw = base.effective()
        for section, changes in patch.items():
            raw[section] = {**raw[section], **changes}
        cfg = engine_config.validate(raw)
        key = _distance_key(cfg)
        if key not in matrices:
            # the configured cache file holds the base settings' matrix only
            metric, radius, band = key
            matrices[key] = (_distance_matrix(base, tset) if key == base_key else
                             dist_mod.pairwise(tset, metric, {"radius": radius, "band": band}))
        matrix = matrices[key]
        state = tr.TrainState.fresh(cfg.train_config, tset.dims)
        _, history = tr.pretrain(tset, matrix, cfg.train_config, state=state)
        report = _probe_split(tset, state.model, cfg.sections["eval"]["probe_k"])
        rows.append({
            "axis": name,
            "value": value,
            "final_loss": history[-1][1].total if history else float("nan"),
            "probe_accuracy": report.accuracy,
        })
        log.info("ablate %s=%s: loss=%.4f acc=%.3f", name, value,
                 rows[-1]["final_loss"], rows[-1]["probe_accuracy"])
    with open(args.out, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=["axis", "value", "final_loss", "probe_accuracy"])
        writer.writeheader()
        writer.writerows(rows)
    print(f"wrote {len(rows)} ablation rows to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="tscontrast")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True)
        p.add_argument("--echo-config", action="store_true")

    def training(p):
        common(p)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--iters", type=int, default=None)
        p.add_argument("--lambda", dest="lam", type=float, default=None)

    p = sub.add_parser("distances", help="compute and cache the pairwise distance matrix")
    common(p)
    p.add_argument("--out", required=True)
    p.add_argument("--csv", default=None)
    p.set_defaults(fn=cmd_distances)

    p = sub.add_parser("pretrain", help="run the contrastive pretraining loop")
    training(p)
    p.add_argument("--out", required=True)
    p.add_argument("--log", default=None)
    p.set_defaults(fn=cmd_pretrain)

    p = sub.add_parser("encode", help="export representations from a checkpoint")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--full", default=None, help="also write the [N, T, M] tensor (npz)")
    p.set_defaults(fn=cmd_encode)

    p = sub.add_parser("evaluate", help="classification probe or anomaly scoring")
    common(p)
    p.add_argument("--task", required=True, choices=["classify", "anomaly"])
    p.add_argument("--ckpt", required=True)
    p.add_argument("--train-data", default=None)
    p.add_argument("--test-data", default=None)
    p.add_argument("--data", default=None)
    p.add_argument("--labels", default=None)
    p.add_argument("--series-index", type=int, default=0)
    p.add_argument("--scores-out", default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_evaluate)

    p = sub.add_parser("ablate", help="sweep one configuration axis")
    training(p)
    p.add_argument("--axis", required=True, choices=["assignment", "alpha", "metric", "hierarchy"])
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_ablate)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(
        level=logging.DEBUG if os.environ.get("TSCONTRAST_VERBOSE") else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RuntimeError, FloatingPointError, np.linalg.LinAlgError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
