"""Command-line entry point wiring the full pipeline.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numeric failure.
Set TSCONTRAST_VERBOSE=1 for debug logging.
"""
from __future__ import annotations

import argparse
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
    if section["path"] is not None:
        tset = ds.load_ucr_tsv(section["path"])
    elif "synthetic" in section:
        tset = ds.make_synthetic(**section["synthetic"])
    else:
        raise ValueError("config needs dataset.path or dataset.synthetic")
    return ds.znormalize(tset)


def _distance_key(section: dict) -> str:
    """The metric and the params it reads (`METRIC_PARAMS`), as in
    `dtw-band8.0`: the settings that determine the matrix of a given set."""
    reads = dist_mod.METRIC_PARAMS.get(section["metric"], ())
    return section["metric"] + "".join(f"-{key}{section[key]}" for key in reads)


def _distance_matrix(cfg: engine_config.EngineConfig,
                     tset: ds.TimeSeriesSet) -> dist_mod.DistanceMatrix:
    """The configured matrix.  A `distance.cache` directory holds each matrix
    under `_distance_key` and the set's fingerprint, every input that
    determines it and no other, so a hit cannot be stale nor a miss spurious.
    `pairwise` gets only the configured metric's own keys."""
    section = cfg.sections["distance"]
    metric, cache = section["metric"], section["cache"]
    if cache and os.path.exists(cache) and not os.path.isdir(cache):
        raise ValueError(f"distance.cache {cache} must be a directory")
    path = cache and os.path.join(cache, f"{_distance_key(section)}-{tset.fingerprint()}.bin")
    if path and os.path.exists(path):
        log.info("distance cache hit: %s", path)
        return dist_mod.load_matrix(path)
    if path:
        log.info("distance cache miss: %s (no such file)", path)
    matrix = dist_mod.pairwise(tset, metric, {key: section[key]
                                              for key in dist_mod.METRIC_PARAMS.get(metric, ())})
    if path:
        os.makedirs(cache, exist_ok=True)
        dist_mod.save_matrix(matrix, path)
    return matrix


def _require_croppable(tset: ds.TimeSeriesSet) -> None:
    """Training crops every series: reject a short one before any work."""
    shortest = int(tset.lengths.min())
    if shortest < ds.MIN_CROP_LENGTH:
        raise ValueError(f"every series must have length >= {ds.MIN_CROP_LENGTH}; "
                         f"the shortest has {shortest}")


def _load_config(args) -> engine_config.EngineConfig:
    # flag > file > default; only pretrain and ablate take these flags
    overrides = {field: getattr(args, field) for field in ("seed", "iters", "lam")
                 if getattr(args, field, None) is not None}
    cfg = engine_config.load(args.config, overrides)
    if args.echo_config:
        print(json.dumps(cfg.effective(), indent=2))
    return cfg


def cmd_distances(args) -> int:
    cfg = _load_config(args)
    tset = _build_dataset(cfg)
    matrix = _distance_matrix(cfg, tset)
    dist_mod.save_matrix(matrix, args.out)
    off = matrix.values[~np.eye(matrix.n, dtype=bool)]
    print(f"metric={matrix.metric} N={matrix.n} "
          f"offdiag min={off.min():.6f} max={off.max():.6f} mean={off.mean():.6f}")
    if args.csv:
        with ds.whole_file(args.csv) as fh:
            np.savetxt(fh, matrix.values, delimiter=",")
    return 0


def cmd_pretrain(args) -> int:
    cfg = _load_config(args)
    tset = _build_dataset(cfg)
    _require_croppable(tset)
    matrix = _distance_matrix(cfg, tset)
    tcfg = cfg.train_config
    state = tr.TrainState.fresh(tcfg, tset.dims)
    _, history = tr.pretrain(tset, matrix, tcfg, state=state)
    if args.log:
        tr.write_log_csv(history, args.log)
    tr.save_checkpoint(state, tcfg, args.out)
    print(f"trained {tcfg.iters} steps; checkpoint -> {args.out}")
    return 0


def cmd_encode(args) -> int:
    state, _ = tr.load_checkpoint(args.ckpt)
    tset = ds.znormalize(ds.load_ucr_tsv(args.data))
    inst, reps = _encode_by_length(state.model, tset)
    with ds.whole_file(args.out) as fh:
        np.savetxt(fh, inst, delimiter=",")
    if args.full:
        with ds.whole_file(args.full, "wb") as fh:
            np.savez(fh, reps=reps)
    print(f"wrote {inst.shape[0]} instance representations of dim {inst.shape[1]}")
    return 0


def _encode_by_length(model: enc.EncoderModel, tset: ds.TimeSeriesSet):
    """([N, M] instance, [N, T, M] per-timestamp) representations of every
    series in `tset`, the latter 0 past each series' length.  Each length is
    encoded on its own unpadded steps, so no series sees another's padding."""
    dims = model.params["out_w"].shape[1]
    reps = np.zeros((tset.n, tset.t_max, dims))
    inst = np.empty((tset.n, dims))
    for length in np.unique(tset.lengths):
        rows = np.flatnonzero(tset.lengths == length)
        reps[rows, :length] = enc.encode(model, tset.values[rows, :length]).data
        inst[rows] = enc.instance_repr(reps[rows, :length])
    return inst, reps


def _read_labels(path) -> np.ndarray:
    """Anomaly labels, one 0 or 1 per line, the way `--scores-out` writes
    scores; blank lines are skipped.  Any other line is an error naming the
    file and the line, and bytes that are not UTF-8 one naming the file."""
    labels = []
    try:
        with open(path, encoding="utf-8") as fh:
            for number, line in enumerate(fh, 1):
                cells = line.split(",")
                if len(cells) > 1:
                    raise ValueError(f"{path}: line {number} holds {len(cells)} values, "
                                     "not one anomaly label")
                if not line.strip():
                    continue
                try:
                    value = float(line)
                except ValueError:
                    raise ValueError(f"{path}: line {number}: cannot read {line.strip()!r} "
                                     "as an anomaly label") from None
                if value not in (0.0, 1.0):
                    raise ValueError(f"{path}: anomaly labels must be 0 or 1, found {value:g} "
                                     f"at line {number}")
                labels.append(value == 1.0)
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return np.array(labels, dtype=bool)


def _probe_split(tset, model):
    reps = _encode_by_length(model, tset)[0]
    return ev.classify_probe(reps[::2], tset.labels[::2], reps[1::2], tset.labels[1::2])


# the data flags each evaluate task needs, by argparse dest
_EVAL_INPUTS = {"classify": ("train_data", "test_data"), "anomaly": ("data",)}


def cmd_evaluate(args) -> int:
    missing = [f"--{dest.replace('_', '-')}" for dest in _EVAL_INPUTS[args.task]
               if getattr(args, dest) is None]
    if missing:
        print(f"error: --task {args.task} needs {' and '.join(missing)}", file=sys.stderr)
        return 1
    if not np.isfinite(args.anomaly_c):
        raise ValueError(f"--anomaly-c must be finite, got {args.anomaly_c}")
    state, _ = tr.load_checkpoint(args.ckpt)
    if args.task == "classify":
        train_set = ds.znormalize(ds.load_ucr_tsv(args.train_data))
        test_set = ds.znormalize(ds.load_ucr_tsv(args.test_data))
        report = ev.classify_probe(_encode_by_length(state.model, train_set)[0], train_set.labels,
                                   _encode_by_length(state.model, test_set)[0], test_set.labels)
    else:
        tset = ds.znormalize(ds.load_ucr_tsv(args.data))
        if not 0 <= args.series_index < tset.n:
            raise ValueError(f"--series-index {args.series_index} is out of range "
                             f"for {tset.n} series")
        series = tset.series(args.series_index)
        scores = ev.anomaly_scores(state.model, series)
        labels = None
        if args.labels:
            labels = _read_labels(args.labels)
            if labels.shape != scores.shape:
                raise ValueError(f"{args.labels}: {labels.size} anomaly labels for a series "
                                 f"of {scores.size} timestamps")
        _, report = ev.threshold_anomalies(scores, labels=labels, c=args.anomaly_c)
        if args.scores_out:
            with ds.whole_file(args.scores_out) as fh:
                np.savetxt(fh, scores, delimiter=",")
    print(report.to_text())
    if args.out:
        report.to_csv(args.out)
    return 0


# grids for the ablation axes
ALPHA_GRID = (0.25, 0.5, 0.75, 1.0)
TEMPORAL_KERNEL_GRID = ("neighbor", "linear", "gaussian", "sigmoid")
INSTANCE_KERNEL_GRID = ("no_kernel", "gaussian", "laplacian", "sigmoid")
METRIC_GRID = ("cos", "euc", "dtw", "tam")


def _ablate_rows(axis: str):
    if axis == "alpha":
        for a in ALPHA_GRID:
            yield "alpha", a, {"train": {"alpha": a}}
    elif axis == "assignment":
        for kernel in TEMPORAL_KERNEL_GRID:
            yield "temporal_kernel", kernel, {"train": {"temp_kernel": kernel}}
        for kernel in INSTANCE_KERNEL_GRID:
            yield "instance_kernel", kernel, {"train": {"inst_kernel": kernel}}
    elif axis == "metric":
        for metric in METRIC_GRID:
            yield "metric", metric, {"distance": {"metric": metric}}
    elif axis == "hierarchy":
        for flag in (True, False):
            yield "hierarchical_tau", flag, {"train": {"hierarchical_tau": flag}}
    else:
        raise ValueError(f"unknown ablation axis: {axis!r}")


def cmd_ablate(args) -> int:
    base = _load_config(args)
    tset = _build_dataset(base)
    _require_croppable(tset)
    key = matrix = None
    rows = []
    for name, value, patch in _ablate_rows(args.axis):
        raw = base.effective()
        for section, changes in patch.items():
            raw[section] = {**raw[section], **changes}
        cfg = engine_config.validate(raw)
        # an axis yields each matrix's rows together: hold the current N x N
        # matrix only, and drop it before the next one is built
        row_key = _distance_key(cfg.sections["distance"])
        if row_key != key:
            key, matrix = row_key, None
            matrix = _distance_matrix(cfg, tset)
        state = tr.TrainState.fresh(cfg.train_config, tset.dims)
        _, history = tr.pretrain(tset, matrix, cfg.train_config, state=state)
        report = _probe_split(tset, state.model)
        rows.append([name, value, history[-1][1].total if history else float("nan"),
                     report.accuracy])
        log.info("ablate %s=%s: loss=%.4f acc=%.3f", *rows[-1])
    ds.write_csv(args.out, ["axis", "value", "final_loss", "probe_accuracy"], rows)
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
    p.add_argument("--task", required=True, choices=["classify", "anomaly"])
    p.add_argument("--ckpt", required=True)
    p.add_argument("--train-data", default=None)
    p.add_argument("--test-data", default=None)
    p.add_argument("--data", default=None)
    p.add_argument("--labels", default=None)
    p.add_argument("--series-index", type=int, default=0)
    p.add_argument("--anomaly-c", type=float, default=3.0, help="threshold: mean + c * stdev")
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
