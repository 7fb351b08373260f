"""Outside-in tracing of the library: wrap the module attributes that callers
look up, record spans in memory, and derive per-layer metrics from them.

A span is (name, start, end, parent).  Names are ``<module>.<function>``,
optionally followed by ``@<tag>`` (the DTW variant of a ``pairwise`` call, the
encoder block of a convolution).  Every autodiff op also wraps the backward
closure of the tensor it returns, so its backward pass is a span of its own,
named ``autodiff.<op>.bwd``.  Nothing in the library is edited: ``install``
swaps attributes and ``uninstall`` puts the originals back.
"""
from __future__ import annotations

import functools
import time
from array import array
from contextlib import contextmanager

import numpy as np

AUTODIFF_OPS = ("matmul", "conv1d_dilated", "gelu", "add", "mul", "masked_log_softmax",
                "max_pool1d", "concat", "transpose", "tslice", "tsum", "reshape")
DTW_VARIANTS = ("dtw", "dtw_band", "fastdtw", "tam", "euc", "cos")
ENCODER_BLOCKS = 4     # the criterion-7 encoder depth; ragged-ucr uses 3
LOSS_LEVELS = 6        # a 64-step crop pools 64, 32, 16, 8, 4, 2
STEP_PARTS = ("crop", "forward", "backward", "adam")


class Tracer:
    """Span recorder.  Spans are appended to flat arrays as they open; the
    parent of a span is the innermost span open when it started."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("q")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.counts: dict[str, int] = {}
        self._open: list[int] = []
        self._patches: list = []

    def __len__(self):
        return len(self.start)

    def open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._open[-1] if self._open else -1)
        self.end.append(0)
        self._open.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._open.pop()

    @contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    def count(self, key: str, n: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def patch(self, module, attr: str, tag=None, before=None, after=None) -> None:
        """Replace ``module.attr`` by a wrapper that records one span per call.

        ``tag(*args, **kwargs)`` names the variant; ``before(tracer, args)``
        runs outside the span; ``after(tracer, name, out, args)`` sees the
        result."""
        fn = getattr(module, attr)
        base = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = base if tag is None else f"{base}@{tag(*args, **kwargs)}"
            if before is not None:
                before(tracer, args)
            idx = tracer.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if after is not None:
                after(tracer, name, out, args)
            return out

        setattr(module, attr, traced)
        self._patches.append((module, attr, fn))

    def uninstall(self) -> None:
        while self._patches:
            module, attr, fn = self._patches.pop()
            setattr(module, attr, fn)

    def save(self, path) -> None:
        """Write every span recorded so far (times in ns)."""
        np.savez_compressed(
            path, names=np.array(self.names), name=np.asarray(self.name),
            parent=np.asarray(self.parent), start=np.asarray(self.start),
            end=np.asarray(self.end))


def _trace_backward(tracer: Tracer, name: str, out, args) -> None:
    """Give the returned tensor's backward closure a span of its own."""
    closure = getattr(out, "_backward", None)
    if closure is None:
        return
    base, sep, tag = name.partition("@")
    bwd_name = f"{base}.bwd{sep}{tag}"

    def traced_backward(g):
        idx = tracer.open(bwd_name)
        try:
            closure(g)
        finally:
            tracer.close(idx)

    out._backward = traced_backward


def _conv_block(x, kernel, dilation=1) -> int:
    return int(dilation).bit_length() - 1          # dilation 2^b -> block b


def _conv_after(tracer: Tracer, name: str, out, args) -> None:
    x, kernel = args[0], args[1]
    dilation = args[2] if len(args) > 2 else 1
    b, length, cin = x.shape
    k, _, cout = kernel.shape
    center = k // 2
    taps = sum(max(0, length - abs((j - center) * dilation)) for j in range(k))
    tracer.count("autodiff.conv1d_dilated.flops", 2 * b * taps * cin * cout)
    _trace_backward(tracer, name, out, args)


def _count_graph(tracer: Tracer, args) -> None:
    seen, stack = set(), [args[0]]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.extend(node._parents)
    tracer.count("autodiff.backward.graph_nodes", len(seen))


def _pairwise_variant(tset, metric, params=None) -> str:
    if metric == "dtw" and params and params.get("band") is not None:
        return "dtw_band"
    return metric


def install(tracer: Tracer) -> None:
    """Wrap every traced layer of the library."""
    from tscontrast import assign, autodiff, data, distance, encoder, evaluate, loss, train

    for op in AUTODIFF_OPS:
        if op == "conv1d_dilated":
            tracer.patch(autodiff, op, tag=_conv_block, after=_conv_after)
        else:
            tracer.patch(autodiff, op, after=_trace_backward)
    tracer.patch(autodiff, "backward", before=_count_graph)
    tracer.patch(distance, "pairwise", tag=_pairwise_variant)
    for attr in ("save_matrix", "load_matrix"):
        tracer.patch(distance, attr)
    for attr in ("w_instance", "w_temporal", "extend_instance", "extend_temporal"):
        tracer.patch(assign, attr)
    for attr in ("load_ucr_tsv", "znormalize"):
        tracer.patch(data, attr)
    for attr in ("encode", "pool_ladder"):
        tracer.patch(encoder, attr)
    for attr in ("joint_loss", "soft_instance_loss", "soft_temporal_loss"):
        tracer.patch(loss, attr)
    for attr in ("pretrain", "crop_two_views", "evaluate_batch_loss", "_adam_step",
                 "save_checkpoint", "load_checkpoint"):
        tracer.patch(train, attr)
    for attr in ("classify_probe", "anomaly_scores"):
        tracer.patch(evaluate, attr)


def per_layer_names() -> list[tuple[str, str]]:
    """Every per-layer metric as (name, unit), in report order."""
    out = [(f"distance.pairwise_ms.{v}", "ms") for v in DTW_VARIANTS]
    out += [("distance.dp_cells", "count"), ("distance.ns_per_cell.dtw", "ns"),
            ("distance.ns_per_cell.tam", "ns"), ("distance.save_ms", "ms"),
            ("distance.load_ms", "ms"), ("distance.cache_bytes", "B")]
    out += [(f"train.step.{p}_ms", "ms") for p in STEP_PARTS]
    out += [("train.checkpoint_save_ms", "ms"), ("train.checkpoint_load_ms", "ms")]
    for op in AUTODIFF_OPS:
        out += [(f"autodiff.{op}.calls", "count"), (f"autodiff.{op}.fwd_ms", "ms"),
                (f"autodiff.{op}.bwd_ms", "ms")]
    out += [("autodiff.conv1d_dilated.flops", "flop"), ("autodiff.backward.graph_nodes", "count"),
            ("autodiff.backward.self_ms", "ms")]
    out += [("encoder.encode_ms", "ms")]
    out += [(f"encoder.block{b}.conv_ms", "ms") for b in range(ENCODER_BLOCKS)]
    out += [("encoder.pool_ladder_ms", "ms"), ("loss.joint_loss_ms", "ms")]
    for k in range(LOSS_LEVELS):
        out += [(f"loss.level{k}.instance_ms", "ms"), (f"loss.level{k}.temporal_ms", "ms")]
    out += [("assign.w_instance_ms", "ms"), ("assign.w_temporal_ms", "ms"), ("assign.extend_ms", "ms")]
    out += [("data.load_ucr_ms", "ms"), ("data.znormalize_ms", "ms")]
    out += [("evaluate.encodes_per_series", "count"), ("evaluate.classify_probe_ms", "ms")]
    out += [("trace.overhead_frac", "frac")]
    return out


class SpanTable:
    """Spans ``[lo, hi)`` of a tracer as arrays, with self times."""

    def __init__(self, tracer: Tracer, lo: int, hi: int):
        self.names = tracer.names
        # copies: a numpy view would pin the tracer's arrays, which must grow
        cols = {c: np.array(getattr(tracer, c)[lo:hi], dtype=np.int64)
                for c in ("name", "parent", "start", "end")}
        self.name = cols["name"]
        parent = cols["parent"] - lo
        self.parent = np.where(parent >= 0, parent, -1)
        self.dur = (cols["end"] - cols["start"]) / 1e6
        child = np.zeros_like(self.dur)
        inside = self.parent >= 0
        np.add.at(child, self.parent[inside], self.dur[inside])
        self.self_ms = self.dur - child
        n = len(self.names)
        self.total_by = np.bincount(self.name, weights=self.dur, minlength=n)
        self.self_by = np.bincount(self.name, weights=self.self_ms, minlength=n)
        self.calls_by = np.bincount(self.name, minlength=n)

    def ids(self, name: str) -> list[int]:
        """Name ids of ``name`` and of its tagged variants ``name@...``."""
        return [i for i, s in enumerate(self.names) if s == name or s.startswith(name + "@")]

    def total(self, name: str) -> float:
        return float(sum(self.total_by[i] for i in self.ids(name)))

    def self_time(self, name: str) -> float:
        return float(sum(self.self_by[i] for i in self.ids(name)))

    def calls(self, name: str) -> int:
        return int(sum(self.calls_by[i] for i in self.ids(name)))

    def mask(self, name: str) -> np.ndarray:
        return np.isin(self.name, self.ids(name))

    def nearest(self, root: str) -> np.ndarray:
        """For every span, the index of its nearest enclosing ``root`` span
        (itself if it is one), or -1."""
        roots = set(self.ids(root))
        out = np.full(self.name.size, -1)
        for i, (nid, p) in enumerate(zip(self.name.tolist(), self.parent.tolist())):
            if nid in roots:
                out[i] = i
            elif p >= 0:
                out[i] = out[p]
        return out


def layer_metrics(table: SpanTable, jobs: int, counts: dict, setup: SpanTable) -> dict:
    """Per-layer metrics per job from the spans of ``jobs`` traced jobs.

    Times of library functions are inclusive; autodiff op times are self
    times, so an op built from other ops (``tmean``) is not counted twice.
    ``setup`` holds the spans of one traced set-up, for work done only there.
    """
    def per_job(x):
        return x / jobs

    m = {}
    for v in DTW_VARIANTS:
        m[f"distance.pairwise_ms.{v}"] = per_job(table.total(f"distance.pairwise@{v}"))
    m["distance.save_ms"] = per_job(table.total("distance.save_matrix"))
    m["distance.load_ms"] = per_job(table.total("distance.load_matrix"))

    # desk-pretrain calls pretrain once per step, so a pretrain span is a step
    steps = table.mask("train.pretrain")
    step_of = table.nearest("train.pretrain")
    parts = {"crop": "train.crop_two_views", "forward": "train.evaluate_batch_loss",
             "backward": "autodiff.backward", "adam": "train._adam_step"}
    if steps.any():
        per_step = {}
        for part, name in parts.items():
            sel = table.mask(name) & (step_of >= 0)
            per_step[part] = np.bincount(step_of[sel], weights=table.dur[sel],
                                         minlength=table.name.size)[steps]
        per_step["forward"] = per_step["forward"] - per_step["crop"]
        for part in STEP_PARTS:
            m[f"train.step.{part}_ms"] = float(np.median(per_step[part]))
    else:
        for part in STEP_PARTS:
            m[f"train.step.{part}_ms"] = 0.0
    saves = setup.calls("train.save_checkpoint")
    m["train.checkpoint_save_ms"] = setup.total("train.save_checkpoint") / saves if saves else 0.0
    m["train.checkpoint_load_ms"] = per_job(table.total("train.load_checkpoint"))

    for op in AUTODIFF_OPS:
        m[f"autodiff.{op}.calls"] = per_job(table.calls(f"autodiff.{op}"))
        m[f"autodiff.{op}.fwd_ms"] = per_job(table.self_time(f"autodiff.{op}"))
        m[f"autodiff.{op}.bwd_ms"] = per_job(table.self_time(f"autodiff.{op}.bwd"))
    m["autodiff.conv1d_dilated.flops"] = per_job(counts.get("autodiff.conv1d_dilated.flops", 0))
    m["autodiff.backward.graph_nodes"] = per_job(counts.get("autodiff.backward.graph_nodes", 0))
    m["autodiff.backward.self_ms"] = per_job(table.self_time("autodiff.backward"))

    m["encoder.encode_ms"] = per_job(table.total("encoder.encode"))
    for b in range(ENCODER_BLOCKS):
        m[f"encoder.block{b}.conv_ms"] = per_job(
            table.self_time(f"autodiff.conv1d_dilated@{b}")
            + table.self_time(f"autodiff.conv1d_dilated.bwd@{b}"))
    m["encoder.pool_ladder_ms"] = per_job(table.total("encoder.pool_ladder"))

    m["loss.joint_loss_ms"] = per_job(table.total("loss.joint_loss"))
    for term in ("instance", "temporal"):
        levels = np.zeros(LOSS_LEVELS)
        seen: dict[int, int] = {}
        for i in np.flatnonzero(table.mask(f"loss.soft_{term}_loss")).tolist():
            k = seen.get(int(table.parent[i]), 0)
            seen[int(table.parent[i])] = k + 1
            if k < LOSS_LEVELS:
                levels[k] += table.dur[i]
        for k in range(LOSS_LEVELS):
            m[f"loss.level{k}.{term}_ms"] = per_job(float(levels[k]))

    m["assign.w_instance_ms"] = per_job(table.total("assign.w_instance"))
    m["assign.w_temporal_ms"] = per_job(table.total("assign.w_temporal"))
    m["assign.extend_ms"] = per_job(table.total("assign.extend_instance")
                                    + table.total("assign.extend_temporal"))
    m["data.load_ucr_ms"] = per_job(table.total("data.load_ucr_tsv"))
    m["data.znormalize_ms"] = per_job(table.total("data.znormalize"))

    scored = table.calls("evaluate.anomaly_scores")
    if scored:
        inside = np.isin(table.parent, np.flatnonzero(table.mask("evaluate.anomaly_scores")))
        m["evaluate.encodes_per_series"] = int((table.mask("encoder.encode") & inside).sum()) / scored
    else:
        m["evaluate.encodes_per_series"] = 0.0
    m["evaluate.classify_probe_ms"] = per_job(table.total("evaluate.classify_probe"))
    return m
