"""Outside-in per-layer step ledger for the training benchmark.

The traced run installs wrappers around the public calls at each layer
boundary of ``repro`` (nothing in ``src/`` is instrumented for this), keeps
one record per call in memory, and turns the records into the per-layer
metrics below once the run ends. A layer's *self time* is its span minus
the intervals its child spans cover; on the training thread the self times
of one step add up to the time the spans cover, so whatever the step's
wall time leaves over is ``trace.unattributed_frac``.

Cluster workers are separate processes the wrappers cannot reach; their
ledger comes from the span events ``run_cluster`` already writes under
``<workdir>/telemetry/`` (:func:`cluster_ledger`).

``LAYER_METRICS`` is the per-layer -> end-to-end map: for every metric the
layer and public call it times, the end-to-end metric and workload it
should move, and the workloads on which it should stay flat.
"""

from __future__ import annotations

import functools
import glob
import itertools
import json
import os
import statistics
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass

#: (metric, unit, layer . public call timed, should move -> on, flat on)
LAYER_METRICS = [
    ("engine.hook.ms", "ms", "repro.engine: forward hooks (Module.add_forward_hook)",
     "step_ms_p50, tokens_per_s -> evict_tight", "ssd_pipelined, cluster_zero"),
    ("engine.self.ms", "ms", "repro.engine: AngelModel.__call__/backward/step self time",
     "step_ms_p50, tokens_per_s -> evict_tight", "ssd_pipelined, cluster_zero"),
    ("engine.demand_fetches", "count", "repro.engine: AngelModel.demand_fetches",
     "tokens_per_s -> evict_tight", "ssd_pipelined (0 after recording), cluster_zero"),
    ("engine.construct.ms", "ms", "repro.engine: initialize() (per repeat)",
     "setup_s -> evict_tight, ssd_pipelined", "cluster_zero"),
    ("memory.move_pages.calls", "count", "repro.memory: PageAllocator.move_pages",
     "tokens_per_s -> evict_tight", "ssd_pipelined, cluster_zero"),
    ("memory.move_pages.oom_frac", "ratio", "repro.memory: move_pages calls that raised / calls",
     "tokens_per_s -> evict_tight", "ssd_pipelined, cluster_zero"),
    ("memory.move_pages.ms", "ms", "repro.memory: PageAllocator.move_pages self time",
     "tokens_per_s -> evict_tight", "ssd_pipelined, cluster_zero"),
    ("memory.pool.calls", "count", "repro.memory: DevicePool.acquire_storage/_run, release_storage",
     "step_ms_p50 -> evict_tight", "cluster_zero"),
    ("memory.pool.ms", "ms", "repro.memory: DevicePool.acquire_storage/_run, release_storage",
     "step_ms_p50 -> evict_tight", "cluster_zero"),
    ("memory.cpu-gpu.pages_per_copy_call", "pages", "repro.memory: MoveReport of move_pages",
     "tokens_per_s -> evict_tight", "cluster_zero"),
    ("memory.gpu-cpu.pages_per_copy_call", "pages", "repro.memory: MoveReport of move_pages",
     "tokens_per_s -> evict_tight", "cluster_zero"),
    ("memory.cpu-gpu.gbps", "GB/s", "repro.memory: MoveReport bytes / move_pages wall",
     "tokens_per_s -> evict_tight", "cluster_zero"),
    ("memory.gpu-cpu.gbps", "GB/s", "repro.memory: MoveReport bytes / move_pages wall",
     "tokens_per_s -> evict_tight", "cluster_zero"),
    ("memory.cpu-gpu.roofline_frac", "ratio", "gbps / same-bytes numpy memcpy",
     "tokens_per_s -> evict_tight", "cluster_zero"),
    ("memory.gpu-cpu.roofline_frac", "ratio", "gbps / same-bytes numpy memcpy",
     "tokens_per_s -> evict_tight", "cluster_zero"),
    ("memory.state_io.ms", "ms", "repro.memory: PagedTensor.read_array/write_array on FP32 states",
     "tokens_per_s -> ssd_pipelined", "cluster_zero"),
    ("memory.state_io.bytes", "bytes", "repro.memory: PagedTensor.read_array/write_array on FP32 states",
     "tokens_per_s -> ssd_pipelined", "cluster_zero"),
    ("memory.gpu.peak_pages", "pages", "repro.memory: DevicePool.peak_in_use (per run)",
     "peak_rss_mb -> evict_tight, ssd_pipelined", "cluster_zero"),
    ("observe.capture.calls", "count", "repro.observe: ForensicRecorder.capture",
     "tokens_per_s, step_ms_p50 -> evict_tight", "ssd_pipelined, cluster_zero"),
    ("observe.capture.ms", "ms", "repro.observe: ForensicRecorder.capture",
     "tokens_per_s, step_ms_p50 -> evict_tight", "ssd_pipelined, cluster_zero"),
    ("observe.sample.ms", "ms", "repro.observe: ForensicRecorder.sample",
     "tokens_per_s -> evict_tight", "cluster_zero"),
    ("nn.forward.ms", "ms", "repro.nn: top-level model call minus hook spans",
     "tokens_per_s -> every workload", "none"),
    ("nn.backward.ms", "ms", "repro.nn: Tensor.backward",
     "tokens_per_s -> every workload", "none"),
    ("nn.adam.ms", "ms", "repro.nn: MixedPrecisionAdam.apply_gradient",
     "tokens_per_s -> every workload", "none"),
    ("lockfree.grad_buffers.ms", "ms", "repro.lockfree: GradientBuffers.accumulate_all/drain",
     "step_ms_p50 -> evict_tight, ssd_pipelined", "cluster_zero"),
    ("runtime.stall.ms", "ms", "repro.runtime: PrefetchWorker.await_layer (seconds returned)",
     "step_ms_p90, then tokens_per_s -> ssd_pipelined", "evict_tight, cluster_zero"),
    ("runtime.finish_wait.ms", "ms", "repro.runtime: PrefetchWorker.finish_iteration",
     "step_ms_p90, then tokens_per_s -> ssd_pipelined", "evict_tight, cluster_zero"),
    ("runtime.writeback_wait.ms", "ms", "repro.runtime: WritebackQueue.wait/barrier",
     "step_ms_p90, then tokens_per_s -> ssd_pipelined", "evict_tight, cluster_zero"),
    ("runtime.prefetch_busy.ms", "ms", "wrapped calls on the prefetch thread",
     "overlap only -> ssd_pipelined", "evict_tight, cluster_zero"),
    ("runtime.writeback_busy.ms", "ms", "wrapped calls on the writeback thread",
     "overlap only -> ssd_pipelined", "evict_tight, cluster_zero"),
    ("ssd.io_calls", "count", "repro.resilience: FaultyBackend.readinto/write_from",
     "tokens_per_s -> ssd_pipelined", "evict_tight, cluster_zero"),
    ("ssd.io.ms", "ms", "repro.resilience: FaultyBackend.readinto/write_from",
     "tokens_per_s -> ssd_pipelined", "evict_tight, cluster_zero"),
    ("scheduler.plan.ms", "ms", "repro.engine.liveplan.build_live_plan (per repeat)",
     "setup_s -> ssd_pipelined", "evict_tight, cluster_zero"),
    ("cluster.grads.ms", "ms", "repro.cluster: rank-0 'grads' spans",
     "step_ms_p50, tokens_per_s -> cluster_zero", "evict_tight, ssd_pipelined"),
    ("cluster.reduce_scatter.ms", "ms", "repro.zero: rank-0 'reduce_scatter' spans",
     "step_ms_p50, tokens_per_s -> cluster_zero", "evict_tight, ssd_pipelined"),
    ("cluster.all_gather.ms", "ms", "repro.zero: rank-0 'all_gather' spans",
     "step_ms_p50, tokens_per_s -> cluster_zero", "evict_tight, ssd_pipelined"),
    ("cluster.adam.ms", "ms", "repro.cluster: rank-0 'adam' spans",
     "step_ms_p50, tokens_per_s -> cluster_zero", "evict_tight, ssd_pipelined"),
    ("cluster.loss_gather.ms", "ms", "rank-0 step tail after the last child span: parameter "
     "assignment and the unspanned loss all_gather",
     "step_ms_p50, tokens_per_s -> cluster_zero", "evict_tight, ssd_pipelined"),
    ("cluster.checkpoint.ms", "ms", "repro.checkpoint: rank-0 'checkpoint' spans",
     "step_ms_p90 -> cluster_zero", "evict_tight, ssd_pipelined"),
    ("cluster.barrier.ms", "ms", "step-to-step interval minus step span and checkpoint",
     "step_ms_p50, step_ms_p90 -> cluster_zero", "evict_tight, ssd_pipelined"),
    ("cluster.collective_bytes", "bytes", "rank-0 reduce_scatter + all_gather span nbytes",
     "tokens_per_s -> cluster_zero", "evict_tight, ssd_pipelined"),
    ("cluster.rank_skew.ms", "ms", "gap between the ranks' step ends",
     "step_ms_p90 -> cluster_zero", "evict_tight, ssd_pipelined"),
    ("cluster.spawn.s", "s", "run_cluster call to first rank step start (per repeat)",
     "setup_s -> cluster_zero", "n/a"),
    ("trace.unattributed_frac", "ratio", "traced step wall not covered by layer self times",
     "ledger quality", "n/a"),
    ("trace.overhead_frac", "ratio", "1 - traced / untraced tokens_per_s",
     "ledger quality", "n/a"),
]

#: Span name -> metric root whose ``.ms`` self time it adds to.
_SELF_LAYER = {
    "engine.hook": "engine.hook",
    "engine.call": "engine.self",
    "engine.backward": "engine.self",
    "engine.step": "engine.self",
    "memory.move_pages": "memory.move_pages",
    "memory.pool": "memory.pool",
    "memory.state_io": "memory.state_io",
    "observe.capture": "observe.capture",
    "observe.sample": "observe.sample",
    "nn.forward": "nn.forward",
    "nn.backward": "nn.backward",
    "nn.adam": "nn.adam",
    "lockfree.grad_buffers": "lockfree.grad_buffers",
    "runtime.await_layer": "runtime.stall",
    "runtime.finish_iteration": "runtime.finish_wait",
    "runtime.writeback_wait": "runtime.writeback_wait",
    "ssd.io": "ssd.io",
}

#: Worker threads whose top-level spans count as busy time.
_BUSY_THREADS = {"prefetch": "runtime.prefetch_busy", "writeback": "runtime.writeback_busy"}

_EDGES = ("cpu-gpu", "gpu-cpu")


@dataclass
class Span:
    """One wrapped call: who ran it, when, under which span and step."""

    span_id: int
    name: str
    start: float
    end: float
    parent: int | None
    step: int
    thread: str
    #: Call-specific payload (move report, bytes, returned stall seconds).
    info: dict | None = None
    failed: bool = False


class Tracer:
    """In-memory span recorder; the training loop sets ``step`` before each step.

    Records are appended from every thread (``list.append`` is atomic
    under the interpreter lock); each thread keeps its own parent stack.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.step = -1
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, info=None, when=None):
        """``fn`` recording one span per call.

        ``when(args)`` false runs ``fn`` untraced; ``info`` is a pair of
        ``before(args)`` and ``after(before_value, result)`` whose result
        becomes the span's payload on success.
        """
        tracer = self
        before, after = info if info is not None else (None, None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if when is not None and not when(args):
                return fn(*args, **kwargs)
            stack = tracer._stack()
            span_id = next(tracer._ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            step = tracer.step
            context = before(args) if before is not None else None
            failed = True
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                failed = False
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append(Span(
                    span_id, name, start, end, parent, step,
                    threading.current_thread().name,
                    after(context, result) if after is not None and not failed else None,
                    failed,
                ))

        return traced


def _move_edge(args) -> str:
    """``src-dst`` tier edge of a move_pages call, read before it runs."""
    _, tensors, *rest = args
    device = rest[0] if rest else None
    if device is None:  # a prebuilt MovePlan
        device = tensors.device
        pages = tensors.pages
    else:
        pages = [page for tensor in tensors for page in tensor.page_list]
    sources = {
        page.pool.device_kind.name.lower()
        for page in pages if page.pool.device_kind is not device
    }
    src = sources.pop() if len(sources) == 1 else "mixed"
    return f"{src}-{device.name.lower()}"


def _move_report(edge, report) -> dict:
    return {
        "edge": edge,
        "pages": report.pages_moved,
        "bytes": report.bytes_moved,
        "copy_calls": report.copy_calls,
    }


def _is_state(args) -> bool:
    import numpy as np

    return args[0].dtype == np.float32


def _nbytes(args):
    return args[0].nbytes


def _state_bytes(nbytes, _result) -> dict:
    return {"bytes": nbytes}


def _stall(_context, seconds) -> dict:
    return {"stall": seconds}


@contextmanager
def installed(tracer: Tracer):
    """Install every layer wrapper; restore the originals on exit.

    Must wrap before the engine is constructed: the engine registers its
    forward hooks through ``Module.add_forward_hook`` in ``__init__``.
    """
    import repro.api
    import repro.engine.liveplan
    from repro.engine.angel import AngelModel
    from repro.lockfree.buffers import GradientBuffers
    from repro.memory.allocator import PageAllocator
    from repro.memory.pool import DevicePool
    from repro.memory.tensor import PagedTensor
    from repro.nn.layers import Module, TinyTransformerLM
    from repro.nn.optim import MixedPrecisionAdam
    from repro.nn.tensor import Tensor
    from repro.observe.forensics import ForensicRecorder
    from repro.resilience.faults import FaultyBackend
    from repro.runtime.pipeline import PrefetchWorker, WritebackQueue

    add_hook = Module.add_forward_hook

    def add_traced_hook(module, hook):
        return add_hook(module, tracer.wrap("engine.hook", hook))

    patches = [
        (repro.api, "initialize", tracer.wrap("engine.construct", repro.api.initialize)),
        (repro.engine.liveplan, "build_live_plan",
         tracer.wrap("scheduler.plan", repro.engine.liveplan.build_live_plan)),
        (Module, "add_forward_hook", add_traced_hook),
        # Only the top-level model is a TinyTransformerLM: its call is the
        # whole forward, sub-module calls stay unwrapped.
        (TinyTransformerLM, "__call__", tracer.wrap("nn.forward", Module.__call__)),
        (AngelModel, "__call__", tracer.wrap("engine.call", AngelModel.__call__)),
        (AngelModel, "backward", tracer.wrap("engine.backward", AngelModel.backward)),
        (AngelModel, "step", tracer.wrap("engine.step", AngelModel.step)),
        (Tensor, "backward", tracer.wrap("nn.backward", Tensor.backward)),
        (MixedPrecisionAdam, "apply_gradient",
         tracer.wrap("nn.adam", MixedPrecisionAdam.apply_gradient)),
        (GradientBuffers, "accumulate_all",
         tracer.wrap("lockfree.grad_buffers", GradientBuffers.accumulate_all)),
        (GradientBuffers, "drain", tracer.wrap("lockfree.grad_buffers", GradientBuffers.drain)),
        (PageAllocator, "move_pages",
         tracer.wrap("memory.move_pages", PageAllocator.move_pages,
                     (_move_edge, _move_report))),
        (DevicePool, "acquire_storage", tracer.wrap("memory.pool", DevicePool.acquire_storage)),
        (DevicePool, "acquire_storage_run",
         tracer.wrap("memory.pool", DevicePool.acquire_storage_run)),
        (DevicePool, "release_storage", tracer.wrap("memory.pool", DevicePool.release_storage)),
        (PagedTensor, "read_array", tracer.wrap(
            "memory.state_io", PagedTensor.read_array, (_nbytes, _state_bytes), _is_state)),
        (PagedTensor, "write_array", tracer.wrap(
            "memory.state_io", PagedTensor.write_array, (_nbytes, _state_bytes), _is_state)),
        (ForensicRecorder, "capture", tracer.wrap("observe.capture", ForensicRecorder.capture)),
        (ForensicRecorder, "sample", tracer.wrap("observe.sample", ForensicRecorder.sample)),
        (PrefetchWorker, "await_layer",
         tracer.wrap("runtime.await_layer", PrefetchWorker.await_layer, (None, _stall))),
        (PrefetchWorker, "finish_iteration",
         tracer.wrap("runtime.finish_iteration", PrefetchWorker.finish_iteration)),
        (WritebackQueue, "wait", tracer.wrap("runtime.writeback_wait", WritebackQueue.wait)),
        (WritebackQueue, "barrier",
         tracer.wrap("runtime.writeback_wait", WritebackQueue.barrier)),
        (FaultyBackend, "readinto", tracer.wrap("ssd.io", FaultyBackend.readinto)),
        (FaultyBackend, "write_from", tracer.wrap("ssd.io", FaultyBackend.write_from)),
    ]
    saved = [(owner, attr, owner.__dict__.get(attr)) for owner, attr, _ in patches]
    try:
        for owner, attr, wrapper in patches:
            setattr(owner, attr, wrapper)
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the time its direct children cover.

    Children run on the parent's thread strictly inside it and never
    overlap each other, so the covered time is the sum of their lengths.
    """
    own = {span.span_id: span.end - span.start for span in spans}
    for span in spans:
        if span.parent is not None and span.parent in own:
            own[span.parent] -= span.end - span.start
    return own


def roofline_gbps(nbytes: int, repeats: int = 200) -> float:
    """Median GB/s of a numpy copy between two page-aligned buffers."""
    import mmap

    import numpy as np

    nbytes = max(1, int(nbytes))
    src_map = mmap.mmap(-1, nbytes)
    dst_map = mmap.mmap(-1, nbytes)
    try:
        src = np.frombuffer(src_map, dtype=np.uint8)
        dst = np.frombuffer(dst_map, dtype=np.uint8)
        src[:] = 1
        dst[:] = src  # first touch outside the timed copies
        samples = []
        for _ in range(repeats):
            started = time.perf_counter()
            dst[:] = src
            samples.append(time.perf_counter() - started)
        del src, dst
    finally:
        src_map.close()
        dst_map.close()
    return nbytes / statistics.median(samples) / 1e9


def engine_ledger(tracer: Tracer, step_walls: dict[int, float], repeats: int,
                  gpu_peak_pages: int) -> dict[str, float]:
    """Per-layer metrics of a traced single-process run.

    ``step_walls`` maps each timed step's global id to its wall seconds;
    spans outside those steps (construction, the recording iteration)
    only feed the per-repeat metrics.
    """
    spans = tracer.spans
    own = self_times(spans)
    steps = max(1, len(step_walls))
    timed = [span for span in spans if span.step in step_walls]
    values = {name: 0.0 for name, *_ in LAYER_METRICS}

    for span in timed:
        layer = _SELF_LAYER.get(span.name)
        if layer is not None:
            values[f"{layer}.ms"] += own[span.span_id] * 1e3 / steps
    for span in timed:
        if span.parent is None and span.thread in _BUSY_THREADS:
            values[f"{_BUSY_THREADS[span.thread]}.ms"] += (
                (span.end - span.start) * 1e3 / steps
            )

    # runtime.stall.ms is the seconds await_layer reports, not its span.
    values["runtime.stall.ms"] = sum(
        span.info["stall"] for span in timed
        if span.name == "runtime.await_layer" and span.info
    ) * 1e3 / steps

    moves = [span for span in timed if span.name == "memory.move_pages"]
    values["memory.move_pages.calls"] = len(moves) / steps
    values["memory.move_pages.oom_frac"] = (
        sum(span.failed for span in moves) / len(moves) if moves else 0.0
    )
    for edge in _EDGES:
        done = [span for span in moves if span.info and span.info["edge"] == edge
                and span.info["copy_calls"]]
        calls = sum(span.info["copy_calls"] for span in done)
        if not calls:
            continue
        nbytes = sum(span.info["bytes"] for span in done)
        wall = sum(span.end - span.start for span in done)
        gbps = nbytes / wall / 1e9
        values[f"memory.{edge}.pages_per_copy_call"] = (
            sum(span.info["pages"] for span in done) / calls
        )
        values[f"memory.{edge}.gbps"] = gbps
        values[f"memory.{edge}.roofline_frac"] = gbps / roofline_gbps(nbytes / calls)

    values["memory.pool.calls"] = sum(s.name == "memory.pool" for s in timed) / steps
    values["memory.state_io.bytes"] = sum(
        span.info["bytes"] for span in timed
        if span.name == "memory.state_io" and span.info
    ) / steps
    values["memory.gpu.peak_pages"] = float(gpu_peak_pages)
    values["observe.capture.calls"] = sum(s.name == "observe.capture" for s in timed) / steps
    values["ssd.io_calls"] = sum(s.name == "ssd.io" for s in timed) / steps

    per_repeat = max(1, repeats)
    values["engine.construct.ms"] = sum(
        s.end - s.start for s in spans if s.name == "engine.construct"
    ) * 1e3 / per_repeat
    values["scheduler.plan.ms"] = sum(
        s.end - s.start for s in spans if s.name == "scheduler.plan"
    ) * 1e3 / per_repeat

    # The training thread's spans of a step tile a subset of its wall
    # time; top-level span lengths equal the sum of their self times.
    main = threading.main_thread().name
    covered = sum(
        span.end - span.start for span in timed
        if span.parent is None and span.thread == main
    )
    wall = sum(step_walls.values())
    values["trace.unattributed_frac"] = max(0.0, 1.0 - covered / wall) if wall else 0.0
    return values


def _read_rank_streams(workdir: str) -> dict[int, list[dict]]:
    """Rank -> its span events, from the per-incarnation JSONL files."""
    streams: dict[int, list[dict]] = {}
    for path in sorted(glob.glob(os.path.join(workdir, "telemetry", "*.jsonl"))):
        spans = []
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                try:
                    event = json.loads(line)
                except json.JSONDecodeError:
                    continue  # a torn tail line
                if event.get("kind") == "span":
                    spans.append(event)
        steps = [s for s in spans if _is_step(s)]
        if steps:
            streams[int(steps[0].get("args", {}).get("rank", len(streams)))] = spans
    return streams


def _is_step(span: dict) -> bool:
    # By prefix and track, so a rename of iteration-suffixed span names
    # (``step{N}`` -> ``step`` with an attribute) keeps matching.
    return (
        span["name"].startswith("step")
        and span.get("track") == "train"
        and span.get("depth", 0) == 0
    )


def cluster_steps(workdir: str) -> tuple[list[float], list[float]]:
    """Rank 0's step span starts and ends on the perf clock, in order."""
    streams = _read_rank_streams(workdir)
    steps = sorted((s for s in streams.get(0, []) if _is_step(s)),
                   key=lambda s: s["start"])
    return [s["start"] for s in steps], [s["end"] for s in steps]


def cluster_ledger(workdirs: list[str], calls: list[float],
                   skip: int) -> dict[str, float]:
    """Per-layer metrics of cluster repeats, from their telemetry dirs.

    ``calls`` holds each repeat's ``run_cluster`` call time on the perf
    clock; the first ``skip`` steps of every repeat (the recording
    iteration) are left out of the per-step figures.
    """
    values = {name: 0.0 for name, *_ in LAYER_METRICS}
    children = {"grads": "cluster.grads", "reduce_scatter": "cluster.reduce_scatter",
                "all_gather": "cluster.all_gather", "adam": "cluster.adam"}
    totals = dict.fromkeys(
        ["cluster.grads", "cluster.reduce_scatter", "cluster.all_gather",
         "cluster.adam", "cluster.loss_gather", "cluster.checkpoint",
         "cluster.barrier"], 0.0)
    unspanned = 0.0
    collective_bytes = 0.0
    skews: list[float] = []
    spawns: list[float] = []
    intervals_total = 0.0
    timed_steps = 0
    for workdir, called in zip(workdirs, calls):
        streams = _read_rank_streams(workdir)
        spans = sorted(streams.get(0, []), key=lambda s: s["start"])
        steps = [s for s in spans if _is_step(s)]
        spawns.append(min(
            min(s["start"] for s in stream if _is_step(s))
            for stream in streams.values()
        ) - called)
        for index in range(skip, len(steps) - 1):
            step, following = steps[index], steps[index + 1]
            inner = [s for s in spans
                     if step["start"] <= s["start"] and s["end"] <= step["end"]
                     and s is not step]
            between = [s for s in spans if s["name"] == "checkpoint"
                       and step["end"] <= s["start"] and s["end"] <= following["start"]]
            duration = step["end"] - step["start"]
            covered = 0.0
            last_end = step["start"]
            for span in inner:
                layer = children.get(span["name"])
                if layer is None or span.get("depth") != 1:
                    continue
                length = span["end"] - span["start"]
                totals[layer] += length
                covered += length
                last_end = max(last_end, span["end"])
                if "nbytes" in span.get("args", {}):
                    collective_bytes += span["args"]["nbytes"]
            checkpoint = sum(s["end"] - s["start"] for s in between)
            interval = following["start"] - step["start"]
            tail = step["end"] - last_end
            totals["cluster.loss_gather"] += tail
            unspanned += duration - covered - tail
            totals["cluster.checkpoint"] += checkpoint
            totals["cluster.barrier"] += interval - duration - checkpoint
            intervals_total += interval
            timed_steps += 1
        ends = {
            rank: [s["end"] for s in sorted(
                (s for s in stream if _is_step(s)), key=lambda s: s["start"])]
            for rank, stream in streams.items()
        }
        if len(ends) > 1:
            for per_step in list(zip(*ends.values()))[skip:]:
                skews.append(max(per_step) - min(per_step))
    steps = max(1, timed_steps)
    for layer, seconds in totals.items():
        values[f"{layer}.ms"] = seconds * 1e3 / steps
    values["cluster.collective_bytes"] = collective_bytes / steps
    values["cluster.rank_skew.ms"] = statistics.fmean(skews) * 1e3 if skews else 0.0
    values["cluster.spawn.s"] = statistics.median(spawns) if spawns else 0.0
    # The barrier is the interval's remainder outside the step span and
    # the loss gather is the step's tail, so what no layer covers is the
    # step body between its child spans.
    values["trace.unattributed_frac"] = (
        unspanned / intervals_total if intervals_total else 0.0
    )
    return values
