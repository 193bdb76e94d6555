"""The benchmark's three training workloads, driven through public APIs.

Every workload is a closed loop: one client, and the next step starts
only after the previous one returned. A run repeats the workload (fresh
engine or cluster each time) until its time is used up, so set-up is
measured several times per run. Each repeat's losses must equal a
reference run bit for bit.

- ``evict_tight``: the ``repro profile`` workload, synchronous. A 1 MiB GPU
  pool holds 16 of the 25 FP16 parameter pages, so every forward demand-
  fetches and LRU-evicts through ``OutOfMemoryError`` (with a forensic
  capture per raise). Loads engine fetch/evict, pool bookkeeping,
  forensics and GPU<->CPU arena copies; bypasses the file tier, pipeline
  threads, writeback and collectives.
- ``ssd_pipelined``: FP32 states on the file-backed SSD tier with 0.5 ms
  emulated latency per I/O, ``pipeline=True`` with async writeback and the
  planned partial GPU cache in a 5 MiB pool. Demand fetches happen only in
  the recording iteration, so the eviction path is idle.
- ``cluster_zero``: ``run_cluster`` with two ranks (global batch 8),
  fault-free, the shipped checkpoint interval. Loads process spawn and
  rendezvous, shared-memory collectives, barriers and snapshot saves;
  bypasses the paged memory stack.
"""

from __future__ import annotations

import gc
import os
import shutil
import time
from dataclasses import dataclass, field

SEQ_LEN = 16
BATCH = 8
TOKENS_PER_STEP = SEQ_LEN * BATCH

class LossMismatch(Exception):
    """A repeat's losses differ from the reference run's."""


@dataclass
class Repeat:
    """One set-up plus its timed steps, on the perf-counter clock."""

    setup_s: float
    #: Start and end of every timed step (the recording step excluded).
    starts: list[float]
    ends: list[float]
    #: One duration sample per timed step (cluster: start to next start).
    step_s: list[float]
    losses: list[float]
    #: Traced runs: global step id of each timed step -> wall seconds.
    step_walls: dict[int, float] = field(default_factory=dict)
    gpu_peak_pages: int = 0
    #: Demand fetches during the timed steps.
    demand_fetches: int = 0
    #: Cluster repeats: the run's workdir and call time on the perf clock.
    workdir: str = ""
    called: float = 0.0

    @property
    def tokens_per_s(self) -> float:
        """Tokens trained from the first timed step's start to the last end."""
        return len(self.starts) * TOKENS_PER_STEP / (self.ends[-1] - self.starts[0])


def check_losses(losses: list[float], reference: list[float]) -> None:
    """The correctness gate: bit-identical per-step losses."""
    if len(losses) > len(reference) or losses != reference[:len(losses)]:
        first = next(
            (i for i, (a, b) in enumerate(zip(losses, reference)) if a != b),
            min(len(losses), len(reference)),
        )
        raise LossMismatch(
            f"loss mismatch at step {first}: "
            f"{losses[first:first + 1]} vs reference {reference[first:first + 1]}"
        )


def _train_step(engine, batch) -> float:
    loss = engine(batch)
    engine.backward(loss)
    engine.step()
    return loss.item()


class EngineWorkload:
    """A single-process ``JobFactory(...).engine(AngelConfig(...))`` loop."""

    #: Timed steps per repeat after the recording iteration.
    steps = 40

    def __init__(self, name: str, seed: int, workdir: str):
        from repro.fleet.factory import JobFactory, JobWorkload

        self.name = name
        self.seed = seed
        self.factory = JobFactory(
            JobWorkload(seed=seed, seq_len=SEQ_LEN, batch_size=BATCH)
        )
        self.batches = self.factory.batches(self.steps + 1)
        self.ssd_path = os.path.join(workdir, "ssd.bin")

    def config(self):
        from repro.engine.angel import AngelConfig
        from repro.resilience.faults import FaultPlan
        from repro.units import KiB, MiB

        common = dict(cpu_memory_bytes=64 * MiB, page_bytes=64 * KiB)
        if self.name == "evict_tight":
            return AngelConfig(gpu_memory_bytes=1 * MiB, **common)
        return AngelConfig(
            gpu_memory_bytes=5 * MiB,
            ssd_bytes=32 * MiB,
            ssd_path=self.ssd_path,
            pipeline=True,
            fault_plan=FaultPlan(seed=self.seed, latency_rate=1.0,
                                 latency_seconds=0.0005),
            **common,
        )

    def reference(self) -> list[float]:
        """Everything resident: roomy GPU pool, CPU state tier, sync."""
        from repro.engine.angel import AngelConfig
        from repro.units import KiB, MiB

        engine = self.factory.engine(AngelConfig(
            gpu_memory_bytes=64 * MiB, cpu_memory_bytes=64 * MiB, page_bytes=64 * KiB,
        ))
        try:
            return [_train_step(engine, batch) for batch in self.batches]
        finally:
            engine.close()

    def repeat(self, tracer=None, first_step: int = 0) -> Repeat:
        """Set up, run the recording iteration, then the timed steps.

        ``setup_s`` runs from engine construction to the end of the
        recording iteration. For ``ssd_pipelined`` the last timed step
        ends only once ``close()`` has drained the async writeback.
        """
        from repro.hardware.device import DeviceKind

        gc.collect()
        started = time.perf_counter()
        engine = self.factory.engine(self.config())
        closed = False
        try:
            losses = [_train_step(engine, self.batches[0])]
            setup = time.perf_counter() - started
            fetched = engine.demand_fetches
            gc.collect()
            starts, ends, walls = [], [], {}
            for index, batch in enumerate(self.batches[1:]):
                if tracer is not None:
                    tracer.step = first_step + index
                starts.append(time.perf_counter())
                losses.append(_train_step(engine, batch))
                ends.append(time.perf_counter())
                walls[first_step + index] = ends[-1] - starts[-1]
            if tracer is not None:
                tracer.step = -1
            demand = engine.demand_fetches - fetched
            peak = engine.allocator.pools[DeviceKind.GPU].peak_in_use
            step_s = [end - start for start, end in zip(starts, ends)]
            if self.name == "ssd_pipelined":
                engine.close()
                closed = True
                ends[-1] = time.perf_counter()
        finally:
            if not closed:
                engine.close()
            if os.path.exists(self.ssd_path):
                os.remove(self.ssd_path)
        return Repeat(setup, starts, ends, step_s, losses, walls, peak, demand)


class ClusterWorkload:
    """``run_cluster`` with two ranks, one call per repeat."""

    steps = 200

    def __init__(self, name: str, seed: int, workdir: str):
        from repro.cluster import ClusterConfig

        self.name = name
        self.workdir = workdir
        self.config = ClusterConfig(
            world_size=2, steps=self.steps + 1, seed=seed,
            shard_batch=BATCH // 2, seq_len=SEQ_LEN,
        )
        self._runs = 0

    def reference(self) -> list[float]:
        from repro.cluster import run_cluster_reference

        return run_cluster_reference(self.config)

    def repeat(self, tracer=None, first_step: int = 0) -> Repeat:
        """One ``run_cluster`` call timed from rank 0's step spans.

        ``setup_s`` runs from the call to the end of rank 0's first
        (recording) step; step samples are rank 0's start-to-start
        intervals, so the step barrier is included.
        """
        from repro.cluster import run_cluster

        from ledger import cluster_steps

        self._runs += 1
        workdir = os.path.join(self.workdir, f"cluster{self._runs}")
        shutil.rmtree(workdir, ignore_errors=True)
        gc.collect()
        called = time.perf_counter()
        report = run_cluster(self.config, workdir=workdir)
        if not report.complete:
            raise RuntimeError(
                f"cluster run incomplete after {report.steps_completed} steps"
            )
        starts, ends = cluster_steps(workdir)
        if len(starts) != self.config.steps:
            raise RuntimeError(
                f"rank 0 recorded {len(starts)} of {self.config.steps} steps"
            )
        setup = ends[0] - called
        starts, ends = starts[1:], ends[1:]
        step_s = [b - a for a, b in zip(starts, starts[1:])]
        return Repeat(setup, starts, ends, step_s, list(report.losses),
                      workdir=workdir, called=called)


WORKLOADS = ("evict_tight", "ssd_pipelined", "cluster_zero")


def make(name: str, seed: int, workdir: str):
    if name == "cluster_zero":
        return ClusterWorkload(name, seed, workdir)
    if name in WORKLOADS:
        return EngineWorkload(name, seed, workdir)
    raise ValueError(f"unknown workload {name!r}")
