"""Steady training benchmark: one command, three workloads, one JSON line.

Run from the repository root::

    python3 perfbench/run.py --workload ssd_pipelined --seed 0 --seconds 55 --trace 0

``--trace 0`` prints the end-to-end metrics of the workload (tokens/s,
step time p50/p90, set-up time, peak RSS, share of steps completed), all
from one run that repeats set-up plus a fixed number of timed steps until
``--seconds`` are used (at least ``MIN_REPEATS`` times);
``--trace 1`` makes a separate run that first measures untraced, then
installs the layer wrappers of ``ledger.py`` and prints the per-layer
ledger. The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds diagnostics (machine-speed probe before and after the run, repeat
and sample counts). Any loss mismatch against the reference run or any
exception in a step fails the run: the result is printed with
``correct: false`` and the command exits with status 1.

``BENCHMARK.json`` drives ``ssd_pipelined`` and ``cluster_zero``.
``evict_tight`` is pure-Python CPU work whose timings follow this kind of
shared 2-vCPU box's speed regimes (1.5-2x, lasting seconds to minutes) too
closely to hold a regression bound, so it is run by hand: its ``--trace 1``
ledger is where the eviction, forensics and copy layers show.

The workloads are built from ``--seed``; ``src/`` is imported from the
checkout the script sits in, and every file the run writes lands under
``.perfbench_work/`` there and is removed at the end. (Only if that path is
too long for a Unix socket does ``run_cluster`` fall back to the system
temp directory for its rendezvous socket.)
"""

from __future__ import annotations

import os
import sys

# Pin BLAS/OpenMP pools before numpy loads anywhere: with two cores, one
# compute thread per process keeps program threads at or below nproc.
# Spawned cluster processes inherit the environment.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

#: Unix socket paths are limited to 108 bytes; run_cluster puts its
#: rendezvous socket (~24 characters) into the temp directory.
_MAX_SOCKET_DIR = 80

#: Repeats every run makes even when its time is up: three set-ups for
#: the set-up median, and >=100 step samples for the p90.
MIN_REPEATS = 3


def machine_probe() -> dict:
    """Fixed work timed as a box-speed diagnostic: Python loop + matmul."""
    import numpy as np

    started = time.perf_counter()
    total = 0
    for value in range(300_000):
        total += value * value
    python_ms = (time.perf_counter() - started) * 1e3
    matrix = np.random.default_rng(0).standard_normal((128, 128))
    started = time.perf_counter()
    for _ in range(50):
        matrix @ matrix
    matmul_ms = (time.perf_counter() - started) * 1e3
    return {"python_ms": python_ms, "matmul_ms": matmul_ms}


def quantile(samples: list[float], q: int) -> float:
    """The q-th percentile (inclusive method) of ``samples``."""
    if len(samples) == 1:
        return samples[0]
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


class Run:
    """Repeats one workload, checking every repeat's losses."""

    def __init__(self, workload, reference: list[float]):
        self.workload = workload
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.error: str | None = None
        self.completed: list = []

    def timed(self, seconds: float, tracer=None) -> list:
        """Repeats until ``seconds`` are used; raises on the first failure,
        keeping the repeats completed so far in ``self.completed``."""
        from workloads import check_losses

        repeats = self.completed = []
        started = time.perf_counter()
        last = 0.0
        while (
            len(repeats) < MIN_REPEATS
            or time.perf_counter() - started + last <= seconds
        ):
            steps = self.workload.steps + 1
            self.attempted += steps
            began = time.perf_counter()
            try:
                first = sum(len(r.step_s) for r in repeats)
                repeat = self.workload.repeat(tracer, first_step=first)
                check_losses(repeat.losses, self.reference)
            except Exception as exc:
                self.failed += steps
                self.error = f"{type(exc).__name__}: {exc}"
                raise
            last = time.perf_counter() - began
            repeats.append(repeat)
        return repeats


def end_to_end(repeats: list, run: Run) -> dict:
    """The six user-facing metrics of one run.

    Throughput and set-up are medians over the run's repeats; step-time
    percentiles pool every timed step of the run.
    """
    ok_frac = ((run.attempted - run.failed) / run.attempted, "ratio")
    if not repeats:  # the first repeat failed: nothing was timed
        return {"step_ok_frac": ok_frac}
    steps = [s for r in repeats for s in r.step_s]
    rss_kib = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    )
    return {
        "tokens_per_s": (statistics.median(r.tokens_per_s for r in repeats), "tok/s"),
        "step_ms_p50": (statistics.median(steps) * 1e3, "ms"),
        "step_ms_p90": (quantile(steps, 90) * 1e3, "ms"),
        "setup_s": (statistics.median(r.setup_s for r in repeats), "s"),
        "peak_rss_mb": (rss_kib / 1024.0, "MiB"),
        "step_ok_frac": ok_frac,
    }


def per_layer(workload, untraced: list, traced: list, tracer) -> dict:
    import ledger

    units = {name: unit for name, unit, *_ in ledger.LAYER_METRICS}
    if workload.name == "cluster_zero":
        values = ledger.cluster_ledger(
            [r.workdir for r in traced], [r.called for r in traced], skip=1,
        )
    else:
        walls = {}
        for r in traced:
            walls.update(r.step_walls)
        values = ledger.engine_ledger(
            tracer, walls, len(traced), max(r.gpu_peak_pages for r in traced),
        )
        values["engine.demand_fetches"] = (
            sum(r.demand_fetches for r in traced) / max(1, len(walls))
        )
    untraced_tps = statistics.median(r.tokens_per_s for r in untraced)
    traced_tps = statistics.median(r.tokens_per_s for r in traced)
    values["trace.overhead_frac"] = 1.0 - traced_tps / untraced_tps
    return {name: (values[name], units[name]) for name in units}


def measure(name: str, seed: int, seconds: float, trace: bool, workdir: str):
    """Run one workload; returns (result line, diagnostics)."""
    import ledger
    import workloads

    probe_before = machine_probe()
    workload = workloads.make(name, seed, workdir)
    run = Run(workload, workload.reference())
    metrics: dict = {}
    diagnostics: dict = {"probe_before": probe_before}
    try:
        if trace:
            untraced = run.timed(seconds / 2)
            tracer = ledger.Tracer()
            with ledger.installed(tracer):
                traced = run.timed(seconds / 2, tracer)
            metrics = per_layer(workload, untraced, traced, tracer)
            repeats = untraced + traced
        else:
            repeats = run.timed(seconds)
            metrics = end_to_end(repeats, run)
        diagnostics["repeats"] = len(repeats)
        diagnostics["step_samples"] = sum(len(r.step_s) for r in repeats)
    except Exception:  # the failure is the result: report it, exit 1
        import traceback

        traceback.print_exc(file=sys.stderr)
        diagnostics["error"] = run.error
        if not trace:
            metrics = end_to_end(run.completed, run)
    diagnostics["probe_after"] = machine_probe()
    result = {
        "correct": run.failed == 0 and run.error is None,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()
        },
    }
    return result, diagnostics


WORK_BASE = os.path.join(ROOT, ".perfbench_work")


def _workdir() -> str:
    os.makedirs(WORK_BASE, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=WORK_BASE)
    # run_cluster's rendezvous socket and any other temp file stay inside
    # the checkout, unless its path is too deep for a Unix socket.
    if len(workdir) <= _MAX_SOCKET_DIR:
        os.environ["TMPDIR"] = workdir
        tempfile.tempdir = workdir
    return workdir


def _stop_children() -> None:
    """End every process this run started and wait for each.

    ``run_cluster`` reaps its coordinator and workers, but spawning them
    (and their shared memory) starts ``multiprocessing``'s resource
    tracker, which would otherwise outlive this process: it exits only
    once the last end of its pipe closes, after the interpreter is gone,
    and nothing is left to reap it. Stray children go first, since they
    hold that pipe open too.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.terminate()
        child.join(timeout=5.0)
        if child.is_alive():
            child.kill()
            child.join()
    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_fd", None) is not None:
        tracker._stop()


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no repro package under {SRC}", file=sys.stderr)
        return 2

    workdir = _workdir()
    try:
        result, diagnostics = measure(
            args.workload, args.seed, args.seconds, bool(args.trace), workdir
        )
    finally:
        _stop_children()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORK_BASE)
        except OSError:
            pass  # another run still uses it
    print(json.dumps({"diagnostics": diagnostics}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
