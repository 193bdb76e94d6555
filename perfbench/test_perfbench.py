"""Tests of the benchmark's own logic: the loss gate and the ledger maths.

Run from the repository root with ``python -m pytest perfbench``.
"""

from __future__ import annotations

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import ledger  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def test_identical_losses_pass_the_gate():
    reference = [3.5, 3.25, 3.0]
    workloads.check_losses(list(reference), reference)
    workloads.check_losses(reference[:2], reference)


@pytest.mark.parametrize("losses", [
    [3.5, 3.25 + 1e-7, 3.0],  # one ulp-scale perturbation
    [3.5, 3.0, 3.25],         # reordered
    [3.5, 3.25, 3.0, 2.75],   # more steps than the reference
])
def test_perturbed_losses_trip_the_gate(losses):
    with pytest.raises(workloads.LossMismatch):
        workloads.check_losses(losses, [3.5, 3.25, 3.0])


def test_mismatch_fails_the_run_and_counts_its_steps(tmp_path):
    """A perturbed reference makes the command report failure."""
    workload = workloads.make("evict_tight", 0, str(tmp_path))
    reference = workload.reference()
    reference[5] += 1e-3
    bench = run.Run(workload, reference)
    with pytest.raises(workloads.LossMismatch):
        bench.timed(0.0)
    assert bench.attempted == bench.failed == workload.steps + 1
    assert bench.error.startswith("LossMismatch")


def test_self_time_subtracts_direct_children_only():
    spans = [
        ledger.Span(0, "engine.call", 0.0, 10.0, None, 0, "MainThread"),
        ledger.Span(1, "nn.forward", 1.0, 9.0, 0, 0, "MainThread"),
        ledger.Span(2, "engine.hook", 2.0, 5.0, 1, 0, "MainThread"),
        ledger.Span(3, "memory.move_pages", 2.5, 4.5, 2, 0, "MainThread"),
    ]
    own = ledger.self_times(spans)
    assert own == {0: 2.0, 1: 5.0, 2: 1.0, 3: 2.0}
    assert sum(own.values()) == spans[0].end - spans[0].start


def test_tracer_nests_spans_and_marks_raising_calls():
    tracer = ledger.Tracer()

    def inner(fail):
        if fail:
            raise ValueError("boom")
        return 7

    traced_inner = tracer.wrap("inner", inner)
    traced_outer = tracer.wrap("outer", lambda: traced_inner(False))
    assert traced_outer() == 7
    with pytest.raises(ValueError):
        traced_inner(True)
    names = {(s.name, s.failed) for s in tracer.spans}
    assert names == {("inner", False), ("outer", False), ("inner", True)}
    inner_ok = next(s for s in tracer.spans if s.name == "inner" and not s.failed)
    outer = next(s for s in tracer.spans if s.name == "outer")
    assert inner_ok.parent == outer.span_id


def _write_rank(path, rank, steps, step_ms=10.0, gap_ms=1.0):
    """One rank's stream: step spans with grads/reduce_scatter children."""
    events = [{"kind": "meta", "source": f"w{rank}i0"}]
    t = 100.0
    for step in range(steps):
        start = t
        events.append({"kind": "span", "name": "grads", "track": "train",
                       "start": start, "end": start + 0.004, "depth": 1, "args": {}})
        events.append({"kind": "span", "name": "reduce_scatter", "track": "train",
                       "start": start + 0.004, "end": start + 0.008, "depth": 1,
                       "args": {"nbytes": 64}})
        end = start + step_ms / 1e3
        events.append({"kind": "span", "name": f"step{step}", "track": "train",
                       "start": start, "end": end, "depth": 0,
                       "args": {"step": step, "rank": rank}})
        t = end + gap_ms / 1e3
    with open(path, "w", encoding="utf-8") as handle:
        for event in events:
            handle.write(json.dumps(event) + "\n")
        handle.write('{"kind": "metrics", "tru')  # a torn tail line


def test_cluster_ledger_splits_the_step_interval(tmp_path):
    telemetry = tmp_path / "telemetry"
    telemetry.mkdir()
    _write_rank(telemetry / "w0i0.jsonl", 0, steps=5)
    _write_rank(telemetry / "w1i0.jsonl", 1, steps=5)
    starts, ends = ledger.cluster_steps(str(tmp_path))
    assert len(starts) == len(ends) == 5
    values = ledger.cluster_ledger([str(tmp_path)], [99.0], skip=1)
    assert values["cluster.grads.ms"] == pytest.approx(4.0)
    assert values["cluster.reduce_scatter.ms"] == pytest.approx(4.0)
    assert values["cluster.loss_gather.ms"] == pytest.approx(2.0)
    assert values["cluster.barrier.ms"] == pytest.approx(1.0)
    assert values["cluster.collective_bytes"] == pytest.approx(64.0)
    assert values["cluster.spawn.s"] == pytest.approx(1.0)
    assert values["trace.unattributed_frac"] == pytest.approx(0.0, abs=1e-9)


def test_every_layer_metric_has_a_unit_and_a_mapping():
    names = [entry[0] for entry in ledger.LAYER_METRICS]
    assert len(names) == len(set(names))
    for name, unit, call, moves, flat in ledger.LAYER_METRICS:
        assert unit and call and moves and flat, name
