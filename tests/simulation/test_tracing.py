"""Tests for the event tracer."""

import pytest

from repro.cluster import emulab_testbed
from repro.scheduler.rstorm import RStormScheduler
from repro.simulation import SimulationConfig, SimulationRun
from repro.simulation.tracing import EventKind, Tracer
from tests.conftest import make_linear


def traced_run(duration=15.0, capacity=100_000, fail_at=None):
    topology = make_linear(parallelism=2, stages=2)
    cluster = emulab_testbed()
    assignment = RStormScheduler().schedule([topology], cluster)["chain"]
    run = SimulationRun(
        cluster,
        [(topology, assignment)],
        SimulationConfig(duration_s=duration, warmup_s=2.0),
    )
    tracer = Tracer(capacity=capacity)
    run.observer = tracer
    if fail_at is not None:
        run.fail_node_at(fail_at, assignment.nodes[0])
    report = run.run()
    return tracer, report


class TestTracing:
    def test_records_emits_delivers_acks(self):
        tracer, _ = traced_run()
        counts = tracer.counts_by_kind()
        assert counts["emit"] > 0
        assert counts["deliver"] > 0
        assert counts["ack"] > 0

    def test_ack_count_matches_latency_samples(self):
        tracer, report = traced_run()
        assert tracer.counts_by_kind()["ack"] == report.ack_latency("chain").count

    def test_query_filters_by_kind_and_time(self):
        tracer, _ = traced_run()
        emits = tracer.query(kind="emit")
        assert all(e.kind == "emit" for e in emits)
        early = tracer.query(until=5.0)
        late = tracer.query(since=5.0)
        assert len(early) + len(late) >= len(tracer)

    def test_events_are_time_ordered(self):
        tracer, _ = traced_run()
        times = [e.time for e in tracer.events()]
        assert times == sorted(times)

    def test_node_failure_traced(self):
        # batch timeout is 30 s; run long enough for stranded batches to
        # expire after the 10 s failure
        tracer, _ = traced_run(duration=60.0, fail_at=10.0)
        downs = tracer.query(kind="node_down")
        assert len(downs) == 1
        assert downs[0].time == 10.0
        assert tracer.query(kind="fail")  # timed-out batches follow

    def test_ring_buffer_bounds_memory(self):
        tracer, _ = traced_run(capacity=100)
        assert len(tracer) == 100
        assert tracer.dropped > 0

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            Tracer(capacity=0)

    def test_str_rendering(self):
        tracer, _ = traced_run()
        text = str(tracer.events()[0])
        assert "s]" in text

    def test_events_carry_typed_fields(self):
        tracer, report = traced_run()
        [emit, *_] = tracer.query(kind="emit")
        assert emit.kind is EventKind.EMIT
        assert emit.task.component == "stage-0" and emit.tuples > 0
        deliver = tracer.query(kind="deliver")[0]
        assert deliver.root is not None and deliver.level is not None
        latencies = [e.latency for e in tracer.query(kind="ack")]
        assert latencies == list(report.stats.ack_latencies("chain"))
