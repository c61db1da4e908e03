"""RecoveryMonitor: causal hooks, metric extraction, canonical JSON."""

import json

import pytest

from repro.faults import FaultSchedule, NodeCrash, RecoveryMonitor
from tests.faults.conftest import build_chaos


def crashed_context(duration_s=60.0):
    probe = build_chaos(FaultSchedule())
    victim = probe.nimbus.assignments[probe.topology.topology_id].nodes[0]
    ctx = build_chaos(
        FaultSchedule.of(NodeCrash(at=20.0, node_id=victim)),
        duration_s=duration_s,
    )
    return ctx, victim


class TestConstruction:
    def test_steady_fraction_validated(self):
        for bad in (0.0, -0.5, 1.5):
            with pytest.raises(ValueError):
                RecoveryMonitor(steady_fraction=bad)


class TestHooks:
    def test_expire_and_reschedule_events_recorded(self):
        ctx, victim = crashed_context()
        ctx.run.run()
        expires = ctx.monitor.query(kind="expire")
        reschedules = ctx.monitor.query(kind="reschedule")
        assert [e.node for e in expires] == [victim]
        assert reschedules
        assert reschedules[0].topology == ctx.topology.topology_id


class TestReport:
    def test_latencies_bounded_by_detector_and_nimbus_periods(self):
        ctx, _ = crashed_context()
        report = ctx.run.run()
        recovery = ctx.monitor.report(ctx.topology.topology_id, report)
        [fault] = recovery.faults
        # detection within heartbeat timeout + one check period
        assert 0.0 < fault.detection_latency_s <= 6.0 + 2.0
        # rescheduling within detection + one scheduling period
        assert fault.detection_latency_s <= fault.reschedule_latency_s
        assert fault.reschedule_latency_s <= fault.detection_latency_s + 5.0

    def test_baseline_excludes_post_fault_windows(self):
        ctx, _ = crashed_context()
        report = ctx.run.run()
        recovery = ctx.monitor.report(ctx.topology.topology_id, report)
        series = dict(report.throughput_series(ctx.topology.topology_id))
        # warmup 10s, fault at 20s -> the only fully-pre-fault window is 10-20
        assert recovery.baseline_tuples_per_window == series[10.0]

    def test_fault_free_run_has_no_fault_entries(self):
        ctx = build_chaos(FaultSchedule())
        report = ctx.run.run()
        recovery = ctx.monitor.report(ctx.topology.topology_id, report)
        assert recovery.faults == ()
        assert recovery.migrations == 0
        assert recovery.baseline_tuples_per_window > 0
        assert recovery.mean_detection_latency_s is None
        assert recovery.worst_throughput_floor_ratio is None

    def test_as_dict_json_round_trip(self):
        ctx, _ = crashed_context()
        report = ctx.run.run()
        recovery = ctx.monitor.report(ctx.topology.topology_id, report)
        parsed = json.loads(recovery.to_json())
        assert parsed == recovery.as_dict()
        assert parsed["topology_id"] == ctx.topology.topology_id
        assert len(parsed["faults"]) == 1

    def test_to_json_is_byte_identical_across_fresh_runs(self):
        first_ctx, _ = crashed_context()
        first = first_ctx.monitor.report(
            first_ctx.topology.topology_id, first_ctx.run.run()
        )
        second_ctx, _ = crashed_context()
        second = second_ctx.monitor.report(
            second_ctx.topology.topology_id, second_ctx.run.run()
        )
        assert first.to_json() == second.to_json()
