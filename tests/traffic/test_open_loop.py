"""Integration tests: the open-loop traffic layer through the DES.

Covers the wiring contract: offered accounting, summary key gating,
end-to-end latency digests, per-arrival keys, and the record->replay
fixed point (a replayed run is indistinguishable from the original).
"""

import pytest

from repro.cluster import emulab_testbed
from repro.scheduler.rstorm import RStormScheduler
from repro.simulation.config import SimulationConfig
from repro.simulation.runtime import SimulationRun
from repro.topology.builder import TopologyBuilder
from repro.topology.component import ExecutionProfile
from repro.traffic.arrivals import DeterministicArrivals, PoissonArrivals
from repro.traffic.keys import ZipfKeys
from repro.traffic.trace import TraceReplay
from tests.conftest import make_linear

TRAFFIC_KEYS = {
    "offered", "offered_tuples_per_window", "achieved_ratio",
    "arrivals_dropped", "e2e_p50_ms", "e2e_p99_ms", "e2e_p999_ms",
}


def schedule_and_run(topology, config):
    cluster = emulab_testbed()
    assignment = RStormScheduler().schedule([topology], cluster)[
        topology.topology_id
    ]
    run = SimulationRun(cluster, [(topology, assignment)], config)
    report = run.run()
    return run, report


def open_loop_config(process, **kwargs):
    return SimulationConfig(
        duration_s=20.0, warmup_s=5.0, arrival_process=process, **kwargs
    )


def keyed_chain(parallelism=2):
    builder = TopologyBuilder("keyed")
    prof = ExecutionProfile(cpu_ms_per_tuple=0.05, tuple_bytes=64)
    builder.set_spout("spout", parallelism, profile=prof)
    bolt = builder.set_bolt("sink", parallelism, profile=prof)
    bolt.fields_grouping("spout")
    return builder.build()


class TestOpenLoopBasics:
    def test_deterministic_offered_load_is_exact(self):
        topology = make_linear(parallelism=2, stages=2)
        batch = topology.component("stage-0").profile.emit_batch_tuples
        rate = 200.0
        _, report = schedule_and_run(
            topology, open_loop_config(DeterministicArrivals(rate_tps=rate))
        )
        # One batch every batch/rate seconds per spout task, strictly
        # inside (0, 20]: floor(20 / interval) batches per task.
        per_task = int(20.0 // (batch / rate))
        assert report.offered("chain") == 2 * per_task * batch

    def test_tuples_flow_and_ratio_near_one_under_light_load(self):
        topology = make_linear(parallelism=2, stages=3)
        _, report = schedule_and_run(
            topology, open_loop_config(PoissonArrivals(rate_tps=100.0))
        )
        assert report.sunk("chain") > 0
        assert report.achieved_ratio("chain") == pytest.approx(1.0, abs=0.1)
        assert report.arrivals_dropped("chain") == 0

    def test_e2e_latency_digest_collected(self):
        topology = make_linear(parallelism=2, stages=3)
        run, report = schedule_and_run(
            topology, open_loop_config(PoissonArrivals(rate_tps=100.0))
        )
        latency = report.e2e_latency("chain")
        assert latency.count > 0
        assert 0.0 < latency.p50 <= latency.p99 <= latency.p999

    def test_closed_loop_ignores_traffic_machinery(self):
        topology = make_linear(parallelism=2, stages=2)
        _, report = schedule_and_run(
            topology, SimulationConfig(duration_s=20.0, warmup_s=5.0)
        )
        assert report.offered("chain") == 0
        assert "chain" not in report.stats.e2e_digests
        assert not (TRAFFIC_KEYS & set(report.summary()["chain"]))

    def test_open_loop_summary_carries_traffic_keys(self):
        topology = make_linear(parallelism=2, stages=2)
        _, report = schedule_and_run(
            topology, open_loop_config(PoissonArrivals(rate_tps=100.0))
        )
        assert TRAFFIC_KEYS <= set(report.summary()["chain"])

    def test_open_loop_spouts_ignore_pending_credit(self):
        # max_spout_pending gates closed-loop emission; open-loop
        # arrivals must not be throttled by it.
        topology = make_linear(parallelism=1, stages=2)
        config = SimulationConfig(
            duration_s=20.0, warmup_s=5.0, max_spout_pending=1,
            arrival_process=DeterministicArrivals(rate_tps=500.0),
        )
        _, report = schedule_and_run(topology, config)
        batch = topology.component("stage-0").profile.emit_batch_tuples
        # ~500 tps for 20 s regardless of credit (+-1 batch for the
        # float interval landing on the horizon).
        assert abs(report.offered("chain") - 500.0 * 20.0) <= batch


class TestDeterminismAndReplay:
    def test_same_config_same_run(self):
        topology = make_linear(parallelism=2, stages=3)
        config = open_loop_config(PoissonArrivals(rate_tps=150.0))
        _, a = schedule_and_run(topology, config)
        _, b = schedule_and_run(topology, config)
        assert a.summary() == b.summary()
        assert a.events_processed == b.events_processed

    def test_arrival_seed_changes_the_sample(self):
        topology = make_linear(parallelism=2, stages=3)
        _, a = schedule_and_run(
            topology,
            open_loop_config(PoissonArrivals(rate_tps=150.0), arrival_seed=1),
        )
        _, b = schedule_and_run(
            topology,
            open_loop_config(PoissonArrivals(rate_tps=150.0), arrival_seed=2),
        )
        assert a.offered("chain") != b.offered("chain")

    def test_record_replay_reproduces_the_run_exactly(self):
        topology = make_linear(parallelism=2, stages=3)
        run, report = schedule_and_run(
            topology, open_loop_config(PoissonArrivals(rate_tps=150.0))
        )
        trace = run.arrival_trace()
        assert len(trace) > 0
        assert trace.total_tuples() == report.offered("chain")

        replay_run, replay_report = schedule_and_run(
            topology, open_loop_config(TraceReplay(trace))
        )
        assert replay_report.events_processed == report.events_processed
        assert replay_report.summary() == report.summary()
        # Replaying the replay's own log is a fixed point.
        assert replay_run.arrival_trace() == trace

    def test_closed_loop_trace_is_empty(self):
        topology = make_linear(parallelism=1, stages=2)
        run, _ = schedule_and_run(
            topology, SimulationConfig(duration_s=10.0, warmup_s=2.0)
        )
        assert len(run.arrival_trace()) == 0


class TestArrivalKeys:
    def test_keys_recorded_and_skew_reaches_executors(self):
        topology = keyed_chain(parallelism=2)
        config = open_loop_config(
            PoissonArrivals(rate_tps=200.0),
            arrival_keys=ZipfKeys(num_keys=32, exponent=1.5),
        )
        run, report = schedule_and_run(topology, config)
        trace = run.arrival_trace()
        keys = {key for _, _, _, key in trace.records}
        assert len(trace) > 0
        assert -1 not in keys  # every arrival got a key assigned
        assert len(keys) > 1
        assert report.sunk("keyed") > 0

    def test_without_generator_keys_stay_none(self):
        topology = keyed_chain(parallelism=2)
        run, _ = schedule_and_run(
            topology, open_loop_config(PoissonArrivals(rate_tps=200.0))
        )
        trace = run.arrival_trace()
        assert len(trace) > 0
        assert {key for _, _, _, key in trace.records} == {-1}

    def test_replay_preserves_keys(self):
        topology = keyed_chain(parallelism=2)
        run, report = schedule_and_run(
            topology,
            open_loop_config(
                PoissonArrivals(rate_tps=200.0),
                arrival_keys=ZipfKeys(num_keys=8),
            ),
        )
        trace = run.arrival_trace()
        replay_run, replay_report = schedule_and_run(
            topology, open_loop_config(TraceReplay(trace))
        )
        assert replay_run.arrival_trace() == trace
        assert replay_report.summary() == report.summary()
