"""Integration tests: the flow-control layer inside the DES runtime.

Covers the tentpole contracts end to end: bounded queues stall producers
edge-by-edge until spouts throttle, shedding keeps the delivery-audit
closure exact (every origin acked, exhausted, shed or pending), the
priority policy sheds the free tier before gold, and — the one the whole
layer hangs on — the disabled path is byte-identical to the seed.
"""

import random

import pytest

from repro.cluster import emulab_testbed
from repro.errors import SimulationError
from repro.scheduler.assignment import Assignment
from repro.scheduler.rstorm import RStormScheduler
from repro.simulation.config import SimulationConfig
from repro.simulation.flowcontrol import FlowControlConfig
from repro.simulation.runtime import SimulationRun
from repro.simulation.tracing import Tracer
from repro.traffic.arrivals import PoissonArrivals
from repro.workloads.micro import hotspot_topology, linear_topology

TOPO_ID = "hotspot-compute"


def overloaded_run(flow, rate_tps=375.0, duration_s=40.0, tracer=None,
                   topologies=None, seed=7):
    """A hotspot run offered 1.5x nominal load with ``flow`` installed."""
    random.seed(seed)
    topologies = topologies or [hotspot_topology()]
    cluster = emulab_testbed()
    assignments = RStormScheduler().schedule(topologies, cluster)
    config = SimulationConfig(
        duration_s=duration_s,
        warmup_s=10.0,
        arrival_process=PoissonArrivals(rate_tps=rate_tps),
        flow=flow,
    )
    run = SimulationRun(
        cluster,
        [(t, assignments[t.topology_id]) for t in topologies],
        config,
    )
    run.observer = tracer
    report = run.run()
    return run, report


def stall_resume_kinds(tracer):
    """Each edge's stall/resume event kinds, in order."""
    per_edge = {}
    for event in tracer.events():
        if event.kind in ("stall", "resume"):
            edge = (event.component, event.peer)
            per_edge.setdefault(edge, []).append(event.kind)
    return per_edge


def assert_alternates(kinds, edge):
    for i, kind in enumerate(kinds):
        expected = "stall" if i % 2 == 0 else "resume"
        assert kind == expected, (edge, kinds)


def assert_closure(run, topology_id):
    audit = run.delivery_audit()[topology_id]
    assert audit["origins_created"] == (
        audit["origins_acked"]
        + audit["origins_exhausted"]
        + audit["origins_shed"]
        + audit["pending"]
        + audit["replays_outstanding"]
    ), audit


class TestBackpressure:
    def test_internal_edge_stalls_and_propagates_to_spout(self):
        tracer = Tracer()
        run, report = overloaded_run(
            FlowControlConfig(queue_capacity=32), tracer=tracer
        )
        stalled_edges = {
            (event.component, event.peer)
            for event in tracer.query(kind="stall")
        }
        # The fan-in hotspot fills bolt-1 -> bolt-2 first, and the stall
        # propagates upstream to the spout -> bolt-1 edge.
        assert ("bolt-1", "bolt-2") in stalled_edges
        assert ("spout", "bolt-1") in stalled_edges
        assert report.spout_throttled_s(TOPO_ID) > 0
        assert report.credit_stall_total(TOPO_ID) > 0

    def test_stall_resume_alternate_per_edge(self):
        tracer = Tracer()
        overloaded_run(FlowControlConfig(queue_capacity=32), tracer=tracer)
        per_edge = stall_resume_kinds(tracer)
        assert per_edge
        for edge, kinds in per_edge.items():
            assert_alternates(kinds, edge)

    def test_stalled_spout_never_emits(self):
        """Between a spout stall and its resume, no spout task starts an
        emit: only the batch each task already had in service completes,
        so a task emits at most once per stall window."""
        tracer = Tracer()
        overloaded_run(FlowControlConfig(queue_capacity=32), tracer=tracer)
        emitted_while_stalled = None
        saw_windows = 0
        for event in tracer.events():
            if event.kind == "stall" and event.component == "spout":
                emitted_while_stalled = set()
                saw_windows += 1
            elif event.kind == "resume" and event.component == "spout":
                emitted_while_stalled = None
            elif event.kind == "emit" and emitted_while_stalled is not None:
                assert (
                    event.task not in emitted_while_stalled
                ), f"stalled spout {event.task} emitted twice at {event.time}"
                emitted_while_stalled.add(event.task)
        assert saw_windows > 0, "no spout stall was ever traced"

    def test_credit_ledgers_conserved_after_run(self):
        run, _ = overloaded_run(FlowControlConfig(queue_capacity=32))
        edges = run.flow_edges(TOPO_ID)
        assert edges, "no flow edges built"
        for key, ledger in edges.items():
            assert ledger.conserved(), (key, ledger)

    def test_no_policy_means_no_shedding(self):
        run, report = overloaded_run(FlowControlConfig(queue_capacity=32))
        assert report.shed(TOPO_ID) == 0
        assert report.failed(TOPO_ID) == 0
        assert_closure(run, TOPO_ID)

    def test_flow_edges_requires_flow(self):
        random.seed(7)
        topology = linear_topology("compute")
        cluster = emulab_testbed()
        assignment = RStormScheduler().schedule([topology], cluster)[
            topology.topology_id
        ]
        run = SimulationRun(
            cluster,
            [(topology, assignment)],
            SimulationConfig(duration_s=5.0, warmup_s=1.0),
        )
        with pytest.raises(SimulationError):
            run.flow_edges(topology.topology_id)


class TestRescaleResize:
    """A rescale resizes the pools of the edges into the rescaled
    component.  An edge the new thresholds move across a watermark
    stalls or resumes through the same code as a send or a drain, with
    the same hysteresis, so every stall is traced and metered."""

    EDGE = ("spout", "bolt-1")

    def stepped_run(self, stop):
        """The overloaded hotspot run (queue capacity 32), stepped event
        by event until ``stop`` holds for the spout -> bolt-1 ledger."""
        random.seed(7)
        topology = hotspot_topology()
        cluster = emulab_testbed()
        assignment = RStormScheduler().schedule([topology], cluster)[TOPO_ID]
        config = SimulationConfig(
            duration_s=40.0,
            warmup_s=10.0,
            arrival_process=PoissonArrivals(rate_tps=375.0),
            flow=FlowControlConfig(queue_capacity=32),
        )
        run = SimulationRun(cluster, [(topology, assignment)], config)
        tracer = Tracer()
        run.observer = tracer
        run.run(until=0.0)
        edge = run.flow_edges(TOPO_ID)[self.EDGE]
        while not stop(edge):
            run.sim.step()
        return run, tracer, topology, assignment

    def rescale_bolt_1(self, run, topology, assignment, parallelism):
        """Rescale bolt-1; added tasks share its first task's slot."""
        new_topology = topology.with_parallelism("bolt-1", parallelism)
        current = assignment.as_dict()
        slot = current[topology.tasks_of("bolt-1")[0]]
        mapping = {task: current.get(task, slot) for task in new_topology.tasks}
        run.rescale(TOPO_ID, new_topology, Assignment(TOPO_ID, mapping))
        return run.flow_edges(TOPO_ID)[self.EDGE]

    def test_grown_pool_keeps_a_stalled_edge_stalled(self):
        run, tracer, topology, assignment = self.stepped_run(
            lambda edge: edge.stalled
        )
        before = run.flow_edges(TOPO_ID)[self.EDGE]
        # 6 x 32 credits: stall at round(192 * 0.8) = 154.
        assert before.pool == 192 and before.outstanding >= 154
        edge = self.rescale_bolt_1(run, topology, assignment, 7)
        # 7 x 32 credits: stall at round(224 * 0.8) = 179, resume at
        # int(224 * 0.4) = 89.  Below the new stall threshold but above
        # the resume threshold, the edge keeps its stall.
        assert edge.pool == 224
        assert 89 < edge.outstanding < 179
        assert edge is before
        assert edge.stalled and edge.stall_count == 1
        run.run()
        per_edge = stall_resume_kinds(tracer)
        assert per_edge[self.EDGE][:2] == ["stall", "resume"]
        for edge_name, kinds in per_edge.items():
            assert_alternates(kinds, edge_name)
        for edge_name, ledger in run.flow_edges(TOPO_ID).items():
            assert ledger.conserved(), (edge_name, ledger)

    def test_shrunk_pool_stalls_and_meters_the_spout(self):
        run, tracer, topology, assignment = self.stepped_run(
            lambda edge: edge.outstanding >= 140
        )
        assert not run.flow_edges(TOPO_ID)[self.EDGE].stalled
        edge = self.rescale_bolt_1(run, topology, assignment, 1)
        rescaled_at = run.sim.now
        # One consumer left: 32 credits, stall at 26.
        assert edge.pool == 32 and edge.outstanding >= 26
        assert edge.stalled and edge.stall_count == 1
        assert [
            event.time for event in tracer.query(kind="stall")
            if (event.component, event.peer) == self.EDGE
        ] == [rescaled_at]
        report = run.run()
        assert report.credit_stalls(TOPO_ID)[self.EDGE] == edge.stall_count
        per_edge = stall_resume_kinds(tracer)
        for edge_name, kinds in per_edge.items():
            assert_alternates(kinds, edge_name)
        # The spout's throttled time is exactly its closed stall
        # windows, the first of which the rescale opened.
        spout_events = [
            event for event in tracer.events()
            if event.kind in ("stall", "resume") and event.component == "spout"
        ]
        windows = list(zip(spout_events[::2], spout_events[1::2]))
        assert windows and windows[0][0].time == rescaled_at
        assert report.spout_throttled_s(TOPO_ID) == pytest.approx(
            sum(resume.time - stall.time for stall, resume in windows)
        )


class TestShedding:
    def test_tail_drop_sheds_at_both_stages(self):
        tracer = Tracer()
        run, report = overloaded_run(
            FlowControlConfig(queue_capacity=32, shedding="tail-drop"),
            tracer=tracer,
        )
        stages = report.shed_by_stage(TOPO_ID)
        assert stages.get("ingress", 0) > 0
        assert stages.get("queue", 0) > 0
        assert report.shed(TOPO_ID) == sum(stages.values())
        assert len(tracer.query(kind="shed")) > 0

    def test_closure_holds_with_shedding(self):
        run, report = overloaded_run(
            FlowControlConfig(queue_capacity=32, shedding="tail-drop")
        )
        assert report.shed(TOPO_ID) > 0
        assert report.failed(TOPO_ID) == 0
        assert report.crashes(TOPO_ID) == 0
        assert_closure(run, TOPO_ID)

    def test_shed_events_match_stats(self):
        events = []
        _, report = overloaded_run(
            FlowControlConfig(queue_capacity=32, shedding="tail-drop"),
            tracer=events.append,
        )
        shed = [event for event in events if event.kind == "shed"]
        assert shed
        assert {event.reason for event in shed} <= {"ingress", "queue"}
        assert sum(event.tuples for event in shed) == report.shed(TOPO_ID)

    def test_summary_carries_flow_keys(self):
        _, report = overloaded_run(
            FlowControlConfig(queue_capacity=32, shedding="tail-drop")
        )
        row = report.summary()[TOPO_ID]
        assert row["shed"] > 0
        assert 0 < row["shed_rate"] < 1
        assert row["spout_throttled_s"] > 0
        assert row["credit_stalls"] > 0
        assert "empty" not in row

    def test_priority_sheds_free_before_gold(self):
        gold = hotspot_topology(3, 1, "hotspot-gold")
        free = hotspot_topology(3, 1, "hotspot-free")
        flow = FlowControlConfig(
            queue_capacity=32,
            shedding="priority",
            priorities=(("hotspot-gold", 2), ("hotspot-free", 0)),
        )
        run, report = overloaded_run(
            flow, rate_tps=250.0, topologies=[gold, free]
        )
        gold_shed = report.shed("hotspot-gold")
        free_shed = report.shed("hotspot-free")
        assert free_shed > gold_shed
        assert_closure(run, "hotspot-gold")
        assert_closure(run, "hotspot-free")


class TestDisabledPathByteIdentity:
    """The whole layer must be invisible when ``config.flow`` is None.

    Event counts and summaries are pinned against the pre-flow seed:
    any hot-path perturbation (an extra event, a reordered heap entry, a
    float drift) changes these numbers.
    """

    def _execute(self, arrival_process=None):
        random.seed(7)
        from repro.experiments.harness import wire

        wiring = wire(
            RStormScheduler(),
            [linear_topology("compute")],
            emulab_testbed(),
            SimulationConfig(
                duration_s=60.0,
                warmup_s=10.0,
                arrival_process=arrival_process,
            ),
        )
        return wiring.outcome(wiring.run.run())

    def test_closed_loop_pinned(self):
        outcome = self._execute()
        report = outcome.report
        assert report.events_processed == 14317
        row = report.summary()["linear-compute"]
        assert row == {
            "avg_tuples_per_window": 14950.0,
            "avg_tuples_per_s": 1495.0,
            "emitted": 90000.0,
            "sunk": 88750.0,
            "failed": 0.0,
            "nodes_used": 6.0,
            "mean_cpu_utilisation": 0.9939,
            "ack_p50_ms": 750.4,
            "worker_crashes": 0.0,
        }

    def test_open_loop_pinned(self):
        outcome = self._execute(PoissonArrivals(rate_tps=250.0))
        report = outcome.report
        assert report.events_processed == 14130
        row = report.summary()["linear-compute"]
        assert row["offered"] == 91100.0
        assert row["achieved_ratio"] == 0.9736
        assert row["e2e_p99_ms"] == 5021.197
        assert "shed" not in row and "credit_stalls" not in row


class TestEmptyReportMarker:
    def test_zero_tuple_topology_marked_empty(self):
        """A topology that moves nothing gets an explicit marker instead
        of percentile rows that read as measurements."""
        random.seed(7)
        from repro.topology.builder import TopologyBuilder
        from repro.topology.component import ExecutionProfile

        builder = TopologyBuilder("idle")
        prof = ExecutionProfile(
            cpu_ms_per_tuple=1.0, emit_batch_tuples=50, max_rate_tps=1.0
        )
        builder.set_spout("s", 1, profile=prof)
        builder.set_bolt("sink", 1).shuffle_grouping("s")
        topology = builder.build()
        cluster = emulab_testbed()
        assignment = RStormScheduler().schedule([topology], cluster)[
            "idle"
        ]
        # Zero offered load: the open-loop spout never has arrivals.
        run = SimulationRun(
            cluster,
            [(topology, assignment)],
            SimulationConfig(
                duration_s=5.0,
                warmup_s=1.0,
                arrival_process=PoissonArrivals(rate_tps=1e-9),
            ),
        )
        report = run.run()
        assert report.is_empty("idle")
        row = report.summary()["idle"]
        assert row["empty"] == 1.0

    def test_busy_topology_not_marked(self):
        random.seed(7)
        topology = linear_topology("compute")
        cluster = emulab_testbed()
        assignment = RStormScheduler().schedule([topology], cluster)[
            topology.topology_id
        ]
        run = SimulationRun(
            cluster,
            [(topology, assignment)],
            SimulationConfig(duration_s=5.0, warmup_s=1.0),
        )
        report = run.run()
        assert not report.is_empty("linear-compute")
        assert "empty" not in report.summary()["linear-compute"]
