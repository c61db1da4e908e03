"""Tests for the simulated Storm runtime."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster import ResourceVector, emulab_testbed, single_rack_cluster
from repro.cluster.network import DistanceLevel
from repro.cluster.node import WorkerSlot
from repro.errors import SchedulingError, SimulationError
from repro.scheduler.assignment import Assignment
from repro.scheduler.default import DefaultScheduler
from repro.scheduler.rstorm import RStormScheduler
from repro.simulation.config import SimulationConfig
from repro.simulation.flowcontrol import FlowControlConfig
from repro.simulation.runtime import SimulationRun
from repro.topology.builder import TopologyBuilder
from repro.topology.component import ExecutionProfile
from tests.conftest import make_linear


def schedule_and_run(topology, cluster=None, config=None, scheduler=None):
    cluster = cluster or emulab_testbed()
    scheduler = scheduler or RStormScheduler()
    assignment = scheduler.schedule([topology], cluster)[topology.topology_id]
    run = SimulationRun(
        cluster, [(topology, assignment)], config or SimulationConfig(duration_s=20.0, warmup_s=5.0)
    )
    return run, run.run()


class TestBasicExecution:
    def test_tuples_flow_to_sinks(self):
        topology = make_linear(parallelism=2, stages=3)
        _, report = schedule_and_run(topology)
        assert report.sunk("chain") > 0

    def test_conservation_sunk_never_exceeds_emitted(self):
        topology = make_linear(parallelism=2, stages=3)
        _, report = schedule_and_run(topology)
        # 1:1 output ratios and a single sink: sink count <= emitted
        assert report.sunk("chain") <= report.emitted("chain")

    def test_spout_pending_bounds_inflight(self):
        topology = make_linear(parallelism=1, stages=2)
        config = SimulationConfig(
            duration_s=20.0, warmup_s=5.0, max_spout_pending=1
        )
        run, report = schedule_and_run(topology, config=config)
        # with credit 1 per spout, unacked work is at most 1 batch deep
        assert report.emitted("chain") - report.sunk("chain") <= (
            topology.component("stage-0").profile.emit_batch_tuples
        ) * 2

    def test_output_ratio_multiplies_stream(self):
        builder = TopologyBuilder("fanout")
        prof = ExecutionProfile(cpu_ms_per_tuple=0.01, output_ratio=3.0)
        builder.set_spout("s", 1, profile=prof)
        builder.set_bolt("triple", 1, profile=prof).shuffle_grouping("s")
        builder.set_bolt("sink", 1, profile=prof).shuffle_grouping("triple")
        topology = builder.build()
        _, report = schedule_and_run(topology)
        sunk = report.sunk("fanout")
        processed_by_triple = report.stats.processed.get(
            ("fanout", "triple"), 0
        )
        assert sunk >= 2.5 * processed_by_triple

    def test_copies_to_every_subscriber(self):
        builder = TopologyBuilder("copies")
        prof = ExecutionProfile(cpu_ms_per_tuple=0.01)
        builder.set_spout("s", 1, profile=prof)
        builder.set_bolt("a", 1, profile=prof).shuffle_grouping("s")
        builder.set_bolt("b", 1, profile=prof).shuffle_grouping("s")
        topology = builder.build()
        _, report = schedule_and_run(topology)
        a = report.stats.processed.get(("copies", "a"), 0)
        b = report.stats.processed.get(("copies", "b"), 0)
        assert a > 0 and abs(a - b) <= prof.emit_batch_tuples

    def test_rate_capped_spout_emits_at_cap(self):
        builder = TopologyBuilder("capped")
        prof = ExecutionProfile(
            cpu_ms_per_tuple=0.001, max_rate_tps=500.0, emit_batch_tuples=50
        )
        builder.set_spout("s", 1, profile=prof)
        builder.set_bolt("sink", 1).shuffle_grouping("s")
        topology = builder.build()
        _, report = schedule_and_run(topology)
        emitted_rate = report.emitted("capped") / 20.0
        assert emitted_rate == pytest.approx(500.0, rel=0.1)

    def test_spout_only_topology_counts_emissions_as_sink(self):
        builder = TopologyBuilder("solo")
        builder.set_spout("s", 1)
        topology = builder.build()
        _, report = schedule_and_run(topology)
        assert report.sunk("solo") == report.emitted("solo") > 0

    def test_incomplete_assignment_rejected(self):
        topology = make_linear()
        cluster = emulab_testbed()
        from repro.scheduler.assignment import Assignment

        partial = Assignment("chain", {})
        with pytest.raises(SchedulingError):
            SimulationRun(cluster, [(topology, partial)])


class TestCpuContention:
    def test_colocated_tasks_share_a_core(self):
        """Two CPU-heavy schedules: packed on 1 node vs spread on 2."""
        from repro.scheduler.assignment import Assignment

        def run_with(nodes):
            builder = TopologyBuilder("hot")
            prof = ExecutionProfile(cpu_ms_per_tuple=1.0, emit_batch_tuples=50)
            builder.set_spout("s", 1, profile=prof)
            builder.set_bolt("b", 1, profile=prof).shuffle_grouping("s")
            topology = builder.build()
            cluster = single_rack_cluster(
                2,
                capacity=ResourceVector.of(
                    memory_mb=2048, cpu=100, bandwidth_mbps=1000
                ),
            )
            tasks = topology.tasks
            mapping = {
                tasks[0]: cluster.nodes[nodes[0]].slots[0],
                tasks[1]: cluster.nodes[nodes[1]].slots[0],
            }
            run = SimulationRun(
                cluster,
                [(topology, Assignment("hot", mapping))],
                SimulationConfig(duration_s=20.0, warmup_s=5.0),
            )
            return run.run().sunk("hot")

        packed = run_with([0, 0])
        spread = run_with([0, 1])
        assert spread > packed * 1.5  # two cores beat one shared core

    def test_memory_overcommit_thrashes(self):
        from repro.scheduler.assignment import Assignment

        def run_with_memory(memory_mb):
            builder = TopologyBuilder("fat")
            prof = ExecutionProfile(cpu_ms_per_tuple=0.1)
            spout = builder.set_spout("s", 1, profile=prof)
            spout.set_memory_load(memory_mb)
            bolt = builder.set_bolt("b", 1, profile=prof)
            bolt.shuffle_grouping("s")
            bolt.set_memory_load(memory_mb)
            topology = builder.build()
            cluster = single_rack_cluster(
                1,
                capacity=ResourceVector.of(
                    memory_mb=2048, cpu=100, bandwidth_mbps=100
                ),
            )
            slot = cluster.nodes[0].slots[0]
            assignment = Assignment(
                "fat", {task: slot for task in topology.tasks}
            )
            run = SimulationRun(
                cluster,
                [(topology, assignment)],
                SimulationConfig(
                    duration_s=20.0, warmup_s=5.0, thrash_factor=25.0
                ),
            )
            return run.run().sunk("fat")

        thrashed = run_with_memory(1500.0)  # 3000 MB resident > 2048
        healthy = run_with_memory(500.0)  # fits comfortably
        assert healthy > 5 * thrashed


class TestFailureInjection:
    def test_node_failure_stops_its_tasks(self):
        topology = make_linear(parallelism=2, stages=2)
        cluster = emulab_testbed()
        assignment = RStormScheduler().schedule([topology], cluster)["chain"]
        run = SimulationRun(
            cluster,
            [(topology, assignment)],
            SimulationConfig(duration_s=60.0, warmup_s=5.0),
        )
        victim = assignment.nodes[0]
        run.fail_node_at(10.0, victim)
        report = run.run()
        # failures surface as timed-out batches
        assert report.failed("chain") > 0

    def test_migration_restores_throughput(self):
        topology = make_linear(parallelism=2, stages=2)
        cluster = emulab_testbed()
        scheduler = RStormScheduler()
        assignment = scheduler.schedule([topology], cluster)["chain"]
        run = SimulationRun(
            cluster,
            [(topology, assignment)],
            SimulationConfig(duration_s=90.0, warmup_s=5.0),
        )
        victim = assignment.nodes[0]
        run.fail_node_at(20.0, victim)

        def reschedule():
            surviving = assignment.restricted_to_nodes(
                n.node_id for n in cluster.alive_nodes
            )
            cluster.node(victim).release_all()
            new = scheduler.schedule([topology], cluster, {"chain": surviving})[
                "chain"
            ]
            run.migrate("chain", new)

        run.on_time(25.0, reschedule)
        report = run.run()
        series = dict(report.throughput_series("chain"))
        assert series[70.0] > 0
        assert series[70.0] > series[20.0] * 0.5

    def test_worker_crash_on_queue_overflow(self):
        """An overloaded bolt with no flow control crashes its worker."""
        builder = TopologyBuilder("overrun")
        fast = ExecutionProfile(
            cpu_ms_per_tuple=0.01, emit_batch_tuples=100, max_rate_tps=20000.0
        )
        slow = ExecutionProfile(cpu_ms_per_tuple=5.0)
        builder.set_spout("s", 2, profile=fast)
        builder.set_bolt("slow", 1, profile=slow).shuffle_grouping("s")
        topology = builder.build()
        cluster = emulab_testbed()
        assignment = DefaultScheduler().schedule([topology], cluster)["overrun"]
        config = SimulationConfig(
            duration_s=60.0,
            warmup_s=5.0,
            max_spout_pending=None,
            queue_overflow_batches=50,
        )
        run = SimulationRun(cluster, [(topology, assignment)], config)
        report = run.run()
        assert report.crashes("overrun") > 0

    def test_tasks_bound_to_a_failed_node_wait_for_its_recovery(self):
        """Nimbus may revive ``Node.alive`` before the run recovers the
        machine (its supervisor is registered until the heartbeat
        timeout).  A task a rescale adds there, or moves there, stays
        dead until the run recovers the node.  The moved task's queue is
        lost with the node, so the short tuple timeout lets the trees
        stranded there time out and new work reach the recovered node."""
        run, assignment = chain_run(batch_timeout_s=3.0)
        spare = next(
            n for n in run.cluster.nodes if n.node_id not in assignment.nodes
        )
        run._fail_node(spare.node_id)
        spare.recover()  # what a membership reconcile does meanwhile
        grown = run.current_topology("chain").with_parallelism("stage-1", 3)
        (added,) = set(grown.tasks) - set(assignment.tasks)
        mapping = {task: assignment.slot_of(task) for task in assignment.tasks}
        moved = grown.tasks_of("stage-1")[0]
        mapping[added] = mapping[moved] = spare.slots[0]
        run.rescale("chain", grown, Assignment("chain", mapping))
        bound = [run._task_runtimes[added], run._task_runtimes[moved]]
        assert not any(rt.alive for rt in bound)
        run.run(10.0)
        assert run.stats.busy.get(spare.node_id, 0.0) == 0.0
        run._recover_node(spare.node_id)
        assert all(rt.alive for rt in bound)
        run.run()
        assert run.stats.busy[spare.node_id] > 0.0

    def test_work_moved_onto_a_failed_node_is_lost_with_it(self):
        """A migrate onto a node the run has failed tears the task down
        as the failure would have: its queued batches return their edge
        credit and the delivery audit stays closed, instead of the work
        waiting on the dead machine for its recovery."""
        run, assignment = chain_run(
            at_least_once=True, flow=FlowControlConfig()
        )
        spare = next(
            n for n in run.cluster.nodes if n.node_id not in assignment.nodes
        )
        run._fail_node(spare.node_id)
        spare.recover()  # what a membership reconcile does meanwhile
        task = max(
            run.current_topology("chain").tasks_of("stage-1"),
            key=lambda t: len(run._task_runtimes[t].work),
        )
        rt = run._task_runtimes[task]
        edge = run.flow_edges("chain")[("stage-0", "stage-1")]
        queued, outstanding = len(rt.work), edge.outstanding
        assert queued > 0
        mapping = {t: assignment.slot_of(t) for t in assignment.tasks}
        mapping[task] = spare.slots[0]
        assert run.migrate("chain", Assignment("chain", mapping)) == 1
        assert not rt.alive and not rt.work
        assert edge.outstanding == outstanding - queued
        assert audit_closes(run.delivery_audit()["chain"])
        run.run()
        assert run.stats.busy.get(spare.node_id, 0.0) == 0.0
        assert audit_closes(run.delivery_audit()["chain"])
        assert all(l.conserved() for l in run.flow_edges("chain").values())


def audit_closes(audit):
    """Every root created is acked, exhausted, shed, pending or queued
    for replay."""
    return audit["origins_created"] == (
        audit["origins_acked"] + audit["origins_exhausted"]
        + audit["origins_shed"] + audit["pending"]
        + audit["replays_outstanding"]
    )


def chain_run(observer=None, **config):
    """A 3-stage chain on the testbed, stepped to 5 s of its 20."""
    topology = make_linear(parallelism=2, stages=3)
    cluster = emulab_testbed()
    assignment = RStormScheduler().schedule([topology], cluster)["chain"]
    run = SimulationRun(
        cluster,
        [(topology, assignment)],
        SimulationConfig(duration_s=20.0, warmup_s=5.0, **config),
    )
    run.observer = observer
    run.run(5.0)
    return run, assignment


def placement_state(run):
    """Every task's slot, every node's task list, and the assignment."""
    return (
        {rt.task: rt.slot for rt in run._task_runtimes.values()},
        {
            node_id: [run._tasks[i].task for i in node_rt.tasks]
            for node_id, node_rt in run._nodes.items()
        },
        run._topology_runtime("chain").assignment,
        run.current_topology("chain"),
    )


def finish(run):
    report = run.run()
    return (
        report.summary(),
        report.events_processed,
        {n: run.stats.busy.get(n, 0.0).hex() for n in run._nodes},
    )


def other_slot(cluster, slot):
    """A slot on a different live node than ``slot``."""
    node = next(n for n in cluster.nodes if n.node_id != slot.node_id)
    return node.slots[0]


class TestRejectedPlacementChanges:
    """A migrate or rescale onto an unknown node is refused before any
    task moves: the run is left exactly as if it was never called."""

    def test_failed_migrate_changes_nothing(self):
        run, assignment = chain_run()
        untouched, _ = chain_run()
        tasks = run.current_topology("chain").tasks
        mapping = {
            task: other_slot(run.cluster, assignment.slot_of(task))
            for task in tasks
        }
        mapping[tasks[-1]] = WorkerSlot("ghost", 6700)
        before = placement_state(run)
        with pytest.raises(SimulationError, match="unknown node 'ghost'"):
            run.migrate("chain", Assignment("chain", mapping))
        assert placement_state(run) == before
        assert finish(run) == finish(untouched)

    def test_failed_rescale_changes_nothing(self):
        run, assignment = chain_run()
        untouched, _ = chain_run()
        shrunk = run.current_topology("chain").with_parallelism("stage-1", 1)
        mapping = {task: assignment.slot_of(task) for task in shrunk.tasks}
        persisting = sorted(shrunk.tasks)
        mapping[persisting[0]] = other_slot(
            run.cluster, mapping[persisting[0]]
        )
        mapping[persisting[-1]] = WorkerSlot("ghost", 6700)
        before = placement_state(run)
        with pytest.raises(SimulationError, match="unknown node 'ghost'"):
            run.rescale("chain", shrunk, Assignment("chain", mapping))
        assert placement_state(run) == before
        assert finish(run) == finish(untouched)


class TestUnknownNodeFaults:
    def test_rejected_when_scheduled(self):
        run, _ = chain_run()
        with pytest.raises(SimulationError, match="cannot fail unknown node"):
            run.fail_node_at(10.0, "ghost")
        with pytest.raises(
            SimulationError, match="cannot recover unknown node"
        ):
            run.recover_node_at(10.0, "ghost")

    def test_no_phantom_node_events(self):
        events = []
        run, _ = chain_run(observer=events.append)
        events.clear()
        with pytest.raises(SimulationError, match="unknown node 'ghost'"):
            run._fail_node("ghost")
        with pytest.raises(SimulationError, match="unknown node 'ghost'"):
            run._recover_node("ghost")
        assert events == []


class TestComponentBacklog:
    def test_sums_the_tuples_of_every_queued_work_kind(self):
        """With every core busy, each kind of work item waits in its
        task's queue, and the backlog adds up the batch sizes: the
        profile's for a closed-loop emit, the carried count for an
        open-loop emit, a replay and a delivery."""
        profile = ExecutionProfile(
            cpu_ms_per_tuple=0.05, tuple_bytes=64, emit_batch_tuples=7
        )
        topology = make_linear(parallelism=1, stages=2, profile=profile)
        cluster = emulab_testbed()
        assignment = RStormScheduler().schedule([topology], cluster)["chain"]
        run = SimulationRun(cluster, [(topology, assignment)])
        spout = run._task_runtimes[topology.tasks_of("stage-0")[0]]
        bolt = run._task_runtimes[topology.tasks_of("stage-1")[0]]
        for node_rt in run._nodes.values():
            node_rt.active = node_rt.cores
        run._try_emit(spout)  # closed-loop emit
        run._arrive(spout, iter(()), ("chain", "stage-0", 0), 11, None)
        run._start_replay(spout, 13, 1, 0, None)
        for root_id, tuples in ((0, 17), (1, 19)):
            run._deliver(bolt, root_id, tuples, DistanceLevel.INTER_NODE, None)
        assert (len(spout.work), len(bolt.work)) == (3, 2)
        assert run.component_backlog("chain", "stage-0") == 7 + 11 + 13
        assert run.component_backlog("chain", "stage-1") == 17 + 19


class TestDeterminism:
    @settings(max_examples=5, deadline=None)
    @given(st.integers(min_value=1, max_value=3))
    def test_identical_runs_identical_results(self, parallelism):
        def once():
            topology = make_linear(parallelism=parallelism, stages=3)
            cluster = emulab_testbed()
            assignment = RStormScheduler().schedule([topology], cluster)["chain"]
            run = SimulationRun(
                cluster,
                [(topology, assignment)],
                SimulationConfig(duration_s=15.0, warmup_s=5.0),
            )
            report = run.run()
            return (
                report.emitted("chain"),
                report.sunk("chain"),
                tuple(report.throughput_series("chain")),
            )

        assert once() == once()
