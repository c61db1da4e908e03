"""At-least-once delivery layer: replay, message loss, acker edge cases.

The replay tests pin tasks to nodes by hand (spout on node-0-0, bolts
downstream) so a node failure deterministically strands every in-flight
tree — no dependence on which node a scheduler happens to pick.
"""

import random

import pytest

from repro.cluster import ResourceVector, emulab_testbed, single_rack_cluster
from repro.cluster.network import DistanceLevel
from repro.cluster.node import WorkerSlot
from repro.scheduler.assignment import Assignment
from repro.simulation.config import SimulationConfig
from repro.simulation.network import TransferModel
from repro.simulation.runtime import SimulationRun
from repro.simulation.tracing import Tracer
from tests.conftest import make_linear


def pinned_run(config, cluster=None, stages=2, cross_rack=False):
    """A linear chain with stage ``i`` pinned to node ``i`` (or to rack
    ``i`` when ``cross_rack``), so tests control exactly which link or
    node each hop crosses.  Returns ``(run, topology)``."""
    if cluster is None:
        cluster = (
            emulab_testbed() if cross_rack else single_rack_cluster(stages)
        )
    topology = make_linear(parallelism=1, stages=stages)
    nodes = sorted(cluster.nodes, key=lambda n: n.node_id)
    if cross_rack:
        by_rack = {}
        for node in nodes:
            by_rack.setdefault(node.rack_id, node)
        nodes = [by_rack[r] for r in sorted(by_rack)]
    mapping = {}
    for task in topology.tasks:
        stage = int(task.component.split("-")[1])
        mapping[task] = WorkerSlot(nodes[stage % len(nodes)].node_id, 6700)
    run = SimulationRun(
        cluster, [(topology, Assignment(topology.topology_id, mapping))],
        config,
    )
    return run, topology


def audit_is_closed(audit_entry):
    """The at-least-once ledger invariant: nothing silently dropped."""
    return audit_entry["origins_created"] == (
        audit_entry["origins_acked"]
        + audit_entry["origins_exhausted"]
        + audit_entry["pending"]
        + audit_entry["replays_outstanding"]
    )


class TestReplay:
    def test_dead_consumer_triggers_replays_then_exhaustion(self):
        config = SimulationConfig(
            duration_s=40.0, warmup_s=5.0, batch_timeout_s=2.0,
            at_least_once=True, max_retries=2, replay_backoff_s=0.5,
        )
        run, topology = pinned_run(config)
        run.fail_node_at(5.0, "node-0-1")  # the bolt's node, forever
        report = run.run()
        tid = topology.topology_id
        assert report.replayed(tid) > 0
        assert report.exhausted(tid) > 0
        audit = run.delivery_audit()[tid]
        assert audit_is_closed(audit)
        assert audit["origins_exhausted"] > 0
        # the spout's credit ledger agrees with the acker's
        assert audit["spout_inflight"] == audit["pending"]
        assert audit["spout_inflight"] >= 0

    def test_replays_get_fresh_roots_linked_to_origin(self):
        config = SimulationConfig(
            duration_s=30.0, warmup_s=5.0, batch_timeout_s=2.0,
            at_least_once=True, max_retries=1, replay_backoff_s=0.5,
        )
        run, topology = pinned_run(config)
        tracer = Tracer()
        run.observer = tracer
        run.fail_node_at(5.0, "node-0-1")
        run.run()
        replays = tracer.query(kind="replay", topology=topology.topology_id)
        assert replays
        for event in replays:
            # a replay rides a brand-new root id, causally linked back
            assert event.root != event.origin
            assert event.attempt >= 1

    def test_max_retries_zero_exhausts_without_replaying(self):
        config = SimulationConfig(
            duration_s=30.0, warmup_s=5.0, batch_timeout_s=2.0,
            at_least_once=True, max_retries=0,
        )
        run, topology = pinned_run(config)
        run.fail_node_at(5.0, "node-0-1")
        report = run.run()
        tid = topology.topology_id
        assert tid not in report.stats.replayed
        assert report.exhausted(tid) > 0
        assert audit_is_closed(run.delivery_audit()[tid])

    def test_dead_spout_resolves_outstanding_replays_as_exhausted(self):
        config = SimulationConfig(
            duration_s=40.0, warmup_s=5.0, batch_timeout_s=2.0,
            at_least_once=True, max_retries=3, replay_backoff_s=4.0,
        )
        run, topology = pinned_run(config)
        run.fail_node_at(5.0, "node-0-1")
        # long backoff guarantees replays are still outstanding when the
        # spout's own node dies
        run.fail_node_at(9.0, "node-0-0")
        run.run()
        audit = run.delivery_audit()[topology.topology_id]
        assert audit["origins_exhausted"] > 0
        assert audit["replays_outstanding"] == 0
        assert audit_is_closed(audit)

    def test_disabled_by_default_no_replay_traffic(self):
        config = SimulationConfig(
            duration_s=30.0, warmup_s=5.0, batch_timeout_s=2.0,
        )
        run, topology = pinned_run(config)
        run.fail_node_at(5.0, "node-0-1")
        report = run.run()
        tid = topology.topology_id
        assert report.failed(tid) > 0
        assert tid not in report.stats.replayed
        assert report.exhausted(tid) == 0
        assert "replayed" not in report.summary()[tid]


class TestAckerEdgeCases:
    def test_timeout_returns_credit_late(self):
        """A spout blocked at the pending cap resumes when timed-out
        trees return their credit — emission does not deadlock."""
        config = SimulationConfig(
            duration_s=30.0, warmup_s=5.0, batch_timeout_s=2.0,
            max_spout_pending=2,
        )
        run, topology = pinned_run(config)
        run.fail_node_at(0.5, "node-0-1")
        report = run.run()
        batch = topology.component("stage-0").profile.emit_batch_tuples
        # far more than the 2 batches the cap alone would allow
        assert report.emitted(topology.topology_id) > 4 * batch

    def test_inflight_capped_at_boundary(self):
        config = SimulationConfig(
            duration_s=20.0, warmup_s=5.0, max_spout_pending=1,
        )
        run, topology = pinned_run(config)
        run.run()
        spout = run._tasks[run._topologies[0].spouts[0]]
        cap = config.max_spout_pending
        assert 0 <= spout.inflight <= cap
        assert len(run._topologies[0].pending) == spout.inflight

    def test_ack_after_timeout_returns_no_double_credit(self):
        """A bolt slower than the batch timeout acks every tree *after*
        it expired; the late ack must not decrement credit again."""
        from repro.topology.builder import TopologyBuilder
        from repro.topology.component import ExecutionProfile

        builder = TopologyBuilder("slow")
        spout_prof = ExecutionProfile(
            cpu_ms_per_tuple=0.01, emit_batch_tuples=50
        )
        # 50 tuples x 20 ms = 1 s of service, double the 0.5 s timeout
        bolt_prof = ExecutionProfile(cpu_ms_per_tuple=20.0)
        builder.set_spout("s", 1, profile=spout_prof)
        builder.set_bolt("b", 1, profile=bolt_prof).shuffle_grouping("s")
        topology = builder.build()
        cluster = single_rack_cluster(2)
        mapping = {}
        for task in topology.tasks:
            node = "node-0-0" if task.component == "s" else "node-0-1"
            mapping[task] = WorkerSlot(node, 6700)
        config = SimulationConfig(
            duration_s=20.0, warmup_s=5.0, batch_timeout_s=0.5,
            max_spout_pending=1,
        )
        run = SimulationRun(
            cluster, [(topology, Assignment("slow", mapping))], config
        )
        report = run.run()
        spout = run._tasks[run._topologies[0].spouts[0]]
        # double credit would drive inflight negative and let pending
        # diverge from the spout ledger
        assert spout.inflight >= 0
        assert spout.inflight == len(run._topologies[0].pending)
        assert report.failed("slow") > 0


class TestMessageLoss:
    def _cross_rack_pair(self, cluster):
        racks = sorted(cluster.racks, key=lambda r: r.rack_id)
        return racks[0].nodes[0].node_id, racks[1].nodes[0].node_id

    def test_copies_distribution_matches_probabilities(self):
        cluster = emulab_testbed()
        model = TransferModel(cluster)
        model.set_link_loss(
            "rack-0", "rack-1", 0.5, 0.25, rng=random.Random(1)
        )
        src, dst = self._cross_rack_pair(cluster)
        n = 4000
        counts = {0: 0, 1: 0, 2: 0}
        for _ in range(n):
            counts[model.copies(src, dst, DistanceLevel.INTER_RACK)] += 1
        assert counts[0] / n == pytest.approx(0.5, abs=0.05)
        # duplication applies to the surviving half
        assert counts[2] / n == pytest.approx(0.125, abs=0.04)

    def test_only_the_configured_interrack_link_is_lossy(self):
        cluster = emulab_testbed()
        model = TransferModel(cluster)
        model.set_link_loss(
            "rack-0", "rack-1", 0.9, rng=random.Random(2)
        )
        src, dst = self._cross_rack_pair(cluster)
        intra = cluster.racks[0].nodes
        for _ in range(50):
            assert model.copies(
                intra[0].node_id, intra[1].node_id, DistanceLevel.INTER_NODE
            ) == 1
        assert any(
            model.copies(src, dst, DistanceLevel.INTER_RACK) == 0
            for _ in range(50)
        )

    def test_clear_link_loss_heals(self):
        cluster = emulab_testbed()
        model = TransferModel(cluster)
        model.set_link_loss("rack-0", "rack-1", 0.9, rng=random.Random(3))
        assert model.lossy
        model.clear_link_loss("rack-1", "rack-0")  # order-insensitive
        assert not model.lossy

    def test_probability_validation(self):
        model = TransferModel(emulab_testbed())
        with pytest.raises(ValueError):
            model.set_link_loss("rack-0", "rack-1", 1.0)
        with pytest.raises(ValueError):
            model.set_link_loss("rack-0", "rack-1", -0.1)
        with pytest.raises(ValueError):
            model.set_link_loss("rack-0", "rack-1", 0.1, 1.5)

    def test_lost_batches_time_out_and_replay(self):
        config = SimulationConfig(
            duration_s=40.0, warmup_s=5.0, batch_timeout_s=2.0,
            at_least_once=True, max_retries=2, replay_backoff_s=0.5,
        )
        run, topology = pinned_run(config, cross_rack=True)
        run.transfer.set_link_loss(
            "rack-0", "rack-1", 0.95, rng=random.Random(11)
        )
        report = run.run()
        tid = topology.topology_id
        assert report.lost(tid) > 0
        assert report.failed(tid) > 0
        assert report.replayed(tid) > 0
        assert audit_is_closed(run.delivery_audit()[tid])

    def test_duplicates_are_invisible_to_the_acker(self):
        config = SimulationConfig(
            duration_s=30.0, warmup_s=5.0,
            at_least_once=True, max_retries=1,
        )
        run, topology = pinned_run(config, cross_rack=True)
        run.transfer.set_link_loss(
            "rack-0", "rack-1", 0.0, 0.5, rng=random.Random(12)
        )
        report = run.run()
        tid = topology.topology_id
        assert report.duplicated(tid) > 0
        # ghosts inflate the raw sink count, never the acker ledger
        audit = run.delivery_audit()[tid]
        assert audit_is_closed(audit)
        assert audit["spout_inflight"] == audit["pending"]
        acked_tuples = report.stats.acked_totals.get(tid, 0)
        assert report.sunk(tid) > acked_tuples > 0


class TestDeliverySummary:
    def test_summary_keys_gated_on_at_least_once(self):
        plain = SimulationConfig(duration_s=20.0, warmup_s=5.0)
        run, topology = pinned_run(plain)
        summary = run.run().summary()[topology.topology_id]
        for key in ("replayed", "exhausted", "lost", "duplicated",
                    "replay_amplification", "duplicate_rate",
                    "effective_tuples_per_window"):
            assert key not in summary

        extended = SimulationConfig(
            duration_s=20.0, warmup_s=5.0, at_least_once=True,
        )
        run, topology = pinned_run(extended)
        summary = run.run().summary()[topology.topology_id]
        assert summary["replay_amplification"] >= 1.0
        assert summary["duplicate_rate"] == 0.0
        assert summary["effective_tuples_per_window"] > 0

    def test_replay_amplification_reflects_replays(self):
        config = SimulationConfig(
            duration_s=40.0, warmup_s=5.0, batch_timeout_s=2.0,
            at_least_once=True, max_retries=2, replay_backoff_s=0.5,
        )
        run, topology = pinned_run(config)
        run.fail_node_at(5.0, "node-0-1")
        report = run.run()
        assert report.replay_amplification(topology.topology_id) > 1.0
