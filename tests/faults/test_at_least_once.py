"""At-least-once delivery under injected faults.

Unit tests for the ``MessageLoss`` injector wiring, plus the
property-based invariant the whole replay layer must satisfy: every
root tuple ever admitted to the acker is eventually acked or explicitly
exhausted — never silently dropped — and the spout credit ledger never
goes negative, whatever mix of loss, duplication and crashes a seeded
schedule throws at the run.
"""

import random

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.cluster import emulab_testbed
from repro.cluster.node import WorkerSlot
from repro.faults import FaultInjector, FaultSchedule, MessageLoss
from repro.scheduler import RStormScheduler
from repro.scheduler.assignment import Assignment
from repro.simulation import SimulationConfig, SimulationRun
from tests.conftest import make_linear


def cross_rack_run(config, cluster=None):
    """A 3-stage chain pinned across racks so the rack-0<->rack-1 trunk
    carries every hop; returns ``(run, topology)``."""
    cluster = cluster or emulab_testbed()
    topology = make_linear(stages=3, parallelism=1)
    racks = sorted(cluster.racks, key=lambda r: r.rack_id)
    mapping = {}
    for task in topology.tasks:
        stage = int(task.component.split("-")[1])
        node = racks[stage % len(racks)].nodes[stage // len(racks)]
        mapping[task] = WorkerSlot(node.node_id, 6700)
    run = SimulationRun(
        cluster, [(topology, Assignment(topology.topology_id, mapping))],
        config,
    )
    return run, topology


class TestMessageLossInjection:
    def test_loss_applied_at_and_cleared_at_until(self):
        cluster = emulab_testbed()
        topology = make_linear()
        assignment = RStormScheduler().schedule([topology], cluster)[
            topology.topology_id
        ]
        run = SimulationRun(
            cluster, [(topology, assignment)],
            SimulationConfig(duration_s=40.0, warmup_s=5.0),
        )
        injector = FaultInjector(
            FaultSchedule.of(
                MessageLoss(
                    at=10.0, rack_a="rack-0", rack_b="rack-1",
                    drop_probability=0.2, until=25.0, seed=3,
                )
            )
        )
        injector.attach(run)
        seen = {}
        run.on_time(15.0, lambda: seen.update(during=run.transfer.lossy))
        run.on_time(30.0, lambda: seen.update(after=run.transfer.lossy))
        run.run()
        assert seen["during"] is True
        assert seen["after"] is False

    def test_unbounded_loss_persists(self):
        cluster = emulab_testbed()
        topology = make_linear()
        assignment = RStormScheduler().schedule([topology], cluster)[
            topology.topology_id
        ]
        run = SimulationRun(
            cluster, [(topology, assignment)],
            SimulationConfig(duration_s=30.0, warmup_s=5.0),
        )
        FaultInjector(
            FaultSchedule.of(
                MessageLoss(
                    at=10.0, rack_a="rack-0", rack_b="rack-1",
                    drop_probability=0.2, seed=3,
                )
            )
        ).attach(run)
        run.run()
        assert run.transfer.lossy

    def test_loss_produces_replays_on_a_cross_rack_chain(self):
        config = SimulationConfig(
            duration_s=60.0, warmup_s=5.0, batch_timeout_s=2.0,
            at_least_once=True, max_retries=2, replay_backoff_s=0.5,
        )
        run, topology = cross_rack_run(config)
        FaultInjector(
            FaultSchedule.of(
                MessageLoss(
                    at=10.0, rack_a="rack-0", rack_b="rack-1",
                    drop_probability=0.8, duplicate_probability=0.1,
                    until=40.0, seed=5,
                )
            )
        ).attach(run)
        report = run.run()
        tid = topology.topology_id
        assert report.lost(tid) > 0
        assert report.replayed(tid) > 0
        assert report.duplicated(tid) > 0


# -- the at-least-once property -------------------------------------------


@settings(max_examples=6, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    drop=st.floats(min_value=0.0, max_value=0.9),
    dup=st.floats(min_value=0.0, max_value=0.5),
    max_retries=st.integers(min_value=0, max_value=3),
    crash_bolt_node=st.booleans(),
)
def test_every_origin_is_acked_or_explicitly_exhausted(
    seed, drop, dup, max_retries, crash_bolt_node
):
    config = SimulationConfig(
        duration_s=35.0, warmup_s=5.0, batch_timeout_s=2.0,
        at_least_once=True, max_retries=max_retries, replay_backoff_s=0.5,
    )
    run, topology = cross_rack_run(config)
    if drop > 0 or dup > 0:
        run.transfer.set_link_loss(
            "rack-0", "rack-1", drop, dup, rng=random.Random(seed)
        )
    if crash_bolt_node:
        # the middle bolt's node dies at 12 s and rejoins at 22 s
        bolt_node = run._topologies[0].assignment.node_of(
            topology.tasks_of("stage-1")[0]
        )
        run.fail_node_at(12.0, bolt_node)
        run.recover_node_at(22.0, bolt_node)
    run.run()
    audit = run.delivery_audit()[topology.topology_id]
    # the ledger closes: created == acked + exhausted + still-accounted
    assert audit["origins_created"] == (
        audit["origins_acked"]
        + audit["origins_exhausted"]
        + audit["pending"]
        + audit["replays_outstanding"]
    )
    # spout credit never corrupted: non-negative, and it mirrors the
    # acker's view of what is in flight
    assert audit["spout_inflight"] >= 0
    assert audit["spout_inflight"] == audit["pending"]
    assert audit["replays_outstanding"] >= 0
