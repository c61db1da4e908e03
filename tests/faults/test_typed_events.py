"""Typed run events through the observer slot.

Three guarantees of the observer design:

* the RecoveryMonitor keeps the control-plane events it reads no matter
  how many per-batch events a run reports, so a long chaos run still
  measures detection, rescheduling and migration;
* the runtime reports exactly the events, and the migrate/rescale
  churn values, that the previous wrapper-based tracer recorded for
  the same run — pinned below for one run with faults, at-least-once
  replay, flow control and elastic rescaling all on — and observing a
  run does not change it;
* an observer that declares ``KINDS`` gets no per-batch event built for
  it unless it reads one, and :class:`Observers` hands each of several
  observers exactly the kinds it reads.
"""

import random
from collections import Counter

from repro.cluster import emulab_testbed
from repro.experiments.fault_recovery import chaos_units, crash_rejoin
from repro.experiments.harness import wire
from repro.faults.monitor import RecoveryMonitor
from repro.scheduler import RStormScheduler
from repro.simulation import SimulationConfig
from repro.simulation import runtime as runtime_module
from repro.simulation.flowcontrol import FlowControlConfig
from repro.simulation.tracing import BATCH_KINDS, Observers, TraceEvent, Tracer
from repro.traffic.arrivals import PoissonArrivals
from repro.workloads.micro import hotspot_topology, micro_topology


class TestLongRunRecovery:
    def test_single_crash_recovery_survives_a_long_run(self):
        config = SimulationConfig(duration_s=900.0, warmup_s=20.0)
        [unit] = [
            u for u in chaos_units(config)
            if u.label == "chaos:single-crash/r-storm"
        ]
        wiring = unit.wire()
        monitor = wiring.monitor
        reported = Counter()

        def observe(event):
            reported[event.kind] += 1
            monitor(event)

        wiring.run.observer = observe
        outcome = wiring.outcome(wiring.run.run())
        recovery = outcome.recovery[wiring.topologies[0].topology_id]

        [fault] = recovery.faults
        assert fault.detected_at_s is not None
        assert fault.rescheduled_at_s is not None
        assert fault.tasks_moved is not None and fault.tasks_moved > 0
        assert recovery.migrations >= 1
        # far more events than a 100k ring buffer holds went by
        assert sum(reported.values()) > 100_000


#: per-kind event counts and churn values of :func:`all_layers_wiring`,
#: recorded with the wrapper-based tracer the observer slot replaced
PINNED_COUNTS = {
    "ack": 2447, "crash": 6, "deliver": 8210, "emit": 2647, "expire": 1,
    "fail": 286, "inject": 1, "migrate": 3, "node_down": 1, "node_up": 1,
    "replay": 137, "rescale": 6, "reschedule": 1, "resume": 6,
    "shed": 1211, "stall": 6,
}
PINNED_MIGRATES = [("fault", 4), ("elastic", 1), ("elastic", 1)]
PINNED_RESCALES = [
    (0, 4, 0), (0, 2, 0), (0, 2, 0), (0, 3, 0), (0, 3, 0), (0, 5, 0),
]


def all_layers_wiring():
    """A 90 s hotspot run past saturation with every layer on: a node
    crash that rejoins, at-least-once replay, bounded queues with
    tail-drop shedding, worker overflow crashes and the elastic
    controller."""
    random.seed(3)
    config = SimulationConfig(
        duration_s=90.0, warmup_s=10.0, at_least_once=True, max_retries=2,
        batch_timeout_s=5.0,
        arrival_process=PoissonArrivals(rate_tps=450.0),
        flow=FlowControlConfig(queue_capacity=32, shedding="tail-drop"),
        queue_overflow_batches=36,
    )
    return wire(
        RStormScheduler(), [hotspot_topology()], emulab_testbed(), config,
        storm=(
            ("nimbus.elastic.enabled", True),
            ("nimbus.supervisor.heartbeat.secs", 2.0),
            ("nimbus.supervisor.timeout.secs", 6.0),
        ),
        faults=crash_rejoin(at=30.0, rejoin_at=60.0),
    )


class TestObserverParity:
    def test_reports_the_pinned_events(self):
        wiring = all_layers_wiring()
        tracer = Tracer(capacity=1_000_000)
        monitor = wiring.monitor
        wiring.run.observer = Observers(tracer, monitor)
        report = wiring.run.run()

        assert tracer.dropped == 0
        assert tracer.counts_by_kind() == PINNED_COUNTS
        assert [
            (e.reason, e.moved) for e in tracer.query(kind="migrate")
        ] == PINNED_MIGRATES
        assert [
            (e.moved, e.added, e.removed) for e in tracer.query(kind="rescale")
        ] == PINNED_RESCALES

        recovery = monitor.report(hotspot_topology().topology_id, report)
        assert recovery.migrations == 1
        assert recovery.rescales == len(PINNED_RESCALES)
        assert recovery.fault_tasks_moved == 4
        assert recovery.elastic_tasks_moved == 2 + sum(
            sum(churn) for churn in PINNED_RESCALES
        )

    def test_observing_does_not_change_the_run(self):
        plain = all_layers_wiring()
        plain.run.observer = None
        plain_report = plain.run.run()

        traced = all_layers_wiring()
        tracer = Tracer(capacity=1_000_000)
        traced.run.observer = tracer
        traced_report = traced.run.run()

        assert len(tracer) > 0
        assert traced_report.summary() == plain_report.summary()
        assert traced_report.events_processed == plain_report.events_processed
        for node in emulab_testbed().nodes:
            assert (
                traced.run.stats.busy.get(node.node_id, 0.0).hex()
                == plain.run.stats.busy.get(node.node_id, 0.0).hex()
            )


def chaos_wiring():
    """A 60 s chaos run of the linear compute topology: its busiest node
    crashes and rejoins, and timed-out roots are replayed."""
    random.seed(0)
    config = SimulationConfig(
        duration_s=60.0, warmup_s=10.0, at_least_once=True, max_retries=3
    )
    return wire(
        RStormScheduler(), [micro_topology("linear", "compute")],
        emulab_testbed(), config, faults=crash_rejoin(at=20.0, rejoin_at=35.0),
    )


class KindCounter:
    """Counts the events it receives; reads a mix of per-batch and
    control-plane kinds."""

    KINDS = frozenset({"fail", "replay", "migrate"})

    def __init__(self):
        self.counts = Counter()

    def __call__(self, event):
        self.counts[event.kind] += 1


def recovery_json(wiring, report) -> str:
    topology_id = wiring.topologies[0].topology_id
    return wiring.monitor.report(topology_id, report).to_json()


class TestSubscribedObservers:
    def test_monitor_only_run_builds_only_its_kinds(self, monkeypatch):
        built = Counter()

        def counting_event(*args, **kwargs):
            event = TraceEvent(*args, **kwargs)
            built[event.kind] += 1
            return event

        monkeypatch.setattr(runtime_module, "TraceEvent", counting_event)
        wiring = chaos_wiring()
        assert wiring.run.observer is wiring.monitor
        assert wiring.run._batch_observer is None
        wiring.run.run()

        assert built["replay"] > 0 and built["migrate"] > 0
        assert set(built) <= RecoveryMonitor.KINDS
        assert set(built).isdisjoint(BATCH_KINDS)

    def test_fan_out_gives_each_observer_its_kinds(self):
        plain = chaos_wiring()
        plain_json = recovery_json(plain, plain.run.run())

        wiring = chaos_wiring()
        run = wiring.run
        tracer = Tracer(capacity=1_000_000)
        counter = KindCounter()
        run.observer = Observers(wiring.monitor, tracer, counter)
        assert run.observer.KINDS is None and run._batch_observer is not None
        delivered = 0
        deliver = run._deliver

        def spy(*args):
            nonlocal delivered
            delivered += 1
            return deliver(*args)

        run._deliver = spy
        report = run.run()

        assert recovery_json(wiring, report) == plain_json
        assert tracer.dropped == 0
        assert delivered > 0
        assert len(tracer.query(kind="deliver")) == delivered
        seen = tracer.counts_by_kind()
        assert set(counter.counts) == KindCounter.KINDS
        assert counter.counts == {kind: seen[kind] for kind in KindCounter.KINDS}

    def test_fan_out_kinds_are_the_union_of_its_members(self):
        counter = KindCounter()
        monitor = RecoveryMonitor()
        assert Observers(monitor, counter).KINDS == (
            RecoveryMonitor.KINDS | KindCounter.KINDS
        )
        assert Observers(monitor, Tracer()).KINDS is None
        assert Observers().KINDS == frozenset()
