"""Failure recovery under fault injection: R-Storm vs default Storm.

Not a figure from the paper — the paper schedules once on a healthy
cluster — but the obvious operational question it leaves open: when
machines die mid-run, does resource-aware scheduling recover as fast as
round-robin, and at what throughput does the survivor run?

Three deterministic scenarios (same for both schedulers) on the Emulab
testbed cluster:

* ``single-crash`` — the busiest node crashes at 40 s and stays dead;
* ``rack-partition`` — the busiest rack drops out at 40 s and heals at
  70 s (crash + rejoin of every node in it);
* ``crash-rejoin`` — the busiest node crashes at 40 s and rejoins at
  70 s.

Two further scenarios light up in *extended* (delivery-semantics) mode,
enabled via ``repro chaos --loss-rate/--quarantine``, which also turns on
the simulator's at-least-once replay layer:

* ``lossy-link`` — the trunk between the busiest rack and its neighbour
  drops (and occasionally duplicates) batches from 40 s to 70 s; the
  spouts replay the timed-out trees;
* ``flapping-node`` — the busiest node crashes and rejoins repeatedly
  until Nimbus quarantines it, demonstrating partial reassignment
  (churn counted per recovery).

"Busiest" is resolved against each scheduler's own initial placement, so
both schedulers lose their own most-loaded machine — a like-for-like
worst case rather than a fixed node id that one scheduler may not even
use.  Each run goes through the full coordination plane (heartbeat
detector, periodic Nimbus rescheduling with backoff, task migration);
detection latency, reschedule latency, throughput floor and time to
steady state come from the :class:`~repro.faults.monitor.RecoveryMonitor`
causal trace.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Optional

# The layers these units wire (see ``harness.wire``), loaded with the
# experiment rather than inside its first unit.
import repro.faults.chaos  # noqa: F401
import repro.faults.injector  # noqa: F401
import repro.faults.monitor  # noqa: F401
import repro.nimbus.failure_detector  # noqa: F401
import repro.nimbus.supervisor  # noqa: F401
from repro.cluster.builders import emulab_testbed
from repro.experiments.harness import ExperimentResult
from repro.experiments.parallel import ExperimentContext, SimulationUnit, spec
from repro.faults.events import MessageLoss, NodeCrash, RackPartition
from repro.faults.schedule import FaultSchedule
from repro.scheduler.assignment import Assignment
from repro.scheduler.default import DefaultScheduler
from repro.scheduler.rstorm import RStormScheduler
from repro.simulation.config import SimulationConfig
from repro.workloads.micro import micro_topology

__all__ = [
    "run",
    "chaos_units",
    "single_crash",
    "rack_partition",
    "crash_rejoin",
    "lossy_link",
    "flapping_node",
    "SCENARIOS",
]

SCHEDULERS = (("r-storm", RStormScheduler), ("default", DefaultScheduler))

FAULT_AT_S = 40.0
HEAL_AT_S = 70.0


def _task_counts_by_node(assignments: Dict[str, Assignment]) -> Dict[str, int]:
    counts: Dict[str, int] = {}
    for assignment in assignments.values():
        for node_id in assignment.nodes:
            counts[node_id] = (
                counts.get(node_id, 0) + len(assignment.tasks_on_node(node_id))
            )
    return counts


def _busiest_node(cluster, assignments: Dict[str, Assignment]) -> str:
    """The node carrying the most tasks (ties break on node id)."""
    counts = _task_counts_by_node(assignments)
    if not counts:
        return sorted(node.node_id for node in cluster.nodes)[0]
    return sorted(counts, key=lambda n: (-counts[n], n))[0]


def _busiest_rack(cluster, assignments: Dict[str, Assignment]) -> str:
    """The rack whose nodes carry the most tasks (ties break on rack id)."""
    node_counts = _task_counts_by_node(assignments)
    rack_counts = {
        rack.rack_id: sum(
            node_counts.get(node.node_id, 0) for node in rack.nodes
        )
        for rack in cluster.racks
    }
    return sorted(rack_counts, key=lambda r: (-rack_counts[r], r))[0]


# -- scenario builders (module-level so FactorySpec stays picklable) ---------


def single_crash(at: float = FAULT_AT_S):
    """The busiest node crashes permanently at ``at``."""

    def build(cluster, assignments) -> FaultSchedule:
        return FaultSchedule.of(
            NodeCrash(at=at, node_id=_busiest_node(cluster, assignments))
        )

    return build


def rack_partition(at: float = FAULT_AT_S, heal_at: float = HEAL_AT_S):
    """The busiest rack drops out at ``at`` and heals at ``heal_at``."""

    def build(cluster, assignments) -> FaultSchedule:
        return FaultSchedule.of(
            RackPartition(
                at=at,
                rack_id=_busiest_rack(cluster, assignments),
                heal_at=heal_at,
            )
        )

    return build


def crash_rejoin(at: float = FAULT_AT_S, rejoin_at: float = HEAL_AT_S):
    """The busiest node crashes at ``at`` and rejoins at ``rejoin_at``."""

    def build(cluster, assignments) -> FaultSchedule:
        return FaultSchedule.of(
            NodeCrash(
                at=at,
                node_id=_busiest_node(cluster, assignments),
                rejoin_at=rejoin_at,
            )
        )

    return build


def lossy_link(
    at: float = FAULT_AT_S,
    until: float = HEAL_AT_S,
    drop_probability: float = 0.05,
    duplicate_probability: float = 0.02,
    seed: int = 7,
):
    """The trunk out of the busiest rack turns lossy from ``at`` to
    ``until``: batches crossing it are dropped with ``drop_probability``
    or duplicated with ``duplicate_probability`` (seeded, deterministic).
    """

    def build(cluster, assignments) -> FaultSchedule:
        busiest = _busiest_rack(cluster, assignments)
        other = next(
            (
                rack.rack_id
                for rack in sorted(cluster.racks, key=lambda r: r.rack_id)
                if rack.rack_id != busiest
            ),
            None,
        )
        if other is None:
            raise ValueError("lossy-link scenario needs at least two racks")
        return FaultSchedule.of(
            MessageLoss(
                at=at,
                rack_a=busiest,
                rack_b=other,
                drop_probability=drop_probability,
                duplicate_probability=duplicate_probability,
                until=until,
                seed=seed,
            )
        )

    return build


def flapping_node(
    at: float = 41.0,
    period: float = 30.0,
    flaps: int = 3,
    down_s: float = 14.0,
):
    """The busiest node crash-rejoins every ``period`` seconds, ``flaps``
    times.  Each down lasts ``down_s`` — long enough for the heartbeat
    session to expire *and* for a Nimbus tick to land before the rejoin,
    so every flap is observed; the third observation trips the default
    quarantine threshold and the node is excluded despite being alive.
    """

    def build(cluster, assignments) -> FaultSchedule:
        victim = _busiest_node(cluster, assignments)
        return FaultSchedule.of(
            *(
                NodeCrash(
                    at=at + i * period,
                    node_id=victim,
                    rejoin_at=at + i * period + down_s,
                )
                for i in range(flaps)
            )
        )

    return build


SCENARIOS = (
    ("single-crash", single_crash),
    ("rack-partition", rack_partition),
    ("crash-rejoin", crash_rejoin),
)


def chaos_units(config: SimulationConfig, scenarios=None, quarantine=False):
    """The (scenario, scheduler) grid as cacheable work units.

    ``scenarios`` overrides the default grid with ``(name, FactorySpec)``
    pairs (extended mode); ``quarantine`` switches on Nimbus quarantine
    in every unit (and so its cache key).
    """
    if scenarios is None:
        scenarios = [(name, spec(factory)) for name, factory in SCENARIOS]
    storm = (("nimbus.quarantine.enabled", True),) if quarantine else ()
    return [
        SimulationUnit(
            scheduler=spec(factory),
            topologies=(spec(micro_topology, "linear", "compute"),),
            cluster=spec(emulab_testbed),
            config=config,
            faults=fault_spec,
            storm=storm,
            label=f"chaos:{scenario_name}/{name}",
        )
        for scenario_name, fault_spec in scenarios
        for name, factory in SCHEDULERS
    ]


def _fmt(value: Optional[float], digits: int = 1) -> object:
    return "-" if value is None else round(value, digits)


def run(
    duration_s: float = 120.0,
    context: Optional[ExperimentContext] = None,
    loss_rate: float = 0.0,
    max_retries: int = 3,
    quarantine: bool = False,
) -> ExperimentResult:
    """Run the chaos grid.

    The default invocation reproduces the historical three-scenario grid
    byte-for-byte.  Passing ``loss_rate > 0`` and/or ``quarantine=True``
    switches to *extended* mode: the simulator's at-least-once layer is
    enabled (with ``max_retries``), the ``lossy-link`` and/or
    ``flapping-node`` scenarios join the grid, and the rows grow
    delivery-semantics columns (replays, churn, time-to-drain).
    """
    context = context or ExperimentContext()
    extended = loss_rate > 0 or quarantine
    result = ExperimentResult(
        experiment_id="chaos",
        title="Failure recovery under fault injection (linear/compute)",
    )
    config = SimulationConfig(
        duration_s=duration_s, warmup_s=min(20.0, duration_s / 4)
    )
    scenarios = [(name, spec(factory)) for name, factory in SCENARIOS]
    if extended:
        config = replace(config, at_least_once=True, max_retries=max_retries)
        if loss_rate > 0:
            scenarios.append(
                ("lossy-link", spec(lossy_link, drop_probability=loss_rate))
            )
        if quarantine:
            scenarios.append(("flapping-node", spec(flapping_node)))
    units = chaos_units(config, scenarios=scenarios, quarantine=quarantine)
    outcomes_by_label = dict(zip([u.label for u in units], context.run(units)))
    topo_id = "linear-compute"
    for scenario_name, _ in scenarios:
        for name, _factory in SCHEDULERS:
            outcome = outcomes_by_label[f"chaos:{scenario_name}/{name}"]
            recovery = outcome.recovery[topo_id]
            baseline = recovery.baseline_tuples_per_window
            post = recovery.post_fault_tuples_per_window
            result.add_series(
                f"{scenario_name}/{name}",
                outcome.report.throughput_series(topo_id),
            )
            row = dict(
                scenario=scenario_name,
                scheduler=name,
                detect_s=_fmt(recovery.mean_detection_latency_s),
                resched_s=_fmt(recovery.mean_reschedule_latency_s),
                steady_s=_fmt(recovery.mean_time_to_steady_state_s),
                floor_ratio=_fmt(recovery.worst_throughput_floor_ratio, 3),
                post_vs_baseline=_fmt(
                    post / baseline if baseline else None, 3
                ),
                migrations=recovery.migrations,
                failed_tuples=recovery.total_failed_tuples,
                sched_failures=len(outcome.scheduling_failures),
            )
            if extended:
                row.update(
                    tasks_moved=recovery.total_tasks_moved,
                    replayed=recovery.replayed_tuples,
                    exhausted=recovery.exhausted_tuples,
                    lost=recovery.lost_tuples,
                    duplicated=recovery.duplicated_tuples,
                    drain_s=_fmt(recovery.time_to_drain_s),
                    quarantined=len(outcome.quarantined),
                )
            result.add_row(**row)
    result.note(
        "Both schedulers lose their own busiest node/rack at t=40s. "
        "detect_s = heartbeat-session expiry latency, resched_s = first "
        "migration applied, steady_s = windowed throughput back above 90% "
        "of the pre-fault baseline and holding. floor_ratio is the worst "
        "post-fault window relative to baseline."
    )
    if extended:
        result.note(
            "Extended mode: at-least-once delivery is on "
            f"(max_retries={max_retries}); tasks_moved counts reassignment "
            "churn across all migrations, replayed/exhausted/lost/"
            "duplicated are delivery-layer tuple counts, drain_s is the "
            "replay backlog drain time after the last fault, quarantined "
            "counts Nimbus quarantine decisions."
        )
    return result
