"""Shared experiment harness.

Each experiment module declares its runs as work units
(:mod:`repro.experiments.parallel`).  Every DES run goes through
:func:`wire`, which schedules the topologies, stands up the optional
layers the run asks for (faults, elastic scaling, tenancy) and hands
back the live components as a :class:`Wiring`;
:meth:`Wiring.outcome` distils the finished run into a
:class:`SingleRunOutcome`.  Experiments report rows/series through
:class:`ExperimentResult`, which the CLI prints and
``python -m repro all --save DIR`` writes to ``DIR``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.cluster.cluster import Cluster
from repro.errors import ConfigError, SchedulingError
from repro.faults.chaos import ChaosGenerator
from repro.faults.events import FaultEvent
from repro.faults.injector import FaultInjector
from repro.faults.monitor import RecoveryMonitor, RecoveryReport
from repro.faults.schedule import FaultSchedule
from repro.nimbus.config import StormConfig
from repro.nimbus.elastic import ElasticController, ElasticDecision
from repro.nimbus.failure_detector import HeartbeatFailureDetector
from repro.nimbus.nimbus import Nimbus
from repro.nimbus.supervisor import Supervisor
from repro.nimbus.tenancy import (
    AdmissionRoundRecord,
    TenancyController,
    Tenant,
)
from repro.scheduler.admission import AdmissionDecision
from repro.scheduler.assignment import Assignment
from repro.scheduler.base import IScheduler, SchedulingRound
from repro.scheduler.quality import ScheduleQuality, evaluate_assignment
from repro.simulation.config import SimulationConfig
from repro.simulation.report import SimulationReport
from repro.simulation.runtime import SimulationRun
from repro.topology.topology import Topology

__all__ = [
    "ExperimentResult",
    "SingleRunOutcome",
    "Wiring",
    "wire",
    "admit",
    "placement_qualities",
    "format_table",
]


@dataclass
class SingleRunOutcome:
    """Everything measured for one DES run.

    The fields after ``qualities`` belong to the optional layers and
    keep their empty defaults unless the run set that layer.
    """

    scheduler: str
    report: SimulationReport
    #: final assignments, per topology (after any recovery or rescale)
    assignments: Dict[str, Assignment]
    #: placement quality per topology (runs placed without Nimbus only)
    qualities: Dict[str, ScheduleQuality] = field(default_factory=dict)
    # -- faults and elastic scaling ---------------------------------------
    #: per-topology recovery and churn metrics from the causal trace
    recovery: Dict[str, RecoveryReport] = field(default_factory=dict)
    #: ``(simulated time, event)`` of every fault actually injected
    injected: Tuple[Tuple[float, FaultEvent], ...] = ()
    #: ``(simulated time, error)`` of every infeasible scheduling round
    scheduling_failures: Tuple[Tuple[float, str], ...] = ()
    #: ``(simulated time, node id)`` of every Nimbus quarantine decision
    quarantined: Tuple[Tuple[float, str], ...] = ()
    # -- elastic scaling --------------------------------------------------
    #: every committed control action, in decision order
    elastic_decisions: Tuple[ElasticDecision, ...] = ()
    #: total elastic churn (tasks moved + added + removed)
    elastic_tasks_moved: int = 0
    #: ``(simulated time, message)`` of scale attempts the scheduler refused
    actions_failed: Tuple[Tuple[float, str], ...] = ()
    #: topology -> component -> parallelism at end of run
    final_parallelism: Dict[str, Dict[str, int]] = field(default_factory=dict)
    # -- tenancy ----------------------------------------------------------
    #: every admit/defer/evict verdict, in decision order
    admission_decisions: Tuple[AdmissionDecision, ...] = ()
    #: per-admission-round fairness records (shares, Jain index)
    round_records: Tuple[AdmissionRoundRecord, ...] = ()
    #: topology ids admitted and simulated, in submission order
    admitted: Tuple[str, ...] = ()
    #: topology ids still queued when the admission phase ended
    deferred: Tuple[str, ...] = ()
    #: topologies evicted by priority preemption (churn)
    preemptions: int = 0
    #: tasks those evictions displaced
    preempted_tasks: int = 0
    #: outstanding credit balance per tenant
    credits: Dict[str, float] = field(default_factory=dict)
    #: final weighted dominant share per tenant
    shares: Dict[str, float] = field(default_factory=dict)
    #: Jain fairness index over the final dominant shares
    jain: float = 1.0
    #: topology id -> owning tenant id, for per-tenant rollups
    owners: Dict[str, str] = field(default_factory=dict)

    def throughput(self, topology_id: str) -> float:
        return self.report.average_throughput_per_window(topology_id)


@dataclass
class ExperimentResult:
    """Rows + time series + free-form notes for one experiment."""

    experiment_id: str
    title: str
    rows: List[Dict[str, Any]] = field(default_factory=list)
    series: Dict[str, List[Tuple[float, int]]] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)

    def add_row(self, **fields: Any) -> None:
        self.rows.append(fields)

    def add_series(self, label: str, points: Sequence[Tuple[float, int]]) -> None:
        self.series[label] = list(points)

    def note(self, text: str) -> None:
        self.notes.append(text)

    def format(self, include_series: bool = False) -> str:
        lines = [f"== {self.experiment_id}: {self.title} =="]
        if self.rows:
            lines.append(format_table(self.rows))
        for note in self.notes:
            lines.append(f"note: {note}")
        if include_series:
            for label, points in self.series.items():
                compact = " ".join(f"{int(v)}" for _, v in points)
                lines.append(f"series {label}: {compact}")
        return "\n".join(lines)

    def row_value(self, match: Mapping[str, Any], column: str) -> Any:
        """Look up a single cell: the first row whose fields contain
        ``match`` returns its ``column`` value."""
        for row in self.rows:
            if all(row.get(k) == v for k, v in match.items()):
                return row[column]
        raise KeyError(f"no row matching {dict(match)!r}")


def format_table(rows: Sequence[Mapping[str, Any]]) -> str:
    """Render dict-rows as an aligned text table."""
    if not rows:
        return "(no rows)"
    columns: List[str] = []
    for row in rows:
        for key in row:
            if key not in columns:
                columns.append(key)

    def cell(value: Any) -> str:
        if isinstance(value, float):
            return f"{value:,.1f}"
        return str(value)

    widths = {
        col: max(len(col), *(len(cell(row.get(col, ""))) for row in rows))
        for col in columns
    }
    header = "  ".join(col.ljust(widths[col]) for col in columns)
    sep = "  ".join("-" * widths[col] for col in columns)
    body = [
        "  ".join(cell(row.get(col, "")).rjust(widths[col]) for col in columns)
        for row in rows
    ]
    return "\n".join([header, sep] + body)


def placement_qualities(
    topologies: Sequence[Topology],
    assignments: Mapping[str, Assignment],
    cluster: Cluster,
) -> Dict[str, ScheduleQuality]:
    """Placement quality of every topology, each judged alongside the
    others it shares the cluster with."""
    qualities = {}
    for topology in topologies:
        others = {
            t.topology_id: (t, assignments[t.topology_id])
            for t in topologies
            if t.topology_id != topology.topology_id
        }
        qualities[topology.topology_id] = evaluate_assignment(
            topology, assignments[topology.topology_id], cluster, others
        )
    return qualities


def _resolve_faults(
    faults: Any, cluster: Cluster, assignments: Dict[str, Assignment]
) -> FaultSchedule:
    """A :class:`FaultSchedule` as-is, a :class:`ChaosGenerator` sampled
    against ``cluster``, or a ``(cluster, assignments) -> FaultSchedule``
    scenario callable resolved against the initial placement."""
    if isinstance(faults, FaultSchedule):
        return faults
    if isinstance(faults, ChaosGenerator):
        return faults.generate(cluster)
    if callable(faults):
        schedule = faults(cluster, assignments)
        if not isinstance(schedule, FaultSchedule):
            raise ConfigError(
                "fault scenario callable must return a FaultSchedule, "
                f"got {type(schedule).__name__}"
            )
        return schedule
    raise ConfigError(
        "faults must be a FaultSchedule, a ChaosGenerator or a scenario "
        f"callable, got {type(faults).__name__}"
    )


@dataclass
class Wiring:
    """The live components of one run, wired and not yet started.

    Call ``run.run()`` to simulate, then :meth:`outcome`.  Components of
    layers the run did not ask for stay ``None`` (or empty).
    """

    scheduler: IScheduler
    cluster: Cluster
    #: the topologies the DES runs (with tenancy: the admitted ones)
    topologies: List[Topology]
    run: SimulationRun
    #: the scheduler's own round (runs placed without Nimbus only)
    placement: Optional[SchedulingRound] = None
    qualities: Dict[str, ScheduleQuality] = field(default_factory=dict)
    nimbus: Optional[Nimbus] = None
    #: node id -> supervisor (runs with faults only)
    supervisors: Dict[str, Supervisor] = field(default_factory=dict)
    detector: Optional[HeartbeatFailureDetector] = None
    monitor: Optional[RecoveryMonitor] = None
    controller: Optional[ElasticController] = None
    injector: Optional[FaultInjector] = None
    tenancy: Optional[TenancyController] = None

    def outcome(self, report: SimulationReport) -> SingleRunOutcome:
        """Distil the finished run into a :class:`SingleRunOutcome`."""
        outcome = SingleRunOutcome(
            scheduler=self.scheduler.name,
            report=report,
            assignments=(
                self.placement.assignments
                if self.nimbus is None
                else dict(self.nimbus.assignments)
            ),
            qualities=self.qualities,
        )
        if self.nimbus is not None:
            outcome.scheduling_failures = tuple(self.nimbus.scheduling_failures)
            outcome.quarantined = tuple(self.nimbus.quarantine_events)
        if self.monitor is not None:
            outcome.recovery = {
                t.topology_id: self.monitor.report(t.topology_id, report)
                for t in self.topologies
            }
        if self.injector is not None:
            outcome.injected = tuple(self.injector.injected)
        if self.controller is not None:
            nimbus = self.nimbus
            outcome.elastic_decisions = tuple(self.controller.decisions)
            outcome.elastic_tasks_moved = self.controller.tasks_moved
            outcome.actions_failed = tuple(self.controller.actions_failed)
            outcome.final_parallelism = {
                topology_id: {
                    name: comp.parallelism
                    for name, comp in sorted(
                        nimbus.topology(topology_id).components.items()
                    )
                }
                for topology_id in sorted(nimbus.assignments)
            }
        if self.tenancy is not None:
            tenancy = self.tenancy
            latest = tenancy.round_records[-1] if tenancy.round_records else None
            outcome.admission_decisions = tuple(tenancy.decisions)
            outcome.round_records = tuple(tenancy.round_records)
            outcome.admitted = tuple(t.topology_id for t in self.topologies)
            outcome.deferred = tuple(tenancy.pending_ids)
            outcome.preemptions = tenancy.preemptions
            outcome.preempted_tasks = tenancy.preempted_tasks
            outcome.credits = dict(tenancy.credits)
            outcome.shares = dict(latest.shares) if latest else {}
            outcome.jain = latest.jain if latest else 1.0
            outcome.owners = tenancy.owners()
        return outcome


def wire(
    scheduler: IScheduler,
    topologies: Sequence[Topology],
    cluster: Cluster,
    config: SimulationConfig,
    interrack_uplink_mbps: Optional[float] = None,
    storm: Union[Mapping[str, Any], Sequence[Tuple[str, Any]]] = (),
    faults: Any = None,
    heartbeat_interval_s: float = 3.0,
    heartbeat_timeout_s: float = 10.0,
    tenants: Sequence[Tenant] = (),
    submissions: Sequence[Tuple[int, str, Topology]] = (),
    rounds: int = 8,
) -> Wiring:
    """Place ``topologies`` on ``cluster`` and wire one DES run.

    Which arguments are set chooses the wiring:

    * none of ``storm``, ``faults``, ``tenants`` — ``scheduler.run``
      places the topologies, their qualities are evaluated, and the DES
      runs that fixed placement: no Nimbus, ZooKeeper or tracer;
    * ``storm`` — flat ``nimbus.*`` overrides (a mapping or ``(key,
      value)`` pairs); placement goes through a :class:`Nimbus` with
      that configuration.  Any ``nimbus.elastic.*`` key attaches the
      :class:`ElasticController` and a :class:`RecoveryMonitor`, so a
      static baseline passes ``("nimbus.elastic.enabled", False)`` to
      share the elastic runs' code path;
    * ``faults`` — a :class:`FaultSchedule`, a :class:`ChaosGenerator`
      (sampled against ``cluster``) or a ``(cluster, assignments) ->
      FaultSchedule`` callable (placement-aware scenarios such as "crash
      the busiest node").  Adds one supervisor per node, the heartbeat
      failure detector (``heartbeat_*``), periodic Nimbus rescheduling
      (``nimbus.scheduler.interval.secs``), the monitor and the
      injector;
    * ``tenants`` — ``submissions`` of ``(round, tenant id, topology)``
      go through weighted-DRF admission over ``rounds`` Nimbus rounds
      (:func:`admit`) before the DES runs the admitted set;
      ``topologies`` must then be empty.
    """
    if not (storm or faults is not None or tenants):
        placement = scheduler.run(topologies, cluster)
        assignments = placement.assignments
        qualities = placement_qualities(topologies, assignments, cluster)
        run = SimulationRun(
            cluster,
            [(t, assignments[t.topology_id]) for t in topologies],
            config,
            interrack_uplink_mbps=interrack_uplink_mbps,
        )
        return Wiring(
            scheduler,
            cluster,
            list(topologies),
            run,
            placement=placement,
            qualities=qualities,
        )

    storm = dict(storm)
    nimbus = Nimbus(cluster, scheduler=scheduler, config=StormConfig(storm))
    supervisors = {}
    if faults is not None:
        for node in cluster.nodes:
            supervisor = Supervisor(node, nimbus.zk)
            nimbus.register_supervisor(supervisor)
            supervisors[node.node_id] = supervisor
    tenancy = None
    if tenants:
        if topologies:
            raise ConfigError(
                "a tenancy run takes its topologies from submissions"
            )
        tenancy = admit(nimbus, tenants, submissions, rounds)
        topologies = [
            t for t in nimbus.topologies if t.topology_id in nimbus.assignments
        ]
    else:
        for topology in topologies:
            nimbus.submit_topology(topology)
        nimbus.schedule_round()
    run = SimulationRun(
        cluster,
        [(t, nimbus.assignments[t.topology_id]) for t in topologies],
        config,
        interrack_uplink_mbps=interrack_uplink_mbps,
    )

    monitor = detector = controller = injector = None
    if faults is not None:
        detector = HeartbeatFailureDetector(
            supervisors.values(),
            heartbeat_interval_s=heartbeat_interval_s,
            timeout_s=heartbeat_timeout_s,
        )
        run.observer = monitor = RecoveryMonitor()
        detector.attach(run)
        nimbus.attach(run)
    if any(key.startswith("nimbus.elastic.") for key in storm):
        if monitor is None:
            run.observer = monitor = RecoveryMonitor()
        controller = ElasticController(nimbus)
        controller.attach(run)
    if faults is not None:
        schedule = _resolve_faults(faults, cluster, dict(nimbus.assignments))
        injector = FaultInjector(schedule, detector=detector)
        injector.attach(run)
    return Wiring(
        scheduler,
        cluster,
        list(topologies),
        run,
        nimbus=nimbus,
        supervisors=supervisors,
        detector=detector,
        monitor=monitor,
        controller=controller,
        injector=injector,
        tenancy=tenancy,
    )


def admit(
    nimbus: Nimbus,
    tenants: Sequence[Tenant],
    submissions: Sequence[Tuple[int, str, Topology]],
    rounds: int,
) -> TenancyController:
    """Run a staged admission phase: each submission enters just before
    its (0-based) round, and each round is one Nimbus scheduling round
    at ``round * nimbus.scheduler.interval.secs``."""
    tenancy = TenancyController(nimbus)
    for tenant in tenants:
        tenancy.register_tenant(tenant)
    interval_s = nimbus.config["nimbus.scheduler.interval.secs"]
    for round_index in range(rounds):
        for due, tenant_id, topology in submissions:
            if due == round_index:
                tenancy.submit(topology, tenant_id)
        try:
            nimbus.schedule_round(round_index * interval_s)
        except SchedulingError as err:
            # Aggregate slack fit but per-node packing failed: record the
            # round as degraded, the same contract as the attached loop.
            nimbus.scheduling_failures.append(
                (round_index * interval_s, str(err))
            )
    return tenancy
