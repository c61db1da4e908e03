"""Recovery measurement from a run's typed events.

:class:`RecoveryMonitor` is a run observer (set it as
``run.observer``).  Of the typed events
(:class:`~repro.simulation.tracing.TraceEvent`) the runtime, the fault
injector, the failure detector and Nimbus report, it keeps only the few
control-plane kinds it reads — never the per-batch ones, so a long run
cannot crowd them out — and after the run distils the causal chain

    ``inject`` -> ``expire`` -> ``reschedule`` -> ``migrate``

into per-fault recovery metrics:

* **detection latency** — fault injection to heartbeat expiry,
* **reschedule latency** — injection to the first migration applied,
* **throughput dip** — the worst post-fault window relative to the
  pre-fault baseline,
* **time to steady state** — injection until windowed throughput is back
  above ``steady_fraction`` of baseline and stays there.

Everything in a :class:`RecoveryReport` derives from simulated time and
deterministic counters — no wall clock — so the same seed and fault
schedule produce a byte-identical :meth:`RecoveryReport.to_json` across
runs, which CI asserts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.simulation.report import SimulationReport
from repro.simulation.tracing import EventKind, TraceEvent, query_events

__all__ = ["FaultRecovery", "RecoveryReport", "RecoveryMonitor"]


def _round(value: Optional[float]) -> Optional[float]:
    return None if value is None else round(value, 6)


@dataclass(frozen=True)
class FaultRecovery:
    """Recovery metrics for one injected fault."""

    fault: str
    fault_time_s: float
    detected_at_s: Optional[float]
    detection_latency_s: Optional[float]
    rescheduled_at_s: Optional[float]
    reschedule_latency_s: Optional[float]
    throughput_floor_ratio: Optional[float]
    steady_state_at_s: Optional[float]
    time_to_steady_state_s: Optional[float]
    #: reassignment churn: tasks that changed slot in the first
    #: migration after this fault (None when no migration happened)
    tasks_moved: Optional[int] = None

    def as_dict(self) -> Dict[str, Any]:
        return {
            "fault": self.fault,
            "fault_time_s": _round(self.fault_time_s),
            "detected_at_s": _round(self.detected_at_s),
            "detection_latency_s": _round(self.detection_latency_s),
            "rescheduled_at_s": _round(self.rescheduled_at_s),
            "reschedule_latency_s": _round(self.reschedule_latency_s),
            "throughput_floor_ratio": _round(self.throughput_floor_ratio),
            "steady_state_at_s": _round(self.steady_state_at_s),
            "time_to_steady_state_s": _round(self.time_to_steady_state_s),
            "tasks_moved": self.tasks_moved,
        }


@dataclass(frozen=True)
class RecoveryReport:
    """All recovery metrics for one topology in one chaos run."""

    topology_id: str
    baseline_tuples_per_window: float
    post_fault_tuples_per_window: float
    total_failed_tuples: int
    migrations: int
    faults: Tuple[FaultRecovery, ...]
    #: total reassignment churn: tasks moved across all migrations and
    #: rescales (fault-driven + elastic-driven)
    total_tasks_moved: int = 0
    #: churn from fault-recovery reschedules (Nimbus reacting to node
    #: failures/quarantine) — migrate events tagged ``reason=fault``
    fault_tasks_moved: int = 0
    #: churn from the elastic controller (scale + rebalance actions) —
    #: ``rescale`` events plus migrates tagged ``reason=elastic``
    elastic_tasks_moved: int = 0
    #: elastic scale actions (rescale events) observed for the topology
    rescales: int = 0
    # -- delivery semantics (zero unless the at-least-once layer and/or
    # -- message-loss faults were active in the run) ------------------------
    replayed_tuples: int = 0
    exhausted_tuples: int = 0
    lost_tuples: int = 0
    duplicated_tuples: int = 0
    #: last replay issued after the last fault, relative to that fault —
    #: how long the replay backlog took to drain (None without replays)
    time_to_drain_s: Optional[float] = None

    # -- aggregates ---------------------------------------------------------

    def _mean(self, values: List[Optional[float]]) -> Optional[float]:
        present = [v for v in values if v is not None]
        if not present:
            return None
        return sum(present) / len(present)

    @property
    def mean_detection_latency_s(self) -> Optional[float]:
        return self._mean([f.detection_latency_s for f in self.faults])

    @property
    def mean_reschedule_latency_s(self) -> Optional[float]:
        return self._mean([f.reschedule_latency_s for f in self.faults])

    @property
    def mean_time_to_steady_state_s(self) -> Optional[float]:
        return self._mean([f.time_to_steady_state_s for f in self.faults])

    @property
    def worst_throughput_floor_ratio(self) -> Optional[float]:
        floors = [
            f.throughput_floor_ratio
            for f in self.faults
            if f.throughput_floor_ratio is not None
        ]
        return min(floors) if floors else None

    # -- serialisation ------------------------------------------------------

    def as_dict(self) -> Dict[str, Any]:
        return {
            "topology_id": self.topology_id,
            "baseline_tuples_per_window": _round(
                self.baseline_tuples_per_window
            ),
            "post_fault_tuples_per_window": _round(
                self.post_fault_tuples_per_window
            ),
            "total_failed_tuples": self.total_failed_tuples,
            "migrations": self.migrations,
            "total_tasks_moved": self.total_tasks_moved,
            "fault_tasks_moved": self.fault_tasks_moved,
            "elastic_tasks_moved": self.elastic_tasks_moved,
            "rescales": self.rescales,
            "replayed_tuples": self.replayed_tuples,
            "exhausted_tuples": self.exhausted_tuples,
            "lost_tuples": self.lost_tuples,
            "duplicated_tuples": self.duplicated_tuples,
            "time_to_drain_s": _round(self.time_to_drain_s),
            "mean_detection_latency_s": _round(self.mean_detection_latency_s),
            "mean_reschedule_latency_s": _round(self.mean_reschedule_latency_s),
            "mean_time_to_steady_state_s": _round(
                self.mean_time_to_steady_state_s
            ),
            "worst_throughput_floor_ratio": _round(
                self.worst_throughput_floor_ratio
            ),
            "faults": [f.as_dict() for f in self.faults],
        }

    def to_json(self) -> str:
        """Canonical JSON — the byte-identical determinism artefact."""
        import json

        return json.dumps(self.as_dict(), sort_keys=True, separators=(",", ":"))


class RecoveryMonitor:
    """Observes a chaos run and computes :class:`RecoveryReport`s.

    Set it as ``run.observer`` before ``run.run()``.

    Args:
        steady_fraction: Fraction of the pre-fault baseline throughput a
            window must reach — and hold — to count as recovered.
    """

    #: the event kinds the report reads; all others are ignored
    KINDS = frozenset({
        EventKind.INJECT, EventKind.EXPIRE, EventKind.RESCHEDULE,
        EventKind.NODE_DOWN, EventKind.NODE_UP, EventKind.MIGRATE,
        EventKind.RESCALE, EventKind.REPLAY,
    })

    def __init__(self, steady_fraction: float = 0.9):
        if not 0.0 < steady_fraction <= 1.0:
            raise ValueError("steady_fraction must be in (0, 1]")
        self.steady_fraction = steady_fraction
        #: every kept event, in report order
        self.events: List[TraceEvent] = []

    def __call__(self, event: TraceEvent) -> None:
        if event.kind in self.KINDS:
            self.events.append(event)

    def query(
        self,
        kind: Optional[str] = None,
        topology: Optional[str] = None,
        since: float = 0.0,
        until: float = float("inf"),
    ) -> List[TraceEvent]:
        """The kept events, filtered by kind, topology and time window."""
        return query_events(self.events, kind, topology, since, until)

    # -- analysis -----------------------------------------------------------

    def report(
        self, topology_id: str, sim_report: SimulationReport
    ) -> RecoveryReport:
        """Distil the events + metrics into one topology's recovery report."""
        window_s = sim_report.config.window_s
        warmup_s = sim_report.config.warmup_s
        duration_s = sim_report.duration_s
        series = sim_report.throughput_series(topology_id)
        full_windows = [
            (start, value)
            for start, value in series
            if start + window_s <= duration_s + 1e-9
        ]

        injects = self.query(kind="inject")
        expires = self.query(kind="expire")
        all_migrates = self.query(kind="migrate", topology=topology_id)
        rescale_events = self.query(kind="rescale", topology=topology_id)
        # Churn attribution: fault-recovery reschedules vs elastic
        # controller actions.  Per-fault metrics below only look at the
        # fault-driven migrations, so a concurrently-running elastic
        # loop cannot masquerade as recovery.
        migrates = [m for m in all_migrates if m.reason != "elastic"]
        elastic_migrates = [m for m in all_migrates if m.reason == "elastic"]

        first_fault = injects[0].time if injects else None
        baseline_values = [
            value
            for start, value in full_windows
            if start >= warmup_s
            and (first_fault is None or start + window_s <= first_fault)
        ]
        baseline = (
            sum(baseline_values) / len(baseline_values)
            if baseline_values
            else 0.0
        )
        threshold = self.steady_fraction * baseline

        faults: List[FaultRecovery] = []
        for inject in injects:
            detected_at = next(
                (e.time for e in expires if e.time >= inject.time), None
            )
            first_migrate = next(
                (m for m in migrates if m.time >= inject.time), None
            )
            rescheduled_at = (
                first_migrate.time if first_migrate is not None else None
            )
            tasks_moved = (
                first_migrate.moved if first_migrate is not None else None
            )
            post = [
                (start, value)
                for start, value in full_windows
                if start >= inject.time
            ]
            floor_ratio: Optional[float] = None
            steady_at: Optional[float] = None
            if baseline > 0 and post:
                floor_ratio = min(value for _, value in post) / baseline
                for i, (start, value) in enumerate(post):
                    if value >= threshold and all(
                        later >= threshold for _, later in post[i:]
                    ):
                        steady_at = start
                        break
            faults.append(
                FaultRecovery(
                    fault=inject.fault,
                    fault_time_s=inject.time,
                    detected_at_s=detected_at,
                    detection_latency_s=(
                        detected_at - inject.time
                        if detected_at is not None
                        else None
                    ),
                    rescheduled_at_s=rescheduled_at,
                    reschedule_latency_s=(
                        rescheduled_at - inject.time
                        if rescheduled_at is not None
                        else None
                    ),
                    throughput_floor_ratio=floor_ratio,
                    steady_state_at_s=steady_at,
                    time_to_steady_state_s=(
                        max(0.0, steady_at - inject.time)
                        if steady_at is not None
                        else None
                    ),
                    tasks_moved=tasks_moved,
                )
            )

        last_fault = injects[-1].time if injects else None
        post_values = [
            value
            for start, value in full_windows
            if start >= (last_fault if last_fault is not None else warmup_s)
        ]
        post_fault = sum(post_values) / len(post_values) if post_values else 0.0

        # Delivery-semantics metrics: how much replay traffic the faults
        # caused and how long the backlog took to drain.  All stay at
        # their zero defaults on runs without the at-least-once layer or
        # message-loss faults.
        replays = self.query(kind="replay", topology=topology_id)
        time_to_drain: Optional[float] = None
        if replays and last_fault is not None:
            post_fault_replays = [
                r.time for r in replays if r.time >= last_fault
            ]
            if post_fault_replays:
                time_to_drain = post_fault_replays[-1] - last_fault

        fault_moved = sum(m.moved for m in migrates)
        elastic_moved = sum(m.moved for m in elastic_migrates) + sum(
            r.moved + r.added + r.removed for r in rescale_events
        )

        return RecoveryReport(
            topology_id=topology_id,
            baseline_tuples_per_window=baseline,
            post_fault_tuples_per_window=post_fault,
            total_failed_tuples=sim_report.failed(topology_id),
            migrations=len(migrates),
            faults=tuple(faults),
            total_tasks_moved=fault_moved + elastic_moved,
            fault_tasks_moved=fault_moved,
            elastic_tasks_moved=elastic_moved,
            rescales=len(rescale_events),
            replayed_tuples=sim_report.replayed(topology_id),
            exhausted_tuples=sim_report.exhausted(topology_id),
            lost_tuples=sim_report.lost(topology_id),
            duplicated_tuples=sim_report.duplicated(topology_id),
            time_to_drain_s=time_to_drain,
        )
