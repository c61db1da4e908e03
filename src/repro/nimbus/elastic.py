"""Elastic runtime: queue-driven autoscaling and online rebalance.

R-Storm (PAPER.md) computes a *static* placement from declared resource
needs — and the overload experiment shows exactly where that breaks:
packing to declared capacity leaves no headroom past 1x offered load.
This module adds the control loop the DRS line of work argues for: a
deterministic, opt-in Nimbus daemon that samples per-component queue
backlogs and observed throughput from the running discrete-event
simulation on a fixed control period, sizes each bolt with an M/M/k
queueing model on the observed arrival/service rates, and acts through
two mechanisms:

* **scale** — change a bolt's parallelism via
  :meth:`~repro.topology.topology.Topology.with_parallelism` (task-id
  stable), re-running the active scheduler for just the added tasks
  (scale-up) or shrinking the live assignment directly (scale-down),
  then swapping the new generation in with
  :meth:`~repro.simulation.runtime.SimulationRun.rescale`;
* **rebalance** — migrate the hottest executor off a saturated node onto
  the least-utilised feasible one with
  :meth:`~repro.simulation.runtime.SimulationRun.migrate`
  (``reason="elastic"``, so churn accounting stays separate from fault
  recovery).

Everything is off by default (``nimbus.elastic.enabled: false``) and the
controller is a strict no-op when disabled, so the default path stays
byte-identical — CI asserts this.  The loop is fully deterministic:
decisions derive from simulated time and deterministic counters only, no
RNG and no wall clock.

The control loop per period, per bolt::

    sample    lambda = (processed delta + backlog delta) / period
              mu     = declared_core_share * 1000 / cpu_ms_per_tuple
    size      k*     = ceil((lambda + backlog/period) / (mu * rho_target))
    dampen    inside the hysteresis band -> hold
              below current -> hold until `patience` consecutive periods
    act       scale-up immediately / scale-down after patience
    rebalance at most one hot-executor migration per topology per period,
              never onto a quarantined or dead node

Quarantine composes: scale-up scheduling masks quarantined nodes exactly
like :meth:`Nimbus.schedule_round` does, and rebalance never targets
them — the elastic loop cannot fight the quarantine machinery.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import SchedulingError
from repro.nimbus.config import StormConfig
from repro.nimbus.nimbus import Nimbus
from repro.scheduler.assignment import Assignment
from repro.topology.task import Task, task_label

__all__ = ["ElasticDecision", "ElasticController", "required_parallelism"]

#: CPU points that equal one core (paper: 100 points = one full core).
_POINTS_PER_CORE = 100.0


def required_parallelism(
    arrival_tps: float,
    service_tps_per_task: float,
    current: int,
    backlog_tuples: int = 0,
    *,
    target_utilisation: float = 0.7,
    hysteresis: float = 0.25,
    min_parallelism: int = 1,
    max_parallelism: int = 16,
    drain_period_s: float = 15.0,
) -> int:
    """M/M/k executor sizing with a hysteresis dead band.

    The smallest ``k`` keeping per-server utilisation at or below
    ``target_utilisation`` for the observed arrival rate, plus enough
    extra service capacity to drain the standing backlog within one
    control period::

        k* = ceil((lambda + backlog/drain_period) / (mu * rho_target))

    The dead band suppresses churn: when the unrounded requirement lies
    within ``current * (1 +/- hysteresis)``, the current parallelism is
    kept.  The result is clamped to ``[min_parallelism,
    max_parallelism]`` and is monotone non-decreasing in ``arrival_tps``
    (the property suite asserts all of this).
    """
    if current < 1:
        raise ValueError(f"current parallelism must be >= 1, got {current}")
    if arrival_tps < 0:
        raise ValueError(f"arrival_tps must be >= 0, got {arrival_tps}")
    if backlog_tuples < 0:
        raise ValueError(
            f"backlog_tuples must be >= 0, got {backlog_tuples}"
        )
    if not 0.0 < target_utilisation <= 1.0:
        raise ValueError(
            f"target_utilisation must be in (0, 1], got {target_utilisation}"
        )
    if not 0.0 <= hysteresis < 1.0:
        raise ValueError(f"hysteresis must be in [0, 1), got {hysteresis}")
    if min_parallelism < 1 or max_parallelism < min_parallelism:
        raise ValueError(
            f"need 1 <= min_parallelism <= max_parallelism, got "
            f"[{min_parallelism}, {max_parallelism}]"
        )
    if service_tps_per_task <= 0:
        # No service-rate estimate (e.g. a zero-cost profile): hold.
        return min(max(current, min_parallelism), max_parallelism)
    drain_tps = backlog_tuples / drain_period_s if drain_period_s > 0 else 0.0
    raw = (arrival_tps + drain_tps) / (
        service_tps_per_task * target_utilisation
    )
    if current * (1.0 - hysteresis) <= raw <= current * (1.0 + hysteresis):
        required = current
    else:
        required = int(math.ceil(raw - 1e-9))
    return min(max(required, min_parallelism), max_parallelism)


@dataclass(frozen=True)
class ElasticDecision:
    """One committed control action (plain data, picklable)."""

    time_s: float
    topology_id: str
    component: str
    #: ``scale-up`` | ``scale-down`` | ``rebalance``
    action: str
    from_parallelism: int
    to_parallelism: int
    #: observed component input rate over the control period (tuples/s)
    arrival_tps: float
    #: standing input backlog sampled at decision time (tuples)
    backlog_tuples: int
    #: executor churn of this action (tasks moved + added + removed)
    tasks_moved: int

    def as_dict(self) -> Dict[str, Any]:
        return {
            "time_s": round(self.time_s, 6),
            "topology_id": self.topology_id,
            "component": self.component,
            "action": self.action,
            "from_parallelism": self.from_parallelism,
            "to_parallelism": self.to_parallelism,
            "arrival_tps": round(self.arrival_tps, 3),
            "backlog_tuples": self.backlog_tuples,
            "tasks_moved": self.tasks_moved,
        }


class ElasticController:
    """The queue-driven autoscaling daemon, attached to a simulation.

    Args:
        nimbus: The master daemon whose topologies/assignments/scheduler
            (and quarantine state) the controller acts through.
        config: Config to read ``nimbus.elastic.*`` knobs from (defaults
            to the Nimbus's own config).

    Attach with :meth:`attach`; when ``nimbus.elastic.enabled`` is false
    the attach is a strict no-op, leaving the run untouched.
    """

    def __init__(
        self, nimbus: Nimbus, config: Optional[StormConfig] = None
    ):
        self.nimbus = nimbus
        self.config = config or nimbus.config
        #: every committed action, in decision order
        self.decisions: List[ElasticDecision] = []
        #: (time, message) of scale attempts the scheduler refused
        self.actions_failed: List[Tuple[float, str]] = []
        #: total elastic churn (tasks moved + added + removed)
        self.tasks_moved = 0
        # -- per-period sampling state --------------------------------
        self._last_time: Optional[float] = None
        self._last_processed: Dict[Tuple[str, str], int] = {}
        self._last_busy: Dict[str, float] = {}
        self._last_backlog: Dict[Tuple[str, str], int] = {}
        #: per-(topology, component) shed-tuple totals at the last tick —
        #: with the flow layer on, shed tuples never reach the bounded
        #: queue, so backlog alone under-reads demand; the shed delta
        #: restores it.  Stays empty (zero deltas) when flow is off.
        self._last_shed: Dict[Tuple[str, str], int] = {}
        #: consecutive periods a component's requirement sat below its
        #: current parallelism (scale-down patience)
        self._below_streak: Dict[Tuple[str, str], int] = {}

    # -- wiring --------------------------------------------------------

    def attach(self, run) -> None:
        """Drive the control loop inside a simulation, every
        ``nimbus.elastic.interval.secs`` of simulated time.

        No-op when ``nimbus.elastic.enabled`` is false: a config that
        merely *carries* elastic keys must not perturb the run.
        """
        if not self.config.elastic_enabled:
            return
        period = self.config.elastic_interval_s

        def tick() -> None:
            self._control_cycle(run, period)
            run.on_time(run.sim.now + period, tick)

        run.on_time(period, tick)

    # -- the control cycle ---------------------------------------------

    def _control_cycle(self, run, period: float) -> None:
        now = run.sim.now
        last_time = self._last_time if self._last_time is not None else 0.0
        dt = now - last_time
        processed = run.stats.processed_snapshot()
        busy = run.stats.busy_snapshot()
        shed = run.stats.shed_snapshot()
        if dt > 0:
            for topology_id in list(self.nimbus.assignments):
                scaled = self._scale_topology(
                    run, topology_id, processed, shed, dt, period, now
                )
                if not scaled and self.config.elastic_rebalance_enabled:
                    self._rebalance_topology(
                        run, topology_id, busy, dt, now
                    )
        self._last_time = now
        self._last_processed = processed
        self._last_busy = busy
        self._last_shed = shed

    def _scale_topology(
        self,
        run,
        topology_id: str,
        processed: Dict[Tuple[str, str], int],
        shed: Dict[Tuple[str, str], int],
        dt: float,
        period: float,
        now: float,
    ) -> bool:
        """Size every bolt of one topology; commit any required scale
        actions.  Returns True when at least one action was committed."""
        acted = False
        topology = self.nimbus.topology(topology_id)
        bolt_names = sorted(c.name for c in topology.bolts)
        for name in bolt_names:
            # Re-fetch per component: an earlier action in this cycle
            # replaced the topology generation.
            topology = self.nimbus.topology(topology_id)
            comp = topology.component(name)
            key = (topology_id, name)
            backlog = run.component_backlog(topology_id, name)
            delta = processed.get(key, 0) - self._last_processed.get(key, 0)
            growth = backlog - self._last_backlog.get(key, 0)
            self._last_backlog[key] = backlog
            # Tuples the shedding policy dropped at this bolt's bounded
            # queue this period were offered demand the queue never saw —
            # without this term a shedding component looks underloaded
            # exactly when it is drowning.  Zero with flow control off.
            shed_delta = shed.get(key, 0) - self._last_shed.get(key, 0)
            arrival_tps = max(0.0, (delta + growth + shed_delta) / dt)
            # Per-task service capacity at the *declared* CPU share —
            # the same contract the scheduler packs against (a task
            # declaring 25 points is guaranteed a quarter core, so plan
            # on a quarter core's worth of tuples/s).
            cpu_ms = comp.profile.cpu_ms_per_tuple
            core_share = comp.cpu_load / _POINTS_PER_CORE
            service_tps = (
                core_share * 1e3 / cpu_ms
                if cpu_ms > 0 and core_share > 0
                else 0.0
            )
            required = required_parallelism(
                arrival_tps,
                service_tps,
                comp.parallelism,
                backlog,
                target_utilisation=self.config.elastic_target_utilisation,
                hysteresis=self.config.elastic_hysteresis,
                min_parallelism=self.config.elastic_min_parallelism,
                max_parallelism=self.config.elastic_max_parallelism,
                drain_period_s=period,
            )
            if required < comp.parallelism:
                # Scale-down patience: shrink only after the requirement
                # held below current for `patience` consecutive periods.
                streak = self._below_streak.get(key, 0) + 1
                self._below_streak[key] = streak
                if streak < self.config.elastic_scale_down_patience:
                    continue
                self._below_streak[key] = 0
            else:
                self._below_streak[key] = 0
                if required == comp.parallelism:
                    continue
            if self._commit_scale(
                run, topology_id, name, required, arrival_tps, backlog, now
            ):
                acted = True
        return acted

    def _commit_scale(
        self,
        run,
        topology_id: str,
        component: str,
        required: int,
        arrival_tps: float,
        backlog: int,
        now: float,
    ) -> bool:
        nimbus = self.nimbus
        topology = nimbus.topology(topology_id)
        current = topology.component(component).parallelism
        new_topology = topology.with_parallelism(component, required)
        if required > current:
            # Scale-up: the active scheduler places just the delta —
            # existing placements survive, quarantined nodes are masked
            # exactly as in Nimbus.schedule_round.
            masked = nimbus._mask_quarantined()
            try:
                topologies = [
                    new_topology if t.topology_id == topology_id else t
                    for t in nimbus.topologies
                ]
                round_info = nimbus.scheduler.run(
                    topologies, nimbus.cluster, dict(nimbus.assignments)
                )
            except SchedulingError as err:
                self.actions_failed.append(
                    (now, f"{topology_id}/{component}: {err}")
                )
                return False
            finally:
                for node in masked:
                    node.recover()
            new_assignment = round_info.assignments[topology_id]
        else:
            # Scale-down needs no scheduler: keep surviving placements,
            # release the removed tasks' reservations.
            current_assignment = nimbus.assignments[topology_id]
            keep = set(new_topology.tasks)
            mapping: Dict[Task, Any] = {
                task: current_assignment.slot_of(task)
                for task in new_topology.tasks
            }
            new_assignment = Assignment(topology_id, mapping)
            for task in topology.tasks:
                if task in keep:
                    continue
                node_id = current_assignment.node_of(task)
                if nimbus.cluster.has_node(node_id):
                    node = nimbus.cluster.node(node_id)
                    if task_label(task) in node.reservations:
                        node.release(task_label(task))
        moved, added, removed = run.rescale(
            topology_id, new_topology, new_assignment
        )
        nimbus._topologies[topology_id] = new_topology
        nimbus.assignments[topology_id] = new_assignment
        churn = moved + added + removed
        self.tasks_moved += churn
        self.decisions.append(
            ElasticDecision(
                time_s=now,
                topology_id=topology_id,
                component=component,
                action="scale-up" if required > current else "scale-down",
                from_parallelism=current,
                to_parallelism=required,
                arrival_tps=arrival_tps,
                backlog_tuples=backlog,
                tasks_moved=churn,
            )
        )
        return True

    # -- rebalance -----------------------------------------------------

    def _node_utilisation(
        self, busy: Dict[str, float], dt: float
    ) -> Dict[str, float]:
        """Busy-core fraction per node over the last control period."""
        util: Dict[str, float] = {}
        for node in self.nimbus.cluster.nodes:
            cores = max(
                1, int(round(node.capacity.cpu / _POINTS_PER_CORE))
            )
            delta = busy.get(node.node_id, 0.0) - self._last_busy.get(
                node.node_id, 0.0
            )
            util[node.node_id] = delta / (cores * dt)
        return util

    def _rebalance_topology(
        self,
        run,
        topology_id: str,
        busy: Dict[str, float],
        dt: float,
        now: float,
    ) -> bool:
        """Move the deepest-queued bolt executor off a saturated node.

        At most one migration per topology per period (bounded churn);
        never onto a dead or quarantined node, and never a spout (their
        identity anchors arrival streams and acker credit).
        """
        nimbus = self.nimbus
        threshold = self.config.elastic_rebalance_threshold
        assignment = nimbus.assignments[topology_id]
        topology = nimbus.topology(topology_id)
        util = self._node_utilisation(busy, dt)
        quarantined = set(nimbus.quarantined)
        hot = [
            node_id
            for node_id in sorted(assignment.nodes)
            if util.get(node_id, 0.0) >= threshold
        ]
        if not hot:
            return False
        hot.sort(key=lambda n: (-util[n], n))
        source = hot[0]
        depths = run.task_queue_depths(topology_id)
        spout_names = {c.name for c in topology.spouts}
        candidates = [
            task
            for task in assignment.tasks_on_node(source)
            if task.component not in spout_names
        ]
        if not candidates:
            return False
        candidates.sort(key=lambda t: (-depths.get(t, 0), t.task_id))
        task = candidates[0]
        demand = topology.task_demand(task)
        targets = [
            node
            for node in nimbus.cluster.alive_nodes
            if node.node_id != source
            and node.node_id not in quarantined
            and util.get(node.node_id, 0.0) < threshold
            and node.can_host(demand)
        ]
        if not targets:
            return False
        targets.sort(key=lambda n: (util.get(n.node_id, 0.0), n.node_id))
        target = targets[0]
        # Reuse the topology's slot on the target when it has one, else
        # open its first worker slot.
        target_slot = next(
            (
                assignment.slot_of(t)
                for t in sorted(assignment.tasks)
                if assignment.node_of(t) == target.node_id
            ),
            target.slots[0],
        )
        mapping = {t: assignment.slot_of(t) for t in assignment.tasks}
        mapping[task] = target_slot
        new_assignment = Assignment(topology_id, mapping)
        # Move the reservation with the task.  Both sides are guarded:
        # fault recovery around crash/rejoin cycles can leave the
        # reservation already released from the source or already
        # present on the target.
        label = task_label(task)
        if nimbus.cluster.has_node(source):
            source_node = nimbus.cluster.node(source)
            if label in source_node.reservations:
                source_node.release(label)
        if label not in target.reservations:
            target.reserve(label, demand)
        moved = run.migrate(topology_id, new_assignment, reason="elastic")
        nimbus.assignments[topology_id] = new_assignment
        self.tasks_moved += moved
        self.decisions.append(
            ElasticDecision(
                time_s=now,
                topology_id=topology_id,
                component=task.component,
                action="rebalance",
                from_parallelism=topology.component(
                    task.component
                ).parallelism,
                to_parallelism=topology.component(
                    task.component
                ).parallelism,
                arrival_tps=0.0,
                backlog_tuples=depths.get(task, 0),
                tasks_moved=moved,
            )
        )
        return True
