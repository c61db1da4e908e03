"""Online rebalancing controller.

The paper's related-work section contrasts R-Storm with Aniello et al.'s
*online* scheduler, which monitors CPU usage and rebalances a running
topology.  R-Storm itself schedules offline (before execution), but the
authors note rescheduling after profiling as the natural extension; this
module provides that loop on top of the library's primitives:

1. every ``interval_s`` of simulated time, compare each node's measured
   CPU utilisation over the last interval against a high watermark;
2. if a node is hot, evict its most CPU-hungry task (by declared load),
   release the reservation, and re-place the task with the wrapped
   scheduler while the hot node is temporarily excluded;
3. migrate the task in the running simulation.

The controller is deliberately conservative — one migration per hot node
per tick — because each migration costs a queue hand-off.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.cluster.cluster import Cluster
from repro.errors import ConfigError, SchedulingError
from repro.scheduler.assignment import Assignment
from repro.scheduler.base import IScheduler
from repro.scheduler.rstorm import RStormScheduler
from repro.topology.task import Task, task_label
from repro.topology.topology import Topology

__all__ = ["OnlineRebalancer"]


class OnlineRebalancer:
    """Watch a running simulation and migrate tasks off hot nodes.

    Args:
        cluster: The cluster being watched.
        scheduler: Used to re-place evicted tasks (defaults to R-Storm).
        high_watermark: Per-node CPU utilisation (measured over the last
            interval) above which the node is considered hot.
        interval_s: Simulated seconds between checks.
        max_migrations: Safety cap on total migrations.
    """

    def __init__(
        self,
        cluster: Cluster,
        scheduler: Optional[IScheduler] = None,
        high_watermark: float = 0.95,
        interval_s: float = 30.0,
        max_migrations: int = 100,
    ):
        if not 0.0 < high_watermark <= 1.0:
            raise ValueError("high_watermark must be in (0, 1]")
        if interval_s <= 0:
            raise ValueError("interval_s must be positive")
        self.cluster = cluster
        self.scheduler = scheduler or RStormScheduler(best_effort=True)
        self.high_watermark = high_watermark
        self.interval_s = interval_s
        self.max_migrations = max_migrations
        self.migrations: List[Tuple[float, Task, str, str]] = []
        self._last_busy: Dict[str, float] = {}
        self._attached = False

    # -- measurement ----------------------------------------------------------

    def _interval_utilisation(self, run) -> Dict[str, float]:
        """Per-node CPU utilisation over the last interval."""
        utilisation = {}
        for node in self.cluster.alive_nodes:
            busy = run.stats.busy.get(node.node_id, 0.0)
            delta = busy - self._last_busy.get(node.node_id, 0.0)
            self._last_busy[node.node_id] = busy
            cores = max(1, round(node.capacity.cpu / 100.0))
            utilisation[node.node_id] = delta / (self.interval_s * cores)
        return utilisation

    # -- rebalancing ---------------------------------------------------------

    def _pick_victim(
        self,
        node_id: str,
        placements: Dict[str, Tuple[Topology, Assignment]],
    ) -> Optional[Tuple[Topology, Task]]:
        """The most CPU-hungry task on the hot node."""
        best: Optional[Tuple[float, Topology, Task]] = None
        for topology, assignment in placements.values():
            cpu_of: Dict[str, float] = {}
            for task in assignment.tasks_on_node(node_id):
                load = cpu_of.get(task.component)
                if load is None:
                    load = topology.task_demand(task).cpu
                    cpu_of[task.component] = load
                if best is None or load > best[0]:
                    best = (load, topology, task)
        if best is None:
            return None
        return best[1], best[2]

    def _replace_task(
        self, topology: Topology, assignment: Assignment, task: Task, hot: str
    ) -> Optional[Assignment]:
        """Re-place one task with the hot node blocked for new placements;
        returns the new assignment, or ``None`` if no better home exists.

        Blocking works by reserving the hot node's remaining memory under
        a sentinel label: the node fails the hard-constraint filter for
        the evicted task but its other tasks stay pinned exactly where
        they are.
        """
        node = self.cluster.node(hot)
        if node.has_reservation(task_label(task)):
            node.release(task_label(task))
        remaining = Assignment(
            topology.topology_id,
            {t: s for t, s in assignment.as_dict().items() if t != task},
        )
        blocker = "__rebalance_blocker__"
        schema = node.capacity.schema
        node.reserve(
            blocker,
            schema.vector(
                **{
                    dim: max(0.0, node.available[dim])
                    for dim in schema.hard_names
                }
            ),
        )
        try:
            new = self.scheduler.schedule(
                [topology],
                self.cluster,
                {topology.topology_id: remaining},
            )[topology.topology_id]
        except SchedulingError:
            new = None
        finally:
            node.release(blocker)
        if (
            new is None
            or not new.has(task)
            or not new.is_complete(topology)
            or new.node_of(task) == hot
        ):
            # nowhere better; restore the reservation and give up
            try:
                node.reserve(task_label(task), topology.task_demand(task))
            except Exception:  # pragma: no cover - best effort restore
                pass
            return None
        return new

    def attach(self, run, placements: Dict[str, Tuple[Topology, Assignment]]) -> None:
        """Start the periodic rebalancing loop inside ``run``.

        Args:
            run: A :class:`~repro.simulation.runtime.SimulationRun`.
            placements: topology id -> (topology, current assignment);
                updated in place as migrations happen.

        Raises:
            ConfigError: if the rebalancer is already attached (a second
                loop would double every check).
        """
        if self._attached:
            raise ConfigError("online rebalancer is already attached")
        self._attached = True
        run.on_time(self.interval_s, self._tick, run, placements)

    def _tick(
        self, run, placements: Dict[str, Tuple[Topology, Assignment]]
    ) -> None:
        utilisation = self._interval_utilisation(run)
        hot_nodes = sorted(
            (
                node_id
                for node_id, value in utilisation.items()
                if value > self.high_watermark
            ),
            key=lambda n: -utilisation[n],
        )
        for hot in hot_nodes:
            if len(self.migrations) >= self.max_migrations:
                break
            victim = self._pick_victim(hot, placements)
            if victim is None:
                continue
            topology, task = victim
            assignment = placements[topology.topology_id][1]
            new = self._replace_task(topology, assignment, task, hot)
            if new is None:
                continue
            placements[topology.topology_id] = (topology, new)
            run.migrate(topology.topology_id, new)
            self.migrations.append(
                (run.sim.now, task, hot, new.node_of(task))
            )
        run.on_time(run.sim.now + self.interval_s, self._tick, run, placements)
