"""Scheduler interface.

Mirrors Storm's ``IScheduler`` contract (paper Section 5): Nimbus invokes
the configured scheduler periodically with the set of topologies and the
current cluster; the scheduler returns a complete task -> worker-slot
assignment per topology.  Schedulers are stateless across invocations —
anything they need is rebuilt from the cluster and the live assignments
(see :class:`~repro.scheduler.global_state.GlobalState`).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Sequence

from repro.cluster.cluster import Cluster
from repro.scheduler.assignment import Assignment
from repro.topology.topology import Topology

__all__ = ["IScheduler", "SchedulingRound"]


@dataclass
class SchedulingRound:
    """Diagnostics for one scheduler invocation."""

    scheduler: str
    topologies: Sequence[str]
    assignments: Dict[str, Assignment] = field(default_factory=dict)
    newly_scheduled: Dict[str, int] = field(default_factory=dict)


class IScheduler(abc.ABC):
    """Base class for all schedulers.

    Subclasses implement :meth:`schedule`.  The convenience wrapper
    :meth:`run` also counts the tasks each round newly placed.  The
    ``sched-*`` probes of ``repro bench`` time the schedulers (the
    paper's real-time requirement: scheduling must be "snappy").
    """

    #: human-readable scheduler name used in configs and reports
    name = "scheduler"

    @abc.abstractmethod
    def schedule(
        self,
        topologies: Sequence[Topology],
        cluster: Cluster,
        existing: Optional[Mapping[str, Assignment]] = None,
    ) -> Dict[str, Assignment]:
        """Produce an assignment for every topology.

        Args:
            topologies: All topologies that should be running, in
                submission order (order matters: earlier topologies claim
                resources first, exactly as in Storm).
            cluster: The physical cluster.  Implementations must not leave
                stray reservations behind: either reserve through a
                :class:`GlobalState` they own, and roll it back when the
                call raises, or leave node accounting untouched.
            existing: Live assignments from previous rounds.  Tasks whose
                placements survive (their node is still alive) must keep
                them; only missing/orphaned tasks get new placements.

        Returns:
            topology id -> complete :class:`Assignment`.

        Raises:
            SchedulingError: if a topology cannot be fully placed and the
                scheduler is not configured for partial results; no
                reservation of any placement the call made survives.
        """

    def run(
        self,
        topologies: Sequence[Topology],
        cluster: Cluster,
        existing: Optional[Mapping[str, Assignment]] = None,
    ) -> SchedulingRound:
        """Invoke :meth:`schedule` and count the newly placed tasks."""
        assignments = self.schedule(topologies, cluster, existing)
        newly = {}
        for topo in topologies:
            before = existing.get(topo.topology_id) if existing else None
            after = assignments.get(topo.topology_id)
            if after is None:
                newly[topo.topology_id] = 0
                continue
            if before is None:
                newly[topo.topology_id] = len(after)
                continue
            if after is before:
                # handed back untouched (see GlobalState.assignment_for)
                newly[topo.topology_id] = 0
                continue
            newly[topo.topology_id] = sum(
                1 for task in after.tasks if not before.has(task)
            )
        return SchedulingRound(
            scheduler=self.name,
            topologies=[t.topology_id for t in topologies],
            assignments=assignments,
            newly_scheduled=newly,
        )
