"""Offline scheduler of Aniello, Baldoni & Querzoni (DEBS 2013).

The related-work baseline the paper compares its approach against: the
offline variant linearises the topology's components (it only supports
acyclic topologies — the limitation the paper calls out) and deals
executors of consecutive components to worker slots in round-robin
fashion, so *some* adjacent pairs co-locate, but no resource demand or
availability is consulted and anchoring/packing is absent.
"""

from __future__ import annotations

from typing import Sequence

from repro.errors import TopologyValidationError
from repro.scheduler.default import DefaultScheduler
from repro.scheduler.ordering import TaskOrderingStrategy, ordered_tasks
from repro.topology.task import Task
from repro.topology.topology import Topology
from repro.topology.traversal import kahn_component_order

__all__ = ["AnielloOfflineScheduler"]


class AnielloOfflineScheduler(DefaultScheduler):
    """Linearise components topologically, then round-robin tasks over a
    per-topology set of worker slots in linearised order.

    Unlike :class:`~repro.scheduler.default.DefaultScheduler`, consecutive
    tasks in the linearisation go to consecutive slots, so a chain of
    components partially folds onto the same workers; unlike R-Storm, no
    resource accounting or rack-locality anchoring happens.

    Args:
        workers_per_topology: Slots each topology spreads over (defaults
            to one per alive node, matching the paper's setup).
    """

    name = "aniello-offline"

    def _deal_order(self, topology: Topology) -> Sequence[Task]:
        """Task ``i`` of the interleaved topological linearisation lands
        on worker ``i % W``.  The DEBS'13 offline scheduler only handles
        acyclic topologies, so a cyclic one is rejected, even when it is
        already fully placed (R-Storm has no such limit)."""
        if len(kahn_component_order(topology)) != len(topology.components):
            raise TopologyValidationError(
                f"topology {topology.topology_id!r} is cyclic; the Aniello "
                "offline scheduler only supports acyclic topologies"
            )
        return ordered_tasks(topology, TaskOrderingStrategy.TOPOLOGICAL)
