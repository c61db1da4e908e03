"""Storm's default scheduler (the paper's baseline).

Reproduces the ``EvenScheduler``'s behaviour: worker slots are sorted so
consecutive slots land on *different* nodes (Storm interleaves by port:
``node-a:6700, node-b:6700, ..., node-a:6701, ...``), one worker slot is
taken per requested worker, and executors are dealt round-robin across
those slots.  The result is the pseudo-random round-robin placement the
paper criticises: tasks of adjacent components almost always end up on
different machines, and no resource demand or availability is consulted.
"""

from __future__ import annotations

import weakref
import zlib
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.cluster.cluster import Cluster
from repro.cluster.node import WorkerSlot
from repro.errors import SchedulingError
from repro.scheduler.assignment import Assignment
from repro.scheduler.base import IScheduler
from repro.topology.task import Task
from repro.topology.topology import Topology

__all__ = ["DefaultScheduler", "interleaved_slots"]


def _node_shuffle_key(node_id: str) -> int:
    """Stable pseudo-random ordering key.

    The paper describes default Storm as "pseudo-random round robin": the
    slot ordering visits nodes in an effectively arbitrary order rather
    than a rack-contiguous one.  Hashing the node id reproduces that
    behaviour deterministically, so runs are repeatable."""
    return zlib.crc32(node_id.encode())


#: Slot-ordering cache: the interleaved ordering depends only on the set
#: of alive nodes (each node's slots are fixed at construction), yet the
#: crc32 sort used to run on every scheduling round.  Entries are keyed
#: weakly by cluster and validated against the current alive-node ids, so
#: node failures and repairs invalidate naturally.
_SlotOrderEntry = Tuple[Tuple[str, ...], List[WorkerSlot]]
_SLOT_ORDER_CACHE: "weakref.WeakKeyDictionary[Cluster, _SlotOrderEntry]" = (
    weakref.WeakKeyDictionary()
)


def interleaved_slots(cluster: Cluster) -> List[WorkerSlot]:
    """All alive slots ordered port-major, node-minor — Storm's
    ``sortSlots``: the first N slots are on N distinct nodes whenever the
    cluster has at least N nodes.  Nodes are visited in a stable
    pseudo-random order (see :func:`_node_shuffle_key`)."""
    alive = cluster.alive_nodes
    alive_ids = tuple(n.node_id for n in alive)
    cached = _SLOT_ORDER_CACHE.get(cluster)
    if cached is not None and cached[0] == alive_ids:
        return list(cached[1])
    node_order = sorted(
        alive, key=lambda n: (_node_shuffle_key(n.node_id), n.node_id)
    )
    by_node: Dict[str, List[WorkerSlot]] = {
        node.node_id: sorted(node.slots, key=lambda s: s.port)
        for node in node_order
    }
    ordered: List[WorkerSlot] = []
    depth = max((len(slots) for slots in by_node.values()), default=0)
    for level in range(depth):
        for node in node_order:
            slots = by_node[node.node_id]
            if level < len(slots):
                ordered.append(slots[level])
    _SLOT_ORDER_CACHE[cluster] = (alive_ids, ordered)
    return list(ordered)


class DefaultScheduler(IScheduler):
    """Round-robin scheduling with disregard for resources.

    Each topology takes a window of consecutive interleaved slots, and
    its unplaced tasks are dealt over that window in :meth:`_deal_order`;
    a subclass that deals in another order changes nothing else.

    Args:
        workers_per_topology: How many worker slots each topology
            requests (Storm's ``topology.workers``).  ``None`` mirrors the
            paper's experimental setup — one worker per alive node, so
            "Storm's default scheduler will schedule executors on all the
            12 machines".
    """

    name = "default"

    def __init__(self, workers_per_topology: Optional[int] = None):
        if workers_per_topology is not None and workers_per_topology < 1:
            raise ValueError("workers_per_topology must be >= 1")
        self.workers_per_topology = workers_per_topology

    def schedule(
        self,
        topologies: Sequence[Topology],
        cluster: Cluster,
        existing: Optional[Mapping[str, Assignment]] = None,
    ) -> Dict[str, Assignment]:
        existing = dict(existing or {})
        slots = interleaved_slots(cluster)
        if not slots:
            raise SchedulingError(
                "no alive worker slots in the cluster",
                unassigned=[t for topo in topologies for t in topo.tasks],
            )
        #: round-robin cursor over the global slot ordering, shared across
        #: topologies in the round — successive topologies start where the
        #: previous one left off, like successive EvenScheduler calls.
        cursor = 0
        alive = {n.node_id for n in cluster.alive_nodes}
        result: Dict[str, Assignment] = {}
        for topology in topologies:
            order = self._deal_order(topology)
            prior = existing.get(topology.topology_id)
            surviving: Dict[Task, WorkerSlot] = {}
            if prior is not None:
                for task, slot in prior.as_dict().items():
                    if slot.node_id in alive:
                        surviving[task] = slot
            missing = [t for t in order if t not in surviving]
            if not missing:
                result[topology.topology_id] = Assignment(
                    topology.topology_id, surviving
                )
                continue
            num_workers = self.workers_per_topology or len(cluster.alive_nodes)
            num_workers = max(1, min(num_workers, len(slots)))
            chosen = [
                slots[(cursor + i) % len(slots)] for i in range(num_workers)
            ]
            cursor = (cursor + num_workers) % len(slots)
            mapping = dict(surviving)
            for i, task in enumerate(missing):
                mapping[task] = chosen[i % len(chosen)]
            result[topology.topology_id] = Assignment(
                topology.topology_id, mapping
            )
        return result

    def _deal_order(self, topology: Topology) -> Sequence[Task]:
        """The order in which a topology's unplaced tasks are dealt over
        its slot window: task-id order, so the executors of one component
        are spread across consecutive slots."""
        return sorted(topology.tasks, key=lambda t: t.task_id)
