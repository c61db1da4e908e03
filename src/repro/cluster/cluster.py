"""The cluster model: racks + nodes + network topography.

This is the substrate both schedulers operate on.  It provides node/slot
discovery, distance queries, aggregate accounting, and failure injection.
The scheduling state itself (which executor is where) lives in
:mod:`repro.scheduler.global_state`; the cluster only tracks physical
resources.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from repro.cluster.network import NetworkTopography
from repro.cluster.node import Node, WorkerSlot
from repro.cluster.rack import Rack
from repro.errors import ClusterStateError

__all__ = ["Cluster"]


class Cluster:
    """Racks of nodes connected by a :class:`NetworkTopography`."""

    def __init__(
        self,
        racks: Optional[List[Rack]] = None,
        topography: Optional[NetworkTopography] = None,
        name: str = "cluster",
    ):
        self.name = name
        self.topography = topography or NetworkTopography()
        self._racks: Dict[str, Rack] = {}
        self._nodes: Dict[str, Node] = {}
        #: (node_a, node_b) -> abstract distance; the matrix is immutable
        #: between membership changes, and the schedulers query the same
        #: pairs thousands of times per round.
        self._distance_cache: Dict[Tuple[str, str], float] = {}
        for rack in racks or []:
            self.add_rack(rack)

    # -- mutation --------------------------------------------------------

    def add_rack(self, rack: Rack) -> None:
        if rack.rack_id in self._racks:
            raise ClusterStateError(f"duplicate rack {rack.rack_id!r}")
        for node in rack:
            if node.node_id in self._nodes:
                raise ClusterStateError(
                    f"duplicate node {node.node_id!r} across racks"
                )
        self._racks[rack.rack_id] = rack
        for node in rack:
            self._nodes[node.node_id] = node
        self._distance_cache.clear()

    def add_node(self, node: Node) -> None:
        """Add a node, creating its rack on demand (supervisor join)."""
        if node.node_id in self._nodes:
            raise ClusterStateError(f"duplicate node {node.node_id!r}")
        rack = self._racks.get(node.rack_id)
        if rack is None:
            rack = Rack(node.rack_id)
            self._racks[node.rack_id] = rack
        rack.add_node(node)
        self._nodes[node.node_id] = node
        self._distance_cache.clear()

    def remove_node(self, node_id: str) -> Node:
        node = self.node(node_id)
        self._racks[node.rack_id].remove_node(node_id)
        del self._nodes[node_id]
        self._distance_cache.clear()
        return node

    # -- access ------------------------------------------------------------

    @property
    def racks(self) -> List[Rack]:
        return list(self._racks.values())

    @property
    def nodes(self) -> List[Node]:
        return list(self._nodes.values())

    @property
    def alive_nodes(self) -> List[Node]:
        return [n for n in self._nodes.values() if n.alive]

    def rack(self, rack_id: str) -> Rack:
        try:
            return self._racks[rack_id]
        except KeyError:
            raise ClusterStateError(f"no rack {rack_id!r}") from None

    def node(self, node_id: str) -> Node:
        try:
            return self._nodes[node_id]
        except KeyError:
            raise ClusterStateError(f"no node {node_id!r}") from None

    def has_node(self, node_id: str) -> bool:
        return node_id in self._nodes

    def __iter__(self) -> Iterator[Node]:
        return iter(self._nodes.values())

    def __len__(self) -> int:
        return len(self._nodes)

    # -- distance ------------------------------------------------------------

    def node_distance(self, node_a: str, node_b: str) -> float:
        """Abstract network distance between two nodes (R-Storm's
        ``networkDistance`` term).  Memoised: the matrix only changes
        when cluster membership does."""
        key = (node_a, node_b)
        cached = self._distance_cache.get(key)
        if cached is None:
            a, b = self.node(node_a), self.node(node_b)
            cached = self.topography.node_distance(
                a.rack_id, a.node_id, b.rack_id, b.node_id
            )
            self._distance_cache[key] = cached
        return cached

    def slot_distance_level(self, slot_a: WorkerSlot, slot_b: WorkerSlot):
        """Locality level between two worker slots (used by the simulator
        for transfer-cost classification)."""
        a, b = self.node(slot_a.node_id), self.node(slot_b.node_id)
        return self.topography.level_between(
            a.rack_id, a.node_id, slot_a, b.rack_id, b.node_id, slot_b
        )

    # -- aggregates ------------------------------------------------------------

    def total_available(self):
        nodes = self.alive_nodes
        if not nodes:
            return None
        total = nodes[0].available
        for node in nodes[1:]:
            total = total + node.available
        return total

    def release_all(self) -> None:
        """Clear every reservation on every node (fresh scheduling round)."""
        for node in self._nodes.values():
            node.release_all()

    # -- failure injection ----------------------------------------------------

    def fail_node(self, node_id: str) -> None:
        self.node(node_id).fail()

    def recover_node(self, node_id: str) -> None:
        self.node(node_id).recover()

    def __repr__(self) -> str:
        return (
            f"Cluster({self.name!r}, racks={len(self._racks)}, "
            f"nodes={len(self._nodes)})"
        )
