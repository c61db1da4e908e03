"""Breadth-first topology traversal — Algorithm 2 of the paper.

R-Storm orders components by BFS from the spouts so that adjacent
(communicating) components appear in close succession in the ordering,
which the task-selection interleaving (Algorithm 3) then turns into
physical co-location.
"""

from __future__ import annotations

from collections import deque
from typing import List, Optional, Sequence

from repro.errors import TopologyValidationError
from repro.topology.topology import Topology

__all__ = [
    "bfs_component_order",
    "dfs_component_order",
    "kahn_component_order",
    "topological_component_order",
]


def bfs_component_order(
    topology: Topology, roots: Optional[Sequence[str]] = None
) -> List[str]:
    """Breadth-first ordering of component names (Algorithm 2).

    Traversal starts from the spouts (the paper: "we start traversing the
    topology starting from the spouts since the performance of spout(s)
    impacts the performance of the whole topology") and walks the
    *undirected* component adjacency, so cyclic topologies and join
    siblings are handled.

    Args:
        topology: The topology to traverse.
        roots: Override the starting components (defaults to all spouts,
            in name order).

    Returns:
        Every component reachable from the roots, each exactly once, in
        BFS order.
    """
    if roots is None:
        root_names = sorted(s.name for s in topology.spouts)
    else:
        root_names = list(roots)
        for name in root_names:
            topology.component(name)  # raises on unknown roots
    if not root_names:
        raise TopologyValidationError("BFS traversal needs at least one root")

    visited: List[str] = []
    seen = set()
    queue = deque()
    for root in root_names:
        if root not in seen:
            queue.append(root)
            seen.add(root)
            visited.append(root)
    while queue:
        current = queue.popleft()
        for neighbour in topology.neighbours_of(current):
            if neighbour not in seen:
                seen.add(neighbour)
                visited.append(neighbour)
                queue.append(neighbour)
    return visited


def dfs_component_order(
    topology: Topology, roots: Optional[Sequence[str]] = None
) -> List[str]:
    """Depth-first alternative ordering (ablation baseline for the BFS
    choice called out in DESIGN.md)."""
    if roots is None:
        root_names = sorted(s.name for s in topology.spouts)
    else:
        root_names = list(roots)
        for name in root_names:
            topology.component(name)
    if not root_names:
        raise TopologyValidationError("DFS traversal needs at least one root")

    visited: List[str] = []
    seen = set()

    def visit(name: str) -> None:
        seen.add(name)
        visited.append(name)
        for neighbour in topology.neighbours_of(name):
            if neighbour not in seen:
                visit(neighbour)

    for root in root_names:
        if root not in seen:
            visit(root)
    return visited


def kahn_component_order(topology: Topology) -> List[str]:
    """Kahn's topological order over the directed stream graph, ties
    broken by name.  Components on or downstream of a cycle never reach
    in-degree zero, so they are left out: the order covers every
    component exactly when the topology is acyclic."""
    in_degree = {name: 0 for name in topology.components}
    for _, target, _ in topology.edges():
        in_degree[target] += 1
    queue = deque(sorted(n for n, d in in_degree.items() if d == 0))
    order: List[str] = []
    while queue:
        name = queue.popleft()
        order.append(name)
        for target in topology.downstream_of(name):
            in_degree[target] -= 1
            if in_degree[target] == 0:
                queue.append(target)
    return order


def topological_component_order(topology: Topology) -> List[str]:
    """Kahn topological order (second ablation baseline).  Falls back to
    BFS order for cyclic topologies, which have no topological order."""
    order = kahn_component_order(topology)
    if len(order) != len(topology.components):
        return bfs_component_order(topology)
    return order
