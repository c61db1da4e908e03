"""The R-Storm resource-aware scheduler (Algorithms 1, 3 and 4).

Scheduling proceeds in two phases per topology:

1. **Task selection** (Algorithm 3): BFS over components from the spouts,
   tasks interleaved round-robin across components, so communicating
   tasks are adjacent in the ordering.
2. **Node selection** (Algorithm 4): each task goes to the feasible node
   minimising a weighted Euclidean distance in resource space.  The first
   task anchors on the *ref node* — the node with the most available
   resources inside the rack with the most available resources — and
   every subsequent distance includes a network-distance term from the
   ref node, so tasks pack tightly on or around the anchor.

Hard constraints (memory) are never violated: nodes that cannot host a
task's memory demand are filtered out before the distance comparison.
Soft constraints (CPU, bandwidth) may be over-committed; minimising the
squared availability-demand gap simultaneously avoids both waste
(availability far above demand) and heavy over-commit (availability far
below demand).

The hot path runs on the packed flat-array view of the cluster
(:class:`~repro.scheduler.packed.PackedClusterState`).  Until a fresh
topology's first task is placed, each task scans every alive node once,
to find the ref node.  From then on node ``i``'s distance depends only
on its availability row ``avail[.][i]``, which changes only when a task
lands on ``i`` and then only shrinks.  So candidates sit in lazy
min-heaps of ``(distance, node_id, i, version)``, one per distinct
demand vector and tier (nodes covering every dimension, then nodes
covering the hard ones), built on first use.  A placement re-keys one
node: it bumps the node's version and pushes its new entry into every
heap it still fits; stale entries are discarded on pop, and a node that
stops fitting never fits again within the call.  Heap keys perform the
float operations of the per-vector formulation
(:meth:`RStormScheduler.distance`) in the same order, and ties go to the
lower node id, so assignments are byte-identical to the unpacked
implementation (held by ``tests/scheduler/test_distance_key.py`` and the
differential suites in ``tests/scheduler/``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.cluster.cluster import Cluster
from repro.cluster.node import Node
from repro.cluster.resources import BANDWIDTH, ResourceSchema, ResourceVector
from repro.errors import SchedulingError
from repro.scheduler.assignment import Assignment
from repro.scheduler.base import IScheduler
from repro.scheduler.global_state import GlobalState
from repro.scheduler.ordering import TaskOrderingStrategy, ordered_tasks
from repro.scheduler.packed import PackedClusterState
from repro.topology.task import Task
from repro.topology.topology import Topology

__all__ = ["DistanceWeights", "RStormScheduler"]


@dataclass(frozen=True)
class DistanceWeights:
    """Weights of the node-selection distance (the paper's ``weight_m``,
    ``weight_c``, ``weight_b``).

    ``network`` weights the network-distance term that stands in for the
    bandwidth dimension; ``memory`` and ``cpu`` weight the squared
    availability-demand gaps.  With capacity-normalised gaps the defaults
    put all three terms on a comparable scale.
    """

    memory: float = 0.5
    cpu: float = 1.0
    network: float = 1.0

    def __post_init__(self) -> None:
        for name in ("memory", "cpu", "network"):
            if getattr(self, name) < 0:
                raise ValueError(f"distance weight {name!r} must be >= 0")


class RStormScheduler(IScheduler):
    """Resource-aware scheduler from the paper.

    Args:
        weights: Distance weights (see :class:`DistanceWeights`).
        ordering: Component linearisation strategy (BFS is the paper's;
            DFS/TOPOLOGICAL exist for ablations).
        normalise_gaps: Divide availability-demand gaps by node capacity
            before squaring, so megabytes and CPU points are comparable.
            Disabling this reproduces the naive unnormalised distance.
        use_network_distance: Include the ref-node network-distance term.
            Disabling it ablates the paper's locality optimisation.
        prefer_no_overcommit: Prefer nodes whose *soft* availability also
            covers the demand, over-committing soft resources only when no
            such node exists.  This mirrors how the production
            Resource-Aware Scheduler fills nodes to (not past) capacity
            while retaining the paper's soft-constraint semantics — soft
            budgets can still be exceeded when the cluster is tight.
        best_effort: If True, tasks with no feasible node are left
            unassigned (partial assignment) instead of raising
            :class:`~repro.errors.SchedulingError`.
    """

    name = "r-storm"

    def __init__(
        self,
        weights: DistanceWeights = DistanceWeights(),
        ordering: TaskOrderingStrategy = TaskOrderingStrategy.BFS,
        normalise_gaps: bool = True,
        use_network_distance: bool = True,
        prefer_no_overcommit: bool = True,
        best_effort: bool = False,
    ):
        self.weights = weights
        self.ordering = ordering
        self.normalise_gaps = normalise_gaps
        self.use_network_distance = use_network_distance
        self.prefer_no_overcommit = prefer_no_overcommit
        self.best_effort = best_effort
        #: (schema, weights) -> ((dim index, weight), ...) over the
        #: non-bandwidth dimensions, hoisted out of the distance loop.
        self._dim_weight_cache: Dict[
            Tuple[ResourceSchema, DistanceWeights],
            Tuple[Tuple[int, float], ...],
        ] = {}

    # -- IScheduler ---------------------------------------------------------

    def schedule(
        self,
        topologies: Sequence[Topology],
        cluster: Cluster,
        existing: Optional[Mapping[str, Assignment]] = None,
    ) -> Dict[str, Assignment]:
        topo_by_id = {t.topology_id: t for t in topologies}
        state = GlobalState.from_assignments(
            cluster, topo_by_id, existing or {}, reserve=True
        )
        result: Dict[str, Assignment] = {}
        for topology in topologies:
            self._schedule_topology(topology, cluster, state)
            result[topology.topology_id] = state.assignment_for(
                topology.topology_id
            )
        return result

    # -- per-topology scheduling ----------------------------------------------

    def _schedule_topology(
        self, topology: Topology, cluster: Cluster, state: GlobalState
    ) -> None:
        pending = [
            task
            for task in ordered_tasks(topology, self.ordering)
            if not state.is_placed(task)
        ]
        if not pending:
            return
        ref_node = self._initial_ref_node(topology, cluster, state)
        placed_this_round: List[Task] = []
        try:
            self._place_pending(topology, state, pending, ref_node,
                                placed_this_round)
        except SchedulingError:
            # Assignment is atomic per topology (paper Section 4.1): undo
            # this topology's partial placements before propagating.
            for task in placed_this_round:
                state.unplace(task)
            raise

    def _place_pending(
        self,
        topology: Topology,
        state: GlobalState,
        pending: List[Task],
        ref_node: Optional[Node],
        placed_this_round: List[Task],
    ) -> None:
        """Greedy node selection over the packed cluster view, from lazy
        per-demand distance heaps once the ref node is known (see the
        module docstring)."""
        view = state.packed
        demand_of: Dict[str, ResourceVector] = {}
        for task in pending:
            component = task.component
            if component not in demand_of:
                demand = topology.task_demand(task)
                view.check_schema(demand)
                demand_of[component] = demand

        avail = view.avail
        nodes = view.nodes
        node_ids = view.node_ids
        best_effort = self.best_effort
        topology_id = topology.topology_id
        # Candidate tiers in preference order, as the dimensions a node
        # must cover: uncommitted (every dimension), then hard-feasible
        # (the paper's H_theta > H_tau guard).
        tiers = (
            (tuple(range(view.num_dims)), view.hard_dims)
            if self.prefer_no_overcommit
            else (view.hard_dims,)
        )

        def fits(i: int, dvals: Tuple[float, ...], dims: Tuple[int, ...]) -> bool:
            for d in dims:
                if avail[d][i] < dvals[d]:
                    return False
            return True

        # (demand values, tier dims) -> min-heap of (distance, node_id,
        # i, version); an entry is current iff its version is version[i],
        # and the current entries are exactly the nodes fitting the tier.
        alive = range(len(nodes))
        version = [0] * len(nodes)
        heaps: Dict[Tuple[Tuple[float, ...], Tuple[int, ...]], list] = {}
        distance = (
            self._packed_distance(view, ref_node)
            if ref_node is not None
            else None
        )

        for task in pending:
            demand = demand_of[task.component]
            dvals = demand.values
            best_i: Optional[int] = None
            for dims in tiers:
                if distance is None:
                    # Fresh topology: one scan, anchored on the ref node.
                    pool = [i for i in alive if fits(i, dvals, dims)]
                    if pool:
                        best_i = self._find_ref_index(view, pool)
                        break
                    continue
                heap = heaps.get((dvals, dims))
                if heap is None:
                    heap = heaps[(dvals, dims)] = [
                        (distance(i, dvals), node_ids[i], i, version[i])
                        for i in alive
                        if fits(i, dvals, dims)
                    ]
                    heapify(heap)
                while heap and heap[0][3] != version[heap[0][2]]:
                    heappop(heap)
                if heap:
                    best_i = heap[0][2]
                    break
            if best_i is None:
                if best_effort:
                    continue
                raise SchedulingError(
                    f"no feasible node for task {task} "
                    f"(demand {demand!r}): every alive node violates a "
                    f"hard constraint",
                    unassigned=[
                        t for t in pending if not state.is_placed(t)
                    ],
                )
            node = nodes[best_i]
            slot = state.slot_for_topology_on_node(topology_id, node)
            state.place(task, slot, demand)
            placed_this_round.append(task)
            if distance is None:
                distance = self._packed_distance(view, node)
            version[best_i] = stamp = version[best_i] + 1
            for (key_vals, dims), heap in heaps.items():
                if fits(best_i, key_vals, dims):
                    heappush(
                        heap,
                        (distance(best_i, key_vals), node_ids[best_i],
                         best_i, stamp),
                    )

    def _initial_ref_node(
        self, topology: Topology, cluster: Cluster, state: GlobalState
    ) -> Optional[Node]:
        """Resume anchoring for partially-scheduled topologies: the node
        already hosting the most of this topology's tasks.  Fresh
        topologies anchor lazily via :meth:`_find_ref_index` once the
        first task's feasible set is known."""
        counts: Dict[str, int] = {}
        for task in state.placed_tasks(topology.topology_id):
            node_id = state.node_of(task)
            if node_id is not None:
                counts[node_id] = counts.get(node_id, 0) + 1
        if not counts:
            return None
        best = max(sorted(counts), key=lambda n: counts[n])
        return cluster.node(best)

    # -- node selection (Algorithm 4) -----------------------------------------

    def _dim_weights(
        self, schema: Optional[ResourceSchema]
    ) -> Tuple[Tuple[int, float], ...]:
        """``(dimension index, weight)`` pairs over the non-bandwidth
        dimensions in schema order, computed once per (schema, weights)
        instead of per candidate node per dimension."""
        if schema is None:
            return ()
        key = (schema, self.weights)
        cached = self._dim_weight_cache.get(key)
        if cached is None:
            overrides = {
                "memory_mb": self.weights.memory,
                "cpu": self.weights.cpu,
            }
            cached = tuple(
                (d, overrides.get(dim.name, dim.default_weight))
                for d, dim in enumerate(schema.dimensions)
                if dim.name != BANDWIDTH
            )
            self._dim_weight_cache[key] = cached
        return cached

    def _packed_distance(
        self, view: PackedClusterState, ref_node: Node
    ) -> Callable[[int, Tuple[float, ...]], float]:
        """The Distance procedure of Algorithm 4 over the packed view for
        a fixed ref node: ``distance(i, dvals)`` performs the float
        operations of :meth:`distance` in the same order for alive node
        ``i``, so the two agree bit for bit."""
        avail = view.avail
        caps = view.caps
        net_row = view.dist_row(ref_node.node_id)
        dim_weights = self._dim_weights(view.schema)
        w_net = self.weights.network
        use_net = self.use_network_distance
        normalise = self.normalise_gaps
        sqrt = math.sqrt

        def distance(i: int, dvals: Tuple[float, ...]) -> float:
            total = 0.0
            for d, w in dim_weights:
                gap = avail[d][i] - dvals[d]
                if normalise:
                    cap = caps[d][i]
                    gap = gap / cap if cap > 0 else 0.0
                total += w * gap * gap
            if use_net:
                total += w_net * net_row[i]
            return sqrt(total if total > 0.0 else 0.0)

        return distance

    @staticmethod
    def _find_ref_index(view: PackedClusterState, pool: List[int]) -> int:
        """The paper's lines 6-9 on the packed view: the most-available
        node inside the most-available rack, restricted to the non-empty
        feasible pool.

        "Most resources" compares absolute availability, with each
        dimension scaled by the cluster-wide maximum capacity so a
        megabyte-dominated sum does not drown the CPU dimension, and a
        big empty machine outranks a small empty one.  Node scores are
        cached on the view and invalidated incrementally on placement.
        """
        scores = view.scores
        node_ids = view.node_ids
        racks = sorted(
            view.rack_rows,
            key=lambda row: (-sum(scores[i] for i in row[1]), row[0]),
        )
        rank = {i: r for r, (_, row) in enumerate(racks) for i in row}
        return min(pool, key=lambda i: (rank[i], -scores[i], node_ids[i]))

    def distance(
        self, node: Node, demand: ResourceVector, net_distance: float
    ) -> float:
        """The Distance procedure of Algorithm 4 — reference (unpacked)
        formulation.

        ``sqrt(w_m * gap_mem^2 + w_c * gap_cpu^2 + w_b * netdist(ref, node))``
        with gaps optionally normalised by node capacity.  Generalised
        schemas contribute every non-bandwidth dimension, weighted by the
        dimension's default weight (memory/cpu weights override the
        standard dimensions).

        The scheduling hot path keys its node heaps with
        :meth:`_packed_distance`, which performs these operations in the
        same order over the packed arrays; this method remains the
        executable specification, and the two are held bit-identical by
        ``tests/scheduler/test_distance_key.py``.

        Args:
            node: Candidate node (already hard-constraint feasible).
            demand: The task's declared demand vector.
            net_distance: Abstract network distance from the ref node to
                ``node`` (see :meth:`Cluster.node_distance`).
        """
        schema = node.available.schema
        if self.normalise_gaps:
            gaps = node.available.normalised_gap(demand, node.capacity)
        else:
            gaps = node.available.gap(demand)
        total = 0.0
        for dim in schema:
            if dim.name == BANDWIDTH:
                continue  # replaced by the network-distance term
            weight = {
                "memory_mb": self.weights.memory,
                "cpu": self.weights.cpu,
            }.get(dim.name, dim.default_weight)
            gap = gaps[dim.name]
            total += weight * gap * gap
        if self.use_network_distance:
            total += self.weights.network * net_distance
        return math.sqrt(max(0.0, total))
