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
(:class:`~repro.scheduler.packed.PackedClusterState`), whose
availability is stored a column (one dimension over every alive node)
at a time, and it works on whole columns too.  A tier's candidates
(nodes covering every dimension, then nodes covering the hard ones) are
filtered with one comprehension per dimension.  Until a fresh
topology's first task is placed, each task filters the alive nodes once
and anchors on the ref node among them.  From then on node ``i``'s
distance depends only on its availability ``avail[.][i]``, which
changes only when a task lands on ``i`` and then only shrinks.  So
candidates sit in lazy min-heaps of ``(distance, node_id, i, version)``,
one per distinct demand vector and tier, grown ring by ring: a ring
holds the alive nodes at one network distance ``d`` from the ref node
(the node and its rack at ``d = 0``, then the other racks; one ring
without the network term).  Every ``w * gap * gap`` is ``>= 0`` and
``fl(a + b) >= b`` for ``a >= 0``, so no key in a ring is below ``sqrt(w_net * d)``, the
kernels' own product; a ring joins, filtered and keyed at its current
availability, only while the heap is empty or its minimum is ``>=``
that bound (an outer node may tie and win on its lower id).  A
placement re-keys one node, with the scalar key: it bumps the node's
version and pushes its new entry into every heap that holds its ring
and that it still fits; stale entries are discarded on pop, and a node
that stops fitting never fits again within the call.  Both keys come
from one set-up
(:meth:`RStormScheduler._distance_kernels`) and perform, per node, the
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
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(
                    f"distance weight {name!r} must be finite and >= 0, "
                    f"got {value}"
                )


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
    """

    name = "r-storm"

    def __init__(
        self,
        weights: DistanceWeights = DistanceWeights(),
        ordering: TaskOrderingStrategy = TaskOrderingStrategy.BFS,
        normalise_gaps: bool = True,
        use_network_distance: bool = True,
        prefer_no_overcommit: bool = True,
    ):
        self.weights = weights
        self.ordering = ordering
        self.normalise_gaps = normalise_gaps
        self.use_network_distance = use_network_distance
        self.prefer_no_overcommit = prefer_no_overcommit
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
        state = GlobalState.from_assignments(cluster, topo_by_id, existing or {})
        result: Dict[str, Assignment] = {}
        try:
            for topology in topologies:
                self._schedule_topology(topology, cluster, state)
                result[topology.topology_id] = state.assignment_for(
                    topology.topology_id
                )
        except Exception:
            # All or nothing (paper Section 4.1): no reservation of a
            # placement survives, the earlier topologies' included.
            state.rollback(topology.topology_id)
            raise
        return result

    # -- per-topology scheduling ----------------------------------------------

    def _schedule_topology(
        self, topology: Topology, cluster: Cluster, state: GlobalState
    ) -> None:
        if state.is_complete(topology):
            return
        pending = [
            task
            for task in ordered_tasks(topology, self.ordering)
            if not state.is_placed(task)
        ]
        if not pending:
            return
        ref_node = self._initial_ref_node(topology, cluster, state)
        self._place_pending(topology, state, pending, ref_node)

    def _place_pending(
        self,
        topology: Topology,
        state: GlobalState,
        pending: List[Task],
        ref_node: Optional[Node],
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
        topology_id = topology.topology_id
        # Candidate tiers in preference order, as the dimensions a node
        # must cover: uncommitted (every dimension), then hard-feasible
        # (the paper's H_theta > H_tau guard).
        tiers = (
            (tuple(range(view.num_dims)), view.hard_dims)
            if self.prefer_no_overcommit
            else (view.hard_dims,)
        )

        # (demand values, tier dims) -> [min-heap of (distance, node_id,
        # i, version), rings joined]; an entry is current iff its version
        # is version[i], and the current entries are exactly the nodes of
        # the joined rings fitting the tier.
        version = [0] * len(nodes)
        heaps: Dict[Tuple[Tuple[float, ...], Tuple[int, ...]], list] = {}
        keys = None
        for task in pending:
            if keys is None and ref_node is not None:
                keys, key = self._distance_kernels(view, ref_node)
                net_row = view.dist_row(ref_node.node_id)
                rings = (
                    view.rings(ref_node.node_id) if self.use_network_distance
                    else [(0.0, list(range(len(nodes))))]
                )
                bounds = [math.sqrt(self.weights.network * d) for d, _ in rings]
                last = len(rings)
            demand = demand_of[task.component]
            dvals = demand.values
            best_i: Optional[int] = None
            for dims in tiers:
                if keys is None:
                    # Fresh topology: one scan, anchored on the ref node.
                    pool = self._fitting(view, dvals, dims)
                    if pool:
                        best_i = self._find_ref_index(view, pool)
                        break
                    continue
                entry = heaps.get((dvals, dims))
                if entry is None:
                    entry = heaps[(dvals, dims)] = [[], 0]
                heap = entry[0]
                # No key in a ring is below its bound, so the next ring
                # joins unless the current minimum is strictly below it.
                while True:
                    while heap and heap[0][3] != version[heap[0][2]]:
                        heappop(heap)
                    joined = entry[1]
                    if joined == last or (
                        heap and heap[0][0] < bounds[joined]
                    ):
                        break
                    pool = self._fitting(view, dvals, dims, rings[joined][1])
                    heap += [
                        (k, node_ids[i], i, version[i])
                        for k, i in zip(keys(pool, dvals), pool)
                    ]
                    heapify(heap)
                    entry[1] = joined + 1
                if heap:
                    best_i = heap[0][2]
                    break
            if best_i is None:
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
            if ref_node is None:
                ref_node = node
                continue  # no heap exists before the anchor
            # Re-key the placed node alone, in every heap that holds its
            # ring and that it still fits.
            version[best_i] = stamp = version[best_i] + 1
            left = [column[best_i] for column in avail]
            for (key_vals, dims), (heap, joined) in heaps.items():
                if joined < last and net_row[best_i] >= rings[joined][0]:
                    continue
                for d in dims:
                    if left[d] < key_vals[d]:
                        break
                else:
                    heappush(
                        heap,
                        (key(best_i, key_vals), node_ids[best_i],
                         best_i, stamp),
                    )

    def _initial_ref_node(
        self, topology: Topology, cluster: Cluster, state: GlobalState
    ) -> Optional[Node]:
        """Resume anchoring for partially-scheduled topologies: the node
        already hosting the most of this topology's tasks.  Fresh
        topologies anchor lazily via :meth:`_find_ref_index` once the
        first task's feasible set is known."""
        counts = state.node_loads(topology.topology_id)
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

    def _distance_kernels(
        self, view: PackedClusterState, ref_node: Node
    ) -> Tuple[
        Callable[[List[int], Tuple[float, ...]], List[float]],
        Callable[[int, Tuple[float, ...]], float],
    ]:
        """The Distance procedure of Algorithm 4 over the packed view for
        a fixed ref node, as ``(keys, key)``.

        ``keys(pool, dvals)`` keys a whole candidate pool one dimension
        at a time, for a heap build; ``key(i, dvals)`` keys one node, for
        the re-key after a placement, where a column pass over a pool of
        one costs several times as much (``docs/performance.md``).  For
        each node both start at ``0.0``, add ``w * gap * gap`` per
        dimension in schema order, then the network term, then take
        ``sqrt``: the float operations of :meth:`distance` in the same
        order, so all three agree bit for bit."""
        avail = view.avail
        caps = view.caps
        net_row = view.dist_row(ref_node.node_id)
        dim_weights = self._dim_weights(view.schema)
        w_net = self.weights.network
        use_net = self.use_network_distance
        normalise = self.normalise_gaps
        sqrt = math.sqrt

        def keys(pool: List[int], dvals: Tuple[float, ...]) -> List[float]:
            totals = [0.0] * len(pool)
            for d, w in dim_weights:
                row = avail[d]
                need = dvals[d]
                if normalise:
                    cap = caps[d]
                    gaps = [
                        (row[i] - need) / cap[i] if cap[i] > 0 else 0.0
                        for i in pool
                    ]
                else:
                    gaps = [row[i] - need for i in pool]
                totals = [t + w * g * g for t, g in zip(totals, gaps)]
            if use_net:
                totals = [t + w_net * net_row[i] for t, i in zip(totals, pool)]
            return [sqrt(t if t > 0.0 else 0.0) for t in totals]

        def key(i: int, dvals: Tuple[float, ...]) -> float:
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

        return keys, key

    @staticmethod
    def _fitting(
        view: PackedClusterState,
        dvals: Tuple[float, ...],
        dims: Tuple[int, ...],
        pool: Optional[List[int]] = None,
    ) -> List[int]:
        """Indices of ``pool`` (default: every alive node) whose
        availability covers ``dvals`` on every dimension of ``dims``, in
        pool order: the tier filter, one comprehension per dimension.
        ``not a < need`` keeps the comparison the per-node test made."""
        if pool is None:
            pool = list(range(len(view.nodes)))
        avail = view.avail
        for d in dims:
            row = avail[d]
            need = dvals[d]
            pool = [i for i in pool if not row[i] < need]
        return pool

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
        The racks are walked in rank order, and the first one holding a
        pool node supplies the anchor.
        """
        scores = view.scores
        node_ids = view.node_ids
        racks = sorted(
            view.rack_rows,
            key=lambda row: (-sum(scores[i] for i in row[1]), row[0]),
        )
        in_pool = set(pool)
        for _, row in racks:
            members = [i for i in row if i in in_pool]
            if members:
                return min(members, key=lambda i: (-scores[i], node_ids[i]))
        raise AssertionError("every alive node belongs to a rack")

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

        The scheduling hot path keys its node heaps with the two kernels
        of :meth:`_distance_kernels`, which perform these operations per
        node in the same order over the packed arrays.  This method
        remains the executable specification, and all three are held
        bit-identical by ``tests/scheduler/test_distance_key.py``.

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
