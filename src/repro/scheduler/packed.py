"""Packed, flat-array view of cluster resource state.

R-Storm's node selection (the paper's Algorithm 4) compares the
availability of every candidate node dimension by dimension: it filters
the alive nodes until a fresh topology's ref node is fixed, then keys
lazy per-demand distance heaps from the same values, re-keying one node
per placement.  Walking ``Node``/``ResourceVector`` objects there pays
an allocation and several attribute/dict lookups per candidate per
dimension.  A :class:`PackedClusterState` stores the same information
once per scheduling round as plain Python lists, one *column* per
dimension, so the scheduler can run one comprehension over a whole
column instead of one call per node:

* ``avail[d][i]`` / ``caps[d][i]`` — availability and capacity of
  dimension ``d`` on the ``i``-th alive node, in ``cluster.alive_nodes``
  order, transposed from the nodes' value tuples.  Every round builds
  the view, so it reads each alive node with one call
  (:meth:`Node.resource_values <repro.cluster.node.Node.resource_values>`)
  and checks the schema in C while all nodes share one schema object:
  at 512 nodes this is the largest fixed cost of a failover round
  (``docs/performance.md``, "Failover round anatomy").  Availability rows
  are refreshed **in place** whenever a placement reserves or releases
  resources (see
  :meth:`GlobalState.place <repro.scheduler.global_state.GlobalState.place>`),
  by copying the node's authoritative vector — so the packed floats are
  always bit-identical to ``node.available`` and optimised schedulers
  produce byte-identical assignments.
* per-node availability *scores* and the cluster-wide capacity *scale*
  used by R-Storm's ref-node selection (Algorithm 4 lines 6-9), computed
  once and invalidated incrementally on placement instead of being
  recomputed from scratch for every call.
* memoised network-distance rows per ref node (the ``Distance``
  procedure's network term), one flat list per anchor, built by the
  topography in one pass over the nodes' rack and id columns, and next
  to each row its *rings*: the node indices grouped by distance,
  nearest first, which R-Storm's distance heaps join one at a time.

The view is a snapshot of the *alive set*: it must only live inside one
scheduler invocation (Nimbus is stateless across rounds, so every round
builds a fresh ``GlobalState`` and with it a fresh view).  Membership or
liveness changes between rounds therefore never invalidate a live view.
"""

from __future__ import annotations

from operator import truediv
from typing import Dict, List, Optional, Tuple

from repro.cluster.cluster import Cluster
from repro.cluster.node import Node
from repro.cluster.resources import ResourceSchema, ResourceVector
from repro.errors import SchemaMismatchError

__all__ = ["PackedClusterState"]


class PackedClusterState:
    """Flat per-dimension arrays over the alive nodes of a cluster."""

    __slots__ = (
        "cluster",
        "schema",
        "nodes",
        "node_ids",
        "rack_ids",
        "index",
        "avail",
        "caps",
        "hard_dims",
        "num_dims",
        "_scale",
        "_scores",
        "_dist_rows",
        "_rings",
        "_rack_rows",
    )

    def __init__(self, cluster: Cluster):
        alive = cluster.alive_nodes
        self.cluster = cluster
        self.nodes: List[Node] = alive
        self.node_ids: List[str] = [n.node_id for n in alive]
        self.index: Dict[str, int] = dict(
            zip(self.node_ids, range(len(alive)))
        )
        # One call per node reads its schema and both value tuples; the
        # schema check runs over the capacity schemas (a node's schema is
        # its capacity's), in C while they are one shared object.
        schemas, capacities, availabilities = (
            zip(*map(Node.resource_values, alive)) if alive else ((), (), ())
        )
        schema: Optional[ResourceSchema] = schemas[0] if alive else None
        if schemas.count(schema) != len(schemas):
            node_schema = next(s for s in schemas if s != schema)
            raise SchemaMismatchError(
                f"cannot pack cluster state over mixed schemas "
                f"{schema!r} and {node_schema!r}"
            )
        self.schema = schema
        num_dims = len(schema) if schema is not None else 0
        self.num_dims = num_dims
        #: rack_ids[i]: rack of alive node i.
        self.rack_ids: List[str] = [n.rack_id for n in alive]
        #: avail[d][i]: availability of dimension d on alive node i.
        self.avail: List[List[float]] = [
            list(column) for column in zip(*availabilities)
        ]
        #: caps[d][i]: capacity of dimension d on alive node i (immutable).
        self.caps: List[List[float]] = [
            list(column) for column in zip(*capacities)
        ]
        self.hard_dims: Tuple[int, ...] = (
            schema.hard_indices if schema is not None else ()
        )
        self._scale: Optional[List[float]] = None
        self._scores: Optional[List[float]] = None
        self._dist_rows: Dict[str, List[float]] = {}
        self._rings: Dict[str, List[Tuple[float, List[int]]]] = {}
        self._rack_rows: Optional[List[Tuple[str, List[int]]]] = None

    # -- schema guards -----------------------------------------------------

    def check_schema(self, vector: ResourceVector) -> None:
        """Raise :class:`~repro.errors.SchemaMismatchError` unless
        ``vector`` lives in this view's schema (mirrors the check every
        ``ResourceVector`` operation performs on the slow path)."""
        schema = self.schema
        if schema is None:
            return
        if vector.schema is not schema and vector.schema != schema:
            raise SchemaMismatchError(
                f"cannot combine vectors from schemas {vector.schema!r} "
                f"and {schema!r}"
            )

    # -- in-place refresh --------------------------------------------------

    def refresh_node(self, node: Node) -> None:
        """Re-read one node's availability row after a reservation or
        release.  Copies the node's authoritative float values, so the
        packed state can never drift from ``node.available``."""
        i = self.index.get(node.node_id)
        if i is None:
            return
        values = node.available.values
        avail = self.avail
        for d in range(self.num_dims):
            avail[d][i] = values[d]
        if self._scores is not None:
            self._scores[i] = sum(map(truediv, values, self.scale))

    # -- ref-node scoring (Algorithm 4, lines 6-9) -------------------------

    @property
    def scale(self) -> List[float]:
        """Per-dimension cluster-wide maximum capacity (``or 1.0``) — the
        normaliser of the ref-node availability score.  Capacities are
        immutable, so this is computed once per view."""
        if self._scale is None:
            # num_dims > 0 implies at least one alive node, so every
            # caps[d] row is non-empty here.
            self._scale = [
                max(self.caps[d]) or 1.0 for d in range(self.num_dims)
            ]
        return self._scale

    @property
    def scores(self) -> List[float]:
        """Scale-normalised availability score per alive node, kept
        current incrementally by :meth:`refresh_node`.

        A node's score is ``sum()`` over its dimensions in schema order,
        built here a column at a time: ``sum`` is compensated from
        Python 3.12, so a hand-written ``+=`` loop would round
        differently."""
        if self._scores is None:
            columns = [
                [a / s for a in row] for row, s in zip(self.avail, self.scale)
            ]
            self._scores = list(map(sum, zip(*columns)))
        return self._scores

    @property
    def rack_rows(self) -> List[Tuple[str, List[int]]]:
        """``(rack_id, [node indices])`` in ``cluster.racks`` order, with
        each rack's indices in ``rack.alive_nodes`` order — the exact
        iteration order of the unpacked ref-node search."""
        if self._rack_rows is None:
            index = self.index
            self._rack_rows = [
                (
                    rack.rack_id,
                    [
                        index[n.node_id]
                        for n in rack.alive_nodes
                        if n.node_id in index
                    ],
                )
                for rack in self.cluster.racks
            ]
        return self._rack_rows

    # -- network distance --------------------------------------------------

    def dist_row(self, ref_node_id: str) -> List[float]:
        """Network distance from every alive node to ``ref_node_id``,
        memoised per anchor (the distance matrix is immutable within a
        scheduling round).

        Equal to ``cluster.node_distance(node_id, ref_node_id)`` per
        node, built in one pass over the rack and node-id columns by
        :meth:`NetworkTopography.node_distances
        <repro.cluster.network.NetworkTopography.node_distances>`."""
        row = self._dist_rows.get(ref_node_id)
        if row is None:
            ref = self.cluster.node(ref_node_id)
            row = self.cluster.topography.node_distances(
                ref.rack_id, ref_node_id, self.rack_ids, self.node_ids
            )
            self._dist_rows[ref_node_id] = row
        return row

    def rings(self, ref_node_id: str) -> List[Tuple[float, List[int]]]:
        """The alive node indices grouped by :meth:`dist_row` value, as
        ``(distance, indices)`` nearest first, memoised per anchor.

        The ref node's own ring (the nearest, as distances never fall
        from intra-process to inter-rack) is folded into the next one,
        which almost always joins right after it.  The merged ring keeps
        the smaller distance, so each ring's distance stays the smallest
        of its members'."""
        rings = self._rings.get(ref_node_id)
        if rings is None:
            groups: Dict[float, List[int]] = {}
            for i, d in enumerate(self.dist_row(ref_node_id)):
                groups.setdefault(d, []).append(i)
            rings = sorted(groups.items())
            if len(rings) > 1 and ref_node_id in self.index:
                (near, own), (_, next_ring) = rings[0], rings[1]
                rings[:2] = [(near, own + next_ring)]
            self._rings[ref_node_id] = rings
        return rings
