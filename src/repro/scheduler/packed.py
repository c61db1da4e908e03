"""Packed, flat-array view of cluster resource state.

R-Storm's node selection (the paper's Algorithm 4) reads availability
per candidate node per dimension: it scans every alive node until a
fresh topology's ref node is fixed, then keys lazy per-demand distance
heaps from the same values, re-keying one node per placement.  Walking
``Node``/``ResourceVector`` objects there pays an allocation and several
attribute/dict lookups per candidate per dimension.  A
:class:`PackedClusterState` flattens the same information once per
scheduling round into plain Python lists:

* ``avail[d][i]`` / ``caps[d][i]`` — availability and capacity of
  dimension ``d`` on the ``i``-th alive node, in ``cluster.alive_nodes``
  order.  Availability rows are refreshed **in place** whenever a
  placement reserves or releases resources (see
  :meth:`GlobalState.place <repro.scheduler.global_state.GlobalState.place>`),
  by copying the node's authoritative vector — so the packed floats are
  always bit-identical to ``node.available`` and optimised schedulers
  produce byte-identical assignments.
* per-node availability *scores* and the cluster-wide capacity *scale*
  used by R-Storm's ref-node selection (Algorithm 4 lines 6-9), computed
  once and invalidated incrementally on placement instead of being
  recomputed from scratch for every call.
* memoised network-distance rows per ref node (the ``Distance``
  procedure's network term), one flat list per anchor.

The view is a snapshot of the *alive set*: it must only live inside one
scheduler invocation (Nimbus is stateless across rounds, so every round
builds a fresh ``GlobalState`` and with it a fresh view).  Membership or
liveness changes between rounds therefore never invalidate a live view.
"""

from __future__ import annotations

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
        "index",
        "avail",
        "caps",
        "hard_dims",
        "num_dims",
        "_scale",
        "_scores",
        "_dist_rows",
        "_rack_rows",
    )

    def __init__(self, cluster: Cluster):
        alive = cluster.alive_nodes
        self.cluster = cluster
        self.nodes: List[Node] = alive
        self.node_ids: List[str] = [n.node_id for n in alive]
        self.index: Dict[str, int] = {
            n.node_id: i for i, n in enumerate(alive)
        }
        schema: Optional[ResourceSchema] = (
            alive[0].schema if alive else None
        )
        if schema is not None:
            for node in alive:
                node_schema = node.schema
                if node_schema is not schema and node_schema != schema:
                    raise SchemaMismatchError(
                        f"cannot pack cluster state over mixed schemas "
                        f"{schema!r} and {node_schema!r}"
                    )
        self.schema = schema
        num_dims = len(schema) if schema is not None else 0
        self.num_dims = num_dims
        #: avail[d][i]: availability of dimension d on alive node i.
        self.avail: List[List[float]] = [
            [n.available.values[d] for n in alive] for d in range(num_dims)
        ]
        #: caps[d][i]: capacity of dimension d on alive node i (immutable).
        self.caps: List[List[float]] = [
            [n.capacity.values[d] for n in alive] for d in range(num_dims)
        ]
        self.hard_dims: Tuple[int, ...] = (
            schema.hard_indices if schema is not None else ()
        )
        self._scale: Optional[List[float]] = None
        self._scores: Optional[List[float]] = None
        self._dist_rows: Dict[str, List[float]] = {}
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
            self._scores[i] = self._score_of(i)

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

    def _score_of(self, i: int) -> float:
        scale = self.scale
        avail = self.avail
        return sum(avail[d][i] / scale[d] for d in range(self.num_dims))

    @property
    def scores(self) -> List[float]:
        """Scale-normalised availability score per alive node, kept
        current incrementally by :meth:`refresh_node`."""
        if self._scores is None:
            self._scores = [
                self._score_of(i) for i in range(len(self.nodes))
            ]
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
        scheduling round)."""
        row = self._dist_rows.get(ref_node_id)
        if row is None:
            node_distance = self.cluster.node_distance
            row = [
                node_distance(node_id, ref_node_id)
                for node_id in self.node_ids
            ]
            self._dist_rows[ref_node_id] = row
        return row
