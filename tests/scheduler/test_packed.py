"""Unit tests for the packed flat-array cluster view."""

import pytest

from repro.cluster import Cluster, Node, Rack
from repro.cluster.builders import uniform_cluster
from repro.cluster.resources import (
    ConstraintKind,
    ResourceDimension,
    ResourceSchema,
)
from repro.errors import SchemaMismatchError
from repro.scheduler.global_state import GlobalState
from repro.scheduler.packed import PackedClusterState
from repro.scheduler.rstorm import RStormScheduler
from repro.workloads.generator import random_topology


def make_cluster(racks=2, nodes_per_rack=3):
    schema = ResourceSchema.storm_default()
    return uniform_cluster(
        nodes_per_rack=nodes_per_rack,
        racks=racks,
        capacity=schema.vector(
            memory_mb=2048.0, cpu=200.0, bandwidth_mbps=100.0
        ),
    )


class TestPackedClusterState:
    def test_rows_mirror_alive_nodes(self):
        cluster = make_cluster()
        view = PackedClusterState(cluster)
        alive = cluster.alive_nodes
        assert view.node_ids == [n.node_id for n in alive]
        for d in range(view.num_dims):
            for i, node in enumerate(alive):
                assert view.avail[d][i] == node.available.values[d]
                assert view.caps[d][i] == node.capacity.values[d]

    def test_excludes_dead_nodes(self):
        cluster = make_cluster()
        cluster.fail_node("node-0-1")
        view = PackedClusterState(cluster)
        assert "node-0-1" not in view.node_ids
        assert len(view.nodes) == 5

    def test_hard_dims_follow_schema(self):
        cluster = make_cluster()
        view = PackedClusterState(cluster)
        schema = ResourceSchema.storm_default()
        assert view.hard_dims == schema.hard_indices
        assert view.hard_dims == (0,)

    def test_refresh_tracks_reserve_and_release(self):
        cluster = make_cluster()
        view = PackedClusterState(cluster)
        node = cluster.node("node-1-0")
        i = view.index[node.node_id]
        schema = ResourceSchema.storm_default()
        demand = schema.vector(memory_mb=512.0, cpu=50.0)
        node.reserve("t", demand)
        view.refresh_node(node)
        assert view.avail[0][i] == node.available.values[0] == 1536.0
        node.release("t")
        view.refresh_node(node)
        assert view.avail[0][i] == 2048.0

    def test_scores_are_incrementally_consistent(self):
        cluster = make_cluster()
        view = PackedClusterState(cluster)
        baseline = list(view.scores)
        schema = ResourceSchema.storm_default()
        node = cluster.node("node-0-2")
        node.reserve("t", schema.vector(memory_mb=1024.0, cpu=100.0))
        view.refresh_node(node)
        fresh = PackedClusterState(cluster)
        assert view.scores == fresh.scores
        assert view.scores != baseline

    def test_scale_is_max_capacity_per_dimension(self):
        schema = ResourceSchema.storm_default()
        nodes = [
            Node("big", "r0", schema.vector(memory_mb=4096, cpu=100, bandwidth_mbps=10)),
            Node("small", "r0", schema.vector(memory_mb=1024, cpu=400, bandwidth_mbps=10)),
        ]
        view = PackedClusterState(Cluster([Rack("r0", nodes)]))
        assert view.scale == [4096.0, 400.0, 10.0]

    def test_rack_rows_preserve_iteration_order(self):
        cluster = make_cluster(racks=3, nodes_per_rack=2)
        view = PackedClusterState(cluster)
        assert [rack_id for rack_id, _ in view.rack_rows] == [
            r.rack_id for r in cluster.racks
        ]
        for (rack_id, row), rack in zip(view.rack_rows, cluster.racks):
            assert [view.node_ids[i] for i in row] == [
                n.node_id for n in rack.alive_nodes
            ]

    def test_dist_row_matches_cluster_distance(self):
        cluster = make_cluster()
        view = PackedClusterState(cluster)
        row = view.dist_row("node-0-0")
        assert row == [
            cluster.node_distance(nid, "node-0-0") for nid in view.node_ids
        ]
        assert view.dist_row("node-0-0") is row  # memoised

    def test_rings_fold_the_ref_node_into_its_rack(self):
        cluster = make_cluster()
        view = PackedClusterState(cluster)
        index = view.index
        rings = view.rings("node-0-1")
        assert [d for d, _ in rings] == [0.0, 4.0]
        assert sorted(rings[0][1]) == [
            index["node-0-0"], index["node-0-1"], index["node-0-2"]
        ]
        assert view.rings("node-0-1") is rings  # memoised
        row = view.dist_row("node-0-1")
        for d, members in rings:
            assert min(row[i] for i in members) == d

    def test_rings_keep_a_dead_refs_rack_ring(self):
        # A dead ref node holds no ring of its own, so nothing is folded.
        cluster = make_cluster()
        cluster.fail_node("node-0-1")
        view = PackedClusterState(cluster)
        assert [d for d, _ in view.rings("node-0-1")] == [1.0, 4.0]

    def test_mixed_schemas_rejected(self):
        storm = ResourceSchema.storm_default()
        other = ResourceSchema(
            [ResourceDimension("memory_mb", ConstraintKind.HARD, "MB")]
        )
        nodes = [
            Node("a", "r0", storm.vector(memory_mb=1024, cpu=100)),
            Node("b", "r0", other.vector(memory_mb=1024)),
        ]
        with pytest.raises(SchemaMismatchError):
            PackedClusterState(Cluster([Rack("r0", nodes)]))

    def test_equal_schema_objects_pack(self):
        storm = ResourceSchema.storm_default()
        twin = ResourceSchema(storm.dimensions)
        assert twin is not storm and twin == storm
        nodes = [
            Node("a", "r0", storm.vector(memory_mb=1024, cpu=100)),
            Node("b", "r0", twin.vector(memory_mb=512, cpu=50)),
        ]
        nodes[1].reserve("x:1", twin.vector(memory_mb=128.5, cpu=1.25))
        view = PackedClusterState(Cluster([Rack("r0", nodes)]))
        assert view.schema is storm
        assert view.caps == [[1024.0, 512.0], [100.0, 50.0], [0.0, 0.0]]
        assert view.avail == [[1024.0, 383.5], [100.0, 48.75], [0.0, 0.0]]

    def test_check_schema_rejects_foreign_vectors(self):
        cluster = make_cluster()
        view = PackedClusterState(cluster)
        other = ResourceSchema(
            [ResourceDimension("memory_mb", ConstraintKind.HARD, "MB")]
        )
        with pytest.raises(SchemaMismatchError):
            view.check_schema(other.vector(memory_mb=1.0))

    def test_empty_cluster_view(self):
        cluster = make_cluster(racks=1, nodes_per_rack=1)
        cluster.fail_node("node-0-0")
        view = PackedClusterState(cluster)
        assert view.nodes == []
        assert view.schema is None
        assert view.num_dims == 0
        assert view.hard_dims == ()


class TestGlobalStatePackedSync:
    def test_place_keeps_view_in_sync(self):
        cluster = make_cluster()
        topology = random_topology(4, name="sync")
        state = GlobalState(cluster)
        view = state.packed
        assert state.packed is view  # built once per state

        RStormScheduler()._schedule_topology(topology, cluster, state)
        for i, node in enumerate(view.nodes):
            assert view.avail[0][i] == node.available.values[0]
