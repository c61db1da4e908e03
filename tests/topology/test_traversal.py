"""Tests for BFS/DFS/topological component orderings (Algorithm 2)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import TopologyValidationError
from repro.topology.builder import TopologyBuilder
from repro.topology.traversal import (
    bfs_component_order,
    dfs_component_order,
    kahn_component_order,
    topological_component_order,
)


def linear(stages=4):
    builder = TopologyBuilder("linear")
    builder.set_spout("c0", 1)
    for i in range(1, stages):
        builder.set_bolt(f"c{i}", 1).shuffle_grouping(f"c{i - 1}")
    return builder.build()


def diamond():
    builder = TopologyBuilder("diamond")
    builder.set_spout("spout", 1)
    builder.set_bolt("mid-a", 1).shuffle_grouping("spout")
    builder.set_bolt("mid-b", 1).shuffle_grouping("spout")
    sink = builder.set_bolt("sink", 1)
    sink.shuffle_grouping("mid-a").shuffle_grouping("mid-b")
    return builder.build()


@st.composite
def random_dag_topology(draw):
    """A random layered DAG with 1 spout layer and up to 4 bolt layers."""
    num_layers = draw(st.integers(min_value=1, max_value=4))
    layers = [["spout-0", "spout-1"]]
    builder = TopologyBuilder("random")
    builder.set_spout("spout-0", 1)
    builder.set_spout("spout-1", 1)
    for layer_idx in range(num_layers):
        width = draw(st.integers(min_value=1, max_value=3))
        layer = []
        for i in range(width):
            name = f"bolt-{layer_idx}-{i}"
            bolt = builder.set_bolt(name, 1)
            sources = draw(
                st.lists(
                    st.sampled_from(layers[-1]),
                    min_size=1,
                    max_size=len(layers[-1]),
                    unique=True,
                )
            )
            for source in sources:
                bolt.shuffle_grouping(source)
            layer.append(name)
        layers.append(layer)
    return builder.build()


class TestBFS:
    def test_linear_order(self):
        assert bfs_component_order(linear()) == ["c0", "c1", "c2", "c3"]

    def test_diamond_visits_level_by_level(self):
        order = bfs_component_order(diamond())
        assert order[0] == "spout"
        assert set(order[1:3]) == {"mid-a", "mid-b"}
        assert order[3] == "sink"

    def test_starts_from_spouts_by_default(self):
        order = bfs_component_order(diamond())
        assert order[0] == "spout"

    def test_explicit_roots(self):
        order = bfs_component_order(linear(), roots=["c2"])
        assert order[0] == "c2"
        # undirected traversal reaches everything from an interior root
        assert set(order) == {"c0", "c1", "c2", "c3"}

    def test_unknown_root_rejected(self):
        with pytest.raises(TopologyValidationError):
            bfs_component_order(linear(), roots=["ghost"])

    def test_empty_roots_rejected(self):
        with pytest.raises(TopologyValidationError):
            bfs_component_order(linear(), roots=[])

    def test_handles_cycles(self):
        builder = TopologyBuilder("cyclic")
        builder.set_spout("s", 1)
        builder.set_bolt("a", 1).shuffle_grouping("s").shuffle_grouping("b")
        builder.set_bolt("b", 1).shuffle_grouping("a")
        order = bfs_component_order(builder.build())
        assert sorted(order) == ["a", "b", "s"]

    @settings(max_examples=40, deadline=None)
    @given(random_dag_topology())
    def test_every_component_exactly_once(self, topology):
        order = bfs_component_order(topology)
        assert sorted(order) == sorted(topology.components)

    @settings(max_examples=40, deadline=None)
    @given(random_dag_topology())
    def test_adjacent_components_gap_bounded_by_bfs_level(self, topology):
        """In BFS order, a consumer appears after at least one of its
        producers (levels are visited in order)."""
        order = bfs_component_order(topology)
        position = {name: i for i, name in enumerate(order)}
        for source, target, _ in topology.edges():
            assert position[target] > min(
                position[source],
                min(position[u] for u in topology.upstream_of(target)),
            ) - 1


class TestDFS:
    def test_every_component_exactly_once(self):
        order = dfs_component_order(diamond())
        assert sorted(order) == sorted(diamond().components)

    def test_dfs_goes_deep_first(self):
        order = dfs_component_order(diamond())
        # after spout, DFS follows one branch down to the sink before the
        # other branch
        assert order[:3] == ["spout", "mid-a", "sink"]

    def test_explicit_roots(self):
        order = dfs_component_order(linear(), roots=["c3"])
        assert order == ["c3", "c2", "c1", "c0"]

    def test_empty_roots_rejected(self):
        with pytest.raises(TopologyValidationError):
            dfs_component_order(linear(), roots=[])


class TestTopological:
    def test_respects_edge_direction(self):
        order = topological_component_order(diamond())
        position = {name: i for i, name in enumerate(order)}
        for source, target, _ in diamond().edges():
            assert position[source] < position[target]

    def test_cyclic_falls_back_to_bfs(self):
        builder = TopologyBuilder("cyclic")
        builder.set_spout("s", 1)
        builder.set_bolt("a", 1).shuffle_grouping("s").shuffle_grouping("b")
        builder.set_bolt("b", 1).shuffle_grouping("a")
        topology = builder.build()
        assert topological_component_order(topology) == bfs_component_order(
            topology
        )

    def test_kahn_leaves_out_cycle_and_what_it_feeds(self):
        builder = TopologyBuilder("cyclic")
        builder.set_spout("s", 1)
        builder.set_bolt("a", 1).shuffle_grouping("s").shuffle_grouping("b")
        builder.set_bolt("b", 1).shuffle_grouping("a")
        builder.set_bolt("c", 1).shuffle_grouping("b")
        builder.set_bolt("d", 1).shuffle_grouping("s")
        assert kahn_component_order(builder.build()) == ["s", "d"]

    @settings(max_examples=40, deadline=None)
    @given(random_dag_topology())
    def test_every_component_exactly_once(self, topology):
        order = topological_component_order(topology)
        assert sorted(order) == sorted(topology.components)
