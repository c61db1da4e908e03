"""Nimbus rounds reuse unchanged assignments yet stay stateless.

A round hands an untouched topology's ``Assignment`` back as the same
object.  That must be an optimisation only: a twin Nimbus whose stored
assignments are swapped for value-equal copies before every round must
reach the same assignments and the same node availability, bit for bit.
"""

import pytest

from repro.cluster import uniform_cluster
from repro.cluster.resources import ResourceVector
from repro.errors import SchedulingError
from repro.nimbus.nimbus import Nimbus
from repro.scheduler.assignment import Assignment
from repro.scheduler.rstorm import RStormScheduler
from tests.conftest import make_linear

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402

from tests.deep_search import search_settings  # noqa: E402

#: 3 racks x 3 nodes; each holds two of the 14 tasks by memory, so three
#: dead nodes leave too little room and the round fails.
RACKS = 3
NODES_PER_RACK = 3


def _nimbus() -> Nimbus:
    cluster = uniform_cluster(
        nodes_per_rack=NODES_PER_RACK,
        racks=RACKS,
        capacity=ResourceVector.of(memory_mb=512, cpu=100, bandwidth_mbps=100),
    )
    nimbus = Nimbus(cluster, scheduler=RStormScheduler())
    nimbus.submit_topology(make_linear("a", parallelism=2, stages=3))
    nimbus.submit_topology(make_linear("b", parallelism=3, stages=2))
    nimbus.submit_topology(make_linear("c", parallelism=1, stages=2))
    return nimbus


def _round(nimbus: Nimbus):
    """The round's outcome: its assignments, or the error it raised."""
    try:
        return nimbus.schedule_round().assignments
    except SchedulingError as err:
        return str(err)


def _availability(nimbus: Nimbus):
    return {
        node.node_id: [value.hex() for value in node.available.values]
        for node in nimbus.cluster.nodes
    }


#: per round, (node index, alive after the change) pairs
_changes = st.lists(
    st.tuples(
        st.integers(0, RACKS * NODES_PER_RACK - 1), st.booleans()
    ),
    max_size=3,
)


class TestTwinNimbus:
    @search_settings(40, derandomize=True)
    @given(rounds=st.lists(_changes, min_size=1, max_size=8))
    def test_reuse_matches_value_equal_copies(self, rounds):
        nimbus, twin = _nimbus(), _nimbus()
        assert _round(nimbus) == _round(twin)
        for changes in rounds:
            for side in (nimbus, twin):
                nodes = side.cluster.nodes
                for index, alive in changes:
                    if alive:
                        nodes[index].recover()
                    else:
                        nodes[index].fail()
            twin.assignments = {
                topo_id: Assignment(topo_id, assignment.as_dict())
                for topo_id, assignment in twin.assignments.items()
            }
            assert _round(nimbus) == _round(twin)
            assert nimbus.assignments == twin.assignments
            assert _availability(nimbus) == _availability(twin)


class TestReuseAcrossRounds:
    def test_untouched_topology_keeps_its_object(self):
        nimbus = _nimbus()
        nimbus.schedule_round()
        before = dict(nimbus.assignments)
        # a node that hosts "a" but neither "b" nor "c"
        others = set(before["b"].nodes) | set(before["c"].nodes)
        victim = next(n for n in before["a"].nodes if n not in others)
        nimbus.cluster.node(victim).fail()
        round_info = nimbus.schedule_round()
        assert nimbus.assignments["a"] is not before["a"]
        assert victim not in nimbus.assignments["a"].nodes
        assert nimbus.assignments["b"] is before["b"]
        assert nimbus.assignments["c"] is before["c"]
        assert round_info.newly_scheduled["b"] == 0
        assert round_info.newly_scheduled["a"] == len(
            before["a"].tasks_on_node(victim)
        )

    def test_quiet_round_returns_every_object(self):
        nimbus = _nimbus()
        nimbus.schedule_round()
        before = dict(nimbus.assignments)
        round_info = nimbus.schedule_round()
        assert all(
            nimbus.assignments[topo_id] is assignment
            for topo_id, assignment in before.items()
        )
        assert set(round_info.newly_scheduled.values()) == {0}
