"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.cluster import ResourceVector, emulab_testbed, single_rack_cluster
from repro.topology import ExecutionProfile, TopologyBuilder
from repro.topology.task import task_label

try:
    from hypothesis import settings

    from tests.deep_search import ORACLE_PROFILE
except ImportError:  # hypothesis suites skip themselves
    pass
else:
    # The deep search of the differential suites that use
    # tests/deep_search.py: CI selects it with
    # ``--hypothesis-profile=des-oracle`` in a step that runs only those
    # files (5x the DES suite's tier-1 example count).
    settings.register_profile(ORACLE_PROFILE, max_examples=600, deadline=None)


@pytest.fixture(autouse=True)
def _isolated_cache_dir(tmp_path, monkeypatch):
    """Keep CLI-driven cache writes out of the working tree during tests."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "repro-cache"))


@pytest.fixture
def cluster():
    """The paper's 12-node two-rack testbed."""
    return emulab_testbed()

@pytest.fixture
def big_cluster():
    """The 24-node cluster of the multi-topology experiment."""
    return emulab_testbed(nodes_per_rack=12)


@pytest.fixture
def small_cluster():
    """A 3-node single-rack cluster for focused scheduling tests."""
    return single_rack_cluster(
        3, capacity=ResourceVector.of(memory_mb=2048.0, cpu=100.0, bandwidth_mbps=100.0)
    )


def make_linear(
    name: str = "chain",
    parallelism: int = 2,
    stages: int = 3,
    memory_mb: float = 256.0,
    cpu: float = 20.0,
    profile: ExecutionProfile = None,
):
    """A linear topology: one spout followed by ``stages - 1`` bolts."""
    builder = TopologyBuilder(name)
    prof = profile or ExecutionProfile(cpu_ms_per_tuple=0.05, tuple_bytes=64)
    spout = builder.set_spout("stage-0", parallelism, profile=prof)
    spout.set_memory_load(memory_mb).set_cpu_load(cpu)
    for i in range(1, stages):
        bolt = builder.set_bolt(f"stage-{i}", parallelism, profile=prof)
        bolt.shuffle_grouping(f"stage-{i - 1}")
        bolt.set_memory_load(memory_mb).set_cpu_load(cpu)
    return builder.build()


@pytest.fixture
def linear_topology_small():
    return make_linear()


def placed_labels(nimbus):
    """Alive node id -> the task labels ``nimbus.assignments`` places on
    it."""
    placed = {node.node_id: set() for node in nimbus.cluster.nodes if node.alive}
    for assignment in nimbus.assignments.values():
        for task in assignment.tasks:
            node_id = assignment.node_of(task)
            if node_id in placed:
                placed[node_id].add(task_label(task))
    return placed


def stray_reservations(nimbus):
    """``(node id, label)`` of every reservation an alive node holds that
    ``nimbus.assignments`` does not place on it: the no-stray-reservation
    law, which holds after every round and every elastic action."""
    placed = placed_labels(nimbus)
    return sorted(
        (node_id, label)
        for node_id, labels in placed.items()
        for label in nimbus.cluster.node(node_id).reservations
        if label not in labels
    )


def watch_reservations(nimbus):
    """Assert the no-stray-reservation law after every round (raising or
    not) and every :meth:`~repro.nimbus.nimbus.Nimbus.adopt` of
    ``nimbus``, by wrapping both on the instance.  Returns the names of
    the checked calls, in order, so a test can tell the checks ran."""
    checked = []

    def watch(name):
        method = getattr(nimbus, name)

        def checked_call(*args, **kwargs):
            try:
                return method(*args, **kwargs)
            finally:
                stray = stray_reservations(nimbus)
                assert not stray, f"{name} left stray reservations {stray}"
                checked.append(name)

        setattr(nimbus, name, checked_call)

    watch("schedule_round")
    watch("adopt")
    return checked
