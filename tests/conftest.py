"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.cluster import ResourceVector, emulab_testbed, single_rack_cluster
from repro.topology import ExecutionProfile, TopologyBuilder

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
