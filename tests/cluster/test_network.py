"""Tests for the network topography model."""

import pytest

from repro.cluster.network import (
    DEFAULT_PROFILES,
    DistanceLevel,
    LinkProfile,
    NetworkTopography,
)


class TestDistanceLevel:
    def test_ordering_fastest_to_slowest(self):
        assert (
            DistanceLevel.INTRA_PROCESS
            < DistanceLevel.INTER_PROCESS
            < DistanceLevel.INTER_NODE
            < DistanceLevel.INTER_RACK
        )


class TestLinkProfileValidation:
    @pytest.mark.parametrize(
        "latency_ms", [-0.5, -1e-12, float("nan"), float("inf")]
    )
    def test_bad_latency_rejected(self, latency_ms):
        with pytest.raises(ValueError, match="latency_ms"):
            LinkProfile(distance=1.0, latency_ms=latency_ms)

    @pytest.mark.parametrize(
        "distance", [-1.0, -1e-12, float("nan"), float("inf")]
    )
    def test_bad_distance_rejected(self, distance):
        with pytest.raises(ValueError, match="distance"):
            LinkProfile(distance=distance, latency_ms=0.5)

    @pytest.mark.parametrize(
        "bandwidth_mbps", [0.0, -100.0, float("nan"), float("inf")]
    )
    def test_bad_bandwidth_rejected(self, bandwidth_mbps):
        with pytest.raises(ValueError, match="bandwidth_mbps"):
            LinkProfile(
                distance=1.0, latency_ms=0.5, bandwidth_mbps=bandwidth_mbps
            )

    def test_valid_profiles_accepted(self):
        assert LinkProfile(distance=0.0, latency_ms=0.0).bandwidth_mbps is None
        profile = LinkProfile(distance=1.0, latency_ms=0.5, bandwidth_mbps=1e-3)
        assert profile.bandwidth_mbps == 1e-3
        for profile in DEFAULT_PROFILES.values():
            assert LinkProfile(
                profile.distance, profile.latency_ms, profile.bandwidth_mbps
            ) == profile


class TestLevelClassification:
    def test_different_racks(self):
        level = NetworkTopography.level_between("r1", "n1", "s1", "r2", "n1", "s1")
        assert level is DistanceLevel.INTER_RACK

    def test_same_rack_different_nodes(self):
        level = NetworkTopography.level_between("r1", "n1", "s1", "r1", "n2", "s1")
        assert level is DistanceLevel.INTER_NODE

    def test_same_node_different_slots(self):
        level = NetworkTopography.level_between("r1", "n1", "s1", "r1", "n1", "s2")
        assert level is DistanceLevel.INTER_PROCESS

    def test_same_slot(self):
        level = NetworkTopography.level_between("r1", "n1", "s1", "r1", "n1", "s1")
        assert level is DistanceLevel.INTRA_PROCESS


class TestTopography:
    def test_default_distances_monotone(self):
        topo = NetworkTopography()
        distances = [topo.distance(level) for level in DistanceLevel]
        assert distances == sorted(distances)

    def test_default_latencies_monotone(self):
        topo = NetworkTopography()
        latencies = [topo.latency_ms(level) for level in DistanceLevel]
        assert latencies == sorted(latencies)

    def test_intra_process_is_free(self):
        topo = NetworkTopography()
        assert topo.distance(DistanceLevel.INTRA_PROCESS) == 0.0
        assert topo.latency_ms(DistanceLevel.INTRA_PROCESS) == 0.0
        assert topo.bandwidth_mbps(DistanceLevel.INTRA_PROCESS) is None

    def test_missing_profile_rejected(self):
        profiles = dict(DEFAULT_PROFILES)
        del profiles[DistanceLevel.INTER_RACK]
        with pytest.raises(ValueError):
            NetworkTopography(profiles)

    def test_decreasing_distance_rejected(self):
        profiles = dict(DEFAULT_PROFILES)
        profiles[DistanceLevel.INTER_RACK] = LinkProfile(
            distance=0.1, latency_ms=2.0, bandwidth_mbps=100.0
        )
        with pytest.raises(ValueError):
            NetworkTopography(profiles)

    def test_node_distance_same_node(self):
        topo = NetworkTopography()
        assert topo.node_distance("r1", "n1", "r1", "n1") == 0.0

    def test_node_distance_same_rack(self):
        topo = NetworkTopography()
        assert topo.node_distance("r1", "n1", "r1", "n2") == topo.distance(
            DistanceLevel.INTER_NODE
        )

    def test_node_distance_cross_rack(self):
        topo = NetworkTopography()
        assert topo.node_distance("r1", "n1", "r2", "n2") == topo.distance(
            DistanceLevel.INTER_RACK
        )
