"""Validation and description of the typed fault events."""

import dataclasses

import pytest

from repro.errors import ConfigError
from repro.faults import (
    EVENT_KINDS,
    HeartbeatSilence,
    LinkDegradation,
    MessageLoss,
    NodeCrash,
    NodeSlowdown,
    RackPartition,
)


NAN = float("nan")
INF = float("inf")


class TestValidation:
    def test_negative_time_rejected(self):
        with pytest.raises(ConfigError):
            NodeCrash(at=-1.0, node_id="node-0-0")

    def test_crash_needs_node_id(self):
        with pytest.raises(ConfigError):
            NodeCrash(at=10.0)

    def test_rejoin_must_follow_crash(self):
        with pytest.raises(ConfigError):
            NodeCrash(at=10.0, node_id="node-0-0", rejoin_at=10.0)
        with pytest.raises(ConfigError):
            NodeCrash(at=10.0, node_id="node-0-0", rejoin_at=5.0)

    def test_slowdown_factor_must_exceed_one(self):
        for factor in (1.0, 0.5, -2.0):
            with pytest.raises(ConfigError):
                NodeSlowdown(at=10.0, node_id="node-0-0", factor=factor)

    def test_slowdown_until_must_follow_start(self):
        with pytest.raises(ConfigError):
            NodeSlowdown(at=10.0, node_id="node-0-0", factor=2.0, until=9.0)

    def test_link_degradation_racks_must_differ(self):
        with pytest.raises(ConfigError):
            LinkDegradation(at=10.0, rack_a="rack-0", rack_b="rack-0")

    def test_link_degradation_factor_must_exceed_one(self):
        with pytest.raises(ConfigError):
            LinkDegradation(
                at=10.0, rack_a="rack-0", rack_b="rack-1", factor=1.0
            )

    def test_partition_heal_must_follow_start(self):
        with pytest.raises(ConfigError):
            RackPartition(at=10.0, rack_id="rack-0", heal_at=8.0)

    def test_silence_until_must_follow_start(self):
        with pytest.raises(ConfigError):
            HeartbeatSilence(at=10.0, node_id="node-0-0", until=10.0)

    @pytest.mark.parametrize("at", [NAN, INF, -INF])
    def test_non_finite_time_rejected(self, at):
        with pytest.raises(ConfigError):
            NodeCrash(at=at, node_id="node-0-0")

    @pytest.mark.parametrize("factor", [NAN, INF])
    def test_non_finite_factor_rejected(self, factor):
        with pytest.raises(ConfigError):
            NodeSlowdown(at=10.0, node_id="node-0-0", factor=factor)
        with pytest.raises(ConfigError):
            LinkDegradation(
                at=10.0, rack_a="rack-0", rack_b="rack-1", factor=factor
            )

    def test_nan_end_time_rejected(self):
        with pytest.raises(ConfigError):
            NodeCrash(at=10.0, node_id="node-0-0", rejoin_at=NAN)
        with pytest.raises(ConfigError):
            NodeSlowdown(at=10.0, node_id="node-0-0", until=NAN)
        with pytest.raises(ConfigError):
            LinkDegradation(
                at=10.0, rack_a="rack-0", rack_b="rack-1", until=NAN
            )
        with pytest.raises(ConfigError):
            RackPartition(at=10.0, rack_id="rack-0", heal_at=NAN)
        with pytest.raises(ConfigError):
            HeartbeatSilence(at=10.0, node_id="node-0-0", until=NAN)
        with pytest.raises(ConfigError):
            MessageLoss(at=10.0, rack_a="rack-0", rack_b="rack-1", until=NAN)


class TestShape:
    def test_events_are_immutable(self):
        event = NodeCrash(at=10.0, node_id="node-0-0")
        with pytest.raises(dataclasses.FrozenInstanceError):
            event.at = 20.0

    def test_kinds_are_unique_and_registered(self):
        kinds = [kind for kind, _ in EVENT_KINDS]
        assert len(kinds) == len(set(kinds)) == 6

    def test_describe_names_the_target(self):
        assert "node-0-3" in NodeCrash(at=1.0, node_id="node-0-3").describe()
        assert "rack-1" in RackPartition(at=1.0, rack_id="rack-1").describe()
        described = LinkDegradation(
            at=1.0, rack_a="rack-0", rack_b="rack-1", factor=4.0, until=9.0
        ).describe()
        assert "rack-0" in described and "rack-1" in described

    def test_describe_mentions_healing(self):
        described = NodeCrash(at=1.0, node_id="n", rejoin_at=9.0).describe()
        assert "rejoins at 9s" in described

    def test_equal_events_compare_equal(self):
        a = NodeCrash(at=10.0, node_id="node-0-0", rejoin_at=20.0)
        b = NodeCrash(at=10.0, node_id="node-0-0", rejoin_at=20.0)
        assert a == b
        assert hash(a) == hash(b)
