"""Tests for storm.yaml parsing and typed config access."""

import pytest

from repro.errors import ConfigError
from repro.nimbus.config import StormConfig, parse_storm_yaml
from repro.scheduler import (
    AnielloOfflineScheduler,
    DefaultScheduler,
    RStormScheduler,
)


class TestParser:
    def test_paper_example(self):
        # straight from Section 5.2
        values = parse_storm_yaml(
            "supervisor.memory.capacity.mb: 20480.0\n"
            "supervisor.cpu.capacity: 100.0\n"
        )
        assert values["supervisor.memory.capacity.mb"] == 20480.0
        assert values["supervisor.cpu.capacity"] == 100.0

    def test_scalar_types(self):
        values = parse_storm_yaml(
            "a: 1\nb: 1.5\nc: true\nd: false\ne: null\nf: hello\n"
            'g: "quoted string"\n'
        )
        assert values == {
            "a": 1,
            "b": 1.5,
            "c": True,
            "d": False,
            "e": None,
            "f": "hello",
            "g": "quoted string",
        }

    def test_inline_lists(self):
        values = parse_storm_yaml("supervisor.slots.ports: [6700, 6701]\n")
        assert values["supervisor.slots.ports"] == [6700, 6701]

    def test_empty_list(self):
        assert parse_storm_yaml("ports: []")["ports"] == []

    def test_comments_and_blank_lines(self):
        values = parse_storm_yaml(
            "# a comment\n\nkey: 1  # trailing comment\n"
        )
        assert values == {"key": 1}

    def test_nested_yaml_rejected(self):
        with pytest.raises(ConfigError):
            parse_storm_yaml("outer:\n  inner: 1\n")

    def test_missing_colon_rejected(self):
        with pytest.raises(ConfigError):
            parse_storm_yaml("not a key value line\n")

    def test_empty_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_storm_yaml(": 5\n")


class TestTypedAccess:
    def test_defaults(self):
        config = StormConfig()
        assert config.supervisor_cpu == 400.0
        assert config.scheduling_interval_s == 10.0  # the paper's period
        assert config.max_spout_pending == 10
        assert config.topology_workers is None

    def test_from_yaml_overrides(self):
        config = StormConfig.from_yaml("supervisor.cpu.capacity: 800.0\n")
        assert config.supervisor_cpu == 800.0

    def test_with_overrides(self):
        config = StormConfig().with_overrides(supervisor_cpu_capacity=200.0)
        assert config.supervisor_cpu == 200.0

    def test_unknown_key_raises(self):
        with pytest.raises(ConfigError):
            StormConfig()["no.such.key"]

    def test_unknown_nimbus_key_rejected_at_construction(self):
        with pytest.raises(ConfigError, match="nimbus.elastic.enabeld"):
            StormConfig({"nimbus.elastic.enabeld": True})
        with pytest.raises(ConfigError, match="nimbus.flow.enabled"):
            StormConfig().with_overrides(nimbus_flow_enabled=True)

    def test_other_unknown_keys_accepted(self):
        # a real storm.yaml carries many keys this reproduction ignores
        config = StormConfig({"worker.childopts": "-Xmx768m"})
        assert config["worker.childopts"] == "-Xmx768m"

    def test_get_with_default(self):
        assert StormConfig().get("no.such.key", 42) == 42

    def test_invalid_numbers_rejected(self):
        with pytest.raises(ConfigError):
            StormConfig({"supervisor.cpu.capacity": -5}).supervisor_cpu
        with pytest.raises(ConfigError):
            StormConfig({"supervisor.cpu.capacity": "many"}).supervisor_cpu

    def test_invalid_ports_rejected(self):
        with pytest.raises(ConfigError):
            StormConfig({"supervisor.slots.ports": []}).supervisor_ports
        with pytest.raises(ConfigError):
            StormConfig({"supervisor.slots.ports": ["x"]}).supervisor_ports

    def test_invalid_workers_rejected(self):
        with pytest.raises(ConfigError):
            StormConfig({"topology.workers": 0}).topology_workers

    def test_contains(self):
        assert "storm.scheduler" in StormConfig()


class TestSchedulerFactory:
    @pytest.mark.parametrize(
        "name,cls",
        [
            ("default", DefaultScheduler),
            ("even", DefaultScheduler),
            ("r-storm", RStormScheduler),
            ("rstorm", RStormScheduler),
            ("resource-aware", RStormScheduler),
            ("aniello", AnielloOfflineScheduler),
        ],
    )
    def test_known_names(self, name, cls):
        config = StormConfig({"storm.scheduler": name})
        assert isinstance(config.make_scheduler(), cls)

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigError):
            StormConfig({"storm.scheduler": "magic"}).make_scheduler()

    def test_workers_forwarded_to_default(self):
        config = StormConfig(
            {"storm.scheduler": "default", "topology.workers": 3}
        )
        assert config.make_scheduler().workers_per_topology == 3
