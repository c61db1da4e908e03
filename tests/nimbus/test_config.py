"""Tests for storm.yaml parsing, the config key table and its docs."""

import pathlib

import pytest

from repro.errors import ConfigError
from repro.nimbus.config import KEYS, StormConfig, _parse_scalar, parse_storm_yaml
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

    def test_hash_inside_quotes_is_not_a_comment(self):
        values = parse_storm_yaml('worker.childopts: "-Xmx768m -Dtag=#1"\n')
        assert values["worker.childopts"] == "-Xmx768m -Dtag=#1"

    def test_hash_inside_a_word_is_not_a_comment(self):
        values = parse_storm_yaml("storm.local.dir: storm#1\n")
        assert values["storm.local.dir"] == "storm#1"

    def test_quoted_list_item_keeps_its_comma(self):
        values = parse_storm_yaml('storm.zookeeper.servers: ["a, b", c]\n')
        assert values["storm.zookeeper.servers"] == ["a, b", "c"]


class TestTypedAccess:
    def test_defaults(self):
        config = StormConfig()
        assert config["supervisor.cpu.capacity"] == 400.0
        assert config["nimbus.scheduler.interval.secs"] == 10.0  # the paper's period
        assert config["topology.max.spout.pending"] == 10
        assert config["topology.workers"] is None

    def test_from_yaml_overrides(self):
        config = StormConfig.from_yaml("supervisor.cpu.capacity: 800.0\n")
        assert config["supervisor.cpu.capacity"] == 800.0

    def test_overrides_through_constructor(self):
        base = StormConfig({"storm.scheduler": "r-storm"})
        config = StormConfig({**base.as_dict(), "supervisor.cpu.capacity": 200})
        # numbers are stored as float, already checked
        assert config["supervisor.cpu.capacity"] == 200.0
        assert isinstance(config["supervisor.cpu.capacity"], float)
        assert config["storm.scheduler"] == "r-storm"

    def test_unknown_key_raises(self):
        with pytest.raises(ConfigError):
            StormConfig()["no.such.key"]

    def test_unknown_nimbus_key_rejected_at_construction(self):
        with pytest.raises(ConfigError, match="nimbus.elastic.enabeld"):
            StormConfig({"nimbus.elastic.enabeld": True})
        with pytest.raises(ConfigError, match="nimbus.flow.enabled"):
            StormConfig({"nimbus.flow.enabled": True})

    @pytest.mark.parametrize(
        "key, value, interval",
        [
            ("nimbus.elastic.hysteresis", 1.0, "[0, 1)"),
            ("nimbus.elastic.target.utilisation", 0.0, "(0, 1]"),
            ("nimbus.scheduler.interval.secs", 0, "(0, inf]"),
            ("nimbus.quarantine.threshold", 0, "[1, inf]"),
            ("nimbus.tenancy.max.preemptions", -1, "[0, inf]"),
        ],
    )
    def test_out_of_bounds_message_names_the_interval(
        self, key, value, interval
    ):
        with pytest.raises(ConfigError) as error:
            StormConfig({key: value})
        assert f"{key} must be in {interval}, got" in str(error.value)

    def test_other_unknown_keys_accepted(self):
        # a real storm.yaml carries many keys this reproduction ignores
        config = StormConfig({"worker.childopts": "-Xmx768m"})
        assert config["worker.childopts"] == "-Xmx768m"

    def test_get_with_default(self):
        assert StormConfig().get("no.such.key", 42) == 42

    @pytest.mark.parametrize(
        "values",
        [
            # one bad value per kind
            {"nimbus.quarantine.enabled": 1},  # bool
            {"nimbus.quarantine.threshold": 0},  # int >= 1
            {"nimbus.quarantine.threshold": True},
            {"supervisor.cpu.capacity": -5},  # positive number
            {"supervisor.cpu.capacity": "many"},
            {"nimbus.elastic.target.utilisation": 1.5},  # (0, 1]
            {"nimbus.tenancy.headroom": 0.0},
            {"nimbus.elastic.hysteresis": 1.0},  # [0, 1)
            {"nimbus.tenancy.credit.bias": -0.1},  # >= 0
            {"supervisor.slots.ports": []},  # ports
            {"supervisor.slots.ports": ["x"]},
            {"storm.scheduler": ""},  # non-empty str
            {"topology.workers": 0},  # optional int
            # bad values under a disabled feature
            {"nimbus.elastic.hysteresis": 1.5},
            {"nimbus.tenancy.max.preemptions": -1},
            # the cross-key rule
            {
                "nimbus.elastic.min.parallelism": 8,
                "nimbus.elastic.max.parallelism": 2,
            },
        ],
        ids=lambda values: ",".join(f"{k}={v!r}" for k, v in values.items()),
    )
    def test_invalid_value_rejected(self, values):
        with pytest.raises(ConfigError):
            StormConfig(values)

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


DOCS = pathlib.Path(__file__).resolve().parents[2] / "docs"


class TestDocsTables:
    """Each loop's docs page carries a ``| key | default | meaning |``
    table; it must agree with the key table."""

    @pytest.mark.parametrize(
        "page,prefix",
        [
            ("elastic.md", "nimbus.elastic."),
            ("multitenancy.md", "nimbus.tenancy."),
            ("faults.md", "nimbus.quarantine."),
        ],
    )
    def test_table_matches_keys(self, page, prefix):
        documented = {}
        for line in (DOCS / page).read_text().splitlines():
            cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
            if len(cells) == 3 and cells[0].startswith("`nimbus."):
                key, default = cells[0].strip("`"), cells[1].strip("`")
                assert key in KEYS, f"{page} documents unknown key {key}"
                documented[key] = _parse_scalar(default)
        for key, default in documented.items():
            want = KEYS[key][1]
            assert (type(default), default) == (type(want), want), key
        assert {key for key in KEYS if key.startswith(prefix)} <= set(documented)
