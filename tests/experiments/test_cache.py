"""Tests for the content-addressed result cache (repro.experiments.cache)."""

import dataclasses
import enum
import pickle

import pytest

from repro.cluster.resources import ResourceVector
from repro.experiments.cache import (
    CacheKeyError,
    ResultCache,
    cache_key,
    code_version,
    stable_token,
)
from repro.experiments.parallel import SimulationUnit, spec
from repro.faults.schedule import FaultSchedule
from repro.nimbus.tenancy import Tenant
from repro.simulation.config import SimulationConfig
from repro.workloads.micro import linear_topology


class Colour(enum.Enum):
    RED = 1
    BLUE = 2


@dataclasses.dataclass(frozen=True)
class Point:
    x: float
    y: float


class TestStableToken:
    def test_primitives_pass_through(self):
        for value in (None, True, False, 0, 42, "hello"):
            assert stable_token(value) == value

    def test_floats_round_trip_exactly(self):
        assert stable_token(0.1) == ["f", repr(0.1)]
        assert stable_token(0.1) != stable_token(0.2)

    def test_enum_by_qualified_member(self):
        token = stable_token(Colour.RED)
        assert token[0] == "enum"
        assert token[-1] == "RED"
        assert stable_token(Colour.RED) != stable_token(Colour.BLUE)

    def test_dataclass_by_field(self):
        assert stable_token(Point(1.0, 2.0)) == stable_token(Point(1.0, 2.0))
        assert stable_token(Point(1.0, 2.0)) != stable_token(Point(2.0, 1.0))

    def test_dict_order_insensitive(self):
        assert stable_token({"a": 1, "b": 2}) == stable_token({"b": 2, "a": 1})

    def test_set_order_insensitive(self):
        assert stable_token({3, 1, 2}) == stable_token({2, 3, 1})

    def test_sequences_keep_order(self):
        assert stable_token([1, 2]) != stable_token([2, 1])

    def test_callable_by_qualified_name(self):
        token = stable_token(linear_topology)
        assert token == ["callable", "repro.workloads.micro.linear_topology"]

    def test_resource_vector_uses_cache_token_hook(self):
        a = ResourceVector.of(memory_mb=1.0, cpu=2.0, bandwidth_mbps=3.0)
        b = ResourceVector.of(memory_mb=1.0, cpu=2.0, bandwidth_mbps=3.0)
        c = ResourceVector.of(memory_mb=9.0, cpu=2.0, bandwidth_mbps=3.0)
        assert stable_token(a) == stable_token(b)
        assert stable_token(a) != stable_token(c)

    def test_unsupported_type_raises(self):
        class Opaque:
            pass

        with pytest.raises(CacheKeyError):
            stable_token(Opaque())


def _unit(label="", duration=30.0, trial=0):
    return SimulationUnit(
        scheduler=spec(linear_topology),  # any callable works for keying
        topologies=(spec(linear_topology, "compute"),),
        cluster=spec(linear_topology),
        config=SimulationConfig(duration_s=duration),
        trial=trial,
        label=label,
    )


#: a value differing from ``_unit()``'s, for every SimulationUnit field
_CHANGED = {
    "scheduler": spec(linear_topology, "network"),
    "topologies": (),
    "cluster": spec(linear_topology, "network"),
    "config": SimulationConfig(duration_s=60.0),
    "interrack_uplink_mbps": 100.0,
    "storm": (("nimbus.quarantine.enabled", True),),
    "faults": spec(FaultSchedule),
    "tenants": (Tenant("gold"),),
    "submissions": ((0, "gold", spec(linear_topology, "compute")),),
    "rounds": 12,
    "trial": 1,
    "label": "fig10",
}


class TestCacheKey:
    def test_stable_across_calls(self):
        assert cache_key(_unit()) == cache_key(_unit())

    def test_label_excluded_from_key(self):
        # fig9 and fig10 share simulations under different labels.
        assert cache_key(_unit(label="fig9")) == cache_key(_unit(label="fig10"))

    def test_inputs_change_the_key(self):
        assert cache_key(_unit(duration=30.0)) != cache_key(_unit(duration=60.0))

    def test_trial_changes_the_key(self):
        assert cache_key(_unit(trial=0)) != cache_key(_unit(trial=1))

    @pytest.mark.parametrize(
        "field", dataclasses.fields(SimulationUnit), ids=lambda f: f.name
    )
    def test_every_compared_field_feeds_the_key(self, field):
        """The key is derived from the unit's fields: changing any
        ``compare=True`` field changes it, changing ``label`` does not.
        A new field without an entry in ``_CHANGED`` fails here."""
        base = _unit()
        changed = dataclasses.replace(base, **{field.name: _CHANGED[field.name]})
        assert getattr(changed, field.name) != getattr(base, field.name)
        assert (cache_key(changed) != cache_key(base)) == field.compare

    def test_code_version_is_hex_digest(self):
        version = code_version()
        assert len(version) == 64
        int(version, 16)


class TestResultCache:
    def test_miss_then_hit(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        key = cache_key(_unit())
        assert cache.get(key) is None
        cache.put(key, {"payload": 1})
        assert cache.get(key) == {"payload": 1}
        assert cache.hits == 1 and cache.misses == 1

    def test_layout_shards_by_prefix(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        key = "ab" + "0" * 62
        cache.put(key, "x")
        assert (tmp_path / "c" / "ab" / f"{key}.pkl").is_file()

    def test_corrupt_entry_is_a_miss_and_removed(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        key = "cd" + "0" * 62
        path = cache.path_for(key)
        path.parent.mkdir(parents=True)
        path.write_bytes(b"not a pickle")
        assert cache.get(key) is None
        assert not path.exists()

    def test_clear_and_len(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        for i in range(3):
            cache.put(f"{i:02d}" + "0" * 62, i)
        assert len(cache) == 3
        assert cache.clear() == 3
        assert len(cache) == 0

    def test_entries_use_portable_pickle_protocol(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        key = "ef" + "0" * 62
        cache.put(key, [1, 2, 3])
        blob = cache.path_for(key).read_bytes()
        # protocol 4 is readable by every supported interpreter (3.10+)
        assert pickle.loads(blob) == [1, 2, 3]
