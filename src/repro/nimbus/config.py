"""storm.yaml-style configuration.

The paper's user API (Section 5.2) configures node resources and the
scheduler choice through Storm's flat YAML configuration file::

    supervisor.memory.capacity.mb: 20480.0
    supervisor.cpu.capacity: 100.0
    storm.scheduler: "repro.scheduler.rstorm.RStormScheduler"

This module provides a dependency-free parser for that flat subset of
YAML (scalar and inline-list values, comments) plus a typed
:class:`StormConfig` wrapper with Storm's defaults.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Union

from repro.errors import ConfigError

__all__ = ["StormConfig", "parse_storm_yaml"]

#: Keys understood by this reproduction, with Storm-compatible defaults.
DEFAULTS: Dict[str, Any] = {
    "supervisor.memory.capacity.mb": 4096.0,
    "supervisor.cpu.capacity": 400.0,
    "supervisor.bandwidth.capacity.mbps": 1000.0,
    "supervisor.slots.ports": [6700, 6701, 6702, 6703],
    "storm.scheduler": "default",
    "nimbus.scheduler.interval.secs": 10.0,
    "nimbus.quarantine.enabled": False,
    "nimbus.quarantine.threshold": 3,
    "nimbus.quarantine.window.secs": 120.0,
    "nimbus.quarantine.probation.secs": 60.0,
    "nimbus.elastic.enabled": False,
    "nimbus.elastic.interval.secs": 15.0,
    "nimbus.elastic.target.utilisation": 0.7,
    "nimbus.elastic.hysteresis": 0.25,
    "nimbus.elastic.min.parallelism": 1,
    "nimbus.elastic.max.parallelism": 16,
    "nimbus.elastic.scale.down.patience": 3,
    "nimbus.elastic.rebalance.enabled": True,
    "nimbus.elastic.rebalance.threshold": 0.85,
    "nimbus.tenancy.enabled": False,
    "nimbus.tenancy.headroom": 1.0,
    "nimbus.tenancy.credit.accrual": 1.0,
    "nimbus.tenancy.credit.bias": 0.05,
    "nimbus.tenancy.preemption.enabled": True,
    "nimbus.tenancy.max.preemptions": 2,
    "topology.workers": None,
    "topology.max.spout.pending": 10,
    "topology.message.timeout.secs": 30.0,
}


def _parse_scalar(raw: str) -> Union[str, int, float, bool, None]:
    text = raw.strip()
    if not text or text.lower() in ("null", "~"):
        return None
    if text.lower() == "true":
        return True
    if text.lower() == "false":
        return False
    if (text.startswith('"') and text.endswith('"')) or (
        text.startswith("'") and text.endswith("'")
    ):
        return text[1:-1]
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    return text


def parse_storm_yaml(text: str) -> Dict[str, Any]:
    """Parse the flat ``key: value`` YAML subset storm.yaml uses.

    Supports scalars (str/int/float/bool/null), inline lists
    (``[6700, 6701]``), full-line and trailing comments, and blank lines.
    Nested mappings are rejected — storm.yaml conventionally uses dotted
    flat keys.
    """
    result: Dict[str, Any] = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        if line.startswith((" ", "\t")):
            raise ConfigError(
                f"line {lineno}: nested YAML is not supported in storm.yaml "
                f"(use dotted flat keys): {raw_line!r}"
            )
        if ":" not in line:
            raise ConfigError(f"line {lineno}: expected 'key: value': {raw_line!r}")
        key, _, value = line.partition(":")
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key: {raw_line!r}")
        if value.startswith("[") and value.endswith("]"):
            inner = value[1:-1].strip()
            items: List[Any] = []
            if inner:
                items = [_parse_scalar(part) for part in inner.split(",")]
            result[key] = items
        else:
            result[key] = _parse_scalar(value)
    return result


class StormConfig:
    """Typed access to a storm.yaml-style configuration with defaults.

    Any key is accepted (a real storm.yaml carries many this
    reproduction ignores) except an unknown ``nimbus.*`` key: those
    configure this reproduction's control loops, so a misspelt one
    raises :class:`ConfigError` instead of silently doing nothing.
    """

    def __init__(self, values: Optional[Mapping[str, Any]] = None):
        self._values: Dict[str, Any] = dict(DEFAULTS)
        if values:
            unknown = sorted(
                key
                for key in values
                if key.startswith("nimbus.") and key not in DEFAULTS
            )
            if unknown:
                raise ConfigError(
                    f"unknown nimbus configuration key(s): {', '.join(unknown)}"
                )
            self._values.update(values)

    @classmethod
    def from_yaml(cls, text: str) -> "StormConfig":
        return cls(parse_storm_yaml(text))

    @classmethod
    def from_file(cls, path: str) -> "StormConfig":
        with open(path) as handle:
            return cls.from_yaml(handle.read())

    # -- generic access ---------------------------------------------------

    def get(self, key: str, default: Any = None) -> Any:
        return self._values.get(key, default)

    def __getitem__(self, key: str) -> Any:
        try:
            return self._values[key]
        except KeyError:
            raise ConfigError(f"unknown configuration key {key!r}") from None

    def __contains__(self, key: str) -> bool:
        return key in self._values

    def with_overrides(self, **overrides: Any) -> "StormConfig":
        merged = dict(self._values)
        merged.update(
            {key.replace("_", "."): value for key, value in overrides.items()}
        )
        return StormConfig(merged)

    def as_dict(self) -> Dict[str, Any]:
        return dict(self._values)

    # -- typed accessors ------------------------------------------------------

    def _positive_number(self, key: str) -> float:
        value = self[key]
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ConfigError(f"{key} must be a number, got {value!r}")
        if value <= 0:
            raise ConfigError(f"{key} must be positive, got {value!r}")
        return float(value)

    @property
    def supervisor_memory_mb(self) -> float:
        return self._positive_number("supervisor.memory.capacity.mb")

    @property
    def supervisor_cpu(self) -> float:
        return self._positive_number("supervisor.cpu.capacity")

    @property
    def supervisor_bandwidth_mbps(self) -> float:
        return self._positive_number("supervisor.bandwidth.capacity.mbps")

    @property
    def supervisor_ports(self) -> List[int]:
        ports = self["supervisor.slots.ports"]
        if not isinstance(ports, list) or not ports:
            raise ConfigError("supervisor.slots.ports must be a non-empty list")
        out = []
        for port in ports:
            if not isinstance(port, int) or isinstance(port, bool):
                raise ConfigError(f"invalid supervisor port {port!r}")
            out.append(port)
        return out

    @property
    def scheduler_name(self) -> str:
        value = self["storm.scheduler"]
        if not isinstance(value, str) or not value:
            raise ConfigError("storm.scheduler must be a non-empty string")
        return value

    @property
    def scheduling_interval_s(self) -> float:
        return self._positive_number("nimbus.scheduler.interval.secs")

    @property
    def quarantine_enabled(self) -> bool:
        value = self["nimbus.quarantine.enabled"]
        if not isinstance(value, bool):
            raise ConfigError("nimbus.quarantine.enabled must be a bool")
        return value

    @property
    def quarantine_threshold(self) -> int:
        value = self["nimbus.quarantine.threshold"]
        if not isinstance(value, int) or isinstance(value, bool) or value < 1:
            raise ConfigError("nimbus.quarantine.threshold must be an int >= 1")
        return value

    @property
    def quarantine_window_s(self) -> float:
        return self._positive_number("nimbus.quarantine.window.secs")

    @property
    def quarantine_probation_s(self) -> float:
        return self._positive_number("nimbus.quarantine.probation.secs")

    @property
    def elastic_enabled(self) -> bool:
        value = self["nimbus.elastic.enabled"]
        if not isinstance(value, bool):
            raise ConfigError("nimbus.elastic.enabled must be a bool")
        return value

    @property
    def elastic_interval_s(self) -> float:
        return self._positive_number("nimbus.elastic.interval.secs")

    @property
    def elastic_target_utilisation(self) -> float:
        value = self._positive_number("nimbus.elastic.target.utilisation")
        if value > 1.0:
            raise ConfigError(
                "nimbus.elastic.target.utilisation must be in (0, 1], "
                f"got {value!r}"
            )
        return value

    @property
    def elastic_hysteresis(self) -> float:
        value = self["nimbus.elastic.hysteresis"]
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ConfigError("nimbus.elastic.hysteresis must be a number")
        if not 0.0 <= value < 1.0:
            raise ConfigError(
                f"nimbus.elastic.hysteresis must be in [0, 1), got {value!r}"
            )
        return float(value)

    @property
    def elastic_min_parallelism(self) -> int:
        value = self["nimbus.elastic.min.parallelism"]
        if not isinstance(value, int) or isinstance(value, bool) or value < 1:
            raise ConfigError(
                "nimbus.elastic.min.parallelism must be an int >= 1"
            )
        return value

    @property
    def elastic_max_parallelism(self) -> int:
        value = self["nimbus.elastic.max.parallelism"]
        if not isinstance(value, int) or isinstance(value, bool) or value < 1:
            raise ConfigError(
                "nimbus.elastic.max.parallelism must be an int >= 1"
            )
        if value < self.elastic_min_parallelism:
            raise ConfigError(
                "nimbus.elastic.max.parallelism must be >= "
                "nimbus.elastic.min.parallelism"
            )
        return value

    @property
    def elastic_scale_down_patience(self) -> int:
        value = self["nimbus.elastic.scale.down.patience"]
        if not isinstance(value, int) or isinstance(value, bool) or value < 1:
            raise ConfigError(
                "nimbus.elastic.scale.down.patience must be an int >= 1"
            )
        return value

    @property
    def elastic_rebalance_enabled(self) -> bool:
        value = self["nimbus.elastic.rebalance.enabled"]
        if not isinstance(value, bool):
            raise ConfigError("nimbus.elastic.rebalance.enabled must be a bool")
        return value

    @property
    def elastic_rebalance_threshold(self) -> float:
        value = self._positive_number("nimbus.elastic.rebalance.threshold")
        if value > 1.0:
            raise ConfigError(
                "nimbus.elastic.rebalance.threshold must be in (0, 1], "
                f"got {value!r}"
            )
        return value

    @property
    def tenancy_enabled(self) -> bool:
        value = self["nimbus.tenancy.enabled"]
        if not isinstance(value, bool):
            raise ConfigError("nimbus.tenancy.enabled must be a bool")
        return value

    @property
    def tenancy_headroom(self) -> float:
        value = self._positive_number("nimbus.tenancy.headroom")
        if value > 1.0:
            raise ConfigError(
                f"nimbus.tenancy.headroom must be in (0, 1], got {value!r}"
            )
        return value

    def _non_negative_number(self, key: str) -> float:
        value = self[key]
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ConfigError(f"{key} must be a number, got {value!r}")
        if value < 0:
            raise ConfigError(f"{key} must be >= 0, got {value!r}")
        return float(value)

    @property
    def tenancy_credit_accrual(self) -> float:
        return self._non_negative_number("nimbus.tenancy.credit.accrual")

    @property
    def tenancy_credit_bias(self) -> float:
        return self._non_negative_number("nimbus.tenancy.credit.bias")

    @property
    def tenancy_preemption_enabled(self) -> bool:
        value = self["nimbus.tenancy.preemption.enabled"]
        if not isinstance(value, bool):
            raise ConfigError(
                "nimbus.tenancy.preemption.enabled must be a bool"
            )
        return value

    @property
    def tenancy_max_preemptions(self) -> int:
        value = self["nimbus.tenancy.max.preemptions"]
        if not isinstance(value, int) or isinstance(value, bool) or value < 0:
            raise ConfigError(
                "nimbus.tenancy.max.preemptions must be an int >= 0"
            )
        return value

    @property
    def max_spout_pending(self) -> int:
        value = self["topology.max.spout.pending"]
        if not isinstance(value, int) or isinstance(value, bool) or value < 1:
            raise ConfigError("topology.max.spout.pending must be an int >= 1")
        return value

    @property
    def message_timeout_s(self) -> float:
        return self._positive_number("topology.message.timeout.secs")

    @property
    def topology_workers(self) -> Optional[int]:
        value = self["topology.workers"]
        if value is None:
            return None
        if not isinstance(value, int) or isinstance(value, bool) or value < 1:
            raise ConfigError("topology.workers must be an int >= 1 or null")
        return value

    def make_scheduler(self):
        """Instantiate the configured scheduler.

        Recognised names: ``default``, ``r-storm``/``rstorm``/
        ``resource-aware``, ``aniello``/``aniello-offline``.
        """
        from repro.scheduler import (
            AnielloOfflineScheduler,
            DefaultScheduler,
            RStormScheduler,
        )

        name = self.scheduler_name.lower()
        if name in ("default", "even"):
            return DefaultScheduler(workers_per_topology=self.topology_workers)
        if name in ("r-storm", "rstorm", "resource-aware"):
            return RStormScheduler()
        if name in ("aniello", "aniello-offline"):
            return AnielloOfflineScheduler(
                workers_per_topology=self.topology_workers
            )
        raise ConfigError(f"unknown storm.scheduler {self.scheduler_name!r}")

    def __repr__(self) -> str:
        return f"StormConfig(scheduler={self.scheduler_name!r})"
