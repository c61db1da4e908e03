"""storm.yaml-style configuration.

The paper's user API (Section 5.2) configures R-Storm through Storm's
flat YAML configuration file::

    storm.scheduler: "r-storm"
    nimbus.scheduler.interval.secs: 10.0
    nimbus.supervisor.timeout.secs: 15.0

This module provides a dependency-free parser for that flat subset of
YAML (scalar and inline-list values, comments) plus
:class:`StormConfig`, which checks every key this reproduction reads
against :data:`KEYS` when it is built.  Node capacities come from the
cluster model, not from ``supervisor.*`` keys.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Iterator, List, Mapping, Optional, Tuple, Union

from repro.errors import ConfigError

__all__ = ["StormConfig", "parse_storm_yaml"]

#: An interval an ``int`` or ``number`` value must lie in:
#: ``(low, low included, high, high included)``.
Bounds = Tuple[float, bool, float, bool]

_POSITIVE: Bounds = (0.0, False, math.inf, True)  # (0, inf]
_NON_NEGATIVE: Bounds = (0.0, True, math.inf, True)  # [0, inf]
_AT_LEAST_ONE: Bounds = (1.0, True, math.inf, True)  # [1, inf]
_FRACTION: Bounds = (0.0, False, 1.0, True)  # (0, 1]

#: Every key this reproduction reads: key -> (kind, default, bounds).
#: Kinds: ``bool``; ``string`` (non-empty); ``int``; ``int or null``;
#: and ``number`` (an int or float, stored as float).
KEYS: Dict[str, Tuple[str, Any, Optional[Bounds]]] = {
    "storm.scheduler": ("string", "default", None),
    "nimbus.scheduler.interval.secs": ("number", 10.0, _POSITIVE),
    "nimbus.supervisor.heartbeat.secs": ("number", 3.0, _POSITIVE),
    "nimbus.supervisor.timeout.secs": ("number", 10.0, _POSITIVE),
    "nimbus.quarantine.enabled": ("bool", False, None),
    "nimbus.quarantine.threshold": ("int", 3, _AT_LEAST_ONE),
    "nimbus.quarantine.window.secs": ("number", 120.0, _POSITIVE),
    "nimbus.quarantine.probation.secs": ("number", 60.0, _POSITIVE),
    "nimbus.elastic.enabled": ("bool", False, None),
    "nimbus.elastic.interval.secs": ("number", 15.0, _POSITIVE),
    "nimbus.elastic.target.utilisation": ("number", 0.7, _FRACTION),
    "nimbus.elastic.hysteresis": ("number", 0.25, (0.0, True, 1.0, False)),
    "nimbus.elastic.min.parallelism": ("int", 1, _AT_LEAST_ONE),
    "nimbus.elastic.max.parallelism": ("int", 16, _AT_LEAST_ONE),
    "nimbus.elastic.scale.down.patience": ("int", 3, _AT_LEAST_ONE),
    "nimbus.tenancy.headroom": ("number", 1.0, _FRACTION),
    "nimbus.tenancy.credit.accrual": ("number", 1.0, _NON_NEGATIVE),
    "nimbus.tenancy.credit.bias": ("number", 0.05, _NON_NEGATIVE),
    "nimbus.tenancy.preemption.enabled": ("bool", True, None),
    "nimbus.tenancy.max.preemptions": ("int", 2, _NON_NEGATIVE),
    "topology.workers": ("int or null", None, _AT_LEAST_ONE),
}


def _in_interval(value: float, bounds: Bounds) -> bool:
    low, low_closed, high, high_closed = bounds
    above = value >= low if low_closed else value > low
    below = value <= high if high_closed else value < high
    return above and below


def _interval_text(bounds: Bounds) -> str:
    """``bounds`` in the usual notation, such as ``(0, inf]``."""
    low, low_closed, high, high_closed = bounds
    return (
        f"{'[' if low_closed else '('}{low:g}, {high:g}"
        f"{']' if high_closed else ')'}"
    )


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _checked(key: str, value: Any) -> Any:
    """``value`` coerced to ``key``'s kind; raises :class:`ConfigError`
    when it is not of that kind or lies outside its bounds."""
    kind, _, bounds = KEYS[key]
    if kind == "bool":
        ok = isinstance(value, bool)
    elif kind == "string":
        ok = isinstance(value, str) and bool(value)
    elif kind == "int or null" and value is None:
        return None
    elif kind == "number":
        ok = _is_int(value) or isinstance(value, float)
        value = float(value) if ok else value
    else:
        ok = _is_int(value)
    if not ok:
        raise ConfigError(f"{key} must be of kind {kind}, got {value!r}")
    if bounds is not None and not _in_interval(value, bounds):
        raise ConfigError(
            f"{key} must be in {_interval_text(bounds)}, got {value!r}"
        )
    return value


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


def _unquoted(text: str) -> Iterator[Tuple[int, str]]:
    """Yield ``(index, char)`` for every character of ``text`` outside a
    quoted scalar.  A quote opens a scalar only where one can start: at
    the start of ``text`` or after whitespace, ``:``, ``[`` or ``,``."""
    quote = None
    previous = " "
    for index, char in enumerate(text):
        if quote is not None:
            if char == quote:
                quote = None
        elif char in "\"'" and previous in " \t:[,":
            quote = char
        else:
            yield index, char
        previous = char


def parse_storm_yaml(text: str) -> Dict[str, Any]:
    """Parse the flat ``key: value`` YAML subset storm.yaml uses.

    Supports scalars (str/int/float/bool/null), inline lists
    (``[6700, 6701]``), full-line and trailing comments, and blank lines.
    As in YAML, ``#`` starts a comment only at the start of a line or
    after whitespace, and never inside quotes; a quoted list item may
    hold commas.  Nested mappings are rejected — storm.yaml
    conventionally uses dotted flat keys.
    """
    result: Dict[str, Any] = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line
        for index, char in _unquoted(raw_line):
            if char == "#" and (index == 0 or raw_line[index - 1] in " \t"):
                line = raw_line[:index]
                break
        line = line.rstrip()
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
                cuts = [i for i, char in _unquoted(inner) if char == ","]
                starts = [0] + [cut + 1 for cut in cuts]
                ends = cuts + [len(inner)]
                items = [
                    _parse_scalar(inner[start:end])
                    for start, end in zip(starts, ends)
                ]
            result[key] = items
        else:
            result[key] = _parse_scalar(value)
    return result


class StormConfig:
    """A storm.yaml-style configuration, checked once when it is built.

    Every key in :data:`KEYS` takes its default unless given, and is
    checked against its kind and bounds here, so ``config[key]`` returns
    a value already checked.  Any other key is accepted and returned as
    given (a real storm.yaml carries many this reproduction ignores)
    except an unknown ``nimbus.*`` key: those configure this
    reproduction's control loops, so a misspelt one raises
    :class:`ConfigError` instead of silently doing nothing.
    """

    def __init__(self, values: Optional[Mapping[str, Any]] = None):
        merged: Dict[str, Any] = {key: row[1] for key, row in KEYS.items()}
        if values:
            unknown = sorted(
                key
                for key in values
                if key.startswith("nimbus.") and key not in KEYS
            )
            if unknown:
                raise ConfigError(
                    f"unknown nimbus configuration key(s): {', '.join(unknown)}"
                )
            merged.update(values)
        self._values: Dict[str, Any] = {
            key: _checked(key, value) if key in KEYS else value
            for key, value in merged.items()
        }
        values = self._values
        if (
            values["nimbus.elastic.max.parallelism"]
            < values["nimbus.elastic.min.parallelism"]
        ):
            raise ConfigError(
                "nimbus.elastic.max.parallelism must be >= "
                "nimbus.elastic.min.parallelism"
            )
        if (
            values["nimbus.supervisor.timeout.secs"]
            <= values["nimbus.supervisor.heartbeat.secs"]
        ):
            raise ConfigError(
                "nimbus.supervisor.timeout.secs must be > "
                "nimbus.supervisor.heartbeat.secs"
            )

    @classmethod
    def from_yaml(cls, text: str) -> "StormConfig":
        return cls(parse_storm_yaml(text))

    def get(self, key: str, default: Any = None) -> Any:
        return self._values.get(key, default)

    def __getitem__(self, key: str) -> Any:
        try:
            return self._values[key]
        except KeyError:
            raise ConfigError(f"unknown configuration key {key!r}") from None

    def __contains__(self, key: str) -> bool:
        return key in self._values

    def as_dict(self) -> Dict[str, Any]:
        return dict(self._values)

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

        name = self["storm.scheduler"]
        kind = name.lower()
        workers = self["topology.workers"]
        if kind in ("default", "even"):
            return DefaultScheduler(workers_per_topology=workers)
        if kind in ("r-storm", "rstorm", "resource-aware"):
            return RStormScheduler()
        if kind in ("aniello", "aniello-offline"):
            return AnielloOfflineScheduler(workers_per_topology=workers)
        raise ConfigError(f"unknown storm.scheduler {name!r}")

    def __repr__(self) -> str:
        return f"StormConfig(scheduler={self['storm.scheduler']!r})"
