"""Typed fault events.

Each event is an immutable, picklable description of one thing going
wrong (and optionally healing) at an absolute simulated time.  Events are
pure data: all behaviour — what a crash *does* to the cluster, the DES
and the failure detector — lives in
:class:`~repro.faults.injector.FaultInjector`, so schedules can be
scripted, generated, serialised and cache-keyed without touching any live
object.

The fault model covers the perturbation classes the online-scheduling
literature evaluates under (Aniello et al., Fu et al., see PAPERS.md):

* :class:`NodeCrash` — the machine dies (optionally rejoining later),
* :class:`NodeSlowdown` — CPU capacity degradation (thermal throttling,
  noisy neighbour), service times multiplied for a while,
* :class:`LinkDegradation` — the inter-rack trunk loses bandwidth,
* :class:`RackPartition` — a whole rack becomes unreachable (optionally
  healing later),
* :class:`HeartbeatSilence` — a gray failure: the machine keeps working
  but its heartbeats stop, so the detector wrongly declares it dead,
* :class:`MessageLoss` — the inter-rack trunk becomes lossy: batches
  crossing it are dropped (and optionally duplicated) with a seeded
  probability, exercising the at-least-once replay layer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple, Type

from repro.errors import ConfigError

__all__ = [
    "FaultEvent",
    "NodeCrash",
    "NodeSlowdown",
    "LinkDegradation",
    "RackPartition",
    "HeartbeatSilence",
    "MessageLoss",
    "EVENT_KINDS",
]


def _check_factor(noun: str, factor: float) -> None:
    if not (math.isfinite(factor) and factor > 1.0):
        raise ConfigError(
            f"{noun} factor must be finite and exceed 1, got {factor}"
        )


@dataclass(frozen=True)
class FaultEvent:
    """Base class: one fault at absolute simulated time ``at``."""

    at: float

    #: stable identifier used for serialisation and tracing
    kind = "fault"

    def __post_init__(self) -> None:
        if not (math.isfinite(self.at) and self.at >= 0):
            raise ConfigError(
                f"fault time must be finite and >= 0, got {self.at}"
            )

    def _check_until(self, until: Optional[float], name: str = "until") -> None:
        # ``not >`` so that a NaN is rejected too.
        if until is not None and not until > self.at:
            raise ConfigError(
                f"{type(self).__name__}.{name} ({until}) must be after "
                f"the injection time ({self.at})"
            )

    def describe(self) -> str:
        """Human-readable one-liner used in traces and reports."""
        return f"{self.kind} at {self.at:g}s"


@dataclass(frozen=True)
class NodeCrash(FaultEvent):
    """The machine dies at ``at``; if ``rejoin_at`` is set it comes back
    (empty — its workers lost their state) at that time."""

    node_id: str = ""
    rejoin_at: Optional[float] = None

    kind = "node_crash"

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.node_id:
            raise ConfigError("NodeCrash needs a node_id")
        self._check_until(self.rejoin_at, "rejoin_at")

    def describe(self) -> str:
        suffix = (
            f", rejoins at {self.rejoin_at:g}s" if self.rejoin_at is not None else ""
        )
        return f"{self.kind} {self.node_id}{suffix}"


@dataclass(frozen=True)
class NodeSlowdown(FaultEvent):
    """The node's effective CPU speed drops: service times are multiplied
    by ``factor`` from ``at`` until ``until`` (or the end of the run)."""

    node_id: str = ""
    factor: float = 2.0
    until: Optional[float] = None

    kind = "node_slowdown"

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.node_id:
            raise ConfigError("NodeSlowdown needs a node_id")
        _check_factor("slowdown", self.factor)
        self._check_until(self.until)

    def describe(self) -> str:
        span = f" until {self.until:g}s" if self.until is not None else ""
        return f"{self.kind} {self.node_id} x{self.factor:g}{span}"


@dataclass(frozen=True)
class LinkDegradation(FaultEvent):
    """The trunk between two racks loses capacity: effective uplink
    bandwidth is divided by ``factor`` from ``at`` until ``until``."""

    rack_a: str = ""
    rack_b: str = ""
    factor: float = 4.0
    until: Optional[float] = None

    kind = "link_degradation"

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.rack_a or not self.rack_b:
            raise ConfigError("LinkDegradation needs two rack ids")
        if self.rack_a == self.rack_b:
            raise ConfigError("LinkDegradation racks must differ")
        _check_factor("degradation", self.factor)
        self._check_until(self.until)

    def describe(self) -> str:
        span = f" until {self.until:g}s" if self.until is not None else ""
        return f"{self.kind} {self.rack_a}<->{self.rack_b} /{self.factor:g}{span}"


@dataclass(frozen=True)
class RackPartition(FaultEvent):
    """Every node in ``rack_id`` becomes unreachable at ``at``; the
    partition heals (nodes rejoin, empty) at ``heal_at`` if set."""

    rack_id: str = ""
    heal_at: Optional[float] = None

    kind = "rack_partition"

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.rack_id:
            raise ConfigError("RackPartition needs a rack_id")
        self._check_until(self.heal_at, "heal_at")

    def describe(self) -> str:
        suffix = (
            f", heals at {self.heal_at:g}s" if self.heal_at is not None else ""
        )
        return f"{self.kind} {self.rack_id}{suffix}"


@dataclass(frozen=True)
class HeartbeatSilence(FaultEvent):
    """The machine keeps processing but stops heartbeating (partitioned
    from Nimbus).  The detector will wrongly declare it dead after the
    timeout; heartbeats resume at ``until`` if set."""

    node_id: str = ""
    until: Optional[float] = None

    kind = "heartbeat_silence"

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.node_id:
            raise ConfigError("HeartbeatSilence needs a node_id")
        self._check_until(self.until)

    def describe(self) -> str:
        span = f" until {self.until:g}s" if self.until is not None else ""
        return f"{self.kind} {self.node_id}{span}"


@dataclass(frozen=True)
class MessageLoss(FaultEvent):
    """The trunk between two racks becomes lossy at ``at``: each batch
    crossing it is independently dropped with ``drop_probability``, or —
    if it survives — duplicated with ``duplicate_probability``.  Fates
    are drawn from ``random.Random(seed)`` in simulation-time order, so
    a fixed seed is deterministic.  The link heals at ``until`` if set.

    Bandwidth is still spent on lost batches (the bits left the NIC);
    only the delivery vanishes, so the affected tuple trees time out —
    the failure mode the at-least-once replay layer recovers from.
    """

    rack_a: str = ""
    rack_b: str = ""
    drop_probability: float = 0.05
    duplicate_probability: float = 0.0
    until: Optional[float] = None
    seed: int = 0

    kind = "message_loss"

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.rack_a or not self.rack_b:
            raise ConfigError("MessageLoss needs two rack ids")
        if self.rack_a == self.rack_b:
            raise ConfigError("MessageLoss racks must differ")
        if not 0.0 <= self.drop_probability < 1.0:
            raise ConfigError(
                "MessageLoss drop_probability must be in [0, 1), got "
                f"{self.drop_probability}"
            )
        if not 0.0 <= self.duplicate_probability < 1.0:
            raise ConfigError(
                "MessageLoss duplicate_probability must be in [0, 1), got "
                f"{self.duplicate_probability}"
            )
        if self.drop_probability == 0.0 and self.duplicate_probability == 0.0:
            raise ConfigError(
                "MessageLoss needs a non-zero drop or duplicate probability"
            )
        self._check_until(self.until)

    def describe(self) -> str:
        span = f" until {self.until:g}s" if self.until is not None else ""
        dup = (
            f" dup={self.duplicate_probability:g}"
            if self.duplicate_probability
            else ""
        )
        return (
            f"{self.kind} {self.rack_a}<->{self.rack_b} "
            f"drop={self.drop_probability:g}{dup}{span}"
        )


#: kind string -> event class, for (de)serialising schedules.
EVENT_KINDS: Tuple[Tuple[str, Type[FaultEvent]], ...] = tuple(
    (cls.kind, cls)
    for cls in (
        NodeCrash,
        NodeSlowdown,
        LinkDegradation,
        RackPartition,
        HeartbeatSilence,
        MessageLoss,
    )
)
