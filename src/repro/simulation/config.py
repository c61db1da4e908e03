"""Simulation configuration knobs."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Any, Optional

from repro.errors import ConfigError
from repro.simulation.flowcontrol import FlowControlConfig
from repro.traffic.arrivals import ArrivalProcess
from repro.traffic.keys import KeyGenerator

__all__ = ["SimulationConfig"]

#: What each annotated kind of field must hold.  Other fields hold
#: typed objects, checked one by one in ``__post_init__``.
_KIND_TEXT = {
    "float": "a finite number",
    "int": "an int",
    "Optional[int]": "an int or None",
    "bool": "a bool",
}


def _of_kind(kind: str, value: Any) -> bool:
    """Whether ``value`` fits the field annotation ``kind``: a bool is
    no int here, and an int is a float."""
    if kind == "bool":
        return isinstance(value, bool)
    if kind == "Optional[int]" and value is None:
        return True
    is_int = isinstance(value, int) and not isinstance(value, bool)
    if kind == "float":
        return is_int or (isinstance(value, float) and math.isfinite(value))
    return is_int if kind in _KIND_TEXT else True


@dataclass(frozen=True)
class SimulationConfig:
    """Parameters of a simulated run.

    The simulator supports two load modes (see ``docs/simulator.md``):

    * **Closed-loop** (the default, ``arrival_process=None``): spouts
      self-pace, emitting as fast as CPU, the acker credit
      (``max_spout_pending``) and any per-profile ``max_rate_tps`` cap
      allow — offered load adapts to what the placement sustains, which
      is how the paper's benchmarks run.
    * **Open-loop** (``arrival_process`` set): batch arrivals are
      generated by an external :class:`~repro.traffic.arrivals.ArrivalProcess`
      on the DES clock, independent of system state.  Spouts emit
      exactly the offered batches; queues grow without bound past
      saturation, and the report gains offered-vs-achieved throughput
      and end-to-end latency percentiles.

    Attributes:
        duration_s: Simulated run length in seconds (the paper runs ~15
            minutes of wall clock; the shapes stabilise far earlier in
            simulation).
        window_s: Metrics window; the paper reports throughput in
            tuples per 10 seconds.
        warmup_s: Leading interval excluded from averaged metrics while
            queues fill and throughput converges.
        max_spout_pending: Storm's ``topology.max.spout.pending`` in
            *batches* per spout task — the acker-enforced credit that
            bounds in-flight work in closed-loop mode.  ``None``
            reproduces Storm's default (no flow control): spouts emit as
            fast as CPU and any ``max_rate_tps`` cap allow, and an
            overloaded bolt's queue grows without bound until the worker
            dies (see ``queue_overflow_batches``).  Ignored by open-loop
            spouts, whose emission is gated by arrivals alone.
        batch_timeout_s: Storm's tuple timeout: an un-acked batch returns
            its credit after this long (its tuples count as failed).
        thrash_factor: Service-time multiplier on nodes whose resident
            memory footprint exceeds physical capacity — models paging;
            this is what grinds the over-committed Processing topology to
            a near halt in Figure 13.
        serde_ms_per_tuple: CPU milliseconds of serialisation/
            deserialisation charged to the *receiving* task per tuple for
            deliveries that cross a worker-process boundary.  Storm skips
            (de)serialisation entirely for intra-process hand-offs, which
            is part of why co-location wins; intra-process deliveries pay
            nothing.
        queue_overflow_batches: A task whose input queue exceeds this many
            batches crashes its worker (Storm 0.9's unbounded ZeroMQ/
            Disruptor buffers exhaust the heap), losing the queue; the
            supervisor restarts it after ``worker_restart_s``.  ``None``
            disables the crash model (queues grow without bound).
        worker_restart_s: Downtime before a crashed task is restarted.
        at_least_once: Enable Storm's at-least-once delivery layer: a
            tuple tree that times out is *replayed* by its spout (real
            CPU and network cost, a fresh root id) instead of merely
            counting as failed.  Off by default — the historical
            at-most-once behaviour, byte-identical to prior releases.
        max_retries: Replay budget per root tuple when ``at_least_once``
            is on.  A tree that still has not acked after this many
            replays is *exhausted*: explicitly given up on and counted,
            never silently dropped.  ``0`` means acking without replay.
        replay_backoff_s: Base delay before the first replay of a
            timed-out tree; attempt ``n`` waits
            ``replay_backoff_s * 2**n`` (exponential backoff), mirroring
            a backpressure-aware spout.
        arrival_process: Open-loop traffic source (see
            :mod:`repro.traffic.arrivals`).  ``None`` (the default)
            keeps the historical closed-loop behaviour byte-identical.
        arrival_keys: Optional routing-key generator for open-loop
            arrivals (see :mod:`repro.traffic.keys`); keys feed fields
            groupings, so a skewed generator lands load unevenly across
            executors.  Requires ``arrival_process``.
        arrival_seed: Seed for the arrival/key RNG streams; each spout
            task derives an independent substream from it.
        flow: Opt-in flow control (``simulation.flow.*``): bounded
            executor input queues with high/low watermarks, credit-based
            backpressure that propagates upstream edge-by-edge until
            spouts throttle, and an auditable load-shedding policy chain
            (see :mod:`repro.simulation.flowcontrol`).  ``None`` (the
            default) keeps the historical unbounded-queue behaviour
            byte-identical.
    """

    duration_s: float = 120.0
    window_s: float = 10.0
    warmup_s: float = 20.0
    max_spout_pending: Optional[int] = 10
    batch_timeout_s: float = 30.0
    thrash_factor: float = 25.0
    serde_ms_per_tuple: float = 0.002
    queue_overflow_batches: Optional[int] = 500
    worker_restart_s: float = 10.0
    at_least_once: bool = False
    max_retries: int = 3
    replay_backoff_s: float = 1.0
    arrival_process: Optional[ArrivalProcess] = None
    arrival_keys: Optional[KeyGenerator] = None
    arrival_seed: int = 1
    flow: Optional[FlowControlConfig] = None

    def __post_init__(self) -> None:
        for spec in fields(self):
            value = getattr(self, spec.name)
            if not _of_kind(spec.type, value):
                raise ConfigError(
                    f"{spec.name} must be {_KIND_TEXT[spec.type]}, "
                    f"got {value!r}"
                )
        if self.duration_s <= 0:
            raise ConfigError("duration_s must be positive")
        if self.window_s <= 0:
            raise ConfigError("window_s must be positive")
        if not 0 <= self.warmup_s < self.duration_s:
            raise ConfigError("warmup_s must be in [0, duration_s)")
        if self.max_spout_pending is not None and self.max_spout_pending < 1:
            raise ConfigError("max_spout_pending must be >= 1 or None")
        if self.batch_timeout_s <= 0:
            raise ConfigError("batch_timeout_s must be positive")
        if self.thrash_factor < 1:
            raise ConfigError("thrash_factor must be >= 1")
        if self.serde_ms_per_tuple < 0:
            raise ConfigError("serde_ms_per_tuple must be >= 0")
        if (
            self.queue_overflow_batches is not None
            and self.queue_overflow_batches < 1
        ):
            raise ConfigError("queue_overflow_batches must be >= 1 or None")
        if self.worker_restart_s < 0:
            raise ConfigError("worker_restart_s must be >= 0")
        if self.max_retries < 0:
            raise ConfigError("max_retries must be >= 0")
        if self.replay_backoff_s <= 0:
            raise ConfigError("replay_backoff_s must be positive")
        if self.arrival_process is not None and not isinstance(
            self.arrival_process, ArrivalProcess
        ):
            raise ConfigError(
                "arrival_process must be an ArrivalProcess or None"
            )
        if self.arrival_keys is not None:
            if not isinstance(self.arrival_keys, KeyGenerator):
                raise ConfigError(
                    "arrival_keys must be a KeyGenerator or None"
                )
            if self.arrival_process is None:
                raise ConfigError(
                    "arrival_keys requires arrival_process (keys only "
                    "apply to open-loop traffic)"
                )
        if self.arrival_seed < 0:
            raise ConfigError("arrival_seed must be a non-negative integer")
        if self.flow is not None and not isinstance(
            self.flow, FlowControlConfig
        ):
            raise ConfigError("flow must be a FlowControlConfig or None")
