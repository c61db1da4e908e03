"""Flow control: bounded queues, credit backpressure, load shedding.

Without flow control, open-loop traffic past 1x offered load grows
queues without bound until p99 latency diverges and workers die of
queue overflow.  This module is the simulated counterpart of Storm 1.x
backpressure plus DRS-style load shedding:

* **Bounded input queues.**  Every executor's input queue holds
  ``queue_capacity`` batches of credit.  What happens at the bound is
  the shedding policy's decision; nothing is discarded by the bound
  alone.
* **Credit-based backpressure.**  Every producer -> consumer component
  edge of a topology carries a :class:`CreditLedger` sized to the total
  queue capacity of its consumer tasks.  Routing a batch consumes one
  credit; the batch leaving the consumer's queue (serviced or shed)
  returns it.  An edge over its **high watermark** stalls its producer
  component: bolts stop draining their input queues (so pressure
  propagates upstream edge by edge) and spouts stop emitting.  Back at
  the **low watermark** the producer resumes; the gap is the hysteresis
  that prevents flapping.
* **Load shedding.**  A policy decides what happens to a batch arriving
  at a full queue: ``none`` (backpressure only), ``tail-drop`` (shed at
  capacity) or ``priority`` (low-priority tenants shed earlier, see
  :func:`tenant_priorities`).  Every shed batch is audited: the run's
  ``StatisticServer`` counts its tuples exactly (per topology, stage,
  component and window), an observer sees it as a ``shed`` trace
  event, and the delivery audit counts it: every origin is acked,
  failed, exhausted **or shed**, never silently dropped.

:class:`FlowControl` holds one run's layer.  It is opt-in:
``SimulationConfig.flow`` defaults to ``None`` and the runtime's
disabled path is byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Tuple

from repro.errors import ConfigError

if TYPE_CHECKING:
    from repro.topology.task import Task
    from repro.topology.topology import Topology

__all__ = [
    "FlowControlConfig",
    "FlowControl",
    "FlowProducer",
    "CreditLedger",
    "SheddingPolicy",
    "make_policy",
    "tenant_priorities",
    "SHEDDING_POLICIES",
]

#: Recognised shedding policy names, in escalation order.
SHEDDING_POLICIES = ("none", "tail-drop", "priority")

#: Priority shedding: the *lowest*-priority tenants shed from this
#: fraction of queue capacity; the highest shed only at capacity.
_PRIORITY_FLOOR = 0.5


@dataclass(frozen=True)
class FlowControlConfig:
    """Opt-in flow-control knobs (``simulation.flow.*``).

    Attributes:
        queue_capacity: Bounded input-queue size per executor, in
            batches.  Also the per-consumer contribution to each edge's
            credit pool.
        high_watermark: Edge occupancy fraction (outstanding credits /
            pool size) at which the producing component stalls.
        low_watermark: Occupancy fraction at which a stalled producer
            resumes.  Must be below ``high_watermark`` — the gap is the
            stall/resume hysteresis.
        shedding: ``none`` | ``tail-drop`` | ``priority`` (see module
            docstring).
        priorities: ``(topology_id, priority)`` pairs consulted by the
            ``priority`` policy (higher priority sheds later).
            Topologies absent from the map shed only at full capacity,
            like ``tail-drop``.  Build from a tenant registry with
            :func:`tenant_priorities`.

    Every shed decision is audited with no setting of its own: the
    run's ``StatisticServer`` keeps exact shed totals, and an observer
    receives each decision as a ``shed`` trace event.
    """

    queue_capacity: int = 64
    high_watermark: float = 0.8
    low_watermark: float = 0.4
    shedding: str = "none"
    priorities: Tuple[Tuple[str, int], ...] = ()

    def __post_init__(self) -> None:
        if not isinstance(self.queue_capacity, int) or isinstance(
            self.queue_capacity, bool
        ) or self.queue_capacity < 1:
            raise ConfigError("flow queue_capacity must be an int >= 1")
        if not 0.0 < self.high_watermark <= 1.0:
            raise ConfigError("flow high_watermark must be in (0, 1]")
        if not 0.0 <= self.low_watermark < self.high_watermark:
            raise ConfigError(
                "flow low_watermark must be in [0, high_watermark)"
            )
        if self.shedding not in SHEDDING_POLICIES:
            raise ConfigError(
                f"flow shedding must be one of {SHEDDING_POLICIES}, "
                f"got {self.shedding!r}"
            )
        for pair in self.priorities:
            if (
                not isinstance(pair, tuple)
                or len(pair) != 2
                or not isinstance(pair[0], str)
                or not isinstance(pair[1], int)
                or isinstance(pair[1], bool)
            ):
                raise ConfigError(
                    "flow priorities must be (topology_id, int) pairs, "
                    f"got {pair!r}"
                )


def tenant_priorities(
    tenants: Dict[str, object], owners: Dict[str, str]
) -> Tuple[Tuple[str, int], ...]:
    """Topology -> tenant-priority pairs for ``priority`` shedding.

    Args:
        tenants: ``tenant_id -> Tenant`` registry (anything with a
            ``priority`` attribute works).
        owners: ``topology_id -> tenant_id`` ownership map, e.g.
            :meth:`repro.nimbus.tenancy.TenancyController.owners`.

    Topologies owned by an unregistered tenant are skipped (they shed
    at full capacity, like ``tail-drop``).
    """
    pairs = []
    for topology_id in sorted(owners):
        tenant = tenants.get(owners[topology_id])
        if tenant is not None:
            pairs.append((topology_id, int(tenant.priority)))
    return tuple(pairs)


class CreditLedger:
    """Per-edge credit accounting — the backpressure state machine.

    The ledger tracks ``outstanding`` batches on one producer->consumer
    edge: a *send* consumes a credit, a *drain* (the batch leaving the
    consumer's queue, serviced or shed) returns it.  Conservation
    invariant, property-tested with hypothesis::

        sends == drains + outstanding     and     outstanding >= 0

    Watermark semantics: the edge *stalls* its producer when occupancy
    (``outstanding / pool``) reaches ``high_watermark`` and *resumes* it
    when occupancy falls back to ``low_watermark``.  ``outstanding`` may
    legitimately exceed the stall threshold — and even the pool — by
    deliveries that were already in flight on the wire when the producer
    stalled; they are accounted, never lost.
    """

    __slots__ = (
        "pool", "outstanding", "sends", "drains", "stalled",
        "stall_count", "_stall_at", "_resume_at", "topology_id",
        "producer", "consumer",
    )

    def __init__(self, pool: int, high_watermark: float,
                 low_watermark: float, topology_id: str = "",
                 producer: str = "", consumer: str = ""):
        self.outstanding = 0
        self.sends = 0
        self.drains = 0
        self.stalled = False
        self.stall_count = 0
        #: the edge inside a run, by name: its topology and its producer
        #: and consumer components.  A name, not the producer's
        #: :class:`FlowProducer`, which holds the ledger: the ledger
        #: holding it back would close a reference cycle.
        self.topology_id = topology_id
        self.producer = producer
        self.consumer = consumer
        self.resize(pool, high_watermark, low_watermark)

    def resize(self, pool: int, high_watermark: float,
               low_watermark: float) -> bool:
        """Set the pool and its batch thresholds, keeping the counts (a
        rescale changes the consumer's task count, not the batches
        already sent).  True when the new thresholds stall or resume
        the edge: an open edge at or over the new stall threshold
        stalls, and a stalled edge resumes only at or under the new
        resume threshold, as a send or a drain would."""
        if pool < 1:
            raise ValueError("credit pool must be >= 1")
        self.pool = pool
        # Precomputed batch thresholds; >= _stall_at stalls, <=
        # _resume_at resumes.  _stall_at is at least 1 so a pool-of-one
        # edge still stalls, and _resume_at is strictly below _stall_at
        # (hysteresis) because low_watermark < high_watermark.
        self._stall_at = max(1, int(round(pool * high_watermark)))
        self._resume_at = min(
            int(pool * low_watermark), self._stall_at - 1
        )
        was = self.stalled
        if was:
            self.stalled = self.outstanding > self._resume_at
        elif self.outstanding >= self._stall_at:
            self.stalled = True
            self.stall_count += 1
        return self.stalled != was

    def send(self) -> bool:
        """Consume one credit; True when this send stalls the edge."""
        self.sends += 1
        self.outstanding += 1
        if not self.stalled and self.outstanding >= self._stall_at:
            self.stalled = True
            self.stall_count += 1
            return True
        return False

    def drain(self) -> bool:
        """Return one credit; True when this drain resumes the edge."""
        self.drains += 1
        self.outstanding -= 1
        if self.outstanding < 0:  # pragma: no cover - invariant guard
            raise ValueError("edge drained more credits than were sent")
        if self.stalled and self.outstanding <= self._resume_at:
            self.stalled = False
            return True
        return False

    @property
    def available(self) -> int:
        """Credits left before the pool is fully consumed (may go
        negative for in-flight overshoot; see class docstring)."""
        return self.pool - self.outstanding

    def conserved(self) -> bool:
        """The conservation invariant (for tests/audits)."""
        return (
            self.sends == self.drains + self.outstanding
            and self.outstanding >= 0
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"CreditLedger(pool={self.pool}, outstanding={self.outstanding},"
            f" stalled={self.stalled})"
        )


class FlowProducer:
    """One producer component's backpressure state in a run.

    Stall state is per component: a producer stalls when *any* of its
    out edges is saturated, and resumes only when none is.  Its ledgers
    name it rather than point at it (see :class:`CreditLedger`).
    """

    __slots__ = ("topology_id", "name", "is_spout", "tasks", "out",
                 "stalled_edges", "stalled_since")

    def __init__(self, topology_id: str, name: str, is_spout: bool):
        self.topology_id = topology_id
        self.name = name
        self.is_spout = is_spout
        #: the component's live task runtimes
        self.tasks: List = []
        #: consumer component -> the edge's ledger
        self.out: Dict[str, CreditLedger] = {}
        #: out edges currently stalled
        self.stalled_edges = 0
        #: sim time the current stall began (read for spouts: the
        #: throttled-spout-time metric)
        self.stalled_since = 0.0


@dataclass(frozen=True)
class SheddingPolicy:
    """Threshold-based shedding decision for one topology's queues.

    ``threshold(topology_id)`` returns the occupancy (in batches, against
    ``queue_capacity``) at which a batch bound for that topology is shed;
    ``None`` means never shed (the ``none`` policy).  The ``priority``
    policy maps tenant priority rank onto a threshold between
    ``_PRIORITY_FLOOR * capacity`` (lowest priority — sheds first) and
    ``capacity`` (highest priority — sheds last, like ``tail-drop``).
    """

    name: str
    capacity: int
    #: topology_id -> shed threshold in batches (missing -> default)
    thresholds: Dict[str, int] = field(default_factory=dict)

    def threshold(self, topology_id: str) -> Optional[int]:
        if self.name == "none":
            return None
        return self.thresholds.get(topology_id, self.capacity)

    def should_shed(self, topology_id: str, occupancy: int) -> bool:
        """Shed a batch arriving while ``occupancy`` batches queue?"""
        cut = self.threshold(topology_id)
        return cut is not None and occupancy >= cut


def make_policy(config: FlowControlConfig) -> SheddingPolicy:
    """Build the configured shedding policy.

    For ``priority``, tenant priorities are normalised by rank: with
    priorities ``{0, 1, 2}`` registered, priority-0 topologies shed at
    50% occupancy, priority-1 at 75%, priority-2 only when full — gold
    sheds last.  A single registered priority class (or none) behaves
    exactly like ``tail-drop``.
    """
    capacity = config.queue_capacity
    if config.shedding != "priority" or not config.priorities:
        return SheddingPolicy(name=config.shedding, capacity=capacity)
    top = max(priority for _, priority in config.priorities)
    thresholds: Dict[str, int] = {}
    for topology_id, priority in config.priorities:
        rank = (priority + 1) / (top + 1)  # (0, 1], 1.0 for the top class
        span = _PRIORITY_FLOOR + (1.0 - _PRIORITY_FLOOR) * rank
        thresholds[topology_id] = max(1, int(round(capacity * span)))
    return SheddingPolicy(
        name="priority", capacity=capacity, thresholds=thresholds
    )


class FlowControl:
    """A run's flow layer: its shedding policy and every topology's
    credit edges.  An edge's :class:`CreditLedger` is
    created once; the producer's routes hold it, and every batch sent
    on the edge carries it until it drains."""

    __slots__ = ("config", "policy", "producers")

    def __init__(self, config: FlowControlConfig):
        self.config = config
        #: the shedding policy; None when it never sheds
        self.policy: Optional[SheddingPolicy] = (
            None if config.shedding == "none" else make_policy(config)
        )
        #: topology id -> component -> its producer state
        self.producers: Dict[str, Dict[str, FlowProducer]] = {}

    def size(
        self, topology: "Topology", runtimes: Mapping["Task", object]
    ) -> List[CreditLedger]:
        """(Re)size ``topology``'s credit edges to its live generation:
        each pool is ``queue_capacity`` times the consumer's task count.
        Binds each producer to its live tasks (``runtimes[task]``) and
        returns the ledgers the resize stalled or resumed, in
        component-name order, for the caller to apply."""
        config = self.config
        high, low = config.high_watermark, config.low_watermark
        topology_id = topology.topology_id
        producers = self.producers.setdefault(topology_id, {})
        flipped = []
        for name in sorted({t.component for t in topology.tasks}):
            if name not in producers:
                is_spout = topology.component(name).is_spout
                producers[name] = FlowProducer(topology_id, name, is_spout)
            producer = producers[name]
            producer.tasks = [runtimes[t] for t in topology.tasks_of(name)]
            for consumer in topology.downstream_of(name):
                pool = config.queue_capacity * len(topology.tasks_of(consumer))
                ledger = producer.out.get(consumer)
                if ledger is None:
                    producer.out[consumer] = CreditLedger(
                        pool, high, low, topology_id, name, consumer
                    )
                elif ledger.resize(pool, high, low):
                    flipped.append(ledger)
        return flipped
