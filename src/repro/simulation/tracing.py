"""Typed event tracing for simulation runs.

A :class:`~repro.simulation.runtime.SimulationRun` has one ``observer``
slot, ``None`` by default.  When it holds a callable, every traced
transition — spout emissions and replays, batch deliveries, acks and
timeouts, flow-control stalls/resumes/sheds, worker crashes, node
failures and rejoins, migrations and rescales — may call it with one
:class:`TraceEvent`.  The fault injector, the failure detector and
Nimbus report ``inject``, ``expire`` and ``reschedule`` through the same
slot.

An observer may declare ``KINDS``, the event kinds it reads.  The run
builds the per-batch kinds (:data:`BATCH_KINDS`) only for an observer
that has no ``KINDS`` or names one of them (:func:`wants_batches`), so
a monitor of the control plane costs nothing per batch.  Other kinds
may still reach it, and it ignores them.  An observer without ``KINDS``
(a :class:`Tracer`, ``list.append``, a lambda) receives every kind.
With the slot empty each transition pays a single ``is not None`` test,
so untraced runs are unchanged.

:class:`Tracer` is the general-purpose observer: it keeps the latest
events in a bounded ring buffer so long runs cannot exhaust memory.
Used for debugging schedules and for tests that assert on event
causality rather than aggregate counters.
:class:`~repro.faults.monitor.RecoveryMonitor` is a second observer that
keeps only the control-plane events it measures recovery from.
:class:`Observers` puts several observers in the one slot and hands
each only the kinds it reads.

Usage::

    tracer = Tracer(capacity=50_000)
    run = SimulationRun(cluster, placements, config)
    run.observer = tracer              # or Observers(tracer, monitor)
    run.run()
    for event in tracer.query(kind="crash"):
        print(event.time, event.task)

Events are records with fixed fields, read as attributes; ``str(event)``
renders one for people and is never parsed.
"""

from __future__ import annotations

from collections import deque
from enum import Enum
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Deque,
    Dict,
    FrozenSet,
    Iterable,
    List,
    NamedTuple,
    Optional,
    Tuple,
)

if TYPE_CHECKING:
    from repro.cluster.network import DistanceLevel
    from repro.topology.task import Task

__all__ = [
    "BATCH_KINDS",
    "EventKind",
    "Observers",
    "TraceEvent",
    "Tracer",
    "query_events",
    "wants_batches",
]


class EventKind(str, Enum):
    """What a :class:`TraceEvent` records.  Members compare equal to
    their lower-case string values, so ``kind="crash"`` filters work."""

    EMIT = "emit"
    REPLAY = "replay"
    DELIVER = "deliver"
    ACK = "ack"
    FAIL = "fail"
    STALL = "stall"
    RESUME = "resume"
    SHED = "shed"
    CRASH = "crash"
    NODE_DOWN = "node_down"
    NODE_UP = "node_up"
    MIGRATE = "migrate"
    RESCALE = "rescale"
    INJECT = "inject"
    EXPIRE = "expire"
    RESCHEDULE = "reschedule"

    def __str__(self) -> str:
        return self.value


class TraceEvent(NamedTuple):
    """One traced occurrence.  Fields a kind does not use stay ``None``.

    Attributes:
        time: Simulated time in seconds.
        kind: The :class:`EventKind`.
        topology: Topology id (empty for cluster-level events).
        task: The task it happened at (``emit``, ``replay``,
            ``deliver``: the consumer, ``crash``).
        component: The component it happened at (``stall``/``resume``:
            the paused producer, ``shed``).
        peer: The consumer component of a ``stall``/``resume`` edge.
        node: The node (``node_down``, ``node_up``, ``expire``).
        tuples: Batch size (``emit``, ``replay``, ``deliver``, ``shed``,
            ``fail``).
        root: Tuple-tree root id (``deliver``; ``replay``: the fresh one).
        origin: Root id of the original emission a ``replay`` re-emits.
        attempt: Replay attempt, 1 for the first.
        level: Network distance a ``deliver`` crossed.
        latency: Emit-to-ack latency of an ``ack``, in seconds.
        moved: Tasks that changed slot (``migrate``, ``rescale``).
        added: Tasks a ``rescale`` added.
        removed: Tasks a ``rescale`` removed.
        reason: ``migrate``: ``"fault"`` or ``"elastic"``; ``shed``:
            the stage (``"ingress"`` or ``"queue"``); ``crash``: the cause.
        fault: Description of an injected fault (``inject``).
    """

    time: float
    kind: EventKind
    topology: str = ""
    task: Optional[Task] = None
    component: Optional[str] = None
    peer: Optional[str] = None
    node: Optional[str] = None
    tuples: Optional[int] = None
    root: Optional[int] = None
    origin: Optional[int] = None
    attempt: Optional[int] = None
    level: Optional[DistanceLevel] = None
    latency: Optional[float] = None
    moved: Optional[int] = None
    added: Optional[int] = None
    removed: Optional[int] = None
    reason: Optional[str] = None
    fault: Optional[str] = None

    def __str__(self) -> str:
        fields = " ".join(
            f"{name}={getattr(value, 'name', value)}"
            for name, value in zip(self._fields[3:], self[3:])
            if value is not None
        )
        return f"[{self.time:10.4f}s] {self.kind:10s} {self.topology} {fields}"


#: the kinds a run reports per batch or per flow-control edge event;
#: every other kind marks a rare control-plane transition
BATCH_KINDS: FrozenSet[EventKind] = frozenset({
    EventKind.EMIT, EventKind.DELIVER, EventKind.ACK, EventKind.FAIL,
    EventKind.SHED, EventKind.STALL, EventKind.RESUME,
})


def wants_batches(observer: Optional[Callable[[TraceEvent], Any]]) -> bool:
    """Whether a run must build per-batch events for ``observer``: it is
    set and either has no ``KINDS`` or names a kind in
    :data:`BATCH_KINDS`."""
    if observer is None:
        return False
    kinds = getattr(observer, "KINDS", None)
    return kinds is None or not BATCH_KINDS.isdisjoint(kinds)


def query_events(
    events: Iterable[TraceEvent],
    kind: Optional[str] = None,
    topology: Optional[str] = None,
    since: float = 0.0,
    until: float = float("inf"),
) -> List[TraceEvent]:
    """Filter ``events`` by kind, topology and time window."""
    return [
        event
        for event in events
        if (kind is None or event.kind == kind)
        and (topology is None or event.topology == topology)
        and since <= event.time <= until
    ]


class Tracer:
    """Bounded ring buffer of every event a run reports.

    Set it as a run's ``observer``; once full, each new event evicts the
    oldest and counts in :attr:`dropped`.
    """

    def __init__(self, capacity: int = 100_000):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._events: Deque[TraceEvent] = deque(maxlen=capacity)
        self.dropped = 0

    def __call__(self, event: TraceEvent) -> None:
        if len(self._events) == self.capacity:
            self.dropped += 1
        self._events.append(event)

    # -- queries ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._events)

    def events(self) -> List[TraceEvent]:
        return list(self._events)

    def query(
        self,
        kind: Optional[str] = None,
        topology: Optional[str] = None,
        since: float = 0.0,
        until: float = float("inf"),
    ) -> List[TraceEvent]:
        """Filter the trace by kind, topology and time window."""
        return query_events(self._events, kind, topology, since, until)

    def counts_by_kind(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for event in self._events:
            counts[event.kind] = counts.get(event.kind, 0) + 1
        return counts


class Observers:
    """Several observers in one run's slot.

    Each event goes only to the members whose ``KINDS`` contain its
    kind, or that have no ``KINDS``.  :attr:`KINDS` is the union of the
    members' kinds, or ``None`` when a member reads every kind, so the
    run builds per-batch events only if some member reads them.  With a
    single observer, set it directly: there is nothing to fan out.
    """

    def __init__(self, *members: Callable[[TraceEvent], Any]):
        kinds = [getattr(member, "KINDS", None) for member in members]
        self.KINDS: Optional[FrozenSet[str]] = (
            None if None in kinds else frozenset().union(*kinds)
        )
        self._routes: Dict[str, Tuple[Callable[[TraceEvent], Any], ...]] = {
            kind: tuple(
                member
                for member, read in zip(members, kinds)
                if read is None or kind in read
            )
            for kind in EventKind
        }

    def __call__(self, event: TraceEvent) -> None:
        for member in self._routes[event.kind]:
            member(event)
