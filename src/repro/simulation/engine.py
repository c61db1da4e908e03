"""Discrete-event simulation engine.

A minimal, fast event loop: callbacks scheduled at absolute simulated
times, executed in time order with FIFO tie-breaking (a monotonically
increasing sequence number).  All simulation times are in **seconds** of
simulated time.

Hot-path design (the loop carries every experiment in the repo):

* Events are ``(time, seq, action, args)`` heap entries.  Callers pass
  payload via ``*args`` instead of closing over it, so scheduling a
  tuple delivery allocates no closure/cell objects — only the heap
  tuple, which the heap needs anyway.
* :meth:`run` binds the heap, ``heappop`` and the horizon to locals and
  pops in a tight loop that reads each event once: the first event past
  the horizon is pushed back, instead of peeking at ``heap[0]`` before
  every pop.  ``__slots__`` keeps attribute access dict-free.
* ``now`` and ``events_processed`` are plain slot attributes, not
  properties: the runtime reads ``sim.now`` several times per event and
  a descriptor call there is measurable.  They are read-only by
  convention — only the engine assigns them.

Direct-push contract (for callers that schedule one event per batch):

* ``heap`` is the event heap and ``seq`` the counter issuing the FIFO
  tie-break numbers.  ``heappush(sim.heap, (time, next(sim.seq),
  action, args))`` with ``time >= sim.now`` is exactly
  :meth:`schedule_at` minus its past-time check and call frame; ``args``
  is the tuple ``action`` is called with.
* A direct push must take its seq from ``next(sim.seq)`` (never
  invent one), so direct and method-scheduled events interleave in the
  same ``(time, seq)`` order either way.
* Nothing checks ``time >= sim.now`` on a direct push, so the pusher
  must guarantee it.  The runtime's direct pushers are ``_start_work``
  (a completion: ``now`` plus a positive service time) and ``_route``
  (a delivery: ``now`` plus a transfer time and a link latency, which
  :class:`~repro.cluster.network.LinkProfile` requires to be
  non-negative and finite).
* The heap is push only while the run may still go on.  The owner of a
  finished run may clear it, since pending events hold bound methods
  and closures that reference their owner, and that reference cycle
  would keep the run alive until the cyclic collector runs.  A
  ``Simulator`` whose heap was cleared must not run again.

Horizon convention (the boundary every caller must agree on):

* ``run(until)`` is **inclusive**: events scheduled exactly at ``until``
  are processed, including events an ``until``-timed callback schedules
  at that same instant.  Events strictly after ``until`` stay queued.
* The clock ends at exactly ``until`` even if the heap drains earlier,
  and a repeated ``run(until)`` at the same horizon is a no-op.
* :meth:`peek_time` callers stepping a run manually should therefore use
  ``peek_time() <= horizon`` ("still due this run"), never ``<``.
"""

from __future__ import annotations

from heapq import heappop as _heappop, heappush as _heappush
from itertools import count
from typing import Any, Callable, Iterator, List, Optional, Tuple

from repro.errors import SimulationError

__all__ = ["Simulator"]

_Event = Tuple[float, int, Callable[..., None], Tuple[Any, ...]]


class Simulator:
    """Heap-based discrete-event loop.

    Attributes:
        now: Current simulated time in seconds (read-only by convention).
        events_processed: Events executed so far (read-only by
            convention; coherent between :meth:`run` calls, not while one
            is on the stack).
        heap: The ``(time, seq, action, args)`` event heap (push only
            until the run is finished, per the direct-push contract in
            the module docstring).
        seq: Counter issuing the FIFO tie-break sequence numbers.
    """

    __slots__ = ("now", "events_processed", "heap", "seq")

    def __init__(self) -> None:
        self.now = 0.0
        self.events_processed = 0
        self.heap: List[_Event] = []
        self.seq: Iterator[int] = count(1)

    def schedule_at(
        self, time: float, action: Callable[..., None], *args: Any
    ) -> None:
        """Run ``action(*args)`` at absolute simulated time ``time``.

        Passing payload through ``args`` (rather than a closure) keeps
        per-event allocation to the heap entry itself.

        Raises:
            SimulationError: if ``time`` is in the simulated past.
        """
        if time < self.now - 1e-12:
            raise SimulationError(
                f"cannot schedule event at {time} before now={self.now}"
            )
        _heappush(self.heap, (time, next(self.seq), action, args))

    def schedule_after(
        self, delay: float, action: Callable[..., None], *args: Any
    ) -> None:
        """Run ``action(*args)`` ``delay`` seconds from now (delay >= 0)."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        # Pushed directly rather than via schedule_at: a non-negative
        # delay can never land in the past.
        _heappush(self.heap, (self.now + delay, next(self.seq), action, args))

    def run(self, until: float) -> None:
        """Process events in order until simulated time ``until``.

        Events scheduled exactly at ``until`` are processed (inclusive
        horizon — see the module docstring); the clock ends at ``until``
        even if the heap drains earlier.
        """
        if until < self.now:
            raise SimulationError(
                f"cannot run backwards to {until} from now={self.now}"
            )
        heap = self.heap
        pop = _heappop
        processed = self.events_processed
        try:
            while heap:
                time, seq, action, args = pop(heap)
                if time > until:
                    # Not due yet: put it back (once per call).
                    _heappush(heap, (time, seq, action, args))
                    break
                self.now = time
                processed += 1
                action(*args)
        finally:
            self.events_processed = processed
        self.now = until

    def step(self) -> bool:
        """Process a single event; returns False when the heap is empty."""
        if not self.heap:
            return False
        time, _seq, action, args = _heappop(self.heap)
        self.now = time
        self.events_processed += 1
        action(*args)
        return True

    def peek_time(self) -> Optional[float]:
        return self.heap[0][0] if self.heap else None

    def __repr__(self) -> str:
        return (
            f"Simulator(now={self.now:.6f}, pending={len(self.heap)}, "
            f"processed={self.events_processed})"
        )
