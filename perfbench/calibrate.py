"""The calibration loop and the arithmetic that divides it out.

Wall time of identical code drifts between processes and over minutes
on a shared machine (CPU frequency, neighbours, cache pressure).  The
benchmark therefore times a fixed, stdlib-only loop just before and just
after every measured span and reports

    calibrated = raw * calib_ref_s / mean(calib_before, calib_after)

i.e. the span expressed in seconds of the reference machine whose loop
time is the pinned ``calib_ref_s``.  The loop is shaped like the DES hot
path it stands in for: ``(t, seq, fn, args)`` heap entries pushed and
popped through :mod:`heapq`, ``__slots__`` objects, bound-method calls
and dict access.
"""

from __future__ import annotations

import heapq
import time
from typing import Dict, List, Sequence, Tuple

#: Events each calibration run pushes through its heap.
CALIB_EVENTS = 25_000
#: Concurrent self-rescheduling streams (heap width).
CALIB_STREAMS = 64


class _Stream:
    __slots__ = ("key", "step", "fired")

    def __init__(self, key: str, step: float) -> None:
        self.key = key
        self.step = step
        self.fired = 0

    def fire(self, counts: Dict[str, int], now: float) -> float:
        self.fired += 1
        counts[self.key] = counts.get(self.key, 0) + 1
        return now + self.step * (1 + (self.fired & 7))


def calibration_loop() -> int:
    """Run the fixed calibration work; returns a checksum so the work
    cannot be skipped."""
    streams = [
        _Stream(f"s{i}", 1e-3 * (1 + i % 5)) for i in range(CALIB_STREAMS)
    ]
    heap: List[Tuple[float, int, object, Tuple[object, ...]]] = []
    counts: Dict[str, int] = {}
    push, pop = heapq.heappush, heapq.heappop
    seq = 0
    for stream in streams:
        seq += 1
        push(heap, (stream.step, seq, stream.fire, (counts,)))
    for _ in range(CALIB_EVENTS):
        now, _, fn, args = pop(heap)
        seq += 1
        push(heap, (fn(*args, now), seq, fn, args))  # type: ignore[operator]
    return sum(counts.values())


def time_calibration() -> float:
    """Seconds one :func:`calibration_loop` takes right now."""
    started = time.perf_counter()
    calibration_loop()
    return time.perf_counter() - started


def calibrated(raw_s: float, calib_s: Sequence[float], ref_s: float) -> float:
    """``raw_s`` rescaled to the reference machine: ``raw_s * ref_s``
    divided by the mean of the calibration times bracketing it."""
    if not calib_s:
        raise ValueError("calibrated() needs at least one calibration time")
    mean = sum(calib_s) / len(calib_s)
    if mean <= 0:
        raise ValueError("calibration times must be positive")
    return raw_s * ref_s / mean
