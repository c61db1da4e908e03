"""Benchmark harness: timing, JSON persistence, baseline comparison.

A :class:`Benchmark` is a named recipe: ``prepare()`` builds the
workload outside the timed section and returns a zero-argument callable;
calling that workload performs the measured work and returns the number
of *events* it processed (DES events, task assignments — whatever unit
the benchmark's throughput is counted in).  The event count must be a
deterministic function of the benchmark definition: repeats are asserted
identical, and CI asserts them against the committed baseline exactly.

:func:`run_benchmark` times ``repeats`` fresh workloads with the garbage
collector disabled and reports median/p90 wall seconds, events/sec (at
the median) and the peak RSS over the probe's own repeats (process-wide
where the kernel cannot reset the high-water mark; ``meta`` records
which).  A fixed stdlib calibration loop is timed before the first
repeat and after every repeat, so each repeat is bracketed by two loop
runs; ``calibrated_median`` is the median over repeats of the repeat
time divided by the mean of its two brackets.  That ratio, not the raw
median, is what :func:`compare_results` gates, so a machine that runs
everything 1.6x slower moves the loop and the probe alike and the gate
holds.  Results serialise to ``BENCH_<name>.json`` via
:func:`write_result`.
"""

from __future__ import annotations

import gc
import heapq
import json
import math
import pathlib
import platform
import resource
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import ConfigError

__all__ = [
    "Benchmark",
    "BenchResult",
    "CheckFailure",
    "compare_results",
    "load_result",
    "result_filename",
    "run_benchmark",
    "write_result",
]

#: Schema version stamped into every BENCH_*.json.
SCHEMA = 1

#: Events each calibration run pushes through its heap, and the number
#: of self-rescheduling streams (the heap's width): the loop of
#: ``perfbench/calibrate.py``, shaped like the DES hot path it stands
#: in for — ``(t, seq, fn, args)`` heap entries, ``__slots__`` objects,
#: bound-method calls and dict access.
CALIB_EVENTS = 25_000
CALIB_STREAMS = 64


class _CalibStream:
    __slots__ = ("key", "step", "fired")

    def __init__(self, key: str, step: float) -> None:
        self.key = key
        self.step = step
        self.fired = 0

    def fire(self, counts: Dict[str, int], now: float) -> float:
        self.fired += 1
        counts[self.key] = counts.get(self.key, 0) + 1
        return now + self.step * (1 + (self.fired & 7))


def _calibration_loop() -> int:
    """Run the fixed calibration work; returns a checksum so the work
    cannot be skipped."""
    streams = [
        _CalibStream(f"s{i}", 1e-3 * (1 + i % 5)) for i in range(CALIB_STREAMS)
    ]
    heap: List[Tuple[float, int, Any, Tuple[Any, ...]]] = []
    counts: Dict[str, int] = {}
    push, pop = heapq.heappush, heapq.heappop
    seq = 0
    for stream in streams:
        seq += 1
        push(heap, (stream.step, seq, stream.fire, (counts,)))
    for _ in range(CALIB_EVENTS):
        now, _, fn, args = pop(heap)
        seq += 1
        push(heap, (fn(*args, now), seq, fn, args))
    return sum(counts.values())


def _calibration_s() -> float:
    """Seconds one :func:`_calibration_loop` takes right now."""
    start = time.perf_counter()
    _calibration_loop()
    return time.perf_counter() - start


@dataclass(frozen=True)
class Benchmark:
    """One registered microbenchmark.

    Attributes:
        name: Stable identifier (also the ``BENCH_<name>.json`` stem;
            dashes allowed, no spaces).
        description: One-line human summary printed by ``--list``.
        prepare: Builds the workload (untimed) and returns the timed
            callable, which returns its event count.
        repeats: Default repeat count; heavyweight end-to-end probes set
            this lower than the micro loops.
    """

    name: str
    description: str
    prepare: Callable[[], Callable[[], int]]
    repeats: int = 5


@dataclass
class BenchResult:
    """Measured outcome of one benchmark (or a loaded baseline).

    ``calib_s`` is the median calibration-loop time of the run and
    ``calibrated_median`` the median repeat time in calibration loops
    (see the module docstring); both are 0.0 in a baseline recorded
    before calibration existed.
    """

    name: str
    repeats: int
    times_s: List[float]
    median_s: float
    p90_s: float
    events: int
    events_per_sec: float
    peak_rss_kb: int
    calib_s: float = 0.0
    calibrated_median: float = 0.0
    meta: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": SCHEMA,
            "name": self.name,
            "repeats": self.repeats,
            "times_s": [round(t, 6) for t in self.times_s],
            "median_s": round(self.median_s, 6),
            "p90_s": round(self.p90_s, 6),
            "events": self.events,
            "events_per_sec": round(self.events_per_sec, 1),
            "peak_rss_kb": self.peak_rss_kb,
            "calib_s": round(self.calib_s, 6),
            "calibrated_median": round(self.calibrated_median, 6),
            "meta": self.meta,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "BenchResult":
        return cls(
            name=payload["name"],
            repeats=payload["repeats"],
            times_s=list(payload["times_s"]),
            median_s=payload["median_s"],
            p90_s=payload["p90_s"],
            events=payload["events"],
            events_per_sec=payload["events_per_sec"],
            peak_rss_kb=payload["peak_rss_kb"],
            calib_s=payload.get("calib_s", 0.0),
            calibrated_median=payload.get("calibrated_median", 0.0),
            meta=dict(payload.get("meta", {})),
        )


def _median(values: List[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def _p90(values: List[float]) -> float:
    ordered = sorted(values)
    index = min(len(ordered) - 1, math.ceil(0.9 * len(ordered)) - 1)
    return ordered[max(index, 0)]


def _reset_peak_rss() -> bool:
    """Lower the kernel's RSS high-water mark to the current RSS, so the
    next :func:`_peak_rss_kb` reads the peak of what ran since (Linux
    4.0+ ``/proc/self/clear_refs``).  Returns False where unsupported:
    the peak then stays process-wide, inheriting earlier probes' peaks.
    """
    try:
        with open("/proc/self/clear_refs", "w") as refs:
            refs.write("5")
    except OSError:
        return False
    return True


def _peak_rss_kb() -> int:
    """High-water-mark RSS in KiB since the last successful
    :func:`_reset_peak_rss`, else since process start (ru_maxrss is KiB
    on Linux, bytes on macOS)."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if platform.system() == "Darwin":  # pragma: no cover - linux CI
        peak //= 1024
    return int(peak)


def run_benchmark(bench: Benchmark, repeats: Optional[int] = None) -> BenchResult:
    """Time ``repeats`` fresh workloads of ``bench``.

    Each repeat calls ``bench.prepare()`` outside the timed window, then
    times the returned workload with GC disabled, followed by one
    calibration loop, which is also the "before" bracket of the next
    repeat (the first repeat's comes right before it).  Raises
    :class:`~repro.errors.ConfigError` if repeats disagree on the event
    count — a benchmark that does nondeterministic work cannot be gated.
    """
    count = bench.repeats if repeats is None else repeats
    if count < 1:
        raise ConfigError(f"repeats must be >= 1, got {count}")
    times: List[float] = []
    calibs: List[float] = []
    events: Optional[int] = None
    rss_scope = "probe" if _reset_peak_rss() else "process"
    for _ in range(count):
        workload = bench.prepare()
        gc_was_enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            if not calibs:
                calibs.append(_calibration_s())
            start = time.perf_counter()
            seen = workload()
            elapsed = time.perf_counter() - start
            calibs.append(_calibration_s())
        finally:
            if gc_was_enabled:
                gc.enable()
        if events is None:
            events = int(seen)
        elif int(seen) != events:
            raise ConfigError(
                f"benchmark {bench.name!r} is nondeterministic: "
                f"{seen} events vs {events} on an earlier repeat"
            )
        times.append(elapsed)
    assert events is not None
    median = _median(times)
    calibrated = [
        raw / ((before + after) / 2.0)
        for raw, before, after in zip(times, calibs, calibs[1:])
    ]
    return BenchResult(
        name=bench.name,
        repeats=count,
        times_s=times,
        median_s=median,
        p90_s=_p90(times),
        events=events,
        events_per_sec=events / median if median > 0 else float("inf"),
        peak_rss_kb=_peak_rss_kb(),
        calib_s=_median(calibs),
        calibrated_median=_median(calibrated),
        meta={
            "python": platform.python_version(),
            "machine": platform.machine(),
            "system": platform.system(),
            "peak_rss_scope": rss_scope,
        },
    )


# -- persistence -------------------------------------------------------------


def result_filename(name: str) -> str:
    """``BENCH_<name>.json`` with dashes normalised to underscores."""
    return f"BENCH_{name.replace('-', '_')}.json"


def write_result(result: BenchResult, directory: str) -> str:
    out_dir = pathlib.Path(directory)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / result_filename(result.name)
    path.write_text(json.dumps(result.to_dict(), indent=2, sort_keys=True) + "\n")
    return str(path)


def load_result(directory: str, name: str) -> Optional[BenchResult]:
    """Load ``BENCH_<name>.json`` from ``directory`` (None if absent)."""
    path = pathlib.Path(directory) / result_filename(name)
    if not path.is_file():
        return None
    return BenchResult.from_dict(json.loads(path.read_text()))


# -- baseline comparison -----------------------------------------------------


@dataclass(frozen=True)
class CheckFailure:
    """One way a fresh result deviated from its baseline."""

    benchmark: str
    reason: str


def compare_results(
    fresh: BenchResult, baseline: BenchResult, tolerance: float
) -> List[CheckFailure]:
    """Gate ``fresh`` against ``baseline``.

    Event counts must match *exactly* (they are deterministic); the
    calibrated median may regress up to ``tolerance`` x the baseline's.
    There is no raw-time fallback: a baseline without ``calib_s`` fails
    and must be re-recorded.  Being faster than baseline never fails.
    """
    if tolerance < 1.0:
        raise ConfigError(f"tolerance must be >= 1.0, got {tolerance}")
    failures: List[CheckFailure] = []
    if fresh.events != baseline.events:
        failures.append(
            CheckFailure(
                fresh.name,
                f"events diverged: {fresh.events} vs baseline "
                f"{baseline.events} (determinism regression)",
            )
        )
    if baseline.median_s <= 0:
        failures.append(
            CheckFailure(
                fresh.name,
                f"baseline median {baseline.median_s:.4f}s is not positive "
                "(corrupt baseline; re-record it)",
            )
        )
    elif not (baseline.calib_s > 0 and baseline.calibrated_median > 0):
        failures.append(
            CheckFailure(
                fresh.name,
                "baseline has no calib_s (recorded before the calibrated "
                "gate); re-record it per docs/performance.md",
            )
        )
    elif fresh.calibrated_median > baseline.calibrated_median * tolerance:
        slower = fresh.calibrated_median / baseline.calibrated_median
        failures.append(
            CheckFailure(
                fresh.name,
                f"calibrated median {fresh.calibrated_median:.3f} exceeds "
                f"baseline {baseline.calibrated_median:.3f} x {tolerance:g} "
                f"tolerance ({slower:.2f}x slower; raw median "
                f"{fresh.median_s:.4f}s vs {baseline.median_s:.4f}s)",
            )
        )
    return failures
