"""Microbenchmark subsystem: seeded, deterministic performance probes.

``repro bench`` measures the hot paths every experiment leans on — the
DES event loop, the tuple-batch routing path, the scheduler rounds and
the fault-injected coordination plane — plus an end-to-end figure-9
wall-clock probe.  Each benchmark emits a machine-readable
``BENCH_<name>.json`` (median/p90 wall seconds over N repeats,
events/sec, peak RSS, the calibration-loop time ``calib_s`` and the
calibrated median) that CI compares against the committed baselines in
``benchmarks/baseline/`` (see ``docs/performance.md``).

Three invariants make the numbers trustworthy:

* every benchmark is a deterministic function of its seed, so the
  *work* (``events``) is exactly reproducible — CI asserts the counts
  exactly;
* the timed section excludes setup (cluster/topology construction,
  scheduling where the benchmark targets the simulator) and runs with
  the garbage collector disabled, so repeats measure the hot path, not
  allocator noise;
* each repeat is divided by the mean of the fixed stdlib calibration
  loops timed right before and right after it, so the gated number is
  a ratio to the machine's speed at that moment, not raw seconds from
  whichever machine recorded the baseline.
"""

from repro import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.bench.core": (
            "Benchmark",
            "BenchResult",
            "CheckFailure",
            "compare_results",
            "load_result",
            "result_filename",
            "run_benchmark",
            "write_result",
        ),
        "repro.bench.suites": ("REGISTRY",),
    },
)
