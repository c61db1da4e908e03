"""Tests for the benchmark harness (timing, persistence, comparison)."""

import json

import pytest

from repro.bench.core import (
    Benchmark,
    BenchResult,
    _median,
    _p90,
    compare_results,
    load_result,
    result_filename,
    run_benchmark,
    write_result,
)
from repro.errors import ConfigError


def _constant_benchmark(events=100, repeats=3):
    return Benchmark(
        name="toy-bench",
        description="constant workload",
        prepare=lambda: (lambda: events),
        repeats=repeats,
    )


class TestRunBenchmark:
    def test_runs_requested_repeats(self):
        result = run_benchmark(_constant_benchmark(repeats=3))
        assert result.repeats == 3
        assert len(result.times_s) == 3
        assert result.events == 100
        assert result.events_per_sec > 0
        assert result.peak_rss_kb > 0
        assert result.meta["system"]

    def test_peak_rss_is_per_probe(self):
        hog = Benchmark(
            name="hog",
            description="touches 64 MiB",
            prepare=lambda: (lambda: len(b"x" * (64 << 20)) >> 26),
            repeats=1,
        )
        big = run_benchmark(hog)
        small = run_benchmark(_constant_benchmark(repeats=1))
        if small.meta["peak_rss_scope"] != "probe":
            pytest.skip("this kernel cannot reset the RSS high-water mark")
        # The small probe no longer inherits the hog's 64 MiB peak.
        assert small.peak_rss_kb < big.peak_rss_kb - 32 * 1024

    def test_repeats_override(self):
        result = run_benchmark(_constant_benchmark(repeats=5), repeats=1)
        assert result.repeats == 1
        assert len(result.times_s) == 1

    def test_zero_repeats_rejected(self):
        with pytest.raises(ConfigError):
            run_benchmark(_constant_benchmark(), repeats=0)

    def test_nondeterministic_events_rejected(self):
        counter = iter(range(100))
        bench = Benchmark(
            name="flaky",
            description="returns a different count every repeat",
            prepare=lambda: (lambda: next(counter)),
            repeats=2,
        )
        with pytest.raises(ConfigError, match="nondeterministic"):
            run_benchmark(bench)

    def test_prepare_runs_outside_timed_window(self):
        # Each repeat gets a *fresh* workload from prepare().
        prepared = []

        def prepare():
            prepared.append(True)
            return lambda: 1

        bench = Benchmark(
            name="fresh", description="", prepare=prepare, repeats=4
        )
        run_benchmark(bench)
        assert len(prepared) == 4


class TestStatistics:
    def test_median_odd_even(self):
        assert _median([3.0, 1.0, 2.0]) == 2.0
        assert _median([4.0, 1.0, 2.0, 3.0]) == 2.5

    def test_p90_picks_upper_tail(self):
        values = [float(i) for i in range(1, 11)]
        assert _p90(values) == 9.0
        assert _p90([5.0]) == 5.0


class TestPersistence:
    def test_filename_normalises_dashes(self):
        assert result_filename("engine-churn") == "BENCH_engine_churn.json"

    def test_write_load_roundtrip(self, tmp_path):
        result = run_benchmark(_constant_benchmark(repeats=2))
        path = write_result(result, str(tmp_path))
        assert path.endswith("BENCH_toy_bench.json")
        loaded = load_result(str(tmp_path), "toy-bench")
        assert loaded is not None
        assert loaded.name == result.name
        assert loaded.events == result.events
        assert loaded.repeats == result.repeats
        payload = json.loads((tmp_path / "BENCH_toy_bench.json").read_text())
        assert payload["schema"] == 1

    def test_load_missing_returns_none(self, tmp_path):
        assert load_result(str(tmp_path), "absent") is None


def _result(events=100, median=1.0):
    return BenchResult(
        name="toy-bench",
        repeats=3,
        times_s=[median] * 3,
        median_s=median,
        p90_s=median,
        events=events,
        events_per_sec=events / median if median > 0 else 0.0,
        peak_rss_kb=1,
    )


class TestCompare:
    def test_identical_passes(self):
        assert compare_results(_result(), _result(), tolerance=1.5) == []

    def test_faster_always_passes(self):
        fresh = _result(median=0.1)
        assert compare_results(fresh, _result(median=1.0), tolerance=1.0) == []

    def test_event_divergence_fails(self):
        failures = compare_results(
            _result(events=101), _result(events=100), tolerance=1.5
        )
        assert any("events diverged" in f.reason for f in failures)

    def test_regression_beyond_tolerance_fails(self):
        failures = compare_results(
            _result(median=2.0), _result(median=1.0), tolerance=1.5
        )
        assert any("exceeds baseline" in f.reason for f in failures)

    def test_regression_within_tolerance_passes(self):
        assert (
            compare_results(
                _result(median=1.4), _result(median=1.0), tolerance=1.5
            )
            == []
        )

    def test_zero_median_baseline_fails_without_raising(self):
        failures = compare_results(
            _result(median=0.5), _result(median=0.0), tolerance=1.5
        )
        assert [f.reason for f in failures] == [
            "baseline median 0.0000s is not positive "
            "(corrupt baseline; re-record it)"
        ]

    def test_tolerance_below_one_rejected(self):
        with pytest.raises(ConfigError):
            compare_results(_result(), _result(), tolerance=0.9)
