"""Tests for the benchmark registry and the engine-churn probe."""

from repro.bench.core import Benchmark
from repro.bench.suites import (
    ENGINE_CHURN_EVENTS,
    ENGINE_CHURN_STREAMS,
    REGISTRY,
    _prepare_engine_churn,
)

EXPECTED_NAMES = {
    "engine-churn",
    "tuple-routing",
    "sched-rstorm",
    "sched-default",
    "sched-aniello",
    "sched-scale",
    "nimbus-failover",
    "chaos-replay",
    "delivery-replay",
    "fig9-e2e",
    "traffic-overload",
    "overload-protect",
    "elastic-adapt",
    "tenant-admission",
}


class TestRegistry:
    def test_expected_benchmarks_registered(self):
        assert set(REGISTRY) == EXPECTED_NAMES

    def test_entries_are_well_formed(self):
        for name, bench in REGISTRY.items():
            assert isinstance(bench, Benchmark)
            assert bench.name == name
            assert bench.description
            assert callable(bench.prepare)
            assert bench.repeats >= 1


class TestEngineChurn:
    def test_exact_event_count(self):
        # The probe's event count is the determinism contract the CI
        # gate asserts exactly: initial events + every reschedule.
        workload = _prepare_engine_churn()
        assert workload() == ENGINE_CHURN_EVENTS

    def test_event_count_stable_across_prepares(self):
        assert _prepare_engine_churn()() == _prepare_engine_churn()()

    def test_streams_cover_whole_budget(self):
        assert ENGINE_CHURN_EVENTS % ENGINE_CHURN_STREAMS != 0, (
            "the budget split below only matters while the total does "
            "not divide evenly; update this test if the constants change"
        )
