"""Determinism regression: the same seeded experiment must produce an
identical :class:`~repro.simulation.report.SimulationReport` whether it
runs in-process, in a subprocess worker, or is replayed from a warm
cache.  This is the contract the result cache's correctness rests on —
if any nondeterminism leaked into the DES, cached rows would silently
stop representing what a fresh run produces.
"""

import json

from repro.cluster.builders import emulab_testbed
from repro.experiments import fig9_compute_bound
from repro.experiments.cache import ResultCache
from repro.experiments.parallel import (
    ExperimentContext,
    SimulationUnit,
    run_units,
    spec,
)
from repro.scheduler.rstorm import RStormScheduler
from repro.simulation.config import SimulationConfig
from repro.simulation.export import outcome_as_dict
from repro.workloads.micro import linear_topology


def _unit(trial=0):
    return SimulationUnit(
        scheduler=spec(RStormScheduler),
        topologies=(spec(linear_topology, "compute"),),
        cluster=spec(emulab_testbed),
        config=SimulationConfig(duration_s=40.0, warmup_s=10.0),
        trial=trial,
    )


def _snapshot(outcome) -> str:
    """Canonical JSON of everything an outcome reports: report,
    assignments and qualities must match byte for byte."""
    return json.dumps(outcome_as_dict(outcome), sort_keys=True)


class TestUnitDeterminism:
    def test_in_process_vs_subprocess_vs_warm_cache(self, tmp_path):
        unit = _unit()
        (inline,) = run_units([unit], jobs=1)

        # Two pending units force the process pool to actually spin up.
        cache = ResultCache(tmp_path / "c")
        subprocess_outcomes = run_units(
            [unit, _unit(trial=1)], jobs=2, cache=cache
        )
        assert cache.misses == 2 and cache.hits == 0

        (cached,) = run_units([unit], jobs=1, cache=cache)
        assert cache.hits == 1

        baseline = _snapshot(inline)
        assert _snapshot(subprocess_outcomes[0]) == baseline
        assert _snapshot(cached) == baseline

    def test_repeated_inline_runs_identical(self):
        first, second = run_units([_unit()], jobs=1), run_units([_unit()], jobs=1)
        assert _snapshot(first[0]) == _snapshot(second[0])


class TestExperimentDeterminism:
    def test_fig9_rows_and_series_stable_across_modes(self, tmp_path):
        duration = 30.0
        baseline = fig9_compute_bound.run(duration_s=duration)

        cache = ResultCache(tmp_path / "c")
        cold = fig9_compute_bound.run(
            duration_s=duration, context=ExperimentContext(jobs=2, cache=cache)
        )
        assert cache.hits == 0 and cache.misses > 0

        warm = fig9_compute_bound.run(
            duration_s=duration, context=ExperimentContext(jobs=1, cache=cache)
        )
        assert cache.misses == len(
            [k for k in cache.keys()]
        ), "warm run must perform zero fresh simulations"

        assert cold.rows == baseline.rows
        assert cold.series == baseline.series
        assert warm.rows == baseline.rows
        assert warm.series == baseline.series
