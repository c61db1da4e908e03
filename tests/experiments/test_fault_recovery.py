"""Chaos units (SimulationUnits with faults): outcomes, caching and
determinism, plus the fault_recovery experiment."""

import pytest

from repro.cluster import ResourceVector, single_rack_cluster
from repro.experiments import REGISTRY, ResultCache, run_units
from repro.experiments import fault_recovery
from repro.experiments.harness import SingleRunOutcome
from repro.experiments.parallel import SimulationUnit, spec
from repro.faults import ChaosGenerator, FaultSchedule, NodeCrash
from repro.scheduler.rstorm import RStormScheduler
from repro.simulation.config import SimulationConfig
from tests.conftest import make_linear


def small_unit(trial=0, faults=None):
    return SimulationUnit(
        scheduler=spec(RStormScheduler),
        topologies=(spec(make_linear, "chain", 1, 2),),
        cluster=spec(
            single_rack_cluster,
            3,
            capacity=ResourceVector.of(
                memory_mb=2048.0, cpu=100.0, bandwidth_mbps=100.0
            ),
        ),
        config=SimulationConfig(duration_s=40.0, warmup_s=5.0, window_s=5.0),
        faults=faults
        or spec(FaultSchedule.of, NodeCrash(at=15.0, node_id="node-0-0")),
        heartbeat_interval_s=2.0,
        heartbeat_timeout_s=6.0,
        storm=(("nimbus.scheduler.interval.secs", 5.0),),
        trial=trial,
    )


class TestChaosUnit:
    def test_execute_produces_recovery_report(self):
        outcome = small_unit().execute()
        assert isinstance(outcome, SingleRunOutcome)
        assert outcome.scheduler == "r-storm"
        assert outcome.injected == ((15.0, "node_crash node-0-0"),)
        recovery = outcome.recovery["chain"]
        assert len(recovery.faults) == 1
        assert recovery.baseline_tuples_per_window > 0

    def test_byte_identical_reports_across_fresh_executions(self):
        first = small_unit().execute()
        second = small_unit().execute()
        assert (
            first.recovery["chain"].to_json()
            == second.recovery["chain"].to_json()
        )

    def test_chaos_generator_as_faults_spec(self):
        unit = small_unit(
            faults=spec(
                ChaosGenerator,
                seed=3,
                num_crashes=1,
                start_s=10.0,
                end_s=30.0,
            )
        )
        outcome = unit.execute()
        assert len(outcome.injected) == 1

    def test_cache_hit_on_second_run(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        unit = small_unit()
        [cold] = run_units([unit], cache=cache)
        assert (cache.hits, cache.misses) == (0, 1)
        [warm] = run_units([unit], cache=cache)
        assert (cache.hits, cache.misses) == (1, 1)
        assert (
            cold.recovery["chain"].to_json()
            == warm.recovery["chain"].to_json()
        )


class TestExperiment:
    def test_registered_in_cli_registry(self):
        assert "chaos" in REGISTRY
        assert REGISTRY["chaos"] is fault_recovery.run

    def test_unit_grid_covers_scenarios_and_schedulers(self):
        units = fault_recovery.chaos_units(
            SimulationConfig(duration_s=60.0, warmup_s=15.0)
        )
        labels = {unit.label for unit in units}
        assert len(units) == len(labels) == 6
        for scenario, _ in fault_recovery.SCENARIOS:
            assert f"chaos:{scenario}/r-storm" in labels
            assert f"chaos:{scenario}/default" in labels

    def test_run_emits_comparison_rows(self):
        result = fault_recovery.run(duration_s=60.0)
        assert len(result.rows) == 6
        for row in result.rows:
            assert {
                "scenario",
                "scheduler",
                "detect_s",
                "resched_s",
                "floor_ratio",
                "migrations",
            } <= set(row)
        assert len(result.series) == 6

    def test_default_rows_have_no_delivery_columns(self):
        result = fault_recovery.run(duration_s=60.0)
        for row in result.rows:
            assert "replayed" not in row
            assert "quarantined" not in row


class TestExtendedMode:
    def test_loss_rate_adds_lossy_link_scenario(self):
        result = fault_recovery.run(duration_s=60.0, loss_rate=0.1)
        scenarios = {row["scenario"] for row in result.rows}
        assert "lossy-link" in scenarios
        assert "flapping-node" not in scenarios
        assert len(result.rows) == 8
        for row in result.rows:
            assert {
                "tasks_moved", "replayed", "exhausted", "lost",
                "duplicated", "drain_s", "quarantined",
            } <= set(row)

    def test_quarantine_adds_flapping_node_scenario(self):
        result = fault_recovery.run(duration_s=120.0, quarantine=True)
        rows = {
            (row["scenario"], row["scheduler"]): row for row in result.rows
        }
        assert len(result.rows) == 8
        for scheduler in ("r-storm", "default"):
            flapping = rows[("flapping-node", scheduler)]
            # the third observed flap trips the default threshold
            assert flapping["quarantined"] == 1

    def test_lossy_link_loses_and_replays_on_default_scheduler(self):
        result = fault_recovery.run(duration_s=120.0, loss_rate=0.05)
        rows = {
            (row["scenario"], row["scheduler"]): row for row in result.rows
        }
        lossy_default = rows[("lossy-link", "default")]
        # the default schedule crosses the lossy trunk: traffic is lost,
        # duplicated, and replayed
        assert lossy_default["lost"] > 0
        assert lossy_default["duplicated"] > 0
        assert lossy_default["replayed"] > 0

    def test_lossy_link_builder_needs_two_racks(self):
        cluster = single_rack_cluster(
            3,
            capacity=ResourceVector.of(
                memory_mb=2048.0, cpu=100.0, bandwidth_mbps=100.0
            ),
        )
        build = fault_recovery.lossy_link()
        with pytest.raises(ValueError, match="two racks"):
            build(cluster, {})
