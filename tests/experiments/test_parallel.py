"""Tests for the parallel work-unit execution layer (repro.experiments.parallel)."""

import pickle

import pytest

from repro.cluster.builders import emulab_testbed, single_rack_cluster
from repro.cluster.resources import ResourceVector
from repro.errors import ConfigError
from repro.experiments.cache import ResultCache
from repro.experiments.fault_recovery import flapping_node
from repro.experiments.harness import SingleRunOutcome
from repro.experiments.parallel import (
    ExperimentContext,
    FactorySpec,
    ScheduleOutcome,
    ScheduleUnit,
    SimulationUnit,
    run_units,
    spec,
)
from repro.scheduler.default import DefaultScheduler
from repro.scheduler.rstorm import RStormScheduler
from repro.simulation.config import SimulationConfig
from repro.traffic.arrivals import PoissonArrivals
from repro.workloads.micro import linear_topology


def _sim_unit(kind="compute", duration=30.0, **kwargs):
    return SimulationUnit(
        scheduler=spec(RStormScheduler),
        topologies=(spec(linear_topology, kind),),
        cluster=spec(emulab_testbed),
        config=SimulationConfig(duration_s=duration, warmup_s=10.0),
        **kwargs,
    )


def _schedule_unit(kind="compute", **kwargs):
    return ScheduleUnit(
        scheduler=spec(DefaultScheduler),
        topologies=(spec(linear_topology, kind),),
        cluster=spec(emulab_testbed),
        **kwargs,
    )


class TestFactorySpec:
    def test_build_invokes_callable(self):
        built = spec(linear_topology, "compute").build()
        assert built.topology_id == "linear-compute"

    def test_kwargs_sorted_for_stable_equality(self):
        a = spec(single_rack_cluster, 3, capacity=None, slots_per_node=2)
        b = FactorySpec(
            single_rack_cluster,
            (3,),
            (("capacity", None), ("slots_per_node", 2)),
        )
        assert a == b

    def test_specs_are_picklable(self):
        unit = _sim_unit()
        clone = pickle.loads(pickle.dumps(unit))
        assert clone == unit
        assert clone.topologies[0].build().topology_id == "linear-compute"


class TestRunUnits:
    def test_rejects_nonpositive_jobs(self):
        with pytest.raises(ValueError):
            run_units([], jobs=0)

    def test_results_align_with_input_order(self):
        units = [_sim_unit("compute"), _sim_unit("network")]
        outcomes = run_units(units, jobs=1)
        assert "linear-compute" in outcomes[0].assignments
        assert "linear-network" in outcomes[1].assignments

    def test_simulation_unit_returns_outcome(self):
        (outcome,) = run_units([_sim_unit()], jobs=1)
        assert isinstance(outcome, SingleRunOutcome)
        assert outcome.throughput("linear-compute") > 0

    def test_schedule_unit_returns_schedule_outcome(self):
        (outcome,) = run_units([_schedule_unit()], jobs=1)
        assert isinstance(outcome, ScheduleOutcome)
        assert outcome.scheduler == "default"
        assert outcome.predicted_tps["linear-compute"] > 0
        assert outcome.qualities["linear-compute"].nodes_used >= 1

    def test_cache_round_trip_skips_execution(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        units = [_schedule_unit()]
        first = run_units(units, cache=cache)
        assert (cache.hits, cache.misses) == (0, 1)
        second = run_units(units, cache=cache)
        assert (cache.hits, cache.misses) == (1, 1)
        assert first[0].assignments == second[0].assignments
        assert first[0].predicted_tps == second[0].predicted_tps

    def test_cache_shared_across_labels(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        run_units([_schedule_unit(label="fig-a")], cache=cache)
        run_units([_schedule_unit(label="fig-b")], cache=cache)
        assert cache.hits == 1
        assert len(cache) == 1

    def test_process_pool_matches_inline(self, tmp_path):
        # Cheap schedule-only units keep the subprocess round-trip fast.
        units = [_schedule_unit("compute"), _schedule_unit("network")]
        inline = run_units(units, jobs=1)
        pooled = run_units(units, jobs=2)
        for a, b in zip(inline, pooled):
            assert a.assignments == b.assignments
            assert a.predicted_tps == b.predicted_tps


class TestExperimentContext:
    def test_default_is_sequential_and_uncached(self):
        context = ExperimentContext()
        assert context.jobs == 1 and context.cache is None

    def test_run_delegates(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        context = ExperimentContext(jobs=1, cache=cache)
        context.run([_schedule_unit()])
        context.run([_schedule_unit()])
        assert cache.hits == 1 and cache.misses == 1


class TestScheduleUnitMultiTenancy:
    def test_qualities_account_for_co_resident_topologies(self):
        capacity = ResourceVector.of(
            memory_mb=4096.0, cpu=200.0, bandwidth_mbps=100.0
        )
        unit = ScheduleUnit(
            scheduler=spec(DefaultScheduler),
            topologies=(
                spec(linear_topology, "compute"),
                spec(linear_topology, "network"),
            ),
            cluster=spec(single_rack_cluster, 4, capacity=capacity),
        )
        (outcome,) = run_units([unit])
        assert set(outcome.assignments) == {"linear-compute", "linear-network"}
        assert set(outcome.qualities) == {"linear-compute", "linear-network"}
        assert set(outcome.predicted_tps) == {"linear-compute", "linear-network"}


class TestSimulationUnitLayers:
    def test_misspelt_storm_key_fails_loudly(self):
        unit = _sim_unit(storm=(("nimbus.elastic.enabeld", True),))
        with pytest.raises(ConfigError, match="nimbus.elastic.enabeld"):
            unit.execute()


class TestComposedUnit:
    """Faults, elastic scaling and quarantine in one unit: a flapping
    node under 1.5x open-loop load with at-least-once replay."""

    TOPO = "linear-compute"

    @classmethod
    def setup_class(cls):
        unit = SimulationUnit(
            scheduler=spec(RStormScheduler),
            topologies=(spec(linear_topology, "compute"),),
            cluster=spec(emulab_testbed),
            config=SimulationConfig(
                duration_s=75.0,
                warmup_s=10.0,
                at_least_once=True,
                max_retries=3,
                arrival_process=PoissonArrivals(rate_tps=375.0),
            ),
            storm=(
                ("nimbus.elastic.enabled", True),
                ("nimbus.elastic.interval.secs", 10.0),
                ("nimbus.quarantine.enabled", True),
                ("nimbus.scheduler.interval.secs", 5.0),
            ),
            faults=spec(flapping_node, at=15.0, period=18.0, down_s=12.0),
            heartbeat_interval_s=2.0,
            heartbeat_timeout_s=6.0,
        )
        wiring = unit.wire()
        report = wiring.run.run()
        cls.audit = wiring.run.delivery_audit()[cls.TOPO]
        cls.outcome = wiring.outcome(report)

    def test_every_layer_fired(self):
        assert len(self.outcome.injected) == 3
        assert len(self.outcome.quarantined) == 1
        assert any(
            d.action == "scale-up" for d in self.outcome.elastic_decisions
        )
        assert self.outcome.recovery[self.TOPO].replayed_tuples > 0

    def test_delivery_audit_closes(self):
        audit = self.audit
        assert audit["origins_created"] > 0
        assert audit["origins_created"] == (
            audit["origins_acked"]
            + audit["origins_exhausted"]
            + audit["origins_shed"]
            + audit["pending"]
            + audit["replays_outstanding"]
        )

    def test_fault_and_elastic_churn_counted_apart(self):
        recovery = self.outcome.recovery[self.TOPO]
        assert recovery.fault_tasks_moved > 0
        assert recovery.elastic_tasks_moved > 0
        assert recovery.total_tasks_moved == (
            recovery.fault_tasks_moved + recovery.elastic_tasks_moved
        )
        assert recovery.elastic_tasks_moved == self.outcome.elastic_tasks_moved
