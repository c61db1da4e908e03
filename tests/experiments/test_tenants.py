"""End-to-end checks for the multi-tenant SLO experiment.

One short run of both units (shared across the class via a module
fixture) backs every assertion: identical placement-agnostic admission,
preemption churn, fairness and per-tenant rollups of the two tenancy
units.
"""

import pytest

from repro.experiments import tenants
from repro.experiments.parallel import run_units

DURATION_S = 15.0


@pytest.fixture(scope="module")
def outcomes():
    units = tenants.tenant_units(DURATION_S)
    results = run_units(units, jobs=1)
    return dict(zip([unit.label for unit in units], results))


class TestUnits:
    def test_two_units_one_per_scheduler(self):
        units = tenants.tenant_units(DURATION_S)
        assert [unit.label for unit in units] == [
            "tenants:r-storm",
            "tenants:default",
        ]
        assert units[0].submissions == units[1].submissions
        assert units[0].tenants == units[1].tenants

    def test_submission_schedule_shape(self):
        per_tenant = {}
        for _, tenant_id, _ in tenants.SUBMISSIONS:
            per_tenant[tenant_id] = per_tenant.get(tenant_id, 0) + 1
        assert per_tenant == {"gold": 8, "silver": 8, "bronze": 10, "free": 10}


class TestOutcomes:
    def test_admission_is_placement_agnostic(self, outcomes):
        rstorm = outcomes["tenants:r-storm"]
        default = outcomes["tenants:default"]
        assert sorted(rstorm.admitted) == sorted(default.admitted)
        assert sorted(rstorm.deferred) == sorted(default.deferred)
        assert rstorm.preemptions == default.preemptions
        assert rstorm.jain == pytest.approx(default.jain)

    def test_cluster_oversubscribed_on_purpose(self, outcomes):
        outcome = outcomes["tenants:r-storm"]
        assert len(outcome.owners) == 36
        assert len(outcome.admitted) == 24  # the cluster's exact fit
        assert len(outcome.deferred) == 12
        assert set(outcome.admitted) | set(outcome.deferred) == set(
            outcome.owners
        )

    def test_priority_classes_fully_admitted_via_preemption(self, outcomes):
        outcome = outcomes["tenants:r-storm"]
        by_tenant = {}
        for topology_id in outcome.admitted:
            owner = outcome.owners[topology_id]
            by_tenant[owner] = by_tenant.get(owner, 0) + 1
        assert by_tenant["gold"] == 8
        assert by_tenant["silver"] == 8
        assert outcome.preemptions > 0
        assert outcome.preempted_tasks == 4 * outcome.preemptions

    def test_fairness_and_shares_reported(self, outcomes):
        outcome = outcomes["tenants:r-storm"]
        assert 0.0 < outcome.jain <= 1.0
        assert set(outcome.shares) == {"gold", "silver", "bronze", "free"}
        assert all(share >= 0.0 for share in outcome.shares.values())

    def test_tenant_rollups_cover_admitted_work(self, outcomes):
        outcome = outcomes["tenants:r-storm"]
        rollup = outcome.report.tenant_summary(outcome.owners)
        assert set(rollup) == {"gold", "silver", "bronze", "free"}
        for tenant_id, row in rollup.items():
            admitted = sum(
                1
                for topology_id, owner in outcome.owners.items()
                if owner == tenant_id and topology_id in outcome.admitted
            )
            assert row["topologies"] == admitted

    def test_no_scheduling_failures(self, outcomes):
        for outcome in outcomes.values():
            assert outcome.scheduling_failures == ()


class TestReport:
    def test_table_and_notes(self, outcomes):
        # Reuse the already-computed outcomes through a context stub so
        # the report path is exercised without a second simulation.
        class _Context:
            def run(self, units):
                return [outcomes[unit.label] for unit in units]

        result = tenants.run(DURATION_S, context=_Context())
        assert len(result.rows) == 10  # (4 tenants + cluster) x 2
        configs = {row["config"] for row in result.rows}
        assert configs == {"r-storm", "default"}
        assert any("placement-agnostic" in note for note in result.notes)
        gold = [
            row
            for row in result.rows
            if row["tenant"] == "gold" and row["config"] == "r-storm"
        ]
        assert gold[0]["admitted"] == "8/8"
