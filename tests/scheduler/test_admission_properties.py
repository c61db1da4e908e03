"""Property suite for weighted-DRF admission (hypothesis).

``plan_admission`` is pure — demand vectors in, a plan out — so its
contracts are checked directly over generated multi-tenant scenarios:
credit conservation, capacity never oversubscribed, pending requests
partitioned exactly into admitted/deferred, preemption never evicting a
same-or-higher-priority tenant, admission monotone in weight (for the
identical-demand case where it is a theorem), and Jain-index bounds.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.errors import SchedulingError  # noqa: E402
from repro.scheduler.admission import (  # noqa: E402
    AdmissionRequest,
    Tenant,
    dominant_share,
    jain_index,
    plan_admission,
)

DIMS = ("cpu", "memory_mb", "bandwidth_mbps")

tenant_ids = st.sampled_from(["t-a", "t-b", "t-c", "t-d"])
weights = st.floats(min_value=0.1, max_value=8.0, allow_nan=False)
priorities = st.integers(min_value=0, max_value=3)
demand_values = st.floats(min_value=0.0, max_value=400.0, allow_nan=False)


@st.composite
def scenarios(draw):
    """(pending, running, capacity, tenants, credits) for one round."""
    ids = draw(
        st.lists(tenant_ids, min_size=1, max_size=4, unique=True)
    )
    tenants = {
        tid: Tenant(tid, weight=draw(weights), priority=draw(priorities))
        for tid in ids
    }
    capacity = {
        dim: draw(st.floats(min_value=50.0, max_value=1000.0))
        for dim in DIMS
    }

    def requests(prefix, max_size):
        out = []
        count = draw(st.integers(min_value=0, max_value=max_size))
        for index in range(count):
            tid = draw(st.sampled_from(ids))
            demand = {dim: draw(demand_values) for dim in DIMS}
            out.append(
                AdmissionRequest(f"{prefix}-{index}", tid, demand)
            )
        return out

    pending = requests("pend", 6)
    running = requests("run", 4)
    credits = {
        tid: draw(st.floats(min_value=0.0, max_value=10.0)) for tid in ids
    }
    return pending, running, capacity, tenants, credits


class TestRoundInvariants:
    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(scenario=scenarios())
    def test_pending_partitioned(self, scenario):
        """Every pending topology is admitted xor deferred, exactly
        once; evictions only ever name running topologies."""
        pending, running, capacity, tenants, credits = scenario
        plan = plan_admission(pending, running, capacity, tenants, credits)
        outcome = sorted(plan.admitted + plan.deferred)
        assert outcome == sorted(r.topology_id for r in pending)
        assert set(plan.evicted) <= {r.topology_id for r in running}
        assert len(set(plan.evicted)) == len(plan.evicted)

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(scenario=scenarios())
    def test_capacity_never_oversubscribed(self, scenario):
        """Surviving running + newly admitted demand fits capacity on
        every dimension admission reasons about — unless the inherited
        running set alone already exceeded it (admission never *adds* to
        an oversubscribed dimension)."""
        pending, running, capacity, tenants, credits = scenario
        plan = plan_admission(pending, running, capacity, tenants, credits)
        by_id = {r.topology_id: r for r in list(pending) + list(running)}
        survivors = [
            r for r in running if r.topology_id not in set(plan.evicted)
        ]
        admitted = [by_id[tid] for tid in plan.admitted]
        for dim, cap in capacity.items():
            inherited = sum(r.demand.get(dim, 0.0) for r in running)
            used = sum(
                r.demand.get(dim, 0.0) for r in survivors + admitted
            )
            assert used <= max(cap, inherited) + 1e-6

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(scenario=scenarios())
    def test_credit_conservation(self, scenario):
        """incoming + accrued == spent + outstanding, per tenant."""
        pending, running, capacity, tenants, credits = scenario
        plan = plan_admission(pending, running, capacity, tenants, credits)
        for tid in tenants:
            lhs = credits.get(tid, 0.0) + plan.accrued[tid]
            rhs = plan.spent[tid] + plan.credits[tid]
            assert lhs == pytest.approx(rhs, abs=1e-9)

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(scenario=scenarios())
    def test_preemption_respects_priority(self, scenario):
        """Each eviction run is triggered by the tenant of the next
        admit/defer decision; every victim has strictly lower priority
        (same-or-higher priority tenants are never evicted)."""
        pending, running, capacity, tenants, credits = scenario
        plan = plan_admission(pending, running, capacity, tenants, credits)
        decisions = list(plan.decisions)
        for index, decision in enumerate(decisions):
            if decision.action != "evict":
                continue
            trigger = next(
                d for d in decisions[index + 1:] if d.action != "evict"
            )
            victim_priority = tenants[decision.tenant_id].priority
            assert victim_priority < tenants[trigger.tenant_id].priority

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(scenario=scenarios(), limit=st.integers(min_value=0, max_value=3))
    def test_preemption_bounded(self, scenario, limit):
        pending, running, capacity, tenants, credits = scenario
        plan = plan_admission(
            pending, running, capacity, tenants, credits,
            max_preemptions=limit,
        )
        assert len(plan.evicted) <= limit

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(scenario=scenarios())
    def test_preemption_disabled_evicts_nothing(self, scenario):
        pending, running, capacity, tenants, credits = scenario
        plan = plan_admission(
            pending, running, capacity, tenants, credits,
            preemption_enabled=False,
        )
        assert plan.evicted == ()

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(scenario=scenarios())
    def test_per_tenant_fifo_preserved(self, scenario):
        """A tenant's admitted topologies are a prefix of its own queue:
        later submissions never jump the tenant's own FIFO order."""
        pending, running, capacity, tenants, credits = scenario
        plan = plan_admission(pending, running, capacity, tenants, credits)
        admitted = set(plan.admitted)
        for tid in tenants:
            queue = [r.topology_id for r in pending if r.tenant_id == tid]
            taken = [t for t in queue if t in admitted]
            assert taken == queue[: len(taken)]


class TestWeightMonotonicity:
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(
        capacity=st.integers(min_value=1, max_value=12),
        queue_sizes=st.lists(
            st.integers(min_value=0, max_value=6), min_size=2, max_size=4
        ),
        weight=st.floats(min_value=0.1, max_value=4.0),
        bump=st.floats(min_value=0.1, max_value=4.0),
    )
    def test_more_weight_never_fewer_admissions(
        self, capacity, queue_sizes, weight, bump
    ):
        """With identical unit demands and equal priorities, raising one
        tenant's weight (all else fixed) never shrinks its admitted
        count — the setting where weighted-DRF monotonicity is exact."""
        ids = [f"t-{i}" for i in range(len(queue_sizes))]
        pending = [
            AdmissionRequest(f"{tid}-{j}", tid, {"cpu": 1.0})
            for tid, size in zip(ids, queue_sizes)
            for j in range(size)
        ]
        cap = {"cpu": float(capacity)}

        def admitted_for(subject_weight):
            tenants = {
                tid: Tenant(
                    tid,
                    weight=subject_weight if tid == ids[0] else 1.0,
                )
                for tid in ids
            }
            plan = plan_admission(pending, [], cap, tenants)
            return sum(1 for t in plan.admitted if t.startswith(ids[0]))

        assert admitted_for(weight + bump) >= admitted_for(weight)


class TestShareAndJain:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        shares=st.lists(
            st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
            min_size=1,
            max_size=8,
        )
    )
    def test_jain_bounds(self, shares):
        index = jain_index(shares)
        assert 0.0 < index <= 1.0 + 1e-12
        if sum(shares) > 0:
            assert index >= 1.0 / len(shares) - 1e-12

    def test_jain_degenerate(self):
        assert jain_index([]) == 1.0
        assert jain_index([0.0, 0.0]) == 1.0

    def test_jain_even_split_is_one(self):
        assert jain_index([0.25] * 4) == pytest.approx(1.0)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        usage=st.dictionaries(
            st.sampled_from(DIMS),
            st.floats(min_value=0.0, max_value=500.0),
            max_size=3,
        ),
        weight=weights,
    )
    def test_dominant_share_scales_inversely_with_weight(
        self, usage, weight
    ):
        capacity = dict.fromkeys(DIMS, 1000.0)
        base = dominant_share(usage, capacity, 1.0)
        assert dominant_share(usage, capacity, weight) == pytest.approx(
            base / weight
        )

    def test_rejects_nonpositive_weight(self):
        with pytest.raises(SchedulingError):
            dominant_share({"cpu": 1.0}, {"cpu": 2.0}, 0.0)
        with pytest.raises(SchedulingError):
            Tenant("t", weight=-1.0)

    def test_rejects_nonpositive_headroom(self):
        with pytest.raises(SchedulingError):
            plan_admission([], [], {"cpu": 1.0}, {}, headroom=0.0)

    def test_unknown_tenant_rejected(self):
        request = AdmissionRequest("topo", "ghost", {"cpu": 1.0})
        with pytest.raises(SchedulingError):
            plan_admission([request], [], {"cpu": 10.0}, {})
