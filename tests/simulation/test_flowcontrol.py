"""Unit + property tests for the flow-control primitives.

The credit ledger is the backpressure state machine; its conservation
invariant (sends == drains + outstanding, outstanding >= 0) is what the
delivery-audit closure leans on, so it gets a hypothesis property suite
over arbitrary interleavings of sends and drains.
"""

import pytest

from repro.errors import ConfigError
from repro.simulation.flowcontrol import (
    SHEDDING_POLICIES,
    CreditLedger,
    FlowControlConfig,
    make_policy,
    tenant_priorities,
)

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402


class TestFlowControlConfig:
    def test_defaults_validate(self):
        config = FlowControlConfig()
        assert config.queue_capacity == 64
        assert config.shedding == "none"
        assert config.high_watermark > config.low_watermark

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(queue_capacity=0),
            dict(queue_capacity=True),
            dict(high_watermark=0.0),
            dict(high_watermark=1.5),
            dict(low_watermark=0.9),  # >= high watermark
            dict(low_watermark=-0.1),
            dict(shedding="random"),
            dict(priorities=(("topo",),)),
            dict(priorities=(("topo", "gold"),)),
            dict(priorities=(("topo", True),)),
            dict(priorities=((7, 1),)),  # topology id not a str
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            FlowControlConfig(**kwargs)

    def test_policy_names(self):
        assert SHEDDING_POLICIES == ("none", "tail-drop", "priority")


class TestCreditLedger:
    def test_stall_at_high_watermark(self):
        ledger = CreditLedger(pool=10, high_watermark=0.8, low_watermark=0.4)
        stalled = [ledger.send() for _ in range(10)]
        # Exactly the 8th send (occupancy 0.8) reports the stall.
        assert stalled == [False] * 7 + [True, False, False]
        assert ledger.stalled and ledger.stall_count == 1

    def test_resume_at_low_watermark_with_hysteresis(self):
        ledger = CreditLedger(pool=10, high_watermark=0.8, low_watermark=0.4)
        for _ in range(8):
            ledger.send()
        # Draining back under the *high* watermark is not enough ...
        resumed = [ledger.drain() for _ in range(3)]
        assert resumed == [False, False, False]
        # ... only crossing the low watermark (4) resumes.
        assert ledger.drain() is True
        assert not ledger.stalled

    def test_pool_of_one_still_stalls(self):
        ledger = CreditLedger(pool=1, high_watermark=0.8, low_watermark=0.0)
        assert ledger.send() is True
        assert ledger.drain() is True

    def test_overshoot_beyond_pool_is_accounted(self):
        # In-flight deliveries may exceed the pool; the ledger tracks
        # them rather than losing them.
        ledger = CreditLedger(pool=4, high_watermark=0.75, low_watermark=0.25)
        for _ in range(6):
            ledger.send()
        assert ledger.outstanding == 6
        assert ledger.available == -2
        assert ledger.conserved()

    def test_invalid_pool_rejected(self):
        with pytest.raises(ValueError):
            CreditLedger(pool=0, high_watermark=0.8, low_watermark=0.4)

    def test_resize_crosses_watermarks_with_hysteresis(self):
        ledger = CreditLedger(pool=10, high_watermark=0.8, low_watermark=0.4)
        for _ in range(8):
            ledger.send()
        assert ledger.stalled
        # Pool 15: stall at 12, resume at 6 -- 8 outstanding sits
        # between them, so the stall holds.
        assert ledger.resize(15, 0.8, 0.4) is False and ledger.stalled
        # Pool 25: resume at 10 -- the edge resumes.
        assert ledger.resize(25, 0.8, 0.4) is True and not ledger.stalled
        # Pool 5: stall at 4 -- the edge stalls and counts it.
        assert ledger.resize(5, 0.8, 0.4) is True and ledger.stalled
        assert ledger.stall_count == 2
        assert ledger.resize(5, 0.8, 0.4) is False
        assert (ledger.pool, ledger.outstanding, ledger.sends) == (5, 8, 8)


class TestCreditLedgerProperties:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        pool=st.integers(min_value=1, max_value=64),
        high=st.floats(min_value=0.05, max_value=1.0, allow_nan=False),
        low_frac=st.floats(min_value=0.0, max_value=0.95, allow_nan=False),
        ops=st.lists(st.booleans(), max_size=300),
    )
    def test_conservation_under_any_interleaving(
        self, pool, high, low_frac, ops
    ):
        """sends == drains + outstanding after any send/drain sequence."""
        low = high * low_frac
        ledger = CreditLedger(
            pool=pool, high_watermark=high, low_watermark=low
        )
        for is_send in ops:
            if is_send:
                ledger.send()
            elif ledger.outstanding > 0:
                ledger.drain()
        assert ledger.conserved()
        assert ledger.sends == ledger.drains + ledger.outstanding

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        pool=st.integers(min_value=1, max_value=64),
        high=st.floats(min_value=0.05, max_value=1.0, allow_nan=False),
        low_frac=st.floats(min_value=0.0, max_value=0.95, allow_nan=False),
        ops=st.lists(st.booleans(), max_size=300),
    )
    def test_stall_resume_transitions_alternate(
        self, pool, high, low_frac, ops
    ):
        """Stall/resume events strictly alternate, starting with stall,
        and the stalled flag always matches the last event."""
        low = high * low_frac
        ledger = CreditLedger(
            pool=pool, high_watermark=high, low_watermark=low
        )
        events = []
        for is_send in ops:
            if is_send:
                if ledger.send():
                    events.append("stall")
            elif ledger.outstanding > 0:
                if ledger.drain():
                    events.append("resume")
        for i, event in enumerate(events):
            assert event == ("stall" if i % 2 == 0 else "resume")
        assert ledger.stalled == (bool(events) and events[-1] == "stall")

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        high=st.floats(min_value=0.05, max_value=1.0, allow_nan=False),
        low_frac=st.floats(min_value=0.0, max_value=0.95, allow_nan=False),
        ops=st.lists(
            st.booleans() | st.integers(min_value=1, max_value=64),
            max_size=300,
        ),
    )
    def test_transitions_alternate_across_resizes(self, high, low_frac, ops):
        """With resizes (integers: the new pool) among the sends (True)
        and drains (False), every transition still alternates and the
        stall count is the number of stalls."""
        ledger = CreditLedger(
            pool=8, high_watermark=high, low_watermark=high * low_frac
        )
        events = []
        for op in ops:
            was = ledger.stalled
            if op is True:
                flipped = ledger.send()
            elif op is False:
                flipped = ledger.outstanding > 0 and ledger.drain()
            else:
                flipped = ledger.resize(op, high, high * low_frac)
            assert flipped == (ledger.stalled != was)
            if flipped:
                events.append("stall" if ledger.stalled else "resume")
        for i, event in enumerate(events):
            assert event == ("stall" if i % 2 == 0 else "resume")
        assert ledger.stall_count == events.count("stall")
        assert ledger.conserved()

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        pool=st.integers(min_value=1, max_value=64),
        sends=st.integers(min_value=0, max_value=200),
    )
    def test_drain_beyond_sends_raises(self, pool, sends):
        ledger = CreditLedger(
            pool=pool, high_watermark=0.8, low_watermark=0.4
        )
        for _ in range(sends):
            ledger.send()
        for _ in range(sends):
            ledger.drain()
        with pytest.raises(ValueError):
            ledger.drain()


class TestSheddingPolicy:
    def test_none_never_sheds(self):
        policy = make_policy(FlowControlConfig(queue_capacity=8))
        assert policy.threshold("any") is None
        assert not policy.should_shed("any", occupancy=10_000)

    def test_tail_drop_sheds_at_capacity(self):
        policy = make_policy(
            FlowControlConfig(queue_capacity=8, shedding="tail-drop")
        )
        assert policy.threshold("any") == 8
        assert not policy.should_shed("any", occupancy=7)
        assert policy.should_shed("any", occupancy=8)

    def test_priority_ranks_thresholds(self):
        policy = make_policy(
            FlowControlConfig(
                queue_capacity=32,
                shedding="priority",
                priorities=(("gold", 2), ("silver", 1), ("free", 0)),
            )
        )
        gold = policy.threshold("gold")
        silver = policy.threshold("silver")
        free = policy.threshold("free")
        assert gold == 32  # top class sheds only at capacity
        assert free < silver < gold
        assert free == 21  # 0.5 + 0.5 * (1/3) of 32, rounded
        # Unregistered topologies behave like tail-drop.
        assert policy.threshold("unknown") == 32

    def test_priority_without_registrations_is_tail_drop(self):
        policy = make_policy(
            FlowControlConfig(queue_capacity=8, shedding="priority")
        )
        assert policy.threshold("any") == 8


class TestTenantPriorities:
    def test_maps_owned_topologies(self):
        class FakeTenant:
            def __init__(self, priority):
                self.priority = priority

        tenants = {"gold": FakeTenant(2), "free": FakeTenant(0)}
        owners = {"topo-b": "free", "topo-a": "gold", "topo-c": "ghost"}
        pairs = tenant_priorities(tenants, owners)
        # Sorted by topology id; unregistered owners skipped.
        assert pairs == (("topo-a", 2), ("topo-b", 0))
