"""Tests for the discrete-event engine."""

from heapq import heappush

import pytest
from hypothesis import given, strategies as st

from repro.errors import SimulationError
from repro.simulation.engine import Simulator


class TestScheduling:
    def test_events_fire_in_time_order(self):
        sim = Simulator()
        fired = []
        sim.schedule_at(2.0, lambda: fired.append("b"))
        sim.schedule_at(1.0, lambda: fired.append("a"))
        sim.schedule_at(3.0, lambda: fired.append("c"))
        sim.run(10.0)
        assert fired == ["a", "b", "c"]

    def test_fifo_tie_breaking(self):
        sim = Simulator()
        fired = []
        for i in range(5):
            sim.schedule_at(1.0, lambda i=i: fired.append(i))
        sim.run(1.0)
        assert fired == [0, 1, 2, 3, 4]

    def test_schedule_after(self):
        sim = Simulator()
        fired = []
        sim.schedule_after(0.5, lambda: fired.append(sim.now))
        sim.run(1.0)
        assert fired == [0.5]

    def test_events_can_schedule_events(self):
        sim = Simulator()
        fired = []

        def chain():
            fired.append(sim.now)
            if sim.now < 0.35:
                sim.schedule_after(0.1, chain)

        sim.schedule_at(0.1, chain)
        sim.run(1.0)
        assert fired == pytest.approx([0.1, 0.2, 0.3, 0.4])

    def test_past_scheduling_rejected(self):
        sim = Simulator()
        sim.schedule_at(1.0, lambda: None)
        sim.run(2.0)
        with pytest.raises(SimulationError):
            sim.schedule_at(1.0, lambda: None)

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            Simulator().schedule_after(-0.1, lambda: None)

    def test_scheduling_at_now_allowed(self):
        sim = Simulator()
        sim.run(3.0)
        fired = []
        sim.schedule_at(3.0, lambda: fired.append(sim.now))
        sim.run(3.0)
        assert fired == [3.0]


class TestArgsAPI:
    """Payload rides the event as ``*args`` — no closure needed."""

    def test_schedule_at_forwards_args(self):
        sim = Simulator()
        fired = []
        sim.schedule_at(1.0, fired.append, "payload")
        sim.schedule_at(2.0, lambda a, b: fired.append(a + b), 40, 2)
        sim.run(2.0)
        assert fired == ["payload", 42]

    def test_schedule_after_forwards_args(self):
        sim = Simulator()
        fired = []
        sim.schedule_after(0.5, fired.append, 7)
        sim.run(1.0)
        assert fired == [7]

    def test_fifo_across_schedule_at_and_after(self):
        # schedule_at and schedule_after share one sequence counter, so
        # same-time events fire in global submission order regardless of
        # which API queued them.
        sim = Simulator()
        fired = []
        sim.schedule_at(1.0, fired.append, "at-0")
        sim.schedule_after(1.0, fired.append, "after-1")
        sim.schedule_at(1.0, fired.append, "at-2")
        sim.schedule_after(1.0, fired.append, "after-3")
        sim.run(1.0)
        assert fired == ["at-0", "after-1", "at-2", "after-3"]

    def test_direct_push_shares_the_fifo_order(self):
        # The direct-push contract: a heappush with a seq from
        # ``next(sim.seq)`` interleaves with schedule_at/schedule_after
        # exactly as if it had been scheduled through them.
        sim = Simulator()
        fired = []
        sim.schedule_at(1.0, fired.append, "at-0")
        heappush(sim.heap, (1.0, next(sim.seq), fired.append, ("direct-1",)))
        sim.schedule_after(1.0, fired.append, "after-2")
        heappush(sim.heap, (0.5, next(sim.seq), fired.append, ("direct-3",)))
        sim.run(1.0)
        assert fired == ["direct-3", "at-0", "direct-1", "after-2"]
        assert sim.events_processed == 4

    def test_argless_actions_still_work(self):
        sim = Simulator()
        fired = []
        sim.schedule_at(1.0, lambda: fired.append("bare"))
        sim.run(1.0)
        assert fired == ["bare"]


class TestHorizonBoundary:
    """``run(until)`` is inclusive — the convention every caller shares."""

    def test_chained_same_instant_events_at_horizon(self):
        # An event exactly at the horizon may schedule more work at that
        # same instant; all of it belongs to this run.
        sim = Simulator()
        fired = []

        def first():
            fired.append("first")
            sim.schedule_at(5.0, lambda: fired.append("second"))

        sim.schedule_at(5.0, first)
        sim.run(5.0)
        assert fired == ["first", "second"]
        assert sim.now == 5.0

    def test_repeated_run_at_same_horizon_is_noop(self):
        sim = Simulator()
        fired = []
        sim.schedule_at(5.0, lambda: fired.append(True))
        sim.run(5.0)
        processed = sim.events_processed
        sim.run(5.0)
        assert fired == [True]
        assert sim.events_processed == processed
        assert sim.now == 5.0

    def test_event_just_past_horizon_waits(self):
        sim = Simulator()
        fired = []
        sim.schedule_at(5.0 + 1e-9, fired.append, True)
        sim.run(5.0)
        assert fired == []
        assert sim.peek_time() == 5.0 + 1e-9

    def test_events_processed_counts_mid_run_scheduling(self):
        # Events scheduled *during* the run are counted too, and the
        # counter is coherent after run() returns.
        sim = Simulator()

        def spawn():
            sim.schedule_after(0.0, lambda: None)

        sim.schedule_at(1.0, spawn)
        sim.run(10.0)
        assert sim.events_processed == 2

    def test_events_processed_survives_raising_callback(self):
        sim = Simulator()
        sim.schedule_at(1.0, lambda: None)

        def boom():
            raise RuntimeError("callback failed")

        sim.schedule_at(2.0, boom)
        with pytest.raises(RuntimeError):
            sim.run(10.0)
        assert sim.events_processed == 2

    def test_step_matches_run_convention(self):
        # Manual steppers use peek_time() <= horizon (inclusive), per the
        # engine docstring; stepping that way agrees with run().
        horizon = 5.0
        events = [1.0, 5.0, 5.0, 7.0]
        via_run = Simulator()
        run_fired = []
        for t in events:
            via_run.schedule_at(t, run_fired.append, t)
        via_run.run(horizon)

        via_step = Simulator()
        step_fired = []
        for t in events:
            via_step.schedule_at(t, step_fired.append, t)
        while (
            via_step.peek_time() is not None
            and via_step.peek_time() <= horizon
        ):
            via_step.step()
        assert step_fired == run_fired == [1.0, 5.0, 5.0]


class TestRun:
    def test_clock_advances_to_horizon(self):
        sim = Simulator()
        sim.run(5.0)
        assert sim.now == 5.0

    def test_events_beyond_horizon_not_fired(self):
        sim = Simulator()
        fired = []
        sim.schedule_at(7.0, lambda: fired.append(True))
        sim.run(5.0)
        assert fired == []
        sim.run(10.0)
        assert fired == [True]

    def test_events_exactly_at_horizon_fire(self):
        sim = Simulator()
        fired = []
        sim.schedule_at(5.0, lambda: fired.append(True))
        sim.run(5.0)
        assert fired == [True]

    def test_running_backwards_rejected(self):
        sim = Simulator()
        sim.run(5.0)
        with pytest.raises(SimulationError):
            sim.run(4.0)

    def test_step(self):
        sim = Simulator()
        sim.schedule_at(1.0, lambda: None)
        assert sim.step() is True
        assert sim.now == 1.0
        assert sim.step() is False

    def test_peek_time(self):
        sim = Simulator()
        assert sim.peek_time() is None
        sim.schedule_at(3.0, lambda: None)
        assert sim.peek_time() == 3.0

    def test_events_processed_counter(self):
        sim = Simulator()
        for i in range(4):
            sim.schedule_at(float(i), lambda: None)
        sim.run(10.0)
        assert sim.events_processed == 4


@given(
    st.lists(
        st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
        min_size=1,
        max_size=50,
    )
)
def test_property_fire_times_nondecreasing(times):
    sim = Simulator()
    observed = []
    for t in times:
        sim.schedule_at(t, lambda: observed.append(sim.now))
    sim.run(101.0)
    assert observed == sorted(observed)
    assert len(observed) == len(times)


@given(
    st.lists(
        st.floats(min_value=0.0, max_value=20.0, allow_nan=False),
        min_size=1,
        max_size=40,
    ),
    st.lists(
        st.floats(min_value=0.0, max_value=20.0, allow_nan=False),
        max_size=6,
    ),
)
def test_property_horizons_do_not_reorder_events(times, horizons):
    """Stopping at any horizons (each stop puts the first event past it
    back on the heap) fires the same events in the same order as one
    run to the end."""

    def fired_order(stops):
        sim = Simulator()
        fired = []
        for i, t in enumerate(times):
            sim.schedule_at(t, fired.append, i)
            # duplicate instants exercise the FIFO tie-break
            sim.schedule_at(t, fired.append, -i - 1)
        for stop in stops:
            sim.run(stop)
        return fired, sim.events_processed

    assert fired_order(sorted(horizons) + [21.0]) == fired_order([21.0])
