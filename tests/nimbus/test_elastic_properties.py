"""Property suite for the elastic control loop (hypothesis).

The sizing function is pure, so its contracts are checked directly:
bounds, monotonicity in offered load, and the hysteresis dead band.
The controller itself is checked at the DES level: identical (seed,
trace) inputs must produce identical decision sequences, and a
stationary load inside the dead band must produce zero churn.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.cluster.builders import emulab_testbed  # noqa: E402
from repro.experiments.overload import BASE_RATE_TPS  # noqa: E402
from repro.experiments.parallel import SimulationUnit, spec  # noqa: E402
from repro.nimbus.elastic import required_parallelism  # noqa: E402
from repro.scheduler.rstorm import RStormScheduler  # noqa: E402
from repro.simulation.config import SimulationConfig  # noqa: E402
from repro.traffic.arrivals import DeterministicArrivals  # noqa: E402
from repro.workloads.micro import linear_topology  # noqa: E402

arrivals = st.floats(min_value=0.0, max_value=1e6, allow_nan=False)
services = st.floats(min_value=0.01, max_value=1e5, allow_nan=False)
currents = st.integers(min_value=1, max_value=64)
backlogs = st.integers(min_value=0, max_value=1_000_000)
targets = st.floats(min_value=0.05, max_value=1.0, allow_nan=False)
hysts = st.floats(min_value=0.0, max_value=0.9, allow_nan=False)
mins = st.integers(min_value=1, max_value=8)
extras = st.integers(min_value=0, max_value=24)


class TestSizingBounds:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        arrival=arrivals,
        service=services,
        current=currents,
        backlog=backlogs,
        target=targets,
        hyst=hysts,
        min_p=mins,
        extra=extras,
    )
    def test_within_configured_bounds(
        self, arrival, service, current, backlog, target, hyst, min_p, extra
    ):
        """Never exceeds max, never drops below min (and min >= 1)."""
        max_p = min_p + extra
        required = required_parallelism(
            arrival,
            service,
            current,
            backlog,
            target_utilisation=target,
            hysteresis=hyst,
            min_parallelism=min_p,
            max_parallelism=max_p,
        )
        assert min_p <= required <= max_p
        assert required >= 1

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        arrival=arrivals,
        current=currents,
        backlog=backlogs,
        target=targets,
        hyst=hysts,
    )
    def test_zero_service_rate_holds(
        self, arrival, current, backlog, target, hyst
    ):
        """No service-rate estimate -> hold current (clamped)."""
        required = required_parallelism(
            arrival,
            0.0,
            current,
            backlog,
            target_utilisation=target,
            hysteresis=hyst,
            max_parallelism=64,
        )
        assert required == current


class TestSizingMonotone:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        rates=st.tuples(arrivals, arrivals),
        service=services,
        current=currents,
        backlog=backlogs,
        target=targets,
        hyst=hysts,
    )
    def test_monotone_in_offered_load(
        self, rates, service, current, backlog, target, hyst
    ):
        """More offered load never asks for *fewer* executors."""
        lo, hi = sorted(rates)
        kwargs = dict(
            target_utilisation=target,
            hysteresis=hyst,
            max_parallelism=1024,
        )
        assert required_parallelism(
            lo, service, current, backlog, **kwargs
        ) <= required_parallelism(hi, service, current, backlog, **kwargs)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        pair=st.tuples(backlogs, backlogs),
        arrival=arrivals,
        service=services,
        current=currents,
    )
    def test_monotone_in_backlog(self, pair, arrival, service, current):
        lo, hi = sorted(pair)
        assert required_parallelism(
            arrival, service, current, lo, max_parallelism=1024
        ) <= required_parallelism(
            arrival, service, current, hi, max_parallelism=1024
        )


class TestHysteresisDeadBand:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        service=services,
        current=currents,
        target=targets,
        hyst=st.floats(min_value=0.05, max_value=0.9, allow_nan=False),
        # where in the dead band the raw requirement lands
        offset=st.floats(min_value=-0.9, max_value=0.9, allow_nan=False),
    )
    def test_requirement_inside_band_holds_current(
        self, service, current, target, hyst, offset
    ):
        """An offered load whose raw requirement sits anywhere inside
        ``current * (1 +/- hysteresis)`` keeps the current parallelism:
        stationary load means zero scaling churn."""
        raw = current * (1.0 + offset * hyst)
        arrival = raw * service * target
        required = required_parallelism(
            arrival,
            service,
            current,
            0,
            target_utilisation=target,
            hysteresis=hyst,
            max_parallelism=1024,
        )
        assert required == current


def _unit(arrival_seed: int, rate_x: float = 1.5) -> SimulationUnit:
    return SimulationUnit(
        scheduler=spec(RStormScheduler),
        topologies=(spec(linear_topology, "compute"),),
        cluster=spec(emulab_testbed),
        config=SimulationConfig(
            duration_s=45.0,
            warmup_s=10.0,
            arrival_process=DeterministicArrivals(
                rate_tps=BASE_RATE_TPS * rate_x
            ),
            arrival_seed=arrival_seed,
        ),
        storm=(("nimbus.elastic.enabled", True),),
    )


class TestControllerDeterminism:
    @pytest.mark.parametrize("arrival_seed", [1, 7, 42])
    def test_identical_inputs_identical_decisions(self, arrival_seed):
        """Two executions of the same (seed, trace) unit produce the
        same decision sequence, churn and final assignments — the loop
        has no hidden RNG or wall-clock dependence."""
        a = _unit(arrival_seed).execute()
        b = _unit(arrival_seed).execute()
        assert a.elastic_decisions == b.elastic_decisions
        assert a.elastic_tasks_moved == b.elastic_tasks_moved
        assert a.final_parallelism == b.final_parallelism
        assert {
            tid: {t.task_id: str(asg.slot_of(t)) for t in asg.tasks}
            for tid, asg in a.assignments.items()
        } == {
            tid: {t.task_id: str(asg.slot_of(t)) for t in asg.tasks}
            for tid, asg in b.assignments.items()
        }

    def test_overload_actually_scales(self):
        """Sanity for the fixture: at 1.5x the controller does act."""
        outcome = _unit(1).execute()
        assert any(d.action == "scale-up" for d in outcome.elastic_decisions)

    def test_stationary_load_zero_churn(self):
        """Offered load inside the dead band (0.6x: raw requirement 5.1
        against parallelism 6 with 25% hysteresis) -> no scale actions
        and zero elastic churn for the whole run."""
        outcome = _unit(1, rate_x=0.6).execute()
        scaling = [
            d for d in outcome.elastic_decisions if d.action != "rebalance"
        ]
        assert scaling == []
        assert outcome.elastic_tasks_moved == 0
        assert outcome.recovery["linear-compute"].elastic_tasks_moved == 0
