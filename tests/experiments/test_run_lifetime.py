"""A finished run is freed by reference counting alone.

An experiment executes dozens of units back to back in one process.  If
a finished :class:`~repro.simulation.runtime.SimulationRun` sat in a
reference cycle, its event heap, acker trees, queues and arrival log
would stay alive until the cyclic collector happened to run, and the
process's peak memory would hold several dead runs at once.  Each test
here executes one kind of unit with the collector disabled and finds
the run's weakref dead as soon as ``execute()`` returns.
"""

import gc
import weakref

import pytest

from repro.experiments import elastic, fault_recovery, protection, tenants
from repro.experiments.fig9_compute_bound import compute_bound_units
from repro.experiments.parallel import SimulationUnit, spec
from repro.simulation.config import SimulationConfig

DURATION_S = 30.0


def figure_unit():
    """Closed loop, no Nimbus: the path every paper figure takes."""
    return compute_bound_units(
        SimulationConfig(duration_s=DURATION_S, warmup_s=5.0)
    )[0]


def traffic_unit():
    """Open-loop Poisson arrivals past saturation with backpressure and
    shedding."""
    unit = protection.sweep_units(DURATION_S, multipliers=(2.0,))[2]
    assert unit.config.flow is not None
    return unit


def chaos_unit():
    """Detector, Nimbus with quarantine, injector and a lossy trunk
    under at-least-once delivery."""
    config = SimulationConfig(
        duration_s=DURATION_S,
        warmup_s=5.0,
        at_least_once=True,
        max_retries=3,
    )
    loss = spec(fault_recovery.lossy_link, at=10.0, until=20.0,
                drop_probability=0.2)
    return fault_recovery.chaos_units(
        config, scenarios=[("lossy-link", loss)], quarantine=True
    )[0]


def elastic_unit():
    """The elastic controller switched on, over open-loop arrivals."""
    return next(
        u for u in elastic.scenario_units(DURATION_S)
        if ("nimbus.elastic.enabled", True) in u.storm
    )


def tenants_unit():
    """Weighted-DRF admission before an open-loop run."""
    return tenants.tenant_units(DURATION_S)[0]


UNITS = {
    "figure": figure_unit,
    "traffic": traffic_unit,
    "chaos": chaos_unit,
    "elastic": elastic_unit,
    "tenants": tenants_unit,
}


@pytest.fixture
def collector_off():
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    yield
    if was_enabled:
        gc.enable()


@pytest.mark.parametrize("kind", sorted(UNITS))
def test_run_is_freed_when_execute_returns(kind, monkeypatch, collector_off):
    runs = []
    wire = SimulationUnit.wire

    def recording_wire(unit):
        wiring = wire(unit)
        runs.append(weakref.ref(wiring.run))
        return wiring

    monkeypatch.setattr(SimulationUnit, "wire", recording_wire)
    outcome = UNITS[kind]().execute()

    assert len(runs) == 1
    assert runs[0]() is None, f"the {kind} run outlived execute()"
    assert outcome.report.events_processed > 0
    if kind == "chaos":
        assert outcome.injected
    if kind == "elastic":
        assert outcome.final_parallelism
    if kind == "tenants":
        assert outcome.admitted
