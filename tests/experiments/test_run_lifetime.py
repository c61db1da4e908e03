"""A finished run is freed by reference counting alone.

An experiment executes dozens of units back to back in one process.  If
a finished :class:`~repro.simulation.runtime.SimulationRun` sat in a
reference cycle, its event heap, acker trees, queues and arrival log
would stay alive until the cyclic collector happened to run, and the
process's peak memory would hold several dead runs at once.  Each test
here executes one kind of unit with the collector disabled, finds the
run's weakref dead as soon as ``execute()`` returns, and finds no cyclic
garbage at all: the runtime, the flow layer and the Nimbus side hold no
reference cycle, so nothing is left for the collector.  A run driven by
hand is acyclic too, once its event heap is cleared.
"""

import gc
import weakref

import pytest

from repro.cluster import emulab_testbed
from repro.experiments import (
    elastic,
    fault_recovery,
    protection,
    scalability,
    tenants,
)
from repro.experiments.fig9_compute_bound import compute_bound_units
from repro.experiments.parallel import SimulationUnit, spec
from repro.scheduler.assignment import Assignment
from repro.scheduler.rstorm import RStormScheduler
from repro.simulation.config import SimulationConfig
from repro.simulation.flowcontrol import FlowControlConfig
from repro.simulation.runtime import SimulationRun
from repro.traffic.arrivals import PoissonArrivals
from repro.workloads.micro import hotspot_topology, linear_topology

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
    assert gc.collect() == 0, f"the {kind} unit left cyclic garbage"
    assert outcome.report.events_processed > 0
    if kind == "chaos":
        assert outcome.injected
    if kind == "elastic":
        assert outcome.final_parallelism
    if kind == "tenants":
        assert outcome.admitted


def test_schedule_unit_leaves_no_cyclic_garbage(collector_off):
    """Placement and the flow-model prediction, no DES."""
    outcome = scalability.units()[0].execute()

    assert gc.collect() == 0
    assert outcome.assignments


def closed_loop_run():
    """A closed-loop chain on the paper's testbed."""
    topology = linear_topology("compute")
    cluster = emulab_testbed()
    assignment = RStormScheduler().schedule([topology], cluster)
    run = SimulationRun(
        cluster,
        [(topology, assignment[topology.topology_id])],
        SimulationConfig(duration_s=DURATION_S, warmup_s=5.0),
    )
    run.run(until=DURATION_S / 2)
    return run


def open_loop_run():
    """Poisson overload with backpressure, tail-drop shedding and
    at-least-once replay, through a bolt rescale and a node failure."""
    topology = hotspot_topology()
    topology_id = topology.topology_id
    cluster = emulab_testbed()
    assignment = RStormScheduler().schedule([topology], cluster)[topology_id]
    config = SimulationConfig(
        duration_s=DURATION_S,
        warmup_s=5.0,
        arrival_process=PoissonArrivals(rate_tps=375.0),
        flow=FlowControlConfig(queue_capacity=32, shedding="tail-drop"),
        at_least_once=True,
    )
    run = SimulationRun(cluster, [(topology, assignment)], config)
    run.run(until=5.0)
    # Shrink bolt-1: the removed tasks' runtimes leave the task table.
    rescaled = topology.with_parallelism("bolt-1", 2)
    current = assignment.as_dict()
    run.rescale(
        topology_id, rescaled,
        Assignment(topology_id, {t: current[t] for t in rescaled.tasks}),
    )
    run.fail_node_at(7.0, current[rescaled.tasks_of("bolt-1")[0]].node_id)
    run.run(until=DURATION_S / 2)
    return run


HAND_DRIVEN = {"closed-loop": closed_loop_run, "open-loop": open_loop_run}


@pytest.mark.parametrize("kind", sorted(HAND_DRIVEN))
def test_hand_driven_run_is_acyclic(kind, collector_off):
    """No ``execute()``: the run is stepped with ``run(until)`` and only
    its event heap is cleared, as the engine's direct-push contract
    allows for a finished run.  Acyclicity is a property of the
    runtime's object graph, not of anything ``execute()`` adds."""
    run = HAND_DRIVEN[kind]()
    assert run.sim.events_processed > 0
    ref = weakref.ref(run)
    run.sim.heap.clear()
    del run

    assert ref() is None, f"the {kind} run outlived its last reference"
    assert gc.collect() == 0, f"the {kind} run left cyclic garbage"
