"""Each periodic control loop attaches to a run once.

A second ``attach`` would start a second self-rescheduling chain and
silently double the heartbeats, scheduling rounds or control cycles, so
it raises :class:`~repro.errors.ConfigError` (as
:meth:`FaultInjector.attach <repro.faults.injector.FaultInjector.attach>`
does) and schedules nothing.
"""

import pytest

from repro.cluster import emulab_testbed
from repro.errors import ConfigError
from repro.nimbus import (
    HeartbeatFailureDetector,
    Nimbus,
    StormConfig,
    Supervisor,
)
from repro.nimbus.elastic import ElasticController
from repro.scheduler.rstorm import RStormScheduler
from repro.simulation import SimulationConfig, SimulationRun
from tests.conftest import make_linear


def wired(elastic_enabled=True):
    cluster = emulab_testbed()
    nimbus = Nimbus(
        cluster,
        scheduler=RStormScheduler(),
        config=StormConfig({"nimbus.elastic.enabled": elastic_enabled}),
    )
    supervisors = []
    for node in cluster.nodes:
        supervisor = Supervisor(node)
        nimbus.register_supervisor(supervisor)
        supervisors.append(supervisor)
    topology = make_linear(parallelism=2, stages=2)
    nimbus.submit_topology(topology)
    nimbus.schedule_round()
    run = SimulationRun(
        cluster,
        [(topology, nimbus.assignments["chain"])],
        SimulationConfig(duration_s=60.0, warmup_s=10.0),
    )
    return run, nimbus, supervisors


def attachers(nimbus, supervisors):
    """Loop name -> the one-argument ``attach`` of one fresh loop."""
    detector = HeartbeatFailureDetector(
        supervisors, heartbeat_interval_s=3.0, timeout_s=10.0
    )
    controller = ElasticController(nimbus)
    return {
        "detector": detector.attach,
        "nimbus": nimbus.attach,
        "elastic": controller.attach,
    }


@pytest.mark.parametrize("loop", ["detector", "nimbus", "elastic"])
def test_second_attach_raises_and_schedules_nothing(loop):
    run, nimbus, supervisors = wired()
    attach = attachers(nimbus, supervisors)[loop]
    attach(run)
    pending = len(run.sim.heap)
    assert pending > 0
    with pytest.raises(ConfigError, match="already attached"):
        attach(run)
    assert len(run.sim.heap) == pending


def test_disabled_elastic_controller_attaches_once_too():
    run, nimbus, _ = wired(elastic_enabled=False)
    controller = ElasticController(nimbus)
    controller.attach(run)
    assert run.sim.heap == []  # disabled: no control loop at all
    with pytest.raises(ConfigError, match="already attached"):
        controller.attach(run)


def test_nimbus_rounds_are_not_doubled():
    run, nimbus, _ = wired()
    nimbus.attach(run)
    with pytest.raises(ConfigError):
        nimbus.attach(run)
    before = len(nimbus.rounds)
    run.run()
    # 10 s period over 60 s: rounds at 10, 20, ..., 60.
    assert len(nimbus.rounds) - before == 6
