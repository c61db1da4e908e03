"""Shared helpers for the fault-injection tests."""

from __future__ import annotations

from types import SimpleNamespace

from repro.cluster import emulab_testbed
from repro.experiments.harness import wire
from repro.scheduler import RStormScheduler
from repro.simulation import SimulationConfig
from tests.conftest import make_linear


def build_chaos(
    schedule,
    cluster=None,
    topology=None,
    scheduler=None,
    duration_s=60.0,
    warmup_s=10.0,
    heartbeat_interval_s=2.0,
    heartbeat_timeout_s=6.0,
    scheduling_interval_s=5.0,
):
    """Stand up the full coordination plane around one fault schedule.

    The same wiring a chaos unit's ``execute()`` runs, with every
    component handed back so tests can poke at them.  Call
    ``ctx.run.run()`` to execute.
    """
    cluster = cluster if cluster is not None else emulab_testbed()
    topology = topology if topology is not None else make_linear()
    wiring = wire(
        scheduler or RStormScheduler(),
        [topology],
        cluster,
        SimulationConfig(duration_s=duration_s, warmup_s=warmup_s),
        storm={
            "nimbus.scheduler.interval.secs": scheduling_interval_s,
            "nimbus.supervisor.heartbeat.secs": heartbeat_interval_s,
            "nimbus.supervisor.timeout.secs": heartbeat_timeout_s,
        },
        faults=schedule,
    )
    return SimpleNamespace(topology=topology, **vars(wiring))
