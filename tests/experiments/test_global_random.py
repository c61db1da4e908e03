"""No work unit reads or seeds the global :mod:`random` state.

Every RNG in the simulator, the schedulers, the fault injector and the
traffic layer is a private :class:`random.Random` seeded from a config
field, a fault seed or a topology seed, so a unit's outcome depends on
its fields alone, in-process, in a worker and on replay.  Each test here
executes one kind of unit with every module-level function of
:mod:`random` replaced by one that raises.
"""

import random

import pytest

from repro.cluster.builders import uniform_cluster
from repro.cluster.resources import ResourceVector
from repro.experiments.parallel import ScheduleUnit, spec
from repro.scheduler.default import DefaultScheduler
from repro.scheduler.rstorm import RStormScheduler
from repro.workloads.generator import TopologySpec, random_topology
from tests.experiments.test_run_lifetime import UNITS

#: ``random.random``, ``random.shuffle``, ``random.seed``, ...: the
#: bound methods of the module's hidden shared instance.
GLOBAL_RNG = sorted(
    name
    for name in dir(random)
    if isinstance(getattr(getattr(random, name), "__self__", None), random.Random)
)


@pytest.fixture
def global_rng_forbidden(monkeypatch):
    assert {"random", "shuffle", "choice", "seed", "getrandbits"} <= set(
        GLOBAL_RNG
    )

    def forbid(name):
        def call(*_args, **_kwargs):
            raise AssertionError(f"random.{name}() touched the global RNG")

        return call

    for name in GLOBAL_RNG:
        monkeypatch.setattr(random, name, forbid(name))


@pytest.mark.parametrize("kind", sorted(UNITS))
def test_simulation_unit_leaves_global_rng_alone(kind, global_rng_forbidden):
    assert UNITS[kind]().execute().report.events_processed > 0


@pytest.mark.parametrize("scheduler", [RStormScheduler, DefaultScheduler])
def test_schedule_unit_leaves_global_rng_alone(scheduler, global_rng_forbidden):
    unit = ScheduleUnit(
        scheduler=spec(scheduler),
        topologies=(spec(random_topology, 3, TopologySpec()),),
        cluster=spec(
            uniform_cluster,
            nodes_per_rack=4,
            racks=2,
            capacity=ResourceVector.of(
                memory_mb=8192.0, cpu=400.0, bandwidth_mbps=1000.0
            ),
        ),
    )
    outcome = unit.execute()
    assert outcome.assignments and outcome.predicted_tps
