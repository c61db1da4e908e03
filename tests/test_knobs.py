"""Every knob moves something (ROADMAP item 12).

Every configuration knob has a row in :data:`ROWS`: each
:class:`~repro.simulation.config.SimulationConfig` field, each
:class:`~repro.simulation.flowcontrol.FlowControlConfig` field and each
storm.yaml :data:`~repro.nimbus.config.KEYS` row.  A row names a tiny
run with the knob's layer switched on (a few simulated seconds on the
CI smoke scenarios' inputs) and a value to move the knob to.  The run is
made at its scenario's base and again with only that knob moved, and the
two report digests must differ.

A knob that cannot be moved cheaply goes in :data:`EXCUSED` with its
reason.  A knob whose moved value changes nothing belongs in neither
table: it is deleted.  The completeness check fails when a field or key
has no entry, so a new knob cannot land without proving it moves
something.
"""

from __future__ import annotations

import dataclasses
import hashlib
from typing import Any, Dict, Optional, Tuple

import pytest

from repro.cluster.builders import emulab_testbed
from repro.experiments import overload, tenants
from repro.experiments.harness import wire
from repro.faults.events import NodeCrash
from repro.faults.schedule import FaultSchedule
from repro.nimbus.config import KEYS, StormConfig
from repro.scheduler.default import DefaultScheduler
from repro.scheduler.rstorm import RStormScheduler
from repro.simulation.config import SimulationConfig
from repro.simulation.export import report_as_dict
from repro.simulation.flowcontrol import FlowControlConfig
from repro.traffic.arrivals import PoissonArrivals
from repro.traffic.keys import ZipfKeys
from repro.workloads.micro import (
    _COMPUTE_RATE_TPS,
    hotspot_topology,
    linear_topology,
)

#: The tiny runs.  Each is ``wire()``'s inputs as keyword arguments,
#: with ``config`` the :class:`SimulationConfig` overrides, ``flow`` the
#: :class:`FlowControlConfig` arguments (``None``: flow control off) and
#: ``scheduler`` ``None`` for the one ``storm.scheduler`` names.
SCENARIOS: Dict[str, Dict[str, Any]] = {
    # Closed loop, resource-oblivious placement: tasks spread over
    # worker processes, so every delivery pays serialisation.
    "closed": dict(
        scheduler=DefaultScheduler,
        topologies=lambda: [linear_topology("compute")],
        config=dict(duration_s=6.0, warmup_s=2.0, window_s=1.0),
    ),
    # Memory over-committed by the default scheduler: nodes thrash.
    "thrash": dict(
        scheduler=DefaultScheduler,
        cluster=lambda: emulab_testbed(memory_mb=300.0),
        topologies=lambda: [linear_topology("compute")],
        config=dict(duration_s=4.0, warmup_s=1.0),
    ),
    # No spout credit: the narrow stage's queue overflows and its
    # worker crashes.
    "overflow": dict(
        topologies=lambda: [hotspot_topology()],
        config=dict(
            duration_s=8.0, warmup_s=1.0, max_spout_pending=None,
            queue_overflow_batches=20, worker_restart_s=3.0,
        ),
    ),
    # At-least-once delivery with trees that time out.
    "replay": dict(
        topologies=lambda: [hotspot_topology()],
        config=dict(
            duration_s=8.0, warmup_s=1.0, max_spout_pending=None,
            queue_overflow_batches=None, batch_timeout_s=1.0,
            at_least_once=True, replay_backoff_s=0.5,
        ),
    ),
    # Open-loop Poisson traffic into a fields-grouped first hop.
    "open": dict(
        topologies=lambda: [overload.keyed_linear_topology()],
        config=dict(
            duration_s=6.0, warmup_s=1.0, window_s=1.0,
            arrival_process=PoissonArrivals(rate_tps=_COMPUTE_RATE_TPS),
        ),
    ),
    # The protection scenario: open-loop overload of the hotspot with
    # bounded queues and backpressure ...
    "backpressure": dict(
        topologies=lambda: [hotspot_topology()],
        config=dict(
            duration_s=6.0, warmup_s=1.0,
            arrival_process=PoissonArrivals(rate_tps=1.5 * _COMPUTE_RATE_TPS),
        ),
        flow=dict(queue_capacity=16, shedding="none"),
    ),
    # ... and with priority shedding, the hotspot ranked below a second
    # (absent) class so that it sheds before its queues fill.
    "shedding": dict(
        topologies=lambda: [hotspot_topology()],
        config=dict(
            duration_s=6.0, warmup_s=1.0,
            arrival_process=PoissonArrivals(rate_tps=1.5 * _COMPUTE_RATE_TPS),
        ),
        flow=dict(
            queue_capacity=16,
            shedding="priority",
            priorities=(("hotspot-compute", 0), ("gold", 2)),
        ),
    ),
    # A crash the heartbeat detector must find and Nimbus must recover.
    "crash": dict(
        topologies=lambda: [linear_topology("compute")],
        config=dict(duration_s=30.0, warmup_s=1.0),
        faults=FaultSchedule.of(NodeCrash(at=5.0, node_id="node-0-0")),
    ),
    # The chaos scenario's flapping node, with quarantine on: node-0-0
    # flaps three times, then node-0-1 crashes for good, and whether
    # its tasks may land on node-0-0 is up to the quarantine.
    "flapping": dict(
        topologies=lambda: [linear_topology("compute")],
        config=dict(duration_s=75.0, warmup_s=1.0),
        storm={
            "nimbus.quarantine.enabled": True,
            "nimbus.scheduler.interval.secs": 5.0,
            "nimbus.supervisor.heartbeat.secs": 2.0,
            "nimbus.supervisor.timeout.secs": 6.0,
        },
        faults=FaultSchedule.of(
            *(
                NodeCrash(at=at, node_id="node-0-0", rejoin_at=at + 12.0)
                for at in (5.0, 21.0, 37.0)
            ),
            NodeCrash(at=55.0, node_id="node-0-1"),
        ),
    ),
    # The elastic scenario's sustained overload, with the loop on.
    "elastic": dict(
        topologies=lambda: [linear_topology("compute")],
        config=dict(
            duration_s=30.0, warmup_s=1.0,
            arrival_process=PoissonArrivals(rate_tps=1.5 * _COMPUTE_RATE_TPS),
        ),
        storm={
            "nimbus.elastic.enabled": True,
            "nimbus.elastic.interval.secs": 5.0,
        },
    ),
    # Light load, so the loop wants to scale down.
    "elastic-idle": dict(
        topologies=lambda: [linear_topology("compute")],
        config=dict(
            duration_s=30.0, warmup_s=1.0,
            arrival_process=PoissonArrivals(rate_tps=0.2 * _COMPUTE_RATE_TPS),
        ),
        storm={
            "nimbus.elastic.enabled": True,
            "nimbus.elastic.interval.secs": 5.0,
        },
    ),
    # The tenants scenario's staged admission into a full cluster.
    "tenancy": dict(
        topologies=lambda: [],
        config=dict(duration_s=2.0, warmup_s=1.0),
        tenants=tenants.TENANTS,
        submissions=lambda: [
            (due, tenant_id, topology.build())
            for due, tenant_id, topology in tenants.SUBMISSIONS
        ],
        rounds=tenants.ROUNDS,
    ),
    # Scheduler chosen by storm.yaml, as Nimbus does with none given.
    "storm-yaml": dict(
        scheduler=None,
        topologies=lambda: [linear_topology("compute")],
        config=dict(duration_s=4.0, warmup_s=1.0),
        storm={"storm.scheduler": "default"},
    ),
}

#: (layer, knob) -> (scenario, moved value).  Layers: ``config``
#: (SimulationConfig), ``flow`` (FlowControlConfig), ``storm`` (KEYS).
ROWS: Dict[Tuple[str, str], Tuple[str, Any]] = {
    ("config", "duration_s"): ("closed", 7.0),
    ("config", "window_s"): ("closed", 2.0),
    ("config", "warmup_s"): ("open", 3.0),
    ("config", "max_spout_pending"): ("closed", 1),
    ("config", "batch_timeout_s"): ("replay", 2.0),
    ("config", "thrash_factor"): ("thrash", 2.0),
    ("config", "serde_ms_per_tuple"): ("closed", 0.2),
    ("config", "queue_overflow_batches"): ("overflow", 40),
    ("config", "worker_restart_s"): ("overflow", 1.0),
    ("config", "at_least_once"): ("replay", False),
    ("config", "max_retries"): ("replay", 0),
    ("config", "replay_backoff_s"): ("replay", 0.1),
    ("config", "arrival_process"): ("open", None),
    ("config", "arrival_keys"): ("open", ZipfKeys(num_keys=64, exponent=1.4)),
    ("config", "arrival_seed"): ("open", 2),
    ("config", "flow"): ("backpressure", None),
    ("flow", "queue_capacity"): ("backpressure", 8),
    ("flow", "high_watermark"): ("backpressure", 0.5),
    ("flow", "low_watermark"): ("backpressure", 0.1),
    ("flow", "shedding"): ("shedding", "tail-drop"),
    ("flow", "priorities"): ("shedding", ()),
    ("storm", "storm.scheduler"): ("storm-yaml", "r-storm"),
    ("storm", "topology.workers"): ("storm-yaml", 2),
    ("storm", "nimbus.scheduler.interval.secs"): ("crash", 4.0),
    ("storm", "nimbus.supervisor.heartbeat.secs"): ("crash", 1.0),
    ("storm", "nimbus.supervisor.timeout.secs"): ("crash", 5.0),
    ("storm", "nimbus.quarantine.enabled"): ("flapping", False),
    ("storm", "nimbus.quarantine.threshold"): ("flapping", 2),
    ("storm", "nimbus.quarantine.window.secs"): ("flapping", 20.0),
    ("storm", "nimbus.quarantine.probation.secs"): ("flapping", 5.0),
    ("storm", "nimbus.elastic.enabled"): ("elastic", False),
    ("storm", "nimbus.elastic.interval.secs"): ("elastic", 7.0),
    ("storm", "nimbus.elastic.target.utilisation"): ("elastic", 0.95),
    ("storm", "nimbus.elastic.hysteresis"): ("elastic", 0.9),
    ("storm", "nimbus.elastic.min.parallelism"): ("elastic-idle", 4),
    ("storm", "nimbus.elastic.max.parallelism"): ("elastic", 6),
    ("storm", "nimbus.elastic.scale.down.patience"): ("elastic-idle", 1),
    ("storm", "nimbus.tenancy.headroom"): ("tenancy", 0.5),
    ("storm", "nimbus.tenancy.credit.accrual"): ("tenancy", 3.0),
    ("storm", "nimbus.tenancy.credit.bias"): ("tenancy", 1.0),
    ("storm", "nimbus.tenancy.preemption.enabled"): ("tenancy", False),
    ("storm", "nimbus.tenancy.max.preemptions"): ("tenancy", 1),
}

#: (layer, knob) -> why the law cannot check it cheaply.
EXCUSED: Dict[Tuple[str, str], str] = {}


def _run(scenario: str, layer: Optional[str] = None, knob: str = "", value=None):
    inputs = dict(SCENARIOS[scenario])
    config = dict(inputs.pop("config"))
    flow = inputs.pop("flow", None)
    storm = dict(inputs.pop("storm", {}))
    if layer == "config":
        config[knob] = value
    elif layer == "flow":
        flow = {**flow, knob: value}
    elif layer == "storm":
        storm[knob] = value
    if flow is not None and "flow" not in config:
        config["flow"] = FlowControlConfig(**flow)
    scheduler = inputs.pop("scheduler", RStormScheduler)
    for name in ("topologies", "submissions"):
        if name in inputs:
            inputs[name] = inputs[name]()
    wiring = wire(
        scheduler() if scheduler else StormConfig(storm).make_scheduler(),
        cluster=inputs.pop("cluster", emulab_testbed)(),
        config=SimulationConfig(**config),
        storm=storm,
        **inputs,
    )
    return wiring.outcome(wiring.run.run())


def _canonical(value: Any) -> Any:
    """``value`` as plain data: every mapping as sorted pairs, so two
    runs that measured the same things digest alike whatever their
    insertion order, and every object by its attributes, never by its
    address."""
    if isinstance(value, dict):
        return sorted((repr(k), _canonical(v)) for k, v in value.items())
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    if dataclasses.is_dataclass(value):
        names = [field.name for field in dataclasses.fields(value)]
    elif type(value).__repr__ is object.__repr__:
        names = getattr(type(value), "__slots__", None) or list(vars(value))
    else:
        return value
    return type(value).__name__, [
        (name, _canonical(getattr(value, name))) for name in names
    ]


def digest(outcome) -> str:
    """sha256 of everything the run measured.  Config echoes (the
    report's own window, warm-up and duration) are left out, so a knob
    counts as moving something only when a measurement moved."""
    report = outcome.report
    summary = report_as_dict(report)
    for echo in ("duration_s", "window_s", "warmup_s"):
        del summary[echo]
    stats = {k: v for k, v in vars(report.stats).items() if k != "window_s"}
    rest = {
        field.name: getattr(outcome, field.name)
        for field in dataclasses.fields(outcome)
        if field.name != "report"
    }
    rest["assignments"] = {
        topology_id: {str(t): str(s) for t, s in assignment.as_dict().items()}
        for topology_id, assignment in outcome.assignments.items()
    }
    text = repr(_canonical((summary, stats, rest)))
    assert " at 0x" not in text, "an object digested by its address"
    return hashlib.sha256(text.encode()).hexdigest()


_BASE: Dict[str, str] = {}


def _base_digest(scenario: str) -> str:
    if scenario not in _BASE:
        _BASE[scenario] = digest(_run(scenario))
    return _BASE[scenario]


def test_every_knob_has_a_row():
    """A new field or key fails here until it has a row (or an excuse),
    and a deleted one until its row goes."""
    knobs = (
        [("config", f.name) for f in dataclasses.fields(SimulationConfig)]
        + [("flow", f.name) for f in dataclasses.fields(FlowControlConfig)]
        + [("storm", key) for key in KEYS]
    )
    assert set(knobs) == set(ROWS) | set(EXCUSED)
    assert not set(ROWS) & set(EXCUSED)


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_a_rerun_digests_alike(scenario):
    """Without this, a digest that drifts from run to run would let
    every knob pass."""
    assert digest(_run(scenario)) == _base_digest(scenario)


@pytest.mark.parametrize(
    "layer,knob", sorted(ROWS), ids=lambda part: str(part)
)
def test_moving_the_knob_moves_the_report(layer, knob):
    scenario, moved = ROWS[layer, knob]
    assert digest(_run(scenario, layer, knob, moved)) != _base_digest(scenario)
