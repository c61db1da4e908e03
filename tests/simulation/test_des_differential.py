"""Differential suite: the live DES runtime against its frozen oracle.

``reference_runtime`` is ``simulation/runtime.py`` frozen at a named
commit.  Each hypothesis example draws one or two random topologies, a
small two-rack cluster, a placement and a layer mix:

* closed loop, or Poisson open loop with or without routing keys;
* at-least-once replay on or off;
* flow control off, or on with each shedding policy;
* queue-overflow crashes on or off;
* a fault schedule with a node crash and rejoin, a CPU slowdown and a
  lossy, duplicating inter-rack trunk;
* one mid-run ``migrate`` and one mid-run bolt ``rescale``;
* no observer, one that reads every kind, or one that declares
  ``KINDS`` (the recovery monitor's), so the live runtime builds no
  per-batch event for it.

It then runs the live and the frozen runtime on identical inputs and
requires identical results: ``summary()``, ``delivery_audit()``, busy
time per node (``float.hex``), NIC bytes, ``events_processed``, ack
latencies, the shed counters (per topology, stage, component and
window), the credit ledgers and the observer's event sequence: the full
one, which holds every ``shed`` event, or for a subscribed observer the
frozen side's full sequence filtered to its kinds.  Each side builds its
own cluster, because node failure mutates ``Node``, and re-seeds
:mod:`random` first.

Tier-1 runs :data:`TIER1_EXAMPLES` examples.  CI runs this file alone
under the ``des-oracle`` hypothesis profile (registered in
``tests/conftest.py``), which searches far more.  A last test checks
that the oracle shares no code with the live runtime or flow layer
beyond ``FlowControlConfig``.
"""

import ast
import importlib
import random
from dataclasses import dataclass
from pathlib import Path
from types import ModuleType
from typing import Optional

from hypothesis import HealthCheck, assume, example, given, strategies as st

from repro.cluster.builders import uniform_cluster
from repro.cluster.resources import ResourceSchema
from repro.errors import SchedulingError
from repro.faults.events import MessageLoss, NodeCrash, NodeSlowdown
from repro.faults.injector import FaultInjector
from repro.faults.monitor import RecoveryMonitor
from repro.faults.schedule import FaultSchedule
from repro.scheduler.assignment import Assignment
from repro.scheduler.default import DefaultScheduler
from repro.scheduler.rstorm import RStormScheduler
from repro.simulation import runtime as live_runtime
from repro.simulation.config import SimulationConfig
from repro.simulation.flowcontrol import FlowControlConfig
from repro.traffic.arrivals import PoissonArrivals
from repro.traffic.keys import UniformKeys, ZipfKeys
from repro.workloads.generator import TopologySpec, random_topology

from tests.deep_search import search_settings
from tests.simulation import reference_runtime

#: examples per tier-1 run (about 7 s on a 2-vCPU VM)
TIER1_EXAMPLES = 120

SPEC = TopologySpec(max_layers=2, max_width=2, max_parallelism=3)
#: the optional second topology is smaller, to keep examples cheap
OTHER_SPEC = TopologySpec(max_layers=1, max_width=2, max_parallelism=2)
DURATION_S = 8.0
RACKS = ("rack-0", "rack-1")


@dataclass(frozen=True)
class Case:
    """One drawn scenario; both runtimes are built from it alone."""

    seed: int
    topo_seed: int
    #: a second topology sharing the cluster, or None
    other_seed: Optional[int]
    scheduler: str
    nodes_per_rack: int
    node_memory_mb: float
    loop: str
    rate_tps: float
    at_least_once: bool
    shedding: Optional[str]
    queue_capacity: int
    overflow: Optional[int]
    crash_node: int
    crash_at: float
    rejoin_after: float
    slow_node: int
    slow_factor: float
    slow_at: float
    loss_at: float
    drop_p: float
    dup_p: float
    migrate_at: float
    migrate_shift: int
    rescale_at: float
    rescale_pick: int
    rescale_delta: int
    #: "off", "all" (every kind) or "subscribed" (:class:`Subscriber`)
    observe: str


@st.composite
def cases(draw) -> Case:
    times = st.floats(0.5, DURATION_S - 1.0).map(lambda t: round(t, 3))
    return Case(
        seed=draw(st.integers(0, 2**16)),
        topo_seed=draw(st.integers(0, 10_000)),
        other_seed=draw(st.none() | st.integers(0, 10_000)),
        scheduler=draw(st.sampled_from(("rstorm", "default"))),
        nodes_per_rack=draw(st.sampled_from((2, 3))),
        node_memory_mb=draw(st.sampled_from((1024.0, 4096.0))),
        loop=draw(st.sampled_from(("closed", "poisson", "poisson-keys"))),
        rate_tps=draw(st.sampled_from((400.0, 2000.0, 8000.0))),
        at_least_once=draw(st.booleans()),
        shedding=draw(st.sampled_from((None, "none", "tail-drop", "priority"))),
        queue_capacity=draw(st.sampled_from((2, 6, 32))),
        overflow=draw(st.sampled_from((None, 6, 40))),
        crash_node=draw(st.integers(0, 5)),
        crash_at=draw(times),
        rejoin_after=draw(st.sampled_from((0.5, 2.0))),
        slow_node=draw(st.integers(0, 5)),
        slow_factor=draw(st.sampled_from((2.0, 8.0))),
        slow_at=draw(times),
        loss_at=draw(times),
        drop_p=draw(st.sampled_from((0.0, 0.1, 0.4))),
        dup_p=draw(st.sampled_from((0.1, 0.4))),
        migrate_at=draw(times),
        migrate_shift=draw(st.integers(0, 11)),
        rescale_at=draw(times),
        rescale_pick=draw(st.integers(0, 7)),
        rescale_delta=draw(st.sampled_from((-2, -1, 1, 2))),
        observe=draw(st.sampled_from(("off", "all", "subscribed"))),
    )


def make_cluster(case: Case):
    schema = ResourceSchema.storm_default()
    return uniform_cluster(
        nodes_per_rack=case.nodes_per_rack,
        racks=len(RACKS),
        capacity=schema.vector(
            memory_mb=case.node_memory_mb, cpu=400.0, bandwidth_mbps=100.0
        ),
    )


def make_config(case: Case) -> SimulationConfig:
    flow = None
    if case.shedding is not None:
        flow = FlowControlConfig(
            queue_capacity=case.queue_capacity,
            shedding=case.shedding,
            # The higher class sheds last; "other" may not be running,
            # which still lowers "diff"'s threshold.
            priorities=(("diff", 0), ("other", 1)),
        )
    open_loop = case.loop != "closed"
    keys = None
    if case.loop == "poisson-keys":
        keys = ZipfKeys(16) if case.seed % 2 else UniformKeys(16)
    return SimulationConfig(
        duration_s=DURATION_S,
        warmup_s=1.0,
        window_s=2.0,
        batch_timeout_s=1.5,
        worker_restart_s=1.0,
        replay_backoff_s=0.25,
        max_retries=2,
        queue_overflow_batches=case.overflow,
        at_least_once=case.at_least_once,
        arrival_process=(
            PoissonArrivals(rate_tps=case.rate_tps) if open_loop else None
        ),
        arrival_keys=keys,
        arrival_seed=case.seed,
        flow=flow,
    )


def fault_schedule(case: Case, node_ids) -> FaultSchedule:
    """Faults on nodes the placement uses (``node_ids``, sorted)."""
    crash_node = node_ids[case.crash_node % len(node_ids)]
    slow_node = node_ids[case.slow_node % len(node_ids)]
    return FaultSchedule.of(
        NodeCrash(
            at=case.crash_at,
            node_id=crash_node,
            rejoin_at=case.crash_at + case.rejoin_after,
        ),
        NodeSlowdown(
            at=case.slow_at, node_id=slow_node, factor=case.slow_factor,
            until=case.slow_at + 2.0,
        ),
        MessageLoss(
            at=case.loss_at, rack_a=RACKS[0], rack_b=RACKS[1],
            drop_probability=case.drop_p, duplicate_probability=case.dup_p,
            until=case.loss_at + 3.0, seed=case.seed,
        ),
    )


class Subscriber:
    """A live observer that reads only the recovery monitor's kinds."""

    KINDS = RecoveryMonitor.KINDS

    def __init__(self, kept: list):
        self.kept = kept

    def __call__(self, event) -> None:
        if event.kind in self.KINDS:
            self.kept.append(event)


class Control:
    """The mid-run ``migrate`` and ``rescale``, derived from the case and
    the run's current generation so both sides issue identical calls."""

    def __init__(self, case: Case, run, assignment: Assignment, slots):
        self.case = case
        self.run = run
        self.assignment = assignment
        self.slots = slots

    def migrate(self) -> None:
        topology_id = self.assignment.topology_id
        shift = self.case.migrate_shift
        mapping = self.assignment.as_dict()
        topology = self.run.current_topology(topology_id)
        for i, task in enumerate(topology.tasks):
            if (i + shift) % 3 == 0:
                mapping[task] = self.slots[(i + shift) % len(self.slots)]
        self.assignment = Assignment(topology_id, mapping)
        self.run.migrate(topology_id, self.assignment, reason="elastic")

    def rescale(self) -> None:
        topology_id = self.assignment.topology_id
        topology = self.run.current_topology(topology_id)
        bolts = sorted(bolt.name for bolt in topology.bolts)
        name = bolts[self.case.rescale_pick % len(bolts)]
        parallelism = topology.component(name).parallelism
        new_topology = topology.with_parallelism(
            name, max(1, parallelism + self.case.rescale_delta)
        )
        current = self.assignment.as_dict()
        mapping = {}
        for task in new_topology.tasks:
            if task in current and task.task_id % 4 != 0:
                mapping[task] = current[task]
            else:
                mapping[task] = self.slots[
                    (task.task_id * 5 + self.case.migrate_shift)
                    % len(self.slots)
                ]
        self.assignment = Assignment(topology_id, mapping)
        self.run.rescale(topology_id, new_topology, self.assignment)


def outcome(runtime_module, case: Case) -> dict:
    """Run ``case`` on one runtime implementation and collect everything
    the two sides must agree on."""
    random.seed(case.seed)
    cluster = make_cluster(case)
    topologies = [random_topology(case.topo_seed, SPEC, name="diff")]
    if case.other_seed is not None:
        topologies.append(random_topology(case.other_seed, OTHER_SPEC, name="other"))
    scheduler = (
        RStormScheduler() if case.scheduler == "rstorm" else DefaultScheduler()
    )
    try:
        assignments = scheduler.schedule(topologies, cluster)
    except SchedulingError:
        return {"unschedulable": True}
    random.seed(case.seed)
    run = runtime_module.SimulationRun(
        cluster,
        [(t, assignments[t.topology_id]) for t in topologies],
        make_config(case),
    )
    trace = []
    if case.observe == "subscribed" and runtime_module is live_runtime:
        run.observer = Subscriber(trace)
    elif case.observe != "off":
        run.observer = trace.append
    node_ids = sorted(node.node_id for node in cluster.nodes)
    slots = [slot for node_id in node_ids for slot in cluster.node(node_id).slots]
    used = sorted({n for a in assignments.values() for n in a.nodes})
    FaultInjector(fault_schedule(case, used)).attach(run)
    control = Control(case, run, assignments["diff"], slots)
    run.on_time(case.migrate_at, control.migrate)
    run.on_time(case.rescale_at, control.rescale)
    report = run.run()
    topology_ids = [t.topology_id for t in topologies]
    stats = run.stats
    return {
        "summary": {
            tid: {key: float(value).hex() for key, value in row.items()}
            for tid, row in report.summary().items()
        },
        "audit": run.delivery_audit(),
        "busy": {n: stats.busy.get(n, 0.0).hex() for n in node_ids},
        "nic": {n: stats.nic_bytes.get(n, 0) for n in node_ids},
        "events": report.events_processed,
        "acks": {
            tid: [x.hex() for x in stats.ack_latencies(tid)]
            for tid in topology_ids
        },
        "shed": (
            dict(stats.shed_totals), dict(stats.shed_stages),
            dict(stats.shed_components), dict(stats.shed_windows),
        ),
        "credits": None if case.shedding is None else {
            (tid, edge): (c.pool, c.outstanding, c.sends, c.drains,
                          c.stalled, c.stall_count)
            for tid in topology_ids
            for edge, c in run.flow_edges(tid).items()
        },
        "trace": trace if case.observe != "subscribed" else [
            event for event in trace if event.kind in Subscriber.KINDS
        ],
    }


def first_divergence(got, want) -> str:
    for i, (a, b) in enumerate(zip(got, want)):
        if a != b:
            return f"event {i}: live {a} != frozen {b}"
    return f"live has {len(got)} events, frozen {len(want)}"


def assert_same(case: Case) -> None:
    got = outcome(live_runtime, case)
    want = outcome(reference_runtime, case)
    assume("unschedulable" not in want)
    got_trace, want_trace = got.pop("trace"), want.pop("trace")
    assert got_trace == want_trace, first_divergence(got_trace, want_trace)
    for key in want:
        assert got[key] == want[key], key


#: The migrate at 2.294 s moves a spout task holding 12 queued batches
#: onto node-1-0, crashed at 1.9 s, before it rejoins at 3.9 s: the work
#: must be lost with the node.  Random draws reach this path too rarely
#: for tier-1's example count to catch a change to it.
MIGRATE_ONTO_CRASHED_NODE = Case(
    seed=1187, topo_seed=7205, other_seed=673, scheduler="default",
    nodes_per_rack=3, node_memory_mb=4096.0, loop="poisson",
    rate_tps=2000.0, at_least_once=True, shedding="tail-drop",
    queue_capacity=32, overflow=40, crash_node=3, crash_at=1.9,
    rejoin_after=2.0, slow_node=2, slow_factor=8.0, slow_at=1.0,
    loss_at=5.327, drop_p=0.1, dup_p=0.1, migrate_at=2.294,
    migrate_shift=3, rescale_at=7.0, rescale_pick=0, rescale_delta=-2,
    observe="off",
)


@search_settings(TIER1_EXAMPLES, suppress_health_check=list(HealthCheck))
@example(case=MIGRATE_ONTO_CRASHED_NODE)
@given(case=cases())
def test_live_runtime_matches_frozen_oracle(case):
    assert_same(case)


def oracle_imports():
    """``(module, name)`` for every import in the oracle (``name`` is
    None for a plain ``import module``)."""
    tree = ast.parse(Path(reference_runtime.__file__).read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from ((alias.name, None) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield from ((node.module, alias.name) for alias in node.names)


def defining_module(module: str, name: Optional[str]) -> str:
    """The module that defines what the import binds, so a name
    re-exported by a package still counts against its source."""
    if name is None:
        return module
    value = getattr(importlib.import_module(module), name, None)
    if value is None:  # a submodule not yet imported by its package
        return f"{module}.{name}"
    if isinstance(value, ModuleType):
        return value.__name__
    return getattr(value, "__module__", module)


def test_oracle_shares_no_runtime_or_flow_code():
    """Code the oracle took from the live runtime or flow layer would
    change both sides of the differential at once.  Only the config it
    is handed may be shared."""
    live = ("repro.simulation.runtime", "repro.simulation.flowcontrol")
    imported = {
        (name, defining_module(module, name)) for module, name in oracle_imports()
    }
    shared = {(name, origin) for name, origin in imported if origin in live}
    assert shared == {("FlowControlConfig", "repro.simulation.flowcontrol")}
