"""The benchmark registry: what ``repro bench`` measures.

Fourteen probes, ordered cheapest first:

* ``engine-churn`` — raw DES event loop: payload-carrying events that
  perpetually reschedule themselves through the heap.
* ``tuple-routing`` — the full tuple-batch path (routing, grouping,
  transfer model, stats) on a default-scheduled network-bound linear
  topology, where most traffic leaves the node.
* ``sched-rstorm`` / ``sched-default`` / ``sched-aniello`` — repeated
  scheduling rounds of the three compute micro-topologies on the Emulab
  testbed cluster.
* ``sched-scale`` — R-Storm scheduling rounds of five concurrent
  topologies on a 512-node, 8-rack synthetic cluster: the large-cluster
  scaling headline (ROADMAP's production-size target).
* ``nimbus-failover`` — incremental Nimbus rounds on the same cluster
  and topologies, each after failing one in-use node in a seeded
  rotation: the stateless round that re-places one node's tasks around
  the kept placements, i.e. Nimbus's reaction to a failure.
* ``chaos-replay`` — a fault-injected coordination-plane run (heartbeat
  detector, Nimbus rescheduling, busiest-node crash), replayed from the
  deterministic chaos scenario the ``chaos`` experiment uses.
* ``delivery-replay`` — the at-least-once delivery layer under a lossy
  inter-rack trunk: tuple-tree timeouts, spout replays with backoff,
  duplicate (ghost) deliveries, and the Nimbus quarantine bookkeeping,
  replayed from the extended chaos ``lossy-link`` scenario.
* ``fig9-e2e`` — the six fig9 work units end to end at ``--duration
  60``: schedule + simulate, the wall-clock the figure suite pays.
* ``traffic-overload`` — the open-loop traffic layer at 1.5x nominal
  capacity: Poisson arrival scheduling, per-arrival key assignment, and
  the end-to-end latency digest, on an R-Storm-packed mid-size linear
  topology deliberately driven past saturation.
* ``overload-protect`` — the flow-control layer's hot path: the hotspot
  fan-in topology at 1.5x nominal with bounded queues, credit
  backpressure and tail-drop shedding enabled, so per-delivery credit
  accounting, watermark checks and the shed counters are all on the
  measured path under sustained stall/resume churn.
* ``elastic-adapt`` — the elastic control loop adapting to sustained
  1.5x overload: per-period queue sampling, M/M/k sizing, live
  scale-up rescales and hot-executor rebalances on an R-Storm-packed
  linear topology.
* ``tenant-admission`` — the multi-tenant admission plane at scale:
  dozens of queued topologies from four tenant classes on the 512-node
  cluster, weighted-DRF rounds with credit accrual and priority
  preemption feeding R-Storm placement.

Every probe's event count is a deterministic function of the constants
below; changing them invalidates the committed baselines (see
``docs/performance.md`` for the re-record procedure).
"""

from __future__ import annotations

import random
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.bench.core import Benchmark
from repro.simulation.engine import Simulator

__all__ = ["REGISTRY"]

#: Total events the engine-churn probe pushes through the loop.
ENGINE_CHURN_EVENTS = 300_000
#: Concurrent self-rescheduling event streams (heap width).
ENGINE_CHURN_STREAMS = 512
ENGINE_CHURN_SEED = 0x5EED
#: Horizon handed to ``Simulator.run`` — far past the last churn event,
#: so the probe exercises the production drain path (the tight ``run``
#: loop that carries every simulation), not per-event ``step`` calls.
ENGINE_CHURN_HORIZON_S = 1e9

#: Simulated seconds of the network-bound routing run.
TUPLE_ROUTING_DURATION_S = 30.0

#: Scheduling rounds per scheduler benchmark, scaled per scheduler so
#: every probe's timed section lands in the same ~0.2-0.5 s band (the
#: round-robin default is ~30x faster per round than R-Storm).
SCHEDULER_ROUNDS = {"r-storm": 100, "default": 1000, "aniello": 800}

#: Simulated seconds of the chaos replay and fig9 end-to-end probes.
CHAOS_DURATION_S = 180.0
FIG9_DURATION_S = 60.0

#: Simulated seconds of the delivery-replay probe, and its replay budget.
#: The default scheduler is used on purpose: it splits the linear chain
#: across racks, so the lossy trunk actually carries tuple traffic and
#: the replay/dedup machinery does real work (R-Storm co-locates the
#: chain and would dodge the loss entirely).
DELIVERY_REPLAY_DURATION_S = 180.0
DELIVERY_REPLAY_MAX_RETRIES = 3

#: The open-loop traffic probe: a parallelism-8 compute linear chain
#: (32 tasks on the 12-node testbed) offered Poisson traffic at 1.5x
#: the closed-loop rate cap — deep enough past saturation to exercise
#: the backlog path, with keys flowing so the Zipf generator and the
#: fields-grouped first hop are on the measured path.
TRAFFIC_OVERLOAD_DURATION_S = 120.0
TRAFFIC_OVERLOAD_MULTIPLIER = 1.5
TRAFFIC_OVERLOAD_PARALLELISM = 8

#: The overload-protection probe: the ``protection`` experiment's 1.5x
#: backpressure+shed operating point — the hotspot fan-in topology with
#: bounded queues (32 batches), credit backpressure and tail-drop
#: shedding, sized so the narrow stage stalls and sheds continuously.
OVERLOAD_PROTECT_DURATION_S = 120.0
OVERLOAD_PROTECT_MULTIPLIER = 1.5

#: The elastic-adaptation probe: the sustained-overload scenario of the
#: ``elastic`` experiment — Poisson at 1.5x nominal on the parallelism-6
#: compute chain with the control loop enabled, so the measured path
#: includes control-period sampling, M/M/k sizing, scheduler-delta
#: scale-ups and live rescales.
ELASTIC_ADAPT_DURATION_S = 120.0
ELASTIC_ADAPT_MULTIPLIER = 1.5

#: The large-cluster scaling probe: 8 racks x 64 production-size nodes
#: (16 GB / 8 cores / 1 Gbps each) scheduling five concurrent
#: topologies with R-Storm for SCHED_SCALE_ROUNDS full rounds.
SCHED_SCALE_RACKS = 8
SCHED_SCALE_NODES_PER_RACK = 64
SCHED_SCALE_ROUNDS = 2

#: The failover probe: Nimbus rounds on the sched-scale cluster, each
#: after failing one in-use node (drawn by a Random seeded with
#: NIMBUS_FAILOVER_SEED), which recovers after its round.
NIMBUS_FAILOVER_ROUNDS = 200
NIMBUS_FAILOVER_SEED = 0

#: The multi-tenant admission probe: 60 parallelism-8 compute chains
#: (one full 800-cpu-point node each) queued by four tenant classes on
#: the 512-node cluster, with admission headroom capping usable slack
#: at 8% — so roughly a third of the queue must be deferred and the
#: credit/preemption machinery runs on every round.
TENANT_ADMISSION_TOPOLOGIES = 60
TENANT_ADMISSION_PARALLELISM = 8
TENANT_ADMISSION_ROUNDS = 6
TENANT_ADMISSION_HEADROOM = 0.08


#: Churn delay table size (power of two: index wrap is a mask, not ``%``).
_DELAY_MASK = 4095


class _ChurnStream:
    """One self-rescheduling stream of payload-carrying events.

    Each reschedule passes the **prebound** ``self._fire`` plus the
    payload as schedule args, so no event allocates a callable.
    """

    __slots__ = ("sim", "delays", "index", "remaining", "_fire")

    def __init__(self, sim: Simulator, delays: List[float], start: int,
                 budget: int):
        self.sim = sim
        self.delays = delays
        self.index = start
        self.remaining = budget
        self._fire = self.fire

    def fire(self, payload: int) -> None:
        remaining = self.remaining
        if remaining <= 0:
            return
        self.remaining = remaining - 1
        i = self.index
        self.index = i + 1
        sim = self.sim
        delay = self.delays[i & _DELAY_MASK]
        sim.schedule_at(sim.now + delay, self._fire, payload + 1)


def _prepare_engine_churn() -> Callable[[], int]:
    rng = random.Random(ENGINE_CHURN_SEED)
    delays = [rng.uniform(1e-4, 1e-2) for _ in range(_DELAY_MASK + 1)]
    sim = Simulator()
    # Reschedule budget split evenly over the streams (the first
    # ``remainder`` streams take one extra), so the initial events plus
    # every reschedule total exactly ENGINE_CHURN_EVENTS.
    reschedules = ENGINE_CHURN_EVENTS - ENGINE_CHURN_STREAMS
    base, remainder = divmod(reschedules, ENGINE_CHURN_STREAMS)
    streams = [
        _ChurnStream(sim, delays, i * 7, base + (1 if i < remainder else 0))
        for i in range(ENGINE_CHURN_STREAMS)
    ]
    start_delays = [rng.uniform(1e-4, 1e-2) for _ in range(len(streams))]

    def workload() -> int:
        for stream, delay in zip(streams, start_delays):
            sim.schedule_at(delay, stream._fire, 0)
        sim.run(ENGINE_CHURN_HORIZON_S)
        return sim.events_processed

    return workload


def _prepare_tuple_routing() -> Callable[[], int]:
    from repro.cluster.builders import emulab_testbed
    from repro.scheduler.default import DefaultScheduler
    from repro.simulation.config import SimulationConfig
    from repro.simulation.runtime import SimulationRun
    from repro.workloads.micro import NETWORK_BOUND_UPLINK_MBPS, micro_topology

    topology = micro_topology("linear", "network")
    cluster = emulab_testbed()
    round_info = DefaultScheduler().run([topology], cluster)
    config = SimulationConfig(duration_s=TUPLE_ROUTING_DURATION_S, warmup_s=5.0)
    run = SimulationRun(
        cluster,
        [(topology, round_info.assignments[topology.topology_id])],
        config,
        interrack_uplink_mbps=NETWORK_BOUND_UPLINK_MBPS,
    )

    def workload() -> int:
        return run.run().events_processed

    return workload


def _scheduling_rounds(
    scheduler_name: str, rounds: int, setup: Callable[[], Tuple[Any, List[Any]]]
) -> Callable[[], Callable[[], int]]:
    """A probe that runs ``rounds`` full scheduling rounds of the
    topologies on the cluster that ``setup()`` builds, releasing the
    cluster before each round; its events are the tasks placed."""

    def prepare() -> Callable[[], int]:
        from repro.scheduler.aniello import AnielloOfflineScheduler
        from repro.scheduler.default import DefaultScheduler
        from repro.scheduler.rstorm import RStormScheduler

        factories = {
            "r-storm": RStormScheduler,
            "default": DefaultScheduler,
            "aniello": AnielloOfflineScheduler,
        }
        scheduler = factories[scheduler_name]()
        cluster, topologies = setup()
        tasks_per_round = sum(len(t.tasks) for t in topologies)

        def workload() -> int:
            for _ in range(rounds):
                cluster.release_all()
                round_info = scheduler.run(topologies, cluster)
                for topology in topologies:
                    if not round_info.assignments[
                        topology.topology_id
                    ].is_complete(topology):  # pragma: no cover - sanity
                        raise AssertionError("incomplete schedule in bench")
            return rounds * tasks_per_round

        return workload

    return prepare


def _testbed_micro() -> Tuple[Any, List[Any]]:
    """The Emulab testbed and the three compute micro-topologies."""
    from repro.cluster.builders import emulab_testbed
    from repro.workloads.micro import micro_topology

    return emulab_testbed(), [
        micro_topology(kind, "compute") for kind in ("linear", "diamond", "star")
    ]


def _sched_scale_cluster():
    from repro.cluster.builders import uniform_cluster
    from repro.cluster.network import (
        DEFAULT_PROFILES,
        DistanceLevel,
        LinkProfile,
        NetworkTopography,
    )
    from repro.cluster.resources import ResourceVector

    profiles = dict(DEFAULT_PROFILES)
    profiles[DistanceLevel.INTER_RACK] = LinkProfile(
        distance=4.0, latency_ms=0.5, bandwidth_mbps=10_000.0
    )
    profiles[DistanceLevel.INTER_NODE] = LinkProfile(
        distance=1.0, latency_ms=0.1, bandwidth_mbps=1_000.0
    )
    return uniform_cluster(
        nodes_per_rack=SCHED_SCALE_NODES_PER_RACK,
        racks=SCHED_SCALE_RACKS,
        capacity=ResourceVector.of(
            memory_mb=16_384.0, cpu=800.0, bandwidth_mbps=1_000.0
        ),
        topography=NetworkTopography(profiles),
        name="sched-scale",
    )


def _sched_scale() -> Tuple[Any, List[Any]]:
    """The 512-node cluster and its five concurrent topologies."""
    from repro.workloads.micro import (
        diamond_topology,
        linear_topology,
        star_topology,
    )

    return _sched_scale_cluster(), [
        linear_topology("compute", parallelism=24, name="scale-linear-a"),
        diamond_topology(
            "compute", branches=3, parallelism=16, name="scale-diamond-a"
        ),
        star_topology("compute", arms=4, name="scale-star-a"),
        linear_topology("compute", parallelism=16, name="scale-linear-b"),
        diamond_topology(
            "compute", branches=2, parallelism=12, name="scale-diamond-b"
        ),
    ]


def _prepare_nimbus_failover() -> Callable[[], int]:
    """Nimbus rounds that each re-place one failed node's tasks; the
    first, whole-cluster placement happens here, untimed.  Its events
    are the tasks re-placed."""
    from repro.nimbus.nimbus import Nimbus
    from repro.scheduler.rstorm import RStormScheduler

    cluster, topologies = _sched_scale()
    nimbus = Nimbus(cluster, scheduler=RStormScheduler())
    for topology in topologies:
        nimbus.submit_topology(topology)
    nimbus.schedule_round()
    victims = random.Random(NIMBUS_FAILOVER_SEED)

    def workload() -> int:
        replaced = 0
        for _ in range(NIMBUS_FAILOVER_ROUNDS):
            in_use = sorted(
                {n for a in nimbus.assignments.values() for n in a.nodes}
            )
            victim = cluster.node(victims.choice(in_use))
            victim.fail()
            try:
                round_info = nimbus.schedule_round()
            finally:
                victim.recover()
            replaced += sum(round_info.newly_scheduled.values())
        return replaced

    return workload


def _unit_workload(
    unit: Any, sane: Optional[Callable[[Any], bool]] = None
) -> Callable[[], int]:
    """The workload that executes ``unit`` and returns its DES event
    count, after ``sane(outcome)`` confirms the probe did the work it
    exists to measure."""

    def workload() -> int:
        outcome = unit.execute()
        if sane is not None and not sane(outcome):  # pragma: no cover
            raise AssertionError(f"{unit.label} failed its sanity check")
        return outcome.report.events_processed

    return workload


def _prepare_chaos_replay() -> Callable[[], int]:
    from repro.cluster.builders import emulab_testbed
    from repro.experiments.fault_recovery import single_crash
    from repro.experiments.parallel import SimulationUnit, spec
    from repro.scheduler.rstorm import RStormScheduler
    from repro.simulation.config import SimulationConfig
    from repro.workloads.micro import micro_topology

    unit = SimulationUnit(
        scheduler=spec(RStormScheduler),
        topologies=(spec(micro_topology, "linear", "compute"),),
        cluster=spec(emulab_testbed),
        config=SimulationConfig(duration_s=CHAOS_DURATION_S, warmup_s=15.0),
        faults=spec(single_crash),
        label="bench:chaos-replay",
    )
    return _unit_workload(unit)


def _prepare_delivery_replay() -> Callable[[], int]:
    from repro.cluster.builders import emulab_testbed
    from repro.experiments.fault_recovery import lossy_link
    from repro.experiments.parallel import SimulationUnit, spec
    from repro.scheduler.default import DefaultScheduler
    from repro.simulation.config import SimulationConfig
    from repro.workloads.micro import micro_topology

    unit = SimulationUnit(
        scheduler=spec(DefaultScheduler),
        topologies=(spec(micro_topology, "linear", "compute"),),
        cluster=spec(emulab_testbed),
        config=SimulationConfig(
            duration_s=DELIVERY_REPLAY_DURATION_S,
            warmup_s=15.0,
            at_least_once=True,
            max_retries=DELIVERY_REPLAY_MAX_RETRIES,
        ),
        faults=spec(lossy_link),
        storm=(("nimbus.quarantine.enabled", True),),
        label="bench:delivery-replay",
    )
    return _unit_workload(unit)


def _prepare_fig9_e2e() -> Callable[[], int]:
    from repro.experiments.fig9_compute_bound import compute_bound_units
    from repro.simulation.config import SimulationConfig

    config = SimulationConfig(duration_s=FIG9_DURATION_S, warmup_s=15.0)

    def workload() -> int:
        units = compute_bound_units(config)
        return sum(unit.execute().report.events_processed for unit in units)

    return workload


def _prepare_traffic_overload() -> Callable[[], int]:
    from repro.cluster.builders import emulab_testbed
    from repro.experiments.overload import (
        BASE_RATE_TPS,
        keyed_linear_topology,
    )
    from repro.experiments.parallel import SimulationUnit, spec
    from repro.scheduler.rstorm import RStormScheduler
    from repro.simulation.config import SimulationConfig
    from repro.traffic.arrivals import PoissonArrivals
    from repro.traffic.keys import ZipfKeys

    unit = SimulationUnit(
        scheduler=spec(RStormScheduler),
        topologies=(
            spec(keyed_linear_topology, TRAFFIC_OVERLOAD_PARALLELISM),
        ),
        cluster=spec(emulab_testbed),
        config=SimulationConfig(
            duration_s=TRAFFIC_OVERLOAD_DURATION_S,
            warmup_s=15.0,
            arrival_process=PoissonArrivals(
                rate_tps=BASE_RATE_TPS * TRAFFIC_OVERLOAD_MULTIPLIER
            ),
            arrival_keys=ZipfKeys(num_keys=64, exponent=1.4),
        ),
        label="bench:traffic-overload",
    )
    return _unit_workload(unit)


def _prepare_overload_protect() -> Callable[[], int]:
    from repro.cluster.builders import emulab_testbed
    from repro.experiments.parallel import SimulationUnit, spec
    from repro.experiments.protection import (
        BASE_RATE_TPS,
        QUEUE_CAPACITY,
        TOPO_ID,
    )
    from repro.scheduler.rstorm import RStormScheduler
    from repro.simulation.config import SimulationConfig
    from repro.simulation.flowcontrol import FlowControlConfig
    from repro.traffic.arrivals import PoissonArrivals
    from repro.workloads.micro import hotspot_topology

    unit = SimulationUnit(
        scheduler=spec(RStormScheduler),
        topologies=(spec(hotspot_topology),),
        cluster=spec(emulab_testbed),
        config=SimulationConfig(
            duration_s=OVERLOAD_PROTECT_DURATION_S,
            warmup_s=15.0,
            arrival_process=PoissonArrivals(
                rate_tps=BASE_RATE_TPS * OVERLOAD_PROTECT_MULTIPLIER
            ),
            flow=FlowControlConfig(
                queue_capacity=QUEUE_CAPACITY, shedding="tail-drop"
            ),
        ),
        label="bench:overload-protect",
    )
    # It must both shed and throttle its spout.
    return _unit_workload(
        unit,
        lambda outcome: outcome.report.shed(TOPO_ID) > 0
        and outcome.report.spout_throttled_s(TOPO_ID) > 0,
    )


def _prepare_elastic_adapt() -> Callable[[], int]:
    # The layers the unit wires, imported here rather than in the timed run.
    import repro.faults.monitor  # noqa: F401
    import repro.nimbus.elastic  # noqa: F401
    from repro.cluster.builders import emulab_testbed
    from repro.experiments.overload import BASE_RATE_TPS
    from repro.experiments.parallel import SimulationUnit, spec
    from repro.scheduler.rstorm import RStormScheduler
    from repro.simulation.config import SimulationConfig
    from repro.traffic.arrivals import PoissonArrivals
    from repro.workloads.micro import linear_topology

    unit = SimulationUnit(
        scheduler=spec(RStormScheduler),
        topologies=(spec(linear_topology, "compute"),),
        cluster=spec(emulab_testbed),
        config=SimulationConfig(
            duration_s=ELASTIC_ADAPT_DURATION_S,
            warmup_s=15.0,
            arrival_process=PoissonArrivals(
                rate_tps=BASE_RATE_TPS * ELASTIC_ADAPT_MULTIPLIER
            ),
        ),
        storm=(("nimbus.elastic.enabled", True),),
        label="bench:elastic-adapt",
    )
    # It must commit scale actions.
    return _unit_workload(unit, lambda outcome: bool(outcome.elastic_decisions))


def _prepare_tenant_admission() -> Callable[[], int]:
    # ``workload`` builds a fresh cluster per repeat; its builder is
    # imported here rather than in the timed run.
    import repro.cluster.builders  # noqa: F401
    from repro.experiments.harness import admit
    from repro.nimbus.config import StormConfig
    from repro.nimbus.nimbus import Nimbus
    from repro.nimbus.tenancy import Tenant
    from repro.scheduler.rstorm import RStormScheduler
    from repro.workloads.micro import linear_topology

    tenant_classes = (
        Tenant("gold", weight=3.0, priority=2),
        Tenant("silver", weight=2.0, priority=1),
        Tenant("bronze", weight=1.0, priority=0),
        Tenant("free", weight=0.5, priority=0),
    )
    per_tenant = TENANT_ADMISSION_TOPOLOGIES // len(tenant_classes)
    # bronze/free flood round 0, silver arrives round 1, gold round 2 —
    # into a full cluster, so priority preemption fires every round.
    arrival_round = {"bronze": 0, "free": 0, "silver": 1, "gold": 2}
    submissions = [
        (
            arrival_round[tenant.tenant_id],
            tenant.tenant_id,
            linear_topology(
                "compute",
                parallelism=TENANT_ADMISSION_PARALLELISM,
                name=f"{tenant.tenant_id}-{index}",
            ),
        )
        for tenant in tenant_classes
        for index in range(per_tenant)
    ]

    def workload() -> int:
        nimbus = Nimbus(
            _sched_scale_cluster(),
            scheduler=RStormScheduler(),
            config=StormConfig(
                {"nimbus.tenancy.headroom": TENANT_ADMISSION_HEADROOM}
            ),
        )
        tenancy = admit(
            nimbus, tenant_classes, submissions, TENANT_ADMISSION_ROUNDS
        )
        if nimbus.scheduling_failures:  # pragma: no cover - sanity
            raise AssertionError("tenant admission bench hit infeasible rounds")
        placed_tasks = sum(
            len(assignment.tasks)
            for assignment in nimbus.assignments.values()
        )
        return len(tenancy.decisions) + placed_tasks

    return workload


REGISTRY: Dict[str, Benchmark] = {
    bench.name: bench
    for bench in (
        Benchmark(
            name="engine-churn",
            description=(
                f"raw DES loop: {ENGINE_CHURN_EVENTS:,} self-rescheduling "
                f"payload events over {ENGINE_CHURN_STREAMS} streams"
            ),
            prepare=_prepare_engine_churn,
            repeats=5,
        ),
        Benchmark(
            name="tuple-routing",
            description=(
                "full tuple-batch path: default-scheduled network-bound "
                f"linear topology, {TUPLE_ROUTING_DURATION_S:g} simulated s"
            ),
            prepare=_prepare_tuple_routing,
            repeats=5,
        ),
        Benchmark(
            name="sched-rstorm",
            description=(
                f"{SCHEDULER_ROUNDS['r-storm']} R-Storm scheduling rounds "
                "of the three compute micro-topologies"
            ),
            prepare=_scheduling_rounds(
                "r-storm", SCHEDULER_ROUNDS["r-storm"], _testbed_micro
            ),
            repeats=5,
        ),
        Benchmark(
            name="sched-default",
            description=(
                f"{SCHEDULER_ROUNDS['default']} default-Storm (round-robin) "
                "scheduling rounds of the three compute micro-topologies"
            ),
            prepare=_scheduling_rounds(
                "default", SCHEDULER_ROUNDS["default"], _testbed_micro
            ),
            repeats=5,
        ),
        Benchmark(
            name="sched-aniello",
            description=(
                f"{SCHEDULER_ROUNDS['aniello']} Aniello offline scheduling "
                "rounds of the three compute micro-topologies"
            ),
            prepare=_scheduling_rounds(
                "aniello", SCHEDULER_ROUNDS["aniello"], _testbed_micro
            ),
            repeats=5,
        ),
        Benchmark(
            name="sched-scale",
            description=(
                f"{SCHED_SCALE_ROUNDS} R-Storm rounds of five concurrent "
                f"topologies on a {SCHED_SCALE_RACKS * SCHED_SCALE_NODES_PER_RACK}"
                f"-node, {SCHED_SCALE_RACKS}-rack cluster"
            ),
            prepare=_scheduling_rounds(
                "r-storm", SCHED_SCALE_ROUNDS, _sched_scale
            ),
            repeats=3,
        ),
        Benchmark(
            name="nimbus-failover",
            description=(
                f"{NIMBUS_FAILOVER_ROUNDS} incremental R-Storm Nimbus "
                "rounds on the sched-scale cluster, each re-placing one "
                "failed node's tasks"
            ),
            prepare=_prepare_nimbus_failover,
            repeats=5,
        ),
        Benchmark(
            name="chaos-replay",
            description=(
                "fault-injected coordination plane: busiest-node crash on "
                f"R-Storm, {CHAOS_DURATION_S:g} simulated s"
            ),
            prepare=_prepare_chaos_replay,
            repeats=3,
        ),
        Benchmark(
            name="delivery-replay",
            description=(
                "at-least-once delivery layer: lossy inter-rack trunk on "
                "the default scheduler, replay + dedup + quarantine, "
                f"{DELIVERY_REPLAY_DURATION_S:g} simulated s"
            ),
            prepare=_prepare_delivery_replay,
            repeats=3,
        ),
        Benchmark(
            name="fig9-e2e",
            description=(
                "end-to-end fig9 work units (6 schedule+simulate runs, "
                f"{FIG9_DURATION_S:g} simulated s each)"
            ),
            prepare=_prepare_fig9_e2e,
            repeats=5,
        ),
        Benchmark(
            name="traffic-overload",
            description=(
                "open-loop traffic layer: Poisson arrivals at "
                f"{TRAFFIC_OVERLOAD_MULTIPLIER:g}x capacity with Zipf "
                "keys on an R-Storm-packed keyed linear topology, "
                f"{TRAFFIC_OVERLOAD_DURATION_S:g} simulated s"
            ),
            prepare=_prepare_traffic_overload,
            repeats=3,
        ),
        Benchmark(
            name="overload-protect",
            description=(
                "flow-control hot path: hotspot fan-in at "
                f"{OVERLOAD_PROTECT_MULTIPLIER:g}x with bounded queues, "
                "credit backpressure and tail-drop shedding, "
                f"{OVERLOAD_PROTECT_DURATION_S:g} simulated s"
            ),
            prepare=_prepare_overload_protect,
            repeats=3,
        ),
        Benchmark(
            name="elastic-adapt",
            description=(
                "elastic control loop adapting to sustained "
                f"{ELASTIC_ADAPT_MULTIPLIER:g}x overload: sampling, "
                "M/M/k sizing, live rescales and rebalances, "
                f"{ELASTIC_ADAPT_DURATION_S:g} simulated s"
            ),
            prepare=_prepare_elastic_adapt,
            repeats=3,
        ),
        Benchmark(
            name="tenant-admission",
            description=(
                f"{TENANT_ADMISSION_ROUNDS} weighted-DRF admission + "
                f"R-Storm placement rounds of "
                f"{TENANT_ADMISSION_TOPOLOGIES} queued topologies from "
                "four tenant classes on the 512-node cluster"
            ),
            prepare=_prepare_tenant_admission,
            repeats=3,
        ),
    )
}
