"""Overload protection: backpressure and shedding vs unbounded queues.

The traffic experiment established the failure mode this PR exists for:
past 1x offered load, unbounded queues absorb the gap until workers die
of overflow and p99 latency diverges.  This experiment turns the flow
layer on and measures what protection buys, on a workload built to
stress *internal* edges: the hotspot topology's narrow slow stage
(``bolt-1 -> bolt-2`` fan-in) fills first, so backpressure has to
propagate upstream edge-by-edge before the spouts throttle.

Three modes per (multiplier, scheduler) operating point:

* ``unprotected`` — the historical default: unbounded queues, crashes
  past saturation;
* ``backpressure`` — bounded queues + credit backpressure, no shedding:
  no tuple is ever dropped by policy, spouts throttle instead.  Under
  *open-loop* traffic the spout ingress queue still grows (arrivals
  cannot be refused without shedding), so deep overload can still crash
  spout workers — the documented limit of backpressure alone;
* ``backpressure+shed`` — bounded queues + tail-drop shedding: overload
  is converted into an audited shed ledger, crashes disappear, and p99
  stays bounded by the queue depth.

A second section runs a gold and a free topology side by side under the
``priority`` policy (thresholds from the tenant registry via
:func:`~repro.simulation.flowcontrol.tenant_priorities`): the free
tier's queues shed at a lower occupancy, so when the cluster drowns, the
free topology sheds first and the gold topology keeps the larger share
of its traffic.  The default scheduler's spread placement co-locates the
two tenants on every node, which is exactly when the decision of *whose*
tuple to shed matters.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.cluster.builders import emulab_testbed
from repro.experiments.harness import ExperimentResult
from repro.experiments.parallel import ExperimentContext, SimulationUnit, spec
from repro.nimbus.tenancy import Tenant
from repro.scheduler.default import DefaultScheduler
from repro.scheduler.rstorm import RStormScheduler
from repro.simulation.config import SimulationConfig
from repro.simulation.flowcontrol import FlowControlConfig, tenant_priorities
from repro.traffic.arrivals import PoissonArrivals
from repro.workloads.micro import _COMPUTE_RATE_TPS, hotspot_topology

__all__ = ["run", "sweep_units", "MODES", "MULTIPLIERS", "QUEUE_CAPACITY"]

#: Nominal per-spout-task capacity (the closed-loop rate cap).
BASE_RATE_TPS = _COMPUTE_RATE_TPS

#: Offered load multiples; 1.0x already overloads the narrow stage.
MULTIPLIERS = (1.0, 1.5, 2.0)

#: Bounded input-queue depth in batches.  32 batches of 50 tuples keeps
#: the worst-case queueing delay (and with it p99) bounded while leaving
#: enough credit for the pipeline to stay busy between stalls.
QUEUE_CAPACITY = 32

SCHEDULERS = (("r-storm", RStormScheduler), ("default", DefaultScheduler))

#: (mode label, flow config) — None is the unprotected baseline.
MODES = (
    ("unprotected", None),
    (
        "backpressure",
        FlowControlConfig(queue_capacity=QUEUE_CAPACITY, shedding="none"),
    ),
    (
        "backpressure+shed",
        FlowControlConfig(queue_capacity=QUEUE_CAPACITY, shedding="tail-drop"),
    ),
)

TOPO_ID = "hotspot-compute"

# -- priority section: gold sheds last ----------------------------------

GOLD_ID, FREE_ID = "hotspot-gold", "hotspot-free"
PRIORITY_MULTIPLIER = 1.0

_TENANTS = {
    "gold": Tenant("gold", priority=2),
    "free": Tenant("free", priority=0),
}
_OWNERS = {GOLD_ID: "gold", FREE_ID: "free"}


def _config(
    duration_s: float, multiplier: float, flow: Optional[FlowControlConfig]
) -> SimulationConfig:
    return SimulationConfig(
        duration_s=duration_s,
        warmup_s=min(20.0, duration_s / 4),
        arrival_process=PoissonArrivals(rate_tps=BASE_RATE_TPS * multiplier),
        flow=flow,
    )


def sweep_units(
    duration_s: float,
    multipliers: Sequence[float] = MULTIPLIERS,
):
    """The (multiplier, scheduler, mode) grid as cacheable work units."""
    return [
        SimulationUnit(
            scheduler=spec(factory),
            topologies=(spec(hotspot_topology),),
            cluster=spec(emulab_testbed),
            config=_config(duration_s, multiplier, flow),
            label=f"protect:{multiplier:g}x/{name}/{mode}",
        )
        for multiplier in multipliers
        for name, factory in SCHEDULERS
        for mode, flow in MODES
    ]


def _priority_units(duration_s: float):
    """Gold + free topologies sharing the cluster, tail-drop vs priority.

    Both runs face identical arrivals; only the shedding policy differs,
    so any gold/free asymmetry under ``priority`` is the policy's doing.
    """
    priorities = tenant_priorities(_TENANTS, _OWNERS)
    units = []
    for policy, pairs in (("tail-drop", ()), ("priority", priorities)):
        flow = FlowControlConfig(
            queue_capacity=QUEUE_CAPACITY,
            shedding=policy,
            priorities=pairs,
        )
        units.append(
            SimulationUnit(
                scheduler=spec(DefaultScheduler),
                topologies=(
                    spec(hotspot_topology, 3, 1, GOLD_ID),
                    spec(hotspot_topology, 3, 1, FREE_ID),
                ),
                cluster=spec(emulab_testbed),
                config=_config(duration_s, PRIORITY_MULTIPLIER, flow),
                label=f"protect:priority/{policy}",
            )
        )
    return units


def run(
    duration_s: float = 120.0,
    context: Optional[ExperimentContext] = None,
    multipliers: Sequence[float] = MULTIPLIERS,
) -> ExperimentResult:
    context = context or ExperimentContext()
    result = ExperimentResult(
        experiment_id="overload-protection",
        title=(
            "Overload protection: bounded queues, credit backpressure and "
            "priority-aware load shedding vs the unbounded default"
        ),
    )
    units = sweep_units(duration_s, multipliers) + _priority_units(duration_s)
    outcomes_by_label = dict(
        zip([u.label for u in units], context.run(units))
    )

    for multiplier in multipliers:
        for name, _ in SCHEDULERS:
            for mode, flow in MODES:
                outcome = outcomes_by_label[
                    f"protect:{multiplier:g}x/{name}/{mode}"
                ]
                report = outcome.report
                latency = report.e2e_latency(TOPO_ID)
                row = dict(
                    offered_x=multiplier,
                    scheduler=name,
                    mode=mode,
                    offered_per_10s=round(report.offered_per_window(TOPO_ID)),
                    achieved_per_10s=round(
                        report.average_throughput_per_window(TOPO_ID)
                    ),
                    achieved_ratio=round(report.achieved_ratio(TOPO_ID), 3),
                    e2e_p99_ms=round(latency.p99 * 1e3, 1),
                    failed=report.failed(TOPO_ID),
                    crashes=report.crashes(TOPO_ID),
                )
                if flow is not None:
                    row.update(
                        shed=report.shed(TOPO_ID),
                        shed_rate=round(report.shed_rate(TOPO_ID), 3),
                        throttled_s=round(
                            report.spout_throttled_s(TOPO_ID), 1
                        ),
                        stalls=report.credit_stall_total(TOPO_ID),
                    )
                result.add_row(**row)

    # Degradation curves at deep overload: achieved throughput under
    # each mode against the common offered series.
    knee = 1.5 if 1.5 in multipliers else multipliers[-1]
    for name, _ in SCHEDULERS:
        for mode, _ in MODES:
            outcome = outcomes_by_label[f"protect:{knee:g}x/{name}/{mode}"]
            result.add_series(
                f"{knee:g}x/{name}/{mode}",
                outcome.report.throughput_series(TOPO_ID),
            )
    outcome = outcomes_by_label[f"protect:{knee:g}x/r-storm/unprotected"]
    result.add_series(
        f"{knee:g}x/offered", outcome.report.offered_series(TOPO_ID)
    )
    shed_outcome = outcomes_by_label[
        f"protect:{knee:g}x/r-storm/backpressure+shed"
    ]
    result.add_series(
        f"{knee:g}x/r-storm/shed",
        shed_outcome.report.shed_series(TOPO_ID),
    )

    for policy in ("tail-drop", "priority"):
        outcome = outcomes_by_label[f"protect:priority/{policy}"]
        report = outcome.report
        for topo_id, tier in ((GOLD_ID, "gold"), (FREE_ID, "free")):
            latency = report.e2e_latency(topo_id)
            result.add_row(
                offered_x=PRIORITY_MULTIPLIER,
                scheduler="default",
                mode=f"{policy}/{tier}",
                offered_per_10s=round(report.offered_per_window(topo_id)),
                achieved_per_10s=round(
                    report.average_throughput_per_window(topo_id)
                ),
                achieved_ratio=round(report.achieved_ratio(topo_id), 3),
                e2e_p99_ms=round(latency.p99 * 1e3, 1),
                failed=report.failed(topo_id),
                crashes=report.crashes(topo_id),
                shed=report.shed(topo_id),
                shed_rate=round(report.shed_rate(topo_id), 3),
                throttled_s=round(report.spout_throttled_s(topo_id), 1),
                stalls=report.credit_stall_total(topo_id),
            )

    result.note(
        "The hotspot topology's narrow slow stage (bolt-1 -> bolt-2 "
        "fan-in) is the structural bottleneck: no placement can "
        "schedule it away, so every operating point past its capacity "
        "must queue, crash, throttle or shed."
    )
    result.note(
        "Unprotected runs convert overload into worker crashes and "
        "mass tuple timeouts; backpressure converts it into throttled "
        "spout time (zero failed tuples) but open-loop arrivals still "
        "pile up at the spout ingress; backpressure+shed converts it "
        "into an audited shed ledger with zero crashes and a p99 "
        "bounded by the queue depth."
    )
    result.note(
        "Priority rows: gold and free run the same topology under "
        "identical arrivals on shared nodes.  tail-drop sheds them "
        "evenly; the priority policy (thresholds from the tenant "
        "registry) moves the shedding onto the free tier — free sheds "
        "earlier and more while gold's shed rate stays at its "
        "tail-drop level, so gold's traffic is the last to go."
    )
    return result
