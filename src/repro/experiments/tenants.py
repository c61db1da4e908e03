"""Multi-tenant SLO scheduling experiment: contention on purpose.

One shared 24-node cluster; 36 single-parallelism Linear compute
topologies submitted over eight Nimbus rounds by four tenant classes
(the "millions of users" setting from the ROADMAP: many small
topologies, one cluster).  The cluster fits 24 of them — a third of the
offered work must wait, which is exactly what weighted-DRF admission,
credit accrual and priority preemption are for:

* ``gold``   — weight 3, priority 2, tight SLO; arrives *last*, when
  the cluster is already full, so it can only get on via preemption;
* ``silver`` — weight 2, priority 1, mid SLO; arrives second-to-last;
* ``bronze`` — weight 1, priority 0, loose SLO; arrives first;
* ``free``   — weight 0.5, priority 0, no SLO; arrives first.

After the admission phase the admitted set runs under open-loop Poisson
traffic at 0.75x each topology's nominal capacity, and the table reports
per-tenant SLO attainment (deferred topologies count as misses — an SLO
cannot be met by not running), the Jain fairness index over weighted
dominant shares, and preemption churn, for R-Storm vs default
placement.  Admission itself is placement-agnostic (it reasons over
aggregate demand), so both schedulers admit the identical set and the
comparison isolates placement quality.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.cluster.builders import emulab_testbed
from repro.experiments.harness import ExperimentResult
from repro.experiments.parallel import (
    ExperimentContext,
    FactorySpec,
    SimulationUnit,
    spec,
)
from repro.nimbus.tenancy import SLO, Tenant
from repro.scheduler.default import DefaultScheduler
from repro.scheduler.rstorm import RStormScheduler
from repro.simulation.config import SimulationConfig
from repro.traffic.arrivals import PoissonArrivals
from repro.workloads.micro import _COMPUTE_RATE_TPS, linear_topology

__all__ = ["run", "tenant_units", "TENANTS", "CONFIGS", "SUBMISSIONS"]

#: Offered load per topology, as a fraction of its nominal capacity —
#: high enough that placement quality shows in the tail, low enough
#: that a well-placed topology keeps up.
LOAD_FRACTION = 0.75

#: (label, scheduler spec) — admission is identical across both, so
#: the comparison isolates placement quality under multi-tenant load.
#: The default scheduler is given the per-topology worker count a real
#: user would request (one per task); left at its "all slots" default
#: it would claim 24 workers per 4-task topology and every admission
#: round would restack the same four nodes.  Even with the honest
#: worker count it stays resource-oblivious: its slot cursor resets
#: every round, so staged admissions pile onto already-loaded nodes.
CONFIGS = (
    ("r-storm", spec(RStormScheduler)),
    ("default", spec(DefaultScheduler, workers_per_topology=4)),
)

#: The four tenant classes.  SLO p99 targets are end-to-end
#: (arrival -> full ack); min_ratio is achieved/offered throughput.
#: Targets sit just above the batching floor a well-placed topology
#: measures at this load (p99 ~1.8-2.6 s end-to-end), so a node-local
#: placement attains them and an overcommitted one does not.
TENANTS: Tuple[Tenant, ...] = (
    Tenant("gold", weight=3.0, priority=2, slo=SLO(p99_ms=3000.0, min_ratio=0.9)),
    Tenant("silver", weight=2.0, priority=1, slo=SLO(p99_ms=4000.0, min_ratio=0.8)),
    Tenant("bronze", weight=1.0, priority=0, slo=SLO(p99_ms=8000.0, min_ratio=0.5)),
    Tenant("free", weight=0.5, priority=0, slo=SLO()),
)

#: Topologies per tenant class — 36 total on a cluster that fits 24.
_CLASS_SIZES = {"gold": 8, "silver": 8, "bronze": 10, "free": 10}

#: Admission rounds in the staged-submission phase.
ROUNDS = 12


def _submission_schedule() -> Tuple[Tuple[int, str, FactorySpec], ...]:
    """(round, tenant, topology spec): bronze/free land first and fill
    the cluster; silver then gold arrive into a full cluster, so their
    admission exercises credits and priority preemption."""
    arrival_rounds = {
        "bronze": (0, 0, 0, 0, 0, 1, 1, 1, 1, 1),
        "free": (0, 0, 0, 0, 0, 1, 1, 1, 1, 1),
        "silver": (2, 2, 2, 2, 3, 3, 3, 3),
        "gold": (3, 3, 3, 3, 4, 4, 4, 4),
    }
    submissions: List[Tuple[int, str, FactorySpec]] = []
    for tenant_id, rounds in arrival_rounds.items():
        assert len(rounds) == _CLASS_SIZES[tenant_id]
        for index, round_index in enumerate(rounds):
            submissions.append(
                (
                    round_index,
                    tenant_id,
                    spec(
                        linear_topology,
                        "compute",
                        parallelism=1,
                        name=f"{tenant_id}-{index}",
                    ),
                )
            )
    submissions.sort(key=lambda item: item[0])
    return tuple(submissions)


SUBMISSIONS = _submission_schedule()


def _traffic_config(duration_s: float) -> SimulationConfig:
    return SimulationConfig(
        duration_s=duration_s,
        warmup_s=min(20.0, duration_s / 4),
        arrival_process=PoissonArrivals(
            rate_tps=_COMPUTE_RATE_TPS * LOAD_FRACTION
        ),
    )


def tenant_units(duration_s: float) -> List[SimulationUnit]:
    """One unit per scheduler, identical tenants/submissions/config."""
    return [
        SimulationUnit(
            scheduler=scheduler_spec,
            topologies=(),
            cluster=spec(emulab_testbed, nodes_per_rack=12),
            config=_traffic_config(duration_s),
            tenants=TENANTS,
            submissions=SUBMISSIONS,
            rounds=ROUNDS,
            label=f"tenants:{name}",
        )
        for name, scheduler_spec in CONFIGS
    ]


def _attainment(outcome, tenant: Tenant) -> Tuple[int, int]:
    """(attained, owned): per-topology SLO checks; deferred = miss."""
    owned = [
        topology_id
        for topology_id, owner in outcome.owners.items()
        if owner == tenant.tenant_id
    ]
    attained = 0
    for topology_id in owned:
        if topology_id not in outcome.admitted:
            continue
        report = outcome.report
        p99_ms = report.e2e_latency(topology_id).p99 * 1e3
        ratio = report.achieved_ratio(topology_id)
        if tenant.slo.attained(p99_ms, ratio):
            attained += 1
    return attained, len(owned)


def run(
    duration_s: float = 120.0,
    context: Optional[ExperimentContext] = None,
) -> ExperimentResult:
    context = context or ExperimentContext()
    result = ExperimentResult(
        experiment_id="tenants",
        title=(
            "Multi-tenant SLO scheduling: weighted-DRF admission, "
            "credits and priority preemption on one shared cluster"
        ),
    )
    units = tenant_units(duration_s)
    outcomes = dict(zip([u.label for u in units], context.run(units)))

    for name, _ in CONFIGS:
        outcome = outcomes[f"tenants:{name}"]
        tenant_rows = outcome.report.tenant_summary(outcome.owners)
        for tenant in TENANTS:
            tenant_id = tenant.tenant_id
            attained, owned = _attainment(outcome, tenant)
            admitted = sum(
                1
                for topology_id in outcome.admitted
                if outcome.owners[topology_id] == tenant_id
            )
            rollup = tenant_rows.get(tenant_id, {})
            result.add_row(
                config=name,
                tenant=tenant_id,
                admitted=f"{admitted}/{owned}",
                slo_attained=f"{attained}/{owned}",
                achieved_ratio=rollup.get("achieved_ratio", 0.0),
                e2e_p99_ms=rollup.get("e2e_p99_ms", 0.0),
                share=round(outcome.shares.get(tenant_id, 0.0), 3),
                credits=round(outcome.credits.get(tenant_id, 0.0), 1),
            )
        result.add_row(
            config=name,
            tenant="(cluster)",
            admitted=f"{len(outcome.admitted)}/{len(outcome.owners)}",
            slo_attained="-",
            achieved_ratio="-",
            e2e_p99_ms="-",
            share=f"jain={outcome.jain:.3f}",
            credits=f"evictions={outcome.preemptions}",
        )

    rstorm = outcomes["tenants:r-storm"]
    default = outcomes["tenants:default"]

    def _total_attained(outcome) -> int:
        return sum(_attainment(outcome, tenant)[0] for tenant in TENANTS)

    result.note(
        f"Admission is placement-agnostic: both schedulers admit the "
        f"same {len(rstorm.admitted)}/{len(rstorm.owners)} topologies "
        f"({len(rstorm.deferred)} deferred) with "
        f"{rstorm.preemptions} priority evictions "
        f"({rstorm.preempted_tasks} tasks displaced), so the rows "
        "compare placement quality alone."
    )
    result.note(
        f"SLO attainment (all tenants): r-storm "
        f"{_total_attained(rstorm)}/{len(rstorm.owners)} vs default "
        f"{_total_attained(default)}/{len(default.owners)}; deferred "
        "topologies count as misses — an SLO cannot be met by not "
        "running."
    )
    result.note(
        f"Jain fairness over weighted dominant shares: r-storm "
        f"{rstorm.jain:.3f}, default {default.jain:.3f} (1.0 = every "
        "tenant holds exactly its weighted entitlement).  gold/silver "
        "arrive last into a full cluster: priority preemption evicts "
        "priority-0 topologies (never same-or-higher priority), and "
        "deferred tenants accrue credits that bias later rounds."
    )
    return result
