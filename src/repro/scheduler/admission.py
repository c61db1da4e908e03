"""Weighted-DRF admission planning for multi-tenant clusters.

R-Storm (and every per-topology scheduler in this repo) answers *where*
a topology's tasks go; with many tenants contending for one cluster the
prior question is *whether* a topology gets cluster slack at all.  This
module is the pure-math half of that answer — no Nimbus, no cluster
objects, just demand vectors — so the policy is unit-testable and
hypothesis-friendly:

* **Weighted dominant-resource fairness** (Ghodsi et al., adapted to the
  cloud multi-topology setting of Ghaderi et al.): a tenant's *dominant
  share* is its largest per-dimension fraction of cluster capacity,
  divided by its weight; each admission step grants the head of the
  queue of the tenant with the smallest share.
* **Credit-based slack allocation**: a tenant deferred this round
  accrues ``weight x accrual`` credits; credits bias future admission
  order (subtracted from the share with gain ``credit_bias``) and are
  spent in full on the tenant's next admission.  Conservation —
  ``accrued == spent + outstanding balances`` — is a tested invariant.
* **Priority preemption**: when the picked tenant's head topology does
  not fit, running topologies of *strictly lower* priority tenants may
  be evicted (lowest priority, largest share first), bounded by
  ``max_preemptions`` per round.  Same-or-higher priority tenants are
  never victims.

The plan is a value object; applying it (killing victims, submitting
admitted topologies) is :class:`repro.nimbus.tenancy.TenancyController`'s
job, which keeps this layer byte-identical-safe for the single-tenant
default path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.errors import SchedulingError

__all__ = [
    "AdmissionDecision",
    "AdmissionPlan",
    "AdmissionRequest",
    "SLO",
    "Tenant",
    "dominant_share",
    "jain_index",
    "plan_admission",
]

#: Slack comparisons tolerate float drift from repeated +=/-=.
_EPS = 1e-9


@dataclass(frozen=True)
class SLO:
    """A tenant's service-level objective.

    ``p99_ms`` bounds end-to-end (arrival -> full ack) p99 latency;
    ``min_ratio`` is the minimum achieved/offered throughput fraction
    (effective throughput).  ``None`` leaves that clause unconstrained —
    the batch-tier default.
    """

    p99_ms: Optional[float] = None
    min_ratio: Optional[float] = None

    def attained(
        self, p99_ms: Optional[float], achieved_ratio: Optional[float]
    ) -> bool:
        """Whether measured latency/throughput meet both clauses.

        A constrained clause with no measurement (``None``) counts as a
        miss — an SLO cannot be attained by not reporting.
        """
        if self.p99_ms is not None:
            if p99_ms is None or p99_ms > self.p99_ms:
                return False
        if self.min_ratio is not None:
            if achieved_ratio is None or achieved_ratio < self.min_ratio:
                return False
        return True


@dataclass(frozen=True)
class Tenant:
    """A tenant: identity, fairness weight, preemption priority, SLO.

    ``weight`` scales the tenant's fair share (2.0 = entitled to twice
    the dominant share of a weight-1.0 tenant); ``priority`` gates
    preemption only — higher-priority tenants may evict strictly
    lower-priority ones, never the reverse.  Admission reads only the
    id, weight and priority; the SLO is what the tenant's runs are
    reported against.
    """

    tenant_id: str
    weight: float = 1.0
    priority: int = 0
    slo: SLO = field(default_factory=SLO)

    def __post_init__(self) -> None:
        if self.weight <= 0:
            raise SchedulingError(
                f"tenant {self.tenant_id!r} weight must be positive, "
                f"got {self.weight!r}"
            )


@dataclass(frozen=True)
class AdmissionRequest:
    """One topology's aggregate demand, attributed to a tenant.

    ``demand`` maps resource-dimension names (``memory_mb``/``cpu``/
    ``bandwidth_mbps`` for the Storm default schema) to the topology's
    *total* declared demand — the sum over its tasks, the same contract
    R-Storm packs against.
    """

    topology_id: str
    tenant_id: str
    demand: Mapping[str, float]


@dataclass(frozen=True)
class AdmissionDecision:
    """One admit/defer/evict verdict, for reporting and audits."""

    action: str  # "admit" | "defer" | "evict"
    tenant_id: str
    topology_id: str
    #: the tenant's weighted dominant share after the action
    share: float
    #: the tenant's credit balance after the action
    credits: float

    def as_dict(self) -> Dict[str, object]:
        return {
            "action": self.action,
            "tenant": self.tenant_id,
            "topology": self.topology_id,
            "share": round(self.share, 6),
            "credits": round(self.credits, 6),
        }


@dataclass(frozen=True)
class AdmissionPlan:
    """The outcome of one admission round (a pure value object)."""

    #: topology ids granted slack, in admission order
    admitted: Tuple[str, ...]
    #: pending topology ids that stay queued
    deferred: Tuple[str, ...]
    #: running topology ids preempted to make room
    evicted: Tuple[str, ...]
    decisions: Tuple[AdmissionDecision, ...]
    #: final weighted dominant share per tenant (all registered tenants)
    shares: Dict[str, float]
    #: credit balances after the round
    credits: Dict[str, float]
    #: credits accrued this round (by deferred tenants)
    accrued: Dict[str, float]
    #: credits spent this round (by admitted tenants)
    spent: Dict[str, float]


def dominant_share(
    usage: Mapping[str, float],
    capacity: Mapping[str, float],
    weight: float = 1.0,
) -> float:
    """max over dimensions of usage/capacity, divided by ``weight``."""
    if weight <= 0:
        raise SchedulingError(f"weight must be positive, got {weight!r}")
    raw = 0.0
    for dim, cap in capacity.items():
        if cap <= 0:
            continue
        fraction = usage.get(dim, 0.0) / cap
        if fraction > raw:
            raw = fraction
    return raw / weight


def jain_index(shares: Sequence[float]) -> float:
    """Jain's fairness index over per-tenant shares: 1.0 = perfectly
    even, 1/n = one tenant holds everything.  Degenerate inputs (no
    tenants, or nobody holds anything) are reported as fair."""
    values = [max(0.0, s) for s in shares]
    total = sum(values)
    # squares can underflow to exactly 0.0 for denormal shares even
    # when total > 0 — treat that like the nobody-holds-anything case.
    squares = sum(v * v for v in values)
    if not values or total <= 0 or squares <= 0:
        return 1.0
    return (total * total) / (len(values) * squares)


def plan_admission(
    pending: Sequence[AdmissionRequest],
    running: Sequence[AdmissionRequest],
    capacity: Mapping[str, float],
    tenants: Mapping[str, Tenant],
    credits: Optional[Mapping[str, float]] = None,
    *,
    headroom: float = 1.0,
    credit_bias: float = 0.05,
    credit_accrual: float = 1.0,
    preemption_enabled: bool = True,
    max_preemptions: int = 2,
) -> AdmissionPlan:
    """Plan one weighted-DRF admission round.

    ``pending`` is FIFO *per tenant* (list order); ``running`` is the
    already-admitted set whose usage seeds the shares.  Only capacity
    dimensions with positive totals participate; ``headroom`` scales
    them (0.9 keeps 10% slack for churn).

    Each step picks the tenant with the smallest credit-biased weighted
    dominant share and tries its head topology.  A fit admits it (and
    spends the tenant's credit balance); a miss first tries preemption
    (strictly lower-priority running topologies, lowest priority and
    largest share first, at most ``max_preemptions`` per round), and if
    the head still does not fit, the tenant is deferred for the round —
    its whole queue waits (FIFO is preserved; later topologies never
    jump their tenant's own queue) and it accrues
    ``credit_accrual x weight`` credits.

    Evicted topologies are reported in :attr:`AdmissionPlan.evicted`;
    the caller re-queues them, so they compete again *next* round (never
    this one — that bounds churn and guarantees termination).
    """
    if headroom <= 0:
        raise SchedulingError(f"headroom must be positive, got {headroom!r}")
    cap = {
        dim: float(value) * headroom
        for dim, value in capacity.items()
        if value > 0
    }

    def _tenant(tenant_id: str) -> Tenant:
        try:
            return tenants[tenant_id]
        except KeyError:
            raise SchedulingError(
                f"unknown tenant {tenant_id!r} in admission round"
            ) from None

    usage: Dict[str, Dict[str, float]] = {
        tenant_id: dict.fromkeys(cap, 0.0) for tenant_id in tenants
    }
    slack = dict(cap)
    running_pool: List[AdmissionRequest] = []
    for request in running:
        _tenant(request.tenant_id)
        for dim in cap:
            amount = float(request.demand.get(dim, 0.0))
            usage[request.tenant_id][dim] += amount
            slack[dim] -= amount
        running_pool.append(request)

    queues: Dict[str, List[AdmissionRequest]] = {}
    for request in pending:
        _tenant(request.tenant_id)
        queues.setdefault(request.tenant_id, []).append(request)

    balance: Dict[str, float] = {
        tenant_id: float((credits or {}).get(tenant_id, 0.0))
        for tenant_id in tenants
    }
    accrued = dict.fromkeys(tenants, 0.0)
    spent = dict.fromkeys(tenants, 0.0)

    def share_of(tenant_id: str) -> float:
        return dominant_share(
            usage[tenant_id], cap, _tenant(tenant_id).weight
        )

    def fits(demand: Mapping[str, float]) -> bool:
        return all(
            float(demand.get(dim, 0.0)) <= slack[dim] + _EPS for dim in cap
        )

    admitted: List[str] = []
    deferred: List[str] = []
    evicted: List[str] = []
    decisions: List[AdmissionDecision] = []
    out_for_round: set = set()
    preemptions_used = 0

    while True:
        candidates = [
            tenant_id
            for tenant_id, queue in queues.items()
            if queue and tenant_id not in out_for_round
        ]
        if not candidates:
            break
        # Smallest credit-biased weighted dominant share wins; tenant id
        # breaks ties deterministically.
        tenant_id = min(
            candidates,
            key=lambda t: (share_of(t) - credit_bias * balance[t], t),
        )
        head = queues[tenant_id][0]
        ok = fits(head.demand)
        if not ok and preemption_enabled:
            priority = _tenant(tenant_id).priority
            while not ok and preemptions_used < max_preemptions:
                victims = [
                    req
                    for req in running_pool
                    if _tenant(req.tenant_id).priority < priority
                ]
                if not victims:
                    break
                victim = min(
                    victims,
                    key=lambda req: (
                        _tenant(req.tenant_id).priority,
                        -share_of(req.tenant_id),
                        req.topology_id,
                    ),
                )
                running_pool.remove(victim)
                for dim in cap:
                    amount = float(victim.demand.get(dim, 0.0))
                    usage[victim.tenant_id][dim] -= amount
                    slack[dim] += amount
                evicted.append(victim.topology_id)
                preemptions_used += 1
                decisions.append(
                    AdmissionDecision(
                        action="evict",
                        tenant_id=victim.tenant_id,
                        topology_id=victim.topology_id,
                        share=share_of(victim.tenant_id),
                        credits=balance[victim.tenant_id],
                    )
                )
                ok = fits(head.demand)
        if ok:
            queues[tenant_id].pop(0)
            for dim in cap:
                amount = float(head.demand.get(dim, 0.0))
                usage[tenant_id][dim] += amount
                slack[dim] -= amount
            spent[tenant_id] += balance[tenant_id]
            balance[tenant_id] = 0.0
            admitted.append(head.topology_id)
            decisions.append(
                AdmissionDecision(
                    action="admit",
                    tenant_id=tenant_id,
                    topology_id=head.topology_id,
                    share=share_of(tenant_id),
                    credits=0.0,
                )
            )
        else:
            out_for_round.add(tenant_id)
            gained = credit_accrual * _tenant(tenant_id).weight
            accrued[tenant_id] += gained
            balance[tenant_id] += gained
            for request in queues[tenant_id]:
                deferred.append(request.topology_id)
                decisions.append(
                    AdmissionDecision(
                        action="defer",
                        tenant_id=tenant_id,
                        topology_id=request.topology_id,
                        share=share_of(tenant_id),
                        credits=balance[tenant_id],
                    )
                )

    return AdmissionPlan(
        admitted=tuple(admitted),
        deferred=tuple(deferred),
        evicted=tuple(evicted),
        decisions=tuple(decisions),
        shares={tenant_id: share_of(tenant_id) for tenant_id in tenants},
        credits=balance,
        accrued=accrued,
        spent=spent,
    )
