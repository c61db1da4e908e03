"""Multi-tenant admission control for Nimbus.

Tenants own topologies, declare SLOs (p99 latency target, minimum
effective throughput) and carry a fairness weight plus a preemption
priority.  The :class:`TenancyController` front-ends topology
submission: instead of calling :meth:`Nimbus.submit_topology` directly,
callers submit through the controller, which queues the topology per
tenant.  Each Nimbus scheduling round then runs one weighted-DRF
admission step (:func:`repro.scheduler.admission.plan_admission`)
*before* the per-topology schedulers see the cluster — the schedulers
themselves stay unchanged and byte-identical; admission only decides
*which* topologies they are asked to place.

Preemption reuses the quarantine-style partial-reassignment path: a
victim is removed through :meth:`Nimbus.kill_topology` (which releases
its reservations), and because surviving assignments are passed to the
scheduler as ``existing``, only the delta is re-placed — nothing else
moves.

The layer is on exactly when a controller is wired: building one binds
it to ``nimbus.tenancy``, and only then does the scheduling round run
admission.  A Nimbus with no controller never reads a
``nimbus.tenancy.*`` key, so the default path stays byte-identical
(asserted by the differential tests and the CI non-perturbation grep).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.errors import SchedulingError
from repro.scheduler.admission import (
    SLO,
    AdmissionDecision,
    AdmissionPlan,
    AdmissionRequest,
    Tenant,
    jain_index,
    plan_admission,
)
from repro.topology.topology import Topology

__all__ = ["SLO", "Tenant", "TenancyController", "AdmissionRoundRecord"]


@dataclass(frozen=True)
class AdmissionRoundRecord:
    """One admission round's summary, for fairness reporting."""

    now: float
    #: weighted dominant share per tenant after the round
    shares: Dict[str, float]
    #: Jain fairness index over those shares
    jain: float
    admitted: Tuple[str, ...]
    deferred: Tuple[str, ...]
    evicted: Tuple[str, ...]


class TenancyController:
    """Per-cluster tenant registry + admission loop.

    Binds itself to ``nimbus.tenancy``;
    :meth:`Nimbus.schedule_round` calls :meth:`admission_round` once per
    round while one is bound.  The controller
    keeps no reference to its Nimbus (Nimbus holds the controller, so
    one back would close a reference cycle): the methods that act on
    Nimbus take it as their first argument.
    """

    def __init__(self, nimbus):
        self.config = nimbus.config
        self.tenants: Dict[str, Tenant] = {}
        #: tenant id -> FIFO of pending (not yet admitted) topologies
        self._pending: Dict[str, List[Topology]] = {}
        #: topology id -> owning tenant id (pending, running or evicted)
        self._owner: Dict[str, str] = {}
        #: outstanding credit balance per tenant
        self.credits: Dict[str, float] = {}
        #: every admit/defer/evict verdict, in decision order
        self.decisions: List[AdmissionDecision] = []
        #: per-round fairness records (rounds with pending work only)
        self.round_records: List[AdmissionRoundRecord] = []
        #: topologies evicted by priority preemption (churn counter)
        self.preemptions = 0
        #: tasks those evictions displaced
        self.preempted_tasks = 0
        nimbus.tenancy = self

    # -- registry -------------------------------------------------------

    def register_tenant(self, tenant: Tenant) -> None:
        if tenant.tenant_id in self.tenants:
            raise SchedulingError(
                f"tenant {tenant.tenant_id!r} is already registered"
            )
        self.tenants[tenant.tenant_id] = tenant
        self._pending.setdefault(tenant.tenant_id, [])
        self.credits.setdefault(tenant.tenant_id, 0.0)

    def tenant_of(self, topology_id: str) -> Optional[str]:
        return self._owner.get(topology_id)

    def owners(self) -> Dict[str, str]:
        """topology id -> tenant id for every submission seen."""
        return dict(self._owner)

    @property
    def pending_ids(self) -> List[str]:
        return [
            topology.topology_id
            for queue in self._pending.values()
            for topology in queue
        ]

    # -- submission -----------------------------------------------------

    def submit(self, nimbus, topology: Topology, tenant_id: str) -> None:
        """Submit ``topology`` to ``nimbus`` on behalf of ``tenant_id``:
        it queues until an admission round grants it cluster slack."""
        if tenant_id not in self.tenants:
            raise SchedulingError(
                f"unknown tenant {tenant_id!r}; register it first"
            )
        topology_id = topology.topology_id
        if topology_id in self._owner:
            raise SchedulingError(
                f"topology {topology_id!r} is already submitted"
            )
        self._owner[topology_id] = tenant_id
        self._pending[tenant_id].append(topology)

    # -- admission ------------------------------------------------------

    def _demand(self, topology: Topology) -> Dict[str, float]:
        return topology.total_demand().as_dict()

    def _capacity(self, nimbus) -> Dict[str, float]:
        totals: Dict[str, float] = {}
        for node in nimbus.cluster.alive_nodes:
            for dim, value in node.capacity.as_dict().items():
                totals[dim] = totals.get(dim, 0.0) + value
        return totals

    def admission_round(
        self, nimbus, now: float = 0.0
    ) -> Optional[AdmissionPlan]:
        """Run one weighted-DRF admission step against current slack.

        Called by ``Nimbus.schedule_round`` (quarantined nodes already
        masked, so capacity excludes them) before the per-topology
        schedulers run.  No-op when nothing is pending.
        """
        if not any(self._pending.values()):
            return None
        running = [
            AdmissionRequest(
                topology_id=topology.topology_id,
                tenant_id=self._owner[topology.topology_id],
                demand=self._demand(topology),
            )
            for topology in nimbus.topologies
            if topology.topology_id in self._owner
        ]
        pending = [
            AdmissionRequest(
                topology_id=topology.topology_id,
                tenant_id=tenant_id,
                demand=self._demand(topology),
            )
            for tenant_id, queue in self._pending.items()
            for topology in queue
        ]
        config = self.config
        plan = plan_admission(
            pending,
            running,
            self._capacity(nimbus),
            self.tenants,
            self.credits,
            headroom=config["nimbus.tenancy.headroom"],
            credit_bias=config["nimbus.tenancy.credit.bias"],
            credit_accrual=config["nimbus.tenancy.credit.accrual"],
            preemption_enabled=config["nimbus.tenancy.preemption.enabled"],
            max_preemptions=config["nimbus.tenancy.max.preemptions"],
        )
        # Evictions first: kill_topology releases the victim's
        # reservations, so admitted topologies see the freed slack when
        # the scheduler places them this same round.
        for topology_id in plan.evicted:
            victim = nimbus.topology(topology_id)
            self.preempted_tasks += victim.num_tasks
            nimbus.kill_topology(topology_id)
            # Back to the *front* of the owner's queue: the victim
            # competes again next round before its tenant's newer work.
            self._pending[self._owner[topology_id]].insert(0, victim)
            self.preemptions += 1
        for topology_id in plan.admitted:
            queue = self._pending[self._owner[topology_id]]
            index = next(
                i
                for i, topology in enumerate(queue)
                if topology.topology_id == topology_id
            )
            nimbus.submit_topology(queue.pop(index))
        self.credits = dict(plan.credits)
        self.decisions.extend(plan.decisions)
        self.round_records.append(
            AdmissionRoundRecord(
                now=now,
                shares=dict(plan.shares),
                jain=jain_index(list(plan.shares.values())),
                admitted=plan.admitted,
                deferred=plan.deferred,
                evicted=plan.evicted,
            )
        )
        return plan
