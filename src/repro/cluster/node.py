"""Worker nodes and worker slots.

A node models one supervisor machine: a resource *capacity* (what the
paper's Section 5.2 sets per supervisor in storm.yaml; here the cluster
builders set it), a mutable *availability* that scheduling reservations
draw down, and a fixed set of worker slots (supervisor ports) that
worker processes bind to.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.cluster.resources import ResourceSchema, ResourceVector
from repro.errors import ClusterStateError, InsufficientResourcesError

__all__ = ["WorkerSlot", "Node", "DEFAULT_SLOT_BASE_PORT", "CPU_POINTS_PER_CORE"]

#: Storm's conventional first supervisor port.
DEFAULT_SLOT_BASE_PORT = 6700

#: CPU points that equal one core (the paper: "CPU availability of a node
#: is set to 100 * #cores").
CPU_POINTS_PER_CORE = 100.0


@dataclass(frozen=True, order=True)
class WorkerSlot:
    """One worker-process slot: the (node, port) pair Storm schedules
    executors onto."""

    node_id: str
    port: int

    def __str__(self) -> str:
        return f"{self.node_id}:{self.port}"


class Node:
    """A supervisor machine with resource accounting.

    Reservation semantics follow the paper's constraint classes:

    * hard dimensions (memory) can never go below zero — attempting to do
      so raises :class:`~repro.errors.InsufficientResourcesError`;
    * soft dimensions (CPU, bandwidth) may go negative, which models
      over-utilisation with graceful degradation.
    """

    __slots__ = ("node_id", "rack_id", "_capacity", "_available", "_slots",
                 "_reservations", "alive")

    def __init__(
        self,
        node_id: str,
        rack_id: str,
        capacity: ResourceVector,
        num_slots: int = 4,
        base_port: int = DEFAULT_SLOT_BASE_PORT,
    ):
        if num_slots < 1:
            raise ValueError(f"node {node_id!r} needs at least one slot")
        self.node_id = node_id
        self.rack_id = rack_id
        self._capacity = capacity
        self._available = capacity
        self._slots: Tuple[WorkerSlot, ...] = tuple(
            WorkerSlot(node_id, base_port + i) for i in range(num_slots)
        )
        #: reservation label -> demand vector, for release/audit.
        self._reservations: Dict[str, ResourceVector] = {}
        self.alive = True

    # -- introspection ----------------------------------------------------

    @property
    def schema(self) -> ResourceSchema:
        return self._capacity.schema

    @property
    def capacity(self) -> ResourceVector:
        return self._capacity

    @property
    def available(self) -> ResourceVector:
        return self._available

    @property
    def cores(self) -> int:
        """Whole cores behind the CPU capacity, at least one (rounded
        half to even, so 250 points are two cores)."""
        return max(1, round(self._capacity.cpu / CPU_POINTS_PER_CORE))

    @property
    def used(self) -> ResourceVector:
        return self._capacity - self._available

    @property
    def slots(self) -> Tuple[WorkerSlot, ...]:
        return self._slots

    @property
    def num_slots(self) -> int:
        return len(self._slots)

    @property
    def reservations(self) -> Dict[str, ResourceVector]:
        return dict(self._reservations)

    def resource_values(
        self,
    ) -> Tuple[ResourceSchema, Tuple[float, ...], Tuple[float, ...]]:
        """``(schema, capacity values, availability values)`` in one
        call: the scheduler's packed view reads this row for every alive
        node on every round, where five property reads per node showed
        in profiles."""
        capacity = self._capacity
        return capacity._schema, capacity._values, self._available._values

    def has_reservation(self, label: str) -> bool:
        """Membership test without the defensive copy that the
        :attr:`reservations` property takes (the scheduling hot path
        checks this once per placed task per round)."""
        return label in self._reservations

    def slot(self, port: int) -> WorkerSlot:
        for s in self._slots:
            if s.port == port:
                return s
        raise ClusterStateError(f"node {self.node_id!r} has no slot on port {port}")

    # -- admission / accounting ------------------------------------------

    def can_host(self, demand: ResourceVector) -> bool:
        """True if scheduling ``demand`` here violates no hard constraint.

        Soft dimensions are deliberately not checked: R-Storm permits
        over-committing them (Section 3)."""
        return self.alive and self._available.satisfies_hard(demand)

    def reserve(self, label: str, demand: ResourceVector) -> None:
        """Draw ``demand`` down from availability under ``label``.

        Raises:
            InsufficientResourcesError: if a hard dimension would go
                negative, or the node is dead.
            ClusterStateError: if ``label`` is already reserved.
        """
        if not self.alive:
            raise InsufficientResourcesError(
                f"node {self.node_id!r} is not alive", node_id=self.node_id
            )
        if label in self._reservations:
            raise ClusterStateError(
                f"label {label!r} already reserved on node {self.node_id!r}"
            )
        if not self._available.satisfies_hard(demand):
            for dim in self.schema.hard_names:
                if self._available[dim] < demand[dim]:
                    raise InsufficientResourcesError(
                        f"node {self.node_id!r}: hard constraint {dim!r} "
                        f"violated (available {self._available[dim]:g}, "
                        f"requested {demand[dim]:g})",
                        node_id=self.node_id,
                        resource=dim,
                    )
        self._available = self._available - demand
        self._reservations[label] = demand

    def release(self, label: str) -> ResourceVector:
        """Return the resources reserved under ``label`` to the pool."""
        try:
            demand = self._reservations.pop(label)
        except KeyError:
            raise ClusterStateError(
                f"no reservation {label!r} on node {self.node_id!r}"
            ) from None
        self._available = self._available + demand
        return demand

    def release_all(self) -> None:
        for label in list(self._reservations):
            self.release(label)

    def fail(self) -> None:
        """Mark the node dead (failure injection); reservations remain on
        the books until the coordination layer reconciles them."""
        self.alive = False

    def recover(self) -> None:
        self.alive = True

    # -- scoring helpers ---------------------------------------------------

    def availability_score(self) -> float:
        """Scalar "how much room is left", normalised per dimension so
        memory megabytes do not drown CPU points.  Used by R-Storm's
        ref-node selection (node with the most resources)."""
        return self._available.normalised_total(self._capacity)

    def utilisation(self, dimension: str) -> float:
        """Fraction of ``dimension`` capacity in use (may exceed 1.0 for
        over-committed soft dimensions)."""
        cap = self._capacity[dimension]
        if cap <= 0:
            return 0.0
        return (self._capacity[dimension] - self._available[dimension]) / cap

    def __repr__(self) -> str:
        return (
            f"Node({self.node_id!r}, rack={self.rack_id!r}, "
            f"available={self._available!r}, slots={len(self._slots)}, "
            f"alive={self.alive})"
        )
