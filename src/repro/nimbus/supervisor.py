"""Supervisors — the worker-node daemons.

Each worker machine runs a supervisor that registers with Nimbus, then
heartbeats.  Heartbeat loss unregisters it and Nimbus observes the
membership change.  Nimbus reads node capacities from the cluster
model, not from the supervisor.
"""

from __future__ import annotations

from repro.cluster.node import Node
from repro.errors import MembershipError

__all__ = ["Supervisor"]


class Supervisor:
    """One worker node's supervisor daemon."""

    def __init__(self, node: Node):
        self.node = node
        self.registered = False
        self.last_heartbeat: float = 0.0

    @property
    def supervisor_id(self) -> str:
        return self.node.node_id

    def start(self, now: float = 0.0) -> None:
        """Register (again, after a stop)."""
        if self.registered:
            raise MembershipError(
                f"supervisor {self.supervisor_id!r} is already registered"
            )
        self.registered = True
        self.last_heartbeat = now

    def heartbeat(self, now: float) -> None:
        if not self.registered:
            raise MembershipError(
                f"supervisor {self.supervisor_id!r} is not registered"
            )
        self.last_heartbeat = now

    def stop(self) -> None:
        """Graceful shutdown, or heartbeat expiry: unregister."""
        self.registered = False

    def crash(self) -> None:
        """Hard failure: the node dies and the supervisor unregisters
        (in Storm after the session timeout; immediately here)."""
        self.node.fail()
        self.stop()

    def __repr__(self) -> str:
        return (
            f"Supervisor({self.supervisor_id!r}, registered={self.registered})"
        )
