"""Supervisors — the worker-node daemons.

Each worker machine runs a supervisor that registers itself (and its
resource capacities, per the paper's Section 5 modification that lets
"physical machines send their resource availability to Nimbus") as an
ephemeral znode, then heartbeats.  Heartbeat loss expires the session and
Nimbus observes the membership change.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.cluster.node import Node
from repro.errors import MembershipError
from repro.nimbus.zookeeper import InMemoryZooKeeper

__all__ = ["Supervisor", "SUPERVISORS_PATH"]

SUPERVISORS_PATH = "/supervisors"


class Supervisor:
    """One worker node's supervisor daemon."""

    def __init__(self, node: Node, zk: InMemoryZooKeeper):
        self.node = node
        self.zk = zk
        self.session: Optional[int] = None
        self.last_heartbeat: float = 0.0

    @property
    def supervisor_id(self) -> str:
        return self.node.node_id

    @property
    def znode_path(self) -> str:
        return f"{SUPERVISORS_PATH}/{self.supervisor_id}"

    @property
    def registered(self) -> bool:
        return (
            self.session is not None
            and self.zk.session_alive(self.session)
            and self.zk.exists(self.znode_path)
        )

    def capacity_payload(self) -> Dict[str, Any]:
        """The resource advertisement published to ZooKeeper — the data
        R-Storm's GlobalState reads to learn node availability."""
        return {
            "supervisor.id": self.supervisor_id,
            "rack": self.node.rack_id,
            "supervisor.memory.capacity.mb": self.node.capacity.memory_mb,
            "supervisor.cpu.capacity": self.node.capacity.cpu,
            "supervisor.bandwidth.capacity.mbps": self.node.capacity.bandwidth_mbps,
            "supervisor.slots.ports": [slot.port for slot in self.node.slots],
        }

    def start(self, now: float = 0.0) -> None:
        """Open a session and register the ephemeral supervisor znode."""
        if self.registered:
            raise MembershipError(
                f"supervisor {self.supervisor_id!r} is already registered"
            )
        self.zk.ensure_path(SUPERVISORS_PATH)
        self.session = self.zk.create_session()
        self.zk.create(
            self.znode_path,
            self.capacity_payload(),
            ephemeral=True,
            session=self.session,
        )
        self.last_heartbeat = now

    def heartbeat(self, now: float) -> None:
        if not self.registered:
            raise MembershipError(
                f"supervisor {self.supervisor_id!r} is not registered"
            )
        self.last_heartbeat = now
        payload = self.capacity_payload()
        payload["heartbeat"] = now
        self.zk.set(self.znode_path, payload)

    def stop(self) -> None:
        """Graceful shutdown: expire the session, dropping the ephemeral
        registration."""
        if self.session is not None and self.zk.session_alive(self.session):
            self.zk.expire_session(self.session)
        self.session = None

    def crash(self) -> None:
        """Hard failure: the node dies and the session expires (in real
        ZooKeeper after the session timeout; immediately here)."""
        self.node.fail()
        self.stop()

    def __repr__(self) -> str:
        return (
            f"Supervisor({self.supervisor_id!r}, registered={self.registered})"
        )
