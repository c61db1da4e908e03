"""Heartbeat-based failure detection.

:meth:`Supervisor.crash` unregisters a supervisor instantly — convenient
for tests, but real clusters detect failure by *missed heartbeats* after
a timeout.  This module provides that behaviour for simulated runs:
supervisors heartbeat periodically in simulated time, and the detector
unregisters those whose last heartbeat is older than the timeout, at
which point Nimbus's membership reconciliation sees the node disappear.

Wiring it up (:func:`repro.experiments.harness.wire` does this, with
the timing from ``nimbus.supervisor.heartbeat.secs`` and
``nimbus.supervisor.timeout.secs``)::

    detector = HeartbeatFailureDetector(
        supervisors, heartbeat_interval_s=5.0, timeout_s=15.0
    )
    detector.attach(run)        # heartbeats + checks inside the DES
    nimbus.attach(run)          # scheduling ticks observe the expiry

Killing a machine then becomes ``detector.silence(node_id)`` (the
supervisor simply stops heartbeating), and recovery takes one timeout
plus one scheduling period — the end-to-end failover latency the paper's
"snappy rescheduling" requirement is about.
"""

from __future__ import annotations

from typing import Dict, Iterable, List

from repro.errors import ConfigError, MembershipError
from repro.nimbus.supervisor import Supervisor
from repro.simulation.tracing import EventKind, TraceEvent

__all__ = ["HeartbeatFailureDetector"]


class HeartbeatFailureDetector:
    """Drives supervisor heartbeats and expires silent ones.

    Args:
        supervisors: The supervisors to manage (must be started).
        heartbeat_interval_s: Simulated seconds between heartbeats.
        timeout_s: A supervisor whose last heartbeat is older than this
            is declared dead (it is unregistered and its node is
            failed).  Must exceed the heartbeat interval.
    """

    def __init__(
        self,
        supervisors: Iterable[Supervisor],
        heartbeat_interval_s: float,
        timeout_s: float,
    ):
        self.supervisors: Dict[str, Supervisor] = {
            s.supervisor_id: s for s in supervisors
        }
        if heartbeat_interval_s <= 0:
            raise ValueError("heartbeat_interval_s must be positive")
        if timeout_s <= heartbeat_interval_s:
            raise ValueError("timeout_s must exceed the heartbeat interval")
        self.heartbeat_interval_s = heartbeat_interval_s
        self.timeout_s = timeout_s
        self._silenced: set = set()
        self._attached = False
        #: (time, node_id) of every expiry declared; each is also
        #: reported to the run's ``observer`` as an ``expire`` event
        self.expirations: List[tuple] = []

    # -- control -------------------------------------------------------------

    def silence(self, node_id: str) -> None:
        """The machine stops heartbeating (crash/partition); detection
        happens after the timeout, not instantly."""
        if node_id not in self.supervisors:
            raise MembershipError(f"unknown supervisor {node_id!r}")
        self._silenced.add(node_id)
        self.supervisors[node_id].node.fail()

    def revive(self, node_id: str, now: float = 0.0) -> None:
        """The machine returns and re-registers."""
        supervisor = self.supervisors.get(node_id)
        if supervisor is None:
            raise MembershipError(f"unknown supervisor {node_id!r}")
        self._silenced.discard(node_id)
        supervisor.node.recover()
        if not supervisor.registered:
            supervisor.start(now)

    def mute(self, node_id: str) -> None:
        """Heartbeats stop but the machine keeps running (a gray failure:
        the node is partitioned from Nimbus, not dead).  After the
        timeout the detector will still unregister it and declare the
        node failed — Nimbus cannot tell the difference, which is the
        point."""
        if node_id not in self.supervisors:
            raise MembershipError(f"unknown supervisor {node_id!r}")
        self._silenced.add(node_id)

    def unmute(self, node_id: str, now: float = 0.0) -> None:
        """Heartbeats resume.  If the supervisor already expired (the
        node was wrongly declared dead), the supervisor re-registers and the
        node recovers — the false-positive heals like a real failure."""
        supervisor = self.supervisors.get(node_id)
        if supervisor is None:
            raise MembershipError(f"unknown supervisor {node_id!r}")
        self._silenced.discard(node_id)
        if not supervisor.registered:
            supervisor.node.recover()
            supervisor.start(now)

    def is_silenced(self, node_id: str) -> bool:
        return node_id in self._silenced

    # -- simulation wiring --------------------------------------------------------

    def attach(self, run) -> None:
        """Schedule heartbeats and expiry checks inside ``run``.

        Raises:
            ConfigError: if the detector is already attached (a second
                chain would double every heartbeat and check).
        """
        if self._attached:
            raise ConfigError("failure detector is already attached")
        self._attached = True
        run.on_time(self.heartbeat_interval_s, self._beat, run)
        run.on_time(self.heartbeat_interval_s * 1.5, self._check, run)

    def _beat(self, run) -> None:
        now = run.sim.now
        for node_id, supervisor in self.supervisors.items():
            if node_id in self._silenced:
                continue
            if supervisor.registered:
                supervisor.heartbeat(now)
        run.on_time(now + self.heartbeat_interval_s, self._beat, run)

    def _check(self, run) -> None:
        now = run.sim.now
        for node_id, supervisor in self.supervisors.items():
            if not supervisor.registered:
                continue
            if now - supervisor.last_heartbeat > self.timeout_s:
                supervisor.stop()  # expiry
                supervisor.node.fail()
                self.expirations.append((now, node_id))
                if run.observer is not None:
                    run.observer(TraceEvent(
                        now, EventKind.EXPIRE, node=node_id
                    ))
        run.on_time(now + self.heartbeat_interval_s, self._check, run)
