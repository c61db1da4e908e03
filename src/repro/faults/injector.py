"""Deterministic fault injection into a running simulation.

:class:`FaultInjector` turns the pure data of a
:class:`~repro.faults.schedule.FaultSchedule` into scheduled DES
callbacks against one :class:`~repro.simulation.runtime.SimulationRun`:

* **Node crash** — the supervisor stops heartbeating (when a
  :class:`~repro.nimbus.failure_detector.HeartbeatFailureDetector` is
  wired in, detection takes a full heartbeat timeout, as on a real
  cluster) and the runtime kills the node's tasks.  An optional rejoin
  revives the machine, empty, later.
* **Node slow-down** — the runtime multiplies the node's service times.
* **Link degradation** — the transfer model scales the rack-pair uplink
  bandwidth down.
* **Rack partition** — every node in the rack crashes at once from the
  rest of the cluster's point of view (their cross-rack work is lost
  either way); healing rejoins them all.
* **Heartbeat silence** — gray failure: the machine keeps processing but
  the detector will wrongly expire it.  Requires a detector.
* **Message loss** — the rack-pair trunk drops (and optionally
  duplicates) batches with a seeded probability; healing restores
  exactly-once transport.

Injection is deterministic: all times are simulated time, no wall clock
or RNG is consulted, and the injector records everything it did in
:attr:`injected` (and reports each injection as an ``inject`` event to
the run's ``observer``, when one is set).
"""

from __future__ import annotations

import random
from typing import List, Optional, Tuple

from repro.errors import ConfigError
from repro.faults.events import (
    FaultEvent,
    HeartbeatSilence,
    LinkDegradation,
    MessageLoss,
    NodeCrash,
    NodeSlowdown,
    RackPartition,
)
from repro.faults.schedule import FaultSchedule
from repro.nimbus.failure_detector import HeartbeatFailureDetector
from repro.simulation.tracing import EventKind, TraceEvent

__all__ = ["FaultInjector"]


class FaultInjector:
    """Hooks a fault schedule into a simulation run.

    Args:
        schedule: The faults to inject.
        detector: Optional heartbeat failure detector.  With one, crashes
            and partitions are *silent* — Nimbus only learns of them after
            the heartbeat timeout.  Without one, the node object is failed
            directly and Nimbus notices on its next reconciliation.
    """

    def __init__(
        self,
        schedule: FaultSchedule,
        detector: Optional[HeartbeatFailureDetector] = None,
    ):
        self.schedule = schedule
        self.detector = detector
        #: (simulated time, event) for every fault actually injected
        self.injected: List[Tuple[float, FaultEvent]] = []
        self._attached = False

    # -- wiring -------------------------------------------------------------

    def attach(self, run) -> None:
        """Register every event of the schedule with ``run``'s clock.

        Raises:
            ConfigError: if the schedule references unknown nodes/racks,
                needs a detector none was given for, or the injector is
                already attached.
        """
        if self._attached:
            raise ConfigError("fault injector is already attached")
        self._attached = True
        self.schedule.validate(run.cluster)
        for event in self.schedule:
            if isinstance(event, HeartbeatSilence) and self.detector is None:
                raise ConfigError(
                    f"{event.describe()} requires a heartbeat failure "
                    "detector (gray failures are detector-level faults)"
                )
            run.on_time(event.at, self._applier(run, event))

    def _applier(self, run, event: FaultEvent):
        def apply() -> None:
            self.injected.append((run.sim.now, event))
            if run.observer is not None:
                run.observer(TraceEvent(
                    run.sim.now, EventKind.INJECT, fault=event.describe()
                ))
            self._apply(run, event)

        return apply

    # -- per-event effects --------------------------------------------------

    def _apply(self, run, event: FaultEvent) -> None:
        if isinstance(event, NodeCrash):
            self._crash_node(run, event.node_id)
            if event.rejoin_at is not None:
                run.on_time(
                    event.rejoin_at,
                    lambda: self._rejoin_node(run, event.node_id),
                )
        elif isinstance(event, NodeSlowdown):
            run.set_node_fault_factor(event.node_id, event.factor)
            if event.until is not None:
                run.on_time(
                    event.until,
                    lambda: run.set_node_fault_factor(event.node_id, 1.0),
                )
        elif isinstance(event, LinkDegradation):
            run.transfer.set_uplink_scale(
                event.rack_a, event.rack_b, 1.0 / event.factor
            )
            if event.until is not None:
                run.on_time(
                    event.until,
                    lambda: run.transfer.set_uplink_scale(
                        event.rack_a, event.rack_b, 1.0
                    ),
                )
        elif isinstance(event, RackPartition):
            node_ids = sorted(
                node.node_id for node in run.cluster.rack(event.rack_id)
            )
            for node_id in node_ids:
                self._crash_node(run, node_id)
            if event.heal_at is not None:

                def heal() -> None:
                    for node_id in node_ids:
                        self._rejoin_node(run, node_id)

                run.on_time(event.heal_at, heal)
        elif isinstance(event, HeartbeatSilence):
            self.detector.mute(event.node_id)
            if event.until is not None:
                run.on_time(
                    event.until,
                    lambda: self.detector.unmute(event.node_id, run.sim.now),
                )
        elif isinstance(event, MessageLoss):
            # Fates come from a per-event RNG seeded by the schedule, and
            # the DES consumes them in simulation-time order — identical
            # schedules give byte-identical loss patterns.
            run.transfer.set_link_loss(
                event.rack_a,
                event.rack_b,
                event.drop_probability,
                event.duplicate_probability,
                rng=random.Random(event.seed),
            )
            if event.until is not None:
                run.on_time(
                    event.until,
                    lambda: run.transfer.clear_link_loss(
                        event.rack_a, event.rack_b
                    ),
                )
        else:  # pragma: no cover - new event kinds must be handled here
            raise ConfigError(f"unhandled fault event {type(event).__name__}")

    def _crash_node(self, run, node_id: str) -> None:
        if self.detector is not None and node_id in self.detector.supervisors:
            self.detector.silence(node_id)
        run._fail_node(node_id)

    def _rejoin_node(self, run, node_id: str) -> None:
        if self.detector is not None and node_id in self.detector.supervisors:
            self.detector.revive(node_id, run.sim.now)
        run._recover_node(node_id)
