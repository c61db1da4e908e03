"""StatisticServer — metrics collection (paper Section 5.1).

Collects, per simulated run:

* windowed sink throughput at task, component and topology level
  (the paper reports tuples per 10-second window),
* spout emission and failure counts,
* per-node busy core-seconds (CPU utilisation, Figure 10),
* batch ack latencies.

The server only records; derived views (averages, series) live in
:class:`~repro.simulation.report.SimulationReport`.
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Dict, List, Optional, Tuple

from repro.traffic.percentiles import TailDigest

__all__ = ["StatisticServer"]


class StatisticServer:
    """Raw metric sink for one simulation run.

    The hot recorders below stay dict/float arithmetic only.
    """

    def __init__(self, window_s: float = 10.0):
        if window_s <= 0:
            raise ValueError("window_s must be positive")
        self.window_s = window_s
        #: (topology, window_index) -> tuples processed by sinks
        self._sink_windows: Dict[Tuple[str, int], int] = defaultdict(int)
        #: (topology, component, window_index) -> tuples
        self._component_windows: Dict[Tuple[str, str, int], int] = defaultdict(int)
        #: topology -> total sink tuples
        self._sink_totals: Dict[str, int] = defaultdict(int)
        #: (topology, component) -> total tuples processed (all bolts)
        self._processed_totals: Dict[Tuple[str, str], int] = defaultdict(int)
        #: topology -> tuples emitted by spouts
        self._emitted: Dict[str, int] = defaultdict(int)
        #: topology -> tuples in timed-out (failed) batches
        self._failed: Dict[str, int] = defaultdict(int)
        #: node -> busy core-seconds
        self._busy: Dict[str, float] = defaultdict(float)
        #: topology -> ack latency samples (seconds)
        self._ack_latencies: Dict[str, List[float]] = defaultdict(list)
        #: node -> bytes sent over its NIC
        self._nic_bytes: Dict[str, int] = defaultdict(int)
        #: count of batches dropped at dead nodes
        self.dropped_batches: int = 0
        #: (topology, component) -> worker crash count (queue overflow)
        self._crashes: Dict[Tuple[str, str], int] = defaultdict(int)
        # -- delivery-semantics counters (at-least-once layer / message
        # -- loss faults); all stay zero on default runs.
        #: topology -> tuples re-emitted by spouts replaying failed trees
        self._replayed: Dict[str, int] = defaultdict(int)
        #: topology -> replay batches issued
        self._replay_batches: Dict[str, int] = defaultdict(int)
        #: topology -> tuples in trees given up on after max_retries
        self._exhausted: Dict[str, int] = defaultdict(int)
        #: topology -> exhausted tree count
        self._exhausted_batches: Dict[str, int] = defaultdict(int)
        #: topology -> tuples lost on the wire (message-loss faults)
        self._lost: Dict[str, int] = defaultdict(int)
        #: topology -> tuples duplicated on the wire
        self._duplicated: Dict[str, int] = defaultdict(int)
        #: (topology, window_index) -> tuples in trees acked that window
        #: (effective, acked-once throughput vs the raw sink windows)
        self._acked_windows: Dict[Tuple[str, int], int] = defaultdict(int)
        #: topology -> total tuples in acked trees
        self._acked_totals: Dict[str, int] = defaultdict(int)
        # -- open-loop traffic counters (arrival_process runs only; all
        # -- stay empty on default closed-loop runs).
        #: (topology, window_index) -> tuples offered by arrivals
        self._offered_windows: Dict[Tuple[str, int], int] = defaultdict(int)
        #: topology -> total offered tuples
        self._offered_totals: Dict[str, int] = defaultdict(int)
        #: topology -> tuples that arrived while their spout was down
        self._arrivals_dropped: Dict[str, int] = defaultdict(int)
        #: topology -> end-to-end (arrival -> full ack) latency digest
        self._e2e_digests: Dict[str, TailDigest] = {}
        # -- flow-control counters (config.flow runs only; all stay
        # -- empty/zero on default runs).
        #: topology -> tuples shed by the shedding policy (all stages)
        self._shed_totals: Dict[str, int] = defaultdict(int)
        #: topology -> shed batch count
        self._shed_batches: Dict[str, int] = defaultdict(int)
        #: (topology, stage) -> shed tuples (``ingress`` | ``queue``)
        self._shed_stages: Dict[Tuple[str, str], int] = defaultdict(int)
        #: (topology, component) -> shed tuples (elastic demand signal)
        self._shed_components: Dict[Tuple[str, str], int] = defaultdict(int)
        #: (topology, window_index) -> shed tuples (shed-rate series)
        self._shed_windows: Dict[Tuple[str, int], int] = defaultdict(int)
        #: (topology, producer, consumer) -> times the edge stalled
        self._credit_stalls: Dict[Tuple[str, str, str], int] = defaultdict(int)
        #: topology -> seconds spouts spent throttled by backpressure
        self._spout_throttled: Dict[str, float] = defaultdict(float)

    # -- recording ---------------------------------------------------------

    def window_index(self, time: float) -> int:
        # int() truncates toward zero == floor for the non-negative
        # simulated times the runtime produces, without the math.floor
        # call in the per-batch sink path.
        return int(time / self.window_s)

    def record_sink(
        self, topology_id: str, component: str, time: float, tuples: int
    ) -> None:
        w = int(time / self.window_s)
        self._sink_windows[(topology_id, w)] += tuples
        self._component_windows[(topology_id, component, w)] += tuples
        self._sink_totals[topology_id] += tuples

    def record_processed(
        self, topology_id: str, component: str, tuples: int
    ) -> None:
        self._processed_totals[(topology_id, component)] += tuples

    def record_emitted(self, topology_id: str, tuples: int) -> None:
        self._emitted[topology_id] += tuples

    def record_failed(self, topology_id: str, tuples: int) -> None:
        self._failed[topology_id] += tuples

    def record_busy(self, node_id: str, core_seconds: float) -> None:
        self._busy[node_id] += core_seconds

    def record_ack(self, topology_id: str, latency_s: float) -> None:
        self._ack_latencies[topology_id].append(latency_s)

    def record_nic(self, node_id: str, num_bytes: int) -> None:
        self._nic_bytes[node_id] += num_bytes

    def record_dropped(self) -> None:
        self.dropped_batches += 1

    def record_crash(self, topology_id: str, component: str) -> None:
        self._crashes[(topology_id, component)] += 1

    def record_replayed(self, topology_id: str, tuples: int) -> None:
        self._replayed[topology_id] += tuples
        self._replay_batches[topology_id] += 1

    def record_exhausted(self, topology_id: str, tuples: int) -> None:
        self._exhausted[topology_id] += tuples
        self._exhausted_batches[topology_id] += 1

    def record_lost(self, topology_id: str, tuples: int) -> None:
        self._lost[topology_id] += tuples

    def record_duplicate(self, topology_id: str, tuples: int) -> None:
        self._duplicated[topology_id] += tuples

    def record_acked_tuples(
        self, topology_id: str, time: float, tuples: int
    ) -> None:
        w = int(time / self.window_s)
        self._acked_windows[(topology_id, w)] += tuples
        self._acked_totals[topology_id] += tuples

    def record_offered(self, topology_id: str, time: float, tuples: int) -> None:
        w = int(time / self.window_s)
        self._offered_windows[(topology_id, w)] += tuples
        self._offered_totals[topology_id] += tuples

    def record_arrival_dropped(self, topology_id: str, tuples: int) -> None:
        self._arrivals_dropped[topology_id] += tuples

    def record_e2e_latency(self, topology_id: str, latency_s: float) -> None:
        digest = self._e2e_digests.get(topology_id)
        if digest is None:
            digest = self._e2e_digests[topology_id] = TailDigest()
        digest.add(latency_s)

    def record_shed(
        self, topology_id: str, component: str, stage: str, time: float,
        tuples: int,
    ) -> None:
        self._shed_totals[topology_id] += tuples
        self._shed_batches[topology_id] += 1
        self._shed_stages[(topology_id, stage)] += tuples
        self._shed_components[(topology_id, component)] += tuples
        self._shed_windows[(topology_id, int(time / self.window_s))] += tuples

    def record_credit_stall(
        self, topology_id: str, producer: str, consumer: str
    ) -> None:
        self._credit_stalls[(topology_id, producer, consumer)] += 1

    def record_spout_throttle(
        self, topology_id: str, seconds: float
    ) -> None:
        self._spout_throttled[topology_id] += seconds

    def per_batch_counters(
        self,
    ) -> Tuple[Dict[str, float], Dict[Tuple[str, str], int], Dict[str, int]]:
        """The live ``(busy, processed, nic)`` counter dicts behind
        :meth:`record_busy`, :meth:`record_processed` and
        :meth:`record_nic`, for the runtime's per-batch path to increment
        directly (``busy[node_id] += core_seconds``,
        ``processed[(topology_id, component)] += tuples``,
        ``nic[node_id] += num_bytes``) instead of paying a call each.

        They are ``defaultdict``\\ s owned by this server for its whole
        life, so a caller may hold them; an increment through them is
        indistinguishable from the matching ``record_*`` call.
        """
        return self._busy, self._processed_totals, self._nic_bytes

    # -- raw views --------------------------------------------------------

    def sink_total(self, topology_id: str) -> int:
        return self._sink_totals.get(topology_id, 0)

    def emitted_total(self, topology_id: str) -> int:
        return self._emitted.get(topology_id, 0)

    def failed_total(self, topology_id: str) -> int:
        return self._failed.get(topology_id, 0)

    def processed_total(self, topology_id: str, component: str) -> int:
        return self._processed_totals.get((topology_id, component), 0)

    def busy_core_seconds(self, node_id: str) -> float:
        return self._busy.get(node_id, 0.0)

    def busy_snapshot(self) -> Dict[str, float]:
        """Copy of per-node busy core-seconds — the elastic controller
        diffs consecutive snapshots to estimate node utilisation per
        control period."""
        return dict(self._busy)

    def processed_snapshot(self) -> Dict[Tuple[str, str], int]:
        """Copy of per-(topology, component) processed-tuple totals —
        diffed per control period for observed service throughput."""
        return dict(self._processed_totals)

    def nic_bytes(self, node_id: str) -> int:
        return self._nic_bytes.get(node_id, 0)

    def ack_latencies(self, topology_id: str) -> List[float]:
        return list(self._ack_latencies.get(topology_id, []))

    def throughput_series(
        self, topology_id: str, duration_s: float
    ) -> List[Tuple[float, int]]:
        """(window_start_s, sink tuples) for every window in the run,
        including empty windows."""
        num_windows = int(math.ceil(duration_s / self.window_s))
        return [
            (w * self.window_s, self._sink_windows.get((topology_id, w), 0))
            for w in range(num_windows)
        ]

    def component_series(
        self, topology_id: str, component: str, duration_s: float
    ) -> List[Tuple[float, int]]:
        num_windows = int(math.ceil(duration_s / self.window_s))
        return [
            (
                w * self.window_s,
                self._component_windows.get((topology_id, component, w), 0),
            )
            for w in range(num_windows)
        ]

    def replayed_total(self, topology_id: str) -> int:
        return self._replayed.get(topology_id, 0)

    def replay_batches(self, topology_id: str) -> int:
        return self._replay_batches.get(topology_id, 0)

    def exhausted_total(self, topology_id: str) -> int:
        return self._exhausted.get(topology_id, 0)

    def exhausted_batches(self, topology_id: str) -> int:
        return self._exhausted_batches.get(topology_id, 0)

    def lost_total(self, topology_id: str) -> int:
        return self._lost.get(topology_id, 0)

    def duplicated_total(self, topology_id: str) -> int:
        return self._duplicated.get(topology_id, 0)

    def acked_total(self, topology_id: str) -> int:
        return self._acked_totals.get(topology_id, 0)

    def acked_series(
        self, topology_id: str, duration_s: float
    ) -> List[Tuple[float, int]]:
        """(window_start_s, tuples in trees acked) for every window —
        the effective (acked-once) counterpart of
        :meth:`throughput_series`."""
        num_windows = int(math.ceil(duration_s / self.window_s))
        return [
            (w * self.window_s, self._acked_windows.get((topology_id, w), 0))
            for w in range(num_windows)
        ]

    def offered_total(self, topology_id: str) -> int:
        return self._offered_totals.get(topology_id, 0)

    def arrivals_dropped_total(self, topology_id: str) -> int:
        return self._arrivals_dropped.get(topology_id, 0)

    def offered_series(
        self, topology_id: str, duration_s: float
    ) -> List[Tuple[float, int]]:
        """(window_start_s, offered tuples) for every window — the
        open-loop counterpart of :meth:`throughput_series`."""
        num_windows = int(math.ceil(duration_s / self.window_s))
        return [
            (w * self.window_s, self._offered_windows.get((topology_id, w), 0))
            for w in range(num_windows)
        ]

    def e2e_digest(self, topology_id: str) -> Optional[TailDigest]:
        """The end-to-end latency digest, or ``None`` if no open-loop
        batch has fully acked for this topology."""
        return self._e2e_digests.get(topology_id)

    def merged_e2e_digest(
        self, topology_ids: List[str]
    ) -> Optional[TailDigest]:
        """One digest over the end-to-end latencies of several
        topologies (per-tenant tail rollups), or ``None`` when none of
        them has acked an open-loop batch.  Sources are not mutated."""
        digests = [
            digest
            for digest in (self._e2e_digests.get(t) for t in topology_ids)
            if digest is not None
        ]
        if not digests:
            return None
        return TailDigest.merged(digests)

    def crash_total(self, topology_id: str) -> int:
        return sum(
            count
            for (topo, _), count in self._crashes.items()
            if topo == topology_id
        )

    def crashes_by_component(self, topology_id: str) -> Dict[str, int]:
        return {
            comp: count
            for (topo, comp), count in self._crashes.items()
            if topo == topology_id
        }

    def shed_total(self, topology_id: str) -> int:
        return self._shed_totals.get(topology_id, 0)

    def shed_batches(self, topology_id: str) -> int:
        return self._shed_batches.get(topology_id, 0)

    def shed_by_stage(self, topology_id: str) -> Dict[str, int]:
        return {
            stage: tuples
            for (topo, stage), tuples in sorted(self._shed_stages.items())
            if topo == topology_id
        }

    def shed_by_component(self, topology_id: str) -> Dict[str, int]:
        return {
            comp: tuples
            for (topo, comp), tuples in sorted(self._shed_components.items())
            if topo == topology_id
        }

    def shed_snapshot(self) -> Dict[Tuple[str, str], int]:
        """Copy of per-(topology, component) shed-tuple totals — the
        elastic controller diffs consecutive snapshots to recover the
        demand the shedding policy hid from the backlog signal."""
        return dict(self._shed_components)

    def shed_series(
        self, topology_id: str, duration_s: float
    ) -> List[Tuple[float, int]]:
        """(window_start_s, shed tuples) for every window — alongside
        :meth:`offered_series` this is the achieved-vs-offered picture
        under overload protection."""
        num_windows = int(math.ceil(duration_s / self.window_s))
        return [
            (w * self.window_s, self._shed_windows.get((topology_id, w), 0))
            for w in range(num_windows)
        ]

    def credit_stalls(self, topology_id: str) -> Dict[Tuple[str, str], int]:
        """Per-edge stall counts: (producer, consumer) -> stalls."""
        return {
            (producer, consumer): count
            for (topo, producer, consumer), count in sorted(
                self._credit_stalls.items()
            )
            if topo == topology_id
        }

    def credit_stall_total(self, topology_id: str) -> int:
        return sum(
            count
            for (topo, _, _), count in self._credit_stalls.items()
            if topo == topology_id
        )

    def spout_throttled_s(self, topology_id: str) -> float:
        return self._spout_throttled.get(topology_id, 0.0)

    def topologies_seen(self) -> List[str]:
        seen = set(self._sink_totals) | set(self._emitted)
        return sorted(seen)
