"""StatisticServer — metrics collection (paper Section 5.1).

Collects, per simulated run:

* windowed sink throughput per topology (the paper reports tuples per
  10-second window),
* spout emission and failure counts,
* per-node busy core-seconds (CPU utilisation, Figure 10),
* batch ack latencies.

The server only records, into the public counter dicts below; every
derived view (totals, series, averages) lives in
:class:`~repro.simulation.report.SimulationReport`.  The dicts are
``defaultdict``\\ s, so readers use ``.get(key, default)``: indexing a
missing key would insert it.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Tuple

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
        self.sink_windows: Dict[Tuple[str, int], int] = defaultdict(int)
        #: topology -> total sink tuples
        self.sink_totals: Dict[str, int] = defaultdict(int)
        #: (topology, component) -> total tuples processed (all bolts)
        self.processed: Dict[Tuple[str, str], int] = defaultdict(int)
        #: topology -> tuples emitted by spouts
        self.emitted: Dict[str, int] = defaultdict(int)
        #: topology -> tuples in timed-out (failed) batches
        self.failed: Dict[str, int] = defaultdict(int)
        #: node -> busy core-seconds
        self.busy: Dict[str, float] = defaultdict(float)
        #: topology -> ack latency samples (seconds)
        self.ack_samples: Dict[str, List[float]] = defaultdict(list)
        #: node -> bytes sent over its NIC
        self.nic_bytes: Dict[str, int] = defaultdict(int)
        #: (topology, component) -> worker crash count (queue overflow)
        self.crashes: Dict[Tuple[str, str], int] = defaultdict(int)
        # -- delivery-semantics counters (at-least-once layer / message
        # -- loss faults); all stay zero on default runs.
        #: topology -> tuples re-emitted by spouts replaying failed trees
        self.replayed: Dict[str, int] = defaultdict(int)
        #: topology -> tuples in trees given up on after max_retries
        self.exhausted: Dict[str, int] = defaultdict(int)
        #: topology -> tuples lost on the wire (message-loss faults)
        self.lost: Dict[str, int] = defaultdict(int)
        #: topology -> tuples duplicated on the wire
        self.duplicated: Dict[str, int] = defaultdict(int)
        #: (topology, window_index) -> tuples in trees acked that window
        #: (effective, acked-once throughput vs the raw sink windows)
        self.acked_windows: Dict[Tuple[str, int], int] = defaultdict(int)
        #: topology -> total tuples in acked trees
        self.acked_totals: Dict[str, int] = defaultdict(int)
        # -- open-loop traffic counters (arrival_process runs only; all
        # -- stay empty on default closed-loop runs).
        #: (topology, window_index) -> tuples offered by arrivals
        self.offered_windows: Dict[Tuple[str, int], int] = defaultdict(int)
        #: topology -> total offered tuples
        self.offered_totals: Dict[str, int] = defaultdict(int)
        #: topology -> tuples that arrived while their spout was down
        self.arrivals_dropped: Dict[str, int] = defaultdict(int)
        #: topology -> end-to-end (arrival -> full ack) latency digest
        self.e2e_digests: Dict[str, TailDigest] = {}
        # -- flow-control counters (config.flow runs only; all stay
        # -- empty/zero on default runs).
        #: topology -> tuples shed by the shedding policy (all stages)
        self.shed_totals: Dict[str, int] = defaultdict(int)
        #: (topology, stage) -> shed tuples (``ingress`` | ``queue``)
        self.shed_stages: Dict[Tuple[str, str], int] = defaultdict(int)
        #: (topology, component) -> shed tuples (elastic demand signal)
        self.shed_components: Dict[Tuple[str, str], int] = defaultdict(int)
        #: (topology, window_index) -> shed tuples (shed-rate series)
        self.shed_windows: Dict[Tuple[str, int], int] = defaultdict(int)
        #: (topology, producer, consumer) -> times the edge stalled
        self.credit_stalls: Dict[Tuple[str, str, str], int] = defaultdict(int)
        #: topology -> seconds spouts spent throttled by backpressure
        self.spout_throttled: Dict[str, float] = defaultdict(float)

    # -- recording ---------------------------------------------------------
    #
    # Window index: int() truncates toward zero == floor for the
    # non-negative simulated times the runtime produces, without the
    # math.floor call in the per-batch sink path.

    def record_sink(
        self, topology_id: str, component: str, time: float, tuples: int
    ) -> None:
        w = int(time / self.window_s)
        self.sink_windows[(topology_id, w)] += tuples
        self.sink_totals[topology_id] += tuples

    def record_emitted(self, topology_id: str, tuples: int) -> None:
        self.emitted[topology_id] += tuples

    def record_failed(self, topology_id: str, tuples: int) -> None:
        self.failed[topology_id] += tuples

    def record_ack(self, topology_id: str, latency_s: float) -> None:
        self.ack_samples[topology_id].append(latency_s)

    def record_crash(self, topology_id: str, component: str) -> None:
        self.crashes[(topology_id, component)] += 1

    def record_replayed(self, topology_id: str, tuples: int) -> None:
        self.replayed[topology_id] += tuples

    def record_exhausted(self, topology_id: str, tuples: int) -> None:
        self.exhausted[topology_id] += tuples

    def record_lost(self, topology_id: str, tuples: int) -> None:
        self.lost[topology_id] += tuples

    def record_duplicate(self, topology_id: str, tuples: int) -> None:
        self.duplicated[topology_id] += tuples

    def record_acked_tuples(
        self, topology_id: str, time: float, tuples: int
    ) -> None:
        w = int(time / self.window_s)
        self.acked_windows[(topology_id, w)] += tuples
        self.acked_totals[topology_id] += tuples

    def record_offered(self, topology_id: str, time: float, tuples: int) -> None:
        w = int(time / self.window_s)
        self.offered_windows[(topology_id, w)] += tuples
        self.offered_totals[topology_id] += tuples

    def record_arrival_dropped(self, topology_id: str, tuples: int) -> None:
        self.arrivals_dropped[topology_id] += tuples

    def record_e2e_latency(self, topology_id: str, latency_s: float) -> None:
        digest = self.e2e_digests.get(topology_id)
        if digest is None:
            digest = self.e2e_digests[topology_id] = TailDigest()
        digest.add(latency_s)

    def record_shed(
        self, topology_id: str, component: str, stage: str, time: float,
        tuples: int,
    ) -> None:
        self.shed_totals[topology_id] += tuples
        self.shed_stages[(topology_id, stage)] += tuples
        self.shed_components[(topology_id, component)] += tuples
        self.shed_windows[(topology_id, int(time / self.window_s))] += tuples

    def record_credit_stall(
        self, topology_id: str, producer: str, consumer: str
    ) -> None:
        self.credit_stalls[(topology_id, producer, consumer)] += 1

    def record_spout_throttle(
        self, topology_id: str, seconds: float
    ) -> None:
        self.spout_throttled[topology_id] += seconds

    def per_batch_counters(
        self,
    ) -> Tuple[Dict[str, float], Dict[Tuple[str, str], int], Dict[str, int]]:
        """The live ``(busy, processed, nic_bytes)`` counter dicts, for
        the runtime's per-batch path to increment directly
        (``busy[node_id] += core_seconds``,
        ``processed[(topology_id, component)] += tuples``,
        ``nic[node_id] += num_bytes``) instead of paying a call each.

        They are ``defaultdict``\\ s owned by this server for its whole
        life, so a caller may hold them.
        """
        return self.busy, self.processed, self.nic_bytes

    def ack_latencies(self, topology_id: str) -> List[float]:
        """A copy of ``topology_id``'s ack latency samples."""
        return list(self.ack_samples.get(topology_id, []))
