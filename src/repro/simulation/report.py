"""Simulation reports — derived metric views.

Reads the counter dicts of a
:class:`~repro.simulation.metrics.StatisticServer` and derives the
aggregations the paper reports: average throughput per 10-second window
(post-warmup), throughput time series, and average CPU utilisation over
the machines a topology actually uses (Figure 10's metric).  Every read
is ``.get(key, default)`` or an iteration: indexing a counter
``defaultdict`` would insert the key, and the elastic controller
snapshots those dicts live.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.simulation.config import SimulationConfig
from repro.simulation.metrics import StatisticServer
from repro.traffic.percentiles import TailDigest

__all__ = ["SimulationReport", "LatencyStats", "TailLatency"]


@dataclass(frozen=True)
class LatencyStats:
    """Ack (complete) latency summary in seconds."""

    count: int
    mean: float
    p50: float
    p99: float

    @classmethod
    def from_samples(cls, samples: Sequence[float]) -> "LatencyStats":
        if not samples:
            return cls(count=0, mean=0.0, p50=0.0, p99=0.0)
        ordered = sorted(samples)

        def percentile(p: float) -> float:
            idx = min(len(ordered) - 1, max(0, int(math.ceil(p * len(ordered))) - 1))
            return ordered[idx]

        return cls(
            count=len(ordered),
            mean=sum(ordered) / len(ordered),
            p50=percentile(0.50),
            p99=percentile(0.99),
        )


@dataclass(frozen=True)
class TailLatency:
    """End-to-end (arrival -> full ack) latency summary in seconds,
    estimated from a bounded-memory :class:`TailDigest` — the open-loop
    metric the mean hides: past saturation p999 explodes first."""

    count: int
    mean: float
    p50: float
    p99: float
    p999: float

    @classmethod
    def from_digest(cls, digest: Optional[TailDigest]) -> "TailLatency":
        if digest is None or digest.count == 0:
            return cls(count=0, mean=0.0, p50=0.0, p99=0.0, p999=0.0)
        return cls(
            count=digest.count,
            mean=digest.mean(),
            p50=digest.quantile(0.50),
            p99=digest.quantile(0.99),
            p999=digest.quantile(0.999),
        )


@dataclass
class SimulationReport:
    """Metrics view over one finished (or in-progress) simulation."""

    config: SimulationConfig
    stats: StatisticServer
    duration_s: float
    topology_ids: List[str]
    nodes_used: Dict[str, Tuple[str, ...]]
    node_cores: Dict[str, int]
    events_processed: int = 0

    # -- shared views ---------------------------------------------------------

    def _series(
        self, windows: Dict[Tuple[str, int], int], topology_id: str
    ) -> List[Tuple[float, int]]:
        """(window_start_s, count) from a ``(topology, window_index)``
        counter for every window in the run, including empty windows."""
        window_s = self.stats.window_s
        return [
            (w * window_s, windows.get((topology_id, w), 0))
            for w in range(int(math.ceil(self.duration_s / window_s)))
        ]

    def _steady_mean(self, series: List[Tuple[float, int]]) -> float:
        """Mean count per window after warmup, excluding a trailing
        partial window; 0.0 when no window qualifies."""
        values = [
            count
            for start, count in series
            if start >= self.config.warmup_s
            and start + self.config.window_s <= self.duration_s + 1e-9
        ]
        if not values:
            return 0.0
        return sum(values) / len(values)

    # -- throughput -----------------------------------------------------------

    def throughput_series(self, topology_id: str) -> List[Tuple[float, int]]:
        """(window_start_s, sink tuples in window) for the whole run."""
        return self._series(self.stats.sink_windows, topology_id)

    def average_throughput_per_window(self, topology_id: str) -> float:
        """Mean sink tuples per metrics window after warmup — the paper's
        headline number (tuples per 10 seconds)."""
        return self._steady_mean(self.throughput_series(topology_id))

    def average_throughput_tps(self, topology_id: str) -> float:
        """Mean sink tuples per second after warmup."""
        return self.average_throughput_per_window(topology_id) / self.config.window_s

    # -- counters ----------------------------------------------------------------

    def emitted(self, topology_id: str) -> int:
        return self.stats.emitted.get(topology_id, 0)

    def sunk(self, topology_id: str) -> int:
        return self.stats.sink_totals.get(topology_id, 0)

    def failed(self, topology_id: str) -> int:
        return self.stats.failed.get(topology_id, 0)

    def crashes(self, topology_id: str) -> int:
        """Worker crashes from queue overflow during the run."""
        return sum(
            count
            for (topo, _), count in self.stats.crashes.items()
            if topo == topology_id
        )

    # -- delivery semantics (at-least-once layer) ---------------------------------

    def replayed(self, topology_id: str) -> int:
        """Tuples re-emitted by spouts replaying timed-out trees."""
        return self.stats.replayed.get(topology_id, 0)

    def exhausted(self, topology_id: str) -> int:
        """Tuples in trees explicitly given up on after ``max_retries``."""
        return self.stats.exhausted.get(topology_id, 0)

    def lost(self, topology_id: str) -> int:
        """Tuples dropped on the wire by message-loss faults."""
        return self.stats.lost.get(topology_id, 0)

    def duplicated(self, topology_id: str) -> int:
        """Tuples duplicated on the wire by message-loss faults."""
        return self.stats.duplicated.get(topology_id, 0)

    def replay_amplification(self, topology_id: str) -> float:
        """(emitted + replayed) / emitted — 1.0 means no replay traffic;
        the overhead factor at-least-once delivery pays under faults."""
        emitted = self.emitted(topology_id)
        if emitted <= 0:
            return 1.0
        return (emitted + self.replayed(topology_id)) / emitted

    def duplicate_rate(self, topology_id: str) -> float:
        """Wire-duplicated tuples as a fraction of emitted tuples."""
        emitted = self.emitted(topology_id)
        if emitted <= 0:
            return 0.0
        return self.duplicated(topology_id) / emitted

    def effective_throughput_series(
        self, topology_id: str
    ) -> List[Tuple[float, int]]:
        """(window_start_s, tuples in trees acked in window): *effective*
        (acked-exactly-once) throughput, vs the raw sink series that
        counts replays and ghost duplicates twice."""
        return self._series(self.stats.acked_windows, topology_id)

    def effective_throughput_per_window(self, topology_id: str) -> float:
        """Mean acked tuples per window after warmup (trailing partial
        window excluded) — the delivery-layer counterpart of
        :meth:`average_throughput_per_window`."""
        return self._steady_mean(self.effective_throughput_series(topology_id))

    # -- open-loop traffic --------------------------------------------------------

    def offered(self, topology_id: str) -> int:
        """Total tuples the arrival process offered (open loop only)."""
        return self.stats.offered_totals.get(topology_id, 0)

    def arrivals_dropped(self, topology_id: str) -> int:
        """Tuples that arrived while their spout's worker was down."""
        return self.stats.arrivals_dropped.get(topology_id, 0)

    def offered_series(self, topology_id: str) -> List[Tuple[float, int]]:
        """(window_start_s, offered tuples) for the whole run."""
        return self._series(self.stats.offered_windows, topology_id)

    def offered_per_window(self, topology_id: str) -> float:
        """Mean offered tuples per metrics window after warmup
        (trailing partial window excluded) — what the run was asked to
        sustain, vs :meth:`average_throughput_per_window` (what it did)."""
        return self._steady_mean(self.offered_series(topology_id))

    def achieved_ratio(self, topology_id: str) -> float:
        """Steady-state sink throughput over offered load.

        ~1.0 while the placement keeps up; falls below 1.0 past
        saturation (queues absorb the difference until workers crash).
        0.0 when nothing was offered.
        """
        offered = self.offered_per_window(topology_id)
        if offered <= 0:
            return 0.0
        return self.average_throughput_per_window(topology_id) / offered

    def e2e_latency(self, topology_id: str) -> TailLatency:
        """End-to-end (arrival -> full ack) latency percentiles."""
        return TailLatency.from_digest(self.stats.e2e_digests.get(topology_id))

    # -- flow control (backpressure + shedding layer) -----------------------------

    def shed(self, topology_id: str) -> int:
        """Tuples dropped by the shedding policy (ingress + queue)."""
        return self.stats.shed_totals.get(topology_id, 0)

    def shed_by_stage(self, topology_id: str) -> Dict[str, int]:
        """Shed tuples split by stage (``ingress`` vs ``queue``)."""
        return {
            stage: tuples
            for (topo, stage), tuples in sorted(self.stats.shed_stages.items())
            if topo == topology_id
        }

    def shed_rate(self, topology_id: str) -> float:
        """Shed tuples as a fraction of demand.

        Demand is offered load on open-loop runs; on closed-loop runs
        it is emitted + shed (the traffic the spouts tried to move).
        0.0 when nothing was demanded.
        """
        shed = self.shed(topology_id)
        offered = self.offered(topology_id)
        if offered > 0:
            return shed / offered
        demand = self.emitted(topology_id) + shed
        if demand <= 0:
            return 0.0
        return shed / demand

    def shed_series(self, topology_id: str) -> List[Tuple[float, int]]:
        """(window_start_s, shed tuples) for the whole run."""
        return self._series(self.stats.shed_windows, topology_id)

    def spout_throttled_s(self, topology_id: str) -> float:
        """Total seconds the topology's spouts spent backpressure-paused."""
        return self.stats.spout_throttled.get(topology_id, 0.0)

    def credit_stalls(self, topology_id: str) -> Dict[Tuple[str, str], int]:
        """Per-edge stall counts: (producer, consumer) -> stalls."""
        return {
            (producer, consumer): count
            for (topo, producer, consumer), count in sorted(
                self.stats.credit_stalls.items()
            )
            if topo == topology_id
        }

    def credit_stall_total(self, topology_id: str) -> int:
        """Total high-watermark stall transitions across all edges."""
        return sum(self.credit_stalls(topology_id).values())

    # -- multi-tenant rollups -----------------------------------------------------

    def tenant_e2e_latency(self, topology_ids: Sequence[str]) -> TailLatency:
        """Tail latency over several topologies' merged digests — a
        tenant's p99 is over *all* its traffic, not the mean of
        per-topology percentiles.  Source digests are not mutated."""
        digests = [
            digest
            for digest in map(self.stats.e2e_digests.get, topology_ids)
            if digest is not None
        ]
        return TailLatency.from_digest(
            TailDigest.merged(digests) if digests else None
        )

    def tenant_summary(
        self, tenant_of: Dict[str, str]
    ) -> Dict[str, Dict[str, float]]:
        """Per-tenant headline numbers from a topology->tenant mapping.

        Only topologies present in this run contribute; tenants whose
        every topology was deferred appear with zero counters so SLO
        attainment can still be reported against them.
        """
        members: Dict[str, List[str]] = {}
        for topology_id, tenant_id in tenant_of.items():
            members.setdefault(tenant_id, [])
            if topology_id in self.topology_ids:
                members[tenant_id].append(topology_id)
        out: Dict[str, Dict[str, float]] = {}
        for tenant_id in sorted(members):
            ids = sorted(members[tenant_id])
            offered = sum(self.offered_per_window(t) for t in ids)
            achieved = sum(
                self.average_throughput_per_window(t) for t in ids
            )
            latency = self.tenant_e2e_latency(ids)
            out[tenant_id] = {
                "topologies": float(len(ids)),
                "offered_tuples_per_window": round(offered, 1),
                "achieved_tuples_per_window": round(achieved, 1),
                "achieved_ratio": round(achieved / offered, 4)
                if offered > 0
                else 0.0,
                "e2e_p50_ms": round(latency.p50 * 1e3, 3),
                "e2e_p99_ms": round(latency.p99 * 1e3, 3),
            }
        return out

    # -- CPU utilisation -----------------------------------------------------------

    def cpu_utilisation(self, node_id: str) -> float:
        """Busy core-seconds over available core-seconds for one node."""
        cores = self.node_cores.get(node_id, 1)
        denom = self.duration_s * cores
        if denom <= 0:
            return 0.0
        return self.stats.busy.get(node_id, 0.0) / denom

    def mean_cpu_utilisation(
        self, node_ids: Optional[Sequence[str]] = None
    ) -> float:
        """Average CPU utilisation over ``node_ids``.

        Defaults to every node used by any topology in the run — "the
        machines used in the cluster", Figure 10's population.
        """
        if node_ids is None:
            used = set()
            for nodes in self.nodes_used.values():
                used.update(nodes)
            node_ids = sorted(used)
        if not node_ids:
            return 0.0
        return sum(self.cpu_utilisation(n) for n in node_ids) / len(node_ids)

    def topology_cpu_utilisation(self, topology_id: str) -> float:
        """Mean CPU utilisation over the nodes hosting ``topology_id``."""
        return self.mean_cpu_utilisation(self.nodes_used.get(topology_id, ()))

    # -- latency ------------------------------------------------------------------

    def ack_latency(self, topology_id: str) -> LatencyStats:
        return LatencyStats.from_samples(
            self.stats.ack_samples.get(topology_id, ())
        )

    # -- summary ----------------------------------------------------------------------

    def is_empty(self, topology_id: str) -> bool:
        """True when the topology moved no tuples at all this run.

        Percentile and rate rows are meaningless on a zero-tuple run —
        instead of reporting p50=0ms (which reads as "instant"), the
        summary carries an explicit ``empty`` marker.
        """
        return (
            self.emitted(topology_id) == 0
            and self.sunk(topology_id) == 0
            and self.offered(topology_id) == 0
        )

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per-topology headline numbers, ready for printing."""
        out: Dict[str, Dict[str, float]] = {}
        for topo_id in self.topology_ids:
            out[topo_id] = {
                "avg_tuples_per_window": round(
                    self.average_throughput_per_window(topo_id), 1
                ),
                "avg_tuples_per_s": round(self.average_throughput_tps(topo_id), 1),
                "emitted": float(self.emitted(topo_id)),
                "sunk": float(self.sunk(topo_id)),
                "failed": float(self.failed(topo_id)),
                "nodes_used": float(len(self.nodes_used.get(topo_id, ()))),
                "mean_cpu_utilisation": round(
                    self.topology_cpu_utilisation(topo_id), 4
                ),
                "ack_p50_ms": round(self.ack_latency(topo_id).p50 * 1e3, 3),
                "worker_crashes": float(self.crashes(topo_id)),
            }
            if self.config.at_least_once:
                # Delivery-semantics keys only appear when the layer is
                # on, keeping default summaries byte-identical.
                out[topo_id].update(
                    {
                        "effective_tuples_per_window": round(
                            self.effective_throughput_per_window(topo_id), 1
                        ),
                        "replayed": float(self.replayed(topo_id)),
                        "exhausted": float(self.exhausted(topo_id)),
                        "lost": float(self.lost(topo_id)),
                        "duplicated": float(self.duplicated(topo_id)),
                        "replay_amplification": round(
                            self.replay_amplification(topo_id), 4
                        ),
                        "duplicate_rate": round(
                            self.duplicate_rate(topo_id), 4
                        ),
                    }
                )
            if self.config.arrival_process is not None:
                # Traffic keys only appear on open-loop runs, keeping
                # default summaries byte-identical.
                latency = self.e2e_latency(topo_id)
                out[topo_id].update(
                    {
                        "offered": float(self.offered(topo_id)),
                        "offered_tuples_per_window": round(
                            self.offered_per_window(topo_id), 1
                        ),
                        "achieved_ratio": round(
                            self.achieved_ratio(topo_id), 4
                        ),
                        "arrivals_dropped": float(
                            self.arrivals_dropped(topo_id)
                        ),
                        "e2e_p50_ms": round(latency.p50 * 1e3, 3),
                        "e2e_p99_ms": round(latency.p99 * 1e3, 3),
                        "e2e_p999_ms": round(latency.p999 * 1e3, 3),
                    }
                )
            if self.config.flow is not None:
                # Flow-control keys only appear when the backpressure
                # layer is on, keeping default summaries byte-identical.
                out[topo_id].update(
                    {
                        "shed": float(self.shed(topo_id)),
                        "shed_rate": round(self.shed_rate(topo_id), 4),
                        "spout_throttled_s": round(
                            self.spout_throttled_s(topo_id), 3
                        ),
                        "credit_stalls": float(
                            self.credit_stall_total(topo_id)
                        ),
                    }
                )
            if self.is_empty(topo_id):
                # Explicit marker: latency/rate rows above are
                # placeholders, not measurements (zero-tuple run).
                out[topo_id]["empty"] = 1.0
        return out
