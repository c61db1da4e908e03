"""Network distance and latency model.

R-Storm's central insight (Section 4) is a strict ordering of
communication costs in a data-centre deployment:

1. inter-rack communication is the slowest,
2. inter-node (same rack) communication is slow,
3. inter-process (same node) communication is faster,
4. intra-process communication is the fastest.

:class:`NetworkTopography` turns that ordering into numbers: an abstract
*network distance* used by the scheduler's distance function, and a
latency/bandwidth pair per level used by the discrete-event simulator to
model tuple transfer times.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

__all__ = ["DistanceLevel", "LinkProfile", "NetworkTopography"]


class DistanceLevel(enum.IntEnum):
    """Communication locality between two executors, ordered fastest to
    slowest.  The integer values give a total order; the *numeric*
    distance the scheduler minimises comes from the topography."""

    INTRA_PROCESS = 0
    INTER_PROCESS = 1
    INTER_NODE = 2
    INTER_RACK = 3


@dataclass(frozen=True)
class LinkProfile:
    """Physical characteristics of one locality level.

    Attributes:
        distance: Abstract network distance fed into R-Storm's node
            selection (dimensionless; larger = further).
        latency_ms: One-way latency for a message at this level.
        bandwidth_mbps: Effective bandwidth of the constraining link at
            this level; ``None`` means "not network limited" (in-memory
            hand-off between threads or processes on one host).

    Raises:
        ValueError: if ``distance`` or ``latency_ms`` is negative or not
            finite, or ``bandwidth_mbps`` is not ``None`` and not a finite
            positive number.  R-Storm bounds its node keys below by
            ``sqrt(w_net * distance)``, and the simulator schedules every
            delivery at ``now`` plus this latency, so a negative latency
            would move its clock backwards.
    """

    distance: float
    latency_ms: float
    bandwidth_mbps: Optional[float] = None

    def __post_init__(self) -> None:
        if not math.isfinite(self.distance) or self.distance < 0:
            raise ValueError(
                f"distance must be finite and >= 0, got {self.distance}"
            )
        if not math.isfinite(self.latency_ms) or self.latency_ms < 0:
            raise ValueError(
                f"latency_ms must be finite and >= 0, got {self.latency_ms}"
            )
        bandwidth = self.bandwidth_mbps
        if bandwidth is not None and not (
            math.isfinite(bandwidth) and bandwidth > 0
        ):
            raise ValueError(
                "bandwidth_mbps must be None (not limited) or finite and > 0, "
                f"got {bandwidth}"
            )


#: Default profiles modelled on the paper's Emulab testbed: 100 Mbps NICs,
#: a 4 ms inter-rack round trip (2 ms one way), sub-millisecond in-rack
#: latency, and effectively free intra-host communication.
DEFAULT_PROFILES: Dict[DistanceLevel, LinkProfile] = {
    DistanceLevel.INTRA_PROCESS: LinkProfile(
        distance=0.0, latency_ms=0.0, bandwidth_mbps=None
    ),
    DistanceLevel.INTER_PROCESS: LinkProfile(
        distance=0.25, latency_ms=0.05, bandwidth_mbps=None
    ),
    DistanceLevel.INTER_NODE: LinkProfile(
        distance=1.0, latency_ms=0.5, bandwidth_mbps=100.0
    ),
    DistanceLevel.INTER_RACK: LinkProfile(
        distance=4.0, latency_ms=2.0, bandwidth_mbps=100.0
    ),
}


@dataclass
class NetworkTopography:
    """Maps locality levels to distances, latencies and bandwidths.

    The scheduler only consumes :meth:`distance` /
    :meth:`distance_between_nodes`; the simulator also consumes
    :meth:`latency_ms` and :meth:`bandwidth_mbps`.
    """

    profiles: Dict[DistanceLevel, LinkProfile] = field(
        default_factory=lambda: dict(DEFAULT_PROFILES)
    )

    def __post_init__(self) -> None:
        missing = [lvl for lvl in DistanceLevel if lvl not in self.profiles]
        if missing:
            raise ValueError(f"topography missing profiles for {missing}")
        distances = [self.profiles[lvl].distance for lvl in DistanceLevel]
        if any(b < a for a, b in zip(distances, distances[1:])):
            raise ValueError(
                "network distances must be non-decreasing from intra-process "
                f"to inter-rack, got {distances}"
            )

    # -- level classification ---------------------------------------------

    @staticmethod
    def level_between(
        rack_a: str,
        node_a: str,
        slot_a: object,
        rack_b: str,
        node_b: str,
        slot_b: object,
    ) -> DistanceLevel:
        """Classify the locality between two (rack, node, worker-slot)
        placements."""
        if rack_a != rack_b:
            return DistanceLevel.INTER_RACK
        if node_a != node_b:
            return DistanceLevel.INTER_NODE
        if slot_a != slot_b:
            return DistanceLevel.INTER_PROCESS
        return DistanceLevel.INTRA_PROCESS

    # -- lookups -------------------------------------------------------------

    def profile(self, level: DistanceLevel) -> LinkProfile:
        return self.profiles[level]

    def distance(self, level: DistanceLevel) -> float:
        return self.profiles[level].distance

    def latency_ms(self, level: DistanceLevel) -> float:
        return self.profiles[level].latency_ms

    def bandwidth_mbps(self, level: DistanceLevel) -> Optional[float]:
        return self.profiles[level].bandwidth_mbps

    def node_distance(self, rack_a: str, node_a: str, rack_b: str, node_b: str) -> float:
        """Abstract distance between two *nodes* (worker-process locality
        is unknown at node-selection time, so same-node scores as
        intra-process — the best case, which is what the scheduler
        optimistically assumes when packing)."""
        return self.node_distances(rack_b, node_b, [rack_a], [node_a])[0]

    def node_distances(
        self,
        ref_rack: str,
        ref_node: str,
        racks: Sequence[str],
        nodes: Sequence[str],
    ) -> List[float]:
        """:meth:`node_distance` from ``(ref_rack, ref_node)`` to every
        ``(racks[i], nodes[i])``, in one pass over the two columns: a
        different rack is inter-rack, another node in the same rack is
        inter-node, and the node itself is intra-process."""
        inter_rack = self.distance(DistanceLevel.INTER_RACK)
        inter_node = self.distance(DistanceLevel.INTER_NODE)
        same_node = self.distance(DistanceLevel.INTRA_PROCESS)
        return [
            inter_rack if rack != ref_rack
            else inter_node if node != ref_node
            else same_node
            for rack, node in zip(racks, nodes)
        ]
