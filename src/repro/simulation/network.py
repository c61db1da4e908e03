"""Network transfer model for the simulator.

Transfers pay (a) a locality-dependent latency and (b) serialisation
through shared links: the sender's NIC, the receiver's NIC, and — for
cross-rack traffic — the aggregated inter-rack uplink.  Intra-node
communication (intra/inter-process) is an in-memory hand-off: latency
only, no link occupancy.

The model is a store-and-forward pipeline: a transfer holds the sender
NIC, then the uplink, then the receiver NIC, each for that link's own
serialisation time.  Remote traffic therefore costs real, contended
bandwidth at every hop, while local traffic is nearly free — the property
the paper's evaluation depends on.
"""

from __future__ import annotations

import random
from typing import Dict, FrozenSet, Optional, Tuple

from repro.cluster.cluster import Cluster
from repro.cluster.network import DistanceLevel

__all__ = ["TransferModel"]

#: Hot-path aliases (module-global loads beat enum attribute lookups).
_INTER_NODE = DistanceLevel.INTER_NODE
_INTER_RACK = DistanceLevel.INTER_RACK


class TransferModel:
    """Tracks link occupancy and computes batch arrival times.

    The per-level latency and bandwidth figures are immutable for the
    lifetime of a run, so they are precomputed into flat lists indexed
    by :class:`DistanceLevel` (an ``IntEnum``) — the transfer hot path
    does no topography method calls.  The cached values feed *exactly*
    the same float expressions as before, keeping arrival times
    bit-identical to the unoptimised model.
    """

    __slots__ = (
        "cluster",
        "interrack_uplink_mbps",
        "_nic_tx_free",
        "_nic_rx_free",
        "_uplink_free",
        "_uplink_scale",
        "latency_s",
        "_bw_scaled",
        "_uplink_bw_scaled",
        "_rack_of",
        "_link_loss",
        "lossy",
    )

    def __init__(self, cluster: Cluster, interrack_uplink_mbps: Optional[float] = None):
        """
        Args:
            cluster: Supplies the topography (latency/bandwidth per level).
            interrack_uplink_mbps: Aggregate capacity of the shared link
                between any rack pair.  Defaults to 10x the per-node NIC
                bandwidth — a switched fabric whose trunk is faster than
                any single host, as in the paper's Emulab VLANs (the 4 ms
                RTT there is emulated delay, not a thin pipe).
        """
        self.cluster = cluster
        topo = cluster.topography
        inter_rack_bw = topo.bandwidth_mbps(DistanceLevel.INTER_RACK)
        if interrack_uplink_mbps is not None:
            self.interrack_uplink_mbps = interrack_uplink_mbps
        elif inter_rack_bw is not None:
            self.interrack_uplink_mbps = 10.0 * inter_rack_bw
        else:
            self.interrack_uplink_mbps = None
        self._nic_tx_free: Dict[str, float] = {}
        self._nic_rx_free: Dict[str, float] = {}
        self._uplink_free: Dict[FrozenSet[str], float] = {}
        #: rack-pair -> bandwidth multiplier from injected link faults
        #: (1.0 = healthy, 0.1 = the trunk lost 90% of its capacity).
        self._uplink_scale: Dict[FrozenSet[str], float] = {}
        #: per-level one-way latency in seconds, indexed by DistanceLevel
        #: (read-only; the runtime adds it inline for intra-node hops).
        self.latency_s = [topo.latency_ms(level) / 1e3 for level in DistanceLevel]
        #: per-level NIC bandwidth pre-scaled to bits/s (0.0 = unlimited),
        #: so serialisation stays ``(bytes * 8.0) / bw_scaled`` verbatim.
        self._bw_scaled = [
            bw * 1e6 if (bw := topo.bandwidth_mbps(level)) and bw > 0 else 0.0
            for level in DistanceLevel
        ]
        uplink = self.interrack_uplink_mbps
        self._uplink_bw_scaled = uplink * 1e6 if uplink and uplink > 0 else 0.0
        #: node id -> rack id, filled lazily (nodes may join mid-run).
        self._rack_of: Dict[str, str] = {}
        #: rack-pair -> (drop probability, duplicate probability, rng)
        #: from injected message-loss faults; empty on healthy links.
        self._link_loss: Dict[
            FrozenSet[str], Tuple[float, float, random.Random]
        ] = {}
        #: hot-path flag: the runtime consults per-delivery fates only
        #: while at least one lossy link is configured, so healthy runs
        #: pay a single falsy check per routed batch.
        self.lossy = False

    # -- fault injection -----------------------------------------------------

    def set_uplink_scale(self, rack_a: str, rack_b: str, scale: float) -> None:
        """Scale the effective bandwidth of one rack pair's uplink.

        ``scale`` multiplies the healthy uplink capacity: values below 1
        model a degraded trunk, 1.0 restores it.  Only future transfers
        are affected; bytes already serialising keep their booked times.
        """
        if scale <= 0:
            raise ValueError(f"uplink scale must be positive, got {scale}")
        key = frozenset((rack_a, rack_b))
        if scale == 1.0:
            self._uplink_scale.pop(key, None)
        else:
            self._uplink_scale[key] = scale

    def uplink_scale(self, rack_a: str, rack_b: str) -> float:
        return self._uplink_scale.get(frozenset((rack_a, rack_b)), 1.0)

    def set_link_loss(
        self,
        rack_a: str,
        rack_b: str,
        drop_probability: float,
        duplicate_probability: float = 0.0,
        rng: Optional[random.Random] = None,
    ) -> None:
        """Make the rack-pair trunk lossy (and/or duplicating).

        Each batch crossing the link is independently dropped with
        ``drop_probability`` or — if it survives — duplicated with
        ``duplicate_probability``.  Fates are drawn from ``rng``, which
        the caller seeds; the DES books transfers in simulation-time
        order, so a fixed seed gives a byte-identical fate sequence.
        Passing both probabilities as 0 heals the link.
        """
        if not 0.0 <= drop_probability < 1.0:
            raise ValueError(
                f"drop probability must be in [0, 1), got {drop_probability}"
            )
        if not 0.0 <= duplicate_probability < 1.0:
            raise ValueError(
                "duplicate probability must be in [0, 1), got "
                f"{duplicate_probability}"
            )
        key = frozenset((rack_a, rack_b))
        if drop_probability == 0.0 and duplicate_probability == 0.0:
            self._link_loss.pop(key, None)
        else:
            self._link_loss[key] = (
                drop_probability,
                duplicate_probability,
                rng if rng is not None else random.Random(0),
            )
        self.lossy = bool(self._link_loss)

    def clear_link_loss(self, rack_a: str, rack_b: str) -> None:
        """Heal a lossy link (idempotent)."""
        self._link_loss.pop(frozenset((rack_a, rack_b)), None)
        self.lossy = bool(self._link_loss)

    def copies(self, src_node: str, dst_node: str, level: DistanceLevel) -> int:
        """Delivery fate of one batch: 0 = lost, 1 = delivered, 2 =
        delivered twice (duplicated).  Only inter-rack transfers over a
        configured lossy link can lose or duplicate; everything else is
        exactly-once at the network layer."""
        if level is not DistanceLevel.INTER_RACK or not self._link_loss:
            return 1
        rack_of = self._rack_of
        rack_a = rack_of.get(src_node)
        if rack_a is None:
            rack_a = rack_of[src_node] = self.cluster.node(src_node).rack_id
        rack_b = rack_of.get(dst_node)
        if rack_b is None:
            rack_b = rack_of[dst_node] = self.cluster.node(dst_node).rack_id
        entry = self._link_loss.get(frozenset((rack_a, rack_b)))
        if entry is None:
            return 1
        drop_p, dup_p, rng = entry
        if drop_p and rng.random() < drop_p:
            return 0
        if dup_p and rng.random() < dup_p:
            return 2
        return 1

    # -- main API ------------------------------------------------------------

    def transfer(
        self,
        now: float,
        src_node: str,
        dst_node: str,
        level: DistanceLevel,
        num_bytes: int,
    ) -> float:
        """Book a transfer and return its arrival time.

        Mutates link free-times, so calls must be made in simulation-time
        order (which the DES guarantees).
        """
        latency_s = self.latency_s[level]
        if level < _INTER_NODE:
            # intra/inter-process: in-memory hand-off, latency only.
            return now + latency_s

        bw_scaled = self._bw_scaled[level]
        nic_duration = (num_bytes * 8.0) / bw_scaled if bw_scaled else 0.0

        # Store-and-forward pipeline: the sender NIC, the (cross-rack)
        # uplink and the receiver NIC are held one after another, each for
        # its own serialisation time, so a fat uplink genuinely carries
        # more aggregate traffic than one NIC.
        tx_free = self._nic_tx_free.get(src_node, 0.0)
        start_tx = now if now >= tx_free else tx_free
        end_tx = start_tx + nic_duration
        self._nic_tx_free[src_node] = end_tx

        end_hop = end_tx
        if level is _INTER_RACK:
            rack_of = self._rack_of
            rack_a = rack_of.get(src_node)
            if rack_a is None:
                rack_a = rack_of[src_node] = self.cluster.node(src_node).rack_id
            rack_b = rack_of.get(dst_node)
            if rack_b is None:
                rack_b = rack_of[dst_node] = self.cluster.node(dst_node).rack_id
            uplink_key = frozenset((rack_a, rack_b))
            scale = self._uplink_scale.get(uplink_key)
            if scale is None:
                up_scaled = self._uplink_bw_scaled
            elif self.interrack_uplink_mbps is not None:
                # rare fault-injected path: keep the historical float
                # expression ((mbps * scale) * 1e6) bit-for-bit.
                up_scaled = (self.interrack_uplink_mbps * scale) * 1e6
            else:
                up_scaled = 0.0
            uplink_duration = (num_bytes * 8.0) / up_scaled if up_scaled else 0.0
            up_free = self._uplink_free.get(uplink_key, 0.0)
            start_up = end_tx if end_tx >= up_free else up_free
            end_hop = start_up + uplink_duration
            self._uplink_free[uplink_key] = end_hop

        rx_free = self._nic_rx_free.get(dst_node, 0.0)
        start_rx = end_hop if end_hop >= rx_free else rx_free
        end_rx = start_rx + nic_duration
        self._nic_rx_free[dst_node] = end_rx
        return end_rx + latency_s

    # -- introspection ---------------------------------------------------------

    def nic_tx_free_at(self, node_id: str) -> float:
        return self._nic_tx_free.get(node_id, 0.0)

    def uplink_free_at(self, rack_a: str, rack_b: str) -> float:
        return self._uplink_free.get(frozenset((rack_a, rack_b)), 0.0)
