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

Link state lives in small mutable cells, each holding the time its link
is next free: one per node for the NIC's transmit side, one per node for
its receive side, and one per rack pair for the uplink, which also holds
the uplink's current bandwidth.  A remote transfer's path
(:meth:`TransferModel.path`) is the cells it crosses plus its NIC
bandwidth and latency, resolved once per node pair and level; the
runtime resolves each route's paths once per placement and books every
batch with :meth:`TransferModel.send`.  Paths share their cells, so two
paths through one NIC or one rack-pair uplink contend on it exactly as
if each transfer looked its links up afresh.
"""

from __future__ import annotations

import math
import random
from typing import Dict, FrozenSet, Optional, Tuple

from repro.cluster.cluster import Cluster
from repro.cluster.network import DistanceLevel

__all__ = ["NetworkPath", "TransferModel"]


class _Link:
    """One link's booking state: the time it is next free.  Only a rack
    pair's uplink cell uses ``scale`` (its bandwidth multiplier from
    injected link faults) and ``bw_scaled`` (its current bandwidth in
    bits/s, 0.0 = unlimited)."""

    __slots__ = ("free_at", "scale", "bw_scaled")

    def __init__(self, bw_scaled: float = 0.0):
        self.free_at = 0.0
        self.scale = 1.0
        self.bw_scaled = bw_scaled


#: A remote transfer's route: (sender NIC tx cell, uplink cell or None,
#: receiver NIC rx cell, NIC bandwidth in bits/s, latency in seconds).
NetworkPath = Tuple[_Link, Optional[_Link], _Link, float, float]


class TransferModel:
    """Tracks link occupancy and computes batch arrival times.

    The per-level latency and bandwidth figures are immutable for the
    lifetime of a run, so they are precomputed into flat lists indexed
    by :class:`DistanceLevel` (an ``IntEnum``).  A node pair's path is
    resolved once, so booking a batch on it (:meth:`send`) does no
    lookup at all.  The cached values feed *exactly* the same float
    expressions as before, keeping arrival times bit-identical to the
    unoptimised model.
    """

    __slots__ = (
        "cluster",
        "interrack_uplink_mbps",
        "latency_s",
        "_bw_scaled",
        "_uplink_bw_scaled",
        "_nic_tx",
        "_nic_rx",
        "_uplinks",
        "_paths",
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
        #: node id -> its NIC's transmit and receive cells; rack pair ->
        #: its uplink cell.  All are made on first use (nodes may join
        #: mid-run) and shared by every path through them.
        self._nic_tx: Dict[str, _Link] = {}
        self._nic_rx: Dict[str, _Link] = {}
        self._uplinks: Dict[FrozenSet[str], _Link] = {}
        #: (source node, destination node, level) -> path, made on first use.
        self._paths: Dict[Tuple[str, str, DistanceLevel], NetworkPath] = {}
        #: node id -> rack id, filled lazily.
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

    def _rack(self, node_id: str) -> str:
        rack = self._rack_of.get(node_id)
        if rack is None:
            rack = self._rack_of[node_id] = self.cluster.node(node_id).rack_id
        return rack

    def _uplink(self, rack_a: str, rack_b: str) -> _Link:
        key = frozenset((rack_a, rack_b))
        link = self._uplinks.get(key)
        if link is None:
            link = self._uplinks[key] = _Link(self._uplink_bw_scaled)
        return link

    # -- fault injection -----------------------------------------------------

    def set_uplink_scale(self, rack_a: str, rack_b: str, scale: float) -> None:
        """Scale the effective bandwidth of one rack pair's uplink.

        ``scale`` multiplies the healthy uplink capacity: values below 1
        model a degraded trunk, 1.0 restores it.  Only future transfers
        are affected; bytes already serialising keep their booked times.
        """
        if not (math.isfinite(scale) and scale > 0):
            raise ValueError(
                f"uplink scale must be positive and finite, got {scale}"
            )
        link = self._uplink(rack_a, rack_b)
        link.scale = scale
        if scale == 1.0:
            link.bw_scaled = self._uplink_bw_scaled
        elif self.interrack_uplink_mbps is not None:
            # keep the historical float expression ((mbps * scale) * 1e6)
            # bit-for-bit.
            link.bw_scaled = (self.interrack_uplink_mbps * scale) * 1e6
        else:
            link.bw_scaled = 0.0

    def uplink_scale(self, rack_a: str, rack_b: str) -> float:
        link = self._uplinks.get(frozenset((rack_a, rack_b)))
        return 1.0 if link is None else link.scale

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
        entry = self._link_loss.get(
            frozenset((self._rack(src_node), self._rack(dst_node)))
        )
        if entry is None:
            return 1
        drop_p, dup_p, rng = entry
        if drop_p and rng.random() < drop_p:
            return 0
        if dup_p and rng.random() < dup_p:
            return 2
        return 1

    # -- main API ------------------------------------------------------------

    def path(
        self, src_node: str, dst_node: str, level: DistanceLevel
    ) -> NetworkPath:
        """The path of a remote (``INTER_NODE`` or ``INTER_RACK``)
        transfer from ``src_node`` to ``dst_node``: the cells it holds
        and its NIC bandwidth and latency.  Resolved on first use and
        memoised; a placement fixes its paths, so the runtime resolves
        each route's once per placement."""
        key = (src_node, dst_node, level)
        path = self._paths.get(key)
        if path is None:
            uplink = None
            if level is DistanceLevel.INTER_RACK:
                uplink = self._uplink(self._rack(src_node), self._rack(dst_node))
            path = self._paths[key] = (
                self._nic_tx.setdefault(src_node, _Link()),
                uplink,
                self._nic_rx.setdefault(dst_node, _Link()),
                self._bw_scaled[level],
                self.latency_s[level],
            )
        return path

    def send(self, path: NetworkPath, now: float, num_bytes: int) -> float:
        """Book a batch of ``num_bytes`` on a remote ``path`` and return
        its arrival time.

        Mutates link free-times, so calls must be made in simulation-time
        order (which the DES guarantees).
        """
        tx, uplink, rx, bw_scaled, latency_s = path
        nic_duration = (num_bytes * 8.0) / bw_scaled if bw_scaled else 0.0

        # Store-and-forward pipeline: the sender NIC, the (cross-rack)
        # uplink and the receiver NIC are held one after another, each for
        # its own serialisation time, so a fat uplink genuinely carries
        # more aggregate traffic than one NIC.
        tx_free = tx.free_at
        start_tx = now if now >= tx_free else tx_free
        end_tx = start_tx + nic_duration
        tx.free_at = end_tx

        end_hop = end_tx
        if uplink is not None:
            up_scaled = uplink.bw_scaled
            uplink_duration = (num_bytes * 8.0) / up_scaled if up_scaled else 0.0
            up_free = uplink.free_at
            start_up = end_tx if end_tx >= up_free else up_free
            end_hop = start_up + uplink_duration
            uplink.free_at = end_hop

        rx_free = rx.free_at
        start_rx = end_hop if end_hop >= rx_free else rx_free
        end_rx = start_rx + nic_duration
        rx.free_at = end_rx
        return end_rx + latency_s

    def transfer(
        self,
        now: float,
        src_node: str,
        dst_node: str,
        level: DistanceLevel,
        num_bytes: int,
    ) -> float:
        """Book a transfer and return its arrival time (see :meth:`send`)."""
        if level < DistanceLevel.INTER_NODE:
            # intra/inter-process: in-memory hand-off, latency only.
            return now + self.latency_s[level]
        return self.send(self.path(src_node, dst_node, level), now, num_bytes)

    # -- introspection ---------------------------------------------------------

    def nic_tx_free_at(self, node_id: str) -> float:
        link = self._nic_tx.get(node_id)
        return 0.0 if link is None else link.free_at

    def uplink_free_at(self, rack_a: str, rack_b: str) -> float:
        link = self._uplinks.get(frozenset((rack_a, rack_b)))
        return 0.0 if link is None else link.free_at
