"""Tests for the transfer model (NIC/uplink serialisation + latency)."""

import math

import pytest

from repro.cluster import ResourceVector, emulab_testbed
from repro.cluster.builders import uniform_cluster
from repro.cluster.network import (
    DEFAULT_PROFILES,
    DistanceLevel,
    LinkProfile,
    NetworkTopography,
)
from repro.cluster.node import Node
from repro.simulation.network import TransferModel

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402


@pytest.fixture
def model():
    return TransferModel(emulab_testbed())


ONE_MS_BYTES = 12500  # 12500 B * 8 = 0.1 Mb -> 1 ms at 100 Mbps


class TestLocalTransfers:
    def test_intra_process_pays_no_latency(self, model):
        arrival = model.transfer(
            1.0, "node-0-0", "node-0-0", DistanceLevel.INTRA_PROCESS, 10**6
        )
        assert arrival == 1.0

    def test_inter_process_pays_latency_only(self, model):
        arrival = model.transfer(
            1.0, "node-0-0", "node-0-0", DistanceLevel.INTER_PROCESS, 10**6
        )
        assert arrival == pytest.approx(1.0 + 0.05e-3)

    def test_local_transfers_do_not_occupy_nic(self, model):
        model.transfer(
            1.0, "node-0-0", "node-0-0", DistanceLevel.INTER_PROCESS, 10**6
        )
        assert model.nic_tx_free_at("node-0-0") == 0.0


class TestRemoteTransfers:
    def test_inter_node_serialisation_plus_latency(self, model):
        # store-and-forward: 1 ms on the sender NIC, 1 ms on the receiver
        # NIC, plus the 0.5 ms in-rack latency
        arrival = model.transfer(
            0.0, "node-0-0", "node-0-1", DistanceLevel.INTER_NODE, ONE_MS_BYTES
        )
        assert arrival == pytest.approx(0.001 + 0.001 + 0.5e-3)

    def test_sender_nic_serialises_transfers(self, model):
        first = model.transfer(
            0.0, "node-0-0", "node-0-1", DistanceLevel.INTER_NODE, ONE_MS_BYTES
        )
        second = model.transfer(
            0.0, "node-0-0", "node-0-2", DistanceLevel.INTER_NODE, ONE_MS_BYTES
        )
        assert second > first  # queued behind the first on the sender NIC

    def test_receiver_nic_serialises_transfers(self, model):
        first = model.transfer(
            0.0, "node-0-1", "node-0-0", DistanceLevel.INTER_NODE, ONE_MS_BYTES
        )
        second = model.transfer(
            0.0, "node-0-2", "node-0-0", DistanceLevel.INTER_NODE, ONE_MS_BYTES
        )
        assert second > first

    def test_disjoint_pairs_do_not_contend(self, model):
        a = model.transfer(
            0.0, "node-0-0", "node-0-1", DistanceLevel.INTER_NODE, ONE_MS_BYTES
        )
        b = model.transfer(
            0.0, "node-0-2", "node-0-3", DistanceLevel.INTER_NODE, ONE_MS_BYTES
        )
        assert a == b


class TestInterRack:
    def test_inter_rack_pays_higher_latency(self, model):
        local = model.transfer(
            0.0, "node-0-0", "node-0-1", DistanceLevel.INTER_NODE, 1
        )
        model2 = TransferModel(emulab_testbed())
        remote = model2.transfer(
            0.0, "node-0-0", "node-1-0", DistanceLevel.INTER_RACK, 1
        )
        assert remote > local

    def test_uplink_shared_across_rack_pairs(self):
        cluster = emulab_testbed()
        model = TransferModel(cluster, interrack_uplink_mbps=100.0)
        a = model.transfer(
            0.0, "node-0-0", "node-1-0", DistanceLevel.INTER_RACK, ONE_MS_BYTES
        )
        # a different node pair, same rack pair: contends on the uplink
        b = model.transfer(
            0.0, "node-0-1", "node-1-1", DistanceLevel.INTER_RACK, ONE_MS_BYTES
        )
        assert b > a

    def test_fat_uplink_does_not_bottleneck(self):
        cluster = emulab_testbed()
        thin = TransferModel(cluster, interrack_uplink_mbps=10.0)
        cluster2 = emulab_testbed()
        fat = TransferModel(cluster2, interrack_uplink_mbps=10000.0)
        t_thin = thin.transfer(
            0.0, "node-0-0", "node-1-0", DistanceLevel.INTER_RACK, ONE_MS_BYTES
        )
        t_fat = fat.transfer(
            0.0, "node-0-0", "node-1-0", DistanceLevel.INTER_RACK, ONE_MS_BYTES
        )
        assert t_fat < t_thin

    def test_default_uplink_is_10x_nic(self):
        model = TransferModel(emulab_testbed())
        assert model.interrack_uplink_mbps == 1000.0

    def test_uplink_free_at_tracked(self, model):
        model.transfer(
            0.0, "node-0-0", "node-1-0", DistanceLevel.INTER_RACK, ONE_MS_BYTES
        )
        assert model.uplink_free_at("rack-0", "rack-1") > 0.0
        assert model.uplink_free_at("rack-0", "rack-9") == 0.0


class TestUplinkScale:
    @pytest.mark.parametrize(
        "scale", [0.0, -1.0, float("nan"), float("inf"), float("-inf")]
    )
    def test_rejects_non_positive_or_non_finite_scale(self, model, scale):
        with pytest.raises(ValueError):
            model.set_uplink_scale("rack-0", "rack-1", scale)
        # the rejected call left the uplink healthy
        assert model.uplink_scale("rack-0", "rack-1") == 1.0
        arrival = model.transfer(
            0.0, "node-0-0", "node-1-0", DistanceLevel.INTER_RACK, ONE_MS_BYTES
        )
        assert math.isfinite(arrival)
        assert model.uplink_free_at("rack-0", "rack-1") > 0.0


class ReferenceTransferModel:
    """The transfer model as it stood before each node pair's path was
    resolved once: every transfer looks its links up by node id and rack
    pair.  ``__init__`` keeps the parts of the old one that ``transfer``
    reads; ``set_uplink_scale`` and ``transfer`` are the old bodies
    verbatim.  Do not optimise it: it is the oracle of
    :func:`test_transfer_arithmetic_matches_reference`."""

    def __init__(self, cluster, interrack_uplink_mbps=None):
        self.cluster = cluster
        topo = cluster.topography
        inter_rack_bw = topo.bandwidth_mbps(DistanceLevel.INTER_RACK)
        if interrack_uplink_mbps is not None:
            self.interrack_uplink_mbps = interrack_uplink_mbps
        elif inter_rack_bw is not None:
            self.interrack_uplink_mbps = 10.0 * inter_rack_bw
        else:
            self.interrack_uplink_mbps = None
        self._nic_tx_free = {}
        self._nic_rx_free = {}
        self._uplink_free = {}
        self._uplink_scale = {}
        self.latency_s = [topo.latency_ms(level) / 1e3 for level in DistanceLevel]
        self._bw_scaled = [
            bw * 1e6 if (bw := topo.bandwidth_mbps(level)) and bw > 0 else 0.0
            for level in DistanceLevel
        ]
        uplink = self.interrack_uplink_mbps
        self._uplink_bw_scaled = uplink * 1e6 if uplink and uplink > 0 else 0.0
        self._rack_of = {}

    def set_uplink_scale(self, rack_a: str, rack_b: str, scale: float) -> None:
        if scale <= 0:
            raise ValueError(f"uplink scale must be positive, got {scale}")
        key = frozenset((rack_a, rack_b))
        if scale == 1.0:
            self._uplink_scale.pop(key, None)
        else:
            self._uplink_scale[key] = scale

    def transfer(
        self,
        now: float,
        src_node: str,
        dst_node: str,
        level: DistanceLevel,
        num_bytes: int,
    ) -> float:
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


_INTER_NODE = DistanceLevel.INTER_NODE
_INTER_RACK = DistanceLevel.INTER_RACK

RACK_IDS = ("rack-0", "rack-1", "rack-2", "rack-9")
RACK_PAIRS = [
    (a, b) for i, a in enumerate(RACK_IDS) for b in RACK_IDS[i + 1:]
]
#: topography name -> its profiles; "no-inter-rack-bw" has no inter-rack
#: bandwidth, so with no uplink override the uplink is unlimited and a
#: scaled uplink takes the ``up_scaled = 0.0`` branch.
TOPOGRAPHIES = {
    "emulab": dict(DEFAULT_PROFILES),
    "no-inter-rack-bw": {
        **DEFAULT_PROFILES,
        DistanceLevel.INTER_RACK: LinkProfile(distance=4.0, latency_ms=2.0),
    },
}

#: ("send", time step, source pick, destination pick, level, bytes)
sends = st.tuples(
    st.just("send"),
    st.sampled_from((0.0, 0.0, 1e-4, 3e-3))
    | st.floats(0.0, 0.02, allow_nan=False),
    st.integers(0, 63),
    st.integers(0, 63),
    st.sampled_from(list(DistanceLevel)),
    st.integers(1, 200_000),
)
#: ("scale", rack-pair pick, scale): a degrade, or a restore at 1.0
scales = st.tuples(
    st.just("scale"),
    st.integers(0, len(RACK_PAIRS) - 1),
    st.sampled_from((0.1, 0.25, 0.5, 1.0, 1.0, 3.0)),
)
#: ("join", rack): a node first seen mid-sequence, possibly in a new rack
joins = st.tuples(st.just("join"), st.sampled_from(("rack-0", "rack-9")))


def free_times(model, nodes):
    """Every link's free time, as ``float.hex``, read through the public
    accessors (tx, uplinks) and the receive side's private table."""
    if isinstance(model, ReferenceTransferModel):
        rx = {n: model._nic_rx_free.get(n, 0.0) for n in nodes}
        tx = {n: model._nic_tx_free.get(n, 0.0) for n in nodes}
        scale = {
            pair: model._uplink_scale.get(frozenset(pair), 1.0)
            for pair in RACK_PAIRS
        }
        up = {
            pair: model._uplink_free.get(frozenset(pair), 0.0)
            for pair in RACK_PAIRS
        }
    else:
        rx = {
            n: model._nic_rx[n].free_at if n in model._nic_rx else 0.0
            for n in nodes
        }
        tx = {n: model.nic_tx_free_at(n) for n in nodes}
        scale = {pair: model.uplink_scale(*pair) for pair in RACK_PAIRS}
        up = {pair: model.uplink_free_at(*pair) for pair in RACK_PAIRS}
    return (
        {n: t.hex() for n, t in tx.items()},
        {n: t.hex() for n, t in rx.items()},
        {pair: t.hex() for pair, t in up.items()},
        scale,
    )


@settings(max_examples=150, deadline=None)
@example(
    topography="emulab",
    uplink_mbps=None,
    ops=[
        ("send", 0.0, 0, 3, DistanceLevel.INTER_RACK, 12500),
        ("scale", 0, 0.25),
        ("send", 0.0, 0, 3, DistanceLevel.INTER_RACK, 12500),
        ("scale", 0, 1.0),
        ("send", 0.0, 1, 2, DistanceLevel.INTER_RACK, 12500),
    ],
)
@example(
    topography="no-inter-rack-bw",
    uplink_mbps=None,
    ops=[
        ("send", 0.0, 0, 3, DistanceLevel.INTER_RACK, 12500),
        ("scale", 0, 0.5),
        ("join", "rack-9"),
        ("send", 0.0, 6, 0, DistanceLevel.INTER_RACK, 12500),
        ("send", 0.0, 0, 3, DistanceLevel.INTER_RACK, 12500),
    ],
)
@given(
    topography=st.sampled_from(sorted(TOPOGRAPHIES)),
    uplink_mbps=st.sampled_from((None, 10.0, 1000.0)),
    ops=st.lists(sends | scales | joins, max_size=60),
)
def test_transfer_arithmetic_matches_reference(topography, uplink_mbps, ops):
    """Paths resolved once and booked by ``send`` give every arrival and
    every link free time the old per-transfer lookups gave, bit for bit,
    across all four levels, uplink degrades and restores on pairs that
    cached paths already cross, and nodes that join mid-sequence."""
    cluster = uniform_cluster(
        nodes_per_rack=2,
        racks=3,
        capacity=ResourceVector.of(memory_mb=1024.0, cpu=100.0),
        topography=NetworkTopography(dict(TOPOGRAPHIES[topography])),
    )
    live = TransferModel(cluster, interrack_uplink_mbps=uplink_mbps)
    ref = ReferenceTransferModel(cluster, interrack_uplink_mbps=uplink_mbps)
    nodes = sorted(node.node_id for node in cluster.nodes)
    now = 0.0
    for op in ops:
        if op[0] == "send":
            _, step, src, dst, level, num_bytes = op
            now += step
            src_node, dst_node = nodes[src % len(nodes)], nodes[dst % len(nodes)]
            got = live.transfer(now, src_node, dst_node, level, num_bytes)
            want = ref.transfer(now, src_node, dst_node, level, num_bytes)
            assert got.hex() == want.hex(), op
        elif op[0] == "scale":
            _, pair, scale = op
            live.set_uplink_scale(*RACK_PAIRS[pair], scale)
            ref.set_uplink_scale(*RACK_PAIRS[pair], scale)
        else:
            node = Node(
                node_id=f"node-joined-{len(nodes)}",
                rack_id=op[1],
                capacity=ResourceVector.of(memory_mb=1024.0, cpu=100.0),
            )
            cluster.add_node(node)
            nodes.append(node.node_id)
        assert free_times(live, nodes) == free_times(ref, nodes), op
