"""Bit-exact pins of the closed-loop per-batch path.

Each run is a short Figure 8/9-style linear topology.  In the first
three variants R-Storm places it on the six nodes of rack 0: remote
hops pay serde and intra-process hops skip it, so every branch of the
service-time expression fires.
``network`` is the network-bound variant (Figure 8: NIC-bound, cores
mostly idle); ``compute`` is the compute-bound one (Figure 9: cores
saturated, queues non-empty), where a reordered busy-time accumulation
or a last-bit change in a service time surfaces.  ``flow`` is the
network-bound run with flow control on and two-batch input queues: edge
credits drain as each batch starts service, and producers stall and
resume thousands of times, so a reordered drain or resume surfaces.
``network-cross-rack`` is the network-bound run placed by the default
scheduler, the setup of the ``tuple-routing`` bench probe: its hops
cross the thin inter-rack uplink, so a change to the uplink's
store-and-forward hop surfaces.  Floats are compared through
``float.hex()`` and the ack latencies through a sha256 of their packed
doubles, so drifts that rounded summary rows hide fail here.
"""

import hashlib
import random
import struct
from collections import Counter

import pytest

from repro.cluster import emulab_testbed
from repro.scheduler.default import DefaultScheduler
from repro.scheduler.rstorm import RStormScheduler
from repro.simulation.config import SimulationConfig
from repro.simulation.flowcontrol import FlowControlConfig
from repro.simulation.runtime import SimulationRun
from repro.simulation.tracing import Tracer
from repro.workloads.micro import NETWORK_BOUND_UPLINK_MBPS, micro_topology

#: variant -> values recorded before the per-batch call chain was
#: collapsed (the pre-refactor runtime is the reference); ``flow`` was
#: recorded before the idle-core fast path and direct delivery pushes.
PINS = {
    "network": {
        "events": 81906,
        "busy_hex": {
            "node-0-0": "0x1.384d013a92bc4p+2",
            "node-0-1": "0x1.3839581062670p+2",
            "node-0-2": "0x1.3816f0068dd1ep+2",
            "node-0-3": "0x1.37fb15b57403dp+2",
            "node-0-4": "0x1.37e5c91d14fcep+2",
            "node-0-5": "0x1.37da5119ce208p+2",
        },
        "nic_bytes": {
            "node-0-0": 125004800,
            "node-0-1": 125004800,
            "node-0-2": 124928000,
            "node-0-3": 124902400,
            "node-0-4": 124953600,
            "node-0-5": 124953600,
        },
        "processed": {
            "spout": 0,
            "bolt-1": 1171700,
            "bolt-2": 1169300,
            "bolt-3": 1167500,
        },
        "acks": 11675,
        "ack_sha256": (
            "462518b9bba18f550719030a2bcfddd56ce73c36dee8c92d532fcdd03984c03b"
        ),
        "credit_stalls": {},
        "throttled_hex": "0x0.0p+0",
    },
    "compute": {
        "events": 2327,
        "busy_hex": {
            "node-0-0": "0x1.3eca57a786c20p+3",
            "node-0-1": "0x1.39fcb923a29c4p+3",
            "node-0-2": "0x1.36c8b43958102p+3",
            "node-0-3": "0x1.31f972474538ap+3",
            "node-0-4": "0x1.2d2bd3c36112ep+3",
            "node-0-5": "0x1.285c91d14e3b6p+3",
        },
        "nic_bytes": {
            "node-0-0": 393600,
            "node-0-1": 393600,
            "node-0-2": 390400,
            "node-0-3": 387200,
            "node-0-4": 384000,
            "node-0-5": 380800,
        },
        "processed": {
            "spout": 0,
            "bolt-1": 14450,
            "bolt-2": 14200,
            "bolt-3": 14000,
        },
        "acks": 280,
        "ack_sha256": (
            "d3b8b3d5d2db3a7084527bcbc083613197f712ffe2ff8a45f53e81bd498994b7"
        ),
        "credit_stalls": {},
        "throttled_hex": "0x0.0p+0",
    },
    "flow": {
        "events": 66943,
        "busy_hex": {
            "node-0-0": "0x1.013dd97f62d13p+2",
            "node-0-1": "0x1.fccccccccd00ep+1",
            "node-0-2": "0x1.fcea4a8c1580ap+1",
            "node-0-3": "0x1.fe1b089a02a9cp+1",
            "node-0-4": "0x1.fd8adab9f58dfp+1",
            "node-0-5": "0x1.fc63f141208fcp+1",
        },
        "nic_bytes": {
            "node-0-0": 103552000,
            "node-0-1": 101555200,
            "node-0-2": 101606400,
            "node-0-3": 102092800,
            "node-0-4": 101990400,
            "node-0-5": 101632000,
        },
        "processed": {
            "spout": 0,
            "bolt-1": 957000,
            "bolt-2": 955800,
            "bolt-3": 955000,
        },
        "acks": 9550,
        "ack_sha256": (
            "ba0fa5481e62fd4849a0324841e7ce141c5b9e0fbd71a230a0167613f77274bb"
        ),
        "credit_stalls": {
            "spout->bolt-1": 832,
            "bolt-1->bolt-2": 864,
            "bolt-2->bolt-3": 550,
        },
        "throttled_hex": "0x1.1b3721d53cf18p+3",
    },
    # recorded before transfers walked per-placement network paths
    "network-cross-rack": {
        "events": 56976,
        "busy_hex": {
            "node-0-0": "0x1.a1d14e3bcd1ebp+0",
            "node-0-1": "0x1.e6e2eb1c4315dp+0",
            "node-0-2": "0x1.a1c432ca57908p+0",
            "node-0-3": "0x1.a083126e97768p+0",
            "node-0-4": "0x1.e4ea4a8c15360p+0",
            "node-0-5": "0x1.e5460aa64c18ep+0",
            "node-1-0": "0x1.a2617c1bda3a0p+0",
            "node-1-1": "0x1.e62b6ae7d5501p+0",
            "node-1-2": "0x1.a13a92a3053c5p+0",
            "node-1-3": "0x1.a0d844d013925p+0",
            "node-1-4": "0x1.e48e8a71de532p+0",
            "node-1-5": "0x1.e62b6ae7d5501p+0",
        },
        "nic_bytes": {
            "node-0-0": 69657600,
            "node-0-1": 34867200,
            "node-0-2": 69657600,
            "node-0-3": 69427200,
            "node-0-4": 34739200,
            "node-0-5": 34764800,
            "node-1-0": 69760000,
            "node-1-1": 34816000,
            "node-1-2": 69529600,
            "node-1-3": 69504000,
            "node-1-4": 34713600,
            "node-1-5": 34816000,
        },
        "processed": {
            "spout": 0,
            "bolt-1": 815300,
            "bolt-2": 814200,
            "bolt-3": 810800,
        },
        "acks": 8108,
        "ack_sha256": (
            "0fb155fc56ff4364d1ff898ee63e645e07a489555759d35e5d24dd5414b500d5"
        ),
        "credit_stalls": {},
        "throttled_hex": "0x0.0p+0",
    },
}

VARIANTS = sorted(PINS)

#: variant -> (micro-topology variant, flow-control config, scheduler)
SETUPS = {
    "network": ("network", None, RStormScheduler),
    "compute": ("compute", None, RStormScheduler),
    "flow": ("network", FlowControlConfig(queue_capacity=2), RStormScheduler),
    "network-cross-rack": ("network", None, DefaultScheduler),
}

#: variant -> the distance levels its deliveries take
LEVELS = {
    variant: {"INTRA_PROCESS", "INTER_NODE"}
    for variant in ("network", "compute", "flow")
}
LEVELS["network-cross-rack"] = {"INTER_NODE", "INTER_RACK"}


def topology_id(variant: str) -> str:
    return f"linear-{SETUPS[variant][0]}"


def pinned_nodes(variant: str):
    return list(PINS[variant]["busy_hex"])


def pinned_run(variant: str) -> SimulationRun:
    micro, flow, scheduler = SETUPS[variant]
    random.seed(11)
    cluster = emulab_testbed()
    topology = micro_topology("linear", micro)
    assignment = scheduler().schedule([topology], cluster)[
        topology_id(variant)
    ]
    return SimulationRun(
        cluster,
        [(topology, assignment)],
        SimulationConfig(duration_s=10.0, warmup_s=2.5, flow=flow),
        interrack_uplink_mbps=(
            NETWORK_BOUND_UPLINK_MBPS if micro == "network" else None
        ),
    )


def delivered_levels(run: SimulationRun) -> Counter:
    """Run ``run`` to its horizon, counting delivered batches per
    distance level through a pass-through ``_deliver`` spy."""
    levels: Counter = Counter()
    deliver = run._deliver

    def spy(consumer, root_id, tuples, level, src=None):
        levels[level.name] += 1
        return deliver(consumer, root_id, tuples, level, src)

    run._deliver = spy
    run.run()
    return levels


def ack_digest(latencies) -> str:
    packed = struct.pack(f"<{len(latencies)}d", *latencies)
    return hashlib.sha256(packed).hexdigest()


@pytest.mark.parametrize("variant", VARIANTS)
class TestClosedLoopHotPathPin:
    def test_delivers_on_both_serde_branches(self, variant):
        levels = delivered_levels(pinned_run(variant))
        assert set(levels) == LEVELS[variant]

    def test_pinned_bit_exact(self, variant):
        pins = PINS[variant]
        nodes = pinned_nodes(variant)
        topo_id = topology_id(variant)
        run = pinned_run(variant)
        report = run.run()
        stats = run.stats
        assert report.events_processed == pins["events"]
        assert {
            node: stats.busy.get(node, 0.0).hex() for node in nodes
        } == pins["busy_hex"]
        assert {node: stats.nic_bytes.get(node, 0) for node in nodes} == pins[
            "nic_bytes"
        ]
        assert {
            comp: stats.processed.get((topo_id, comp), 0)
            for comp in pins["processed"]
        } == pins["processed"]
        latencies = stats.ack_latencies(topo_id)
        assert len(latencies) == pins["acks"]
        assert ack_digest(latencies) == pins["ack_sha256"]
        assert {
            f"{producer}->{consumer}": count
            for (_, producer, consumer), count in stats.credit_stalls.items()
        } == pins["credit_stalls"]
        assert (
            stats.spout_throttled.get(topo_id, 0.0).hex()
            == pins["throttled_hex"]
        )


@pytest.mark.parametrize("variant", VARIANTS)
class TestTracerParity:
    """A Tracer in the observer slot sees the hot path without changing
    it: the traced run matches the untraced one bit for bit, every
    delivery, emit and ack is reported, and nothing on the run or its
    stats server is overridden."""

    def test_traced_run_matches_untraced(self, variant):
        topo_id = topology_id(variant)
        plain = pinned_run(variant)
        plain_report = plain.run()

        traced = pinned_run(variant)
        tracer = Tracer(capacity=1_000_000)
        traced.observer = tracer
        traced_report = traced.run()

        assert traced_report.summary() == plain_report.summary()
        assert traced_report.events_processed == plain_report.events_processed
        for node in pinned_nodes(variant):
            assert (
                traced.stats.busy.get(node, 0.0).hex()
                == plain.stats.busy.get(node, 0.0).hex()
            )
        delivered = sum(delivered_levels(pinned_run(variant)).values())
        assert delivered > 0 and tracer.dropped == 0
        assert len(tracer.query(kind="deliver")) == delivered
        batch = traced.current_topology(topo_id).component(
            "spout"
        ).profile.emit_batch_tuples
        assert (
            len(tracer.query(kind="emit")) * batch
            == traced.stats.emitted.get(topo_id, 0)
        )
        assert len(tracer.query(kind="ack")) == PINS[variant]["acks"]

        # A Tracer reads every kind, so it fills the per-batch slot too.
        assert traced._batch_observer is tracer
        overrides = [
            (type(owner).__name__, name)
            for owner in (traced, traced.stats)
            for name in vars(owner)
            if hasattr(type(owner), name)
        ]
        assert overrides == []
