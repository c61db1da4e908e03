"""Differential test: analytical flow model vs the discrete-event simulator.

The scalability experiment substitutes :class:`~repro.analysis.flow.
FlowModel` predictions for DES runs, so the two must agree where both
are tractable.  On the micro-workloads (steady-state pipelines with
stable bottlenecks) the observed gap is under 0.5% of throughput for
both schedulers; the 2% tolerance below leaves headroom for windowing
effects (the DES reports whole metrics windows, so ramp-up rounds the
average down slightly) without letting a real modelling divergence
slip through.
"""

import pytest

from repro.analysis.flow import FlowModel
from repro.cluster.builders import emulab_testbed
from repro.experiments.harness import wire
from repro.scheduler.default import DefaultScheduler
from repro.scheduler.rstorm import RStormScheduler
from repro.simulation.config import SimulationConfig
from repro.workloads.micro import (
    NETWORK_BOUND_UPLINK_MBPS,
    diamond_topology,
    linear_topology,
)

#: Maximum tolerated relative gap between DES throughput and the flow
#: model's steady-state prediction (see module docstring).
TOLERANCE = 0.02

CONFIG = SimulationConfig(duration_s=60.0, warmup_s=10.0)

WORKLOADS = [
    # (builder, variant, inter-rack uplink): one compute-bound and one
    # network-bound pipeline each exercise a different bottleneck term.
    (linear_topology, "compute", None),
    (linear_topology, "network", NETWORK_BOUND_UPLINK_MBPS),
    (diamond_topology, "network", NETWORK_BOUND_UPLINK_MBPS),
]

SCHEDULERS = [RStormScheduler, DefaultScheduler]


def _relative_gap(a: float, b: float) -> float:
    return abs(a - b) / max(a, b)


@pytest.mark.parametrize(
    "builder,variant,uplink",
    WORKLOADS,
    ids=[f"{b.__name__}-{v}" for b, v, _ in WORKLOADS],
)
@pytest.mark.parametrize("scheduler_cls", SCHEDULERS, ids=["rstorm", "default"])
def test_flow_model_matches_des(builder, variant, uplink, scheduler_cls):
    topology = builder(variant)
    cluster = emulab_testbed()
    wiring = wire(
        scheduler_cls(),
        [topology],
        cluster,
        CONFIG,
        interrack_uplink_mbps=uplink,
    )
    outcome = wiring.outcome(wiring.run.run())
    des_tps = outcome.report.average_throughput_tps(topology.topology_id)
    flow = FlowModel(cluster, CONFIG, interrack_uplink_mbps=uplink).solve(
        [(topology, outcome.assignments[topology.topology_id])]
    )
    predicted_tps = flow.topology_throughput_tps[topology.topology_id]

    assert des_tps > 0 and predicted_tps > 0
    gap = _relative_gap(des_tps, predicted_tps)
    assert gap <= TOLERANCE, (
        f"flow model diverges from DES on {topology.topology_id} under "
        f"{scheduler_cls.__name__}: des={des_tps:.1f} tps, "
        f"flow={predicted_tps:.1f} tps, gap={gap:.1%} > {TOLERANCE:.0%}"
    )


def test_flow_model_preserves_scheduler_ranking():
    """Where the DES says R-Storm beats default (network-bound linear),
    the flow model must agree on the direction, not just magnitudes."""
    topology_id = "linear-network"
    des, flow_pred = {}, {}
    for scheduler_cls in SCHEDULERS:
        topology = linear_topology("network")
        cluster = emulab_testbed()
        wiring = wire(
            scheduler_cls(),
            [topology],
            cluster,
            CONFIG,
            interrack_uplink_mbps=NETWORK_BOUND_UPLINK_MBPS,
        )
        outcome = wiring.outcome(wiring.run.run())
        name = outcome.scheduler
        des[name] = outcome.report.average_throughput_tps(topology_id)
        flow_pred[name] = FlowModel(
            cluster, CONFIG, interrack_uplink_mbps=NETWORK_BOUND_UPLINK_MBPS
        ).solve([(topology, outcome.assignments[topology_id])]).topology_throughput_tps[
            topology_id
        ]
    assert des["r-storm"] > des["default"]
    assert flow_pred["r-storm"] > flow_pred["default"]
