"""Distance-weight sweep.

The paper lets users weight the soft constraints ("allowing users to
decide which constraints are more valued", Section 4).  This experiment
sweeps the CPU-vs-network weighting of R-Storm's distance function on
the network-bound Linear topology and on PageLoad-over-heterogeneous-
machines, showing where each term earns its keep.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.cluster.builders import emulab_testbed
from repro.experiments.ablations import make_ablation_cluster
from repro.experiments.harness import ExperimentResult
from repro.experiments.parallel import ExperimentContext, SimulationUnit, spec
from repro.scheduler.rstorm import DistanceWeights, RStormScheduler
from repro.simulation.config import SimulationConfig
from repro.workloads.micro import NETWORK_BOUND_UPLINK_MBPS, linear_topology
from repro.workloads.yahoo import pageload_topology, yahoo_simulation_config

__all__ = ["run", "WEIGHTS"]

#: (label, weights) grid: network emphasis rises left to right.
WEIGHTS: List[Tuple[str, DistanceWeights]] = [
    ("cpu-only (net=0)", DistanceWeights(memory=0.5, cpu=1.0, network=0.0)),
    ("net=0.25", DistanceWeights(memory=0.5, cpu=1.0, network=0.25)),
    ("balanced (paper-ish)", DistanceWeights(memory=0.5, cpu=1.0, network=1.0)),
    ("net=4", DistanceWeights(memory=0.5, cpu=1.0, network=4.0)),
    ("net-only (cpu=0)", DistanceWeights(memory=0.0, cpu=0.0, network=1.0)),
]


def run(
    duration_s: float = 90.0,
    context: Optional[ExperimentContext] = None,
) -> ExperimentResult:
    context = context or ExperimentContext()
    result = ExperimentResult(
        experiment_id="weights",
        title="Distance-weight sweep (R-Storm soft-constraint weights)",
    )
    micro_config = SimulationConfig(
        duration_s=duration_s, warmup_s=min(20.0, duration_s / 4)
    )
    yahoo_config = yahoo_simulation_config(duration_s)
    units = []
    for label, weights in WEIGHTS:
        units.append(
            SimulationUnit(
                scheduler=spec(RStormScheduler, weights=weights),
                topologies=(spec(linear_topology, "network"),),
                cluster=spec(emulab_testbed),
                config=micro_config,
                interrack_uplink_mbps=NETWORK_BOUND_UPLINK_MBPS,
                label=f"micro/{label}",
            )
        )
        units.append(
            SimulationUnit(
                scheduler=spec(RStormScheduler, weights=weights),
                topologies=(spec(pageload_topology),),
                cluster=spec(make_ablation_cluster),
                config=yahoo_config,
                label=f"prod/{label}",
            )
        )
    outcomes = context.run(units)
    for i, (label, _) in enumerate(WEIGHTS):
        micro, prod = outcomes[2 * i], outcomes[2 * i + 1]
        micro_topo_id = "linear-network"
        micro_quality = micro.qualities[micro_topo_id]
        result.add_row(
            weights=label,
            linear_net_tuples_per_10s=round(micro.throughput(micro_topo_id)),
            linear_mean_netdist=round(micro_quality.mean_network_distance, 2),
            pageload_hetero_tuples_per_10s=round(prod.throughput("pageload")),
            pageload_cpu_overcommit=round(
                prod.qualities["pageload"].max_cpu_overcommit, 2
            ),
        )
    result.note(
        "On the homogeneous testbed with uniform demands the weights "
        "barely matter (identical machines tie on every metric); on the "
        "heterogeneous cluster dropping the CPU term costs throughput. "
        "This insensitivity on uniform clusters is itself a finding: the "
        "defaults are safe, and tuning only pays off when machines differ."
    )
    return result
