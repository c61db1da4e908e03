"""Figure 8 — network-bound micro-benchmark topologies.

Reproduces the paper's Section 6.3.1: Linear, Diamond and Star topologies
configured to do very little per-tuple processing on the two-rack Emulab
cluster, scheduled by R-Storm and by default Storm.  The paper reports
R-Storm winning by about +50% (Linear), +30% (Diamond) and +47% (Star).
"""

from __future__ import annotations

from typing import Optional

from repro.cluster.builders import emulab_testbed
from repro.experiments.harness import ExperimentResult
from repro.experiments.parallel import ExperimentContext, SimulationUnit, spec
from repro.scheduler.default import DefaultScheduler
from repro.scheduler.rstorm import RStormScheduler
from repro.simulation.config import SimulationConfig
from repro.workloads.micro import NETWORK_BOUND_UPLINK_MBPS, micro_topology

__all__ = ["run", "PAPER_IMPROVEMENT"]

#: The paper's reported R-Storm throughput improvements (Section 6.3.1).
PAPER_IMPROVEMENT = {"linear": 0.50, "diamond": 0.30, "star": 0.47}

KINDS = ("linear", "diamond", "star")

SCHEDULERS = (("r-storm", RStormScheduler), ("default", DefaultScheduler))


def run(
    duration_s: float = 120.0,
    context: Optional[ExperimentContext] = None,
) -> ExperimentResult:
    """Run the Figure 8 comparison and return its table/series."""
    context = context or ExperimentContext()
    result = ExperimentResult(
        experiment_id="fig8",
        title="Network-bound micro-benchmarks (tuples per 10 s window)",
    )
    config = SimulationConfig(
        duration_s=duration_s, warmup_s=min(20.0, duration_s / 4)
    )
    units = [
        SimulationUnit(
            scheduler=spec(factory),
            topologies=(spec(micro_topology, kind, "network"),),
            cluster=spec(emulab_testbed),
            config=config,
            interrack_uplink_mbps=NETWORK_BOUND_UPLINK_MBPS,
            label=f"{kind}/{name}",
        )
        for kind in KINDS
        for name, factory in SCHEDULERS
    ]
    outcomes_by_label = dict(
        zip([u.label for u in units], context.run(units))
    )
    for kind in KINDS:
        topo_id = f"{kind}-network"
        outcomes = {
            name: outcomes_by_label[f"{kind}/{name}"]
            for name, _ in SCHEDULERS
        }
        for name, outcome in outcomes.items():
            result.add_series(
                f"{kind}/{name}", outcome.report.throughput_series(topo_id)
            )
        rstorm = outcomes["r-storm"]
        default = outcomes["default"]
        r_thr = rstorm.throughput(topo_id)
        d_thr = default.throughput(topo_id)
        improvement = r_thr / d_thr - 1.0 if d_thr else float("inf")
        result.add_row(
            topology=kind,
            rstorm_tuples_per_10s=round(r_thr),
            default_tuples_per_10s=round(d_thr),
            improvement_pct=round(improvement * 100.0, 1),
            paper_pct=round(PAPER_IMPROVEMENT[kind] * 100.0, 1),
            rstorm_nodes=len(rstorm.assignments[topo_id].nodes),
            default_nodes=len(default.assignments[topo_id].nodes),
            rstorm_mean_netdist=round(
                rstorm.qualities[topo_id].mean_network_distance, 2
            ),
            default_mean_netdist=round(
                default.qualities[topo_id].mean_network_distance, 2
            ),
        )
    result.note(
        "R-Storm keeps every hop inside one rack; default Storm's "
        "pseudo-random placement pushes ~half the traffic through the "
        f"shared {NETWORK_BOUND_UPLINK_MBPS:.0f} Mbps inter-rack fabric."
    )
    return result
