"""Ablations of R-Storm's design choices (DESIGN.md section
"Design choices called out for ablation").

Each ablation disables or swaps one ingredient of the scheduler and
re-runs the PageLoad production topology on a *heterogeneous* two-rack
cluster (big/medium/small machines).  On the paper's homogeneous testbed
with uniform demands every distance variant ties — the interesting
differences appear exactly when machines differ, which is the regime the
knobs exist for:

* task ordering: BFS (paper) vs DFS vs topological;
* the ref-node network-distance term: on (paper) vs off;
* gap normalisation: capacity-normalised (library default) vs raw gaps;
* soft-overcommit preference: on (library default) vs paper-literal
  minimum distance, which happily over-commits CPU;
* distance weights: a network-heavy weighting;
* the Aniello et al. offline scheduler and default Storm as baselines.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.cluster.builders import heterogeneous_cluster
from repro.cluster.resources import ResourceVector
from repro.experiments.harness import ExperimentResult
from repro.experiments.parallel import (
    ExperimentContext,
    FactorySpec,
    SimulationUnit,
    spec,
)
from repro.scheduler.aniello import AnielloOfflineScheduler
from repro.scheduler.default import DefaultScheduler
from repro.scheduler.ordering import TaskOrderingStrategy
from repro.scheduler.rstorm import DistanceWeights, RStormScheduler
from repro.workloads.yahoo import pageload_topology, yahoo_simulation_config

__all__ = ["run", "VARIANTS", "make_ablation_cluster"]


def make_ablation_cluster():
    """Two racks of mixed machines: the regime where R-Storm's distance
    design choices actually change placements."""
    big = ResourceVector.of(memory_mb=4096.0, cpu=200.0, bandwidth_mbps=100.0)
    med = ResourceVector.of(memory_mb=2048.0, cpu=100.0, bandwidth_mbps=100.0)
    small = ResourceVector.of(memory_mb=1024.0, cpu=100.0, bandwidth_mbps=100.0)
    return heterogeneous_cluster(
        [
            [big, big, med, med, small, small],
            [med, med, med, med, small, small],
        ],
        name="ablation",
    )


def _variants() -> Dict[str, FactorySpec]:
    return {
        "r-storm (paper)": spec(RStormScheduler),
        "ordering=dfs": spec(RStormScheduler, ordering=TaskOrderingStrategy.DFS),
        "ordering=topological": spec(
            RStormScheduler, ordering=TaskOrderingStrategy.TOPOLOGICAL
        ),
        "no-network-term": spec(RStormScheduler, use_network_distance=False),
        "raw-gaps": spec(RStormScheduler, normalise_gaps=False),
        "allow-overcommit": spec(RStormScheduler, prefer_no_overcommit=False),
        "network-heavy-weights": spec(
            RStormScheduler,
            weights=DistanceWeights(memory=0.5, cpu=1.0, network=10.0),
        ),
        "aniello-offline": spec(AnielloOfflineScheduler),
        "default": spec(DefaultScheduler),
    }


VARIANTS = tuple(_variants().keys())


def run(
    duration_s: float = 90.0,
    context: Optional[ExperimentContext] = None,
) -> ExperimentResult:
    context = context or ExperimentContext()
    result = ExperimentResult(
        experiment_id="ablations",
        title=(
            "R-Storm ablations: PageLoad on a heterogeneous two-rack cluster"
        ),
    )
    config = yahoo_simulation_config(duration_s)
    variants = _variants()
    units = [
        SimulationUnit(
            scheduler=scheduler_spec,
            topologies=(spec(pageload_topology),),
            cluster=spec(make_ablation_cluster),
            config=config,
            label=label,
        )
        for label, scheduler_spec in variants.items()
    ]
    outcomes = context.run(units)
    baseline_throughput = None
    for label, outcome in zip(variants, outcomes):
        topo_id = "pageload"
        throughput = outcome.throughput(topo_id)
        if baseline_throughput is None:
            baseline_throughput = throughput
        quality = outcome.qualities[topo_id]
        result.add_row(
            variant=label,
            tuples_per_10s=round(throughput),
            vs_paper_variant_pct=round(
                (throughput / baseline_throughput - 1.0) * 100.0, 1
            )
            if baseline_throughput
            else 0.0,
            nodes_used=quality.nodes_used,
            mean_netdist=round(quality.mean_network_distance, 2),
            cpu_overcommit=round(quality.max_cpu_overcommit, 2),
            crashes=outcome.report.crashes(topo_id),
        )
    result.note(
        "The first row is the paper's configuration; deltas show what "
        "each ingredient is worth when machines are heterogeneous."
    )
    return result
