"""Figure 13 — scheduling multiple topologies on a 24-node cluster.

Both Yahoo topologies (Processing submitted first, then PageLoad) share a
24-machine, two-rack cluster.  The paper reports:

* R-Storm: PageLoad 25,496 tuples/10 s, Processing 67,115 tuples/10 s;
* default: PageLoad 16,695 tuples/10 s (-35%), Processing ~10 tuples/10 s
  — "grinded to a near halt": default Storm co-locates the Processing
  topology's memory-hungry session joiners with PageLoad tasks, blowing
  through physical memory on those machines.

Absolute tuple rates differ on the simulated substrate; the comparisons —
R-Storm healthy on both, default degrading PageLoad and effectively
killing Processing — are the reproduction target.
"""

from __future__ import annotations

from typing import Optional

from repro.cluster.builders import emulab_testbed
from repro.experiments.harness import ExperimentResult
from repro.experiments.parallel import ExperimentContext, SimulationUnit, spec
from repro.scheduler.default import DefaultScheduler
from repro.scheduler.quality import aggregate_node_load
from repro.scheduler.rstorm import RStormScheduler
from repro.workloads.yahoo import (
    pageload_topology,
    processing_topology,
    yahoo_simulation_config,
)

__all__ = ["run", "PAPER_TUPLES_PER_10S"]

#: The paper's reported averages (tuples per 10 s).
PAPER_TUPLES_PER_10S = {
    ("r-storm", "pageload"): 25496,
    ("r-storm", "processing"): 67115,
    ("default", "pageload"): 16695,
    ("default", "processing"): 10,
}

NODES_PER_RACK = 12  # 24-machine cluster, two racks


def run(
    duration_s: float = 120.0,
    context: Optional[ExperimentContext] = None,
) -> ExperimentResult:
    context = context or ExperimentContext()
    result = ExperimentResult(
        experiment_id="fig13",
        title="Multi-topology scheduling on 24 nodes (tuples per 10 s window)",
    )
    config = yahoo_simulation_config(duration_s)
    schedulers = (("r-storm", RStormScheduler), ("default", DefaultScheduler))
    units = [
        SimulationUnit(
            scheduler=spec(factory),
            # submission order matters: Processing first, as in the paper
            topologies=(spec(processing_topology), spec(pageload_topology)),
            cluster=spec(emulab_testbed, nodes_per_rack=NODES_PER_RACK),
            config=config,
            label=name,
        )
        for name, factory in schedulers
    ]
    outcomes = context.run(units)
    for (name, _), outcome in zip(schedulers, outcomes):
        cluster = emulab_testbed(nodes_per_rack=NODES_PER_RACK)
        overcommitted = _overcommitted_nodes(outcome, cluster)
        for topo_id in ("pageload", "processing"):
            thr = outcome.throughput(topo_id)
            result.add_row(
                scheduler=name,
                topology=topo_id,
                tuples_per_10s=round(thr),
                paper_tuples_per_10s=PAPER_TUPLES_PER_10S[(name, topo_id)],
                nodes_used=len(outcome.assignments[topo_id].nodes),
                worker_crashes=outcome.report.crashes(topo_id),
                memory_overcommitted_nodes=overcommitted,
            )
            result.add_series(
                f"{topo_id}/{name}",
                outcome.report.throughput_series(topo_id),
            )
    result.note(
        "memory_overcommitted_nodes counts machines whose summed resident "
        "memory exceeds physical capacity — always 0 for R-Storm (hard "
        "constraint), and the thrashing machines that flatten Processing "
        "under default Storm."
    )
    return result


def _overcommitted_nodes(outcome, cluster) -> int:
    """Machines whose summed resident memory exceeds physical capacity."""
    topologies = {
        "pageload": pageload_topology(),
        "processing": processing_topology(),
    }
    pairs = [
        (topologies[tid], assignment)
        for tid, assignment in outcome.assignments.items()
    ]
    load = aggregate_node_load(pairs)
    over = 0
    for node_id, demand in load.items():
        node = cluster.node(node_id)
        if demand.memory_mb > node.capacity.memory_mb + 1e-9:
            over += 1
    return over
