"""Scalability beyond the testbed.

The paper closes by arguing R-Storm's concepts apply to any DAG-based
stream processor; this experiment checks the *scheduler* holds up as
clusters and topologies grow well past the 12-node testbed.  For each
scale it reports:

* predicted steady-state throughput of the R-Storm vs default placements
  (via the analytical flow model — the DES would take minutes per point
  at these scales, the flow model microseconds),
* placement locality.

Scheduling latency is wall clock, so no cached table prints it; the
``sched-*`` probes of ``repro bench`` time the schedulers.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.cluster.builders import uniform_cluster
from repro.cluster.resources import ResourceVector
from repro.experiments.harness import ExperimentResult
from repro.experiments.parallel import ExperimentContext, ScheduleUnit, spec
from repro.scheduler.default import DefaultScheduler
from repro.scheduler.rstorm import RStormScheduler
from repro.workloads.generator import TopologySpec, random_topology

__all__ = ["run", "units", "SCALES"]

#: (racks, nodes per rack, topology seed count)
SCALES: List[Tuple[int, int, int]] = [
    (2, 6, 3),
    (4, 8, 3),
    (8, 16, 3),
]

_SPEC = TopologySpec(
    min_layers=2,
    max_layers=4,
    min_width=2,
    max_width=3,
    max_parallelism=8,
    memory_choices_mb=(128.0, 256.0, 512.0),
    cpu_choices=(10.0, 20.0, 35.0),
)

SCHEDULERS = (("r-storm", RStormScheduler), ("default", DefaultScheduler))


def units() -> List[ScheduleUnit]:
    """One schedule-only unit per scale, seed and scheduler, in row order."""
    capacity = ResourceVector.of(
        memory_mb=8192.0, cpu=400.0, bandwidth_mbps=1000.0
    )
    return [
        ScheduleUnit(
            scheduler=spec(factory),
            topologies=(spec(random_topology, seed, _SPEC),),
            cluster=spec(
                uniform_cluster,
                nodes_per_rack=nodes_per_rack,
                racks=racks,
                capacity=capacity,
            ),
            label=f"{racks}x{nodes_per_rack}/seed{seed}/{name}",
        )
        for racks, nodes_per_rack, seeds in SCALES
        for seed in range(seeds)
        for name, factory in SCHEDULERS
    ]


def run(
    duration_s: float = 0.0,
    context: Optional[ExperimentContext] = None,
) -> ExperimentResult:
    """``duration_s`` is accepted for CLI uniformity and ignored — the
    throughput column comes from the analytical model."""
    context = context or ExperimentContext()
    result = ExperimentResult(
        experiment_id="scalability",
        title="Scheduler scalability on growing clusters (flow-model throughput)",
    )
    outcomes = iter(context.run(units()))
    for racks, nodes_per_rack, seeds in SCALES:
        num_nodes = racks * nodes_per_rack
        totals = {"r-storm": 0.0, "default": 0.0}
        locality = {"r-storm": 0.0, "default": 0.0}
        tasks = 0
        for seed in range(seeds):
            topology = random_topology(seed, _SPEC)
            tasks += topology.num_tasks
            for name, _ in SCHEDULERS:
                outcome = next(outcomes)
                topo_id = topology.topology_id
                totals[name] += outcome.predicted_tps[topo_id]
                locality[name] += outcome.qualities[
                    topo_id
                ].mean_network_distance
        result.add_row(
            nodes=num_nodes,
            tasks=tasks,
            rstorm_pred_tps=round(totals["r-storm"] / seeds),
            default_pred_tps=round(totals["default"] / seeds),
            rstorm_mean_netdist=round(locality["r-storm"] / seeds, 2),
            default_mean_netdist=round(locality["default"] / seeds, 2),
        )
    result.note(
        "Throughput is the analytical flow-model prediction averaged over "
        "random topologies.  The flow model ignores latency and "
        "queueing, so R-Storm's locality advantage shows in the netdist "
        "column rather than predicted tps on these resource-rich clusters."
    )
    return result


def main() -> None:  # pragma: no cover - CLI glue
    print(run().format())


if __name__ == "__main__":  # pragma: no cover
    main()
