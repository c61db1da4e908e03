"""Figure 12 — Yahoo! production topologies, one at a time.

PageLoad and Processing on the 12-node cluster under each scheduler.  The
paper reports R-Storm beating default Storm by ~50% (PageLoad) and ~47%
(Processing): default Storm's placement over-utilises the machines where
its round-robin stacked heavy components, throttling the pipeline.
"""

from __future__ import annotations

from typing import Optional

from repro.cluster.builders import emulab_testbed
from repro.experiments.harness import ExperimentResult
from repro.experiments.parallel import ExperimentContext, SimulationUnit, spec
from repro.scheduler.default import DefaultScheduler
from repro.scheduler.rstorm import RStormScheduler
from repro.workloads.yahoo import (
    pageload_topology,
    processing_topology,
    yahoo_simulation_config,
)

__all__ = ["run", "PAPER_IMPROVEMENT"]

PAPER_IMPROVEMENT = {"pageload": 0.50, "processing": 0.47}

SCHEDULERS = (("r-storm", RStormScheduler), ("default", DefaultScheduler))

TOPOLOGIES = (("pageload", pageload_topology), ("processing", processing_topology))


def run(
    duration_s: float = 120.0,
    context: Optional[ExperimentContext] = None,
) -> ExperimentResult:
    context = context or ExperimentContext()
    result = ExperimentResult(
        experiment_id="fig12",
        title="Yahoo topologies, single tenancy (tuples per 10 s window)",
    )
    config = yahoo_simulation_config(duration_s)
    units = [
        SimulationUnit(
            scheduler=spec(sched_factory),
            topologies=(spec(topo_factory),),
            cluster=spec(emulab_testbed),
            config=config,
            label=f"{topo_id}/{name}",
        )
        for topo_id, topo_factory in TOPOLOGIES
        for name, sched_factory in SCHEDULERS
    ]
    outcomes_by_label = dict(
        zip([u.label for u in units], context.run(units))
    )
    for topo_id, _ in TOPOLOGIES:
        outcomes = {
            name: outcomes_by_label[f"{topo_id}/{name}"]
            for name, _ in SCHEDULERS
        }
        for name, outcome in outcomes.items():
            result.add_series(
                f"{topo_id}/{name}",
                outcome.report.throughput_series(topo_id),
            )
        rstorm, default = outcomes["r-storm"], outcomes["default"]
        r_thr, d_thr = rstorm.throughput(topo_id), default.throughput(topo_id)
        result.add_row(
            topology=topo_id,
            rstorm_tuples_per_10s=round(r_thr),
            default_tuples_per_10s=round(d_thr),
            improvement_pct=round((r_thr / d_thr - 1.0) * 100.0, 1)
            if d_thr
            else float("inf"),
            paper_pct=round(PAPER_IMPROVEMENT[topo_id] * 100.0, 1),
            rstorm_crashes=rstorm.report.crashes(topo_id),
            default_crashes=default.report.crashes(topo_id),
            default_max_cpu_overcommit=round(
                default.qualities[topo_id].max_cpu_overcommit, 2
            ),
        )
    result.note(
        "Runs use Storm's default unbounded spout pending; worker crashes "
        "are queue overflows on over-utilised machines."
    )
    return result
