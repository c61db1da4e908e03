"""Figures 9 — computation-time-bound micro-benchmark topologies.

Reproduces Section 6.3.2: the same Linear/Diamond/Star layouts configured
to burn significant CPU per tuple.  Supplied with per-component CPU
requirements, R-Storm matches default Storm's throughput while using
roughly half the machines (the paper: 6, 7 and 6 of 12), and for the Star
topology beats it outright because default Storm over-utilises the
machines where its round-robin stacked heavy tasks.
"""

from __future__ import annotations

from typing import Optional

from repro.cluster.builders import emulab_testbed
from repro.experiments.harness import ExperimentResult
from repro.experiments.parallel import ExperimentContext, SimulationUnit, spec
from repro.scheduler.default import DefaultScheduler
from repro.scheduler.rstorm import RStormScheduler
from repro.simulation.config import SimulationConfig
from repro.workloads.micro import micro_topology

__all__ = ["run", "compute_bound_units", "PAPER_MACHINES"]

#: Machines the paper reports R-Storm needing (vs 12 for default).
PAPER_MACHINES = {"linear": 6, "diamond": 7, "star": 6}

KINDS = ("linear", "diamond", "star")

SCHEDULERS = (("r-storm", RStormScheduler), ("default", DefaultScheduler))


def compute_bound_units(config: SimulationConfig):
    """The (kind, scheduler) grid as work units.

    Shared with fig10, which simulates the exact same runs — with a
    cache, the second figure reuses every outcome of the first.
    """
    return [
        SimulationUnit(
            scheduler=spec(factory),
            topologies=(spec(micro_topology, kind, "compute"),),
            cluster=spec(emulab_testbed),
            config=config,
            label=f"fig9:{kind}/{name}",
        )
        for kind in KINDS
        for name, factory in SCHEDULERS
    ]


def run(
    duration_s: float = 120.0,
    context: Optional[ExperimentContext] = None,
) -> ExperimentResult:
    context = context or ExperimentContext()
    result = ExperimentResult(
        experiment_id="fig9",
        title="Computation-bound micro-benchmarks (tuples per 10 s window)",
    )
    config = SimulationConfig(
        duration_s=duration_s, warmup_s=min(20.0, duration_s / 4)
    )
    units = compute_bound_units(config)
    outcomes_by_label = dict(
        zip([u.label for u in units], context.run(units))
    )
    for kind in KINDS:
        outcomes = {
            name: outcomes_by_label[f"fig9:{kind}/{name}"]
            for name, _ in SCHEDULERS
        }
        topo_id = f"{kind}-compute"
        for name, outcome in outcomes.items():
            result.add_series(
                f"{kind}/{name}", outcome.report.throughput_series(topo_id)
            )
        rstorm, default = outcomes["r-storm"], outcomes["default"]
        r_thr, d_thr = rstorm.throughput(topo_id), default.throughput(topo_id)
        result.add_row(
            topology=kind,
            rstorm_tuples_per_10s=round(r_thr),
            default_tuples_per_10s=round(d_thr),
            throughput_ratio=round(r_thr / d_thr, 2) if d_thr else float("inf"),
            rstorm_nodes=len(rstorm.assignments[topo_id].nodes),
            default_nodes=len(default.assignments[topo_id].nodes),
            paper_rstorm_nodes=PAPER_MACHINES[kind],
            rstorm_max_cpu_overcommit=round(
                rstorm.qualities[topo_id].max_cpu_overcommit, 2
            ),
        )
    result.note(
        "Throughput is input-rate bound, so matching default Storm with "
        "half the machines is the win; for Star, default Storm's "
        "round-robin over-utilises the spout machines and loses outright."
    )
    return result
