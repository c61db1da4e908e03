"""Figure 10 — CPU utilisation comparison.

The paper compares average CPU utilisation over the machines each
scheduler actually uses during the computation-bound runs: R-Storm's
utilisation is 69% (Linear), 91% (Diamond) and 350% (Star) higher than
default Storm's, because it packs the same work onto about half the
machines and, for Star, because default Storm's throughput collapses and
leaves its machines idle.
"""

from __future__ import annotations

from typing import Optional

from repro.experiments.fig9_compute_bound import (
    KINDS,
    SCHEDULERS,
    compute_bound_units,
)
from repro.experiments.harness import ExperimentResult
from repro.experiments.parallel import ExperimentContext
from repro.simulation.config import SimulationConfig

__all__ = ["run", "PAPER_UTIL_IMPROVEMENT"]

#: Paper-reported utilisation improvements.
PAPER_UTIL_IMPROVEMENT = {"linear": 0.69, "diamond": 0.91, "star": 3.50}


def run(
    duration_s: float = 120.0,
    context: Optional[ExperimentContext] = None,
) -> ExperimentResult:
    context = context or ExperimentContext()
    result = ExperimentResult(
        experiment_id="fig10",
        title="Average CPU utilisation of machines used (compute-bound runs)",
    )
    config = SimulationConfig(
        duration_s=duration_s, warmup_s=min(20.0, duration_s / 4)
    )
    # The exact same work units as fig9 — with a shared cache this figure
    # costs zero fresh simulations after fig9 has run.
    units = compute_bound_units(config)
    outcomes_by_label = dict(
        zip([u.label for u in units], context.run(units))
    )
    for kind in KINDS:
        utils = {
            name: outcomes_by_label[
                f"fig9:{kind}/{name}"
            ].report.topology_cpu_utilisation(f"{kind}-compute")
            for name, _ in SCHEDULERS
        }
        r_util, d_util = utils["r-storm"], utils["default"]
        improvement = r_util / d_util - 1.0 if d_util else float("inf")
        result.add_row(
            topology=kind,
            rstorm_cpu_util=round(r_util, 3),
            default_cpu_util=round(d_util, 3),
            improvement_pct=round(improvement * 100.0, 1),
            paper_pct=round(PAPER_UTIL_IMPROVEMENT[kind] * 100.0, 1),
        )
    result.note(
        "Utilisation is averaged over the machines hosting at least one "
        "task, the population Figure 10 uses."
    )
    return result
