"""Experiments reproducing every figure of the paper's evaluation."""

from typing import Callable, Dict

from repro.experiments import (
    ablations,
    elastic,
    fault_recovery,
    fig10_cpu_utilization,
    fig12_yahoo,
    fig13_multi_topology,
    fig8_network_bound,
    fig9_compute_bound,
    overload,
    protection,
    scalability,
    tenants,
    weight_sweep,
)
from repro.experiments.cache import ResultCache, cache_key, stable_token
from repro.experiments.harness import (
    ExperimentResult,
    SingleRunOutcome,
    Wiring,
    format_table,
    wire,
)
from repro.experiments.parallel import (
    ExperimentContext,
    FactorySpec,
    ScheduleOutcome,
    ScheduleUnit,
    SimulationUnit,
    run_units,
    spec,
)

#: Registry used by the CLI and the benchmark suite.
REGISTRY: Dict[str, Callable[..., ExperimentResult]] = {
    "fig8": fig8_network_bound.run,
    "fig9": fig9_compute_bound.run,
    "fig10": fig10_cpu_utilization.run,
    "fig12": fig12_yahoo.run,
    "fig13": fig13_multi_topology.run,
    "ablations": ablations.run,
    "weights": weight_sweep.run,
    "scalability": scalability.run,
    "chaos": fault_recovery.run,
    "traffic": overload.run,
    "elastic": elastic.run,
    "tenants": tenants.run,
    "protection": protection.run,
}

__all__ = [
    "ExperimentContext",
    "ExperimentResult",
    "FactorySpec",
    "REGISTRY",
    "ResultCache",
    "ScheduleOutcome",
    "ScheduleUnit",
    "SimulationUnit",
    "SingleRunOutcome",
    "Wiring",
    "cache_key",
    "format_table",
    "run_units",
    "spec",
    "stable_token",
    "wire",
]
