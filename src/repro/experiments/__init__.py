"""Experiments reproducing every figure of the paper's evaluation."""

import importlib
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Tuple

from repro import lazy_exports

if TYPE_CHECKING:
    from repro.experiments.harness import ExperimentResult


class _Registry(dict):
    """Experiment name -> its module's ``run``, imported on first lookup.

    A value starts as the experiment's module name and is replaced by
    that module's ``run`` the first time it is read, so listing the
    experiments imports none of them and running one imports only its
    module.  It is a plain ``dict`` otherwise: ``REGISTRY[name] = fn``
    (and ``monkeypatch.setitem``) swaps an entry as before.
    """

    def __getitem__(self, name: str) -> Any:
        value = super().__getitem__(name)
        if isinstance(value, str):
            value = importlib.import_module(value).run
            self[name] = value
        return value

    def get(self, name: str, default: Any = None) -> Any:
        return self[name] if name in self else default

    def values(self) -> List[Any]:  # type: ignore[override]
        return [self[name] for name in self]

    def items(self) -> List[Tuple[str, Any]]:  # type: ignore[override]
        return [(name, self[name]) for name in self]


#: Registry used by the CLI and the benchmark suite.
REGISTRY: Dict[str, Callable[..., "ExperimentResult"]] = _Registry(
    (name, f"repro.experiments.{module}")
    for name, module in (
        ("fig8", "fig8_network_bound"),
        ("fig9", "fig9_compute_bound"),
        ("fig10", "fig10_cpu_utilization"),
        ("fig12", "fig12_yahoo"),
        ("fig13", "fig13_multi_topology"),
        ("ablations", "ablations"),
        ("weights", "weight_sweep"),
        ("scalability", "scalability"),
        ("chaos", "fault_recovery"),
        ("traffic", "overload"),
        ("elastic", "elastic"),
        ("tenants", "tenants"),
        ("protection", "protection"),
    )
)

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.experiments.cache": ("ResultCache", "cache_key", "stable_token"),
        "repro.experiments.harness": (
            "ExperimentResult",
            "SingleRunOutcome",
            "Wiring",
            "format_table",
            "wire",
        ),
        "repro.experiments.parallel": (
            "ExperimentContext",
            "FactorySpec",
            "ScheduleOutcome",
            "ScheduleUnit",
            "SimulationUnit",
            "run_units",
            "spec",
        ),
    },
)
__all__ += ["REGISTRY"]
