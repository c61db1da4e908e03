"""R-Storm: resource-aware scheduling for Storm-like stream processors.

A complete Python reproduction of *R-Storm: Resource-Aware Scheduling in
Storm* (Peng et al., Middleware 2015): the R-Storm scheduler, Storm's
default scheduler, the full execution substrate (topologies, a two-level
cluster/network model, a discrete-event Storm runtime simulator, and a
Nimbus/supervisor coordination plane), the paper's evaluation
workloads, and an experiment harness regenerating every figure.

Quickstart::

    from repro import (
        TopologyBuilder, RStormScheduler, SimulationRun, emulab_testbed,
    )

    builder = TopologyBuilder("wordcount")
    builder.set_spout("sentences", 4).set_memory_load(512.0).set_cpu_load(25.0)
    builder.set_bolt("split", 4).shuffle_grouping("sentences")
    topology = builder.build()

    cluster = emulab_testbed()
    assignment = RStormScheduler().schedule([topology], cluster)["wordcount"]
    report = SimulationRun(cluster, [(topology, assignment)]).run()
    print(report.summary())
"""

import importlib
import sys
from typing import Any, Callable, List, Mapping, Sequence, Tuple

__version__ = "1.0.0"


def lazy_exports(
    package: str, table: Mapping[str, Sequence[str]]
) -> Tuple[Callable[[str], Any], Callable[[], List[str]], List[str]]:
    """A package's PEP 562 ``__getattr__`` and ``__dir__``, and its
    ``__all__``, from ``table`` (``{module: names it exports}``).

    A name is imported from its module on first access and then kept in
    the package's namespace, so ``import package`` loads none of the
    modules and ``package.name`` pays only for the module behind it.
    Usage, at the end of the package's ``__init__``::

        __getattr__, __dir__, __all__ = lazy_exports(__name__, {...})
    """
    owner = {name: module for module, names in table.items() for name in names}
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str) -> Any:
        module = owner.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module), name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(owner))

    return __getattr__, __dir__, sorted(owner)


__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.cluster": (
            "Cluster",
            "DistanceLevel",
            "NetworkTopography",
            "Node",
            "Rack",
            "ResourceSchema",
            "ResourceVector",
            "WorkerSlot",
            "emulab_testbed",
            "heterogeneous_cluster",
            "single_rack_cluster",
            "uniform_cluster",
        ),
        "repro.errors": (
            "ConfigError",
            "InsufficientResourcesError",
            "ReproError",
            "SchedulingError",
            "SimulationError",
            "TopologyValidationError",
        ),
        "repro.nimbus": ("Nimbus", "StormConfig", "Supervisor"),
        "repro.scheduler": (
            "AnielloOfflineScheduler",
            "Assignment",
            "DefaultScheduler",
            "DistanceWeights",
            "GlobalState",
            "IScheduler",
            "RStormScheduler",
            "TaskOrderingStrategy",
            "evaluate_assignment",
        ),
        "repro.simulation": (
            "SimulationConfig",
            "SimulationReport",
            "SimulationRun",
            "Simulator",
            "StatisticServer",
        ),
        "repro.topology": (
            "ExecutionProfile",
            "Task",
            "Topology",
            "TopologyBuilder",
            "bfs_component_order",
        ),
    },
)
__all__ += ["__version__"]
