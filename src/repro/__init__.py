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

from repro.cluster import (
    Cluster,
    DistanceLevel,
    NetworkTopography,
    Node,
    Rack,
    ResourceSchema,
    ResourceVector,
    WorkerSlot,
    emulab_testbed,
    heterogeneous_cluster,
    single_rack_cluster,
    uniform_cluster,
)
from repro.errors import (
    ConfigError,
    InsufficientResourcesError,
    ReproError,
    SchedulingError,
    SimulationError,
    TopologyValidationError,
)
from repro.nimbus import Nimbus, StormConfig, Supervisor
from repro.scheduler import (
    AnielloOfflineScheduler,
    Assignment,
    DefaultScheduler,
    DistanceWeights,
    GlobalState,
    IScheduler,
    RStormScheduler,
    TaskOrderingStrategy,
    evaluate_assignment,
)
from repro.simulation import (
    SimulationConfig,
    SimulationReport,
    SimulationRun,
    Simulator,
    StatisticServer,
)
from repro.topology import (
    ExecutionProfile,
    Task,
    Topology,
    TopologyBuilder,
    bfs_component_order,
)

__version__ = "1.0.0"

__all__ = [
    "AnielloOfflineScheduler",
    "Assignment",
    "Cluster",
    "ConfigError",
    "DefaultScheduler",
    "DistanceLevel",
    "DistanceWeights",
    "ExecutionProfile",
    "GlobalState",
    "IScheduler",
    "InsufficientResourcesError",
    "NetworkTopography",
    "Nimbus",
    "Node",
    "RStormScheduler",
    "Rack",
    "ReproError",
    "ResourceSchema",
    "ResourceVector",
    "SchedulingError",
    "SimulationConfig",
    "SimulationError",
    "SimulationReport",
    "SimulationRun",
    "Simulator",
    "StatisticServer",
    "StormConfig",
    "Supervisor",
    "Task",
    "TaskOrderingStrategy",
    "Topology",
    "TopologyBuilder",
    "TopologyValidationError",
    "WorkerSlot",
    "bfs_component_order",
    "emulab_testbed",
    "evaluate_assignment",
    "heterogeneous_cluster",
    "single_rack_cluster",
    "uniform_cluster",
    "__version__",
]
