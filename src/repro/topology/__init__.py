"""Storm programming model: components, groupings, topologies, tasks."""

from repro import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.topology.builder": ("BoltDeclarer", "SpoutDeclarer", "TopologyBuilder"),
        "repro.topology.component": (
            "Bolt",
            "Component",
            "ExecutionProfile",
            "Spout",
            "StreamSubscription",
        ),
        "repro.topology.grouping": (
            "AllGrouping",
            "FieldsGrouping",
            "GlobalGrouping",
            "Grouping",
            "LocalOrShuffleGrouping",
            "ShuffleGrouping",
        ),
        "repro.topology.task": ("Task", "task_label"),
        "repro.topology.topology": ("Topology",),
        "repro.topology.traversal": (
            "bfs_component_order",
            "dfs_component_order",
            "topological_component_order",
        ),
    },
)
