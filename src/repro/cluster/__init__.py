"""Cluster substrate: resources, nodes, racks, network topography.

This package models the physical environment R-Storm schedules onto — the
paper's two-rack Emulab testbed and generalisations of it.
"""

from repro import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.cluster.builders": (
            "emulab_testbed",
            "heterogeneous_cluster",
            "single_rack_cluster",
            "uniform_cluster",
        ),
        "repro.cluster.cluster": ("Cluster",),
        "repro.cluster.network": ("DistanceLevel", "LinkProfile", "NetworkTopography"),
        "repro.cluster.node": ("Node", "WorkerSlot"),
        "repro.cluster.rack": ("Rack",),
        "repro.cluster.resources": (
            "BANDWIDTH",
            "CPU",
            "MEMORY",
            "ConstraintKind",
            "ResourceDimension",
            "ResourceSchema",
            "ResourceVector",
        ),
    },
)
