"""Evaluation workloads: micro-benchmarks and Yahoo! production topologies."""

from repro import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.workloads.generator": ("TopologySpec", "random_topology"),
        "repro.workloads.micro": (
            "VARIANTS",
            "diamond_topology",
            "linear_topology",
            "micro_topology",
            "star_topology",
        ),
        "repro.workloads.yahoo": ("pageload_topology", "processing_topology"),
    },
)
