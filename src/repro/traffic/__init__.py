"""Open-loop traffic generation: arrival processes, key skew, traces.

See ``docs/traffic.md``.  The package is consumed through
``SimulationConfig``: set ``arrival_process`` (and optionally
``arrival_keys``) and the runtime switches the topology's spouts from
closed-loop self-pacing to externally offered load.
"""

from repro import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.traffic.arrivals": (
            "ArrivalProcess",
            "BurstOverlay",
            "DeterministicArrivals",
            "DiurnalArrivals",
            "MMPPArrivals",
            "PoissonArrivals",
            "derive_stream_seed",
        ),
        "repro.traffic.keys": ("KeyGenerator", "UniformKeys", "ZipfKeys"),
        "repro.traffic.percentiles": ("TailDigest",),
        "repro.traffic.trace": ("ArrivalTrace", "TraceReplay"),
    },
)
