"""Discrete-event Storm runtime simulator."""

from repro import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.simulation.config": ("SimulationConfig",),
        "repro.simulation.engine": ("Simulator",),
        "repro.simulation.export": ("report_as_dict",),
        "repro.simulation.metrics": ("StatisticServer",),
        "repro.simulation.network": ("TransferModel",),
        "repro.simulation.report": ("LatencyStats", "SimulationReport"),
        "repro.simulation.runtime": ("SimulationRun",),
        "repro.simulation.tracing": ("EventKind", "TraceEvent", "Tracer"),
    },
)
