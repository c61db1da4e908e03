"""Analytical models complementing the discrete-event simulator."""

from repro import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.analysis.flow": ("FlowModel", "FlowResult"),
    },
)
