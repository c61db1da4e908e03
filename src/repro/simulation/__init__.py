"""Discrete-event Storm runtime simulator."""

from repro.simulation.config import SimulationConfig
from repro.simulation.engine import Simulator
from repro.simulation.export import report_as_dict
from repro.simulation.metrics import StatisticServer
from repro.simulation.network import TransferModel
from repro.simulation.report import LatencyStats, SimulationReport
from repro.simulation.runtime import SimulationRun
from repro.simulation.tracing import EventKind, TraceEvent, Tracer

__all__ = [
    "EventKind",
    "LatencyStats",
    "SimulationConfig",
    "SimulationReport",
    "SimulationRun",
    "Simulator",
    "StatisticServer",
    "TraceEvent",
    "Tracer",
    "TransferModel",
    "report_as_dict",
]
