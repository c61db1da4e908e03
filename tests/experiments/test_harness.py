"""Tests for the experiment harness."""

import pytest

from repro.cluster import emulab_testbed
from repro.experiments.harness import (
    ExperimentResult,
    format_table,
    wire,
)
from repro.scheduler.rstorm import RStormScheduler
from repro.simulation.config import SimulationConfig
from tests.conftest import make_linear


class TestExperimentResult:
    def test_rows_and_format(self):
        result = ExperimentResult("x", "title")
        result.add_row(topology="linear", value=1.5)
        result.add_row(topology="star", value=2.0)
        text = result.format()
        assert "x: title" in text
        assert "linear" in text and "star" in text

    def test_row_value_lookup(self):
        result = ExperimentResult("x", "t")
        result.add_row(kind="a", value=1)
        result.add_row(kind="b", value=2)
        assert result.row_value({"kind": "b"}, "value") == 2
        with pytest.raises(KeyError):
            result.row_value({"kind": "c"}, "value")

    def test_series_and_notes(self):
        result = ExperimentResult("x", "t")
        result.add_series("a", [(0.0, 1), (10.0, 2)])
        result.note("hello")
        text = result.format(include_series=True)
        assert "series a" in text
        assert "note: hello" in text


class TestFormatTable:
    def test_empty(self):
        assert format_table([]) == "(no rows)"

    def test_alignment_and_missing_cells(self):
        text = format_table([{"a": 1, "b": "xy"}, {"a": 22}])
        lines = text.splitlines()
        assert lines[0].startswith("a")
        assert len(lines) == 4


class TestWire:
    def test_returns_report_quality_and_latency(self):
        topology = make_linear(parallelism=2, stages=2)
        wiring = wire(
            RStormScheduler(),
            [topology],
            emulab_testbed(),
            SimulationConfig(duration_s=25.0, warmup_s=5.0),
        )
        # a plain run is placed by one Nimbus round, attaches no loop
        # and installs no tracer
        assert wiring.monitor is None and wiring.run.observer is None
        outcome = wiring.outcome(wiring.run.run())
        assert len(wiring.nimbus.rounds) == 1
        assert outcome.scheduler == "r-storm"
        assert outcome.throughput("chain") > 0
        assert outcome.qualities["chain"].nodes_used >= 1
