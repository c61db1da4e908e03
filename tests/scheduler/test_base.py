"""Tests for the IScheduler contract and diagnostics wrapper."""

import pytest

from repro.cluster import emulab_testbed
from repro.scheduler.base import IScheduler, SchedulingRound
from repro.scheduler.rstorm import RStormScheduler
from tests.conftest import make_linear


class TestRunWrapper:
    def test_run_measures_latency_and_new_tasks(self):
        cluster = emulab_testbed()
        topology = make_linear(parallelism=2, stages=2)
        round_info = RStormScheduler().run([topology], cluster)
        assert isinstance(round_info, SchedulingRound)
        assert round_info.scheduler == "r-storm"
        assert round_info.newly_scheduled["chain"] == 4
        assert round_info.topologies == ["chain"]

    def test_run_counts_only_new_placements(self):
        cluster = emulab_testbed()
        topology = make_linear(parallelism=2, stages=2)
        scheduler = RStormScheduler()
        first = scheduler.run([topology], cluster)
        second = scheduler.run(
            [topology], cluster, first.assignments
        )
        assert second.newly_scheduled["chain"] == 0

    def test_abstract_schedule_required(self):
        class Incomplete(IScheduler):
            pass

        with pytest.raises(TypeError):
            Incomplete()

    def test_round_repr_mentions_scheduler(self):
        cluster = emulab_testbed()
        round_info = RStormScheduler().run(
            [make_linear(parallelism=1, stages=2)], cluster
        )
        assert "r-storm" in repr(round_info)
