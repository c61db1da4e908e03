"""Tests for the Aniello et al. offline baseline scheduler."""

import pytest

from repro.cluster import emulab_testbed
from repro.errors import TopologyValidationError
from repro.scheduler.aniello import AnielloOfflineScheduler
from repro.scheduler.default import DefaultScheduler
from repro.scheduler.quality import evaluate_assignment
from repro.topology.builder import TopologyBuilder
from tests.conftest import make_linear


class TestAniello:
    def test_complete_assignment(self):
        cluster = emulab_testbed()
        topology = make_linear(parallelism=4, stages=3)
        assignment = AnielloOfflineScheduler().schedule([topology], cluster)[
            "chain"
        ]
        assert assignment.is_complete(topology)

    def test_rejects_cyclic_topologies(self):
        """The DEBS'13 offline scheduler only handles acyclic topologies —
        the limitation the paper calls out — even one already placed."""
        builder = TopologyBuilder("cyclic")
        builder.set_spout("s", 1)
        builder.set_bolt("a", 1).shuffle_grouping("s").shuffle_grouping("b")
        builder.set_bolt("b", 1).shuffle_grouping("a")
        topology = builder.build()
        cluster = emulab_testbed()
        with pytest.raises(TopologyValidationError):
            AnielloOfflineScheduler().schedule([topology], cluster)
        placed = DefaultScheduler().schedule([topology], cluster)
        assert placed["cyclic"].is_complete(topology)
        with pytest.raises(TopologyValidationError):
            AnielloOfflineScheduler().schedule([topology], cluster, placed)

    def test_better_locality_than_nothing_worse_than_rstorm(self):
        from repro.scheduler.rstorm import RStormScheduler

        topology = make_linear(parallelism=4, stages=3, memory_mb=256, cpu=20)
        c1, c2 = emulab_testbed(), emulab_testbed()
        aniello = AnielloOfflineScheduler().schedule([topology], c1)["chain"]
        rstorm = RStormScheduler().schedule([topology], c2)["chain"]
        aq = evaluate_assignment(topology, aniello, c1)
        rq = evaluate_assignment(topology, rstorm, c2)
        assert rq.mean_network_distance <= aq.mean_network_distance

    def test_workers_limit(self):
        cluster = emulab_testbed()
        topology = make_linear(parallelism=4, stages=3)
        scheduler = AnielloOfflineScheduler(workers_per_topology=4)
        assignment = scheduler.schedule([topology], cluster)["chain"]
        assert len(assignment.slots) == 4

    def test_invalid_workers_rejected(self):
        with pytest.raises(ValueError):
            AnielloOfflineScheduler(workers_per_topology=0)

    def test_existing_assignment_preserved(self):
        cluster = emulab_testbed()
        topology = make_linear(parallelism=2, stages=2)
        scheduler = AnielloOfflineScheduler()
        first = scheduler.schedule([topology], cluster)["chain"]
        second = scheduler.schedule([topology], cluster, {"chain": first})[
            "chain"
        ]
        assert second == first

    def test_consecutive_linearised_tasks_on_consecutive_slots(self):
        cluster = emulab_testbed()
        topology = make_linear(parallelism=1, stages=4)
        scheduler = AnielloOfflineScheduler(workers_per_topology=2)
        assignment = scheduler.schedule([topology], cluster)["chain"]
        # 4 tasks over 2 workers: stage-0,stage-2 on one; stage-1,stage-3 on other
        slots = [assignment.slot_of(t) for t in sorted(topology.tasks, key=lambda t: t.component)]
        assert slots[0] == slots[2]
        assert slots[1] == slots[3]
