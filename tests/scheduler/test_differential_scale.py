"""Differential test of R-Storm at a scale where its node heaps matter.

``RStormScheduler`` chooses nodes from lazy per-demand min-heaps: many
placements per node leave stale entries behind, and once no node can
cover a demand without over-committing CPU the scheduler falls back
from the uncommitted tier to the hard-feasible tier.  The clusters of
``test_differential.py`` are too small and uniform for either to
happen, so this test runs the frozen ``ReferenceRStormScheduler`` and
the production scheduler on a 4-rack x 16-node cluster of two capacity
classes, with CPU tight enough that the uncommitted tier runs dry
partway through a topology, and requires identical assignments.
"""

import pytest

from repro.cluster.builders import heterogeneous_cluster
from repro.cluster.resources import ResourceVector
from repro.errors import SchedulingError
from repro.scheduler.rstorm import RStormScheduler
from repro.topology.builder import TopologyBuilder

from tests.scheduler.reference_impls import ReferenceRStormScheduler
from tests.scheduler.test_differential import as_map

BIG = ResourceVector.of(memory_mb=8192.0, cpu=300.0, bandwidth_mbps=1000.0)
SMALL = ResourceVector.of(memory_mb=4096.0, cpu=100.0, bandwidth_mbps=100.0)


def make_cluster():
    """4 racks x 16 nodes; racks alternate which class comes first."""
    return heterogeneous_cluster(
        [
            [BIG if (r + i) % 3 == 0 else SMALL for i in range(16)]
            for r in range(4)
        ]
    )


def pipeline(name, layers):
    """A linear pipeline of ``(parallelism, memory_mb, cpu, mbps)``
    layers; equal demands in different layers share one heap."""
    builder = TopologyBuilder(name)
    previous = None
    for k, (parallelism, memory, cpu, mbps) in enumerate(layers):
        component = f"c{k}"
        if previous is None:
            declarer = builder.set_spout(component, parallelism)
        else:
            declarer = builder.set_bolt(component, parallelism)
            declarer.shuffle_grouping(previous)
        declarer.set_memory_load(memory).set_cpu_load(cpu)
        declarer.set_bandwidth_load(mbps)
        previous = component
    return builder.build()


def topologies():
    """Three pipelines; the second alone needs more CPU than is left
    uncommitted, so it over-commits after its first placements."""
    return [
        pipeline("warm", [(20, 512, 40, 10), (30, 256, 55, 5), (10, 1024, 40, 10)]),
        pipeline("hot", [(40, 384, 60, 20), (60, 200, 75, 0), (40, 384, 60, 20)]),
        pipeline("cool", [(16, 700, 20, 30), (24, 128, 35, 1)]),
    ]


def total_cpu(topology):
    return sum(topology.task_demand(t)["cpu"] for t in topology.tasks)


def schedule_both(config, tops, existing=None, clusters=None):
    opt_cluster, ref_cluster = clusters or (make_cluster(), make_cluster())
    got = RStormScheduler(**config).schedule(tops, opt_cluster, existing)
    want = ReferenceRStormScheduler(**config).schedule(tops, ref_cluster, existing)
    assert as_map(got) == as_map(want)
    return got, opt_cluster, ref_cluster


CONFIGS = [
    {},
    dict(prefer_no_overcommit=False),
    dict(normalise_gaps=False),
    dict(use_network_distance=False),
    dict(best_effort=True),
]


@pytest.mark.parametrize(
    "config", CONFIGS, ids=lambda c: ",".join(c) or "default"
)
def test_identical_through_tier_switch_and_resume(config):
    tops = topologies()
    capacity = sum(n.capacity["cpu"] for n in make_cluster().nodes)
    assert total_cpu(tops[0]) < capacity < total_cpu(tops[0]) + total_cpu(tops[1])

    first, opt_cluster, ref_cluster = schedule_both(config, tops)
    # Over-commit really happened: some node's CPU is overdrawn.
    assert min(n.available["cpu"] for n in opt_cluster.nodes) < 0

    # Resume: fail the most-loaded node; its tasks are re-placed around
    # each topology's anchored ref node.
    loads = {}
    for assignment in first.values():
        for task in assignment.tasks:
            node_id = assignment.node_of(task)
            loads[node_id] = loads.get(node_id, 0) + 1
    victim = max(sorted(loads), key=lambda n: loads[n])
    opt_cluster.fail_node(victim)
    ref_cluster.fail_node(victim)
    second, _, _ = schedule_both(
        config, tops, first, clusters=(opt_cluster, ref_cluster)
    )
    moved = sum(1 for a in first.values() for t in a.tasks if a.node_of(t) == victim)
    assert moved > 0
    for assignment in second.values():
        assert victim not in assignment.nodes


def test_best_effort_partial_identical():
    """A memory-hungry fourth topology runs out of hard capacity: the
    best-effort partial assignments agree, and without best effort both
    sides reject the round."""
    tops = topologies() + [pipeline("hungry", [(80, 3000, 10, 0)])]
    got, _, _ = schedule_both(dict(best_effort=True), tops)
    hungry = got["hungry"]
    assert 0 < len(hungry.tasks) < 80
    with pytest.raises(SchedulingError):
        RStormScheduler().schedule(tops, make_cluster())
    with pytest.raises(SchedulingError):
        ReferenceRStormScheduler().schedule(tops, make_cluster())
