"""The heap key of R-Storm's node selection is the paper's distance.

``RStormScheduler`` keeps its candidate nodes in min-heaps keyed by
:meth:`RStormScheduler._packed_distance`, a flat-array restatement of
:meth:`RStormScheduler.distance` (the executable specification of the
Distance procedure in Algorithm 4).  Assignments stay byte-identical to
the reference only if the two agree bit for bit, so these tests compare
``float.hex`` of both for every alive node of a cluster whose nodes
differ in capacity, carry reservations (some over-committing the soft
dimensions) and include a dead node.
"""

import pytest

from repro.cluster import Cluster, Node, Rack
from repro.cluster.resources import (
    ConstraintKind,
    ResourceDimension,
    ResourceSchema,
)
from repro.scheduler.packed import PackedClusterState
from repro.scheduler.rstorm import DistanceWeights, RStormScheduler

STORM = ResourceSchema.storm_default()

#: memory and gpu hard, as in test_differential's generalised schema
GPU = ResourceSchema(
    [
        ResourceDimension("memory_mb", ConstraintKind.HARD, "MB"),
        ResourceDimension("cpu", ConstraintKind.SOFT, "points"),
        ResourceDimension("bandwidth_mbps", ConstraintKind.SOFT, "Mbps"),
        ResourceDimension("gpu", ConstraintKind.HARD, "devices"),
    ]
)


def build_cluster(schema):
    """Three racks of mixed-size nodes with uneven reservations."""
    extra = {"gpu": 2} if schema is GPU else {}
    big = schema.vector(memory_mb=8192, cpu=400, bandwidth_mbps=1000, **extra)
    small = schema.vector(memory_mb=3072, cpu=150, bandwidth_mbps=100)
    racks = []
    for r in range(3):
        nodes = [
            Node(f"n-{r}-{i}", f"rack-{r}", big if (r + i) % 2 else small)
            for i in range(4)
        ]
        racks.append(Rack(f"rack-{r}", nodes))
    cluster = Cluster(racks)
    for k, node in enumerate(cluster.nodes):
        # k CPU-heavy reservations: later nodes over-commit CPU.
        for j in range(k % 5):
            node.reserve(
                f"t{k}-{j}",
                schema.vector(memory_mb=300.0 + 17 * j, cpu=70.0 + 3.5 * k),
            )
    cluster.fail_node("n-1-2")
    return cluster


def demands(schema):
    extra = {"gpu": 1} if schema is GPU else {}
    return [
        schema.vector(memory_mb=512, cpu=25),
        schema.vector(memory_mb=1024, cpu=133.3, bandwidth_mbps=40, **extra),
        schema.vector(memory_mb=0.0, cpu=0.0),
        schema.vector(memory_mb=2900, cpu=900, **extra),
    ]


CONFIGS = [
    ("default", STORM, {}),
    ("normalise_gaps=False", STORM, dict(normalise_gaps=False)),
    ("use_network_distance=False", STORM, dict(use_network_distance=False)),
    (
        "weights",
        STORM,
        dict(weights=DistanceWeights(memory=2.0, cpu=0.25, network=3.0)),
    ),
    ("generalised", GPU, {}),
]


@pytest.mark.parametrize(
    "schema,config", [c[1:] for c in CONFIGS], ids=[c[0] for c in CONFIGS]
)
@pytest.mark.parametrize("ref_id", ["n-0-0", "n-2-3"])
def test_heap_key_is_distance_bit_for_bit(schema, config, ref_id):
    cluster = build_cluster(schema)
    scheduler = RStormScheduler(**config)
    view = PackedClusterState(cluster)
    ref = cluster.node(ref_id)
    key = scheduler._packed_distance(view, ref)
    assert len(view.nodes) == 11
    for demand in demands(schema):
        for i, node in enumerate(view.nodes):
            want = scheduler.distance(
                node, demand, cluster.node_distance(ref_id, node.node_id)
            )
            assert key(i, demand.values).hex() == want.hex(), node.node_id


def test_cluster_exercises_overcommit_and_zero_capacity():
    """The fixture covers negative soft availability and, in the
    generalised schema, zero-capacity dimensions (normalised to 0)."""
    storm = PackedClusterState(build_cluster(STORM))
    assert min(storm.avail[STORM.index_of("cpu")]) < 0
    gpu = PackedClusterState(build_cluster(GPU))
    assert 0.0 in gpu.caps[GPU.index_of("gpu")]
