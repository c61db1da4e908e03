"""Differential tests: optimised schedulers vs frozen reference oracles.

The packed-array fast paths (``repro.scheduler.packed`` and friends) are
pure performance work — the PR's contract is that every scheduler
produces **byte-identical assignments** to the pre-optimisation
implementations.  ``reference_impls`` preserves those implementations
verbatim; these tests run both sides over fixed-seed and
property-generated scenarios (fresh clusters, concurrent topologies,
configuration sweeps, resume-after-fault rounds, generalised schemas)
and require exact equality of the resulting assignment maps.
"""

import math
import random

import pytest

from repro.cluster import Cluster, Node, Rack
from repro.cluster.builders import (
    emulab_testbed,
    heterogeneous_cluster,
    uniform_cluster,
)
from repro.nimbus.config import StormConfig
from repro.nimbus.elastic import ElasticController
from repro.nimbus.nimbus import Nimbus
from repro.simulation.config import SimulationConfig
from repro.simulation.runtime import SimulationRun
from repro.traffic.arrivals import PoissonArrivals
from repro.cluster.resources import (
    ConstraintKind,
    ResourceDimension,
    ResourceSchema,
)
from repro.errors import SchedulingError
from repro.scheduler.aniello import AnielloOfflineScheduler
from repro.scheduler.assignment import Assignment
from repro.scheduler.default import DefaultScheduler
from repro.scheduler.ordering import TaskOrderingStrategy
from repro.scheduler.rstorm import DistanceWeights, RStormScheduler
from repro.topology.builder import TopologyBuilder
from repro.topology.task import task_label
from repro.workloads.generator import TopologySpec, random_topology
from repro.workloads.micro import micro_topology

from tests.conftest import stray_reservations
from tests.scheduler.reference_impls import (
    ReferenceAnielloScheduler,
    ReferenceDefaultScheduler,
    ReferenceRStormScheduler,
)

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402

from tests.deep_search import search_settings  # noqa: E402


def as_map(assignments):
    """Assignment dict -> comparable {topology: {task_id: "node:port"}}."""
    return {
        tid: {t.task_id: str(a.slot_of(t)) for t in a.tasks}
        for tid, a in assignments.items()
    }


def small_cluster(racks=2, nodes_per_rack=3, memory=2048.0, cpu=200.0):
    schema = ResourceSchema.storm_default()
    return uniform_cluster(
        nodes_per_rack=nodes_per_rack,
        racks=racks,
        capacity=schema.vector(
            memory_mb=memory, cpu=cpu, bandwidth_mbps=100.0
        ),
    )


def run_both(make_cluster, topologies, optimised, reference, existing=None):
    """Run both schedulers on *independent but identical* clusters (each
    side mutates reservations) and return both assignment maps."""
    got = optimised.schedule(topologies, make_cluster(), existing)
    want = reference.schedule(topologies, make_cluster(), existing)
    return got, want


def assert_identical(make_cluster, topologies, optimised, reference, existing=None):
    """Both schedulers agree exactly: same assignments, or both reject
    the scenario with :class:`SchedulingError`."""
    try:
        got = optimised.schedule(topologies, make_cluster(), existing)
    except SchedulingError:
        with pytest.raises(SchedulingError):
            reference.schedule(topologies, make_cluster(), existing)
        return
    want = reference.schedule(topologies, make_cluster(), existing)
    assert as_map(got) == as_map(want)


SEEDS = (0, 1, 7, 13, 42, 99, 1234)


class TestRStormDifferential:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_random_topologies_identical(self, seed):
        topologies = [
            random_topology(seed * 10 + i, name=f"t{seed}-{i}")
            for i in range(3)
        ]

        def roomy():
            return small_cluster(
                racks=3, nodes_per_rack=4, memory=8192.0, cpu=400.0
            )

        got, want = run_both(
            roomy,
            topologies,
            RStormScheduler(),
            ReferenceRStormScheduler(),
        )
        assert as_map(got) == as_map(want)

    @pytest.mark.parametrize("kind", ["linear", "diamond", "star"])
    @pytest.mark.parametrize("profile", ["compute", "network"])
    def test_micro_topologies_on_emulab(self, kind, profile):
        topologies = [micro_topology(kind, profile)]
        got, want = run_both(
            emulab_testbed,
            topologies,
            RStormScheduler(),
            ReferenceRStormScheduler(),
        )
        assert as_map(got) == as_map(want)

    @pytest.mark.parametrize(
        "config",
        [
            dict(normalise_gaps=False),
            dict(use_network_distance=False),
            dict(prefer_no_overcommit=False),
            dict(weights=DistanceWeights(memory=2.0, cpu=0.25, network=3.0)),
            dict(ordering=TaskOrderingStrategy.DFS),
            dict(ordering=TaskOrderingStrategy.TOPOLOGICAL),
        ],
        ids=lambda c: next(iter(c)),
    )
    def test_config_sweep_identical(self, config):
        ref_config = dict(config)
        if "ordering" in ref_config:
            ref_config["ordering"] = ref_config["ordering"].value
        topologies = [
            random_topology(5, name="sweep-a"),
            random_topology(6, name="sweep-b"),
        ]

        def roomy():
            return small_cluster(
                racks=2, nodes_per_rack=4, memory=8192.0, cpu=400.0
            )

        got, want = run_both(
            roomy,
            topologies,
            RStormScheduler(**config),
            ReferenceRStormScheduler(**ref_config),
        )
        assert as_map(got) == as_map(want)

    def test_partial_fit_rejected_on_both(self):
        # Memory-starved cluster: only some tasks fit, so both sides
        # reject the round naming the same unplaced tasks, and both
        # undo the placements they had made.
        def tight():
            return small_cluster(racks=1, nodes_per_rack=2, memory=512.0)

        topologies = [random_topology(3, name="tight")]
        unassigned = []
        for scheduler in (RStormScheduler(), ReferenceRStormScheduler()):
            cluster = tight()
            with pytest.raises(SchedulingError) as info:
                scheduler.schedule(topologies, cluster)
            unassigned.append(info.value.unassigned)
            for node in cluster.nodes:
                assert node.available == node.capacity
        assert unassigned[0] == unassigned[1]
        assert 0 < len(unassigned[0]) < topologies[0].num_tasks

    def test_infeasible_raises_on_both(self):
        def tiny():
            return small_cluster(racks=1, nodes_per_rack=1, memory=32.0)

        topologies = [micro_topology("linear", "compute")]
        with pytest.raises(SchedulingError):
            RStormScheduler().schedule(topologies, tiny())
        with pytest.raises(SchedulingError):
            ReferenceRStormScheduler().schedule(topologies, tiny())

    def test_resume_after_fault_rounds_identical(self):
        """Multi-round reconciliation: schedule, fail a node, reschedule
        survivors + orphans, recover the node, schedule a new topology.
        Each side drives its own cluster; every round must agree."""
        t1 = random_topology(11, name="rounds-a")
        t2 = random_topology(12, name="rounds-b")

        def roomy():
            return small_cluster(
                racks=3, nodes_per_rack=4, memory=8192.0, cpu=400.0
            )

        opt_cluster, ref_cluster = roomy(), roomy()
        opt, ref = RStormScheduler(), ReferenceRStormScheduler()

        opt_a = opt.schedule([t1], opt_cluster)
        ref_a = ref.schedule([t1], ref_cluster)
        assert as_map(opt_a) == as_map(ref_a)

        # Fail the busiest node so some tasks genuinely need re-placement.
        loads = {}
        for task in opt_a[t1.topology_id].tasks:
            node_id = opt_a[t1.topology_id].node_of(task)
            loads[node_id] = loads.get(node_id, 0) + 1
        victim = max(sorted(loads), key=lambda n: loads[n])
        opt_cluster.fail_node(victim)
        ref_cluster.fail_node(victim)

        opt_b = opt.schedule([t1, t2], opt_cluster, opt_a)
        ref_b = ref.schedule([t1, t2], ref_cluster, ref_a)
        assert as_map(opt_b) == as_map(ref_b)
        for task in opt_b[t1.topology_id].tasks:
            assert opt_b[t1.topology_id].node_of(task) != victim

        opt_cluster.recover_node(victim)
        ref_cluster.recover_node(victim)
        t3 = random_topology(13, name="rounds-c")
        opt_c = opt.schedule([t1, t2, t3], opt_cluster, opt_b)
        ref_c = ref.schedule([t1, t2, t3], ref_cluster, ref_b)
        assert as_map(opt_c) == as_map(ref_c)

    def test_generalised_schema_identical(self):
        schema = ResourceSchema(
            [
                ResourceDimension("memory_mb", ConstraintKind.HARD, "MB"),
                ResourceDimension("cpu", ConstraintKind.SOFT, "points"),
                ResourceDimension("bandwidth_mbps", ConstraintKind.SOFT, "Mbps"),
                ResourceDimension("gpu", ConstraintKind.HARD, "devices"),
            ]
        )

        def make_cluster():
            nodes = [
                Node(
                    f"gpu-{i}",
                    "rack-0",
                    schema.vector(
                        memory_mb=4096, cpu=200, bandwidth_mbps=100, gpu=2
                    ),
                )
                for i in range(2)
            ] + [
                Node(
                    f"cpu-{i}",
                    "rack-1",
                    schema.vector(
                        memory_mb=4096, cpu=200, bandwidth_mbps=100, gpu=0
                    ),
                )
                for i in range(2)
            ]
            return Cluster(
                [Rack("rack-0", nodes[:2]), Rack("rack-1", nodes[2:])]
            )

        builder = TopologyBuilder("ml-pipeline")
        spout = builder.set_spout("frames", 2)
        spout.component.set_resource_demand(
            schema.vector(memory_mb=512, cpu=25)
        )
        infer = builder.set_bolt("inference", 2)
        infer.shuffle_grouping("frames")
        infer.component.set_resource_demand(
            schema.vector(memory_mb=1024, cpu=50, gpu=1)
        )
        sink = builder.set_bolt("sink", 2)
        sink.shuffle_grouping("inference")
        sink.component.set_resource_demand(
            schema.vector(memory_mb=256, cpu=10)
        )
        topology = builder.build()

        got, want = run_both(
            make_cluster,
            [topology],
            RStormScheduler(),
            ReferenceRStormScheduler(),
        )
        assert as_map(got) == as_map(want)


class TestBaselineSchedulersDifferential:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_default_identical(self, seed):
        topologies = [
            random_topology(seed * 10 + i, name=f"d{seed}-{i}")
            for i in range(2)
        ]
        got, want = run_both(
            small_cluster,
            topologies,
            DefaultScheduler(),
            ReferenceDefaultScheduler(),
        )
        assert as_map(got) == as_map(want)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_aniello_identical(self, seed):
        topologies = [
            random_topology(seed * 10 + i, name=f"a{seed}-{i}")
            for i in range(2)
        ]
        got, want = run_both(
            small_cluster,
            topologies,
            AnielloOfflineScheduler(),
            ReferenceAnielloScheduler(),
        )
        assert as_map(got) == as_map(want)

    @pytest.mark.parametrize(
        "opt_cls,ref_cls",
        [
            (DefaultScheduler, ReferenceDefaultScheduler),
            (AnielloOfflineScheduler, ReferenceAnielloScheduler),
        ],
        ids=["default", "aniello"],
    )
    def test_resume_after_fault_identical(self, opt_cls, ref_cls):
        t1 = random_topology(21, name="base-rounds")
        opt_cluster, ref_cluster = small_cluster(), small_cluster()
        opt, ref = opt_cls(), ref_cls()
        opt_a = opt.schedule([t1], opt_cluster)
        ref_a = ref.schedule([t1], ref_cluster)
        assert as_map(opt_a) == as_map(ref_a)
        victim = opt_a[t1.topology_id].nodes[0]
        opt_cluster.fail_node(victim)
        ref_cluster.fail_node(victim)
        opt_b = opt.schedule([t1], opt_cluster, opt_a)
        ref_b = ref.schedule([t1], ref_cluster, ref_a)
        assert as_map(opt_b) == as_map(ref_b)

    def test_workers_per_topology_identical(self):
        topologies = [random_topology(31, name="workers")]
        got, want = run_both(
            small_cluster,
            topologies,
            DefaultScheduler(workers_per_topology=3),
            ReferenceDefaultScheduler(workers_per_topology=3),
        )
        assert as_map(got) == as_map(want)


class TestElasticDisabledDifferential:
    """A StormConfig that merely *carries* ``nimbus.elastic.*`` keys
    (with ``enabled`` false) must not perturb any scheduler: assignments
    stay byte-identical to the frozen oracles even with an
    :class:`ElasticController` attached to a live overloaded run."""

    #: Non-default elastic knobs everywhere — only ``enabled`` matters.
    ELASTIC_DISABLED = {
        "nimbus.elastic.enabled": False,
        "nimbus.elastic.interval.secs": 5.0,
        "nimbus.elastic.target.utilisation": 0.6,
        "nimbus.elastic.hysteresis": 0.1,
        "nimbus.elastic.max.parallelism": 32,
        "nimbus.elastic.scale.down.patience": 1,
    }

    SCHEDULER_PAIRS = (
        (RStormScheduler, ReferenceRStormScheduler),
        (DefaultScheduler, ReferenceDefaultScheduler),
        (AnielloOfflineScheduler, ReferenceAnielloScheduler),
    )

    @pytest.mark.parametrize("seed", SEEDS)
    def test_schedule_through_nimbus_identical(self, seed):
        """Scheduling via a Nimbus whose config carries disabled elastic
        keys matches the reference oracle for every scheduler."""
        topologies = [
            random_topology(seed * 10 + i, name=f"e{seed}-{i}")
            for i in range(2)
        ]

        def roomy():
            return small_cluster(
                racks=3, nodes_per_rack=4, memory=8192.0, cpu=400.0
            )

        for opt_cls, ref_cls in self.SCHEDULER_PAIRS:
            nimbus = Nimbus(
                roomy(),
                scheduler=opt_cls(),
                config=StormConfig(dict(self.ELASTIC_DISABLED)),
            )
            for topology in topologies:
                nimbus.submit_topology(topology)
            nimbus.schedule_round()
            want = ref_cls().schedule(topologies, roomy())
            assert as_map(dict(nimbus.assignments)) == as_map(want)

    @pytest.mark.parametrize(
        "opt_cls,ref_cls", SCHEDULER_PAIRS,
        ids=["r-storm", "default", "aniello"],
    )
    def test_disabled_controller_never_acts(self, opt_cls, ref_cls):
        """Attach the controller to a run overloaded enough that, if
        enabled, it *would* scale (1.5x offered): with ``enabled`` false
        it commits nothing and the assignments that come out of the run
        still match the oracle exactly."""
        topologies = [micro_topology("linear", "compute")]
        nimbus = Nimbus(
            emulab_testbed(),
            scheduler=opt_cls(),
            config=StormConfig(dict(self.ELASTIC_DISABLED)),
        )
        for topology in topologies:
            nimbus.submit_topology(topology)
        nimbus.schedule_round()
        before = as_map(dict(nimbus.assignments))

        run = SimulationRun(
            nimbus.cluster,
            [
                (t, nimbus.assignments[t.topology_id])
                for t in topologies
            ],
            SimulationConfig(
                duration_s=25.0,
                warmup_s=5.0,
                arrival_process=PoissonArrivals(rate_tps=375.0),
            ),
        )
        controller = ElasticController(nimbus)
        controller.attach(run)
        run.run()

        assert controller.decisions == []
        assert controller.tasks_moved == 0
        assert as_map(dict(nimbus.assignments)) == before
        want = ref_cls().schedule(topologies, emulab_testbed())
        assert as_map(dict(nimbus.assignments)) == as_map(want)


#: tier-1 example counts of the hypothesis sweeps below (together
#: about 0.4 s on a 2-vCPU VM); CI's deep search runs this file again
#: under the ``des-oracle`` profile (about 5 s)
RSTORM_EXAMPLES = 40
BASELINE_EXAMPLES = 25

#: weights drawn per term from a small exact grid (zero, powers of two
#: and 3).  With the capacity and demand grids of
#: ``test_rstorm_matches_reference``, every gap on a uniform cluster is
#: a multiple of 1/16 (normalised) or an integer, so the sums of squares
#: in the keys are exact and equal keys across network rings occur; the
#: two-class cluster's 1.5x CPU still draws gaps whose products round
WEIGHTS = st.builds(
    DistanceWeights,
    memory=st.sampled_from([0.0, 0.5, 1.0, 3.0]),
    cpu=st.sampled_from([0.0, 1.0, 3.0, 4.0]),
    network=st.sampled_from([0.0, 0.25, 1.0]),
)

#: per-task demands from grids that divide the node capacities drawn
#: in ``test_rstorm_matches_reference``
EXACT_SPEC = TopologySpec(
    max_layers=3,
    max_width=2,
    max_parallelism=4,
    memory_choices_mb=(128.0, 256.0, 512.0),
    cpu_choices=(0.0, 25.0, 50.0, 100.0),
)


class TieWatchingReference(ReferenceRStormScheduler):
    """The oracle, also counting the choices whose minimum key is shared
    by nodes at different network distances from the ref node (cross-
    ring ties), how many of those the farther node won, and how many it
    won at its ring's bound ``sqrt(w_net * d)``: the case the ``>=`` of
    R-Storm's ring-join test exists for."""

    def __init__(self, **options):
        super().__init__(**options)
        self.cross_ring_ties = 0
        self.far_wins = 0
        self.bound_ties = 0
        self._keyed = []

    def _select_node(self, cluster, demand, ref_node):
        self._keyed = []
        chosen = super()._select_node(cluster, demand, ref_node)
        if self._keyed and self.use_network_distance:
            best = min(key for key, _, _ in self._keyed)
            nets = {
                node_id: net for key, net, node_id in self._keyed
                if key == best
            }
            if len(set(nets.values())) > 1:
                self.cross_ring_ties += 1
                far = nets[chosen.node_id]
                if far > min(nets.values()):
                    self.far_wins += 1
                    if best == math.sqrt(self.weights.network * far):
                        self.bound_ties += 1
        return chosen

    def distance(self, node, demand, net_distance):
        key = super().distance(node, demand, net_distance)
        self._keyed.append((key, net_distance, node.node_id))
        return key


def two_class_cluster(racks, nodes_per_rack, memory, cpu):
    """Like :func:`small_cluster`, but every other node is a bigger
    machine, so capacity-normalised gaps differ between nodes."""
    schema = ResourceSchema.storm_default()
    small = schema.vector(memory_mb=memory, cpu=cpu, bandwidth_mbps=100.0)
    big = schema.vector(
        memory_mb=2 * memory, cpu=1.5 * cpu, bandwidth_mbps=1000.0
    )
    return heterogeneous_cluster(
        [
            [big if (r + i) % 2 else small for i in range(nodes_per_rack)]
            for r in range(racks)
        ]
    )


def partial_assignment(make_cluster, topology, keep_every):
    """A live assignment of ``topology`` with some tasks missing: place
    it with the reference scheduler on a cluster of its own, then keep
    every ``keep_every``-th task.  Returns None if nothing was placed."""
    placed = ReferenceRStormScheduler(best_effort=True).schedule(
        [topology], make_cluster()
    )[topology.topology_id]
    kept = {
        task: placed.slot_of(task)
        for k, task in enumerate(placed.tasks)
        if k % keep_every == 0
    }
    if not kept:
        return None
    return {topology.topology_id: Assignment(topology.topology_id, kept)}


class TestPropertyDifferential:
    """Hypothesis sweeps with fixed seeds (derandomised so CI is stable)."""

    @given(
        racks=st.integers(min_value=1, max_value=3),
        nodes_per_rack=st.integers(min_value=1, max_value=4),
        memory=st.sampled_from([1024.0, 2048.0]),
        cpu=st.sampled_from([100.0, 200.0]),
        seeds=st.lists(
            st.integers(min_value=0, max_value=10_000),
            min_size=1,
            max_size=3,
        ),
        prefer=st.booleans(),
        two_classes=st.booleans(),
        failed=st.none() | st.integers(min_value=0, max_value=11),
        normalise=st.booleans(),
        network=st.booleans(),
        weights=st.just(DistanceWeights()) | WEIGHTS,
        keep_every=st.none() | st.integers(min_value=1, max_value=3),
    )
    @search_settings(RSTORM_EXAMPLES, derandomize=True)
    def test_rstorm_matches_reference(
        self,
        racks,
        nodes_per_rack,
        memory,
        cpu,
        seeds,
        prefer,
        two_classes,
        failed,
        normalise,
        network,
        weights,
        keep_every,
    ):
        """Both sides agree over uniform and two-class clusters, with
        one node failed or none, every distance option and weighting,
        and with or without a live partial assignment of the first
        topology (the resume path that anchors on its busiest node)."""
        topologies = [
            random_topology(seed, spec=EXACT_SPEC, name=f"h{i}-{seed}")
            for i, seed in enumerate(seeds)
        ]
        build = two_class_cluster if two_classes else small_cluster

        def make_cluster():
            cluster = build(
                racks=racks,
                nodes_per_rack=nodes_per_rack,
                memory=memory,
                cpu=cpu,
            )
            if failed is not None:
                nodes = cluster.nodes
                cluster.fail_node(nodes[failed % len(nodes)].node_id)
            return cluster

        existing = None
        if keep_every is not None:
            existing = partial_assignment(
                make_cluster, topologies[0], keep_every
            )
        options = dict(
            weights=weights,
            normalise_gaps=normalise,
            use_network_distance=network,
            prefer_no_overcommit=prefer,
        )
        opt = RStormScheduler(**options)
        ref = TieWatchingReference(**options)
        assert_identical(make_cluster, topologies, opt, ref, existing)
        if ref.cross_ring_ties:
            hypothesis.event("cross-ring key tie")
        if ref.far_wins:
            hypothesis.event("cross-ring tie won by the farther node")
        if ref.bound_ties:
            hypothesis.event(
                "cross-ring tie won by the farther node at its ring's bound"
            )

    @given(
        racks=st.integers(min_value=1, max_value=3),
        nodes_per_rack=st.integers(min_value=1, max_value=4),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @search_settings(BASELINE_EXAMPLES, derandomize=True)
    def test_baselines_match_reference(self, racks, nodes_per_rack, seed):
        spec = TopologySpec(max_layers=3, max_width=2, max_parallelism=4)
        topologies = [random_topology(seed, spec=spec, name=f"b-{seed}")]

        def make_cluster():
            return small_cluster(racks=racks, nodes_per_rack=nodes_per_rack)

        for opt, ref in (
            (DefaultScheduler(), ReferenceDefaultScheduler()),
            (AnielloOfflineScheduler(), ReferenceAnielloScheduler()),
        ):
            got, want = run_both(make_cluster, topologies, opt, ref)
            assert as_map(got) == as_map(want)


class TestTenancyDisabledDifferential:
    """A StormConfig with non-default ``nimbus.tenancy.*`` keys and no
    :class:`~repro.nimbus.tenancy.TenancyController` wired must not
    perturb any scheduler: topologies submitted straight to Nimbus get
    assignments byte-identical to the frozen oracles."""

    #: Non-default tenancy knobs everywhere — none is read until a
    #: controller is wired.
    TENANCY_KEYS = {
        "nimbus.tenancy.headroom": 0.8,
        "nimbus.tenancy.credit.accrual": 2.5,
        "nimbus.tenancy.credit.bias": 0.2,
        "nimbus.tenancy.preemption.enabled": False,
        "nimbus.tenancy.max.preemptions": 7,
    }

    SCHEDULER_PAIRS = (
        (RStormScheduler, ReferenceRStormScheduler),
        (DefaultScheduler, ReferenceDefaultScheduler),
        (AnielloOfflineScheduler, ReferenceAnielloScheduler),
    )

    @pytest.mark.parametrize("seed", SEEDS)
    def test_submit_without_controller_identical(self, seed):
        """Assignments match the reference oracle for every scheduler."""
        topologies = [
            random_topology(seed * 10 + i, name=f"t{seed}-{i}")
            for i in range(2)
        ]

        def roomy():
            return small_cluster(
                racks=3, nodes_per_rack=4, memory=8192.0, cpu=400.0
            )

        for opt_cls, ref_cls in self.SCHEDULER_PAIRS:
            nimbus = Nimbus(
                roomy(),
                scheduler=opt_cls(),
                config=StormConfig(dict(self.TENANCY_KEYS)),
            )
            for topology in topologies:
                nimbus.submit_topology(topology)
            nimbus.schedule_round()
            assert nimbus.tenancy is None
            want = ref_cls().schedule(topologies, roomy())
            assert as_map(dict(nimbus.assignments)) == as_map(want)


class TestRingBoundTie:
    """R-Storm grows each distance heap ring by ring and lets a farther
    ring join while the heap's minimum is ``>=`` the ring's bound
    ``sqrt(w_net * d)``.  Here an other-rack node's key equals that
    bound and the same-rack minimum exactly, and it has the lower node
    id, so it must win the tie: a ``>`` join test would miss it."""

    WEIGHTS = DistanceWeights(memory=0.0, cpu=3.0, network=1.0)

    @staticmethod
    def make_cluster():
        schema = ResourceSchema.storm_default()
        free = schema.vector(memory_mb=1024.0, cpu=100.0, bandwidth_mbps=100.0)
        no_cpu = schema.vector(memory_mb=1024.0, cpu=0.0, bandwidth_mbps=100.0)
        # rack-1 is the most available rack, so its first node anchors.
        return Cluster(
            [
                Rack("rack-0", [Node("node-0-0", "rack-0", no_cpu)]),
                Rack(
                    "rack-1",
                    [
                        Node("node-1-0", "rack-1", free),
                        Node("node-1-1", "rack-1", free),
                    ],
                ),
            ]
        )

    @staticmethod
    def topology():
        # Each task fills a node's memory, so the second cannot join the
        # anchor; with no CPU demand the free same-rack node keys
        # sqrt(3 * 1 + 1 * 1) = 2, and node-0-0, whose CPU availability
        # equals the demand, keys sqrt(0 + 1 * 4) = 2.
        builder = TopologyBuilder("tie")
        spout = builder.set_spout("s", 2)
        spout.set_memory_load(1024.0).set_cpu_load(0.0)
        return builder.build()

    @pytest.mark.parametrize("prefer", [True, False])
    def test_outer_node_wins_the_tie_on_its_lower_id(self, prefer):
        topology = self.topology()
        options = dict(
            weights=self.WEIGHTS,
            normalise_gaps=True,
            prefer_no_overcommit=prefer,
        )
        got, want = run_both(
            self.make_cluster,
            [topology],
            RStormScheduler(**options),
            ReferenceRStormScheduler(**options),
        )
        assert as_map(got) == as_map(want)
        nodes = sorted(
            slot.split(":")[0] for slot in as_map(got)["tie"].values()
        )
        assert nodes == ["node-0-0", "node-1-0"]


#: per-task demands that are not binary fractions, so the order in which
#: a node's reservations are subtracted shows in the last bit of its
#: availability
FAILOVER_SPEC = TopologySpec(
    memory_choices_mb=(100.7, 133.3, 201.1, 317.9),
    cpu_choices=(3.3, 7.1, 12.9, 21.7),
)


def failover_cluster():
    """4 racks x 16 nodes of about 1 GB: the four topologies of each
    seed below need 12-28 GB, so 8 nodes cannot hold them."""
    schema = ResourceSchema.storm_default()
    return uniform_cluster(
        nodes_per_rack=16,
        racks=4,
        capacity=schema.vector(
            memory_mb=1000.3, cpu=100.7, bandwidth_mbps=100.0
        ),
    )


def reference_nimbus_round(cluster, topologies, assignments, scheduler):
    """One Nimbus round as it ran before rounds reused kept assignments:
    every assignment is copied down to its alive nodes, each lost
    placement's reservation is released in task order, and the frozen
    oracle schedules the rest.

    A round that raises is all or nothing.  The oracle undoes only the
    failing topology's placements, so every other reservation that no
    live placement owns is released after it, node by node in the order
    it was made."""
    alive = {node.node_id for node in cluster if node.alive}
    live = {}
    for topo_id, assignment in assignments.items():
        surviving = Assignment(
            topo_id,
            {
                task: slot
                for task, slot in assignment.as_dict().items()
                if slot.node_id in alive
            },
        )
        live[topo_id] = surviving
        for task in assignment.tasks:
            node_id = assignment.node_of(task)
            if surviving.has(task) or not cluster.has_node(node_id):
                continue
            node = cluster.node(node_id)
            if node.has_reservation(task_label(task)):
                node.release(task_label(task))
    try:
        return scheduler.schedule(topologies, cluster, live)
    except SchedulingError:
        owned = {
            (assignment.node_of(task), task_label(task))
            for assignment in live.values()
            for task in assignment.tasks
        }
        for node in cluster.nodes:
            for label in list(node.reservations):
                if node.alive and (node.node_id, label) not in owned:
                    node.release(label)
        raise


def _round_outcome(call):
    """``(assignments, outcome)``: a round's assignments and their
    comparable map, or None and the :class:`SchedulingError` the round
    raised (any other error fails the test)."""
    try:
        assignments = call()
    except SchedulingError as err:
        return None, f"{type(err).__name__}: {err}"
    return assignments, as_map(assignments)


def _availability(cluster):
    return {
        node.node_id: [value.hex() for value in node.available.values]
        for node in cluster.nodes
    }


def _missing_reservations(cluster, assignments):
    """Live placements on alive nodes that hold no reservation: the ones
    the next round's state rebuild re-applies."""
    return sum(
        1
        for assignment in assignments.values()
        for task in assignment.tasks
        if cluster.node(assignment.node_of(task)).alive
        and not cluster.node(assignment.node_of(task)).has_reservation(
            task_label(task)
        )
    )


class TestFailoverRoundsDifferential:
    """Nimbus with R-Storm against the frozen oracle over seeded
    fail/recover rounds.  Most rounds flip three nodes; every eighth
    loses all but 8 nodes, which leaves too little memory, and two
    rounds later every node is back.  A failed round keeps the old
    assignments, so after the recovery the state rebuild re-applies the
    reservations of the placements on the recovered nodes.  After every
    round both sides must agree on the outcome and on every node's
    availability, bit for bit, and no alive node may hold a reservation
    that Nimbus's assignments do not place on it."""

    ROUNDS = 24

    @pytest.mark.parametrize("seed", (0, 1, 2))
    def test_rounds_match_reference(self, seed):
        rng = random.Random(seed)
        topologies = [
            random_topology(seed * 10 + i, spec=FAILOVER_SPEC, name=f"f{i}")
            for i in range(4)
        ]
        nimbus = Nimbus(failover_cluster(), scheduler=RStormScheduler())
        for topology in topologies:
            nimbus.submit_topology(topology)
        ref_cluster = failover_cluster()
        ref_assignments = {}
        reference = ReferenceRStormScheduler()
        node_ids = [node.node_id for node in ref_cluster.nodes]
        failed_rounds = reapplied = 0
        for round_no in range(self.ROUNDS):
            if round_no % 8 == 4:
                # an outage too large to re-place ...
                changes = [(n, False) for n in rng.sample(node_ids, 56)]
            elif round_no % 8 == 6:
                # ... until every node is back
                changes = [(n, True) for n in node_ids]
            elif round_no:
                changes = [
                    (n, rng.random() < 0.5) for n in rng.sample(node_ids, 3)
                ]
            else:
                changes = []
            for cluster in (nimbus.cluster, ref_cluster):
                for node_id, alive in changes:
                    if alive:
                        cluster.node(node_id).recover()
                    else:
                        cluster.node(node_id).fail()
            reapplied += _missing_reservations(ref_cluster, ref_assignments)
            _, got = _round_outcome(
                lambda: nimbus.schedule_round().assignments
            )
            placed, want = _round_outcome(
                lambda: reference_nimbus_round(
                    ref_cluster, topologies, ref_assignments, reference
                )
            )
            assert got == want, f"round {round_no}"
            assert _availability(nimbus.cluster) == _availability(
                ref_cluster
            ), f"round {round_no}"
            assert not stray_reservations(nimbus), f"round {round_no}"
            if placed is None:
                failed_rounds += 1
            else:
                ref_assignments = placed
        # the seeds reach both a failed round and the re-applying rebuild
        assert failed_rounds and reapplied
