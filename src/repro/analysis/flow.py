"""Analytical steady-state flow model.

A fast, closed-form-ish complement to the discrete-event simulator:
given placements, it predicts steady-state throughput by propagating
tuple rates through the topology DAG and scaling them down until every
shared resource fits its capacity.

The model captures the first-order effects the scheduling comparison
depends on:

* **single-thread ceilings** — one task processes at most
  ``1 / cpu_ms_per_tuple`` tuples per second;
* **node CPU** — co-located tasks share ``cores`` worth of CPU, with
  serde surcharges on tuples arriving from other worker processes;
* **NIC bandwidth** — per-node transmit and receive byte budgets;
* **the inter-rack uplink** — a shared byte budget per rack pair;
* **memory thrash** — a node whose resident memory exceeds physical
  capacity divides its effective CPU by the thrash factor.

It deliberately ignores latency, queueing and acker credit dynamics, so
it *over*-estimates latency-bound workloads; use the DES when those
matter.  Its role here is bottleneck attribution and quick what-if
sweeps (it evaluates a placement in microseconds instead of seconds).

Solution method: start from each spout's offered rate (its rate cap, or
its single-core ceiling), then repeatedly find the most-overloaded
resource and scale down the rates of every topology that uses it until
all constraints hold (within a small tolerance).  This is a standard
iterative bottleneck-scaling scheme; it converges because every step
reduces some topology's scale and scales are bounded below by zero.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, NamedTuple, Optional, Sequence, Tuple

from repro.cluster.cluster import Cluster
from repro.cluster.network import DistanceLevel
from repro.errors import SimulationError
from repro.scheduler.assignment import Assignment
from repro.simulation.config import SimulationConfig
from repro.topology.grouping import AllGrouping, GlobalGrouping
from repro.topology.task import Task
from repro.topology.topology import Topology

__all__ = ["Bottleneck", "FlowResult", "FlowModel"]

#: Stand-in offered rate for uncapped spouts before CPU ceilings apply.
_UNBOUNDED_TPS = 1e12

#: Convergence tolerance on resource over-utilisation.
_TOLERANCE = 1e-6

_MAX_ITERATIONS = 10_000


class Bottleneck(NamedTuple):
    """The resource whose overload last cut a topology's scale: its
    ``kind`` (``cpu``, ``task`` for a single-thread ceiling, ``tx``,
    ``rx`` or ``uplink``), the node id, :class:`Task` or frozenset of
    two rack ids it names, and its load over capacity then."""

    kind: str
    resource: object
    factor: float

    @property
    def description(self) -> str:
        """The same for people, e.g. ``"CPU on node-0-0"``."""
        if self.kind == "cpu":
            return f"CPU on {self.resource}"
        if self.kind == "task":
            return f"single-thread ceiling of {self.resource}"
        if self.kind == "uplink":
            return f"inter-rack uplink {sorted(self.resource)}"
        return f"NIC {self.kind} on {self.resource}"


@dataclass
class FlowResult:
    """Steady-state prediction for one set of placements."""

    #: tuples/s processed per task
    task_rates: Dict[Task, float]
    #: tuples/s entering each (topology, component)
    component_rates: Dict[Tuple[str, str], float]
    #: tuples/s absorbed by each topology's sinks
    topology_throughput_tps: Dict[str, float]
    #: per-topology final scale factor (1.0 = offered load fully served)
    scales: Dict[str, float]
    #: each topology's binding constraint; None while offered load binds
    bottlenecks: Dict[str, Optional[Bottleneck]]
    #: node id -> predicted CPU utilisation (0..1)
    node_cpu_utilisation: Dict[str, float]
    #: node id -> predicted NIC utilisation, max of tx and rx (0..1)
    node_nic_utilisation: Dict[str, float]
    #: frozenset({rack_a, rack_b}) -> predicted uplink utilisation
    uplink_utilisation: Dict[frozenset, float]

    def throughput_per_window(self, topology_id: str, window_s: float = 10.0) -> float:
        """Predicted sink tuples per metrics window (the paper's unit)."""
        return self.topology_throughput_tps.get(topology_id, 0.0) * window_s


class FlowModel:
    """Evaluate placements analytically.

    Args:
        cluster: Supplies capacities and the topography.
        config: Only ``serde_ms_per_tuple`` and ``thrash_factor`` are
            consulted.
        interrack_uplink_mbps: Shared rack-pair capacity; defaults to the
            same 10x-NIC rule as :class:`~repro.simulation.network.TransferModel`.
    """

    def __init__(
        self,
        cluster: Cluster,
        config: Optional[SimulationConfig] = None,
        interrack_uplink_mbps: Optional[float] = None,
    ):
        self.cluster = cluster
        self.config = config or SimulationConfig()
        topo = cluster.topography
        nic = topo.bandwidth_mbps(DistanceLevel.INTER_RACK)
        if interrack_uplink_mbps is not None:
            self.uplink_mbps = interrack_uplink_mbps
        else:
            self.uplink_mbps = 10.0 * nic if nic else None
        self.nic_mbps = topo.bandwidth_mbps(DistanceLevel.INTER_NODE)

    # -- public API ---------------------------------------------------------

    def solve(
        self, placements: Sequence[Tuple[Topology, Assignment]]
    ) -> FlowResult:
        """Predict steady-state rates for the given placements."""
        for topology, assignment in placements:
            if not assignment.is_complete(topology):
                raise SimulationError(
                    f"assignment for {topology.topology_id!r} is incomplete"
                )
        scales = {t.topology_id: 1.0 for t, _ in placements}
        bottlenecks: Dict[str, Optional[Bottleneck]] = dict.fromkeys(scales)

        for _ in range(_MAX_ITERATIONS):
            usage = self._usage_at(placements, scales)
            worst = self._most_overloaded(usage)
            if worst is None:
                break
            involved = usage.contributors[(worst.kind, worst.resource)]
            for topo_id in involved:
                share = 1.0 / worst.factor
                if scales[topo_id] * share < scales[topo_id]:
                    scales[topo_id] *= share
                    bottlenecks[topo_id] = worst
        else:  # pragma: no cover - defensive
            raise SimulationError("flow model failed to converge")

        usage = self._usage_at(placements, scales)
        throughput = {}
        for topology, assignment in placements:
            sink_rate = 0.0
            for sink in topology.sinks:
                sink_rate += usage.component_rates[
                    (topology.topology_id, sink.name)
                ]
            throughput[topology.topology_id] = sink_rate

        cpu_utilisation = {}
        for node in self.cluster.nodes:
            load = usage.node_cpu.get(node.node_id)
            if load is None:
                continue
            cpu_utilisation[node.node_id] = load / node.cores
        nic_bps = self.nic_mbps * 1e6 / 8.0 if self.nic_mbps else None
        nic_utilisation = {}
        for node_id in set(usage.node_tx) | set(usage.node_rx):
            peak = max(
                usage.node_tx.get(node_id, 0.0), usage.node_rx.get(node_id, 0.0)
            )
            nic_utilisation[node_id] = peak / nic_bps if nic_bps else 0.0
        uplink_bps = (
            self.uplink_mbps * 1e6 / 8.0 if self.uplink_mbps else None
        )
        uplink_utilisation = {
            key: (bps / uplink_bps if uplink_bps else 0.0)
            for key, bps in usage.uplink.items()
        }
        return FlowResult(
            task_rates=usage.task_rates,
            component_rates=usage.component_rates,
            topology_throughput_tps=throughput,
            scales=scales,
            bottlenecks=bottlenecks,
            node_cpu_utilisation=cpu_utilisation,
            node_nic_utilisation=nic_utilisation,
            uplink_utilisation=uplink_utilisation,
        )

    # -- rate propagation -----------------------------------------------------

    def _component_input_rates(
        self, topology: Topology, scale: float
    ) -> Dict[str, float]:
        """Tuples/s entering each component at the given spout scale.

        Spout "input" is defined as its emission rate.  Cyclic topologies
        are handled by fixed-point iteration with a feedback damping cap.
        """
        rates: Dict[str, float] = {}
        for spout in topology.spouts:
            cap = spout.profile.max_rate_tps
            per_task = cap if cap is not None else _UNBOUNDED_TPS
            ceiling = (
                1e3 / spout.profile.cpu_ms_per_tuple
                if spout.profile.cpu_ms_per_tuple > 0
                else _UNBOUNDED_TPS
            )
            rates[spout.name] = (
                min(per_task, ceiling) * spout.parallelism * scale
            )
        # iterate to a fixed point (topologies may be cyclic)
        for _ in range(len(topology.components) + 5):
            changed = False
            for comp in topology.components.values():
                if comp.is_spout:
                    continue
                inbound = 0.0
                for sub in comp.subscriptions:
                    producer = topology.component(sub.source)
                    produced = rates.get(sub.source, 0.0)
                    out = produced * (
                        producer.profile.output_ratio
                        if producer.is_bolt
                        else 1.0
                    )
                    if isinstance(sub.grouping, AllGrouping):
                        out *= comp.parallelism
                    inbound += out
                if not math.isclose(
                    rates.get(comp.name, -1.0), inbound, rel_tol=1e-9
                ):
                    rates[comp.name] = inbound
                    changed = True
            if not changed:
                break
        return rates

    # -- usage accounting ---------------------------------------------------------

    class _Usage:
        def __init__(self):
            self.task_rates: Dict[Task, float] = {}
            self.component_rates: Dict[Tuple[str, str], float] = {}
            self.node_cpu: Dict[str, float] = defaultdict(float)
            self.node_tx: Dict[str, float] = defaultdict(float)
            self.node_rx: Dict[str, float] = defaultdict(float)
            self.uplink: Dict[frozenset, float] = defaultdict(float)
            self.single_thread: Dict[Task, float] = {}
            #: resource key -> topology ids contributing to it
            self.contributors: Dict[object, set] = defaultdict(set)

    def _node_thrash(self, placements) -> Dict[str, float]:
        resident: Dict[str, float] = defaultdict(float)
        for topology, assignment in placements:
            for task in assignment.tasks:
                resident[assignment.node_of(task)] += topology.component(
                    task.component
                ).resident_memory_mb
        factors = {}
        for node in self.cluster.nodes:
            if (
                node.capacity.memory_mb > 0
                and resident[node.node_id] > node.capacity.memory_mb
            ):
                factors[node.node_id] = self.config.thrash_factor
            else:
                factors[node.node_id] = 1.0
        return factors

    def _usage_at(self, placements, scales) -> "_Usage":
        usage = self._Usage()
        thrash = self._node_thrash(placements)
        serde_ms = self.config.serde_ms_per_tuple
        for topology, assignment in placements:
            topo_id = topology.topology_id
            scale = scales[topo_id]
            comp_rates = self._component_input_rates(topology, scale)
            for name, rate in comp_rates.items():
                usage.component_rates[(topo_id, name)] = rate
            for task in topology.tasks:
                comp = topology.component(task.component)
                grouping_share = self._task_share(topology, task)
                rate = comp_rates[comp.name] * grouping_share
                usage.task_rates[task] = rate
                node_id = assignment.node_of(task)
                remote_frac = self._remote_input_fraction(
                    topology, assignment, task
                )
                effective_ms = (
                    comp.profile.cpu_ms_per_tuple
                    + (serde_ms * remote_frac if comp.is_bolt else 0.0)
                ) * thrash[node_id]
                usage.node_cpu[node_id] += rate * effective_ms / 1e3
                usage.single_thread[task] = rate * effective_ms / 1e3
                usage.contributors[("cpu", node_id)].add(topo_id)
                usage.contributors[("task", task)].add(topo_id)
                # outbound bytes
                self._account_transfers(usage, topology, assignment, task, rate)
        return usage

    @staticmethod
    def _task_share(topology: Topology, task: Task) -> float:
        comp = topology.component(task.component)
        if comp.is_spout:
            return 1.0 / comp.parallelism
        for sub in comp.subscriptions:
            if isinstance(sub.grouping, GlobalGrouping):
                return 1.0 if task.instance == 0 else 0.0
        return 1.0 / comp.parallelism

    def _remote_input_fraction(
        self, topology: Topology, assignment: Assignment, task: Task
    ) -> float:
        """Fraction of a task's inbound tuples arriving from other worker
        processes (pays serde)."""
        comp = topology.component(task.component)
        if comp.is_spout or not comp.subscriptions:
            return 0.0
        my_slot = assignment.slot_of(task)
        total = 0
        local = 0
        for sub in comp.subscriptions:
            for producer_task in topology.tasks_of(sub.source):
                total += 1
                if assignment.slot_of(producer_task) == my_slot:
                    local += 1
        if total == 0:
            return 0.0
        return 1.0 - local / total

    def _account_transfers(
        self, usage, topology, assignment, task, rate
    ) -> None:
        comp = topology.component(task.component)
        out_rate = rate * (comp.profile.output_ratio if comp.is_bolt else 1.0)
        if out_rate <= 0:
            return
        bytes_per_tuple = comp.profile.tuple_bytes
        src_slot = assignment.slot_of(task)
        src_node = src_slot.node_id
        topo_id = topology.topology_id
        for consumer_name in topology.downstream_of(comp.name):
            consumer = topology.component(consumer_name)
            sub = next(
                s for s in consumer.subscriptions if s.source == comp.name
            )
            copies = (
                consumer.parallelism
                if isinstance(sub.grouping, AllGrouping)
                else 1.0
            )
            stream_bps = out_rate * copies * bytes_per_tuple
            for consumer_task in topology.tasks_of(consumer_name):
                share = self._task_share(topology, consumer_task)
                if isinstance(sub.grouping, AllGrouping):
                    share = 1.0 / consumer.parallelism
                flow_bps = stream_bps * share
                dst_slot = assignment.slot_of(consumer_task)
                level = self.cluster.slot_distance_level(src_slot, dst_slot)
                if level in (
                    DistanceLevel.INTRA_PROCESS,
                    DistanceLevel.INTER_PROCESS,
                ):
                    continue
                dst_node = dst_slot.node_id
                usage.node_tx[src_node] += flow_bps
                usage.node_rx[dst_node] += flow_bps
                usage.contributors[("tx", src_node)].add(topo_id)
                usage.contributors[("rx", dst_node)].add(topo_id)
                if level is DistanceLevel.INTER_RACK:
                    key = frozenset(
                        (
                            self.cluster.node(src_node).rack_id,
                            self.cluster.node(dst_node).rack_id,
                        )
                    )
                    usage.uplink[key] += flow_bps
                    usage.contributors[("uplink", key)].add(topo_id)

    # -- bottleneck search ---------------------------------------------------------

    def _overloads(self, usage):
        """``(kind, resource, load over capacity)`` of every resource."""
        for node in self.cluster.nodes:
            load = usage.node_cpu.get(node.node_id, 0.0)
            yield "cpu", node.node_id, load / node.cores
        for task, load in usage.single_thread.items():
            yield "task", task, load
        if self.nic_mbps:
            nic_bps = self.nic_mbps * 1e6 / 8.0
            for direction, table in (("tx", usage.node_tx), ("rx", usage.node_rx)):
                for node_id, bps in table.items():
                    yield direction, node_id, bps / nic_bps
        if self.uplink_mbps:
            uplink_bps = self.uplink_mbps * 1e6 / 8.0
            for key, bps in usage.uplink.items():
                yield "uplink", key, bps / uplink_bps

    def _most_overloaded(self, usage) -> Optional[Bottleneck]:
        """The first most-overloaded resource, if any is past capacity."""
        worst = None
        for kind, resource, factor in self._overloads(usage):
            if factor > (worst.factor if worst else 1.0 + _TOLERANCE):
                worst = Bottleneck(kind, resource, factor)
        return worst
