"""Topology components: spouts and bolts.

A component is a logical processing operator (Section 2 of the paper).
Besides the Storm programming-model attributes (parallelism, stream
subscriptions), components carry:

* a per-task **resource demand** set through the paper's user API
  (``set_memory_load`` / ``set_cpu_load`` / ``set_bandwidth_load``,
  mirroring Section 5.2's ``setMemoryLoad`` / ``setCPULoad``), consumed by
  the scheduler; and
* an **execution profile** (per-tuple CPU cost, selectivity, tuple size,
  spout emit batching), consumed by the discrete-event simulator.

The two are deliberately separate: the demand is what the *user declares*,
the profile is what the code *actually does*.  Experiments that feed the
scheduler wrong declarations (or none) are how the paper's default-Storm
baseline behaves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.cluster.resources import ResourceVector
from repro.errors import TopologyValidationError
from repro.topology.grouping import Grouping, ShuffleGrouping

__all__ = [
    "ExecutionProfile",
    "StreamSubscription",
    "Component",
    "Spout",
    "Bolt",
    "DEFAULT_MEMORY_LOAD_MB",
    "DEFAULT_CPU_LOAD",
]

#: Storm's defaults when the user declares nothing: 128 MB on-heap memory
#: and 10 CPU points per task (see Apache Storm's RAS defaults, which grew
#: out of this paper).
DEFAULT_MEMORY_LOAD_MB = 128.0
DEFAULT_CPU_LOAD = 10.0


@dataclass(frozen=True)
class ExecutionProfile:
    """What a task actually does per tuple, for the simulator.

    Attributes:
        cpu_ms_per_tuple: CPU milliseconds consumed per input tuple on a
            node with 100 CPU points per core (a full core).  Spouts spend
            this per *emitted* tuple.
        output_ratio: Tuples emitted per tuple consumed (bolt
            selectivity); ignored for spouts and for terminal bolts.
        tuple_bytes: Serialised size of each emitted tuple on the wire.
        emit_batch_tuples: Tuples a spout emits per batch (simulation
            granularity; larger batches simulate faster but coarser).
        max_rate_tps: Optional cap on a spout's emission rate in tuples
            per second per task; ``None`` means "as fast as possible",
            which is how the paper's benchmarks run.
    """

    cpu_ms_per_tuple: float = 0.01
    output_ratio: float = 1.0
    tuple_bytes: int = 128
    emit_batch_tuples: int = 100
    max_rate_tps: Optional[float] = None

    def __post_init__(self) -> None:
        if self.cpu_ms_per_tuple < 0:
            raise ValueError("cpu_ms_per_tuple must be >= 0")
        if self.output_ratio < 0:
            raise ValueError("output_ratio must be >= 0")
        if self.tuple_bytes <= 0:
            raise ValueError("tuple_bytes must be positive")
        if self.emit_batch_tuples <= 0:
            raise ValueError("emit_batch_tuples must be positive")
        if self.max_rate_tps is not None and self.max_rate_tps <= 0:
            raise ValueError("max_rate_tps must be positive when set")


@dataclass(frozen=True)
class StreamSubscription:
    """A bolt's subscription to one upstream component's output stream."""

    source: str
    grouping: Grouping


class Component:
    """Base class for spouts and bolts.

    Use :class:`~repro.topology.builder.TopologyBuilder` rather than
    instantiating components directly; the builder wires subscriptions and
    validates the result.
    """

    kind = "component"

    def __init__(
        self,
        name: str,
        parallelism: int = 1,
        profile: Optional[ExecutionProfile] = None,
    ):
        if not name:
            raise TopologyValidationError("component name must be non-empty")
        if parallelism < 1:
            raise TopologyValidationError(
                f"component {name!r}: parallelism must be >= 1, "
                f"got {parallelism}"
            )
        self.name = name
        self.parallelism = parallelism
        self.profile = profile or ExecutionProfile()
        self._memory_load_mb = DEFAULT_MEMORY_LOAD_MB
        self._cpu_load = DEFAULT_CPU_LOAD
        self._bandwidth_load_mbps = 0.0
        self._custom_demand: Optional[ResourceVector] = None
        self.subscriptions: List[StreamSubscription] = []

    # -- the paper's user API (Section 5.2) --------------------------------

    def set_memory_load(self, amount_mb: float) -> "Component":
        """Declare per-task memory demand in megabytes (hard constraint)."""
        if amount_mb < 0:
            raise ValueError("memory load must be >= 0")
        self._memory_load_mb = float(amount_mb)
        return self

    def set_cpu_load(self, amount: float) -> "Component":
        """Declare per-task CPU demand in points (100 = one full core)."""
        if amount < 0:
            raise ValueError("CPU load must be >= 0")
        self._cpu_load = float(amount)
        return self

    def set_bandwidth_load(self, amount_mbps: float) -> "Component":
        """Declare per-task bandwidth demand in Mbps (soft constraint).

        The paper folds bandwidth into the network-distance term rather
        than exposing a setter, but the formulation (Section 4) treats it
        as a first-class soft dimension, so we expose it.
        """
        if amount_mbps < 0:
            raise ValueError("bandwidth load must be >= 0")
        self._bandwidth_load_mbps = float(amount_mbps)
        return self

    def set_profile(self, profile: ExecutionProfile) -> "Component":
        """Attach the simulation execution profile."""
        self.profile = profile
        return self

    def set_resource_demand(self, demand: ResourceVector) -> "Component":
        """Declare the per-task demand as an arbitrary resource vector.

        The paper notes the formulation "can easily be generalized to
        model ... a n-dimensional vector residing in R^n"; this setter is
        that generalisation — pass a vector in any schema (e.g. one with
        a hard GPU dimension) and the scheduler's distance function
        consumes it directly.  Overrides the memory/CPU/bandwidth loads.
        """
        self._custom_demand = demand
        return self

    # -- derived ------------------------------------------------------------

    @property
    def memory_load_mb(self) -> float:
        return self._memory_load_mb

    @property
    def cpu_load(self) -> float:
        return self._cpu_load

    def resource_demand(self) -> ResourceVector:
        """Per-task demand vector.

        A custom vector set via :meth:`set_resource_demand` wins;
        otherwise the standard Storm memory/CPU/bandwidth loads apply.
        """
        if self._custom_demand is not None:
            return self._custom_demand
        return ResourceVector.of(
            memory_mb=self._memory_load_mb,
            cpu=self._cpu_load,
            bandwidth_mbps=self._bandwidth_load_mbps,
        )

    @property
    def resident_memory_mb(self) -> float:
        """Actual memory footprint of one task — what the simulator's
        thrash model charges against physical memory."""
        if self._custom_demand is not None:
            return self._custom_demand.get("memory_mb", 0.0)
        return self._memory_load_mb

    def clone(self, parallelism: Optional[int] = None) -> "Component":
        """An independent copy, optionally at a different parallelism.

        Used by :meth:`Topology.with_parallelism` so elastic rescaling
        never mutates the components of the topology it scaled from.
        Groupings are shared (they are stateless templates; the runtime
        instantiates per-edge state via ``Grouping.fresh()``).
        """
        if parallelism is None:
            parallelism = self.parallelism
        dup = self.__class__(self.name, parallelism, self.profile)
        dup._memory_load_mb = self._memory_load_mb
        dup._cpu_load = self._cpu_load
        dup._bandwidth_load_mbps = self._bandwidth_load_mbps
        dup._custom_demand = self._custom_demand
        dup.subscriptions = list(self.subscriptions)
        return dup

    @property
    def is_spout(self) -> bool:
        return self.kind == "spout"

    @property
    def is_bolt(self) -> bool:
        return self.kind == "bolt"

    def __repr__(self) -> str:
        return (
            f"{self.__class__.__name__}({self.name!r}, "
            f"parallelism={self.parallelism})"
        )


class Spout(Component):
    """A stream source.  Spouts have no subscriptions."""

    kind = "spout"


class Bolt(Component):
    """A stream consumer/transformer.  Bolts subscribe to one or more
    upstream streams via groupings."""

    kind = "bolt"

    def subscribe(
        self, source: str, grouping: Optional[Grouping] = None
    ) -> "Bolt":
        """Subscribe this bolt to ``source``'s output stream."""
        if any(sub.source == source for sub in self.subscriptions):
            raise TopologyValidationError(
                f"bolt {self.name!r} already subscribes to {source!r}"
            )
        self.subscriptions.append(
            StreamSubscription(source, grouping or ShuffleGrouping())
        )
        return self
