"""Parallel, cached execution of experiment work units.

The experiments decompose into independent *work units*.  Units are
declarative and picklable: they carry :class:`FactorySpec` recipes
(module-level callable + arguments) rather than live clusters or
topologies, so they can cross process boundaries, and they are frozen
dataclasses whose fields *are* their cache key
(:func:`repro.experiments.cache.cache_key`; fields declared with
``compare=False``, i.e. ``label``, stay out of it).

Two unit kinds cover the whole suite:

* :class:`SimulationUnit` — place, then run the discrete-event
  simulator; returns a
  :class:`~repro.experiments.harness.SingleRunOutcome`.  Its optional
  layers (Nimbus configuration, faults, elastic scaling, tenancy) are
  fields, and the fields that are set choose the wiring — so the
  figures, ``traffic``, ``protection``, ``chaos``, ``elastic`` and
  ``tenants`` all run one code path, and layers compose in one unit.
* :class:`ScheduleUnit` — schedule only, evaluate placement quality and
  the analytical flow-model prediction; returns a
  :class:`ScheduleOutcome` (the scalability sweep — the DES would take
  minutes per point at those scales).

:func:`run_units` executes a batch: cache hits return instantly, misses
fan out over a :class:`concurrent.futures.ProcessPoolExecutor` when
``jobs > 1`` (or run inline otherwise), and fresh results are written
back to the cache.

:class:`ExperimentContext` bundles the ``jobs``/cache policy and is what
the CLI threads into every experiment's ``run(..., context=...)``.
"""

from __future__ import annotations

import concurrent.futures
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.experiments.cache import ResultCache, cache_key
from repro.nimbus.nimbus import Nimbus

if TYPE_CHECKING:
    from repro.experiments.harness import SingleRunOutcome, Wiring
    from repro.nimbus.tenancy import Tenant
    from repro.scheduler.assignment import Assignment
    from repro.scheduler.quality import ScheduleQuality
    from repro.simulation.config import SimulationConfig

__all__ = [
    "FactorySpec",
    "spec",
    "SimulationUnit",
    "ScheduleUnit",
    "ScheduleOutcome",
    "run_units",
    "ExperimentContext",
]


@dataclass(frozen=True)
class FactorySpec:
    """A picklable recipe for building one object.

    ``fn`` must be an importable module-level callable (class or
    function); ``args``/``kwargs`` must be stable-tokenisable (see
    :func:`repro.experiments.cache.stable_token`).  Keeping recipes
    instead of instances is what lets units cross process boundaries and
    hash deterministically.
    """

    fn: Callable[..., Any]
    args: Tuple[Any, ...] = ()
    kwargs: Tuple[Tuple[str, Any], ...] = ()

    def build(self) -> Any:
        return self.fn(*self.args, **dict(self.kwargs))


def spec(fn: Callable[..., Any], *args: Any, **kwargs: Any) -> FactorySpec:
    """Convenience constructor: ``spec(micro_topology, "linear", "compute")``."""
    return FactorySpec(fn, args, tuple(sorted(kwargs.items())))


@dataclass(frozen=True)
class SimulationUnit:
    """One DES run: place the topologies on the cluster, then simulate.

    The optional layers are fields, and the fields that are set choose
    the wiring: see :func:`~repro.experiments.harness.wire`, which takes
    the same names.  Here ``faults`` and the topologies inside
    ``submissions`` are :class:`FactorySpec` recipes, and ``storm`` is a
    tuple of ``(key, value)`` pairs, so the unit stays hashable.

    Every field but ``label`` feeds the cache key.
    ``trial`` distinguishes repeats of otherwise-identical work;
    ``label`` is presentational only (``compare=False``), so identical
    work shared between experiments (fig9 and fig10 simulate the exact
    same runs) hits the same entry.
    """

    scheduler: FactorySpec
    topologies: Tuple[FactorySpec, ...]
    cluster: FactorySpec
    config: SimulationConfig
    interrack_uplink_mbps: Optional[float] = None
    storm: Tuple[Tuple[str, Any], ...] = ()
    faults: Optional[FactorySpec] = None
    tenants: Tuple[Tenant, ...] = ()
    submissions: Tuple[Tuple[int, str, FactorySpec], ...] = ()
    rounds: int = 8
    trial: int = 0
    label: str = field(default="", compare=False)

    def wire(self) -> Wiring:
        """Build the recipes and wire the run, without starting it."""
        from repro.experiments.harness import wire

        return wire(
            self.scheduler.build(),
            [t.build() for t in self.topologies],
            self.cluster.build(),
            self.config,
            interrack_uplink_mbps=self.interrack_uplink_mbps,
            storm=self.storm,
            faults=self.faults.build() if self.faults is not None else None,
            tenants=self.tenants,
            submissions=[
                (due, tenant_id, topology.build())
                for due, tenant_id, topology in self.submissions
            ],
            rounds=self.rounds,
        )

    def execute(self) -> SingleRunOutcome:
        wiring = self.wire()
        outcome = wiring.outcome(wiring.run.run())
        # The run is over.  Its pending events hold bound methods and
        # closures that reference the run, so dropping them lets
        # reference counting free the run as this frame returns.
        wiring.run.sim.heap.clear()
        return outcome


@dataclass(frozen=True)
class ScheduleOutcome:
    """Everything measured for one schedule-only unit."""

    scheduler: str
    assignments: Dict[str, Assignment]
    qualities: Dict[str, ScheduleQuality]
    #: flow-model steady-state prediction, tuples/s per topology
    predicted_tps: Dict[str, float]


@dataclass(frozen=True)
class ScheduleUnit:
    """Schedule (one :class:`Nimbus` round, as :func:`wire` places) +
    evaluate + flow-model predict, without the DES.

    Used where simulation is unaffordable: the scalability sweep
    (analytical throughput on clusters the DES would chew minutes on).
    """

    scheduler: FactorySpec
    topologies: Tuple[FactorySpec, ...]
    cluster: FactorySpec
    label: str = field(default="", compare=False)

    def execute(self) -> ScheduleOutcome:
        from repro.analysis.flow import FlowModel
        from repro.experiments.harness import placement_qualities

        scheduler = self.scheduler.build()
        topologies = [t.build() for t in self.topologies]
        cluster = self.cluster.build()
        nimbus = Nimbus(cluster, scheduler=scheduler)
        for topology in topologies:
            nimbus.submit_topology(topology)
        assignments = nimbus.schedule_round().assignments
        placements = [
            (t, assignments[t.topology_id]) for t in topologies
        ]
        qualities = placement_qualities(topologies, assignments, cluster)
        flow = FlowModel(cluster).solve(placements)
        return ScheduleOutcome(
            scheduler=scheduler.name,
            assignments=assignments,
            qualities=qualities,
            predicted_tps=dict(flow.topology_throughput_tps),
        )


def _execute_unit(unit: Any) -> Any:
    """Module-level worker entry point (must be picklable by reference)."""
    return unit.execute()


def run_units(
    units: Sequence[Any],
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
) -> List[Any]:
    """Execute ``units``, in input order, with caching and fan-out.

    Args:
        units: Work units: frozen dataclasses exposing ``execute()``,
            keyed by their fields (see :func:`cache_key`).
        jobs: Worker processes for cache misses.  ``1`` runs inline
            (no subprocesses at all); ``N > 1`` uses a process pool.
        cache: Optional :class:`ResultCache`; hits skip execution
            entirely and fresh results are stored back.

    Returns:
        One outcome per unit, aligned with the input order.
    """
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    results: List[Any] = [None] * len(units)
    pending: List[int] = []
    keys: Dict[int, str] = {}
    for i, unit in enumerate(units):
        if cache is not None:
            key = cache_key(unit)
            keys[i] = key
            hit = cache.get(key)
            if hit is not None:
                results[i] = hit
                continue
        pending.append(i)
    if pending:
        if jobs > 1 and len(pending) > 1:
            with concurrent.futures.ProcessPoolExecutor(
                max_workers=min(jobs, len(pending))
            ) as pool:
                outcomes = list(
                    pool.map(
                        _execute_unit,
                        [units[i] for i in pending],
                        chunksize=1,
                    )
                )
        else:
            outcomes = [units[i].execute() for i in pending]
        for i, outcome in zip(pending, outcomes):
            results[i] = outcome
            if cache is not None:
                cache.put(keys[i], outcome)
    return results


@dataclass
class ExperimentContext:
    """Execution policy threaded through every experiment's ``run``.

    The default — sequential, uncached — reproduces the historical
    behaviour exactly, so library callers and tests that never mention a
    context are unaffected.
    """

    jobs: int = 1
    cache: Optional[ResultCache] = None

    def run(self, units: Sequence[Any]) -> List[Any]:
        return run_units(units, jobs=self.jobs, cache=self.cache)
