"""The benchmark's four workloads and how one repeat of each is measured.

Three workloads run registered experiments end to end (``paper-closed``,
``open-overload``, ``control-plane``); the fourth (``sched-512``) drives
R-Storm and Nimbus directly, with no DES at all.  Every repeat is closed
loop: the next operation starts when the previous one ends.

The benchmark measures the program from outside:

* experiments run through :class:`BenchContext`, an
  :class:`~repro.experiments.parallel.ExperimentContext` subclass that
  applies the seed to each unit, executes the units inline one at a
  time and times each ``unit.execute()`` between two calibration loops;
* ``sched-512`` times each of its rounds itself, calibrating per block
  of 10 rounds;
* in every workload, a wrapper around ``IScheduler.run`` counts the
  tasks each scheduling call places.

An *operation* is one work unit, or one scheduling round in
``sched-512``.  An operation fails if it raises (a raising unit loses
its whole experiment, so every unit of that experiment fails), if a
round leaves an incomplete assignment, or if its repeat's output digest
is wrong (checked by ``run.py``).
"""

from __future__ import annotations

import cProfile
import dataclasses
import hashlib
import random
import sys
import time
import traceback
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.cluster.builders import uniform_cluster
from repro.cluster.cluster import Cluster
from repro.cluster.network import (
    DEFAULT_PROFILES,
    DistanceLevel,
    LinkProfile,
    NetworkTopography,
)
from repro.cluster.resources import ResourceVector
from repro.experiments import REGISTRY
from repro.experiments.parallel import ExperimentContext, FactorySpec
from repro.nimbus.nimbus import Nimbus
from repro.scheduler.assignment import Assignment
from repro.scheduler.base import IScheduler, SchedulingRound
from repro.scheduler.rstorm import RStormScheduler
from repro.topology.task import task_label
from repro.topology.topology import Topology
from repro.workloads.micro import diamond_topology, linear_topology, star_topology

from perfbench.calibrate import calibrated, time_calibration


@dataclasses.dataclass
class Repeat:
    """What one closed-loop repeat of a workload measured."""

    #: seconds of program time, calibration loops excluded
    raw_s: float = 0.0
    #: ``raw_s`` calibrated (0.0 when the repeat ran uncalibrated)
    wall_s: float = 0.0
    #: seconds of every operation, in execution order (calibrated when
    #: the repeat is)
    op_s: List[float] = dataclasses.field(default_factory=list)
    attempted: int = 0
    #: operations that raised or left an incomplete assignment
    failed: int = 0
    #: every calibration-loop time taken during the repeat
    calib_s: List[float] = dataclasses.field(default_factory=list)
    #: output name -> sha256 of the output's canonical text
    digests: Dict[str, str] = dataclasses.field(default_factory=dict)
    #: exact counts: events, emitted, replayed, shed, offered (from the
    #: reports) and tasks_placed (from the ``IScheduler.run`` calls)
    counters: Dict[str, int] = dataclasses.field(default_factory=dict)

    def count(self, name: str, amount: int) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount


class _Timer:
    """Measures one repeat from outside the program.

    It brackets spans with calibration loops (when ``calibrate``) and
    runs them under ``profiler`` (when given), so a profile sees only
    the program, never the benchmark's loops or digests.  While entered,
    it wraps the public entry point ``IScheduler.run`` to count the
    tasks every call places.
    """

    def __init__(
        self,
        repeat: Repeat,
        ref_s: float,
        calibrate: bool,
        profiler: Optional[cProfile.Profile],
    ) -> None:
        self.repeat = repeat
        self.ref_s = ref_s
        self.calibrate = calibrate
        self.profiler = profiler
        self.last_calib = 0.0

    def __enter__(self) -> "_Timer":
        run = self._run = IScheduler.run
        repeat = self.repeat

        def counting_run(*args: Any, **kwargs: Any) -> SchedulingRound:
            info = run(*args, **kwargs)
            repeat.count("tasks_placed", sum(info.newly_scheduled.values()))
            return info

        IScheduler.run = counting_run  # type: ignore[method-assign]
        self.last_calib = self.calib()
        return self

    def __exit__(self, *exc: object) -> None:
        IScheduler.run = self._run  # type: ignore[method-assign]

    def calib(self) -> float:
        if not self.calibrate:
            return 0.0
        calib = time_calibration()
        self.repeat.calib_s.append(calib)
        return calib

    @contextmanager
    def span(self) -> Iterator[None]:
        if self.profiler is not None:
            self.profiler.enable()
        try:
            yield
        finally:
            if self.profiler is not None:
                self.profiler.disable()

    def close_block(self, raws: Sequence[float]) -> None:
        """Record ``raws`` (timed since the last loop) as operations,
        calibrated by the loops either side of them."""
        after = self.calib()
        for raw in raws:
            self.repeat.op_s.append(
                calibrated(raw, (self.last_calib, after), self.ref_s)
                if self.calibrate
                else raw
            )
        self.last_calib = after

    def finish(self, rest_raw: float) -> None:
        """Calibrated wall time of the repeat: its calibrated operations
        plus the program time outside them, calibrated by the mean of
        all the repeat's loops."""
        if self.calibrate:
            self.repeat.wall_s = sum(self.repeat.op_s) + calibrated(
                rest_raw, self.repeat.calib_s, self.ref_s
            )


def digest_text(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _report_failure(what: str) -> None:
    print(f"perfbench: {what} failed:", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


# -- experiment workloads ----------------------------------------------------


def seeded(unit: Any, seed: int) -> Any:
    """``unit`` as the benchmark runs it at ``seed``: ``trial=seed`` and
    ``config.arrival_seed=1+seed`` (seed 0 leaves every unit unchanged)."""
    return dataclasses.replace(
        unit,
        trial=seed,
        config=dataclasses.replace(unit.config, arrival_seed=1 + seed),
    )


class BenchContext(ExperimentContext):
    """Runs an experiment's units inline, seeded, one at a time, timing
    each ``unit.execute()`` between two calibration loops (the loop
    after one unit is the loop before the next)."""

    def __init__(self, seed: int, timer: _Timer) -> None:
        super().__init__(jobs=1, cache=None)
        self.seed = seed
        self.timer = timer
        #: units the experiment handed over, and their raw seconds
        self.units = 0
        self.unit_raw_s = 0.0

    def run(self, units: Sequence[Any]) -> List[Any]:
        self.units += len(units)
        repeat = self.timer.repeat
        outcomes = []
        for unit in units:
            unit = seeded(unit, self.seed)
            started = time.perf_counter()
            outcome = unit.execute()
            raw = time.perf_counter() - started
            self.unit_raw_s += raw
            self.timer.close_block((raw,))
            _count_outcome(repeat, unit, outcome)
            outcomes.append(outcome)
        return outcomes


def _count_outcome(repeat: Repeat, unit: Any, outcome: Any) -> None:
    report = outcome.report
    repeat.count("events", report.events_processed)
    for topo_id in report.topology_ids:
        repeat.count("emitted", report.emitted(topo_id))
        repeat.count("replayed", report.replayed(topo_id))
        if unit.config.flow is not None:
            repeat.count("shed", report.shed(topo_id))
            repeat.count("offered", report.offered(topo_id))


class _Collected(Exception):
    """Raised by :class:`_CollectContext` once it holds the units."""


class _CollectContext(ExperimentContext):
    """Takes the units an experiment hands over and stops it there."""

    def __init__(self) -> None:
        super().__init__()
        self.collected: List[Any] = []

    def run(self, units: Sequence[Any]) -> List[Any]:
        self.collected = list(units)
        raise _Collected


def _build_specs(value: Any) -> None:
    """Build every :class:`FactorySpec` inside a unit field."""
    if isinstance(value, FactorySpec):
        value.build()
    elif isinstance(value, tuple):
        for item in value:
            _build_specs(item)


@dataclasses.dataclass(frozen=True)
class ExperimentWorkload:
    """Registered experiments, run end to end in order."""

    name: str
    why: str
    #: ``(REGISTRY name, run() keyword arguments)``
    experiments: Tuple[Tuple[str, Tuple[Tuple[str, Any], ...]], ...]

    def build(self, seed: int) -> Any:
        """Set-up: every experiment's seeded units, with each unit's
        clusters, topologies and schedulers built once."""
        units = []
        for experiment, kwargs in self.experiments:
            context = _CollectContext()
            try:
                REGISTRY[experiment](context=context, **dict(kwargs))
            except _Collected:
                pass
            units.extend(seeded(unit, seed) for unit in context.collected)
        for unit in units:
            for field in dataclasses.fields(unit):
                _build_specs(getattr(unit, field.name))
        return units

    def repeat(
        self,
        inputs: Any,
        seed: int,
        ref_s: float,
        calibrate: bool = True,
        profiler: Optional[cProfile.Profile] = None,
    ) -> Repeat:
        # ``inputs`` goes unused: every unit builds its own inputs from
        # its recipes inside ``execute()``, as the program always does
        repeat = Repeat()
        rest_raw = 0.0
        with _Timer(repeat, ref_s, calibrate, profiler) as timer:
            for experiment, kwargs in self.experiments:
                context = BenchContext(seed, timer)
                loops_before = sum(repeat.calib_s)
                result = None
                started = time.perf_counter()
                try:
                    with timer.span():
                        result = REGISTRY[experiment](context=context, **dict(kwargs))
                except Exception:  # a failed operation: record it, keep going
                    _report_failure(f"{self.name}/{experiment}")
                program = (
                    time.perf_counter() - started - (sum(repeat.calib_s) - loops_before)
                )
                repeat.raw_s += program
                rest_raw += program - context.unit_raw_s
                operations = max(1, context.units)
                repeat.attempted += operations
                if result is None:
                    repeat.failed += operations
                    repeat.digests[experiment] = "error"
                else:
                    repeat.digests[experiment] = digest_text(
                        result.format(include_series=True)
                    )
            timer.finish(rest_raw)
        return repeat


# -- sched-512 ---------------------------------------------------------------


def sched_cluster() -> Cluster:
    """8 racks x 64 production-size nodes (16 GB, 8 cores, 1 Gbps)."""
    profiles = dict(DEFAULT_PROFILES)
    profiles[DistanceLevel.INTER_RACK] = LinkProfile(
        distance=4.0, latency_ms=0.5, bandwidth_mbps=10_000.0
    )
    profiles[DistanceLevel.INTER_NODE] = LinkProfile(
        distance=1.0, latency_ms=0.1, bandwidth_mbps=1_000.0
    )
    return uniform_cluster(
        nodes_per_rack=64,
        racks=8,
        capacity=ResourceVector.of(
            memory_mb=16_384.0, cpu=800.0, bandwidth_mbps=1_000.0
        ),
        topography=NetworkTopography(profiles),
        name="sched-512",
    )


def sched_topologies() -> List[Topology]:
    return [
        linear_topology("compute", parallelism=24, name="scale-linear-a"),
        diamond_topology("compute", branches=3, parallelism=16, name="scale-diamond-a"),
        star_topology("compute", arms=4, name="scale-star-a"),
        linear_topology("compute", parallelism=16, name="scale-linear-b"),
        diamond_topology("compute", branches=2, parallelism=12, name="scale-diamond-b"),
    ]


def _round_text(assignments: Dict[str, Assignment], moved: int) -> str:
    lines = [f"moved {moved}"]
    for topo_id in sorted(assignments):
        mapping = assignments[topo_id].as_dict()
        lines.extend(
            f"{label}={slot}"
            for label, slot in sorted(
                (task_label(task), str(slot)) for task, slot in mapping.items()
            )
        )
    return "\n".join(lines)


@dataclasses.dataclass(frozen=True)
class SchedWorkload:
    """R-Storm on the 512-node cluster: fresh whole-cluster placements,
    then incremental Nimbus rounds that each re-place one failed node's
    tasks around the kept placements."""

    name: str
    why: str
    fresh_rounds: int = 40
    replace_rounds: int = 60
    #: rounds timed between two calibration loops
    block: int = 10

    def _blocks(self, rounds: int) -> List[int]:
        whole, rest = divmod(rounds, self.block)
        return [self.block] * whole + ([rest] if rest else [])

    def build(self, seed: int) -> Any:
        """Set-up: the cluster and the five topologies."""
        return sched_cluster(), sched_topologies()

    def repeat(
        self,
        inputs: Any,
        seed: int,
        ref_s: float,
        calibrate: bool = True,
        profiler: Optional[cProfile.Profile] = None,
    ) -> Repeat:
        cluster, topologies = inputs
        scheduler = RStormScheduler()
        repeat = Repeat()
        rounds: List[str] = []
        with _Timer(repeat, ref_s, calibrate, profiler) as timer:

            def timed(call: Callable[[], SchedulingRound]) -> float:
                """Run one round; returns its raw seconds (0.0 if it failed)."""
                repeat.attempted += 1
                started = time.perf_counter()
                try:
                    with timer.span():
                        info = call()
                except Exception:  # a failed operation: record it, keep going
                    _report_failure(f"{self.name} round {repeat.attempted}")
                    repeat.failed += 1
                    rounds.append("error")
                    return 0.0
                raw = time.perf_counter() - started
                repeat.raw_s += raw
                if not all(
                    t.topology_id in info.assignments
                    and info.assignments[t.topology_id].is_complete(t)
                    for t in topologies
                ):
                    repeat.failed += 1
                rounds.append(
                    _round_text(info.assignments, sum(info.newly_scheduled.values()))
                )
                return raw

            def fresh() -> SchedulingRound:
                return scheduler.run(topologies, cluster)

            for block in self._blocks(self.fresh_rounds):
                raws = []
                for _ in range(block):
                    cluster.release_all()
                    raws.append(timed(fresh))
                timer.close_block(raws)

            cluster.release_all()
            nimbus = Nimbus(cluster, scheduler=scheduler)
            for topology in topologies:
                nimbus.submit_topology(topology)
            with timer.span():
                nimbus.schedule_round()
            # the failure order is the only input the seed changes here
            victims = random.Random(seed)
            for block in self._blocks(self.replace_rounds):
                raws = []
                for _ in range(block):
                    in_use = sorted(
                        {n for a in nimbus.assignments.values() for n in a.nodes}
                    )
                    victim = cluster.node(victims.choice(in_use))
                    victim.fail()
                    try:
                        raws.append(timed(nimbus.schedule_round))
                    finally:
                        victim.recover()
                timer.close_block(raws)
            cluster.release_all()
            repeat.digests["rounds"] = digest_text("\n\n".join(rounds))
            timer.finish(0.0)
        return repeat


WORKLOADS: Dict[str, Any] = {
    workload.name: workload
    for workload in (
        ExperimentWorkload(
            name="paper-closed",
            why=(
                "The paper's closed-loop figures 8-10, 12, 13 at 30 simulated s:"
                " the path every figure pays; DES core only, so flow, arrivals,"
                " tracer and Nimbus are bypassed."
            ),
            experiments=tuple(
                (experiment, (("duration_s", 30.0),))
                for experiment in ("fig8", "fig9", "fig10", "fig12", "fig13")
            ),
        ),
        ExperimentWorkload(
            name="open-overload",
            why=(
                "Open-loop Poisson traffic past saturation (traffic, protection"
                " at 120 s): arrivals, digest sinks and flow control on the hot"
                " path, flow on in some units and off in others."
            ),
            experiments=(
                ("traffic", (("duration_s", 120.0),)),
                ("protection", (("duration_s", 120.0),)),
            ),
        ),
        ExperimentWorkload(
            name="control-plane",
            why=(
                "Chaos with 5% loss and quarantine, elastic and tenants at 120 s:"
                " Nimbus ticks, failure detection, migration, replay, rescale,"
                " admission and the tracer over the DES."
            ),
            experiments=(
                (
                    "chaos",
                    (
                        ("duration_s", 120.0),
                        ("loss_rate", 0.05),
                        ("quarantine", True),
                    ),
                ),
                ("elastic", (("duration_s", 120.0),)),
                ("tenants", (("duration_s", 120.0),)),
            ),
        ),
        SchedWorkload(
            name="sched-512",
            why=(
                "R-Storm on a 512-node, 8-rack cluster: 40 fresh placements, then"
                " 60 Nimbus rounds each re-placing one failed node; no DES, so"
                " DES changes must not move it."
            ),
        ),
    )
}
