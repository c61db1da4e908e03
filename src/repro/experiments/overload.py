"""Open-loop overload sweep ("traffic"): offered load vs what survives.

The paper's benchmarks are closed-loop, so a bad placement just runs
slower.  Under open-loop traffic a bad placement *falls behind*: queues
absorb the gap until workers die of overflow, and tail latency explodes
long before mean throughput moves.  This experiment offers the Linear
compute topology Poisson traffic from 0.5x to 2x its nominal capacity
(the ``max_rate_tps`` cap closed-loop spouts run at: 250 tuples/s per
spout task) and compares how R-Storm's packed placement and default
Storm's spread placement degrade past saturation — offered vs achieved
throughput and p50/p99/p999 end-to-end latency per operating point.

Both schedulers face *the same* arrival sample at each multiplier:
arrival streams are seeded by (seed, topology, component, task), never
by placement, so the comparison is paired, not two draws.

A second section lands the same offered load on a fields-grouped
variant with uniform vs Zipf-distributed keys: skewed keys concentrate
traffic on one hot executor, which saturates while the component-level
averages still look healthy.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from repro.cluster.builders import emulab_testbed
from repro.experiments.harness import ExperimentResult
from repro.experiments.parallel import ExperimentContext, SimulationUnit, spec
from repro.scheduler.default import DefaultScheduler
from repro.scheduler.rstorm import RStormScheduler
from repro.simulation.config import SimulationConfig
from repro.topology.builder import TopologyBuilder
from repro.topology.topology import Topology
from repro.traffic.arrivals import PoissonArrivals
from repro.traffic.keys import KeyGenerator, UniformKeys, ZipfKeys
from repro.workloads.micro import (
    _COMPUTE_PROFILE,
    _COMPUTE_RATE_TPS,
    _COMPUTE_SPOUT_PROFILE,
    linear_topology,
)

__all__ = ["run", "sweep_units", "keyed_linear_topology", "MULTIPLIERS",
           "BASE_RATE_TPS"]

#: Nominal per-spout-task capacity: the rate the closed-loop compute
#: benchmarks cap their spouts at (a quarter core at 1 ms/tuple).
BASE_RATE_TPS = _COMPUTE_RATE_TPS

#: Offered load as multiples of nominal capacity; the interesting knee
#: is between 1.0x and 1.25x.
MULTIPLIERS = (0.5, 0.75, 1.0, 1.25, 1.5, 2.0)

SCHEDULERS = (("r-storm", RStormScheduler), ("default", DefaultScheduler))

#: Key-skew section: operating point and key-space shape.  1.25x with a
#: Zipf(1.4) hot key (~1/3 of all traffic) drives one executor far past
#: its share while the uniform baseline still keeps up.
SKEW_MULTIPLIER = 1.25
SKEW_KEYS = 64
SKEW_EXPONENT = 1.4


def keyed_linear_topology(
    parallelism: int = 6, name: str = "linear-keyed"
) -> Topology:
    """The Linear compute topology with a fields-grouped first hop.

    Identical resources/profiles to ``linear_topology("compute")``, but
    spout -> bolt-1 partitions by the arrival key, so a skewed key
    generator lands unevenly across bolt-1's tasks.  Later hops stay
    shuffle-grouped (keys are per-arrival, not propagated down the
    tree).
    """
    builder = TopologyBuilder(name)
    spout = builder.set_spout(
        "spout", parallelism, profile=_COMPUTE_SPOUT_PROFILE
    )
    spout.set_memory_load(256.0).set_cpu_load(25.0)
    previous = "spout"
    for i in range(1, 4):
        bolt = builder.set_bolt(
            f"bolt-{i}", parallelism, profile=_COMPUTE_PROFILE
        )
        if i == 1:
            bolt.fields_grouping(previous)
        else:
            bolt.shuffle_grouping(previous)
        bolt.set_memory_load(256.0).set_cpu_load(25.0)
        previous = f"bolt-{i}"
    return builder.build()


def _sweep_config(duration_s: float, multiplier: float) -> SimulationConfig:
    return SimulationConfig(
        duration_s=duration_s,
        warmup_s=min(20.0, duration_s / 4),
        arrival_process=PoissonArrivals(rate_tps=BASE_RATE_TPS * multiplier),
    )


def _skew_config(
    duration_s: float, keys: KeyGenerator
) -> SimulationConfig:
    return SimulationConfig(
        duration_s=duration_s,
        warmup_s=min(20.0, duration_s / 4),
        arrival_process=PoissonArrivals(
            rate_tps=BASE_RATE_TPS * SKEW_MULTIPLIER
        ),
        arrival_keys=keys,
    )


def sweep_units(
    duration_s: float,
    multipliers: Sequence[float] = MULTIPLIERS,
):
    """The (multiplier, scheduler) grid as cacheable work units."""
    return [
        SimulationUnit(
            scheduler=spec(factory),
            topologies=(spec(linear_topology, "compute"),),
            cluster=spec(emulab_testbed),
            config=_sweep_config(duration_s, multiplier),
            label=f"traffic:{multiplier:g}x/{name}",
        )
        for multiplier in multipliers
        for name, factory in SCHEDULERS
    ]


def _skew_units(duration_s: float):
    generators: Tuple[Tuple[str, KeyGenerator], ...] = (
        ("uniform", UniformKeys(num_keys=SKEW_KEYS)),
        ("zipf", ZipfKeys(num_keys=SKEW_KEYS, exponent=SKEW_EXPONENT)),
    )
    return [
        SimulationUnit(
            scheduler=spec(RStormScheduler),
            topologies=(spec(keyed_linear_topology),),
            cluster=spec(emulab_testbed),
            config=_skew_config(duration_s, keys),
            label=f"traffic:keys/{name}",
        )
        for name, keys in generators
    ]


def run(
    duration_s: float = 120.0,
    context: Optional[ExperimentContext] = None,
    multipliers: Sequence[float] = MULTIPLIERS,
) -> ExperimentResult:
    context = context or ExperimentContext()
    result = ExperimentResult(
        experiment_id="traffic",
        title=(
            "Open-loop overload sweep: offered vs achieved throughput and "
            "end-to-end tail latency"
        ),
    )
    units = sweep_units(duration_s, multipliers) + _skew_units(duration_s)
    outcomes_by_label = dict(
        zip([u.label for u in units], context.run(units))
    )

    topo_id = "linear-compute"
    for multiplier in multipliers:
        for name, _ in SCHEDULERS:
            outcome = outcomes_by_label[f"traffic:{multiplier:g}x/{name}"]
            report = outcome.report
            latency = report.e2e_latency(topo_id)
            result.add_row(
                offered_x=multiplier,
                scheduler=name,
                offered_per_10s=round(report.offered_per_window(topo_id)),
                achieved_per_10s=round(
                    report.average_throughput_per_window(topo_id)
                ),
                achieved_ratio=round(report.achieved_ratio(topo_id), 3),
                e2e_p50_ms=round(latency.p50 * 1e3, 1),
                e2e_p99_ms=round(latency.p99 * 1e3, 1),
                e2e_p999_ms=round(latency.p999 * 1e3, 1),
                failed=report.failed(topo_id),
                crashes=report.crashes(topo_id),
            )
    # Degradation curves at the knee and deep overload.
    for multiplier in (1.0, 2.0):
        if multiplier not in multipliers:
            continue
        for name, _ in SCHEDULERS:
            outcome = outcomes_by_label[f"traffic:{multiplier:g}x/{name}"]
            result.add_series(
                f"{multiplier:g}x/{name}",
                outcome.report.throughput_series(topo_id),
            )
    if 2.0 in multipliers:
        outcome = outcomes_by_label["traffic:2x/r-storm"]
        result.add_series("2x/offered", outcome.report.offered_series(topo_id))

    keyed_id = "linear-keyed"
    zipf = ZipfKeys(num_keys=SKEW_KEYS, exponent=SKEW_EXPONENT)
    for name in ("uniform", "zipf"):
        outcome = outcomes_by_label[f"traffic:keys/{name}"]
        report = outcome.report
        latency = report.e2e_latency(keyed_id)
        result.add_row(
            offered_x=SKEW_MULTIPLIER,
            scheduler=f"r-storm/{name}-keys",
            offered_per_10s=round(report.offered_per_window(keyed_id)),
            achieved_per_10s=round(
                report.average_throughput_per_window(keyed_id)
            ),
            achieved_ratio=round(report.achieved_ratio(keyed_id), 3),
            e2e_p50_ms=round(latency.p50 * 1e3, 1),
            e2e_p99_ms=round(latency.p99 * 1e3, 1),
            e2e_p999_ms=round(latency.p999 * 1e3, 1),
            failed=report.failed(keyed_id),
            crashes=report.crashes(keyed_id),
        )
    result.note(
        "Offered load is Poisson per spout task at multiples of the "
        f"closed-loop rate cap ({BASE_RATE_TPS:g} tuples/s/task); both "
        "schedulers face identical arrival samples (streams are seeded "
        "by task identity, not placement)."
    )
    result.note(
        "Past 1x, p999 latency runs away before the achieved ratio "
        "moves.  R-Storm packs tasks to their declared capacity, so it "
        "has no headroom above 1x and degrades harder than default's "
        "spread placement — resource declarations must cover peak, not "
        "mean, load."
    )
    result.note(
        "The keyed rows offer identical load; the Zipf hot key "
        f"(~{zipf.hot_share(1):.0%} of traffic on one key) overloads a "
        "single executor, showing up as failed batches and a fatter "
        "tail than the uniform-key run at the same operating point."
    )
    return result
