"""Elastic runtime experiment: autoscaling vs static placement.

The overload sweep ("traffic") showed the failure mode of static
resource-aware placement: R-Storm packs tasks to their declared
capacity, so any offered load past 1x has nowhere to go — queues grow
until workers crash, and tail latency runs away.  This experiment
closes the loop: the same Linear compute topology faces ramping and
bursting open-loop traffic with the elastic controller
(:mod:`repro.nimbus.elastic`) either off (static baseline) or on, under
both R-Storm and default scheduling.

Three traffic scenarios, all peaking at 1.5x nominal capacity:

* ``sustained`` — Poisson at a flat 1.5x, the operating point where the
  static R-Storm placement collapses (achieved ratio ~0.66 in the
  traffic sweep);
* ``diurnal``  — a sinusoidal day compressed into the run, mean 1x and
  peak 1.5x, the canonical slow ramp;
* ``burst``    — Poisson 1x background plus periodic 0.5x burst storms,
  the flash-crowd case where adaptation speed matters most.

Reported per (scenario, configuration): offered vs achieved throughput,
p99 arrival→ack latency through the ramp, time-to-adapt (first scale
action), and executor churn (tasks moved + added + removed by the
controller — fault-driven churn would be accounted separately, see
:class:`~repro.faults.monitor.RecoveryReport`).
"""

from __future__ import annotations

from typing import Any, Optional, Tuple

from repro.cluster.builders import emulab_testbed
from repro.experiments.harness import ExperimentResult
from repro.experiments.overload import BASE_RATE_TPS
from repro.experiments.parallel import ExperimentContext, SimulationUnit, spec
from repro.scheduler.default import DefaultScheduler
from repro.scheduler.rstorm import RStormScheduler
from repro.simulation.config import SimulationConfig
from repro.traffic.arrivals import (
    ArrivalProcess,
    BurstOverlay,
    DiurnalArrivals,
    PoissonArrivals,
)
from repro.workloads.micro import linear_topology

__all__ = ["run", "scenario_units", "SCENARIOS", "CONFIGS", "PEAK_MULTIPLIER"]

#: Peak offered load, as a multiple of the closed-loop nominal rate.
PEAK_MULTIPLIER = 1.5

#: StormConfig overrides that switch the control loop on.  Everything
#: else stays at the documented ``nimbus.elastic.*`` defaults.
ELASTIC_ON: Tuple[Tuple[str, Any], ...] = (("nimbus.elastic.enabled", True),)

#: The static baseline's overrides: naming a ``nimbus.elastic.*`` key
#: attaches the controller (disabled here), so both sides of the
#: comparison share one code path.
ELASTIC_OFF: Tuple[Tuple[str, Any], ...] = (("nimbus.elastic.enabled", False),)

#: (label, scheduler factory, storm overrides) — the three columns of
#: the comparison.
CONFIGS = (
    ("static/r-storm", RStormScheduler, ELASTIC_OFF),
    ("elastic/r-storm", RStormScheduler, ELASTIC_ON),
    ("elastic/default", DefaultScheduler, ELASTIC_ON),
)

SCENARIOS = ("sustained", "diurnal", "burst")


def _arrivals(scenario: str, duration_s: float) -> ArrivalProcess:
    if scenario == "sustained":
        return PoissonArrivals(rate_tps=BASE_RATE_TPS * PEAK_MULTIPLIER)
    if scenario == "diurnal":
        # One full "day" per run: mean 1x, peak (1 + amplitude) = 1.5x
        # a quarter of the way in.
        return DiurnalArrivals(
            daily_tuples=BASE_RATE_TPS * duration_s,
            day_s=duration_s,
            amplitude=PEAK_MULTIPLIER - 1.0,
        )
    if scenario == "burst":
        # 1x background with 0.5x storms half the time: 30 s bursts
        # every 60 s, first opening after the warmup.
        return BurstOverlay(
            base=PoissonArrivals(rate_tps=BASE_RATE_TPS),
            burst_rate_tps=BASE_RATE_TPS * (PEAK_MULTIPLIER - 1.0),
            period_s=60.0,
            burst_s=30.0,
            offset_s=20.0,
        )
    raise ValueError(f"unknown scenario {scenario!r}")


def _scenario_config(scenario: str, duration_s: float) -> SimulationConfig:
    return SimulationConfig(
        duration_s=duration_s,
        warmup_s=min(20.0, duration_s / 4),
        arrival_process=_arrivals(scenario, duration_s),
    )


def scenario_units(duration_s: float):
    """The (scenario, configuration) grid as cacheable work units."""
    return [
        SimulationUnit(
            scheduler=spec(factory),
            topologies=(spec(linear_topology, "compute"),),
            cluster=spec(emulab_testbed),
            config=_scenario_config(scenario, duration_s),
            storm=storm,
            label=f"elastic:{scenario}/{name}",
        )
        for scenario in SCENARIOS
        for name, factory, storm in CONFIGS
    ]


def _time_to_adapt(outcome) -> Optional[float]:
    """Simulated time of the first committed scale action, if any."""
    for decision in outcome.elastic_decisions:
        if decision.action in ("scale-up", "scale-down"):
            return decision.time_s
    return None


def run(
    duration_s: float = 120.0,
    context: Optional[ExperimentContext] = None,
) -> ExperimentResult:
    context = context or ExperimentContext()
    result = ExperimentResult(
        experiment_id="elastic",
        title=(
            "Elastic runtime: queue-driven autoscaling vs static "
            "placement under ramping and bursting load"
        ),
    )
    units = scenario_units(duration_s)
    outcomes_by_label = dict(
        zip([u.label for u in units], context.run(units))
    )

    topo_id = "linear-compute"
    ratios = {}
    for scenario in SCENARIOS:
        for name, _, _ in CONFIGS:
            outcome = outcomes_by_label[f"elastic:{scenario}/{name}"]
            report = outcome.report
            latency = report.e2e_latency(topo_id)
            adapt = _time_to_adapt(outcome)
            ratios[(scenario, name)] = report.achieved_ratio(topo_id)
            recovery = outcome.recovery[topo_id]
            result.add_row(
                scenario=scenario,
                config=name,
                offered_per_10s=round(report.offered_per_window(topo_id)),
                achieved_per_10s=round(
                    report.average_throughput_per_window(topo_id)
                ),
                achieved_ratio=round(report.achieved_ratio(topo_id), 3),
                e2e_p99_ms=round(latency.p99 * 1e3, 1),
                adapt_s=round(adapt, 1) if adapt is not None else "-",
                churn=recovery.elastic_tasks_moved,
                rescales=recovery.rescales,
                failed=report.failed(topo_id),
                crashes=report.crashes(topo_id),
            )

    # Throughput through the ramp: offered vs static vs elastic.
    for scenario in ("diurnal", "burst"):
        offered = outcomes_by_label[f"elastic:{scenario}/static/r-storm"]
        result.add_series(
            f"{scenario}/offered",
            offered.report.offered_series(topo_id),
        )
        for name in ("static/r-storm", "elastic/r-storm"):
            outcome = outcomes_by_label[f"elastic:{scenario}/{name}"]
            result.add_series(
                f"{scenario}/{name}",
                outcome.report.throughput_series(topo_id),
            )

    static = ratios[("sustained", "static/r-storm")]
    elastic = ratios[("sustained", "elastic/r-storm")]
    gain = elastic / static if static > 0 else float("inf")
    result.note(
        f"At a sustained {PEAK_MULTIPLIER:g}x offered load the elastic "
        f"R-Storm run achieves {elastic:.3f} of offered vs the static "
        f"placement's {static:.3f} — a {gain:.2f}x throughput gain from "
        "scaling bolts to the observed arrival rate instead of the "
        "declared (mean-load) parallelism."
    )
    result.note(
        "time-to-adapt is the simulated time of the first committed "
        "scale action; churn counts tasks moved + added + removed by "
        "the controller (fault-driven moves are accounted separately "
        "and are zero here — no faults are injected)."
    )
    result.note(
        "Both sides of every comparison face identical arrival samples "
        "(streams are seeded by task identity, not placement or "
        "parallelism of downstream bolts), and the static rows run the "
        "very same unit with nimbus.elastic.enabled left false."
    )
    return result


def main() -> None:  # pragma: no cover - CLI glue
    print(run().format())


if __name__ == "__main__":  # pragma: no cover
    main()
