"""Shape checks for the paper's headline claims, on shortened runs.

These are the evaluation's qualitative statements ("who wins, roughly by
how much") verified end-to-end at reduced duration; the full-length
tables come from ``python -m repro all --save DIR``.
"""

import pytest

from repro.cluster import emulab_testbed
from repro.scheduler import DefaultScheduler, RStormScheduler
from repro.simulation import SimulationConfig, SimulationRun
from repro.workloads import micro_topology, pageload_topology, processing_topology
from repro.workloads.micro import NETWORK_BOUND_UPLINK_MBPS
from repro.workloads.yahoo import yahoo_simulation_config

SHORT = SimulationConfig(duration_s=40.0, warmup_s=10.0)


def run_micro(kind, variant, scheduler):
    topology = micro_topology(kind, variant)
    cluster = emulab_testbed()
    assignment = scheduler.schedule([topology], cluster)[topology.topology_id]
    uplink = NETWORK_BOUND_UPLINK_MBPS if variant == "network" else None
    report = SimulationRun(
        cluster, [(topology, assignment)], SHORT, interrack_uplink_mbps=uplink
    ).run()
    return report, assignment, topology


@pytest.mark.parametrize("kind", ["linear", "diamond", "star"])
def test_fig8_rstorm_wins_network_bound(kind):
    r_report, _, topo = run_micro(kind, "network", RStormScheduler())
    d_report, _, _ = run_micro(kind, "network", DefaultScheduler())
    r = r_report.average_throughput_per_window(topo.topology_id)
    d = d_report.average_throughput_per_window(topo.topology_id)
    assert r > 1.15 * d  # paper: +30% to +50%


@pytest.mark.parametrize("kind,paper_nodes", [("linear", 6), ("diamond", 7)])
def test_fig9_rstorm_matches_throughput_with_half_the_machines(
    kind, paper_nodes
):
    r_report, r_assignment, topo = run_micro(kind, "compute", RStormScheduler())
    d_report, d_assignment, _ = run_micro(kind, "compute", DefaultScheduler())
    r = r_report.average_throughput_per_window(topo.topology_id)
    d = d_report.average_throughput_per_window(topo.topology_id)
    assert r == pytest.approx(d, rel=0.1)  # same throughput...
    assert len(r_assignment.nodes) <= paper_nodes + 1  # ...on ~half the nodes
    assert len(d_assignment.nodes) == 12


def test_fig9_star_rstorm_beats_default_outright():
    r_report, r_assignment, topo = run_micro("star", "compute", RStormScheduler())
    d_report, _, _ = run_micro("star", "compute", DefaultScheduler())
    r = r_report.average_throughput_per_window(topo.topology_id)
    d = d_report.average_throughput_per_window(topo.topology_id)
    assert r > d
    assert len(r_assignment.nodes) < 12


@pytest.mark.parametrize("kind", ["linear", "diamond", "star"])
def test_fig10_rstorm_uses_cpu_better(kind):
    r_report, _, topo = run_micro(kind, "compute", RStormScheduler())
    d_report, _, _ = run_micro(kind, "compute", DefaultScheduler())
    r_util = r_report.topology_cpu_utilisation(topo.topology_id)
    d_util = d_report.topology_cpu_utilisation(topo.topology_id)
    assert r_util > 1.5 * d_util  # paper: +69% to +350%


def test_fig12_rstorm_wins_on_pageload():
    config = yahoo_simulation_config(40.0)
    results = {}
    for scheduler in (RStormScheduler(), DefaultScheduler()):
        topology = pageload_topology()
        cluster = emulab_testbed()
        assignment = scheduler.schedule([topology], cluster)["pageload"]
        report = SimulationRun(cluster, [(topology, assignment)], config).run()
        results[scheduler.name] = report.average_throughput_per_window(
            "pageload"
        )
    assert results["r-storm"] > 1.2 * results["default"]


def test_fig13_default_grinds_processing_to_a_near_halt():
    config = yahoo_simulation_config(60.0)
    throughput = {}
    for scheduler in (RStormScheduler(), DefaultScheduler()):
        processing = processing_topology()
        pageload = pageload_topology()
        cluster = emulab_testbed(nodes_per_rack=12)
        assignments = scheduler.schedule([processing, pageload], cluster)
        report = SimulationRun(
            cluster,
            [
                (processing, assignments["processing"]),
                (pageload, assignments["pageload"]),
            ],
            config,
        ).run()
        throughput[scheduler.name] = (
            report.average_throughput_per_window("pageload"),
            report.average_throughput_per_window("processing"),
        )
    r_pl, r_proc = throughput["r-storm"]
    d_pl, d_proc = throughput["default"]
    assert r_proc > 10 * d_proc  # "orders of magnitude" in the paper
    assert r_pl > 1.2 * d_pl  # pageload degrades but survives
    assert d_pl > 5 * d_proc  # the asymmetry: pageload alive, processing dead
