"""Integration: the full coordination plane recovering from failures."""

import pytest

from repro.cluster import emulab_testbed
from repro.nimbus import Nimbus, Supervisor
from repro.scheduler import RStormScheduler
from repro.simulation import SimulationConfig, SimulationRun
from repro.workloads import linear_topology


@pytest.fixture
def managed_simulation():
    cluster = emulab_testbed()
    nimbus = Nimbus(cluster, scheduler=RStormScheduler())
    supervisors = {}
    for node in cluster.nodes:
        supervisor = Supervisor(node)
        nimbus.register_supervisor(supervisor)
        supervisors[node.node_id] = supervisor
    topology = linear_topology("network")
    nimbus.submit_topology(topology)
    nimbus.schedule_round()
    assignment = nimbus.assignments[topology.topology_id]
    config = SimulationConfig(duration_s=120.0, warmup_s=10.0)
    run = SimulationRun(cluster, [(topology, assignment)], config)
    nimbus.attach(run)
    return cluster, nimbus, supervisors, topology, run


def test_throughput_recovers_after_node_crash(managed_simulation):
    cluster, nimbus, supervisors, topology, run = managed_simulation
    victim = nimbus.assignments[topology.topology_id].nodes[0]
    run.on_time(47.0, lambda: supervisors[victim].crash())
    report = run.run()
    series = dict(report.throughput_series(topology.topology_id))
    healthy_before = series[30.0]
    recovered = series[100.0]
    assert recovered > 0.5 * healthy_before
    # the new placement avoids the dead machine
    final = nimbus.assignments[topology.topology_id]
    assert victim not in final.nodes
    assert final.is_complete(topology)


def test_stranded_batches_time_out_as_failures(managed_simulation):
    _, nimbus, supervisors, topology, run = managed_simulation
    victim = nimbus.assignments[topology.topology_id].nodes[0]
    run.on_time(47.0, lambda: supervisors[victim].crash())
    report = run.run()
    assert report.failed(topology.topology_id) > 0


def test_multiple_sequential_failures(managed_simulation):
    _, nimbus, supervisors, topology, run = managed_simulation

    def crash_current_node(at):
        def act():
            nodes = nimbus.assignments[topology.topology_id].nodes
            for node_id in nodes:
                if supervisors[node_id].registered:
                    supervisors[node_id].crash()
                    return

        run.on_time(at, act)

    crash_current_node(33.0)
    crash_current_node(66.0)
    report = run.run()
    series = dict(report.throughput_series(topology.topology_id))
    assert series[110.0] > 0
    assert nimbus.assignments[topology.topology_id].is_complete(topology)
