#!/usr/bin/env python3
"""Failure recovery: Nimbus reschedules a topology after a node dies.

Runs the full coordination plane — supervisors registered with Nimbus,
Nimbus invoking R-Storm every 10 simulated seconds — attached to a live
simulation.  At t=63 s — mid-way between scheduling ticks — one of the
machines hosting the topology crashes (its supervisor unregisters); on
its next tick Nimbus observes the membership change, R-Storm re-places
the orphaned tasks (respecting resource budgets), and the simulation
migrates them.  The throughput timeline shows the outage dip and the
recovery; tuples stranded on the dead machine time out and count as
failed, exactly as in Storm.

Run:  python examples/failure_recovery.py
"""

from repro import (
    Nimbus,
    RStormScheduler,
    SimulationConfig,
    SimulationRun,
    Supervisor,
    emulab_testbed,
)
from repro.workloads import linear_topology


def main() -> None:
    cluster = emulab_testbed()
    supervisors = {node.node_id: Supervisor(node) for node in cluster.nodes}
    nimbus = Nimbus(cluster, scheduler=RStormScheduler())
    for supervisor in supervisors.values():
        nimbus.register_supervisor(supervisor)

    topology = linear_topology("network")
    nimbus.submit_topology(topology)
    nimbus.schedule_round()
    assignment = nimbus.assignments[topology.topology_id]
    print(f"initial placement on nodes: {', '.join(assignment.nodes)}")

    config = SimulationConfig(duration_s=180.0, warmup_s=20.0)
    run = SimulationRun(cluster, [(topology, assignment)], config)
    nimbus.attach(run)  # periodic scheduling ticks inside the simulation

    victim = assignment.nodes[0]

    def kill_node() -> None:
        print(f"[t={run.sim.now:.0f}s] node {victim} crashes")
        supervisors[victim].crash()  # unregisters the supervisor too

    run.on_time(63.0, kill_node)
    report = run.run()

    final = nimbus.assignments[topology.topology_id]
    print(f"final placement on nodes  : {', '.join(final.nodes)}")
    print(f"scheduling rounds executed: {len(nimbus.rounds)}")
    print("throughput timeline (tuples per 10 s window):")
    for start, tuples in report.throughput_series(topology.topology_id):
        marker = " <- failure at t=63s" if start == 60.0 else ""
        print(f"  t={start:5.0f}s {tuples:9,d}{marker}")
    print(f"failed (timed-out) tuples : {report.failed(topology.topology_id):,}")


if __name__ == "__main__":
    main()
