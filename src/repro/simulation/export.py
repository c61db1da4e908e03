"""Exporting simulation results.

JSON-able summary dictionaries of a run and its outcome, for diffing and
regression tracking, and lossless binary round-trips of whole run
outcomes — the format the experiment result cache and the process-pool
harness move results through (:mod:`repro.experiments.cache` /
:mod:`repro.experiments.parallel`).  ``repro <exp> --save DIR`` writes
a figure's table and its series CSV itself (``repro.cli.save_result``).
"""

from __future__ import annotations

import pickle
from typing import Any, Dict

from repro.simulation.report import SimulationReport

__all__ = [
    "report_as_dict",
    "outcome_as_dict",
    "dumps_outcome",
    "loads_outcome",
    "dump_outcome",
    "load_outcome",
]


def report_as_dict(report: SimulationReport) -> Dict:
    """A JSON-serialisable snapshot of the run's headline metrics."""
    out: Dict = {
        "duration_s": report.duration_s,
        "window_s": report.config.window_s,
        "warmup_s": report.config.warmup_s,
        "events_processed": report.events_processed,
        "topologies": {},
        "nodes": {},
    }
    for topo_id in report.topology_ids:
        latency = report.ack_latency(topo_id)
        out["topologies"][topo_id] = {
            "avg_tuples_per_window": report.average_throughput_per_window(
                topo_id
            ),
            "avg_tuples_per_s": report.average_throughput_tps(topo_id),
            "emitted": report.emitted(topo_id),
            "sunk": report.sunk(topo_id),
            "failed": report.failed(topo_id),
            "worker_crashes": report.crashes(topo_id),
            "nodes_used": list(report.nodes_used.get(topo_id, ())),
            "ack_latency_ms": {
                "count": latency.count,
                "mean": latency.mean * 1e3,
                "p50": latency.p50 * 1e3,
                "p99": latency.p99 * 1e3,
            },
            "throughput_series": report.throughput_series(topo_id),
        }
    used = sorted({n for nodes in report.nodes_used.values() for n in nodes})
    for node_id in used:
        out["nodes"][node_id] = {
            "cpu_utilisation": report.cpu_utilisation(node_id),
            "nic_bytes": report.stats.nic_bytes.get(node_id, 0),
        }
    return out


# -- whole-outcome round-trips ------------------------------------------------
#
# A SingleRunOutcome (report + assignments + qualities) must
# survive two journeys losslessly: process boundaries (ProcessPoolExecutor
# workers return them) and disk (the content-addressed result cache).
# Everything in an outcome is plain data — frozen dataclasses, dicts of
# counters, immutable Assignment value objects — so pickle round-trips it
# bit-for-bit; the determinism regression tests assert exactly that.


def outcome_as_dict(outcome: Any) -> Dict:
    """A JSON-serialisable snapshot of one run outcome.

    Complements :func:`report_as_dict` with the scheduling-side results:
    the task placements and the placement-quality metrics, keyed per
    topology.  Intended for dashboards and diffing; use the pickle
    round-trip helpers below when the object itself must come back.
    """
    out: Dict = {
        "scheduler": outcome.scheduler,
        "report": report_as_dict(outcome.report),
        "assignments": {},
        "qualities": {},
    }
    for topo_id, assignment in outcome.assignments.items():
        out["assignments"][topo_id] = {
            str(task): str(slot) for task, slot in assignment.as_dict().items()
        }
    for topo_id, quality in outcome.qualities.items():
        out["qualities"][topo_id] = {
            "nodes_used": quality.nodes_used,
            "slots_used": quality.slots_used,
            "task_pairs": quality.task_pairs,
            "mean_network_distance": quality.mean_network_distance,
            "hard_violations": quality.hard_violations,
            "max_cpu_overcommit": quality.max_cpu_overcommit,
            "pairs_by_level": {
                level.name: count
                for level, count in quality.pairs_by_level.items()
            },
        }
    return out


def dumps_outcome(outcome: Any) -> bytes:
    """Serialise an outcome to bytes (stable pickle protocol)."""
    # A pinned protocol keeps cache entries readable across the 3.10–3.12
    # interpreters CI runs, instead of whatever HIGHEST_PROTOCOL means on
    # the newest one.
    return pickle.dumps(outcome, protocol=4)


def loads_outcome(blob: bytes) -> Any:
    return pickle.loads(blob)


def dump_outcome(outcome: Any, path: str) -> None:
    with open(path, "wb") as handle:
        handle.write(dumps_outcome(outcome))


def load_outcome(path: str) -> Any:
    with open(path, "rb") as handle:
        return loads_outcome(handle.read())
