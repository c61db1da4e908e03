"""R-Storm reproduction benchmark: four workloads, calibrated, layer by layer.

Run from the root of a checkout (no install or build step; the program
is imported from ``src/``)::

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

It prints every metric by name with its unit, checks the outputs, and
ends with one JSON line ``{"correct", "attempted", "failed", "metrics"}``.
It exits 1 when an output is wrong and 2 when the program is missing.
``BENCHMARK.json`` at the repository root declares the same workloads
and metrics.  The tests run with ``python3 -m pytest perfbench/tests``.

Workloads
---------
Every repeat is closed loop: the next operation starts when the previous
one ends.  The simulator is a batch program; open-loop arrivals happen
inside it, in simulated time.

paper-closed
    Experiments fig8, fig9, fig10, fig12, fig13 at 30 simulated s,
    uncached.  The paper's own closed-loop evaluation, the default path
    every figure pays.  The DES core does nearly all the work and flow,
    arrivals, tracer and Nimbus are off, so it is the bypass workload
    for those layers.  fig8 costs far more per simulated second than the
    rest, hence 30 s.
open-overload
    ``traffic`` (0.5-2x Poisson sweep, uniform vs Zipf keys) and
    ``protection`` (hotspot 1-2x: unprotected, backpressure,
    backpressure+shed, gold-vs-free priority) at 120 s.  Open-loop
    ingress runs past saturation with a growing backlog; arrivals, the
    digest sinks and flow control are on the hot path.  Flow control is
    on in some units and off in others, so a flow change that slows the
    unprotected path shows.
control-plane
    ``chaos`` extended mode (``loss_rate=0.05``, ``quarantine=True``),
    ``elastic`` and ``tenants`` at 120 s.  Nimbus ticks, failure
    detection, migration, at-least-once replay, elastic rescale,
    admission and the Tracer/RecoveryMonitor.
sched-512
    R-Storm on a 512-node, 8-rack cluster with five topologies: 40 fresh
    placement rounds (``release_all`` then ``IScheduler.run``), then 60
    incremental ``Nimbus.schedule_round`` calls, each after failing one
    in-use node in a seeded rotation (the node recovers after its
    round).  The paper's contribution and Nimbus's reaction latency with
    no DES at all, so DES optimisations must show no change here.

``--seed N`` (default 0) is applied by the benchmark, not the program:
each unit runs with ``trial=N`` and ``config.arrival_seed=1+N``, and
``sched-512`` draws its failure order from N.  Seed 0 reproduces the
program's default tables byte for byte; their digests are pinned in
``perfbench/pins.py``.

Processes
---------
Each repeat runs in a fresh child interpreter, one child at a time, so
the load is one process on one core.  A child first sets up (imports
the program and builds the workload's inputs, timed between two
calibration loops), then runs one repeat with every unit inline
(``jobs=1``, no pool, no cache), and reports its ``ru_maxrss``.  Children
are started until ``--seconds`` would be exceeded (at least one), so a
run measures several fresh processes and their medians: a per-process
bias (memory layout, hash seed) averages out, and peak RSS is that of
one repeat.

End-to-end metrics (``--trace 0``)
----------------------------------
wall_s       s     sum over the repeat's operations of the median across
                   repeats of each one's calibrated time, plus the
                   median calibrated time outside operations
setup_s      s     median over the children of the calibrated time to
                   import the program and build the workload's inputs
peak_rss_mb  MiB   median over the children of ``ru_maxrss``
op_ms_p50    ms    calibrated time of one operation: the median over the
                   repeat's n operations (n is printed) of each one's
                   median across repeats
op_ms_p90    ms    ... the 90th percentile.  In sched-512 the 60
                   incremental rounds set p50 and the 40 fresh ones p90;
                   in the DES workloads p90 is one of the costliest units

An operation is a work unit, or a scheduling round in sched-512.  It
fails if it raises (losing its experiment, so all that experiment's
units fail), leaves an incomplete assignment, or belongs to a repeat
whose digests differ from the pinned seed-0 ones (at other seeds: from
the other repeats).  ``failed / attempted`` is printed as error_rate.

Calibration
-----------
A fixed stdlib-only loop shaped like the DES (``perfbench/calibrate.py``:
heapq push/pop of ``(t, seq, fn, args)``, ``__slots__`` objects, bound
method calls, dict access; about 18 ms) is timed before and after every
unit and every block of 10 sched-512 rounds, the loop after one span
being the loop before the next.  Each span is reported as
``raw * CALIB_REF_S / mean(loop before, loop after)``: seconds of the
reference machine.  Timing runs with the garbage collector on, as users
run it.

Per-layer metrics (``--trace 1``)
---------------------------------
Untraced children run for ``--seconds`` (giving ``raw.wall_s``,
``calib_s`` and the base of ``trace.overhead``), then one more child
runs its repeat under cProfile.  Self time is rolled up by module into
the layers below; builtin and stdlib time is charged to the calling
layer, the benchmark's own frames are ``unattributed``.  Per layer:
``<layer>.self_share`` and ``<layer>.calls`` (exact).  Also
``engine.events`` (exact), ``engine.events_per_s``, ``flow.shed_rate``
(shed / offered over flow-on units), ``dispatch.replay_amplification``,
``scheduler.tasks_placed`` (exact), ``trace.overhead`` (traced /
untraced raw wall), ``calib_s``, ``raw.wall_s``.

==========  =======================================  ======================
layer       modules (``perfbench/layers.py``)        should move
==========  =======================================  ======================
engine      simulation/engine.py                     wall_s on paper-closed;
                                                     nothing on sched-512
dispatch    simulation/runtime.py, except the        wall_s on paper-closed
            functions named below
routing     runtime ``_route``, ``_deliver``,        wall_s on paper-closed
            ``_refresh_route``, ``_assign_keys``;
            topology/grouping.py
transfer    simulation/network.py                    wall_s on paper-closed
                                                     (fig8 is network-bound)
stats       simulation/metrics.py, report.py,        wall_s, peak_rss_mb on
            traffic/percentiles.py                   open-overload
flow        simulation/flowcontrol.py; runtime       wall_s on open-overload
            ``_fc_*``, ``_shed*``, ``_init_flow``    (not paper-closed,
                                                     control-plane)
arrivals    traffic/ (rest); runtime ``_arrive``,    wall_s on open-overload
            ``_start_arrivals``                      (not paper-closed)
tracer      simulation/tracing.py, faults/monitor.py wall_s, peak_rss_mb on
                                                     control-plane
nimbus      nimbus/, faults/ (rest)                  wall_s on control-plane,
                                                     op_ms_p50 on sched-512
scheduler   scheduler/                               op_ms_*, wall_s on
                                                     sched-512 (DES: <=1%)
model       cluster/, topology/ (rest), workloads/,  op_ms_* on sched-512
            simulation/config.py, errors.py
harness     experiments/, analysis/, bench/, cli.py, setup_s
            simulation/export.py, package inits
==========  =======================================  ======================

Anything else is ``unattributed`` and stays under 2% of self time.
On sched-512 the DES layers read 0: the prediction for a DES change.

Run-to-run spread
-----------------
Measured on a shared 2-vCPU x86_64 KVM guest under CPython 3.11, where
raw wall time of identical code drifted 20-30% between runs and the
calibration loop alone by up to 2x within minutes.  Three sets of ten
``--seconds 25`` runs per workload, each run with another seed, taken
at different times; the spread is the interquartile range of the ten
values as a share of their median (``statistics.quantiles(n=4)``), the
worst of the three sets:

=============  ======  =======  ===========  =========  =========
workload       wall_s  setup_s  peak_rss_mb  op_ms_p50  op_ms_p90
=============  ======  =======  ===========  =========  =========
paper-closed   3.8%    3.9%     0.5%         2.1%       3.9%
open-overload  1.8%    4.8%     1.9%         5.3%       5.0%
control-plane  3.7%    11.7%    1.2%         5.4%       5.9%
sched-512      3.1%    6.3%     0.4%         1.8%       3.1%
=============  ======  =======  ===========  =========  =========

The medians of two sets (seeds 0-9, then seeds 100-109) differed by at
most 2.1% on every metric and workload, setup_s aside (3.1%).  The
bounds in ``BENCHMARK.json`` (wall_s 12%, peak_rss_mb 6%, op_ms_p50
18%, op_ms_p90 20%) are at least three times these spreads.  peak_rss_mb
moves with the seed on the open-loop workloads (arrivals change queue
depths), so more children would not narrow it.  Set-up is mostly the
import of the program (about 0.17 s), noisy at that size, hence the
widest bound, 25%.
"""

from __future__ import annotations

import argparse
import cProfile
import dataclasses
import json
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.calibrate import calibrated, time_calibration  # noqa: E402
from perfbench.pins import CALIB_REF_S, SEED0_DIGESTS  # noqa: E402

#: seconds after which a run stops waiting for its children
RUN_LIMIT_S = 170.0

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
}

Child = Dict[str, Any]


def percentile(values: Sequence[float], p: float) -> float:
    """The ``p``-th percentile (0-100) of ``values``, interpolating
    linearly between order statistics (``statistics.quantiles``'s
    inclusive method)."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    position = (len(ordered) - 1) * p / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def judge(
    repeats: Sequence[Dict[str, Any]], expected: Optional[Dict[str, str]]
) -> Tuple[int, int]:
    """``(attempted, failed)`` over ``repeats``.  Every operation of a
    repeat whose digests differ from ``expected`` fails; without pinned
    digests the most common digests among the repeats are expected."""
    if expected is None:
        votes = Counter(json.dumps(r["digests"], sort_keys=True) for r in repeats)
        expected = json.loads(votes.most_common(1)[0][0])
    attempted = sum(r["attempted"] for r in repeats)
    failed = sum(
        r["attempted"] if r["digests"] != expected else r["failed"] for r in repeats
    )
    return attempted, failed


def child_main(workload: str, seed: int, traced: bool) -> None:
    """One fresh interpreter: set up between two calibration loops (the
    import of the program included), then measure one repeat."""
    before = time_calibration()
    started = time.perf_counter()
    from perfbench.workloads import WORKLOADS

    bench = WORKLOADS[workload]
    inputs = bench.build(seed)
    setup_raw = time.perf_counter() - started
    after = time_calibration()
    out = measure(bench, inputs, seed, traced)
    out["setup_s"] = calibrated(setup_raw, (before, after), CALIB_REF_S)
    print(json.dumps(out))


def measure(bench: Any, inputs: Any, seed: int, traced: bool) -> Child:
    """One repeat of ``bench`` (under cProfile when ``traced``) and the
    process's peak RSS, as a child reports them."""
    out: Child = {}
    if traced:
        from perfbench.layers import rollup

        profiler = cProfile.Profile()
        repeat = bench.repeat(
            inputs, seed, CALIB_REF_S, calibrate=False, profiler=profiler
        )
        out["shares"], out["calls"] = rollup(profiler)
    else:
        repeat = bench.repeat(inputs, seed, CALIB_REF_S)
    out["repeat"] = dataclasses.asdict(repeat)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return out


def spawn(workload: str, seed: int, traced: bool, deadline: float) -> Child:
    """Run one child to completion; its stderr passes through."""
    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", workload, "--seed", str(seed),
        "--child", "1" if traced else "0",
    ]
    done = subprocess.run(
        command, stdout=subprocess.PIPE, text=True, check=True,
        timeout=max(1.0, deadline - time.perf_counter()),
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def children_for(
    workload: str, seed: int, seconds: float, deadline: float
) -> List[Child]:
    """Untraced children, one at a time, while the next one is expected
    to finish within ``seconds`` (at least one)."""
    children: List[Child] = []
    started = time.perf_counter()
    while True:
        children.append(spawn(workload, seed, False, deadline))
        elapsed = time.perf_counter() - started
        if elapsed + elapsed / len(children) > seconds:
            return children


def per_operation(children: Sequence[Child]) -> List[float]:
    """Each operation's median calibrated seconds across the repeats."""
    columns = zip(*(c["repeat"]["op_s"] for c in children))
    return [statistics.median(column) for column in columns]


def wall(children: Sequence[Child]) -> float:
    """Calibrated seconds of one repeat: each operation's median, plus
    the median time outside the operations."""
    outside = statistics.median(
        c["repeat"]["wall_s"] - sum(c["repeat"]["op_s"]) for c in children
    )
    return sum(per_operation(children)) + outside


def end_to_end(children: Sequence[Child]) -> Dict[str, float]:
    ops_ms = [op * 1e3 for op in per_operation(children)]
    return {
        "wall_s": wall(children),
        "setup_s": statistics.median(c["setup_s"] for c in children),
        "peak_rss_mb": statistics.median(c["peak_rss_mb"] for c in children),
        "op_ms_p50": percentile(ops_ms, 50),
        "op_ms_p90": percentile(ops_ms, 90),
    }


def per_layer(children: Sequence[Child], traced: Child) -> Dict[str, float]:
    counts = traced["repeat"]["counters"]
    raw_wall = statistics.median(c["repeat"]["raw_s"] for c in children)
    emitted = counts.get("emitted", 0)
    offered = counts.get("offered", 0)
    metrics: Dict[str, float] = {
        f"{layer}.self_share": share for layer, share in traced["shares"].items()
    }
    metrics.update(
        {f"{layer}.calls": calls for layer, calls in traced["calls"].items()}
    )
    metrics.update({
        "engine.events": counts.get("events", 0),
        "engine.events_per_s": counts.get("events", 0) / wall(children),
        "flow.shed_rate": counts.get("shed", 0) / offered if offered else 0.0,
        "dispatch.replay_amplification": (
            (emitted + counts.get("replayed", 0)) / emitted if emitted else 1.0
        ),
        "scheduler.tasks_placed": counts.get("tasks_placed", 0),
        "trace.overhead": traced["repeat"]["raw_s"] / raw_wall,
        "calib_s": statistics.median(
            calib for c in children for calib in c["repeat"]["calib_s"]
        ),
        "raw.wall_s": raw_wall,
    })
    return metrics


def unit_of(metric: str) -> str:
    """The unit of any metric the benchmark reports."""
    if metric in END_TO_END:
        return END_TO_END[metric]
    if metric.endswith(".self_share") or metric == "flow.shed_rate":
        return "fraction"
    if metric.endswith((".calls", ".events", ".tasks_placed")):
        return "count"
    return {
        "engine.events_per_s": "1/s",
        "dispatch.replay_amplification": "ratio",
        "trace.overhead": "ratio",
        "calib_s": "s",
        "raw.wall_s": "s",
    }[metric]


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--workload", required=True, choices=sorted(SEED0_DIGESTS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", type=int, choices=(0, 1), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    if args.child is not None:
        child_main(args.workload, args.seed, bool(args.child))
        return 0

    deadline = time.perf_counter() + RUN_LIMIT_S
    children = children_for(args.workload, args.seed, args.seconds, deadline)
    repeats = [c["repeat"] for c in children]
    if args.trace:
        traced = spawn(args.workload, args.seed, True, deadline)
        repeats.append(traced["repeat"])
        values = per_layer(children, traced)
    else:
        values = end_to_end(children)
    expected = SEED0_DIGESTS[args.workload] if args.seed == 0 else None
    attempted, failed = judge(repeats, expected)
    print(
        f"repeats {len(children)} untraced, operations per repeat "
        f"n={len(children[0]['repeat']['op_s'])}"
    )
    for output, digest in repeats[0]["digests"].items():
        print(f"digest {output} {digest}")
    for metric, value in values.items():
        print(f"{metric:32s} {value:.6g} {unit_of(metric)}")
    print(f"{'error_rate':32s} {failed / attempted:.6g} ({failed}/{attempted})")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            metric: {"value": value, "unit": unit_of(metric)}
            for metric, value in values.items()
        },
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
