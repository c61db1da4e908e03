"""``repro bench`` — run the microbenchmarks, write/compare baselines.

Usage::

    python -m repro bench                     # run all, write JSON
    python -m repro bench engine-churn tuple-routing --repeats 3
    python -m repro bench --list
    python -m repro bench --check --baseline benchmarks/baseline \
        --tolerance 1.5                       # the CI perf gate

``--check`` compares every fresh result against the committed baseline:
event counts must match exactly (the benchmarks are deterministic);
median wall time may regress up to ``--tolerance`` x baseline.  Exit
status 1 on any failure, with one line per deviation.

``--summary PATH`` also writes a compact summary of the scheduler
probes (``sched-*`` and ``tenant-admission``) that ran, and
``--flow-summary PATH`` one of the overload-path probes
(``traffic-overload``, ``overload-protect``): the open-loop saturation
path and the flow-control layer on top of it.  Both are off by default,
so a run (the ``--check`` gate included) never rewrites the tracked
``BENCH_sched.json`` and ``BENCH_flow.json`` at the repo root; refresh
those deliberately with ``--summary BENCH_sched.json`` and
``--flow-summary BENCH_flow.json``.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from typing import Callable, Dict, List, Optional

from repro.bench.core import (
    BenchResult,
    compare_results,
    load_result,
    run_benchmark,
    write_result,
)
from repro.bench.suites import REGISTRY

__all__ = [
    "main",
    "build_parser",
    "write_sched_summary",
    "write_flow_summary",
]

DEFAULT_OUT_DIR = "benchmarks/results"
DEFAULT_BASELINE_DIR = "benchmarks/baseline"

#: Prefix that marks a benchmark as a scheduler probe for the summary.
SCHED_PREFIX = "sched-"
#: Probes without the prefix that still belong in the scheduler
#: summary (the admission plane feeds the schedulers directly).
SCHED_SUMMARY_EXTRAS = ("tenant-admission",)

#: Probes in the overload-path summary: the open-loop saturation path
#: and the flow-control (backpressure + shedding) layer on top of it.
FLOW_SUMMARY_PROBES = ("traffic-overload", "overload-protect")

#: Name column width of ``--list`` and result rows: the longest
#: registered name, so every row's columns line up.
NAME_WIDTH = max(map(len, REGISTRY))


def _at_least(kind: Callable[[str], float], low: float):
    """An argparse ``type`` that parses with ``kind`` and rejects values
    below ``low``, so a bad flag fails before any probe runs."""

    def parse(text: str) -> float:
        value = kind(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low:g}, got {text}")
        return value

    parse.__name__ = kind.__name__  # argparse names the type in errors
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rstorm bench",
        description="Seeded, deterministic microbenchmarks of the "
        "simulator, schedulers and experiment pipeline.",
    )
    parser.add_argument(
        "benchmarks",
        nargs="*",
        metavar="NAME",
        help="benchmark names to run (default: all; see --list)",
    )
    parser.add_argument(
        "--list", action="store_true", help="list benchmarks and exit"
    )
    parser.add_argument(
        "--repeats",
        type=_at_least(int, 1),
        default=None,
        metavar="N",
        help="override every benchmark's repeat count",
    )
    parser.add_argument(
        "--out",
        metavar="DIR",
        default=DEFAULT_OUT_DIR,
        help=f"directory for BENCH_<name>.json (default {DEFAULT_OUT_DIR})",
    )
    parser.add_argument(
        "--baseline",
        metavar="DIR",
        default=DEFAULT_BASELINE_DIR,
        help="baseline directory for --check "
        f"(default {DEFAULT_BASELINE_DIR})",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="compare fresh results against the baseline; exit 1 on "
        "regression",
    )
    parser.add_argument(
        "--tolerance",
        type=_at_least(float, 1.0),
        default=1.5,
        metavar="X",
        help="allowed median wall-time regression factor for --check "
        "(default 1.5)",
    )
    parser.add_argument(
        "--summary",
        metavar="PATH",
        default="",
        help="write a scheduler-probe summary to PATH when any sched-* "
        "benchmark runs (default: none; the tracked one is "
        "BENCH_sched.json)",
    )
    parser.add_argument(
        "--flow-summary",
        metavar="PATH",
        default="",
        help="write an overload-path summary to PATH when any flow probe "
        "runs (default: none; the tracked one is BENCH_flow.json)",
    )
    return parser


def _write_probe_summary(
    picked: List[BenchResult],
    baselines: Dict[str, Optional[BenchResult]],
    path: str,
) -> Optional[str]:
    """One entry per probe with the headline numbers plus the speedup
    against the loaded baseline (``null`` when no baseline exists), so a
    single root-level file records the perf trajectory across PRs."""
    if not picked or not path:
        return None
    probes = {}
    for result in picked:
        baseline = baselines.get(result.name)
        speedup = (
            round(baseline.median_s / result.median_s, 3)
            if baseline is not None and baseline.median_s > 0
            else None
        )
        probes[result.name] = {
            "median_s": round(result.median_s, 6),
            "p90_s": round(result.p90_s, 6),
            "events": result.events,
            "events_per_sec": round(result.events_per_sec, 1),
            "speedup_vs_baseline": speedup,
        }
    payload = {"schema": 1, "probes": probes}
    target = pathlib.Path(path)
    target.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return str(target)


def write_sched_summary(
    results: List[BenchResult],
    baselines: Dict[str, Optional[BenchResult]],
    path: str,
) -> Optional[str]:
    """Write the cross-PR scheduler summary if any ``sched-*`` probe ran."""
    sched = [
        r
        for r in results
        if r.name.startswith(SCHED_PREFIX) or r.name in SCHED_SUMMARY_EXTRAS
    ]
    return _write_probe_summary(sched, baselines, path)


def write_flow_summary(
    results: List[BenchResult],
    baselines: Dict[str, Optional[BenchResult]],
    path: str,
) -> Optional[str]:
    """Write the cross-PR overload-path summary if any flow probe ran."""
    flow = [r for r in results if r.name in FLOW_SUMMARY_PROBES]
    return _write_probe_summary(flow, baselines, path)


def _format_row(result: BenchResult, baseline: Optional[BenchResult]) -> str:
    row = (
        f"{result.name:<{NAME_WIDTH}} median={result.median_s:8.4f}s "
        f"p90={result.p90_s:8.4f}s events={result.events:>9,} "
        f"ev/s={result.events_per_sec:>12,.0f} rss={result.peak_rss_kb:,}KB"
    )
    if baseline is not None and baseline.median_s > 0:
        row += f"  ({baseline.median_s / result.median_s:.2f}x vs baseline)"
    return row


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.list:
        for name, bench in REGISTRY.items():
            print(f"{name:<{NAME_WIDTH}} {bench.description}")
        return 0
    names = args.benchmarks or list(REGISTRY)
    unknown = [n for n in names if n not in REGISTRY]
    if unknown:
        print(
            f"unknown benchmark(s): {', '.join(unknown)}; "
            f"choose from {', '.join(REGISTRY)}",
            file=sys.stderr,
        )
        return 2
    failures = []
    results: List[BenchResult] = []
    baselines: Dict[str, Optional[BenchResult]] = {}
    for name in names:
        result = run_benchmark(REGISTRY[name], repeats=args.repeats)
        baseline = load_result(args.baseline, name)
        results.append(result)
        baselines[name] = baseline
        print(_format_row(result, baseline))
        path = write_result(result, args.out)
        print(f"  wrote {path}")
        if args.check:
            if baseline is None:
                failures.append(
                    f"{name}: no baseline in {args.baseline} "
                    "(record one per docs/performance.md)"
                )
            else:
                failures.extend(
                    f"{f.benchmark}: {f.reason}"
                    for f in compare_results(result, baseline, args.tolerance)
                )
    summary_path = write_sched_summary(results, baselines, args.summary)
    if summary_path is not None:
        print(f"  wrote {summary_path} (scheduler summary)")
    flow_path = write_flow_summary(results, baselines, args.flow_summary)
    if flow_path is not None:
        print(f"  wrote {flow_path} (overload-path summary)")
    if args.check:
        if failures:
            print("\nperf gate FAILED:", file=sys.stderr)
            for line in failures:
                print(f"  {line}", file=sys.stderr)
            return 1
        print(f"\nperf gate OK ({len(names)} benchmark(s) within tolerance)")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
