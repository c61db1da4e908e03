"""``repro bench`` — run the microbenchmarks, write/compare baselines.

Usage::

    python -m repro bench                     # run all, write JSON
    python -m repro bench engine-churn tuple-routing --repeats 3
    python -m repro bench --list
    python -m repro bench --check --baseline benchmarks/baseline \
        --tolerance 1.5                       # the CI perf gate

Each probe's repeats are bracketed by runs of a fixed calibration loop
(:mod:`repro.bench.core`), and every result records the loop's time
(``calib_s``) and the median repeat time in loops
(``calibrated_median``).  ``--check`` compares every fresh result
against the committed baseline: event counts must match exactly (the
benchmarks are deterministic); the calibrated median may regress up to
``--tolerance`` x the baseline's.  A baseline without ``calib_s`` fails
and must be re-recorded.  Exit status 1 on any failure, with one line
per deviation that ends with both sides' ``calib_s``.  A run writes
nothing outside ``--out``.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, List, Optional

from repro.bench.core import (
    BenchResult,
    compare_results,
    load_result,
    run_benchmark,
    write_result,
)
from repro.bench.suites import REGISTRY

__all__ = ["main", "build_parser"]

DEFAULT_OUT_DIR = "benchmarks/results"
DEFAULT_BASELINE_DIR = "benchmarks/baseline"

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
        help="allowed regression factor of the calibrated median for "
        "--check (default 1.5)",
    )
    return parser


def _format_row(
    result: BenchResult, baseline: Optional[BenchResult], tolerance: float
) -> str:
    """One result line; against a baseline it ends with the ratio the
    gate bounds, fresh over baseline calibrated median, and the bound."""
    row = (
        f"{result.name:<{NAME_WIDTH}} median={result.median_s:8.4f}s "
        f"p90={result.p90_s:8.4f}s calibrated={result.calibrated_median:8.3f} "
        f"events={result.events:>9,} ev/s={result.events_per_sec:>12,.0f} "
        f"rss={result.peak_rss_kb:,}KB"
    )
    if baseline is not None and baseline.calibrated_median > 0:
        ratio = result.calibrated_median / baseline.calibrated_median
        row += f"  ({ratio:.2f}x of baseline, tolerance {tolerance:.2f}x)"
    return row


def _calib_note(result: BenchResult, baseline: BenchResult) -> str:
    """Both sides' calibration-loop times, so a failure line explains
    itself across machines and Python versions."""
    theirs = f"{baseline.calib_s:.4f}s" if baseline.calib_s > 0 else "none"
    return f"calib_s {result.calib_s:.4f}s, baseline {theirs}"


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
    for name in names:
        result = run_benchmark(REGISTRY[name], repeats=args.repeats)
        baseline = load_result(args.baseline, name)
        print(_format_row(result, baseline, args.tolerance))
        path = write_result(result, args.out)
        print(f"  wrote {path}")
        if args.check:
            if baseline is None:
                failures.append(
                    f"{name}: no baseline in {args.baseline} "
                    "(record one per docs/performance.md)"
                )
            else:
                note = _calib_note(result, baseline)
                failures.extend(
                    f"{f.benchmark}: {f.reason} [{note}]"
                    for f in compare_results(result, baseline, args.tolerance)
                )
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
