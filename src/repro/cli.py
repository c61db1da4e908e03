"""Command-line interface: regenerate the paper's figures.

Usage::

    python -m repro list
    python -m repro fig8 [--duration 120]
    python -m repro chaos [--duration 120]    # fault-injection recovery study
    python -m repro chaos --loss-rate 0.05 --quarantine   # delivery semantics
    python -m repro traffic [--duration 120]  # open-loop overload sweep
    python -m repro all [--duration 120] [--series] [--save results/]
    python -m repro all --jobs 4              # fan misses out over processes
    python -m repro all --no-cache            # force fresh simulations
    python -m repro fig9 --cache-dir /tmp/c   # alternate cache location
    python -m repro bench [--check]           # microbenchmarks (see --help)

Results are memoised on disk (default ``.repro-cache/``, overridable via
``--cache-dir`` or the ``REPRO_CACHE_DIR`` environment variable): re-running
a figure whose inputs and code have not changed re-reads the cached
outcomes instead of simulating.  ``--jobs N`` runs cache misses in ``N``
worker processes.
"""

from __future__ import annotations

import argparse
import csv
import os
import pathlib
import sys
from typing import TYPE_CHECKING, List, Optional

from repro.experiments import REGISTRY
from repro.experiments.cache import DEFAULT_CACHE_DIR, ResultCache
from repro.experiments.parallel import ExperimentContext

if TYPE_CHECKING:
    from repro.experiments.harness import ExperimentResult

__all__ = ["main", "build_parser", "build_context", "save_result"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rstorm",
        description=(
            "Reproduce the evaluation of 'R-Storm: Resource-Aware "
            "Scheduling in Storm' (Middleware 2015)."
        ),
    )
    parser.add_argument(
        "experiment",
        choices=sorted(REGISTRY) + ["all", "list"],
        help="experiment id (figure) to run, 'all', or 'list'",
    )
    parser.add_argument(
        "--duration",
        type=float,
        default=120.0,
        help="simulated seconds per run (default 120; the paper ran ~15 min)",
    )
    parser.add_argument(
        "--series",
        action="store_true",
        help="also print per-window throughput series",
    )
    parser.add_argument(
        "--save",
        metavar="DIR",
        default=None,
        help="write the table (.txt) and each series (.csv) into DIR",
    )
    parser.add_argument(
        "--loss-rate",
        type=float,
        default=0.0,
        metavar="P",
        help=(
            "chaos only: add a lossy-link scenario with this per-batch "
            "drop probability and enable at-least-once replay"
        ),
    )
    parser.add_argument(
        "--max-retries",
        type=int,
        default=3,
        metavar="N",
        help=(
            "chaos only: replay budget per root tuple in extended mode "
            "(default 3)"
        ),
    )
    parser.add_argument(
        "--quarantine",
        action="store_true",
        help=(
            "chaos only: enable Nimbus node quarantine and add a "
            "flapping-node scenario (extended mode)"
        ),
    )
    parser.add_argument(
        "--jobs",
        "-j",
        type=int,
        default=1,
        metavar="N",
        help="worker processes for uncached work units (default 1: inline)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the on-disk result cache (always simulate)",
    )
    parser.add_argument(
        "--cache-dir",
        metavar="DIR",
        default=None,
        help=(
            "result-cache directory (default $REPRO_CACHE_DIR or "
            f"{DEFAULT_CACHE_DIR!r})"
        ),
    )
    return parser


def build_context(args) -> ExperimentContext:
    """The :class:`ExperimentContext` implied by parsed CLI flags."""
    if args.jobs < 1:
        raise SystemExit("--jobs must be >= 1")
    cache = None
    if not args.no_cache:
        cache_dir = args.cache_dir or os.environ.get(
            "REPRO_CACHE_DIR", DEFAULT_CACHE_DIR
        )
        cache = ResultCache(cache_dir)
    return ExperimentContext(jobs=args.jobs, cache=cache)


def save_result(result: ExperimentResult, directory: str) -> List[str]:
    """Persist a result: one text table plus one CSV per series.

    Returns the written paths.
    """
    out_dir = pathlib.Path(directory)
    out_dir.mkdir(parents=True, exist_ok=True)
    written: List[str] = []
    table_path = out_dir / f"{result.experiment_id}.txt"
    table_path.write_text(result.format(include_series=False) + "\n")
    written.append(str(table_path))
    if result.series:
        csv_path = out_dir / f"{result.experiment_id}_series.csv"
        starts = sorted(
            {start for points in result.series.values() for start, _ in points}
        )
        labels = sorted(result.series)
        with open(csv_path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["window_start_s"] + labels)
            for start in starts:
                row = [f"{start:g}"]
                for label in labels:
                    values = dict(result.series[label])
                    row.append(values.get(start, ""))
                writer.writerow(row)
        written.append(str(csv_path))
    return written


def _run_one(name: str, args, context: ExperimentContext) -> None:
    runner = REGISTRY[name]
    if name == "chaos":
        result = runner(
            duration_s=args.duration,
            context=context,
            loss_rate=args.loss_rate,
            max_retries=args.max_retries,
            quarantine=args.quarantine,
        )
    else:
        result = runner(duration_s=args.duration, context=context)
    print(result.format(include_series=args.series))
    if args.save:
        for path in save_result(result, args.save):
            print(f"wrote {path}")
    print()


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv and argv[0] == "bench":
        # The bench subcommand owns its flags; import lazily so figure
        # runs never pay for it.
        from repro.bench.cli import main as bench_main

        return bench_main(argv[1:])
    args = build_parser().parse_args(argv)
    if args.experiment == "list":
        for name in sorted(REGISTRY):
            print(name)
        return 0
    context = build_context(args)
    if args.experiment == "all":
        for name in sorted(REGISTRY):
            _run_one(name, args, context)
    else:
        _run_one(args.experiment, args, context)
    if context.cache is not None:
        print(
            f"cache: {context.cache.hits} hit(s), "
            f"{context.cache.misses} miss(es) in {context.cache.root}"
        )
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
