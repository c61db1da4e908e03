"""The layer table, and the cProfile roll-up that attributes time to it.

Every module under ``src/repro/`` belongs to exactly one layer, by the
longest matching path prefix in :data:`LAYER_PATHS`.  Inside
``simulation/runtime.py`` a few functions belong to other layers than
``dispatch``, by name (:data:`RUNTIME_FUNCTIONS`, exact names or
``prefix*``).  A traced repeat's profile is rolled up as follows:

* a function of the program is charged to its layer;
* a function of the benchmark itself is ``unattributed``;
* a builtin or stdlib function (or generated code such as a dataclass
  ``__init__``) is charged to whoever called it, in proportion to the
  time each caller spent in it, recursively.

The call counts are exact; self time is busy time (the program never
waits on the wall clock).
"""

from __future__ import annotations

import cProfile
import fnmatch
import os
import pstats
from pathlib import Path
from typing import Dict, Mapping, Optional, Tuple

import repro

#: layer -> module path prefixes, relative to the ``repro`` package.
LAYER_PATHS: Mapping[str, Tuple[str, ...]] = {
    "engine": ("simulation/engine.py",),
    "dispatch": ("simulation/runtime.py",),
    "routing": ("topology/grouping.py",),
    "transfer": ("simulation/network.py",),
    "stats": (
        "simulation/metrics.py",
        "simulation/report.py",
        "traffic/percentiles.py",
    ),
    "flow": ("simulation/flowcontrol.py",),
    "arrivals": ("traffic/",),
    "tracer": ("simulation/tracing.py", "faults/monitor.py"),
    "nimbus": ("nimbus/", "faults/"),
    "scheduler": ("scheduler/",),
    "model": (
        "cluster/",
        "topology/",
        "workloads/",
        "simulation/__init__.py",
        "simulation/config.py",
        "errors.py",
    ),
    "harness": (
        "experiments/",
        "analysis/",
        "bench/",
        "simulation/export.py",
        "cli.py",
        "__init__.py",
        "__main__.py",
    ),
}

#: functions of ``simulation/runtime.py`` that belong to another layer
RUNTIME_FUNCTIONS: Mapping[str, Tuple[str, ...]] = {
    "routing": ("_route", "_deliver", "_refresh_route", "_assign_keys"),
    "flow": ("_init_flow", "_fc_*", "_shed*"),
    "arrivals": ("_arrive", "_start_arrivals"),
}

#: every layer, in table order, then the remainder
LAYERS: Tuple[str, ...] = tuple(LAYER_PATHS)
UNATTRIBUTED = "unattributed"

_PACKAGE_DIR = Path(repro.__file__).resolve().parent
_BENCH_DIR = Path(__file__).resolve().parent
_RUNTIME = "simulation/runtime.py"


def layer_of_module(relpath: str) -> Optional[str]:
    """Layer of a module given by its path inside the package (``/``
    separated), by the longest matching prefix; ``None`` if none does."""
    best: Optional[Tuple[int, str]] = None
    for layer, prefixes in LAYER_PATHS.items():
        for prefix in prefixes:
            if relpath.startswith(prefix) and (best is None or len(prefix) > best[0]):
                best = (len(prefix), layer)
    return None if best is None else best[1]


def layer_of_function(relpath: str, name: str) -> Optional[str]:
    if relpath == _RUNTIME:
        for layer, patterns in RUNTIME_FUNCTIONS.items():
            if any(fnmatch.fnmatchcase(name, p) for p in patterns):
                return layer
    return layer_of_module(relpath)


def _owner(filename: str, name: str) -> Optional[str]:
    """The layer a profiled function's own time is charged to: its
    layer for the program, ``unattributed`` for the benchmark, ``None``
    for builtin, stdlib or generated code (charged to its callers)."""
    if filename.startswith(("<", "~")):
        return None
    path = Path(os.path.realpath(filename))
    if path.is_relative_to(_PACKAGE_DIR):
        relpath = path.relative_to(_PACKAGE_DIR).as_posix()
        return layer_of_function(relpath, name) or UNATTRIBUTED
    if path.is_relative_to(_BENCH_DIR):
        return UNATTRIBUTED
    return None


def rollup(profiler: cProfile.Profile) -> Tuple[Dict[str, float], Dict[str, int]]:
    """Self-time share and call count per layer (plus ``unattributed``,
    which has a share but no calls) from a finished profile."""
    stats = pstats.Stats(profiler).stats  # type: ignore[attr-defined]
    owners = {func: _owner(func[0], func[2]) for func in stats}
    charges: Dict[Tuple[str, int, str], Dict[str, float]] = {}

    def charge(func: Tuple[str, int, str], visiting: frozenset) -> Dict[str, float]:
        owner = owners[func]
        if owner is not None:
            return {owner: 1.0}
        if func in charges:
            return charges[func]
        callers = stats[func][4]
        total = sum(edge[2] for edge in callers.values())
        if total <= 0 or func in visiting:
            return {UNATTRIBUTED: 1.0}
        shares: Dict[str, float] = {}
        for caller, edge in callers.items():
            for layer, part in charge(caller, visiting | {func}).items():
                shares[layer] = shares.get(layer, 0.0) + part * edge[2] / total
        charges[func] = shares
        return shares

    self_s = dict.fromkeys(LAYERS + (UNATTRIBUTED,), 0.0)
    calls = dict.fromkeys(LAYERS, 0)
    for func, (_cc, nc, tt, _ct, _callers) in stats.items():
        for layer, part in charge(func, frozenset()).items():
            self_s[layer] += tt * part
        owner = owners[func]
        if owner in calls:
            calls[owner] += nc
    total = sum(self_s.values())
    shares = {
        layer: (seconds / total if total > 0 else 0.0)
        for layer, seconds in self_s.items()
    }
    return shares, calls
