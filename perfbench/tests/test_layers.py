"""Guard the layer table against the code it describes.

A module that no layer claims, or a runtime function the table names
that was renamed or moved, would otherwise turn silently into
``unattributed`` time.
"""

import cProfile
import fnmatch
import inspect
from pathlib import Path

import repro
from repro.simulation import runtime
from repro.simulation.engine import Simulator

from perfbench.layers import (
    LAYER_PATHS,
    LAYERS,
    RUNTIME_FUNCTIONS,
    UNATTRIBUTED,
    layer_of_function,
    layer_of_module,
    rollup,
)

PACKAGE = Path(repro.__file__).resolve().parent


def _modules():
    return sorted(p.relative_to(PACKAGE).as_posix() for p in PACKAGE.rglob("*.py"))


def test_every_module_maps_to_one_layer():
    prefixes = [p for layer in LAYER_PATHS.values() for p in layer]
    assert len(prefixes) == len(set(prefixes)), "a prefix is claimed twice"
    # distinct prefixes make the longest match, hence the layer, unique
    unmapped = [m for m in _modules() if layer_of_module(m) is None]
    assert unmapped == []


def test_every_prefix_matches_a_module():
    modules = _modules()
    for layer, prefixes in LAYER_PATHS.items():
        for prefix in prefixes:
            assert any(m.startswith(prefix) for m in modules), (layer, prefix)


def test_named_runtime_functions_exist():
    names = {
        name
        for name, _ in inspect.getmembers(runtime.SimulationRun, inspect.isfunction)
    } | {name for name, _ in inspect.getmembers(runtime, inspect.isfunction)}
    for layer, patterns in RUNTIME_FUNCTIONS.items():
        for pattern in patterns:
            assert fnmatch.filter(names, pattern), (layer, pattern)
            assert layer_of_function("simulation/runtime.py", pattern.rstrip("*"))


def test_runtime_split_by_function():
    assert layer_of_function("simulation/runtime.py", "_route") == "routing"
    assert layer_of_function("simulation/runtime.py", "_fc_send") == "flow"
    assert layer_of_function("simulation/runtime.py", "_arrive") == "arrivals"
    assert layer_of_function("simulation/runtime.py", "_dispatch") == "dispatch"
    assert layer_of_module("traffic/percentiles.py") == "stats"
    assert layer_of_module("traffic/keys.py") == "arrivals"


def _churn(events):
    sim = Simulator()

    def fire(left):
        if left:
            sim.schedule_at(sim.now + 1.0, fire, left - 1)

    sim.schedule_at(0.0, fire, events)
    sim.run(float(events + 1))


def test_rollup_charges_stdlib_time_to_the_calling_layer():
    profiler = cProfile.Profile()
    profiler.enable()
    _churn(2000)
    profiler.disable()
    shares, calls = rollup(profiler)
    assert set(shares) == set(LAYERS) | {UNATTRIBUTED}
    assert abs(sum(shares.values()) - 1.0) < 1e-9
    # heappush/heappop are builtins: their time is the engine's
    assert shares["engine"] > 0.3
    # the events' callbacks live in this file: the benchmark's own time
    assert shares[UNATTRIBUTED] > 0
    # exact: __init__, run and 2001 schedule_at
    assert calls["engine"] == 2003
    assert calls["scheduler"] == 0
