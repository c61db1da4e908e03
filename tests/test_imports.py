"""Import hygiene: an import loads only the layers it uses.

Package ``__init__`` modules export their names lazily, the experiment
registry imports an experiment on first lookup, and the harness imports
an optional layer (faults, elastic scaling, tenancy) where it wires it.
Each check runs in a fresh interpreter, so nothing another test has
imported can hide an import.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.bench.suites import REGISTRY as PROBES
from repro.experiments import REGISTRY

SRC = Path(__file__).resolve().parents[1] / "src"

#: Defines ``loaded()``: the ``repro`` modules imported so far.
PRELUDE = """
import json, sys

def loaded():
    return sorted(m for m in sys.modules if m.split(".")[0] == "repro")
"""

#: Modules of the optional layers and of the DES.
OPTIONAL = (
    "repro.simulation.runtime",
    "repro.faults",
    "repro.nimbus.elastic",
    "repro.nimbus.tenancy",
    "repro.scheduler.admission",
    "repro.analysis",
)

EXPERIMENT_MODULES = {
    "repro.experiments.ablations",
    "repro.experiments.elastic",
    "repro.experiments.fault_recovery",
    "repro.experiments.fig10_cpu_utilization",
    "repro.experiments.fig12_yahoo",
    "repro.experiments.fig13_multi_topology",
    "repro.experiments.fig8_network_bound",
    "repro.experiments.fig9_compute_bound",
    "repro.experiments.overload",
    "repro.experiments.protection",
    "repro.experiments.scalability",
    "repro.experiments.tenants",
    "repro.experiments.weight_sweep",
}


def fresh(code):
    """Run ``PRELUDE`` + ``code`` in a new interpreter and return the
    JSON value its last line prints."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", PRELUDE + textwrap.dedent(code)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def optional(modules):
    return [m for m in modules if m.startswith(OPTIONAL)]


def test_import_repro_loads_no_layer():
    package, cli = fresh("""
        import repro
        package = loaded()
        import repro.cli
        print(json.dumps([package, loaded()]))
    """)
    assert package == ["repro"]
    # the CLI loads an experiment, and the DES, only to run one
    assert optional(cli) == []
    assert EXPERIMENT_MODULES.isdisjoint(cli)


def test_scheduling_imports_load_no_des():
    # what the sched-512 benchmark workload imports: R-Storm, Nimbus and
    # the unit types, but no simulator
    modules = fresh("""
        import repro.cluster.builders
        import repro.experiments.parallel
        import repro.nimbus.nimbus
        import repro.scheduler.rstorm
        print(json.dumps(loaded()))
    """)
    assert optional(modules) == []
    # nor the transfer model, so a change to it cannot move sched-512
    assert "repro.simulation.network" not in modules
    assert "repro.experiments.harness" not in modules
    assert EXPERIMENT_MODULES.isdisjoint(modules)


def test_registry_lookup_imports_only_that_experiment():
    modules = fresh("""
        from repro.experiments import REGISTRY
        from repro.experiments.fig9_compute_bound import run
        assert REGISTRY["fig9"] is run
        print(json.dumps(loaded()))
    """)
    assert EXPERIMENT_MODULES & set(modules) == {
        "repro.experiments.fig9_compute_bound"
    }
    # a static figure wires no optional layer
    assert optional(modules) == ["repro.simulation.runtime"]


def test_package_exports_resolve():
    bad = fresh("""
        import importlib, pkgutil
        import repro

        bad = []
        packages = ["repro"] + [
            m.name for m in pkgutil.iter_modules(repro.__path__, "repro.")
            if m.ispkg
        ]
        for name in packages:
            package = importlib.import_module(name)
            listed = dir(package)
            for export in package.__all__:
                if export not in listed or getattr(package, export) is None:
                    bad.append(f"{name}.{export}")
            try:
                package.no_such_name
            except AttributeError:
                pass
            else:
                bad.append(f"{name}.no_such_name")
        print(json.dumps(bad))
    """)
    assert bad == []


def test_every_module_imports():
    modules = fresh("""
        import importlib, pkgutil
        import repro

        for info in pkgutil.walk_packages(repro.__path__, "repro."):
            importlib.import_module(info.name)
        print(json.dumps(loaded()))
    """)
    files = sorted(SRC.joinpath("repro").rglob("*.py"))
    assert len(modules) == len(files)


@pytest.mark.parametrize(
    "name, kwargs",
    [(name, {}) for name in sorted(REGISTRY)]
    + [("chaos", {"loss_rate": 0.05, "quarantine": True})],
)
def test_experiment_module_imports_what_its_units_wire(name, kwargs):
    """Loading an experiment imports every layer its units wire, so no
    unit pays for an import (the benchmark times units, not loads)."""
    added = fresh(f"""
        from repro.experiments import REGISTRY
        from repro.experiments.parallel import ExperimentContext, ScheduleUnit

        class Collected(Exception):
            pass

        class Collect(ExperimentContext):
            def run(self, units):
                self.units = list(units)
                raise Collected

        context = Collect()
        try:
            REGISTRY[{name!r}](context=context, **{kwargs!r})
        except Collected:
            pass
        before = loaded()
        for unit in context.units:
            if isinstance(unit, ScheduleUnit):
                unit.execute()
                break
            unit.wire()
        print(json.dumps(sorted(set(loaded()) - set(before))))
    """)
    assert added == []


@pytest.mark.parametrize("name", list(PROBES))
def test_bench_probe_imports_nothing_while_timed(name):
    added = fresh(f"""
        from repro.bench.suites import REGISTRY

        workload = REGISTRY[{name!r}].prepare()
        before = loaded()
        workload()
        print(json.dumps(sorted(set(loaded()) - set(before))))
    """)
    assert added == []
