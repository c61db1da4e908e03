"""Tests of ``run.py`` at reduced sizes, passed as arguments, not flags.

Run from the repository root: ``python3 -m pytest perfbench/tests``.
"""

import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import pytest
from repro.cluster.builders import emulab_testbed
from repro.experiments import REGISTRY
from repro.experiments.parallel import SimulationUnit, spec
from repro.simulation.config import SimulationConfig

from perfbench import run
from perfbench.calibrate import CALIB_EVENTS, calibrated, calibration_loop
from perfbench.workloads import (
    WORKLOADS,
    ExperimentWorkload,
    SchedWorkload,
    digest_text,
)

ROOT = Path(run.__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
REF_S = 0.02


def test_calibration_arithmetic():
    assert calibrated(2.0, (0.01, 0.03), REF_S) == pytest.approx(2.0)
    assert calibrated(1.0, (0.04,), REF_S) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        calibrated(1.0, (), REF_S)
    assert calibration_loop() == CALIB_EVENTS


@pytest.mark.parametrize("n", [2, 7, 120, 180])
def test_percentiles_match_statistics_inclusive(n):
    values = [float((i * 37) % n) for i in range(n)]
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    assert run.percentile(values, 50) == pytest.approx(cuts[49])
    assert run.percentile(values, 90) == pytest.approx(cuts[89])


def test_percentile_of_one_sample():
    assert run.percentile([3.0], 90) == 3.0


def _repeat(digest, attempted=10, failed=0):
    return {"attempted": attempted, "failed": failed, "digests": {"a": digest}}


def test_judge_fails_whole_repeats_on_a_digest_mismatch():
    good, raised, wrong = _repeat("x"), _repeat("x", failed=3), _repeat("y")
    assert run.judge([good, raised, wrong], {"a": "x"}) == (30, 13)
    # unpinned seeds expect the digests most repeats agree on
    assert run.judge([good, good, wrong], None) == (30, 10)


def _refuse():
    raise RuntimeError("scheduler refused")


def _refusing_experiment(context=None, duration_s=5.0):
    config = SimulationConfig(duration_s=duration_s, warmup_s=0.0)
    units = [
        SimulationUnit(
            scheduler=spec(_refuse),
            topologies=(),
            cluster=spec(emulab_testbed),
            config=config,
            label=f"refused-{i}",
        )
        for i in range(3)
    ]
    context.run(units)


def test_a_raising_unit_fails_every_unit_of_its_experiment(monkeypatch):
    monkeypatch.setitem(REGISTRY, "refuse", _refusing_experiment)
    workload = ExperimentWorkload(
        "t", "why", (("refuse", ()), ("fig9", (("duration_s", 10.0),)))
    )
    repeat = workload.repeat(None, 0, REF_S)
    assert repeat.attempted == 3 + 6
    assert repeat.failed == 3
    assert repeat.digests["refuse"] == "error"
    assert len(repeat.op_s) == 6
    assert repeat.wall_s > 0


def test_seed_changes_open_loop_digests_and_seed0_is_the_program():
    kwargs = (("duration_s", 20.0), ("multipliers", (1.5,)))
    workload = ExperimentWorkload("t", "why", (("traffic", kwargs),))
    seed0 = workload.repeat(None, 0, REF_S).digests["traffic"]
    seed1 = workload.repeat(None, 1, REF_S).digests["traffic"]
    assert seed0 != seed1
    plain = REGISTRY["traffic"](duration_s=20.0, multipliers=(1.5,))
    assert seed0 == digest_text(plain.format(include_series=True))


def test_sched_rounds_are_seeded_and_complete():
    workload = SchedWorkload("t", "why", fresh_rounds=2, replace_rounds=5, block=2)
    inputs = workload.build(0)
    first = workload.repeat(inputs, 0, REF_S)
    again = workload.repeat(inputs, 0, REF_S)
    other = workload.repeat(inputs, 1, REF_S)
    assert (first.attempted, first.failed, len(first.op_s)) == (7, 0, 7)
    # one opening loop, then one after each block: fresh 2 | replace 2, 2, 1
    assert len(first.calib_s) == 1 + 1 + 3
    assert first.digests == again.digests != other.digests


def test_benchmark_json_declares_the_workloads():
    declared = [(w["name"], w["why"]) for w in BENCHMARK["workloads"]]
    assert declared == [(w.name, w.why) for w in WORKLOADS.values()]
    assert sorted(WORKLOADS) == sorted(run.SEED0_DIGESTS)



def _declared(kind):
    return {m["name"]: m["unit"] for m in BENCHMARK[kind]}


def test_metrics_are_exactly_the_declared_ones():
    small = SchedWorkload("t", "why", fresh_rounds=2, replace_rounds=2, block=2)
    inputs = small.build(1)
    children = [run.measure(small, inputs, 1, traced=False) for _ in range(2)]
    for child in children:
        child["setup_s"] = 0.1
    traced = run.measure(small, inputs, 1, traced=True)
    end_to_end = run.end_to_end(children)
    per_layer = run.per_layer(children, traced)
    assert {m: run.unit_of(m) for m in end_to_end} == _declared("end_to_end")
    assert {m: run.unit_of(m) for m in per_layer} == _declared("per_layer")
    assert all(value > 0 for value in end_to_end.values())
    assert per_layer["scheduler.tasks_placed"] > 0
    assert per_layer["engine.events"] == 0


def test_a_run_prints_its_result_and_leaves_the_checkout_clean(capsys):
    git = shutil.which("git")
    tracked = git is not None and (ROOT / ".git").exists()

    def status():
        if not tracked:
            return ""
        return subprocess.run(
            [git, "status", "--porcelain"], cwd=ROOT, capture_output=True,
            text=True, check=True,
        ).stdout

    summaries = [ROOT / "BENCH_sched.json", ROOT / "BENCH_flow.json"]

    def stamps():
        return [p.stat().st_mtime_ns if p.exists() else None for p in summaries]

    before, before_stamps = status(), stamps()
    code = run.main(["--workload", "sched-512", "--seed", "1", "--seconds", "0"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert (result["attempted"], result["failed"]) == (100, 0)
    assert set(result["metrics"]) == set(_declared("end_to_end"))
    assert status() == before
    assert stamps() == before_stamps


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper-closed",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
