"""Tests for the ``repro bench`` CLI, including the --check gate."""

import json

import pytest

from repro.bench import cli
from repro.bench.core import Benchmark, result_filename


@pytest.fixture()
def fake_registry(monkeypatch):
    registry = {
        "fast": Benchmark(
            name="fast",
            description="constant tiny workload",
            prepare=lambda: (lambda: 10),
            repeats=2,
        ),
    }
    monkeypatch.setattr(cli, "REGISTRY", registry)
    return registry


def test_list_exits_zero(fake_registry, capsys):
    assert cli.main(["--list"]) == 0
    out = capsys.readouterr().out
    assert "fast" in out
    assert "constant tiny workload" in out


def test_list_aligns_every_registered_name(capsys):
    assert cli.main(["--list"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line[: cli.NAME_WIDTH].rstrip() for line in lines] == list(
        cli.REGISTRY
    )
    assert all(line[cli.NAME_WIDTH] == " " for line in lines)
    assert cli.NAME_WIDTH >= len("tenant-admission")


def test_unknown_benchmark_exits_two(fake_registry, capsys):
    assert cli.main(["nope", "--out", "/tmp/unused"]) == 2
    assert "unknown benchmark" in capsys.readouterr().err


def test_run_writes_json(fake_registry, tmp_path, capsys):
    out = tmp_path / "results"
    assert cli.main(["fast", "--out", str(out)]) == 0
    payload = json.loads((out / result_filename("fast")).read_text())
    assert payload["events"] == 10
    assert "fast" in capsys.readouterr().out


def test_check_without_baseline_fails(fake_registry, tmp_path, capsys):
    code = cli.main(
        [
            "fast",
            "--out",
            str(tmp_path / "out"),
            "--baseline",
            str(tmp_path / "missing"),
            "--check",
        ]
    )
    assert code == 1
    assert "no baseline" in capsys.readouterr().err


def _write_baseline(directory, events=10, median=1000.0):
    directory.mkdir(parents=True, exist_ok=True)
    payload = {
        "schema": 1,
        "name": "fast",
        "repeats": 2,
        "times_s": [median, median],
        "median_s": median,
        "p90_s": median,
        "events": events,
        "events_per_sec": events / median if median > 0 else 0.0,
        "peak_rss_kb": 1,
        "meta": {},
    }
    (directory / result_filename("fast")).write_text(json.dumps(payload))


def test_check_passes_against_generous_baseline(
    fake_registry, tmp_path, capsys
):
    baseline = tmp_path / "baseline"
    _write_baseline(baseline, median=1000.0)
    code = cli.main(
        [
            "fast",
            "--out",
            str(tmp_path / "out"),
            "--baseline",
            str(baseline),
            "--check",
        ]
    )
    assert code == 0
    assert "perf gate OK" in capsys.readouterr().out


def test_check_fails_on_regression(fake_registry, tmp_path, capsys):
    # A baseline with an impossibly fast median makes any fresh run a
    # >tolerance regression.
    baseline = tmp_path / "baseline"
    _write_baseline(baseline, median=1e-12)
    code = cli.main(
        [
            "fast",
            "--out",
            str(tmp_path / "out"),
            "--baseline",
            str(baseline),
            "--check",
            "--tolerance",
            "1.5",
        ]
    )
    assert code == 1
    assert "perf gate FAILED" in capsys.readouterr().err


def test_check_fails_on_event_divergence(fake_registry, tmp_path, capsys):
    baseline = tmp_path / "baseline"
    _write_baseline(baseline, events=11, median=1000.0)
    code = cli.main(
        [
            "fast",
            "--out",
            str(tmp_path / "out"),
            "--baseline",
            str(baseline),
            "--check",
        ]
    )
    assert code == 1
    assert "events diverged" in capsys.readouterr().err


def test_check_fails_on_zero_median_baseline(fake_registry, tmp_path, capsys):
    baseline = tmp_path / "baseline"
    _write_baseline(baseline, median=0.0)
    code = cli.main(
        [
            "fast",
            "--out",
            str(tmp_path / "out"),
            "--baseline",
            str(baseline),
            "--check",
        ]
    )
    assert code == 1
    assert "baseline median 0.0000s is not positive" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags", [["--repeats", "0"], ["--check", "--tolerance", "0.5"]]
)
def test_bad_arguments_exit_two_before_running(
    flags, fake_registry, tmp_path, capsys, monkeypatch
):
    def refuse(*_args, **_kwargs):
        raise AssertionError("a probe ran")

    monkeypatch.setattr(cli, "run_benchmark", refuse)
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["fast", "--out", str(out), *flags])
    assert exit_info.value.code == 2
    assert "must be >=" in capsys.readouterr().err
    assert not out.exists()


@pytest.fixture()
def sched_registry(monkeypatch):
    registry = {
        "sched-fast": Benchmark(
            name="sched-fast",
            description="scheduler probe",
            prepare=lambda: (lambda: 10),
            repeats=2,
        ),
        "other": Benchmark(
            name="other",
            description="non-scheduler probe",
            prepare=lambda: (lambda: 5),
            repeats=2,
        ),
    }
    monkeypatch.setattr(cli, "REGISTRY", registry)
    return registry


def test_sched_summary_written_for_sched_probes(
    sched_registry, tmp_path, capsys
):
    summary = tmp_path / "BENCH_sched.json"
    code = cli.main(
        [
            "sched-fast",
            "other",
            "--out",
            str(tmp_path / "out"),
            "--baseline",
            str(tmp_path / "missing"),
            "--summary",
            str(summary),
        ]
    )
    assert code == 0
    payload = json.loads(summary.read_text())
    assert set(payload["probes"]) == {"sched-fast"}
    probe = payload["probes"]["sched-fast"]
    assert probe["events"] == 10
    assert probe["speedup_vs_baseline"] is None
    assert "scheduler summary" in capsys.readouterr().out


def test_sched_summary_reports_speedup_vs_baseline(
    sched_registry, tmp_path
):
    baseline = tmp_path / "baseline"
    baseline.mkdir()
    payload = {
        "schema": 1,
        "name": "sched-fast",
        "repeats": 2,
        "times_s": [1000.0, 1000.0],
        "median_s": 1000.0,
        "p90_s": 1000.0,
        "events": 10,
        "events_per_sec": 0.01,
        "peak_rss_kb": 1,
        "meta": {},
    }
    (baseline / result_filename("sched-fast")).write_text(
        json.dumps(payload)
    )
    summary = tmp_path / "BENCH_sched.json"
    code = cli.main(
        [
            "sched-fast",
            "--out",
            str(tmp_path / "out"),
            "--baseline",
            str(baseline),
            "--summary",
            str(summary),
        ]
    )
    assert code == 0
    probe = json.loads(summary.read_text())["probes"]["sched-fast"]
    assert probe["speedup_vs_baseline"] > 1.0


def test_sched_summary_skipped_without_sched_probes(
    fake_registry, tmp_path
):
    summary = tmp_path / "BENCH_sched.json"
    assert (
        cli.main(
            [
                "fast",
                "--out",
                str(tmp_path / "out"),
                "--summary",
                str(summary),
            ]
        )
        == 0
    )
    assert not summary.exists()


@pytest.fixture()
def flow_registry(monkeypatch):
    registry = {
        "overload-protect": Benchmark(
            name="overload-protect",
            description="flow probe",
            prepare=lambda: (lambda: 20),
            repeats=2,
        ),
        "other": Benchmark(
            name="other",
            description="non-flow probe",
            prepare=lambda: (lambda: 5),
            repeats=2,
        ),
    }
    monkeypatch.setattr(cli, "REGISTRY", registry)
    return registry


def test_flow_summary_written_for_flow_probes(flow_registry, tmp_path, capsys):
    summary = tmp_path / "BENCH_flow.json"
    code = cli.main(
        [
            "overload-protect",
            "other",
            "--out",
            str(tmp_path / "out"),
            "--baseline",
            str(tmp_path / "missing"),
            "--summary",
            "",
            "--flow-summary",
            str(summary),
        ]
    )
    assert code == 0
    payload = json.loads(summary.read_text())
    assert set(payload["probes"]) == {"overload-protect"}
    probe = payload["probes"]["overload-protect"]
    assert probe["events"] == 20
    assert probe["speedup_vs_baseline"] is None
    assert "overload-path summary" in capsys.readouterr().out


def test_flow_summary_skipped_without_flow_probes(fake_registry, tmp_path):
    summary = tmp_path / "BENCH_flow.json"
    assert (
        cli.main(
            [
                "fast",
                "--out",
                str(tmp_path / "out"),
                "--summary",
                "",
                "--flow-summary",
                str(summary),
            ]
        )
        == 0
    )
    assert not summary.exists()


def test_sched_summary_disabled_with_empty_path(sched_registry, tmp_path):
    code = cli.main(
        [
            "sched-fast",
            "--out",
            str(tmp_path / "out"),
            "--summary",
            "",
        ]
    )
    assert code == 0
    assert not (tmp_path / "BENCH_sched.json").exists()


def test_repro_cli_dispatches_bench(tmp_path, monkeypatch, capsys):
    # `python -m repro bench --list` routes through the figure CLI.
    from repro.cli import main as repro_main

    assert repro_main(["bench", "--list"]) == 0
    assert "engine-churn" in capsys.readouterr().out


def test_check_writes_no_summary_by_default(tmp_path, monkeypatch):
    """The CI gate command must not rewrite the tracked summaries."""
    monkeypatch.setattr(
        cli,
        "REGISTRY",
        {
            name: Benchmark(
                name=name,
                description="probe",
                prepare=lambda: (lambda: 10),
                repeats=2,
            )
            for name in ("sched-fast", "overload-protect")
        },
    )
    monkeypatch.chdir(tmp_path)
    cli.main(
        [
            "sched-fast",
            "overload-protect",
            "--out",
            str(tmp_path / "out"),
            "--baseline",
            str(tmp_path / "missing"),
            "--check",
        ]
    )
    assert not (tmp_path / "BENCH_sched.json").exists()
    assert not (tmp_path / "BENCH_flow.json").exists()
