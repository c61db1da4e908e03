"""Tests for the CLI and the experiment registry."""

import pytest

from repro.cli import build_parser, main
from repro.experiments import REGISTRY


class TestRegistry:
    def test_every_paper_figure_registered(self):
        for figure in ("fig8", "fig9", "fig10", "fig12", "fig13"):
            assert figure in REGISTRY

    def test_extras_registered(self):
        assert "ablations" in REGISTRY


class TestParser:
    def test_experiment_choices(self):
        parser = build_parser()
        args = parser.parse_args(["fig8", "--duration", "30"])
        assert args.experiment == "fig8"
        assert args.duration == 30.0

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig99"])

    def test_delivery_flags_default_off(self):
        args = build_parser().parse_args(["chaos"])
        assert args.loss_rate == 0.0
        assert args.max_retries == 3
        assert args.quarantine is False

    def test_delivery_flags_parsed(self):
        args = build_parser().parse_args(
            ["chaos", "--loss-rate", "0.05", "--max-retries", "5",
             "--quarantine"]
        )
        assert args.loss_rate == 0.05
        assert args.max_retries == 5
        assert args.quarantine is True


class TestMain:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig8" in out and "ablations" in out

    def test_chaos_flags_threaded_to_runner(self, monkeypatch, capsys):
        from repro import cli
        from repro.experiments.harness import ExperimentResult

        captured = {}

        def fake_run(duration_s, context, loss_rate, max_retries, quarantine):
            captured.update(
                duration_s=duration_s,
                loss_rate=loss_rate,
                max_retries=max_retries,
                quarantine=quarantine,
            )
            result = ExperimentResult("chaos", "stub")
            result.add_row(scenario="stub")
            return result

        monkeypatch.setitem(cli.REGISTRY, "chaos", fake_run)
        assert main(
            ["chaos", "--duration", "30", "--loss-rate", "0.2",
             "--max-retries", "1", "--quarantine"]
        ) == 0
        assert captured == dict(
            duration_s=30.0, loss_rate=0.2, max_retries=1, quarantine=True
        )

    @pytest.mark.parametrize("name", sorted(REGISTRY))
    def test_jobs_and_cache_dir_reach_every_runner(
        self, name, monkeypatch, tmp_path, capsys
    ):
        """--jobs / --cache-dir parity: every registered experiment gets
        the same ExperimentContext (same worker pool, same cache root)."""
        from repro import cli
        from repro.experiments.harness import ExperimentResult

        captured = {}

        def fake_run(*args, **kwargs):
            captured["context"] = kwargs.get("context")
            result = ExperimentResult(name, "stub")
            result.add_row(scenario="stub")
            return result

        monkeypatch.setitem(cli.REGISTRY, name, fake_run)
        assert main(
            [name, "--jobs", "3", "--cache-dir", str(tmp_path / "cache")]
        ) == 0
        context = captured["context"]
        assert context is not None, f"{name} runner never saw a context"
        assert context.jobs == 3
        assert context.cache is not None
        assert str(context.cache.root) == str(tmp_path / "cache")

    @pytest.mark.parametrize("name", sorted(REGISTRY))
    def test_no_cache_reaches_every_runner(
        self, name, monkeypatch, tmp_path, capsys
    ):
        from repro import cli
        from repro.experiments.harness import ExperimentResult

        captured = {}

        def fake_run(*args, **kwargs):
            captured["context"] = kwargs.get("context")
            result = ExperimentResult(name, "stub")
            result.add_row(scenario="stub")
            return result

        monkeypatch.setitem(cli.REGISTRY, name, fake_run)
        assert main([name, "--no-cache"]) == 0
        assert captured["context"].cache is None

    def test_save_writes_table_and_series(self, tmp_path, capsys):
        from repro.cli import save_result
        from repro.experiments.harness import ExperimentResult

        result = ExperimentResult("demo", "title")
        result.add_row(a=1)
        result.add_series("x", [(0.0, 5), (10.0, 7)])
        written = save_result(result, str(tmp_path))
        assert (tmp_path / "demo.txt").exists()
        assert (tmp_path / "demo_series.csv").exists()
        csv_text = (tmp_path / "demo_series.csv").read_text()
        assert "window_start_s,x" in csv_text
        assert len(written) == 2

    def test_save_without_series_writes_table_only(self, tmp_path):
        from repro.cli import save_result
        from repro.experiments.harness import ExperimentResult

        result = ExperimentResult("demo2", "title")
        result.add_row(a=1)
        written = save_result(result, str(tmp_path))
        assert written == [str(tmp_path / "demo2.txt")]
