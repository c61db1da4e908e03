"""Short-duration smoke runs of every registered experiment.

The full-length versions live in ``benchmarks/``; these verify each
experiment module end-to-end (tables well-formed, expected columns and
rows present) at a fraction of the cost.
"""

import pytest

from repro.experiments import (
    REGISTRY,
    ablations,
    fig8_network_bound,
    fig9_compute_bound,
    fig10_cpu_utilization,
    fig12_yahoo,
    fig13_multi_topology,
    weight_sweep,
)


class TestFig8:
    def test_rows_and_columns(self):
        result = fig8_network_bound.run(duration_s=40.0)
        assert len(result.rows) == 3
        for row in result.rows:
            assert {"topology", "improvement_pct", "paper_pct"} <= set(row)
        assert len(result.series) == 6  # 3 topologies x 2 schedulers


class TestFig9:
    def test_machine_counts_reported(self):
        result = fig9_compute_bound.run(duration_s=40.0)
        linear = result.row_value({"topology": "linear"}, "rstorm_nodes")
        assert linear == 6
        assert result.row_value({"topology": "diamond"}, "rstorm_nodes") == 7


class TestFig10:
    def test_utilisations_in_unit_range(self):
        result = fig10_cpu_utilization.run(duration_s=40.0)
        for row in result.rows:
            assert 0.0 < row["rstorm_cpu_util"] <= 1.0
            assert 0.0 < row["default_cpu_util"] <= 1.0


class TestFig12:
    def test_both_topologies_present(self):
        result = fig12_yahoo.run(duration_s=40.0)
        topologies = {row["topology"] for row in result.rows}
        assert topologies == {"pageload", "processing"}


class TestFig13:
    def test_four_rows_and_paper_reference(self):
        result = fig13_multi_topology.run(duration_s=60.0)
        assert len(result.rows) == 4
        paper_column = {row["paper_tuples_per_10s"] for row in result.rows}
        assert 67115 in paper_column


class TestWeightSweep:
    def test_sweep_covers_grid(self):
        result = weight_sweep.run(duration_s=40.0)
        assert len(result.rows) == len(weight_sweep.WEIGHTS)
        # the network term earns locality on the homogeneous cluster
        net_only = result.row_value(
            {"weights": "net-only (cpu=0)"}, "linear_mean_netdist"
        )
        cpu_only = result.row_value(
            {"weights": "cpu-only (net=0)"}, "linear_mean_netdist"
        )
        assert net_only <= cpu_only + 1e-9


class TestAblations:
    def test_orderings_of_the_full_table(self):
        """The orderings ``benchmarks/test_bench_ablations.py`` checks at
        90 s, which a 30 s run keeps (paper 38160, default 10720,
        allow-overcommit 32560 tuples/10 s)."""
        result = ablations.run(duration_s=30.0)
        tput = {row["variant"]: row["tuples_per_10s"] for row in result.rows}
        baselines = ("default", "aniello-offline")
        # Every R-Storm variant is resource-aware, so each beats both
        # resource-oblivious baselines on the heterogeneous cluster.
        for variant, value in tput.items():
            if variant not in baselines:
                assert value > max(tput[b] for b in baselines), variant
        assert tput["r-storm (paper)"] > 2 * tput["default"]
        # The paper-literal minimum-distance variant over-commits CPU
        # harder and pays for it on this workload.
        assert tput["allow-overcommit"] <= tput["r-storm (paper)"]


class TestRegistryCallables:
    @pytest.mark.parametrize("name", sorted(REGISTRY))
    def test_every_entry_is_callable(self, name):
        assert callable(REGISTRY[name])
