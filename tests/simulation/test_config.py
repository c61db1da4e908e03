"""Tests for SimulationConfig validation."""

import math

import pytest

from repro.errors import ConfigError
from repro.simulation.config import SimulationConfig
from repro.traffic.arrivals import PoissonArrivals
from repro.traffic.keys import UniformKeys


class TestDefaults:
    def test_defaults_valid(self):
        config = SimulationConfig()
        assert config.window_s == 10.0  # the paper's reporting window
        assert config.max_spout_pending == 10

    def test_unbounded_pending_allowed(self):
        assert SimulationConfig(max_spout_pending=None).max_spout_pending is None

    def test_crash_model_can_be_disabled(self):
        config = SimulationConfig(queue_overflow_batches=None)
        assert config.queue_overflow_batches is None

    def test_closed_loop_is_the_default(self):
        config = SimulationConfig()
        assert config.arrival_process is None
        assert config.arrival_keys is None
        assert config.arrival_seed == 1

    def test_open_loop_config_accepted(self):
        config = SimulationConfig(
            arrival_process=PoissonArrivals(rate_tps=100.0),
            arrival_keys=UniformKeys(num_keys=8),
            arrival_seed=7,
        )
        assert config.arrival_process.mean_rate_tps() == 100.0
        assert config.arrival_keys.num_keys == 8


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"duration_s": 0.0},
            {"duration_s": -1.0},
            {"window_s": 0.0},
            {"warmup_s": -1.0},
            {"warmup_s": 120.0, "duration_s": 120.0},
            {"max_spout_pending": 0},
            {"batch_timeout_s": 0.0},
            {"thrash_factor": 0.5},
            {"serde_ms_per_tuple": -0.1},
            {"queue_overflow_batches": 0},
            {"worker_restart_s": -1.0},
            {"arrival_process": 42},
            {"arrival_process": "poisson"},
            {"arrival_keys": UniformKeys(num_keys=4)},  # needs a process
            {"arrival_process": PoissonArrivals(rate_tps=10.0),
             "arrival_keys": 7},
            {"arrival_process": PoissonArrivals(rate_tps=10.0),
             "arrival_seed": -1},
            {"arrival_process": PoissonArrivals(rate_tps=10.0),
             "arrival_seed": 1.5},
            # non-finite or mistyped: a NaN cutoff never times a tree
            # out, so credit would leak silently
            {"batch_timeout_s": math.nan},
            {"thrash_factor": math.nan},
            {"serde_ms_per_tuple": math.nan},
            {"worker_restart_s": math.nan},
            {"window_s": math.inf},
            {"replay_backoff_s": math.inf},
            {"duration_s": math.inf},
            {"duration_s": "60"},
            {"max_spout_pending": 2.5},
            {"max_spout_pending": True},
            {"queue_overflow_batches": 7.5},
            {"max_retries": 1.5},
            {"max_retries": False},
            # a truthy string would silently switch replay on
            {"at_least_once": "no"},
            {"at_least_once": 1},
            {"arrival_process": PoissonArrivals(rate_tps=10.0),
             "arrival_seed": True},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            SimulationConfig(**kwargs)

    def test_int_accepted_for_float_fields(self):
        config = SimulationConfig(
            duration_s=60, window_s=5, warmup_s=0, batch_timeout_s=2,
            thrash_factor=1, serde_ms_per_tuple=0, worker_restart_s=0,
            replay_backoff_s=1,
        )
        assert config.duration_s == 60 and config.thrash_factor == 1

    def test_frozen(self):
        config = SimulationConfig()
        with pytest.raises(AttributeError):
            config.duration_s = 5.0
