"""Fast tests of the experiment drivers (tiny configurations)."""

import numpy as np
import pytest

from repro.experiments.fig2_inverter import InverterConfig, inverter_transfer_data
from repro.experiments.fig3_rng import RNGStatsConfig, rng_statistics
from repro.experiments.reuse_ablation import ReuseAblationConfig, reuse_ablation


class TestInverterExperiment:
    @pytest.fixture(scope="class")
    def data(self):
        return inverter_transfer_data(InverterConfig(n_grid=101))

    def test_sweeps_are_bells(self, data):
        for center, current in data["sweeps"].items():
            peak = current.max()
            assert current[0] < 0.05 * peak
            assert current[-1] < 0.05 * peak

    def test_peak_shift_within_fg_lsb(self, data):
        # 4-bit floating gate over a 1 V window: LSB/2 = 33 mV.
        assert data["peak_shift_error"] < 0.04

    def test_rectilinearity_ordering(self, data):
        hmg_ratio, gauss_ratio = data["rectilinearity"]
        assert hmg_ratio > gauss_ratio
        assert gauss_ratio == pytest.approx(np.pi / 4, abs=0.03)

    def test_width_menu_monotone(self, data):
        assert np.all(np.diff(data["width_menu_v"]) > 0)

    def test_2d_grid_peak_interior(self, data):
        grid = data["grid_2d"]
        idx = np.unravel_index(np.argmax(grid), grid.shape)
        assert 0 < idx[0] < grid.shape[0] - 1
        assert 0 < idx[1] < grid.shape[1] - 1


class TestRNGExperiment:
    def test_calibration_always_helps(self):
        stats = rng_statistics(
            RNGStatsConfig(column_sweep=(4, 16), n_instances=4, bits_per_instance=1024)
        )
        for row in stats["rows"]:
            assert row["bias_after"] <= row["bias_before"] + 0.02
            assert row["bias_after"] < 0.08

    def test_mismatch_to_noise_reported(self):
        stats = rng_statistics(
            RNGStatsConfig(column_sweep=(8,), n_instances=3, bits_per_instance=512)
        )
        assert stats["rows"][0]["mismatch_to_noise"] > 0


class TestReuseAblation:
    @pytest.fixture(scope="class")
    def ablation(self):
        return reuse_ablation(
            ReuseAblationConfig(n_inputs=64, n_outputs=32, n_iterations=12, n_trials=2)
        )

    def test_orderings(self, ablation):
        fractions = ablation["executed_fraction"]
        assert fractions["naive"] == 1.0
        assert fractions["active_only"] < 1.0
        assert fractions["reuse_ordered"] <= fractions["reuse"] + 1e-9

    def test_path_reduction_positive(self, ablation):
        assert ablation["ordering_path_reduction"] > 0.0

    def test_keep_probability_sweep(self):
        sparse, dense = (
            reuse_ablation(
                ReuseAblationConfig(
                    n_inputs=64,
                    n_outputs=16,
                    n_iterations=10,
                    keep_probability=keep,
                    n_trials=2,
                )
            )
            for keep in (0.2, 0.8)
        )
        # sparse masks -> fewer active ops
        assert (
            sparse["executed_fraction"]["active_only"]
            < dense["executed_fraction"]["active_only"]
        )
