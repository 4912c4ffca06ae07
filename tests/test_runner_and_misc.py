"""Integration details: world caching, scaler clipping, macro recalibration,
localization results, ledger edge cases and dataset defaults."""

import numpy as np
import pytest


class TestWorldCaching:
    def test_room_world_cached(self):
        from repro.experiments.common import build_room_world

        a = build_room_world(seed=3, n_steps=3, n_cloud_points=500, image=(16, 12))
        b = build_room_world(seed=3, n_steps=3, n_cloud_points=500, image=(16, 12))
        assert a is b

    def test_different_config_not_cached(self):
        from repro.experiments.common import build_room_world

        a = build_room_world(seed=3, n_steps=3, n_cloud_points=500, image=(16, 12))
        b = build_room_world(seed=4, n_steps=3, n_cloud_points=500, image=(16, 12))
        assert a is not b


class TestStandardizerClip:
    def test_clip_bounds_transform(self, rng):
        from repro.vo.features import Standardizer

        data = rng.normal(size=(100, 4))
        scaler = Standardizer.fit(data, clip=2.0)
        wild = scaler.transform(np.full((1, 4), 1e6))
        assert np.all(np.abs(wild) <= 2.0)

    def test_no_clip_by_default(self, rng):
        from repro.vo.features import Standardizer

        data = rng.normal(size=(50, 2))
        scaler = Standardizer.fit(data)
        wild = scaler.transform(np.full((1, 2), 1e6))
        assert np.all(np.abs(wild) > 100)


class TestMacroRecalibration:
    def test_recalibrate_changes_full_scale(self, rng):
        from repro.sram.macro import SRAMCIMMacro

        macro = SRAMCIMMacro(rng.normal(size=(16, 8)), rng=rng)
        before = macro.adc_full_scale
        macro.recalibrate(10.0 * rng.normal(size=(32, 16)))
        assert macro.adc_full_scale > 2 * before

    def test_engine_calibration_propagates(self, rng):
        from repro.core.cim_mc_dropout import CIMMCDropoutEngine
        from repro.nn import Dense, Dropout, ReLU, Sequential

        model = Sequential(
            [Dense(8, 12, rng), ReLU(), Dropout(0.5, rng=rng), Dense(12, 3, rng)]
        )
        engine = CIMMCDropoutEngine(model, use_hardware_rng=False, rng=rng)
        scales_before = [layer.macro.adc_full_scale for layer in engine.layers]
        engine.calibrate_adc_ranges(5.0 * rng.normal(size=(64, 8)))
        scales_after = [layer.macro.adc_full_scale for layer in engine.layers]
        assert all(a != b for a, b in zip(scales_before, scales_after))


class TestLocalizationResult:
    def test_converged_step(self):
        from repro.core.cim_particle_filter import (
            LocalizationResult,
            converged_step,
        )
        from repro.circuits.energy import EnergyLedger

        errors = np.array([2.0, 1.0, 0.4, 0.3, 0.2])
        result = LocalizationResult(
            estimates=np.zeros((5, 4)),
            errors=errors,
            diagnostics=[],
            energy=EnergyLedger(),
            backend="cim",
        )
        assert converged_step(result.errors, threshold=0.5) == 2
        assert converged_step(result.errors, threshold=0.1) is None
        assert result.final_error == pytest.approx(0.2)


class TestEnergyLedgerEdgeCases:
    def test_total_energy_sums_in_insertion_order(self):
        """Per-track ledgers rely on this order for bit-exact totals."""
        from repro.circuits.energy import EnergyLedger

        ledger = EnergyLedger()
        for operation, energy in (("z", 1e16), ("a", 1.0), ("b", 1.0)):
            ledger.add_energy(operation, energy)
        # 1e16 + 1.0 rounds back to 1e16; summed by name (a, b, z) the
        # two 1.0s would first make 2.0 and survive.
        assert ledger.total_energy_j() == (1e16 + 1.0) + 1.0 == 1e16


class TestDatasetJitterDefault:
    def test_speed_jitter_varies_increments(self):
        from repro.scene.dataset import SyntheticRGBDScenes

        dataset = SyntheticRGBDScenes(n_scenes=1, frames_per_scene=12, seed=5)
        trajectory = dataset.trajectory(0)
        steps = np.linalg.norm(
            np.diff([pose.translation for pose in trajectory], axis=0), axis=1
        )
        assert steps.std() / steps.mean() > 0.1
