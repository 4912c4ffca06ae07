"""Integration tests for repro.core: co-design, tiling, the two engines."""

import numpy as np
import pytest

from repro.circuits import NODE_45NM, VoltageEncoder
from repro.core import (
    CIMMCDropoutEngine,
    CIMParticleFilterLocalizer,
    hardware_sigma_menu,
    program_inverter_array,
)
from repro.core.tiling import TiledInverterArrayMap, tiled_sigma_menu
from repro.maps import GaussianMixture, HMGMixture
from repro.nn import Dense, Dropout, ReLU, Sequential
from repro.sram.macro import MacroConfig


@pytest.fixture(scope="module")
def simple_mixture():
    rng = np.random.default_rng(0)
    gmm = GaussianMixture(
        [0.4, 0.6],
        [[0.0, 0.0, 1.0], [2.0, 1.0, 0.5]],
        [[0.4, 0.4, 0.3], [0.5, 0.5, 0.4]],
    )
    cloud = gmm.sample(800, rng)
    lo, hi = cloud.min(axis=0) - 0.2, cloud.max(axis=0) + 0.2
    encoder = VoltageEncoder(lo=lo, hi=hi, vdd=NODE_45NM.vdd, margin=0.08)
    menu = hardware_sigma_menu(NODE_45NM, encoder)
    mixture = HMGMixture.fit(cloud, 4, rng, sigma_menu=menu)
    return mixture, encoder, cloud, (lo, hi)


class TestCoDesign:
    def test_menu_shape(self, simple_mixture):
        _, encoder, _, _ = simple_mixture
        menu = hardware_sigma_menu(NODE_45NM, encoder)
        assert menu.shape[0] == 3
        assert np.all(np.diff(menu, axis=1) > 0)

    def test_programmed_field_tracks_mixture(self, simple_mixture):
        mixture, encoder, cloud, bounds = simple_mixture
        array, report = program_inverter_array(
            mixture, encoder, NODE_45NM, total_columns=60
        )
        assert report.total_columns >= mixture.n_components
        lo, hi = bounds
        rng = np.random.default_rng(1)
        points = rng.uniform(lo, hi, size=(300, 3))
        ideal = np.log(mixture.field(points) + 1e-30)
        measured = np.log(array.total_current(encoder.encode(points)) + 1e-30)
        corr = np.corrcoef(ideal, measured)[0, 1]
        assert corr > 0.9

    def test_adc_codes_spread(self, simple_mixture):
        mixture, encoder, cloud, bounds = simple_mixture
        array, _ = program_inverter_array(mixture, encoder, NODE_45NM, total_columns=40)
        lo, hi = bounds
        rng = np.random.default_rng(2)
        points = np.concatenate(
            [mixture.means, rng.uniform(lo, hi, size=(200, 3))], axis=0
        )
        codes = array.adc.convert(array.total_current(encoder.encode(points)))
        assert len(np.unique(codes)) >= array.adc.levels // 2

    def test_budget_too_small_rejected(self, simple_mixture):
        mixture, encoder, _, _ = simple_mixture
        with pytest.raises(ValueError):
            program_inverter_array(mixture, encoder, NODE_45NM, total_columns=2)


class TestTiling:
    def test_tiled_menu_finer(self, simple_mixture):
        _, _, cloud, bounds = simple_mixture
        lo, hi = bounds
        single = tiled_sigma_menu(NODE_45NM, lo, hi, (1, 1, 1))
        tiled = tiled_sigma_menu(NODE_45NM, lo, hi, (2, 2, 2))
        assert np.allclose(tiled, single / 2.0)

    def test_field_log_routes_all_points(self, simple_mixture):
        mixture, _, cloud, bounds = simple_mixture
        lo, hi = bounds
        tiled = TiledInverterArrayMap(
            mixture, lo, hi, NODE_45NM, tiles=(2, 2, 1), rng=np.random.default_rng(0)
        )
        rng = np.random.default_rng(3)
        points = rng.uniform(lo, hi, size=(200, 3))
        values = tiled.field_log(points, rng=rng)
        assert values.shape == (200,)
        assert np.isfinite(values).all()

    def test_tiled_field_correlates_with_mixture(self, simple_mixture):
        # The co-design contract: the mixture must be fit with the *tile*
        # width menu so no kernel outgrows its tile.
        _, _, cloud, bounds = simple_mixture
        lo, hi = bounds
        menu = tiled_sigma_menu(NODE_45NM, lo, hi, (2, 2, 1))
        mixture = HMGMixture.fit(cloud, 4, np.random.default_rng(0), sigma_menu=menu)
        tiled = TiledInverterArrayMap(
            mixture, lo, hi, NODE_45NM, tiles=(2, 2, 1), rng=np.random.default_rng(0)
        )
        rng = np.random.default_rng(4)
        points = rng.uniform(lo, hi, size=(400, 3))
        ideal = np.log(mixture.field(points) + 1e-30)
        measured = tiled.field_log(points, rng=rng)
        # 4-bit log-ADC clipping in low-density regions bounds the
        # achievable correlation over uniformly random domain points.
        assert np.corrcoef(ideal, measured)[0, 1] > 0.7

    def test_report_counts(self, simple_mixture):
        mixture, _, cloud, bounds = simple_mixture
        lo, hi = bounds
        tiled = TiledInverterArrayMap(
            mixture, lo, hi, NODE_45NM, tiles=(2, 1, 1), rng=np.random.default_rng(0)
        )
        assert tiled.report.n_active_tiles >= 1
        assert tiled.report.total_columns > 0

    def test_energy_accounting(self, simple_mixture):
        mixture, _, cloud, bounds = simple_mixture
        lo, hi = bounds
        tiled = TiledInverterArrayMap(
            mixture, lo, hi, NODE_45NM, tiles=(2, 1, 1), rng=np.random.default_rng(0)
        )
        rng = np.random.default_rng(5)
        tiled.field_log(rng.uniform(lo, hi, size=(50, 3)), rng=rng)
        assert tiled.energy_per_query() > 0
        assert tiled.ledger.count("adc_conversion") == 50

    def test_tile_of_clipping(self, simple_mixture):
        mixture, _, cloud, bounds = simple_mixture
        lo, hi = bounds
        tiled = TiledInverterArrayMap(
            mixture, lo, hi, NODE_45NM, tiles=(2, 2, 2), rng=np.random.default_rng(0)
        )
        outside = np.array([[lo[0] - 5, lo[1] - 5, lo[2] - 5], [hi[0] + 5, hi[1] + 5, hi[2] + 5]])
        indices = tiled.tile_of(outside)
        assert np.array_equal(indices[0], [0, 0, 0])
        assert np.array_equal(indices[1], [1, 1, 1])


def _mc_model(rng):
    return Sequential(
        [
            Dense(12, 24, rng),
            ReLU(),
            Dropout(0.5, rng=rng),
            Dense(24, 4, rng),
        ]
    )


class TestCIMMCDropoutEngine:
    def test_prediction_statistics(self, rng):
        engine = CIMMCDropoutEngine(
            _mc_model(rng), MacroConfig(weight_bits=6), n_iterations=12, rng=rng
        )
        result = engine.predict(rng.normal(size=(3, 12)))
        assert result.mean.shape == (3, 4)
        assert result.variance.shape == (3, 4)
        assert result.samples.shape == (12, 3, 4)
        assert result.variance.mean() > 0

    def test_mean_close_to_software(self, rng):
        model = _mc_model(rng)
        engine = CIMMCDropoutEngine(
            model,
            MacroConfig(weight_bits=8, adc_noise_lsb=0.0, adc_bits=10),
            n_iterations=60,
            use_hardware_rng=False,
            rng=np.random.default_rng(1),
        )
        from repro.bayesian import MCDropoutPredictor

        x = rng.normal(size=(4, 12))
        cim = engine.predict(x)
        software = MCDropoutPredictor(
            model, n_iterations=60, rng=np.random.default_rng(2)
        ).predict(x)
        assert np.allclose(cim.mean, software.mean, atol=0.35)

    def test_reuse_reduces_ops(self, rng):
        model = _mc_model(rng)
        with_reuse = CIMMCDropoutEngine(
            model, n_iterations=16, reuse=True, rng=np.random.default_rng(3)
        ).predict(rng.normal(size=(2, 12)))
        without = CIMMCDropoutEngine(
            model, n_iterations=16, reuse=False, rng=np.random.default_rng(3)
        ).predict(rng.normal(size=(2, 12)))
        assert with_reuse.ops_executed < without.ops_executed
        assert with_reuse.reuse_savings > 0.2

    def test_ordering_helps_on_average(self, rng):
        # Ordering minimises *mask* Hamming distance; value deltas can
        # deviate slightly where activations are zero, so the guarantee is
        # statistical rather than per-instance.
        model = _mc_model(rng)
        ordered_ops, unordered_ops = [], []
        for seed in range(4):
            x = np.random.default_rng(seed).normal(size=(1, 12))
            ordered_ops.append(
                CIMMCDropoutEngine(
                    model, n_iterations=16, ordering=True, refresh_every=0,
                    use_hardware_rng=False, rng=np.random.default_rng(seed + 40),
                ).predict(x).ops_executed
            )
            unordered_ops.append(
                CIMMCDropoutEngine(
                    model, n_iterations=16, ordering=False, refresh_every=0,
                    use_hardware_rng=False, rng=np.random.default_rng(seed + 40),
                ).predict(x).ops_executed
            )
        assert np.mean(ordered_ops) <= np.mean(unordered_ops)

    def test_tops_per_watt_positive(self, rng):
        engine = CIMMCDropoutEngine(_mc_model(rng), n_iterations=5, rng=rng)
        result = engine.predict(rng.normal(size=(1, 12)))
        assert result.tops_per_watt() > 0

    def test_unmappable_model_rejected(self, rng):
        # An activation with no Dense layer before it has no macro stage.
        model = Sequential([ReLU(), Dropout(0.5), Dense(4, 2, rng)])
        with pytest.raises(ValueError, match="cannot be mapped"):
            CIMMCDropoutEngine(model, rng=rng)

    def test_model_without_dropout_rejected(self, rng):
        model = Sequential([Dense(4, 2, rng)])
        with pytest.raises(ValueError):
            CIMMCDropoutEngine(model, rng=rng)

    def test_hardware_rng_masks_balanced(self, rng):
        engine = CIMMCDropoutEngine(
            _mc_model(rng), n_iterations=40, use_hardware_rng=True, rng=rng
        )
        streams = engine.draw_mask_streams(rng)
        keep_rate = streams[1].masks.mean()
        assert keep_rate == pytest.approx(0.5, abs=0.08)


class TestLocalizerSmoke:
    """Small end-to-end smoke test (the full run is a paper claim in
    test_paper_claims.py)."""

    @pytest.fixture(scope="class")
    def world(self):
        from repro.experiments.common import build_room_world

        return build_room_world(seed=7, n_steps=6, n_cloud_points=1200, image=(24, 18))

    @pytest.mark.parametrize("backend", ["digital-float", "digital", "cim"])
    def test_backends_run_and_stay_bounded(self, backend, world):
        localizer = CIMParticleFilterLocalizer(
            world.cloud,
            world.camera,
            camera_mount=world.mount,
            backend=backend,
            n_components=16,
            n_particles=120,
            rng=np.random.default_rng(3),
        )
        run_rng = np.random.default_rng(11)
        start = world.states[0] + np.array([0.2, -0.2, 0.1, 0.1])
        localizer.initialize_tracking(
            start, np.array([0.3, 0.3, 0.2, 0.2]), run_rng
        )
        result = localizer.run(world.controls, world.depths, world.states, run_rng)
        assert result.errors.shape == (6,)
        assert result.errors[-1] < 2.0
        assert result.energy.total_energy_j() >= 0

    def test_global_initialisation(self, world):
        localizer = CIMParticleFilterLocalizer(
            world.cloud,
            world.camera,
            camera_mount=world.mount,
            backend="digital-float",
            n_components=12,
            n_particles=80,
            rng=np.random.default_rng(3),
        )
        localizer.initialize_global(np.random.default_rng(0), z_range=(0.5, 2.0))
        states = localizer.filter.particles.states
        assert states.shape == (80, 4)
        assert states[:, 2].min() >= 0.5

    def test_invalid_backend(self, world):
        with pytest.raises(ValueError):
            CIMParticleFilterLocalizer(
                world.cloud, world.camera, backend="quantum"
            )
