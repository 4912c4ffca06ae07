"""Tests for repro.filtering: particles, resampling, motion, PF."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.filtering import (
    DepthScanMeasurementModel,
    DigitalGMMBackend,
    OdometryMotionModel,
    ParticleFilter,
    ParticleSet,
    systematic_resample,
)
from repro.circuits.technology import NODE_45NM
from repro.filtering.motion import wrap_angle
from repro.filtering.particles import (
    effective_sample_size,
    normalized_weights,
    posterior_estimates,
)
from repro.maps.gaussian import logsumexp
from repro.maps.gmm import GaussianMixture


def _posterior(particles):
    """Estimate and spread of one particle set through the stacked form."""
    estimates, spreads = posterior_estimates(
        particles.states[None], normalized_weights(particles.log_weights[None])
    )
    return estimates[0], float(spreads[0])


class TestParticleSet:
    def test_uniform_within_bounds(self, rng):
        particles = ParticleSet.uniform([0, 0, 0, -1], [1, 2, 3, 1], 100, rng)
        assert particles.states.shape == (100, 4)
        assert particles.states.min() >= -1
        assert np.all(particles.states[:, 2] <= 3)

    def test_default_weights_uniform(self, rng):
        particles = ParticleSet.uniform([0], [1], 10, rng)
        assert np.allclose(normalized_weights(particles.log_weights), 0.1)

    def test_ess_uniform_equals_n(self, rng):
        particles = ParticleSet.uniform([0], [1], 50, rng)
        weights = normalized_weights(particles.log_weights)
        assert effective_sample_size(weights) == pytest.approx(50.0)

    def test_ess_degenerate_equals_one(self):
        lw = np.full(50, -1e9)
        lw[3] = 0.0
        assert effective_sample_size(normalized_weights(lw)) == pytest.approx(1.0)

    def test_degenerate_row_falls_back_to_uniform(self):
        lw = np.array([[0.0, -1.0, -2.0], [-np.inf, -np.inf, -np.inf]])
        weights = normalized_weights(lw)
        assert np.array_equal(weights[1], np.full(3, 1.0 / 3))
        assert np.array_equal(weights[0], normalized_weights(lw[0]))

    def test_mean_estimate_circular_yaw(self):
        states = np.array(
            [[0, 0, 0, np.pi - 0.1], [0, 0, 0, -np.pi + 0.1]]
        )
        estimate, _ = _posterior(ParticleSet(states))
        assert abs(abs(estimate[3]) - np.pi) < 0.05

    def test_dominant_particle_collapses_estimate(self, rng):
        particles = ParticleSet.uniform([0, 0, 0, -1], [1, 1, 1, 1], 20, rng)
        lw = np.full(20, -1e9)
        lw[7] = 0.0
        estimate, spread = _posterior(ParticleSet(particles.states, lw))
        assert np.allclose(estimate, particles.states[7])
        assert spread == pytest.approx(0.0, abs=1e-9)

    def test_uniform_spread_matches_numpy(self, rng):
        particles = ParticleSet.uniform([0, 0, 0, -1], [1, 2, 3, 1], 200, rng)
        expected = np.cov(particles.states.T, bias=True)
        _, spread = _posterior(particles)
        assert spread == pytest.approx(np.sqrt(np.trace(expected[:3, :3])))

    def test_position_spread_positive(self, rng):
        particles = ParticleSet.uniform([0, 0, 0, 0], [1, 1, 1, 1], 100, rng)
        assert _posterior(particles)[1] > 0.1

    @pytest.mark.parametrize("width", [1, 2, 8, 32])
    def test_stacked_sets_match_each_set_alone(self, width):
        """Every stacked statistic of W sets is bit-equal to the same
        function of each set alone."""
        rng = np.random.default_rng(width)
        states = rng.normal(size=(width, 48, 4))
        log_weights = rng.normal(scale=5.0, size=(width, 48))
        weights = normalized_weights(log_weights)
        estimates, spreads = posterior_estimates(states, weights)
        ess = effective_sample_size(weights)
        evidence = logsumexp(log_weights)
        for w in range(width):
            alone = normalized_weights(log_weights[w : w + 1])
            assert np.array_equal(weights[w], alone[0])
            estimate, spread = posterior_estimates(states[w : w + 1], alone)
            assert np.array_equal(estimates[w], estimate[0])
            assert spreads[w] == spread[0]
            assert ess[w] == effective_sample_size(alone)[0]
            assert evidence[w] == logsumexp(log_weights[w])


def _weight_cases():
    """Weight vectors the resampler must handle, as named inputs."""
    rng = np.random.default_rng(0)
    heavy = np.full(20, 1e-9)
    heavy[5] = 1.0
    two_point = np.zeros(10)
    two_point[[2, 7]] = [0.7, 0.3]
    return {
        "random": rng.uniform(size=30),
        "one-heavy": heavy,
        "uniform": np.full(16, 1.0),
        "two-point": two_point,
        "three-way": np.array([0.5, 0.3, 0.2]),
    }


WEIGHT_CASES = _weight_cases()


class TestResampling:
    @pytest.mark.parametrize("case", sorted(WEIGHT_CASES))
    def test_output_size_and_range(self, case, rng):
        weights = WEIGHT_CASES[case]
        indices = systematic_resample(weights / weights.sum(), rng)
        assert indices.shape == weights.shape
        assert indices.min() >= 0 and indices.max() < weights.size

    def test_heavy_weight_dominates(self, rng):
        weights = WEIGHT_CASES["one-heavy"]
        indices = systematic_resample(weights / weights.sum(), rng)
        assert np.mean(indices == 5) > 0.9

    @pytest.mark.parametrize("case", sorted(WEIGHT_CASES))
    def test_unbiasedness(self, case):
        rng = np.random.default_rng(0)
        weights = WEIGHT_CASES[case] / WEIGHT_CASES[case].sum()
        counts = np.zeros(weights.size)
        for _ in range(400):
            indices = systematic_resample(weights, rng)
            counts += np.bincount(indices, minlength=weights.size)
        frequencies = counts / counts.sum()
        assert np.allclose(frequencies, weights, atol=0.02)

    @pytest.mark.parametrize(
        "weights",
        [np.array([-0.1, 1.1]), np.zeros(5), np.array([]), np.array([np.nan, 1.0])],
        ids=["negative", "zero-sum", "empty", "nan"],
    )
    def test_rejects_bad_weights(self, weights, rng):
        with pytest.raises(ValueError):
            systematic_resample(weights, rng)

    @given(st.integers(2, 50))
    @settings(max_examples=20)
    def test_systematic_preserves_big_weights(self, n):
        rng = np.random.default_rng(n)
        weights = rng.uniform(size=n)
        weights /= weights.sum()
        indices = systematic_resample(weights, rng)
        counts = np.bincount(indices, minlength=n)
        # systematic resampling copies every weight at least floor(N*w).
        assert np.all(counts >= np.floor(n * weights))


def _propagate(model, states, control, rng):
    """One particle set through the stacked motion model."""
    return model.propagate(states[None], np.asarray(control)[None], [rng])[0]


class TestMotionModels:
    def test_wrap_angle(self):
        assert wrap_angle(np.pi + 0.1) == pytest.approx(-np.pi + 0.1)
        assert wrap_angle(-np.pi - 0.1) == pytest.approx(np.pi - 0.1)

    def test_odometry_moves_mean(self, rng):
        states = np.tile([0.0, 0.0, 1.0, 0.0], (500, 1))
        model = OdometryMotionModel(translation_noise=0.01, yaw_noise=0.005)
        moved = _propagate(model, states, [1.0, 0.0, 0.1, 0.0], rng)
        mean = moved.mean(axis=0)
        assert mean[0] == pytest.approx(1.0, abs=0.01)
        assert mean[2] == pytest.approx(1.1, abs=0.01)

    def test_odometry_heading_rotates_increment(self, rng):
        states = np.tile([0.0, 0.0, 0.0, np.pi / 2], (500, 1))
        model = OdometryMotionModel(translation_noise=0.01)
        moved = _propagate(model, states, [1.0, 0.0, 0.0, 0.0], rng)
        mean = moved.mean(axis=0)
        assert mean[1] == pytest.approx(1.0, abs=0.02)
        assert abs(mean[0]) < 0.02

    def test_noise_grows_with_motion(self, rng):
        states = np.tile([0.0, 0.0, 0.0, 0.0], (2000, 1))
        model = OdometryMotionModel(translation_noise=0.01, proportional_noise=0.2)
        small = _propagate(model, states, [0.1, 0, 0, 0], rng)
        large = _propagate(model, states, [2.0, 0, 0, 0], rng)
        assert large[:, 0].std() > small[:, 0].std()

    def test_zero_control_diffuses_at_noise_floor(self, rng):
        model = OdometryMotionModel(translation_noise=0.1, yaw_noise=0.05)
        moved = _propagate(model, np.zeros((4000, 4)), np.zeros(4), rng)
        assert moved[:, :3].std(axis=0) == pytest.approx([0.1] * 3, rel=0.1)
        assert moved[:, 3].std() == pytest.approx(0.05, rel=0.1)
        assert np.allclose(moved.mean(axis=0), 0.0, atol=0.01)

    def test_noiseless_model_is_deterministic(self, rng):
        states = np.array([[0.0, 0.0, 1.0, 0.0], [1.0, 2.0, 0.5, np.pi / 2]])
        model = OdometryMotionModel(0.0, 0.0, 0.0)
        moved = _propagate(model, states, [1.0, 0.5, 0.2, 0.3], rng)
        expected = np.array(
            [[1.0, 0.5, 1.2, 0.3], [0.5, 3.0, 0.7, wrap_angle(np.pi / 2 + 0.3)]]
        )
        assert np.allclose(moved, expected)

    def test_propagate_keeps_input(self, rng):
        states = np.zeros((1, 3, 4))
        OdometryMotionModel().propagate(states, np.ones((1, 4)), [rng])
        assert np.array_equal(states, np.zeros((1, 3, 4)))

    @pytest.mark.parametrize("width", [1, 2, 8, 32])
    def test_stacked_sets_draw_and_move_as_alone(self, width):
        model = OdometryMotionModel()
        source = np.random.default_rng(width)
        states = source.normal(size=(width, 48, 4))
        controls = source.normal(size=(width, 4))
        wave_rngs = [np.random.default_rng([3, w]) for w in range(width)]
        lone_rngs = [np.random.default_rng([3, w]) for w in range(width)]
        moved = model.propagate(states, controls, wave_rngs)
        for w in range(width):
            alone = _propagate(model, states[w], controls[w], lone_rngs[w])
            assert np.array_equal(moved[w], alone)
            assert (
                wave_rngs[w].bit_generator.state
                == lone_rngs[w].bit_generator.state
            )

    def test_negative_noise_rejected(self):
        for kwargs in (
            {"translation_noise": -0.1},
            {"yaw_noise": -0.1},
            {"proportional_noise": -0.1},
        ):
            with pytest.raises(ValueError):
                OdometryMotionModel(**kwargs)

    def test_control_shape_validated(self, rng):
        model = OdometryMotionModel()
        with pytest.raises(ValueError):
            _propagate(model, np.zeros((2, 4)), np.zeros(3), rng)


def _simple_backend():
    gmm = GaussianMixture(
        [0.5, 0.5],
        [[0, 0, 1], [2, 0, 1]],
        [[0.3, 0.3, 0.3], [0.3, 0.3, 0.3]],
    )
    return DigitalGMMBackend(gmm, NODE_45NM, bits=None), gmm


def _lone_log_likelihoods(model, states, scan, rng):
    """One particle set's (N,) log-likelihoods through the stacked half."""
    log_lik, _ = model.log_likelihoods(states[None], [scan], [rng])
    return log_lik[0]


class TestMeasurementModel:
    def test_requires_floor_calibration(self, rng):
        backend, _ = _simple_backend()
        model = DepthScanMeasurementModel(backend)
        with pytest.raises(RuntimeError):
            model.log_likelihoods(np.zeros((1, 1, 4)), [np.zeros((3, 3))], [rng])

    def test_true_pose_scores_higher(self, rng):
        backend, gmm = _simple_backend()
        model = DepthScanMeasurementModel(backend, temperature=1.0, max_pixels=32)
        model.calibrate_floor(gmm.sample(200, rng))
        # scan points: surface points expressed in the frame of state A
        scan_world = gmm.sample(30, rng)
        state_true = np.array([0.0, 0.0, 0.0, 0.0])
        scan_cam = scan_world  # camera at origin, identity yaw
        states = np.array([state_true, [1.0, 1.0, 0.5, 0.4]])
        ll = _lone_log_likelihoods(model, states, scan_cam, rng)
        assert ll[0] > ll[1]

    def test_yaw_rotation_applied(self, rng):
        backend, gmm = _simple_backend()
        model = DepthScanMeasurementModel(backend, temperature=1.0)
        model.calibrate_floor(gmm.sample(200, rng))
        scan_cam = np.array([[2.0, 0.0, 1.0]])
        # with yaw=pi the point lands at (-2, 0, 1): far from both modes
        states = np.array([[0, 0, 0, 0.0], [0, 0, 0, np.pi]])
        ll = _lone_log_likelihoods(model, states, scan_cam, rng)
        assert ll[0] > ll[1]

    def test_subsampling_bounds_pixels(self, rng):
        backend, gmm = _simple_backend()
        model = DepthScanMeasurementModel(backend, max_pixels=8)
        scan = rng.normal(size=(100, 3))
        assert model.subsample_scan(scan, rng).shape == (8, 3)

    def test_temperature_softens(self, rng):
        backend, gmm = _simple_backend()
        scan = gmm.sample(30, rng)
        states = np.array([[0, 0, 0, 0.0], [3, 3, 1, 1.0]])
        lls = {}
        for temp in (1.0, 10.0):
            model = DepthScanMeasurementModel(backend, temperature=temp)
            model.calibrate_floor(gmm.sample(200, rng))
            ll = _lone_log_likelihoods(model, states, scan, np.random.default_rng(0))
            lls[temp] = ll[0] - ll[1]
        assert lls[1.0] > lls[10.0]

    def test_parameter_validation(self):
        backend, _ = _simple_backend()
        with pytest.raises(ValueError):
            DepthScanMeasurementModel(backend, outlier_fraction=1.5)
        with pytest.raises(ValueError):
            DepthScanMeasurementModel(backend, temperature=0.0)

    def test_digital_backend_meters_per_component_ops(self, rng):
        # Per query and component: 4 MACs, 1 exp LUT access, 1 accumulate
        # and 7 parameter words read from SRAM.
        gmm = GaussianMixture(
            np.ones(10) / 10, rng.normal(size=(10, 3)), np.full((10, 3), 0.5)
        )
        backend = DigitalGMMBackend(gmm, NODE_45NM, bits=8)
        backend.field_log(rng.normal(size=(25, 3)))
        per_component = (
            4.0 * NODE_45NM.mac_energy(8)
            + NODE_45NM.lut_energy_j
            + NODE_45NM.add_energy(8)
            + 7.0 * 8 * NODE_45NM.sram_read_energy_per_bit_j
        )
        assert backend.ledger.total_energy_j() == pytest.approx(
            25 * 10 * per_component, rel=1e-9
        )


class TestParticleFilter:
    def test_tracks_static_target(self, rng):
        backend, gmm = _simple_backend()
        model = DepthScanMeasurementModel(backend, temperature=2.0)
        model.calibrate_floor(gmm.sample(300, rng))
        pf = ParticleFilter(OdometryMotionModel(0.02, 0.01), model, np.zeros(4))
        pf.initialize(
            ParticleSet.gaussian([0, 0, 0, 0], [0.4, 0.4, 0.2, 0.2], 300, rng)
        )
        scan = gmm.sample(40, rng)
        for _ in range(5):
            diag = pf.step(np.zeros(4), scan, rng)
        assert np.linalg.norm(diag.estimate[:3]) < 0.4

    @pytest.mark.parametrize("truth_rows", [1, 2, 4])
    def test_run_rejects_ground_truth_of_another_length(self, truth_rows):
        """A run's truth must have one row per step -- a single row
        would broadcast -- and is checked before the first step draws."""
        from repro.serve.demo import demo_track_measurements, demo_track_world

        localizer = demo_track_world().build_session("digital").localizer
        controls, depths, truths = demo_track_measurements(n_steps=3)
        rng = np.random.default_rng(0)
        localizer.initialize_tracking(truths[0], np.full(4, 0.05), rng)
        before = rng.bit_generator.state
        with pytest.raises(ValueError, match="ground truth"):
            localizer.run(controls, depths, truths[:1].repeat(truth_rows, 0), rng)
        assert rng.bit_generator.state == before
        result = localizer.run(controls, depths, truths, rng)
        assert np.array_equal(
            result.errors,
            np.linalg.norm(result.estimates[:, :3] - truths[:, :3], axis=1),
        )

    def test_requires_initialisation(self, rng):
        backend, _ = _simple_backend()
        model = DepthScanMeasurementModel(backend)
        pf = ParticleFilter(OdometryMotionModel(), model, np.zeros(4))
        with pytest.raises(RuntimeError):
            pf.step(np.zeros(4), np.zeros((3, 3)), rng)

    @pytest.mark.parametrize("ess_share, resampled", [(0.49, True), (0.51, False)])
    def test_resamples_below_half_ess(self, ess_share, resampled, rng):
        """The update resamples exactly when ESS < N / 2."""
        backend, _ = _simple_backend()
        pf = ParticleFilter(
            OdometryMotionModel(), DepthScanMeasurementModel(backend), np.zeros(4)
        )
        n = 100
        # k equal weights and n - k zero ones give an ESS of exactly k.
        k = int(ess_share * n)
        log_lik = np.where(np.arange(n) < k, 0.0, -np.inf)
        states = rng.normal(size=(1, n, 4))
        _, _, [diagnostics] = pf.update(
            states, np.zeros((1, n)), log_lik[None], [rng]
        )
        assert diagnostics.ess == pytest.approx(k)
        assert diagnostics.resampled is resampled

    def test_reweight_shifts_weights(self, rng):
        backend, _ = _simple_backend()
        pf = ParticleFilter(
            OdometryMotionModel(), DepthScanMeasurementModel(backend), np.zeros(4)
        )
        log_lik = np.zeros((1, 10))
        log_lik[0, 0] = 1.0
        states = rng.normal(size=(1, 10, 4))
        out_states, log_weights, [diagnostics] = pf.update(
            states, np.zeros((1, 10)), log_lik, [rng]
        )
        assert not diagnostics.resampled
        assert np.array_equal(out_states, states)
        weights = normalized_weights(log_weights)
        assert weights[0, 0] > weights[0, 1] == pytest.approx(weights[0, 9])

    def test_resampled_uniform_weights(self, rng):
        backend, _ = _simple_backend()
        pf = ParticleFilter(
            OdometryMotionModel(), DepthScanMeasurementModel(backend), np.zeros(4)
        )
        log_lik = np.full((1, 10), -1e9)
        log_lik[0, 3] = 0.0
        states = rng.normal(size=(1, 10, 4))
        out_states, log_weights, [diagnostics] = pf.update(
            states, np.zeros((1, 10)), log_lik, [rng]
        )
        assert diagnostics.resampled
        assert np.array_equal(out_states[0], np.tile(states[0, 3], (10, 1)))
        assert np.array_equal(log_weights, np.full((1, 10), -np.log(10)))
        assert np.array_equal(normalized_weights(log_weights), np.full((1, 10), 0.1))
