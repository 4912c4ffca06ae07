"""Tests for repro.maps: GMM, HMG kernels, HMGM co-design."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.maps import (
    GaussianMixture,
    HMGMixture,
    diag_gaussian_logpdf,
    hmg_kernel,
    kmeans,
    kmeans_plus_plus_init,
)
from repro.maps.hmg import HMG_UNIT_INTEGRALS, hmg_log_kernel, tail_rectilinearity


class TestDiagGaussian:
    def test_matches_scipy(self, rng):
        from scipy.stats import multivariate_normal

        points = rng.normal(size=(10, 3))
        mean = np.array([0.5, -0.2, 1.0])
        sigma = np.array([0.5, 1.0, 2.0])
        ours = diag_gaussian_logpdf(points, mean[None], sigma[None])[:, 0]
        ref = multivariate_normal(mean, np.diag(sigma**2)).logpdf(points)
        assert np.allclose(ours, ref)

    def test_rejects_bad_sigma(self):
        with pytest.raises(ValueError):
            diag_gaussian_logpdf(np.zeros((1, 2)), np.zeros((1, 2)), np.zeros((1, 2)))

    def test_points_by_components_shape(self, rng):
        out = diag_gaussian_logpdf(
            rng.normal(size=(7, 3)), rng.normal(size=(4, 3)), np.ones((4, 3))
        )
        assert out.shape == (7, 4)

    def test_single_point_broadcasts(self):
        out = diag_gaussian_logpdf(np.zeros(2), np.zeros(2), np.ones(2))
        assert out.shape == (1, 1)
        assert out[0, 0] == pytest.approx(-np.log(2 * np.pi))

    def test_density_peaks_at_mean(self, rng):
        mean = np.array([[0.3, -1.0]])
        sigma = np.array([[0.4, 0.9]])
        points = mean + rng.normal(scale=0.5, size=(50, 2))
        at_mean = diag_gaussian_logpdf(mean, mean, sigma)[0, 0]
        assert np.all(diag_gaussian_logpdf(points, mean, sigma)[:, 0] < at_mean)


class TestKMeans:
    def test_separated_clusters_recovered(self, rng):
        points = np.concatenate(
            [rng.normal(loc=c, scale=0.1, size=(50, 2)) for c in ([0, 0], [5, 5], [0, 5])]
        )
        centers, labels = kmeans(points, 3, rng)
        found = np.sort(centers[:, 0] + centers[:, 1])
        assert np.allclose(found, [0, 5, 10], atol=0.5)

    def test_init_validates_k(self, rng):
        with pytest.raises(ValueError):
            kmeans_plus_plus_init(np.zeros((5, 2)), 6, rng)

    def test_labels_cover_all_points(self, rng):
        points = rng.normal(size=(40, 3))
        _, labels = kmeans(points, 4, rng)
        assert labels.shape == (40,)
        assert set(labels) <= set(range(4))


class TestGMM:
    @pytest.fixture(scope="class")
    def fitted(self):
        rng = np.random.default_rng(0)
        truth = GaussianMixture(
            weights=[0.6, 0.4],
            means=[[0.0, 0.0, 0.0], [4.0, 4.0, 4.0]],
            sigmas=[[0.5, 0.5, 0.5], [0.8, 0.8, 0.8]],
        )
        data = truth.sample(1500, rng)
        model = GaussianMixture.fit(data, 2, rng)
        return truth, model, data

    def test_weights_normalised(self):
        model = GaussianMixture([2.0, 2.0], np.zeros((2, 2)), np.ones((2, 2)))
        assert model.weights.sum() == pytest.approx(1.0)

    def test_fit_recovers_means(self, fitted):
        truth, model, _ = fitted
        order = np.argsort(model.means[:, 0])
        assert np.allclose(model.means[order], truth.means, atol=0.2)

    def test_fit_recovers_weights(self, fitted):
        truth, model, _ = fitted
        order = np.argsort(model.means[:, 0])
        assert np.allclose(model.weights[order], truth.weights, atol=0.05)

    def test_loglik_reasonable(self, fitted):
        truth, model, data = fitted
        assert model.mean_loglik(data) >= truth.mean_loglik(data) - 0.05

    def test_em_increases_likelihood(self, rng):
        data = rng.normal(size=(200, 3))
        model1 = GaussianMixture.fit(data, 3, np.random.default_rng(1), max_iters=1)
        model50 = GaussianMixture.fit(data, 3, np.random.default_rng(1), max_iters=50)
        assert model50.mean_loglik(data) >= model1.mean_loglik(data) - 1e-9

    def test_logpdf_is_weighted_sum_of_component_densities(self, rng):
        from scipy.stats import norm

        model = GaussianMixture(
            [0.2, 0.5, 0.3],
            rng.normal(size=(3, 2)),
            rng.uniform(0.3, 1.5, size=(3, 2)),
        )
        points = rng.normal(size=(20, 2))
        expected = sum(
            weight * norm.pdf(points, mean, sigma).prod(axis=1)
            for weight, mean, sigma in zip(
                model.weights, model.means, model.sigmas
            )
        )
        assert np.allclose(model.pdf(points), expected, rtol=1e-12)
        assert np.allclose(model.logpdf(points), np.log(expected), rtol=1e-12)

    def test_pdf_integrates_on_grid(self):
        model = GaussianMixture([1.0], [[0.0]], [[1.0]])
        x = np.linspace(-8, 8, 2001)[:, None]
        integral = np.trapezoid(model.pdf(x), x[:, 0])
        assert integral == pytest.approx(1.0, abs=1e-3)

    def test_sample_shape_and_stats(self, rng):
        model = GaussianMixture([1.0], [[2.0, 0.0]], [[0.5, 0.5]])
        samples = model.sample(2000, rng)
        assert samples.shape == (2000, 2)
        assert samples.mean(axis=0) == pytest.approx([2.0, 0.0], abs=0.05)

    def test_validation_errors(self):
        with pytest.raises(ValueError):
            GaussianMixture([1.0], [[0.0]], [[0.0]])
        with pytest.raises(ValueError):
            GaussianMixture([-1.0, 2.0], np.zeros((2, 1)), np.ones((2, 1)))


class TestHMGKernel:
    def test_peak_normalised(self):
        value = hmg_kernel(np.zeros((1, 3)), np.zeros((1, 3)), np.ones((1, 3)))
        assert value[0, 0] == pytest.approx(1.0)

    def test_1d_equals_gaussian(self, rng):
        x = rng.normal(size=(50, 1))
        kernel = hmg_kernel(x, np.zeros((1, 1)), np.ones((1, 1)))[:, 0]
        assert np.allclose(kernel, np.exp(-0.5 * x[:, 0] ** 2))

    def test_heavier_tails_than_gaussian_product(self):
        point = np.array([[3.0, 3.0]])
        hmg = hmg_kernel(point, np.zeros((1, 2)), np.ones((1, 2)))[0, 0]
        gauss = np.exp(-0.5 * 18.0)
        assert hmg > gauss

    @pytest.mark.parametrize(
        "d, n_grid, rel", [(1, 4001, 1e-4), (2, 801, 1e-3), (3, 161, 5e-3)]
    )
    def test_unit_integrals_match_table(self, d, n_grid, rel):
        # Trapezoidal quadrature of the unit kernel over [-12, 12]^d, one
        # slice of the grid at a time.
        u = np.linspace(-12.0, 12.0, n_grid)
        slices = []
        for first in u:
            grid = np.meshgrid([first], *[u] * (d - 1), indexing="ij")
            points = np.stack(grid, axis=-1).reshape(-1, d)
            slices.append(hmg_kernel(points, np.zeros((1, d)), np.ones((1, d))))
        integral = np.reshape(slices, (n_grid,) * d)
        for _ in range(d):
            integral = np.trapezoid(integral, u, axis=-1)
        assert integral == pytest.approx(HMG_UNIT_INTEGRALS[d], rel=rel)

    def test_log_kernel_stable_far_away(self):
        log_val = hmg_log_kernel(
            np.array([[100.0, 100.0, 100.0]]), np.zeros((1, 3)), np.ones((1, 3))
        )
        assert np.isfinite(log_val).all()

    def test_rectilinearity_orders(self):
        hmg_ratio, gauss_ratio = tail_rectilinearity()
        assert gauss_ratio == pytest.approx(np.pi / 4, abs=0.02)
        assert hmg_ratio > 0.9

    @given(st.floats(0.2, 3.0), st.floats(-2.0, 2.0))
    @settings(max_examples=30)
    def test_kernel_bounded(self, sigma, x):
        value = hmg_kernel(
            np.array([[x, -x, 0.5 * x]]),
            np.zeros((1, 3)),
            np.full((1, 3), sigma),
        )
        assert 0.0 <= value[0, 0] <= 1.0


class TestHMGMixture:
    @pytest.fixture(scope="class")
    def cloud(self):
        rng = np.random.default_rng(3)
        gmm = GaussianMixture(
            [0.5, 0.5],
            [[0, 0, 0], [3, 3, 1]],
            [[0.4, 0.4, 0.4], [0.6, 0.6, 0.3]],
        )
        return gmm, gmm.sample(1200, rng)

    def test_pdf_integrates_to_one_1d_style(self):
        # 3D grid integration over a single wide component.
        model = HMGMixture([1.0], [[0.0, 0.0, 0.0]], [[1.0, 1.0, 1.0]])
        x = np.linspace(-8, 8, 81)
        grid = np.stack(np.meshgrid(x, x, x, indexing="ij"), axis=-1).reshape(-1, 3)
        values = model.pdf(grid)
        integral = values.sum() * (x[1] - x[0]) ** 3
        assert integral == pytest.approx(1.0, rel=0.05)

    def test_field_is_weighted_kernels(self, rng):
        model = HMGMixture(
            [0.3, 0.7], rng.normal(size=(2, 3)), np.full((2, 3), 0.5)
        )
        pts = rng.normal(size=(10, 3))
        expected = model.kernel_values(pts) @ model.weights
        assert np.allclose(model.field(pts), expected)

    def test_fit_recovers_structure(self, cloud):
        _, data = cloud
        model = HMGMixture.fit(data, 2, np.random.default_rng(0))
        order = np.argsort(model.means[:, 0])
        assert np.allclose(model.means[order][0], [0, 0, 0], atol=0.3)
        assert np.allclose(model.means[order][1], [3, 3, 1], atol=0.3)

    def test_menu_quantisation_sigma_on_menu(self, cloud):
        _, data = cloud
        menu = np.array([0.3, 0.5, 0.9])
        model = HMGMixture.fit(data, 3, np.random.default_rng(0), sigma_menu=menu)
        assert np.isin(model.sigmas, menu).all()

    def test_per_axis_menu(self, cloud):
        _, data = cloud
        menu = np.array([[0.3, 0.6], [0.4, 0.8], [0.2, 0.5]])
        model = HMGMixture.fit(data, 2, np.random.default_rng(0), sigma_menu=menu)
        for axis in range(3):
            assert np.isin(model.sigmas[:, axis], menu[axis]).all()

    def test_from_gmm_keeps_means(self, cloud):
        gmm, data = cloud
        fitted = GaussianMixture.fit(data, 2, np.random.default_rng(0))
        converted = HMGMixture.from_gmm(fitted)
        assert np.allclose(converted.means, fitted.means)

    def test_refined_weights_improve_match(self, cloud):
        gmm, data = cloud
        fitted = GaussianMixture.fit(data, 4, np.random.default_rng(0))
        menu = np.array([0.5, 0.9])
        probe = data[:300]
        raw = HMGMixture.from_gmm(fitted, sigma_menu=menu)
        refined = HMGMixture.from_gmm(fitted, sigma_menu=menu, refine_points=probe)
        target = fitted.pdf(probe)

        def rmse(mixture):
            return np.sqrt(np.mean((mixture.pdf(probe) - target) ** 2))

        assert rmse(refined) <= rmse(raw) + 1e-12

    def test_amplitudes_shape(self, cloud):
        _, data = cloud
        model = HMGMixture.fit(data, 3, np.random.default_rng(0))
        amps = model.amplitudes()
        assert amps.shape == (3,)
        assert np.all(amps > 0)

    def test_validation(self):
        with pytest.raises(ValueError):
            HMGMixture([1.0], [[0, 0]], [[1.0]])
        with pytest.raises(ValueError):
            HMGMixture([0.0], [[0, 0]], [[1.0, 1.0]])
