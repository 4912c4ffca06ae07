"""The numpy stand-ins for scipy numerics are bit-for-bit scipy.

The maps and the particle filter share :func:`repro.maps.gaussian.logsumexp`
in place of ``scipy.special.logsumexp``, and the RNG calibration calls
``scipy.special.ndtri`` in place of ``scipy.stats.norm.ppf``, so serving
never imports ``scipy.stats``.  Every check compares float hex, so a
one-ulp drift fails.  Each logsumexp group runs at several ``vec_size``
(rows reduced at once): a stack of rows must reduce each row exactly as
scipy reduces it.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy.special import logsumexp as scipy_logsumexp

from repro.maps.gaussian import logsumexp
from repro.maps.gmm import GaussianMixture
from repro.maps.hmgm import HMGMixture

VEC_SIZES = [1, 7, 300]


def _hex(values) -> list[str]:
    return [float(v).hex() for v in np.asarray(values, dtype=float).reshape(-1)]


def _assert_bitwise(got, expected) -> None:
    got, expected = np.asarray(got), np.asarray(expected)
    assert got.shape == expected.shape
    assert _hex(got) == _hex(expected)


def _scipy_rows(values: np.ndarray, **kwargs) -> np.ndarray:
    with np.errstate(all="ignore"):
        return scipy_logsumexp(values, axis=-1, **kwargs)


@pytest.fixture(params=VEC_SIZES, ids=lambda n: f"vec_size={n}")
def vec_size(request) -> int:
    return request.param


class TestLogsumexpGroup:
    """The shapes the maps pass, over the last axis."""

    @pytest.mark.parametrize("k", [1, 2, 6, 33])
    def test_rows(self, vec_size, k):
        values = np.random.default_rng([vec_size, k]).normal(
            scale=40.0, size=(vec_size, k)
        )
        _assert_bitwise(logsumexp(values), _scipy_rows(values))
        # The EM steps' keepdims=True form.
        _assert_bitwise(
            logsumexp(values)[:, None], _scipy_rows(values, keepdims=True)
        )

    @pytest.mark.parametrize("k", [1, 6])
    def test_kernel_axes(self, vec_size, k):
        """The HMG kernel's (N, K, 3) reduction over its axes."""
        z = np.random.default_rng([vec_size, k, 3]).normal(
            scale=5.0, size=(vec_size, k, 3)
        )
        values = 0.5 * z**2
        _assert_bitwise(logsumexp(values), _scipy_rows(values))

    def test_rows_with_nonfinite(self, vec_size):
        rng = np.random.default_rng([vec_size, 99])
        values = rng.normal(scale=10.0, size=(vec_size, 5))
        values[rng.random(values.shape) < 0.4] = -np.inf
        values[::3] = -np.inf  # whole rows, the first among them
        # The direct log(sum(exp)) fallback's rows.
        values[1::3, 2] = np.inf
        values[2::3, 4] = np.nan
        _assert_bitwise(logsumexp(values), _scipy_rows(values))
        _assert_bitwise(
            logsumexp(values)[:, None], _scipy_rows(values, keepdims=True)
        )

    def test_one_element_rows(self, vec_size):
        values = np.random.default_rng([vec_size, 1]).normal(size=(vec_size, 1))
        values[0, 0] = -np.inf
        _assert_bitwise(logsumexp(values), _scipy_rows(values))

    def test_empty_last_axis(self, vec_size):
        values = np.empty((vec_size, 0))
        _assert_bitwise(logsumexp(values), _scipy_rows(values))


@pytest.fixture(scope="module")
def map_cloud() -> np.ndarray:
    from repro.serve.demo import demo_track_world

    return demo_track_world().map_cloud


@pytest.fixture(scope="module")
def gmm(map_cloud) -> GaussianMixture:
    return GaussianMixture.fit(map_cloud, 6, np.random.default_rng(0))


def _query_points(map_cloud: np.ndarray, vec_size: int) -> np.ndarray:
    """Points around and far outside the map (the far ones drive the
    kernels' log domain deep negative)."""
    rng = np.random.default_rng(vec_size)
    lo, hi = map_cloud.min(axis=0), map_cloud.max(axis=0)
    span = hi - lo
    return rng.uniform(lo - 3.0 * span, hi + 3.0 * span, size=(vec_size, 3))


class TestMapsMatchScipyReference:
    """Map densities and one EM fit against scipy-logsumexp references."""

    def test_gmm_logpdf(self, gmm, map_cloud, vec_size):
        points = _query_points(map_cloud, vec_size)
        log_comp = gmm.component_logpdf(points) + np.log(gmm.weights)[None, :]
        _assert_bitwise(gmm.logpdf(points), scipy_logsumexp(log_comp, axis=1))

    def test_hmg_logpdf(self, gmm, map_cloud, vec_size):
        model = HMGMixture.from_gmm(gmm)
        points = _query_points(map_cloud, vec_size)
        z = (points[:, None, :] - model.means[None]) / model.sigmas[None]
        log_k = np.minimum(
            np.log(model.n_dims) - scipy_logsumexp(0.5 * z**2, axis=2), 0.0
        )
        log_w = np.log(model.weights + 1e-300) - model._log_norms()
        expected = scipy_logsumexp(log_k + log_w[None, :], axis=1)
        _assert_bitwise(model.logpdf(points), expected)

    def test_gmm_fit(self, gmm, map_cloud, monkeypatch):
        """The same fit with scipy's logsumexp in the E-step."""
        import repro.maps.gmm as gmm_module

        monkeypatch.setattr(
            gmm_module, "logsumexp", lambda values: scipy_logsumexp(values, axis=1)
        )
        reference = GaussianMixture.fit(map_cloud, 6, np.random.default_rng(0))
        for name in ("weights", "means", "sigmas"):
            _assert_bitwise(getattr(gmm, name), getattr(reference, name))


@pytest.mark.parametrize("window", [256, 4096])
def test_ndtri_is_norm_ppf_on_every_rate(window):
    """Every ones-rate a calibration window can observe, k / window."""
    from scipy.special import ndtri
    from scipy.stats import norm

    rates = np.arange(window + 1) / window
    _assert_bitwise(ndtri(rates), norm.ppf(rates))
