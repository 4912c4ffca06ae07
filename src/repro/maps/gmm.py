"""Gaussian Mixture Model with diagonal covariance, fit by EM.

This is the conventional map representation the paper's co-design competes
against (Reynolds-style GMM over Kinect point clouds), and also the seed
model from which the hardware-native HMG mixture is derived.
"""

from __future__ import annotations

import numpy as np

from repro.maps.fitting import kmeans
from repro.maps.gaussian import diag_gaussian_logpdf, logsumexp


class GaussianMixture:
    """A K-component diagonal-covariance Gaussian mixture in D dimensions.

    Attributes:
        weights: (K,) mixture weights summing to 1.
        means: (K, D) component means.
        sigmas: (K, D) per-axis standard deviations.
    """

    def __init__(self, weights: np.ndarray, means: np.ndarray, sigmas: np.ndarray):
        self.weights = np.asarray(weights, dtype=float).reshape(-1)
        self.means = np.atleast_2d(np.asarray(means, dtype=float))
        self.sigmas = np.atleast_2d(np.asarray(sigmas, dtype=float))
        k = self.weights.size
        if self.means.shape[0] != k or self.sigmas.shape[0] != k:
            raise ValueError("weights / means / sigmas size mismatch")
        if self.means.shape != self.sigmas.shape:
            raise ValueError("means and sigmas must share a shape")
        if np.any(self.weights < 0):
            raise ValueError("weights must be non-negative")
        total = self.weights.sum()
        if total <= 0:
            raise ValueError("weights must not all be zero")
        self.weights = self.weights / total
        if np.any(self.sigmas <= 0):
            raise ValueError("sigmas must be positive")

    @property
    def n_components(self) -> int:
        return self.weights.size

    @property
    def n_dims(self) -> int:
        return self.means.shape[1]

    def component_logpdf(self, points: np.ndarray) -> np.ndarray:
        """(N, K) per-component log-densities."""
        return diag_gaussian_logpdf(points, self.means, self.sigmas)

    def logpdf(self, points: np.ndarray) -> np.ndarray:
        """(N,) mixture log-density."""
        log_comp = self.component_logpdf(points) + np.log(self.weights)[None, :]
        return logsumexp(log_comp)

    def pdf(self, points: np.ndarray) -> np.ndarray:
        """(N,) mixture density."""
        return np.exp(self.logpdf(points))

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Draw n points from the mixture."""
        counts = rng.multinomial(n, self.weights)
        parts = []
        for j, count in enumerate(counts):
            if count == 0:
                continue
            parts.append(
                self.means[j] + rng.normal(size=(count, self.n_dims)) * self.sigmas[j]
            )
        samples = np.concatenate(parts, axis=0)
        return samples[rng.permutation(n)]

    @staticmethod
    def fit(
        points: np.ndarray,
        n_components: int,
        rng: np.random.Generator,
        max_iters: int = 100,
        tol: float = 1e-5,
        min_sigma: float = 1e-3,
    ) -> "GaussianMixture":
        """Fit by expectation-maximisation with k-means++ initialisation.

        Args:
            points: (N, D) training points.
            n_components: K.
            rng: random generator (init only; EM itself is deterministic).
            max_iters: EM iteration cap.
            tol: stop when mean log-likelihood improves less than this.
            min_sigma: floor on per-axis sigmas (regularisation).

        Returns:
            The fitted mixture.
        """
        points = np.asarray(points, dtype=float)
        n = points.shape[0]
        if n_components < 1 or n_components > n:
            raise ValueError("n_components must be in [1, n_points]")
        centers, labels = kmeans(points, n_components, rng)
        means = centers
        sigmas = np.empty_like(means)
        weights = np.empty(n_components)
        for j in range(n_components):
            mask = labels == j
            weights[j] = max(mask.sum(), 1) / n
            if mask.sum() > 1:
                sigmas[j] = np.maximum(points[mask].std(axis=0), min_sigma)
            else:
                sigmas[j] = np.maximum(points.std(axis=0) / n_components, min_sigma)
        weights = weights / weights.sum()
        model = GaussianMixture(weights, means, sigmas)

        previous = -np.inf
        for _ in range(max_iters):
            # E-step in the log domain.
            log_comp = model.component_logpdf(points) + np.log(model.weights)[None, :]
            log_norm = logsumexp(log_comp)[:, None]
            mean_ll = float(log_norm.mean())
            resp = np.exp(log_comp - log_norm)
            # M-step.
            mass = resp.sum(axis=0) + 1e-12
            weights = mass / n
            means = (resp.T @ points) / mass[:, None]
            sq = (
                resp.T @ (points**2) - 2.0 * means * (resp.T @ points) + mass[:, None] * means**2
            )
            sigmas = np.sqrt(np.maximum(sq / mass[:, None], min_sigma**2))
            model = GaussianMixture(weights, means, sigmas)
            if mean_ll - previous < tol:
                break
            previous = mean_ll
        return model

    def mean_loglik(self, points: np.ndarray) -> float:
        """Mean log-likelihood of a point set (model-selection metric)."""
        return float(self.logpdf(points).mean())
