"""HMG mixture maps and the hardware co-design fit.

An :class:`HMGMixture` represents the flying domain's map with the kernels
the inverter array natively evaluates.  It can be obtained two ways,
mirroring the paper's workflow:

1. **Conversion** (:meth:`HMGMixture.from_gmm`): take a conventional GMM,
   snap each component's widths to the hardware width menu, then re-fit the
   mixture weights by non-negative least squares so the *field* (what the
   particle filter actually consumes) matches the GMM field.
2. **Direct fit** (:meth:`HMGMixture.fit`): EM-style fitting of the HMG
   mixture to the point cloud, with the same width quantisation absorbed
   inside the M-step.
"""

from __future__ import annotations

import numpy as np

from repro.maps.fitting import kmeans
from repro.maps.gaussian import logsumexp
from repro.maps.gmm import GaussianMixture
from repro.maps.hmg import HMG_UNIT_INTEGRALS, hmg_kernel, hmg_log_kernel


def _quantize_to_menu(values: np.ndarray, menu: np.ndarray | None) -> np.ndarray:
    """Snap (K, D) values to the nearest menu entry.

    ``menu`` may be a shared 1D menu of widths or a per-axis (D, W) menu
    (the hardware width codes map to different world-unit widths on each
    axis when the world-to-voltage scale is anisotropic).
    """
    if menu is None:
        return values
    menu = np.asarray(menu, dtype=float)
    if menu.ndim == 1:
        idx = np.argmin(np.abs(values[..., None] - menu), axis=-1)
        return menu[idx]
    if menu.ndim == 2:
        if menu.shape[0] != values.shape[1]:
            raise ValueError(
                f"per-axis menu has {menu.shape[0]} axes, values have {values.shape[1]}"
            )
        result = np.empty_like(values)
        for axis in range(values.shape[1]):
            idx = np.argmin(np.abs(values[:, axis, None] - menu[axis][None, :]), axis=1)
            result[:, axis] = menu[axis][idx]
        return result
    raise ValueError("menu must be 1D or 2D")


class HMGMixture:
    """A K-component HMG mixture map.

    Attributes:
        weights: (K,) mixture weights (sum to 1 when used as a density).
        means: (K, D) kernel centers.
        sigmas: (K, D) per-axis widths, typically snapped to the hardware
            width menu.
    """

    def __init__(self, weights: np.ndarray, means: np.ndarray, sigmas: np.ndarray):
        self.weights = np.asarray(weights, dtype=float).reshape(-1)
        self.means = np.atleast_2d(np.asarray(means, dtype=float))
        self.sigmas = np.atleast_2d(np.asarray(sigmas, dtype=float))
        k = self.weights.size
        if self.means.shape[0] != k or self.sigmas.shape != self.means.shape:
            raise ValueError("weights / means / sigmas shape mismatch")
        if np.any(self.weights < 0):
            raise ValueError("weights must be non-negative")
        if self.weights.sum() <= 0:
            raise ValueError("weights must not all be zero")
        self.weights = self.weights / self.weights.sum()
        if np.any(self.sigmas <= 0):
            raise ValueError("sigmas must be positive")

    @property
    def n_components(self) -> int:
        return self.weights.size

    @property
    def n_dims(self) -> int:
        return self.means.shape[1]

    def _log_norms(self) -> np.ndarray:
        """Per-component log normalisation constants of the kernels."""
        c_unit = HMG_UNIT_INTEGRALS[self.n_dims]
        return np.log(c_unit) + np.log(self.sigmas).sum(axis=1)

    def kernel_values(self, points: np.ndarray) -> np.ndarray:
        """(N, K) peak-normalised kernel values (the array's column currents
        up to the per-column peak current)."""
        return hmg_kernel(points, self.means, self.sigmas)

    def field(self, points: np.ndarray) -> np.ndarray:
        """(N,) weighted kernel field sum_j w_j f_j (unnormalised)."""
        return self.kernel_values(points) @ self.weights

    def logpdf(self, points: np.ndarray) -> np.ndarray:
        """(N,) log-density of the properly normalised mixture."""
        log_k = hmg_log_kernel(points, self.means, self.sigmas)
        log_w = np.log(self.weights + 1e-300) - self._log_norms()
        return logsumexp(log_k + log_w[None, :])

    def pdf(self, points: np.ndarray) -> np.ndarray:
        """(N,) density of the normalised mixture."""
        return np.exp(self.logpdf(points))

    def amplitudes(self) -> np.ndarray:
        """(K,) density amplitude of each component at its own center.

        The inverter array realises the field ``sum_j a_j f_j``; matching
        these amplitudes (rather than raw weights) is what column
        replication must reproduce.
        """
        return self.weights * np.exp(-self._log_norms())

    def mean_loglik(self, points: np.ndarray) -> float:
        """Mean log-likelihood of points under the normalised mixture."""
        return float(self.logpdf(points).mean())

    @staticmethod
    def from_gmm(
        gmm: GaussianMixture,
        sigma_menu: np.ndarray | None = None,
        refine_points: np.ndarray | None = None,
    ) -> "HMGMixture":
        """Co-design conversion of a GMM into a hardware HMG mixture.

        Args:
            gmm: the conventional map model.
            sigma_menu: per-axis widths the hardware can realise (world
                units).  ``None`` keeps the GMM widths (ideal kernels).
            refine_points: if given, mixture weights are re-fit by
                non-negative least squares so that the HMG *density* matches
                the GMM density on these points (compensates both the kernel
                shape change and the width quantisation).

        Returns:
            The co-designed HMG mixture.
        """
        sigmas = _quantize_to_menu(gmm.sigmas.copy(), sigma_menu)
        model = HMGMixture(gmm.weights.copy(), gmm.means.copy(), sigmas)
        if refine_points is not None:
            model = model.with_refined_weights(refine_points, gmm.pdf(refine_points))
        return model

    def with_refined_weights(
        self, points: np.ndarray, target_density: np.ndarray
    ) -> "HMGMixture":
        """Re-fit weights by NNLS so the mixture density matches a target.

        Solves ``min_w || Phi w - t ||`` with ``w >= 0`` where ``Phi`` holds
        per-component normalised densities at ``points``.
        """
        points = np.atleast_2d(np.asarray(points, dtype=float))
        target = np.asarray(target_density, dtype=float).reshape(-1)
        if target.size != points.shape[0]:
            raise ValueError("points / target_density length mismatch")
        from scipy.optimize import nnls

        phi = self.kernel_values(points) * np.exp(-self._log_norms())[None, :]
        weights, _ = nnls(phi, target)
        if weights.sum() <= 0:
            # Degenerate target; keep previous weights.
            return self
        # Drop zero-weight components (they would waste array columns).
        keep = weights > 1e-12 * weights.max()
        return HMGMixture(weights[keep], self.means[keep], self.sigmas[keep])

    @staticmethod
    def fit(
        points: np.ndarray,
        n_components: int,
        rng: np.random.Generator,
        sigma_menu: np.ndarray | None = None,
        max_iters: int = 40,
        tol: float = 1e-5,
        min_sigma: float = 1e-3,
    ) -> "HMGMixture":
        """EM-style direct fit of an HMG mixture to a point cloud.

        The E-step uses exact HMG responsibilities; the M-step updates
        means/widths from responsibility-weighted moments (the HMG kernel's
        per-axis second moment is close enough to Gaussian for this to
        converge in practice) and snaps widths to the hardware menu.
        """
        points = np.asarray(points, dtype=float)
        n = points.shape[0]
        if not 1 <= n_components <= n:
            raise ValueError("n_components must be in [1, n_points]")
        centers, labels = kmeans(points, n_components, rng)
        sigmas = np.empty_like(centers)
        weights = np.empty(n_components)
        for j in range(n_components):
            mask = labels == j
            weights[j] = max(mask.sum(), 1)
            if mask.sum() > 1:
                sigmas[j] = np.maximum(points[mask].std(axis=0), min_sigma)
            else:
                sigmas[j] = np.maximum(points.std(axis=0) / n_components, min_sigma)
        sigmas = _quantize_to_menu(sigmas, sigma_menu)
        model = HMGMixture(weights, centers, sigmas)

        previous = -np.inf
        for _ in range(max_iters):
            log_k = hmg_log_kernel(points, model.means, model.sigmas)
            log_w = np.log(model.weights + 1e-300) - model._log_norms()
            log_joint = log_k + log_w[None, :]
            log_norm = logsumexp(log_joint)[:, None]
            mean_ll = float(log_norm.mean())
            resp = np.exp(log_joint - log_norm)
            mass = resp.sum(axis=0) + 1e-12
            weights = mass / n
            means = (resp.T @ points) / mass[:, None]
            sq = (
                resp.T @ (points**2)
                - 2.0 * means * (resp.T @ points)
                + mass[:, None] * means**2
            )
            sigmas = np.sqrt(np.maximum(sq / mass[:, None], min_sigma**2))
            sigmas = _quantize_to_menu(sigmas, sigma_menu)
            model = HMGMixture(weights, means, sigmas)
            if mean_ll - previous < tol:
                break
            previous = mean_ll
        return model
