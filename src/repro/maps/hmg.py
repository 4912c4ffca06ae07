"""The Harmonic-Mean-of-Gaussian (HMG) kernel.

The series-stacked likelihood inverter combines per-axis Gaussian-like
current bells as a harmonic mean (paper Sec. II-B)::

    f(x) = D / sum_k exp(z_k^2 / 2),      z_k = (x_k - mu_k) / sigma_k

(peak-normalised to 1 at the center).  Unlike a product-of-Gaussians, whose
iso-contours are ellipses, the HMG kernel's contours have *rectilinear*
tails: far from the center along one axis the kernel is dominated by that
single axis term, so contours flatten against axis-aligned lines
(paper Fig. 2c/d).

The kernel is not separable, so its normalisation constant is not
``(2*pi)**(D/2)``; :data:`HMG_UNIT_INTEGRALS` tabulates the numerically
integrated unit-kernel volume used to turn kernels into proper densities.
"""

from __future__ import annotations

import numpy as np

from repro.maps.gaussian import logsumexp

# Integral of the unit (sigma = 1, peak-normalised) HMG kernel over R^D.
# D=1 reduces to a Gaussian (sqrt(2*pi)); higher D carry extra tail mass.
# Values computed by high-resolution trapezoidal quadrature
# (tests/test_maps.py re-derives them from hmg_kernel).
HMG_UNIT_INTEGRALS: dict[int, float] = {
    1: 2.5066282746,
    2: 10.202996,
    3: 48.735963,
}
HMG_UNIT_INTEGRAL_3D: float = HMG_UNIT_INTEGRALS[3]

_EXP_CLIP = 700.0


def hmg_log_kernel(
    points: np.ndarray, means: np.ndarray, sigmas: np.ndarray
) -> np.ndarray:
    """Log of the peak-normalised HMG kernel for K components.

    Args:
        points: (N, D) query points.
        means: (K, D) kernel centers.
        sigmas: (K, D) per-axis widths (positive).

    Returns:
        (N, K) log-kernel values (0 at a center, negative elsewhere).
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    means = np.atleast_2d(np.asarray(means, dtype=float))
    sigmas = np.atleast_2d(np.asarray(sigmas, dtype=float))
    if np.any(sigmas <= 0):
        raise ValueError("sigmas must be positive")
    d = points.shape[1]
    z = (points[:, None, :] - means[None, :, :]) / sigmas[None, :, :]
    # log f = log D - logsumexp_k(z_k^2 / 2): stable for arbitrarily far
    # points; clamped at 0 so rounding never pushes the kernel above 1.
    return np.minimum(np.log(d) - logsumexp(0.5 * z**2), 0.0)


def hmg_kernel(points: np.ndarray, means: np.ndarray, sigmas: np.ndarray) -> np.ndarray:
    """Peak-normalised HMG kernel values, shape (N, K)."""
    return np.exp(np.maximum(hmg_log_kernel(points, means, sigmas), -_EXP_CLIP))


def tail_rectilinearity(
    sigma: float = 1.0, level: float = 1e-3, n_grid: int = 801, limit: float = 6.0
) -> tuple[float, float]:
    """Quantify the tail shape of 2D iso-contours (paper Fig. 2c/d).

    For a contour at ``level`` (relative to peak), returns the ratio of the
    contour's area to the area of the axis-aligned bounding box of the
    contour, for (hmg, gaussian).  A square-ish (rectilinear) contour has a
    ratio near 1; an ellipse has pi/4 ~ 0.785.  The HMG ratio exceeds the
    Gaussian ratio, which is the quantitative version of "rectilinear vs
    elliptical tails".
    """
    u = np.linspace(-limit, limit, n_grid)
    u1, u2 = np.meshgrid(u, u, indexing="ij")
    z1, z2 = u1 / sigma, u2 / sigma
    hmg = 2.0 / (
        np.exp(np.minimum(z1**2 / 2, _EXP_CLIP)) + np.exp(np.minimum(z2**2 / 2, _EXP_CLIP))
    )
    gauss = np.exp(-np.minimum((z1**2 + z2**2) / 2, _EXP_CLIP))
    cell = (u[1] - u[0]) ** 2
    ratios = []
    for field in (hmg, gauss):
        inside = field >= level
        area = inside.sum() * cell
        rows = np.any(inside, axis=1)
        cols = np.any(inside, axis=0)
        extent1 = u[rows].max() - u[rows].min()
        extent2 = u[cols].max() - u[cols].min()
        ratios.append(area / (extent1 * extent2))
    return float(ratios[0]), float(ratios[1])
