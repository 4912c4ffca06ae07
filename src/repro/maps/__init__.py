"""Map models: Gaussian mixtures and hardware-native HMG mixtures.

The flying domain's 3D map is learned from scanner point clouds.  The
conventional representation is a Gaussian Mixture Model (GMM) evaluated
digitally; the paper's co-design re-fits the map with Harmonic-Mean-of-
Gaussian (HMG) kernels -- the native transfer function of the likelihood
inverter -- with centers, widths and weights quantised to what the hardware
can actually program.
"""

from repro.maps.gaussian import diag_gaussian_logpdf
from repro.maps.fitting import kmeans, kmeans_plus_plus_init
from repro.maps.gmm import GaussianMixture
from repro.maps.hmg import (
    HMG_UNIT_INTEGRAL_3D,
    hmg_kernel,
)
from repro.maps.hmgm import HMGMixture

__all__ = [
    "diag_gaussian_logpdf",
    "kmeans",
    "kmeans_plus_plus_init",
    "GaussianMixture",
    "hmg_kernel",
    "HMG_UNIT_INTEGRAL_3D",
    "HMGMixture",
]
