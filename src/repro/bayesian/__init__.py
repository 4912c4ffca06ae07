"""Bayesian deep-learning inference machinery (paper Sec. III).

MC-Dropout variational inference plus the two workload optimisations the
paper's CIM engine is built around: *compute reuse* between consecutive
iterations (only neurons whose dropout state changed are re-evaluated) and
*sample ordering* (sequencing the Monte-Carlo masks to minimise mask-to-
mask Hamming distance, maximising what reuse can skip).
"""

from repro.bayesian.masks import MaskStream
from repro.bayesian.mc_dropout import MCDropoutPredictor, MCPrediction
from repro.bayesian.reuse import DeltaReuseEngine, ReuseStats
from repro.bayesian.ordering import (
    mask_hamming_path_length,
    optimal_mask_order,
)
from repro.bayesian.metrics import (
    area_under_sparsification_error,
    error_uncertainty_correlation,
)
from repro.bayesian.conformal import (
    AdaptiveConformalInference,
    SplitConformalRegressor,
    conformal_quantile,
)

__all__ = [
    "MaskStream",
    "MCDropoutPredictor",
    "MCPrediction",
    "DeltaReuseEngine",
    "ReuseStats",
    "optimal_mask_order",
    "mask_hamming_path_length",
    "error_uncertainty_correlation",
    "area_under_sparsification_error",
    "conformal_quantile",
    "SplitConformalRegressor",
    "AdaptiveConformalInference",
]
