"""Uncertainty-quality metrics (paper Fig. 3f).

The paper's headline uncertainty claim is the correlation between the
predictive variance of MC-Dropout and the actual pose error: the model
*knows when it is wrong*.  These metrics quantify that claim.
"""

from __future__ import annotations

import numpy as np


def error_uncertainty_correlation(
    errors: np.ndarray, uncertainties: np.ndarray
) -> dict[str, float]:
    """Pearson and Spearman correlation between error and uncertainty.

    Args:
        errors: (N,) per-sample prediction errors.
        uncertainties: (N,) per-sample predictive variances (or stds).

    Returns:
        Dict with "pearson", "spearman" and their p-values.
    """
    errors = np.asarray(errors, dtype=float).reshape(-1)
    uncertainties = np.asarray(uncertainties, dtype=float).reshape(-1)
    if errors.size != uncertainties.size:
        raise ValueError("length mismatch")
    if errors.size < 3:
        raise ValueError("need at least 3 samples")
    from scipy import stats

    pearson = stats.pearsonr(errors, uncertainties)
    spearman = stats.spearmanr(errors, uncertainties)
    return {
        "pearson": float(pearson.statistic),
        "pearson_p": float(pearson.pvalue),
        "spearman": float(spearman.statistic),
        "spearman_p": float(spearman.pvalue),
    }


def area_under_sparsification_error(
    errors: np.ndarray, uncertainties: np.ndarray, n_fractions: int = 20
) -> float:
    """AUSE: how well uncertainty ranks error (0 = perfect ranking).

    Removes the most-uncertain fraction of samples and tracks the mean
    error of the remainder, compared against the oracle that removes by
    true error; the area between the two sparsification curves is the
    AUSE.  Lower is better.
    """
    errors = np.asarray(errors, dtype=float).reshape(-1)
    uncertainties = np.asarray(uncertainties, dtype=float).reshape(-1)
    n = errors.size
    if n < 4:
        raise ValueError("need at least 4 samples")
    by_uncertainty = np.argsort(-uncertainties)
    by_error = np.argsort(-errors)
    base = errors.mean()
    if base == 0:
        return 0.0
    gaps = []
    for fraction in np.linspace(0.0, 0.9, n_fractions):
        keep = n - int(np.floor(fraction * n))
        model_err = errors[by_uncertainty[-keep:]].mean() if keep else 0.0
        oracle_err = errors[by_error[-keep:]].mean() if keep else 0.0
        gaps.append((model_err - oracle_err) / base)
    return float(np.trapezoid(gaps, dx=1.0 / (n_fractions - 1)))
