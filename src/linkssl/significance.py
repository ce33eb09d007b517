"""Friedman rank test and Bonferroni-Dunn extreme-group annotation.

Scores arrive as a (runs x methods) matrix, higher is better. Methods are
ranked 1 (best) downward within each run with midrank ties.

`scipy.stats` is imported inside the functions that use it, so importing
the package does not pay its load time and memory.
"""

from __future__ import annotations

import numpy as np


def check_alpha(alpha):
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")


def _mean_ranks(scores):
    from scipy import stats

    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 2:
        raise ValueError("scores must be a runs x methods matrix")
    n, k = scores.shape
    if n < 2 or k < 2:
        raise ValueError("need at least 2 runs and 2 methods")
    bad_runs = np.flatnonzero(~np.isfinite(scores).all(axis=1))
    if bad_runs.size:
        raise ValueError(f"scores must be finite; runs {bad_runs.tolist()} "
                         f"hold NaN or inf")
    ranks = stats.rankdata(-scores, method="average", axis=1)
    return ranks.mean(axis=0), n, k


def friedman_test(scores):
    """(chi-square statistic, p-value) over repeated-measure ranks.

    chi2 = 12n/(k(k+1)) * sum_j (R_j - (k+1)/2)^2 with dof k-1.
    """
    from scipy import stats

    mean_ranks, n, k = _mean_ranks(scores)
    chi_sq = 12.0 * n / (k * (k + 1)) * np.sum(
        (mean_ranks - (k + 1) / 2.0) ** 2)
    p_value = float(stats.chi2.sf(chi_sq, k - 1))
    return float(chi_sq), p_value


def critical_difference(n, k, alpha):
    """CD = z(1 - alpha/(2(k-1))) * sqrt(k(k+1)/(6n)); the normal quantile
    is two-sided and Bonferroni-adjusted over the k-1 comparisons."""
    from scipy import stats

    check_alpha(alpha)
    if k < 2:
        raise ValueError(f"need k >= 2 methods, got k={k}")
    if n < 1:
        raise ValueError(f"need n >= 1 runs, got n={n}")
    q = stats.norm.ppf(1.0 - alpha / (2.0 * (k - 1)))
    return float(q * np.sqrt(k * (k + 1) / (6.0 * n)))


def bonferroni_dunn_groups(scores, alpha=0.05):
    """Index sets (best, worst): methods whose mean rank lies within the
    critical difference of the top (resp. bottom) mean rank.

    Gated on the Friedman test: when its p-value is not below alpha, both
    sets are empty.
    """
    check_alpha(alpha)
    mean_ranks, n, k = _mean_ranks(scores)
    _, p_value = friedman_test(scores)
    if not p_value < alpha:
        return set(), set()
    cd = critical_difference(n, k, alpha)
    best = set(np.flatnonzero(mean_ranks <= mean_ranks.min() + cd))
    worst = set(np.flatnonzero(mean_ranks >= mean_ranks.max() - cd))
    return {int(i) for i in best}, {int(i) for i in worst}
