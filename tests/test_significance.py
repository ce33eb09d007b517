"""Friedman and Bonferroni-Dunn oracles.

The 2-dof chi-square survival function has the closed form exp(-x/2), so
the canonical 3-method instance is checked against math.exp directly;
random matrices are cross-checked against scipy's independent
implementation.
"""

import math

import numpy as np
import pytest
from scipy import stats

from linkssl.significance import (bonferroni_dunn_groups,
                                  critical_difference, friedman_test)

# z(0.975) from the standard normal table
Z_975 = 1.959963984540054


def strict_order_matrix(n_runs=10, n_methods=3):
    # method 0 always best, method k-1 always worst
    base = np.arange(n_methods, 0, -1, dtype=float)
    return np.vstack([base + 0.01 * r for r in range(n_runs)])


def test_friedman_identical_methods():
    chi, p = friedman_test(np.ones((5, 4)))
    assert chi == 0.0
    assert p == 1.0


def test_friedman_strict_order_chi_square_exact():
    chi, p = friedman_test(strict_order_matrix())
    assert chi == pytest.approx(20.0, abs=1e-12)
    # dof=2 survival function is exp(-chi/2)
    assert p == pytest.approx(math.exp(-10.0), abs=1e-12)
    assert p == pytest.approx(4.5e-5, abs=1e-6)


def test_friedman_matches_scipy_on_random_matrices():
    # scipy adds a tie-correction factor, so the comparison holds on
    # continuous (almost surely tie-free) scores only
    rng = np.random.default_rng(31)
    for _ in range(25):
        n = int(rng.integers(3, 12))
        k = int(rng.integers(3, 6))
        scores = rng.random((n, k))
        chi, p = friedman_test(scores)
        ref = stats.friedmanchisquare(*[scores[:, j] for j in range(k)])
        assert chi == pytest.approx(ref.statistic, abs=1e-10)
        assert p == pytest.approx(ref.pvalue, abs=1e-12)


def test_friedman_invariant_under_per_run_monotone_transform():
    rng = np.random.default_rng(32)
    scores = rng.random((8, 4))
    transformed = scores.copy()
    for i, row in enumerate(transformed):
        transformed[i] = (i + 1) * np.exp(row) + i
    assert friedman_test(scores) == pytest.approx(
        friedman_test(transformed), abs=1e-10)


def test_friedman_rejects_degenerate_shapes():
    with pytest.raises(ValueError):
        friedman_test(np.ones((1, 3)))
    with pytest.raises(ValueError):
        friedman_test(np.ones((3, 1)))
    with pytest.raises(ValueError):
        friedman_test(np.ones(5))


def test_critical_difference_frozen():
    # CD(n=10, k=3, alpha=0.1) = z(0.975) * sqrt(12/60)
    assert critical_difference(10, 3, 0.1) == pytest.approx(
        Z_975 * math.sqrt(0.2), abs=1e-9)
    # CD(n=20, k=2, alpha=0.05) = z(0.975) * sqrt(6/120)
    assert critical_difference(20, 2, 0.05) == pytest.approx(
        Z_975 * math.sqrt(0.05), abs=1e-9)


@pytest.mark.parametrize("alpha", [0.0, 1.0, 1.5, -0.05, np.nan])
def test_alpha_outside_unit_interval_rejected(alpha):
    with pytest.raises(ValueError, match=f"alpha must lie in \\(0, 1\\), "
                                         f"got {alpha}"):
        critical_difference(10, 3, alpha)
    with pytest.raises(ValueError, match="alpha must lie in"):
        bonferroni_dunn_groups(strict_order_matrix(), alpha=alpha)


@pytest.mark.parametrize("k", [1, 0])
def test_critical_difference_rejects_fewer_than_two_methods(k):
    with pytest.raises(ValueError, match=f"got k={k}"):
        critical_difference(10, k, 0.05)


@pytest.mark.parametrize("n", [0, -3])
def test_critical_difference_rejects_fewer_than_one_run(n):
    with pytest.raises(ValueError, match=f"got n={n}"):
        critical_difference(n, 3, 0.05)


def test_bonferroni_dunn_gate_blocks_identical_scores():
    best, worst = bonferroni_dunn_groups(np.ones((6, 3)), alpha=0.05)
    assert best == set() and worst == set()


def test_bonferroni_dunn_two_methods_dominant():
    scores = np.column_stack([np.full(20, 2.0), np.full(20, 1.0)])
    scores += np.arange(20)[:, None] * 0.001
    best, worst = bonferroni_dunn_groups(scores, alpha=0.05)
    assert best == {0}
    assert worst == {1}


def test_bonferroni_dunn_strict_order_groups():
    # mean ranks 1, 2, 3: at alpha=0.1 the CD is ~0.877 so the groups are
    # the extremes alone; at alpha=0.05 the CD is ~1.002, marginally above
    # the unit rank gap, and the middle method joins both groups
    scores = strict_order_matrix()
    best, worst = bonferroni_dunn_groups(scores, alpha=0.1)
    assert best == {0}
    assert worst == {2}
    best05, worst05 = bonferroni_dunn_groups(scores, alpha=0.05)
    assert best05 == {0, 1}
    assert worst05 == {1, 2}


def test_bonferroni_dunn_top_method_always_in_best():
    rng = np.random.default_rng(33)
    seen_gate_pass = 0
    for _ in range(30):
        scores = rng.random((6, 4)) + np.array([1.0, 0.0, 0.0, 0.0])
        best, worst = bonferroni_dunn_groups(scores, alpha=0.1)
        if best:
            seen_gate_pass += 1
            ranks = np.vstack([stats.rankdata(-row) for row in scores])
            assert int(np.argmin(ranks.mean(axis=0))) in best
            assert int(np.argmax(ranks.mean(axis=0))) in worst
    assert seen_gate_pass > 0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_scores_rejected(bad):
    # rank-based statistics cannot order NaN; reject instead of returning
    # a silent NaN statistic
    scores = strict_order_matrix()
    scores[3, 1] = bad
    with pytest.raises(ValueError, match=r"finite; runs \[3\]"):
        friedman_test(scores)
    with pytest.raises(ValueError, match="finite"):
        bonferroni_dunn_groups(scores)
