"""Link-prediction metrics (Hits@k, ROC-AUC, average precision) and the
held-out evaluation protocol.

All three metrics are rank-based: any strictly monotone transformation of
the scores leaves them unchanged. Tie conventions: Hits@k uses a strict
">" against the threshold, ROC-AUC credits ties 0.5, and AP ranks tied
negatives above tied positives (pessimistic).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.stats import rankdata

from .graphs import sample_negative_pairs
from .models.training import predict_scores
from .seeding import derive_seed


@dataclass(frozen=True)
class ScoreSet:
    y_pos: np.ndarray
    y_neg: np.ndarray

    def __post_init__(self):
        pos = np.asarray(self.y_pos, dtype=np.float64).ravel()
        neg = np.asarray(self.y_neg, dtype=np.float64).ravel()
        if pos.size == 0 or neg.size == 0:
            raise ValueError("both score vectors must be non-empty")
        if not (np.isfinite(pos).all() and np.isfinite(neg).all()):
            raise ValueError("scores must be finite")
        object.__setattr__(self, "y_pos", pos)
        object.__setattr__(self, "y_neg", neg)


def hits_at_k(s, k):
    """Fraction of positives scoring strictly above the k-th largest
    negative score."""
    k = int(k)
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > s.y_neg.size:
        raise ValueError(f"k={k} exceeds the {s.y_neg.size} negatives")
    threshold = np.sort(s.y_neg)[-k]
    return float(np.mean(s.y_pos > threshold))


def roc_auc(s):
    """Mann-Whitney statistic: P(pos > neg) + 0.5 * P(pos == neg)."""
    n_pos, n_neg = s.y_pos.size, s.y_neg.size
    ranks = rankdata(np.concatenate([s.y_pos, s.y_neg]), method="average")
    rank_sum = ranks[:n_pos].sum()
    u = rank_sum - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


def average_precision(s):
    """Area under the precision-recall steps over the descending ranking,
    ties resolved negatives-first."""
    n_pos = s.y_pos.size
    scores = np.concatenate([s.y_pos, s.y_neg])
    labels = np.concatenate([np.ones(n_pos, dtype=bool),
                             np.zeros(s.y_neg.size, dtype=bool)])
    # lexsort: primary descending score, secondary negatives before positives
    order = np.lexsort((labels, -scores))
    hits = labels[order]
    cum_pos = np.cumsum(hits)
    positions = np.flatnonzero(hits) + 1
    precisions = cum_pos[positions - 1] / positions
    return float(precisions.sum() / n_pos)


def evaluate_split(state, decoder, split, k=50, seed=0, scorer=None):
    """Score the held-out test edges against |test_pos| sampled negatives.

    Negatives exclude every known positive (train, val, and test) and are
    drawn once per (split, seed). `scorer`, when given, replaces the
    encoder+decoder path (pairs -> scores); used for protocol tests.
    Returns (hits_at_k, average_precision, roc_auc).
    """
    test_pos = split.test_pos
    if len(test_pos) == 0:
        raise ValueError("split has no test positives")
    neg = sample_negative_pairs(split.known_graph(), len(test_pos),
                                seed=derive_seed(seed, "eval_negatives"))
    if scorer is None:
        def scorer(pairs):
            return predict_scores(state, decoder, split.train_graph, pairs)
    s = ScoreSet(scorer(test_pos), scorer(neg))
    return hits_at_k(s, k), average_precision(s), roc_auc(s)
