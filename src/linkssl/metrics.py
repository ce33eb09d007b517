"""Link-prediction metrics (Hits@k, ROC-AUC, average precision) and the
held-out evaluation protocol.

All three metrics are rank-based: any strictly monotone transformation of
the scores leaves them unchanged. Tie conventions: Hits@k uses a strict
">" against the threshold, ROC-AUC credits ties 0.5, and AP ranks tied
negatives above tied positives (pessimistic).

Two reference scorers score the same pairs as a trained model: the
planted-block oracle, the ceiling on a graph sampled from known block
counts, and common neighbours on the train graph, the local baseline
(Liben-Nowell & Kleinberg 2007).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import _pair_columns, sample_negative_pairs
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
    neg = np.sort(s.y_neg)
    below = np.searchsorted(neg, s.y_pos, side="left")
    not_above = np.searchsorted(neg, s.y_pos, side="right")
    # 2U = sum(2 * below + ties) is an integer, so U is exact
    u = (below.sum() + not_above.sum()) / 2.0
    return float(u / (s.y_pos.size * neg.size))


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


def planted_block_scorer(counts):
    """Scorer of the planted-block oracle for a graph sampled from the
    block-pair counts `counts` (sbm.BlockEdgeCounts): a pair (u, v) scores
    p(b_u, b_v), its block pair's edge count over that pair's node-pair
    slots, the edge probability of every pair in it."""
    block = counts.assignment()
    prob = counts.counts / np.maximum(counts.slots(), 1)

    def scorer(pairs):
        u, v = _pair_columns(pairs)
        return prob[block[u], block[v]]

    return scorer


def common_neighbours_scorer(graph):
    """Scorer of the number of neighbours u and v share in `graph`, the
    train graph of the split it scores."""
    adj = graph.adjacency()

    def scorer(pairs):
        u, v = _pair_columns(pairs)
        return np.asarray(adj[u].multiply(adj[v]).sum(axis=1)).ravel()

    return scorer


def evaluate_split(scorer, split, positives, k, seed):
    """(hits@k, AP, ROC-AUC) of held-out `positives` of `split` against as
    many sampled negatives, which avoid every known positive (train, val
    and test) and depend only on (split, count, seed). `scorer` maps an
    (m, 2) pair array to m scores, so a trained model and a reference
    heuristic score the same pairs."""
    if len(positives) == 0:
        raise ValueError("no held-out positives to score")
    neg = sample_negative_pairs(split.graph, len(positives),
                                seed=derive_seed(seed, "eval_negatives"))
    s = ScoreSet(scorer(positives), scorer(neg))
    return hits_at_k(s, k), average_precision(s), roc_auc(s)
