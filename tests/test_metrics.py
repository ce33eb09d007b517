"""Metric oracles: every value is cross-checked against an independent
brute-force pair-count / ranking walk, plus frozen hand-computed constants."""

from functools import partial

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.stats import rankdata
from types import SimpleNamespace

from linkssl import autodiff as ad
from linkssl.graphs import Graph, random_link_split
from linkssl.metrics import (ScoreSet, average_precision,
                             common_neighbours_scorer, evaluate_split,
                             hits_at_k, planted_block_scorer, roc_auc)
from linkssl.models import EncoderConfig, predict_scores, train_decoder
from linkssl.sbm import BlockEdgeCounts
from tests.test_models import StubEncoder, toy_cfg


# ------------------------------------------------------ brute-force oracles

def oracle_hits(y_pos, y_neg, k):
    threshold = sorted(y_neg, reverse=True)[k - 1]
    return sum(1 for p in y_pos if p > threshold) / len(y_pos)


def oracle_auc(y_pos, y_neg):
    total = 0.0
    for p in y_pos:
        for n in y_neg:
            if p > n:
                total += 1.0
            elif p == n:
                total += 0.5
    return total / (len(y_pos) * len(y_neg))


def oracle_ap(y_pos, y_neg):
    items = [(s, 1) for s in y_pos] + [(s, 0) for s in y_neg]
    # descending score; ties put negatives first (pessimistic)
    items.sort(key=lambda t: (-t[0], t[1]))
    hits = 0
    total = 0.0
    for rank, (_, is_pos) in enumerate(items, start=1):
        if is_pos:
            hits += 1
            total += hits / rank
    return total / len(y_pos)


def random_scoresets(count, seed, tie_prone=True):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        np_pos = int(rng.integers(1, 101))
        np_neg = int(rng.integers(1, 101))
        if tie_prone:
            pos = rng.integers(0, 10, size=np_pos) / 10.0
            neg = rng.integers(0, 10, size=np_neg) / 10.0
        else:
            pos = rng.random(np_pos)
            neg = rng.random(np_neg)
        out.append(ScoreSet(pos, neg))
    return out


# ----------------------------------------------------------------- hits@k

def test_hits_frozen_example():
    s = ScoreSet([0.9, 0.5, 0.3], [0.8, 0.4, 0.2])
    assert hits_at_k(s, 2) == pytest.approx(2.0 / 3.0, abs=1e-12)


def test_hits_perfect_separation():
    s = ScoreSet([0.9, 0.8, 0.7], [0.3, 0.2, 0.1])
    for k in (1, 2, 3):
        assert hits_at_k(s, k) == 1.0


def test_hits_ties_with_threshold_miss():
    s = ScoreSet([0.4, 0.4, 0.4], [0.5, 0.4, 0.1])
    assert hits_at_k(s, 2) == 0.0


def test_hits_rejects_bad_k():
    s = ScoreSet([0.5], [0.5, 0.4])
    with pytest.raises(ValueError):
        hits_at_k(s, 3)
    with pytest.raises(ValueError):
        hits_at_k(s, 0)


# ----------------------------------------------------------------- roc auc

def test_auc_perfect_and_uniform():
    assert roc_auc(ScoreSet([0.9, 0.8], [0.2, 0.1])) == 1.0
    assert roc_auc(ScoreSet([0.5, 0.5], [0.5, 0.5, 0.5])) == 0.5


def test_auc_frozen_pair_count():
    # pairs: (0.9,0.5) win, (0.9,0.1) win, (0.4,0.5) loss, (0.4,0.1) win
    s = ScoreSet([0.9, 0.4], [0.5, 0.1])
    assert oracle_auc(s.y_pos, s.y_neg) == 0.75
    assert roc_auc(s) == pytest.approx(0.75, abs=1e-12)


def test_auc_reversal():
    assert roc_auc(ScoreSet([0.1], [0.9])) == 0.0


# ------------------------------------------------------------------- ap

def test_ap_single_positive_first():
    assert average_precision(ScoreSet([0.9], [0.5, 0.4])) == 1.0


def test_ap_frozen_pessimistic():
    assert average_precision(ScoreSet([0.8], [0.9])) == pytest.approx(
        0.5, abs=1e-12)


def test_ap_tie_is_pessimistic():
    # tied pos/neg at 0.7: negative ranked first, precision 1/2
    assert average_precision(ScoreSet([0.7], [0.7])) == pytest.approx(
        0.5, abs=1e-12)


def test_ap_trailing_negatives_no_effect():
    a = average_precision(ScoreSet([0.9, 0.8], [0.85, 0.5]))
    b = average_precision(ScoreSet([0.9, 0.8], [0.85, 0.5, 0.4, 0.3, 0.2]))
    assert a == pytest.approx(b, abs=1e-12)


# ------------------------------------------------------ oracle equivalence

def test_metrics_match_brute_force_oracles():
    for i, s in enumerate(random_scoresets(200, seed=21)):
        k = 1 + i % s.y_neg.size
        assert hits_at_k(s, k) == pytest.approx(
            oracle_hits(list(s.y_pos), list(s.y_neg), k), abs=1e-12)
        assert roc_auc(s) == pytest.approx(
            oracle_auc(list(s.y_pos), list(s.y_neg)), abs=1e-12)
        assert average_precision(s) == pytest.approx(
            oracle_ap(list(s.y_pos), list(s.y_neg)), abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 8), min_size=1, max_size=30),
       st.lists(st.integers(0, 8), min_size=1, max_size=30),
       st.sampled_from(["affine", "exp", "cube"]))
def test_metrics_monotone_transform_invariant(pos, neg, transform):
    fn = {"affine": lambda x: 3.0 * x + 7.0,
          "exp": np.exp,
          "cube": lambda x: x ** 3}[transform]
    raw = ScoreSet(np.array(pos, dtype=float), np.array(neg, dtype=float))
    mapped = ScoreSet(fn(raw.y_pos), fn(raw.y_neg))
    k = min(3, len(neg))
    assert hits_at_k(raw, k) == pytest.approx(hits_at_k(mapped, k),
                                              abs=1e-12)
    assert roc_auc(raw) == pytest.approx(roc_auc(mapped), abs=1e-12)
    assert average_precision(raw) == pytest.approx(
        average_precision(mapped), abs=1e-12)


# a handful of values, two of them adjacent floats, so most pairs tie
FEW_SCORES = st.sampled_from([-2.0, 0.1, 0.3, 0.3000000000000001, 7.5])


@settings(max_examples=200, deadline=None)
@given(st.lists(FEW_SCORES, min_size=1, max_size=40),
       st.lists(FEW_SCORES, min_size=1, max_size=120))
def test_auc_is_exact_under_heavy_ties(pos, neg):
    assume(len(pos) != len(neg))
    s = ScoreSet(pos, neg)
    n_pos, n_neg = s.y_pos.size, s.y_neg.size
    ranks = rankdata(np.concatenate([s.y_pos, s.y_neg]), method="average")
    u = ranks[:n_pos].sum() - n_pos * (n_pos + 1) / 2.0
    assert roc_auc(s) == oracle_auc(pos, neg)
    assert roc_auc(s) == float(u / (n_pos * n_neg))


def test_scoreset_rejects_empty_or_nonfinite():
    with pytest.raises(ValueError):
        ScoreSet([], [0.1])
    with pytest.raises(ValueError):
        ScoreSet([0.1], [])
    with pytest.raises(ValueError):
        ScoreSet([np.nan], [0.1])


# ------------------------------------------------------------ evaluate_split

def _clique_pair_split():
    edges = [(u, v) for u in range(6) for v in range(u + 1, 6)]
    edges += [(u + 6, v + 6) for u, v in edges]
    g = Graph(12, np.array(edges))
    return random_link_split(g, (0.6, 0.0, 0.4), seed=2)


def test_evaluate_split_oracle_scorer_is_perfect():
    split = _clique_pair_split()
    truth = split.graph.edge_set()

    def scorer(pairs):
        return np.array([1.0 if (min(u, v), max(u, v)) in truth else 0.0
                         for u, v in np.asarray(pairs)])

    hits, ap, auc = evaluate_split(scorer, split, split.test_pos, 3, 0)
    assert (hits, ap, auc) == (1.0, 1.0, 1.0)


def test_planted_block_scorer_scores_each_block_pair_probability():
    # blocks {0, 1, 2} and {3, 4}: 2 of 3 intra slots in block 0, 1 of 1
    # in block 1, 1 of 6 slots across
    counts = BlockEdgeCounts(num_blocks=2, block_sizes=[3, 2],
                             counts=[[2, 1], [1, 1]],
                             members=(np.array([0, 2, 4]), np.array([1, 3])),
                             n=5)
    scorer = planted_block_scorer(counts)
    got = scorer(np.array([[0, 2], [2, 4], [1, 3], [0, 1], [3, 4]]))
    assert np.array_equal(got, [2 / 3, 2 / 3, 1.0, 1 / 6, 1 / 6])


def test_common_neighbours_scorer_counts_shared_neighbours():
    # two triangles {0, 1, 2}, {2, 3, 4} and the edge 1-3
    g = Graph(5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4), (1, 3)])
    scorer = common_neighbours_scorer(g)
    got = scorer(np.array([[0, 3], [1, 4], [0, 4], [1, 2], [4, 4]]))
    assert np.array_equal(got, [2, 2, 1, 2, 2])


def test_reference_scorers_rank_a_planted_split():
    # on two 6-cliques every held-out edge lies inside a block and every
    # negative across the two: the oracle ranks them all first, and CN,
    # which scores every negative 0, ties only the held-out edges whose
    # endpoints share no train neighbour
    split = _clique_pair_split()
    counts = BlockEdgeCounts(num_blocks=2, block_sizes=[6, 6],
                             counts=[[15, 0], [0, 15]],
                             members=(np.arange(6), np.arange(6, 12)), n=12)
    oracle = evaluate_split(planted_block_scorer(counts), split,
                            split.test_pos, 3, 0)
    cn = evaluate_split(common_neighbours_scorer(split.train_graph), split,
                        split.test_pos, 3, 0)
    assert oracle == (1.0, 1.0, 1.0)
    assert 0.9 < cn[2] < 1.0


def test_evaluate_split_random_scorer_auc_near_half():
    split = _clique_pair_split()
    rng = np.random.default_rng(3)
    aucs = []
    for trial in range(40):
        def scorer(pairs):
            return rng.random(len(np.asarray(pairs)))

        aucs.append(evaluate_split(scorer, split, split.test_pos, 3,
                                   trial)[2])
    m = len(split.test_pos)
    sigma = np.sqrt((2 * m + 1) / (12.0 * m * m) / len(aucs))
    assert abs(np.mean(aucs) - 0.5) < 4 * sigma + 0.02


def test_evaluate_split_deterministic_model_scorer():
    split = _clique_pair_split()
    h = np.random.default_rng(5).normal(size=(12, 64))
    state = SimpleNamespace(encoder=StubEncoder(h))
    dec = train_decoder(state, split, toy_cfg(), seed=6)
    scorer = partial(predict_scores, state, dec, split.train_graph)
    a = evaluate_split(scorer, split, split.test_pos, 3, 9)
    b = evaluate_split(scorer, split, split.test_pos, 3, 9)
    assert a == b
    c = evaluate_split(scorer, split, split.test_pos, 3, 10)
    assert isinstance(c, tuple) and len(c) == 3


def test_evaluate_split_requires_test_positives():
    g = Graph(6, np.array([(0, 1), (1, 2), (2, 3), (3, 4)]))
    split = random_link_split(g, (1.0, 0.0, 0.0), seed=0)
    with pytest.raises(ValueError):
        evaluate_split(lambda pairs: np.ones(len(pairs)), split,
                       split.test_pos, 1, 0)
