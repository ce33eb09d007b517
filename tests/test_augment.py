"""Augmentation family: centralities, adaptive schemes, and view generation."""

import dataclasses
import hashlib
import math
import warnings

import networkx as nx
import numpy as np
import pytest

from linkssl.augment import (ALL_KINDS, AugmentationSpec, centrality,
                             drop_edges, drop_probabilities, make_views,
                             mask_features, _importance)
from linkssl.community import louvain
from linkssl.graphs import FeatureMatrix, Graph
from linkssl.sbm import fit_block_counts


def k(n, offset=0):
    return [(u + offset, v + offset) for u in range(n) for v in range(u + 1, n)]


def big_random_graph(n=142, m=10000, seed=1):
    us, vs = np.triu_indices(n, k=1)
    pairs = np.stack([us, vs], axis=1)
    idx = np.random.default_rng(seed).choice(len(pairs), m, replace=False)
    return Graph(n, pairs[idx])


def test_drop_edges_rate_zero_is_identity():
    g = Graph(4, [(0, 1), (1, 2), (2, 3)])
    assert drop_edges(g, 0.0, seed=0) is g


def test_drop_edges_binomial_survival():
    g = big_random_graph()
    survived = drop_edges(g, 0.5, seed=3).num_edges
    assert abs(survived - 5000) < 3 * 50  # sigma = sqrt(1e4 * 0.25) = 50


def test_drop_edges_deterministic():
    g = big_random_graph(n=30, m=200)
    a = drop_edges(g, 0.3, seed=9)
    b = drop_edges(g, 0.3, seed=9)
    assert a.edge_set() == b.edge_set()


def test_mask_features_rate_zero_identity():
    x = FeatureMatrix.identity(5)
    assert mask_features(x, 0.0, seed=0) is x


def test_mask_features_zeroes_whole_columns():
    x = FeatureMatrix.dense(np.ones((4, 6)))
    masked = mask_features(x, 0.5, seed=2)
    col_sums = (masked.dense_values * masked.column_mask).sum(axis=0)
    assert set(col_sums.tolist()) <= {0.0, 4.0}
    assert (col_sums == 0).any()


def test_mask_features_shares_dense_values():
    # masking combines column masks and never copies X
    x = FeatureMatrix.dense(np.arange(12.0).reshape(3, 4))
    once = mask_features(x, 0.5, seed=1)
    twice = mask_features(once, 0.5, seed=2)
    assert once.dense_values is x.dense_values
    assert twice.dense_values is x.dense_values
    keep = mask_features(x, 0.5, seed=2).column_mask
    assert np.array_equal(twice.column_mask, once.column_mask * keep)


def test_mask_features_binomial_column_count():
    x = FeatureMatrix.identity(400)
    survivors = [
        int(np.sum(mask_features(x, 0.3, seed=s).column_mask))
        for s in range(50)
    ]
    expected = 400 * 0.7
    sigma = math.sqrt(400 * 0.3 * 0.7)
    assert abs(np.mean(survivors) - expected) < 3 * sigma / math.sqrt(50)


def test_degree_centrality_path():
    g = Graph(3, [(0, 1), (1, 2)])
    assert centrality(g, "degree").tolist() == [1.0, 2.0, 1.0]


def test_eigenvector_centrality_k4_uniform():
    g = Graph(4, k(4))
    scores = centrality(g, "eigenvector")
    assert np.allclose(scores, 0.5, atol=1e-7)


def _power_iteration(g, max_iter=1000):
    """Power iteration on A + 1e-12 I from the uniform vector (tol 1e-8);
    None when it has not converged within max_iter steps."""
    adj = g.adjacency()
    x = np.full(g.n, 1.0 / np.sqrt(g.n))
    for _ in range(max_iter):
        nxt = adj @ x + 1e-12 * x
        nxt /= np.linalg.norm(nxt)
        if np.linalg.norm(nxt - x) < 1e-8:
            return np.maximum(nxt, 0.0)
        x = nxt
    return None


def test_eigenvector_centrality_of_a_star():
    # bipartite: A's extreme eigenvalues are +-sqrt(3), so power iteration
    # oscillates between the two and never settles
    g = Graph(4, [(0, 1), (0, 2), (0, 3)])
    assert _power_iteration(g) is None
    scores = centrality(g, "eigenvector")
    want = [1 / math.sqrt(2)] + [1 / math.sqrt(6)] * 3
    assert np.allclose(scores, want, atol=1e-12)


def test_eigenvector_centrality_beyond_power_iteration_budget():
    # an odd 15-cycle with a pendant: lambda_min = -2.0513 against
    # lambda_1 = 2.0634, so power iteration needs about 2,700 steps
    n = 15
    g = Graph(n + 1, [(i, (i + 1) % n) for i in range(n)] + [(0, n)])
    assert _power_iteration(g) is None
    slow = _power_iteration(g, max_iter=10000)
    assert slow is not None
    scores = centrality(g, "eigenvector")
    assert np.allclose(scores, slow, atol=1e-6)
    eigvecs = np.linalg.eigh(g.adjacency().toarray())[1]
    assert np.allclose(scores, np.abs(eigvecs[:, -1]), atol=1e-10)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_eigenvector_centrality_agrees_with_converged_power_iteration(seed):
    g = big_random_graph(n=120, m=600, seed=seed)
    want = _power_iteration(g)
    assert want is not None
    assert np.allclose(centrality(g, "eigenvector"), want, atol=1e-6)


def test_eigenvector_centrality_edgeless_and_single_node_are_uniform():
    for n in (1, 5):
        scores = centrality(Graph(n, np.zeros((0, 2), dtype=np.int64)),
                            "eigenvector")
        assert np.array_equal(scores, np.full(n, 1.0 / np.sqrt(n)))


def test_pagerank_single_edge_symmetric():
    g = Graph(2, [(0, 1)])
    scores = centrality(g, "pagerank")
    assert np.allclose(scores, [0.5, 0.5], atol=1e-9)


def test_eigenvector_matches_networkx():
    g = big_random_graph(n=25, m=80, seed=4)
    ours = centrality(g, "eigenvector")
    nxg = nx.Graph(list(map(tuple, g.edges.tolist())))
    nxg.add_nodes_from(range(25))
    theirs = nx.eigenvector_centrality(nxg, max_iter=5000, tol=1e-10)
    expected = np.array([theirs[i] for i in range(25)])
    expected = expected / np.linalg.norm(expected)
    assert np.allclose(ours, expected, atol=1e-6)


def test_pagerank_matches_networkx():
    g = big_random_graph(n=25, m=80, seed=5)
    ours = centrality(g, "pagerank")
    nxg = nx.Graph(list(map(tuple, g.edges.tolist())))
    nxg.add_nodes_from(range(25))
    theirs = nx.pagerank(nxg, alpha=0.85, tol=1e-10)
    expected = np.array([theirs[i] for i in range(25)])
    assert np.allclose(ours, expected, atol=1e-6)


def test_probability_scheme_monotone_decreasing_then_clamped():
    importance = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
    probs = drop_probabilities(importance, 0.4, 0.5, "edge")
    assert np.all(np.diff(probs) <= 1e-12)
    assert probs.max() <= 0.5
    assert probs[-1] == pytest.approx(0.0)  # max importance never exceeds rate scale


def test_adaptive_drop_uniform_fallback_matches_random():
    g = Graph(6, k(6))  # regular graph: all importances equal
    edges, _ = _importance(g, AugmentationSpec(kind="deg"), None)
    with pytest.warns(UserWarning, match="degenerate"):
        probs = drop_probabilities(edges, 0.4, 0.9, "edge")
    adapted = drop_edges(g, probs, seed=12)
    uniform = drop_edges(g, 0.4, seed=12)
    assert adapted.edge_set() == uniform.edge_set()


def test_adaptive_drop_prefers_removing_low_importance_bridge():
    # two K6 cliques joined through degree-2 connector nodes: the connector
    # bridge has minimum endpoint degree, hence the highest removal odds
    edges = k(6) + k(6, offset=8) + [(5, 6), (6, 7), (7, 8)]
    g = Graph(14, edges)
    importance, _ = _importance(g, AugmentationSpec(kind="deg"), None)
    probs = drop_probabilities(importance, 0.5, 0.9, "edge")
    bridge_idx = [i for i, (u, v) in enumerate(g.edges.tolist())
                  if (u, v) == (6, 7)][0]
    assert probs[bridge_idx] == probs.max()


def test_adaptive_mask_identity_importance_is_centrality():
    g = Graph(4, [(0, 1), (0, 2), (0, 3)])
    _, imp = _importance(g, AugmentationSpec(kind="deg"), None)
    assert g.features.dense_values is None
    assert imp.tolist() == [3.0, 1.0, 1.0, 1.0]


def test_importance_of_masked_dense_matches_premasked():
    g = Graph(5, [(0, 1), (0, 2), (0, 3), (3, 4)])
    values = np.random.default_rng(3).random((5, 4)) * np.array([1, 0, 1, 1])
    mask = np.array([1.0, 1.0, 0.0, 1.0])
    spec = AugmentationSpec(kind="deg")
    masked = g.with_features(dataclasses.replace(FeatureMatrix.dense(values),
                                                 column_mask=mask))
    premasked = g.with_features(FeatureMatrix.dense(values * mask))
    _, got = _importance(masked, spec, None)
    _, want = _importance(premasked, spec, None)
    assert got.tobytes() == want.tobytes()
    assert got[1] == got[2] == 0.0


def test_adaptive_mask_protects_high_centrality_columns():
    g = Graph(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
    x = FeatureMatrix.identity(5)
    _, imp = _importance(g, AugmentationSpec(kind="deg"), None)
    probs = drop_probabilities(imp, 0.5, 0.9, "feature")
    hub_masked = leaf_masked = 0
    for s in range(400):
        masked = mask_features(x, probs, seed=s)
        hub_masked += masked.column_mask[0] == 0.0
        leaf_masked += masked.column_mask[1] == 0.0
    assert hub_masked < leaf_masked


def test_community_strength_values():
    g = Graph(7, k(3) + [(3, 4), (4, 5)] )
    b = fit_block_counts(g, np.array([0, 0, 0, 1, 1, 1, 2]))
    # under identity features a column's importance is its node's strength
    _, strength = _importance(g, AugmentationSpec(kind="scom"), b)
    assert strength[0] == pytest.approx(1.0)       # triangle block
    assert strength[3] == pytest.approx(2.0 / 3.0)  # 2 edges of 3 slots
    assert strength[6] == 0.0                        # singleton block


def test_scom_intra_block_edges_survive_preferentially():
    edges = k(4) + k(4, offset=4) + [(0, 4)]
    g = Graph(8, edges)
    b = fit_block_counts(g, np.array([0, 0, 0, 0, 1, 1, 1, 1]))
    importance, _ = _importance(g, AugmentationSpec(kind="scom"), b)
    probs = drop_probabilities(importance, 0.5, 0.9, "community")
    survived_bridge = survived_intra = 0
    trials = 500
    for s in range(trials):
        out = drop_edges(g, probs, seed=s)
        survived_bridge += (0, 4) in out.edge_set()
        survived_intra += (0, 1) in out.edge_set()
    assert survived_bridge < survived_intra


def test_scom_single_block_uniform_fallback():
    g = Graph(5, k(5))
    b = fit_block_counts(g, np.zeros(5, dtype=int))
    importance, _ = _importance(g, AugmentationSpec(kind="scom"), b)
    with pytest.warns(UserWarning, match="degenerate"):
        probs = drop_probabilities(importance, 0.4, 0.9, "community")
    out = drop_edges(g, probs, seed=7)
    assert out.edge_set() == drop_edges(g, 0.4, seed=7).edge_set()


def test_spec_validation():
    with pytest.raises(ValueError):
        AugmentationSpec(kind="nope")
    with pytest.raises(ValueError):
        AugmentationSpec(drop_edge_rate_1=0.95)
    with pytest.raises(ValueError):
        AugmentationSpec(cutoff=0.99)
    with pytest.raises(ValueError, match=r"cutoff=-0\.5 outside \[0, 0\.95\]"):
        AugmentationSpec(kind="deg", cutoff=-0.5)
    assert AugmentationSpec(cutoff=0.0).cutoff == 0.0
    with pytest.raises(ValueError, match="'luvain'.*louvain"):
        AugmentationSpec(detector="luvain")


def test_make_views_random_zero_rates_identity():
    g = Graph(6, k(4))
    spec = AugmentationSpec(kind="random", drop_edge_rate_1=0.0,
                            drop_edge_rate_2=0.0, drop_feature_rate_1=0.0,
                            drop_feature_rate_2=0.0)
    v1, v2 = make_views(g, spec, seed=0)
    assert v1.edge_set() == g.edge_set() and v2.edge_set() == g.edge_set()
    assert v1.features.column_mask is None


def test_make_views_sbm_first_view_unchanged():
    g = Graph(6, k(3) + k(3, offset=3))
    b = fit_block_counts(g, louvain(g, seed=0))
    spec = AugmentationSpec(kind="sbm")
    v1, v2 = make_views(g, spec, b=b, seed=1)
    assert v1.edge_set() == g.edge_set()
    assert v2.num_edges == g.num_edges


def test_make_views_sbm2_two_fresh_samples():
    rng = np.random.default_rng(2)
    pool = k(12)
    idx = rng.choice(len(pool), size=30, replace=False)
    g = Graph(12, [pool[i] for i in idx])
    b = fit_block_counts(g, louvain(g, seed=0))
    spec = AugmentationSpec(kind="sbm2")
    seen_diff = False
    for s in range(20):
        v1, v2 = make_views(g, spec, b=b, seed=s)
        assert v1.num_edges == g.num_edges == v2.num_edges
        if v1.edge_set() != v2.edge_set():
            seen_diff = True
    assert seen_diff


def test_make_views_requires_block_state_for_sbm():
    g = Graph(4, [(0, 1), (1, 2), (2, 3)])
    with pytest.raises(ValueError, match="block state"):
        make_views(g, AugmentationSpec(kind="sbm"), seed=0)


def test_make_views_pure_given_seed():
    g = big_random_graph(n=20, m=60, seed=8)
    spec = AugmentationSpec(kind="deg", drop_edge_rate_1=0.3,
                            drop_edge_rate_2=0.2)
    a1, a2 = make_views(g, spec, seed=33)
    b1, b2 = make_views(g, spec, seed=33)
    assert a1.edge_set() == b1.edge_set()
    assert a2.edge_set() == b2.edge_set()
    assert np.array_equal(
        a1.features.column_mask if a1.features.column_mask is not None
        else np.ones(20),
        b1.features.column_mask if b1.features.column_mask is not None
        else np.ones(20))


def test_make_views_never_adds_self_loops_or_new_nodes():
    g = big_random_graph(n=18, m=50, seed=10)
    b = fit_block_counts(g, louvain(g, seed=0))
    for kind in ("random", "deg", "evc", "pr", "scom", "sbm", "sbm2"):
        spec = AugmentationSpec(kind=kind)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            v1, v2 = make_views(g, spec, b=b, seed=3)
        for v in (v1, v2):
            assert v.n == g.n
            assert all(u != w for u, w in v.edges.tolist())


def _fingerprint_graphs():
    rng = np.random.default_rng(21)
    us, vs = np.triu_indices(16, k=1)
    pick = rng.choice(len(us), size=40, replace=False)
    sparse = np.stack([us[pick], vs[pick]], axis=1)
    dense = rng.random((16, 5)) * (rng.random((16, 5)) < 0.6)
    mask = (rng.random(16) < 0.7).astype(np.float64)
    masked = dataclasses.replace(FeatureMatrix.identity(16), column_mask=mask)
    return [Graph(16, sparse),
            Graph(16, sparse, features=FeatureMatrix.dense(dense)),
            Graph(16, sparse, features=masked),
            Graph(8, np.stack(np.triu_indices(8, k=1), axis=1)),  # flat
            Graph(8, np.zeros((0, 2), dtype=np.int64))]


def _effective_features(x):
    """The n x f matrix the encoder sees: X (or I) times its column mask."""
    values = np.eye(x.n_rows) if x.dense_values is None else x.dense_values
    if x.column_mask is not None:
        values = values * x.column_mask[np.newaxis, :]
    return values


def test_make_views_fingerprint_is_frozen():
    # every kind over identity, masked-identity and dense features, a
    # complete graph (flat importance surfaces) and an edgeless graph, with
    # zero, default and extreme rates under two cutoffs: edges, effective
    # features and the warnings raised, in order
    digest = hashlib.sha256()
    caught = []
    rate_sets = [(0.2, 0.2, 0.1, 0.1), (0.0, 0.0, 0.0, 0.0),
                 (0.9, 0.5, 0.9, 0.3)]
    for g in _fingerprint_graphs():
        b = fit_block_counts(g, np.arange(g.n) % 3)
        for kind in ALL_KINDS:
            for rates in rate_sets:
                for cutoff in (0.9, 0.7):
                    spec = AugmentationSpec(kind, *rates, cutoff=cutoff)
                    with warnings.catch_warnings(record=True) as w:
                        warnings.simplefilter("always")
                        views = make_views(g, spec, b=b, seed=5)
                    caught += [str(x.message) for x in w]
                    for v in views:
                        digest.update(v.edges.astype(np.int64).tobytes())
                        digest.update(_effective_features(v.features)
                                      .tobytes())
    digest.update("\n".join(caught).encode())
    # the per-kind feature paths this representation replaced gave this
    # value
    assert (digest.hexdigest()[:16], len(caught)) == ("261e3d44493ae550", 88)
