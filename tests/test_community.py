"""Louvain and modularity oracles."""

import numpy as np
import pytest

import networkx as nx

from linkssl.community import louvain, modularity, relabel_dense
from linkssl.graphs import Graph


def two_triangles():
    return Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])


def blocks_of(assignment):
    groups = {}
    for node, b in enumerate(assignment):
        groups.setdefault(int(b), set()).add(node)
    return set(frozenset(s) for s in groups.values())


def test_modularity_two_triangles_by_triangle():
    b = np.array([0, 0, 0, 1, 1, 1])
    assert modularity(two_triangles(), b) == pytest.approx(0.5, abs=1e-12)


def test_modularity_single_block_is_zero():
    g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    b = np.zeros(5, dtype=int)
    assert modularity(g, b) == pytest.approx(0.0, abs=1e-12)


def test_modularity_triangle_singletons():
    g = Graph(3, [(0, 1), (1, 2), (0, 2)])
    b = np.array([0, 1, 2])
    assert modularity(g, b) == pytest.approx(-1.0 / 3.0, abs=1e-12)


def test_modularity_invariant_under_relabeling():
    g = two_triangles()
    b1 = np.array([0, 0, 0, 1, 1, 1])
    b2 = np.array([1, 1, 1, 0, 0, 0])
    assert modularity(g, b1) == modularity(g, b2)


def test_modularity_matches_networkx_oracle():
    rng = np.random.default_rng(3)
    pool = [(u, v) for u in range(14) for v in range(u + 1, 14)]
    idx = rng.choice(len(pool), size=30, replace=False)
    g = Graph(14, [pool[i] for i in idx])
    assignment = rng.integers(0, 3, size=14)
    b, num_blocks = relabel_dense(assignment)
    nxg = nx.Graph(list(map(tuple, g.edges.tolist())))
    nxg.add_nodes_from(range(14))
    communities = [
        {i for i in range(14) if b[i] == c}
        for c in range(num_blocks)
    ]
    expected = nx.algorithms.community.modularity(nxg, communities)
    assert modularity(g, b) == pytest.approx(expected, abs=1e-12)


def test_louvain_recovers_two_triangles():
    state = louvain(two_triangles(), seed=0)
    assert state.dtype == np.int64 and state.max() == 1
    assert blocks_of(state) == {frozenset({0, 1, 2}), frozenset({3, 4, 5})}


def test_louvain_single_block_on_complete_graph():
    g = Graph(5, [(u, v) for u in range(5) for v in range(u + 1, 5)])
    state = louvain(g, seed=1)
    assert state.tolist() == [0] * 5


def test_louvain_recovers_bridged_cliques():
    clique_a = [(u, v) for u in range(10) for v in range(u + 1, 10)]
    clique_b = [(u + 10, v + 10) for u, v in clique_a]
    g = Graph(20, clique_a + clique_b + [(0, 10)])
    state = louvain(g, seed=0)
    expected = {frozenset(range(10)), frozenset(range(10, 20))}
    assert blocks_of(state) == expected
    # the recovered partition beats the coarser single-block partition and
    # a finer random refinement
    q_found = modularity(g, state)
    q_single = modularity(g, np.zeros(20, dtype=int))
    finer = np.array([0] * 5 + [1] * 5 + [2] * 5 + [3] * 5)
    q_finer = modularity(g, finer)
    assert q_found > q_single and q_found > q_finer


def test_louvain_never_below_single_block_quality():
    rng = np.random.default_rng(11)
    for trial in range(5):
        pool = [(u, v) for u in range(16) for v in range(u + 1, 16)]
        idx = rng.choice(len(pool), size=28, replace=False)
        g = Graph(16, [pool[i] for i in idx])
        state = louvain(g, seed=trial)
        assert modularity(g, state) >= modularity(
            g, np.zeros(16, dtype=int)) - 1e-12


def test_louvain_deterministic_given_seed():
    g = two_triangles()
    a = louvain(g, seed=5)
    b = louvain(g, seed=5)
    assert np.array_equal(a, b)


def test_louvain_edgeless_graph_warns_singletons():
    g = Graph(4, [])
    with pytest.warns(UserWarning):
        state = louvain(g, seed=0)
    assert state.tolist() == [0, 1, 2, 3]


def test_modularity_reads_sparse_ids_as_empty_blocks():
    dense = modularity(two_triangles(), np.array([0, 0, 0, 1, 1, 1]))
    assert modularity(two_triangles(), np.array([0, 0, 0, 5, 5, 5])) == dense
