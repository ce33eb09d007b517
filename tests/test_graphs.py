"""Oracles and property tests for graph ingestion, splitting, and sampling."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linkssl.datasets import (REGISTRY, DatasetInfo, convert_mat,
                              dataset_available, load_dataset,
                              write_edge_list)
from linkssl.graphs import (MAX_NODES, FeatureMatrix, Graph, canonical_edges,
                            load_edge_list, normalized_adjacency,
                            random_link_split, sample_negative_pairs)
from linkssl.models.losses import select_link_sets


def test_load_edge_list_dedupes_and_drops_self_loops(tmp_path):
    p = tmp_path / "tiny.txt"
    p.write_text("0 1\n1 0\n2 2\n")
    g = load_edge_list(p)
    assert g.n == 3
    assert g.edge_set() == {(0, 1)}


def test_load_edge_list_comments_and_hint(tmp_path):
    p = tmp_path / "g.txt"
    p.write_text("# a comment\n0 1\n\n1 2\n")
    g = load_edge_list(p, n_hint=10)
    assert g.n == 10
    assert g.num_edges == 2


@pytest.mark.parametrize("content", ["0\n", "0 1 2\n", "a b\n", "-1 2\n", ""])
def test_load_edge_list_rejects_malformed(tmp_path, content):
    p = tmp_path / "bad.txt"
    p.write_text(content)
    with pytest.raises(ValueError):
        load_edge_list(p)


def test_graph_invariants_enforced():
    with pytest.raises(ValueError):
        Graph(2, [(0, 5)])
    g = Graph(4, [(1, 0), (0, 1), (2, 2), (2, 3)])
    assert g.edge_set() == {(0, 1), (2, 3)}
    assert g.contains(1, 0) and not g.contains(0, 3)
    assert list(g.degrees()) == [1, 1, 1, 1]


def path_graph(k):
    return Graph(k, [(i, i + 1) for i in range(k - 1)])


def test_split_sizes_exact_fractions():
    g = Graph(20, [(i, i + 1) for i in range(10)])
    s = random_link_split(g, (0.7, 0.1, 0.2), seed=0)
    assert (len(s.train_pos), len(s.val_pos), len(s.test_pos)) == (7, 1, 2)


def test_split_sizes_floor_remainder_to_train():
    g = Graph(20, [(i, i + 1) for i in range(9)])
    s = random_link_split(g, (0.7, 0.1, 0.2), seed=1)
    # floor(0.9)=0 val, floor(1.8)=1 test, remainder 8 to train
    assert (len(s.train_pos), len(s.val_pos), len(s.test_pos)) == (8, 0, 1)


def test_split_deterministic():
    g = path_graph(30)
    a = random_link_split(g, (0.7, 0.1, 0.2), seed=42)
    b = random_link_split(g, (0.7, 0.1, 0.2), seed=42)
    assert np.array_equal(a.train_pos, b.train_pos)
    assert np.array_equal(a.val_pos, b.val_pos)
    assert np.array_equal(a.test_pos, b.test_pos)


def test_split_rejects_bad_fractions():
    g = path_graph(10)
    with pytest.raises(ValueError):
        random_link_split(g, (0.5, 0.1, 0.2), seed=0)
    with pytest.raises(ValueError):
        random_link_split(g, (1.2, -0.1, -0.1), seed=0)


@settings(max_examples=40, deadline=None)
@given(m=st.integers(3, 60), seed=st.integers(0, 2 ** 30))
def test_split_partition_property(m, seed):
    g = Graph(m + 1, [(i, i + 1) for i in range(m)])
    s = random_link_split(g, (0.7, 0.1, 0.2), seed=seed)
    parts = [set(map(tuple, p.tolist()))
             for p in (s.train_pos, s.val_pos, s.test_pos)]
    assert parts[0] | parts[1] | parts[2] == g.edge_set()
    assert not (parts[0] & parts[1] or parts[0] & parts[2]
                or parts[1] & parts[2])
    assert s.train_graph.edge_set() == parts[0]


def test_normalized_adjacency_path_constants():
    nadj = normalized_adjacency(path_graph(3)).toarray()
    # degrees with self-loops are (2, 3, 2)
    assert nadj[0, 0] == pytest.approx(0.5, abs=1e-12)
    assert nadj[0, 1] == pytest.approx(1.0 / math.sqrt(6.0), abs=1e-12)
    assert np.allclose(nadj, nadj.T)


def test_normalized_adjacency_isolated_node():
    g = Graph(1, [])
    assert np.allclose(normalized_adjacency(g).toarray(), [[1.0]])


def test_normalized_adjacency_entries_in_unit_interval():
    rng = np.random.default_rng(0)
    pool = [(u, v) for u in range(12) for v in range(u + 1, 12)]
    idx = rng.choice(len(pool), size=25, replace=False)
    g = Graph(12, [pool[i] for i in idx])
    vals = normalized_adjacency(g).data
    assert np.all(vals > 0) and np.all(vals <= 1.0)


def test_negative_sampling_only_missing_edge():
    edges = [(u, v) for u in range(4) for v in range(u + 1, 4)
             if (u, v) != (0, 3)]
    g = Graph(4, edges)
    out = sample_negative_pairs(g, 1, seed=5)
    assert out.tolist() == [[0, 3]]


def test_negative_sampling_zero_count():
    assert sample_negative_pairs(path_graph(4), 0, seed=1).shape == (0, 2)


def test_negative_sampling_infeasible_count_raises():
    g = Graph(3, [(0, 1), (1, 2), (0, 2)])
    with pytest.raises(ValueError):
        sample_negative_pairs(g, 1, seed=0)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2 ** 30), count=st.integers(1, 40))
def test_negative_sampling_exclusion_property(seed, count):
    g = Graph(20, [(i, (i + 1) % 20) for i in range(20)])
    exclude = {(0, 5), (2, 9), (3, 17)}
    out = sample_negative_pairs(g, count, exclude=exclude, seed=seed)
    seen = set(map(tuple, out.tolist()))
    assert len(seen) == count
    assert not seen & g.edge_set()
    assert not seen & exclude
    assert all(u < v for u, v in seen)


def test_negative_sampling_uniform_frequency():
    # empty 100-node graph: fixed pair frequency over trials should sit
    # within 3 sigma of count/total_pairs
    g = Graph(100, [(0, 1), (1, 2), (2, 3)])
    exclude = g.edge_set()
    trials = 20000
    count = 10
    total = 100 * 99 // 2 - len(exclude)
    hit = 0
    target = (4, 50)
    for s in range(trials):
        out = sample_negative_pairs(g, count, seed=s)
        if any((u, v) == target for u, v in out):
            hit += 1
    p = count / total
    sigma = math.sqrt(trials * p * (1 - p))
    assert abs(hit - trials * p) < 3 * sigma


def test_negative_sampling_deterministic():
    g = path_graph(15)
    a = sample_negative_pairs(g, 12, seed=9)
    b = sample_negative_pairs(g, 12, seed=9)
    assert np.array_equal(a, b)


def _reference_sample_negative_pairs(g, count, exclude=(), seed=0):
    """The sampler as a Python loop over a set of pair keys: the stream the
    vectorized one must reproduce draw for draw."""
    def key(u, v):
        return u * n + v if u < v else v * n + u

    n = g.n
    forbidden = {key(int(u), int(v)) for u, v in g.edges}
    for u, v in exclude:
        u, v = int(u), int(v)
        if u != v and 0 <= u < n and 0 <= v < n:
            forbidden.add(key(u, v))
    admissible = n * (n - 1) // 2 - len(forbidden)
    if count > admissible:
        raise ValueError("infeasible")
    if count == 0:
        return np.zeros((0, 2), dtype=np.int64)
    rng = np.random.default_rng(seed)
    if count * 2 > admissible:
        us, vs = np.triu_indices(n, k=1)
        mask = np.array([key(int(u), int(v)) not in forbidden
                         for u, v in zip(us, vs)])
        pool = np.stack([us[mask], vs[mask]], axis=1).astype(np.int64)
        return pool[rng.choice(pool.shape[0], size=count, replace=False)]
    chosen, chosen_keys = [], set()
    while len(chosen) < count:
        batch = max(count - len(chosen), 16)
        u = rng.integers(0, n, size=2 * batch)
        v = rng.integers(0, n, size=2 * batch)
        for uu, vv in zip(u, v):
            k = key(int(uu), int(vv))
            if uu == vv or k in forbidden or k in chosen_keys:
                continue
            chosen_keys.add(k)
            chosen.append((min(uu, vv), max(uu, vv)))
            if len(chosen) == count:
                break
    return np.array(chosen, dtype=np.int64)


@st.composite
def graphs_with_exclusions(draw):
    n = draw(st.integers(2, 24))
    node = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(node, node), max_size=3 * n))
    if draw(st.booleans()):
        # the complement: few non-edges, so rejection runs several rounds
        absent = {(min(u, v), max(u, v)) for u, v in edges}
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if (u, v) not in absent]
    # self-loops, out-of-range ids and duplicates are all ignored
    wild = st.integers(-2, n + 2)
    exclude = draw(st.lists(st.tuples(wild, wild), max_size=12))
    # repeat some pairs, reversed, and some edges of the graph itself
    exclude += [(v, u) for u, v in exclude[:draw(st.integers(0, 3))]]
    exclude += edges[:draw(st.integers(0, 3))]
    return Graph(n, np.array(edges, dtype=np.int64).reshape(-1, 2)), exclude


@settings(max_examples=150, deadline=None)
@given(case=graphs_with_exclusions(), dense=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1), data=st.data())
def test_negative_sampling_matches_reference_stream(case, dense, seed, data):
    g, exclude = case
    excluded = {(min(u, v), max(u, v)) for u, v in exclude
                if u != v and 0 <= min(u, v) and max(u, v) < g.n}
    admissible = g.n * (g.n - 1) // 2 - len(g.edge_set() | excluded)
    # dense: more than half of the admissible pairs are enumerated
    lo, hi = (admissible // 2 + 1, admissible) if dense else (0, admissible // 2)
    if lo > hi:
        return
    count = data.draw(st.integers(lo, hi))
    expected = _reference_sample_negative_pairs(g, count, exclude, seed)
    for given_exclude in (exclude, np.array(exclude, dtype=np.int64)):
        out = sample_negative_pairs(g, count, exclude=given_exclude,
                                    seed=seed)
        assert out.dtype == np.int64 and np.array_equal(out, expected)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 16), data=st.data(), seed=st.integers(0, 2 ** 31))
def test_select_link_sets_matches_tuple_set_reference(n, data, seed):
    pairs = st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                     max_size=2 * n)
    view1, view2 = Graph(n, data.draw(pairs)), Graph(n, data.draw(pairs))
    exclude = data.draw(st.one_of(st.none(), pairs.map(set)))
    forbidden = set(view2.edge_set())
    forbidden |= exclude or set()
    common = view1.edge_set() & view2.edge_set()
    if not common:
        expected = np.empty((0, 2), dtype=np.int64)
    else:
        try:
            expected = _reference_sample_negative_pairs(
                view1, len(common), forbidden, seed)
        except ValueError:
            with pytest.raises(ValueError):
                select_link_sets(view1, view2, seed, exclude=exclude)
            return
    pos, neg = select_link_sets(view1, view2, seed, exclude=exclude)
    assert np.array_equal(pos, np.array(sorted(common),
                                        dtype=np.int64).reshape(-1, 2))
    assert np.array_equal(neg, expected)


def _reference_canonical_edges(edges):
    arr = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    pairs = np.sort(arr, axis=1)
    return np.unique(pairs[pairs[:, 0] != pairs[:, 1]], axis=0)


@st.composite
def raw_pairs(draw):
    # a few ids, small or far apart, so pairs repeat, reverse and self-loop
    ids = draw(st.lists(st.integers(-10 ** 9, 10 ** 9), min_size=1,
                        max_size=8))
    node = st.sampled_from(ids)
    return draw(st.lists(st.tuples(node, node), max_size=30))


@settings(max_examples=100, deadline=None)
@given(pairs=raw_pairs())
def test_canonical_edges_matches_unique_reference(pairs):
    out = canonical_edges(pairs)
    expected = _reference_canonical_edges(pairs)
    assert out.dtype == np.int64 and out.shape == expected.shape
    assert np.array_equal(out, expected)


def test_pair_keys_reject_spans_that_overflow_int64():
    widest = [(0, MAX_NODES - 1)]
    assert canonical_edges(widest).tolist() == [list(widest[0])]
    with pytest.raises(ValueError, match="span"):
        canonical_edges([(-1, MAX_NODES)])
    assert Graph(MAX_NODES, [(0, MAX_NODES - 1)]).contains(MAX_NODES - 1, 0)
    with pytest.raises(ValueError, match="node count"):
        Graph(MAX_NODES + 1, [])


def test_contains_rejects_pairs_outside_the_graph():
    g = Graph(3, [(1, 2)])
    assert g.contains(2, 1)
    # 0 * 3 + 5 is the key of (1, 2): range checks come before the lookup
    assert not g.contains(0, 5) and not g.contains(-1, 1)
    assert not g.contains(1, 1)


def test_graph_keys_sorted_and_read_only():
    g = Graph(5, [(3, 4), (0, 2), (1, 0), (2, 4)])
    assert g.keys.tolist() == [1, 2, 14, 19]
    with pytest.raises(ValueError):
        g.keys[0] = 7


def _uncached_normalized_adjacency(g):
    a = np.eye(g.n)
    for u, v in g.edges:
        a[u, v] = a[v, u] = 1.0
    d = 1.0 / np.sqrt(a.sum(axis=1))
    return d[:, None] * a * d[None, :]


def test_normalized_adjacency_cached_per_graph():
    g = Graph(5, [(0, 1), (1, 2), (2, 3), (0, 4)])
    cached = normalized_adjacency(g)
    assert normalized_adjacency(g) is cached
    assert np.allclose(cached.toarray(), _uncached_normalized_adjacency(g))
    for edges in (g.edges, g.edges[:2]):
        child = g.with_edges(edges)
        assert normalized_adjacency(child) is not cached
        assert np.allclose(normalized_adjacency(child).toarray(),
                           _uncached_normalized_adjacency(child))


def test_identity_features_column_mask_semantics():
    fm = FeatureMatrix.identity(4)
    masked = FeatureMatrix(kind="identity", n_rows=4, n_cols=4,
                           column_mask=np.array([1.0, 1.0, 0.0, 1.0]))
    dense = masked.materialize()
    assert np.all(dense[:, 2] == 0.0)
    assert np.allclose(np.delete(dense, 2, axis=1),
                       np.delete(fm.materialize(), 2, axis=1))


# --- dataset registry -------------------------------------------------------


TABLE_COUNTS = {
    "USAir": (332, 4252), "NS": (1589, 5484), "PB": (1222, 33428),
    "Yeast": (2375, 23386), "Celegans": (297, 4296), "Power": (4941, 13188),
    "Router": (5022, 12516), "Ecoli": (1805, 29320),
    "cora": (2708, 10556), "citeseer": (3327, 9104),
}


def test_registry_matches_published_counts():
    for name, (n, directed) in TABLE_COUNTS.items():
        info = REGISTRY[name]
        assert info.num_nodes == n
        assert info.num_directed_edges == directed
        assert info.num_undirected_edges == directed // 2


def test_registry_split_fractions():
    assert REGISTRY["USAir"].split_fractions == (0.70, 0.10, 0.20)
    assert REGISTRY["cora"].split_fractions == (0.85, 0.05, 0.10)


def test_load_dataset_remaps_and_persists_idmap(tmp_path, monkeypatch):
    path = tmp_path / "toy.txt"
    write_edge_list(path, [(10, 30), (30, 20), (20, 10), (30, 10)])
    info = DatasetInfo("toy", "toy.txt", 3, 6)
    monkeypatch.setitem(REGISTRY, "toy", info)
    g = load_dataset("toy", root=tmp_path)
    assert g.n == 3 and g.num_edges == 3
    sidecar = tmp_path / "toy.txt.idmap"
    assert sidecar.exists()
    text = sidecar.read_text()
    assert "10 0" in text and "20 1" in text and "30 2" in text
    # reload uses the persisted map
    g2 = load_dataset("toy", root=tmp_path)
    assert g2.edge_set() == g.edge_set()


def test_load_dataset_count_mismatch_raises(tmp_path, monkeypatch):
    path = tmp_path / "toy.txt"
    write_edge_list(path, [(0, 1), (1, 2)])
    monkeypatch.setitem(REGISTRY, "toy", DatasetInfo("toy", "toy.txt", 3, 6))
    with pytest.raises(ValueError, match="expected"):
        load_dataset("toy", root=tmp_path)


def test_load_dataset_missing_file_message(tmp_path):
    with pytest.raises(FileNotFoundError, match="README"):
        load_dataset("USAir", root=tmp_path)


def test_dataset_available_predicate(tmp_path):
    assert not dataset_available("USAir", root=tmp_path)
    (tmp_path / "USAir.txt").write_text("0 1\n")
    assert dataset_available("USAir", root=tmp_path)


def test_convert_mat_roundtrip(tmp_path):
    from scipy import sparse
    from scipy.io import savemat

    adj = sparse.csr_matrix(np.array([
        [0, 1, 0, 1],
        [1, 0, 1, 0],
        [0, 1, 0, 0],
        [1, 0, 0, 0],
    ], dtype=float))
    mat_path = tmp_path / "toy.mat"
    savemat(mat_path, {"net": adj})
    out_path = tmp_path / "toy.txt"
    count = convert_mat(mat_path, out_path)
    assert count == 3
    g = load_edge_list(out_path)
    assert g.edge_set() == {(0, 1), (0, 3), (1, 2)}
