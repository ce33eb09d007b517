"""Oracles and property tests for graph ingestion, splitting, and sampling."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from linkssl.datasets import (REGISTRY, DatasetInfo, convert_mat,
                              dataset_available, load_dataset,
                              write_edge_list)
from linkssl import graphs
from linkssl.augment import drop_edges
from linkssl.graphs import (MAX_NODES, FeatureMatrix, Graph,
                            normalized_adjacency, random_link_split,
                            read_edge_pairs, sample_negative_pairs,
                            split_sizes)
from linkssl.models.losses import select_link_sets


def test_read_edge_pairs_keeps_rows_as_written(tmp_path):
    p = tmp_path / "tiny.txt"
    p.write_text("0 1\n1 0\n2 2\n-1 4\n")
    assert read_edge_pairs(p).tolist() == [[0, 1], [1, 0], [2, 2], [-1, 4]]


def test_read_edge_pairs_skips_comments_and_blank_lines(tmp_path):
    p = tmp_path / "g.txt"
    p.write_text("# a comment\n0 1\n\n1 2\n")
    assert read_edge_pairs(p).tolist() == [[0, 1], [1, 2]]


@pytest.mark.parametrize("content", ["0\n", "0 1 2\n", "a b\n", ""])
def test_read_edge_pairs_rejects_malformed(tmp_path, content):
    p = tmp_path / "bad.txt"
    p.write_text(content)
    with pytest.raises(ValueError, match="bad.txt"):
        read_edge_pairs(p)


def test_read_edge_pairs_names_an_undecodable_file(tmp_path):
    p = tmp_path / "binary.txt"
    p.write_bytes(b"0 1\n\xff\xfe 2\n")
    with pytest.raises(ValueError, match="binary.txt"):
        read_edge_pairs(p)


def test_graph_invariants_enforced():
    with pytest.raises(ValueError):
        Graph(2, [(0, 5)])
    g = Graph(4, [(1, 0), (0, 1), (2, 2), (2, 3)])
    assert g.edge_set() == {(0, 1), (2, 3)}
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


@pytest.mark.parametrize("seed", range(5))
def test_split_graph_keys_are_the_union_of_its_parts(seed):
    # split.graph is what negatives avoid: its keys are exactly the sorted
    # union of the train, validation and test keys
    rng = np.random.default_rng(seed)
    g = Graph(40, rng.integers(0, 40, size=(120, 2)))
    s = random_link_split(g, (0.7, 0.1, 0.2), seed=seed)
    n = s.graph.n
    union = np.sort(np.concatenate([p[:, 0] * n + p[:, 1] for p in (
        s.train_pos, s.val_pos, s.test_pos)]))
    assert np.array_equal(s.graph.keys, union)
    assert s.train_pos is s.train_graph.edges
    assert not s.train_pos.flags.writeable


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
    union = Graph(g.n, np.concatenate([g.edges, sorted(exclude)]))
    out = sample_negative_pairs(union, count, seed=seed)
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
    # the union graph of g and the valid exclusions replays the reference's
    # stream, which drops the wild pairs itself
    union = Graph(g.n, np.concatenate(
        [g.edges, np.array(sorted(excluded), dtype=np.int64).reshape(-1, 2)]))
    out = sample_negative_pairs(union, count, seed=seed)
    assert out.dtype == np.int64 and np.array_equal(out, expected)


def _reference_one_range(rng, count, rows, cols, unordered, min_draws,
                         forbidden):
    """One range per call, as the sampler drew every range before runs of
    ranges were batched: the stream the multi-range sampler must replay."""
    total = rows * (rows - 1) // 2 if unordered else rows * cols
    if count * 2 > total - forbidden.size:
        if unordered:
            i, j = np.triu_indices(rows, k=1)
            pool = i.astype(np.int64) * cols + j
        else:
            pool = np.arange(total, dtype=np.int64)
        pool = pool[~np.isin(pool, forbidden)]
        return pool[rng.choice(pool.size, size=count, replace=False)]
    chosen = []
    missing = count
    while missing:
        draws = max(min_draws, 2 * missing)
        i = rng.integers(0, rows, size=draws)
        j = rng.integers(0, cols, size=draws)
        if unordered:
            keep = i != j
            i, j = np.minimum(i, j)[keep], np.maximum(i, j)[keep]
        keys = i * cols + j
        keys = keys[~np.isin(keys, forbidden)]
        order = np.argsort(keys, kind="stable")
        starts = np.ones(keys.size, dtype=bool)
        starts[1:] = keys[order][1:] != keys[order][:-1]
        accepted = keys[np.sort(order[starts])][:missing]
        chosen.append(accepted)
        missing -= accepted.size
        if missing:
            forbidden = np.sort(np.concatenate([forbidden, accepted]))
    return np.concatenate(chosen)


def _random_range(rng):
    """(count, rows, cols, unordered, sorted local forbidden keys): sparse
    or dense counts, up to 90% of the pairs forbidden, and a single column
    or a first round over the batch cap now and then."""
    shape = rng.integers(0, 8)
    if shape == 0:
        rows, cols, unordered = 60, 60, False  # 2 * count may pass 1,024
    else:
        unordered = bool(rng.integers(0, 2))
        rows = int(rng.integers(2 if unordered else 1, 30))
        cols = rows if unordered else (1 if shape == 1
                                       else int(rng.integers(1, 30)))
    if unordered:
        i, j = np.triu_indices(rows, k=1)
        slots = i.astype(np.int64) * cols + j
    else:
        slots = np.arange(rows * cols, dtype=np.int64)
    banned = rng.choice([0.0, 0.3, 0.6, 0.9])
    forbidden = np.sort(rng.choice(slots, size=int(banned * slots.size),
                                   replace=False))
    admissible = slots.size - forbidden.size
    if admissible == 0:
        return None
    half = admissible // 2
    count = (int(rng.integers(1, half + 1)) if half and rng.integers(0, 3)
             else int(rng.integers(half + 1, admissible + 1)))
    return count, rows, cols, unordered, forbidden


def test_multi_range_sampler_replays_one_range_calls(monkeypatch):
    first_rounds = graphs._first_rounds
    rewinds = []

    def spy(rng, counts, *args):
        keys, short = first_rounds(rng, counts, *args)
        rewinds.append(short < counts.size)
        return keys, short

    monkeypatch.setattr(graphs, "_first_rounds", spy)
    layouts = np.random.default_rng(29)
    for case in range(600):
        ranges = [r for r in (_random_range(layouts)
                              for _ in range(layouts.integers(1, 12)))
                  if r is not None]
        if not ranges:
            continue
        counts, rows, cols, unordered, local = zip(*ranges)
        min_draws = int(layouts.choice([1, 2, 16]))
        sizes = np.array(rows) * np.array(cols)
        offsets = np.cumsum(sizes) - sizes
        seed = int(layouts.integers(0, 2 ** 32))
        ref = np.random.default_rng(seed)
        expected = np.concatenate([
            offset + _reference_one_range(ref, *r[:4], min_draws, r[4])
            for offset, r in zip(offsets, ranges)])
        rng = np.random.default_rng(seed)
        out = graphs._sample_pair_keys(
            rng, counts, rows, cols, unordered, min_draws,
            forbidden=np.concatenate([o + f for o, f in zip(offsets, local)]))
        assert np.array_equal(out, expected), case
        assert rng.integers(0, 2 ** 62) == ref.integers(0, 2 ** 62), case
    assert sum(rewinds) >= 10 and len(rewinds) > sum(rewinds)


def test_array_bounds_consume_the_stream_as_scalar_calls():
    # _sample_pair_keys draws a run of ranges in one rng.integers call with
    # an array of bounds and relies on it replaying these scalar calls
    bounds = [1, 2, 41, 1589, 2 ** 40, 41, 1]
    sizes = [3, 5, 8, 13, 4, 2, 6]
    scalar = np.random.default_rng(7)
    expected = np.concatenate([scalar.integers(0, high, size=size)
                               for high, size in zip(bounds, sizes)])
    batched = np.random.default_rng(7)
    out = batched.integers(0, np.repeat(np.array(bounds, dtype=np.int64),
                                        sizes))
    message = ("numpy's array-bound rng.integers no longer replays scalar "
               "calls; graphs._sample_pair_keys relies on it")
    assert np.array_equal(out, expected), message
    assert batched.integers(0, 2 ** 62) == scalar.integers(0, 2 ** 62), message


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 16), data=st.data(), seed=st.integers(0, 2 ** 31))
def test_select_link_sets_matches_tuple_set_reference(n, data, seed):
    pairs = st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                     max_size=2 * n)
    view1, view2 = Graph(n, data.draw(pairs)), Graph(n, data.draw(pairs))
    common = view1.edge_set() & view2.edge_set()
    if not common:
        expected = np.empty((0, 2), dtype=np.int64)
    else:
        try:
            expected = _reference_sample_negative_pairs(
                view1, len(common), view2.edge_set(), seed)
        except ValueError:
            with pytest.raises(ValueError):
                select_link_sets(view1, view2, seed)
            return
    pos, neg = select_link_sets(view1, view2, seed)
    assert np.array_equal(pos, np.array(sorted(common),
                                        dtype=np.int64).reshape(-1, 2))
    assert np.array_equal(neg, expected)


def _reference_canonical_edges(edges):
    arr = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    pairs = np.sort(arr, axis=1)
    return np.unique(pairs[pairs[:, 0] != pairs[:, 1]], axis=0)


@st.composite
def raw_pairs(draw):
    # a node count, small or huge, and a few ids in [0, n), so pairs
    # repeat, reverse and self-loop
    n = draw(st.sampled_from([1, 2, 5, 40, 10 ** 9, MAX_NODES]))
    ids = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=8))
    node = st.sampled_from(ids)
    return n, draw(st.lists(st.tuples(node, node), max_size=30))


@settings(max_examples=100, deadline=None)
@given(n_pairs=raw_pairs())
def test_graph_edges_match_unique_reference(n_pairs):
    n, pairs = n_pairs
    out = Graph(n, pairs).edges
    expected = _reference_canonical_edges(pairs)
    assert out.dtype == np.int64 and out.shape == expected.shape
    assert np.array_equal(out, expected)


def test_pair_keys_reject_spans_that_overflow_int64():
    # the largest key, (n - 2) * n + n - 1, still fits int64
    top = [(0, MAX_NODES - 1), (MAX_NODES - 2, MAX_NODES - 1)]
    assert Graph(MAX_NODES, top).keys.tolist() == [
        MAX_NODES - 1, (MAX_NODES - 2) * MAX_NODES + MAX_NODES - 1]
    with pytest.raises(ValueError, match="node count"):
        Graph(MAX_NODES + 1, [])


def test_graph_keys_sorted_and_read_only():
    g = Graph(5, [(3, 4), (0, 2), (1, 0), (2, 4)])
    assert g.keys.tolist() == [1, 2, 14, 19]
    with pytest.raises(ValueError):
        g.keys[0] = 7


def test_graph_rejects_a_negative_node_count():
    with pytest.raises(ValueError, match="node count"):
        Graph(-5, [])


@pytest.mark.parametrize("loop", [(5, 5), (-1, -1)])
def test_graph_range_checks_self_loops_before_dropping_them(loop):
    with pytest.raises(ValueError, match="outside"):
        Graph(3, [(0, 1), loop])


def _assert_canonical(edges, pairs, n, keys=None):
    """`edges` (and `keys`) equal Graph(n, pairs)'s and are read-only."""
    expected = Graph(n, np.asarray(pairs, dtype=np.int64).reshape(-1, 2))
    assert edges.dtype == np.int64 and np.array_equal(edges, expected.edges)
    assert not edges.flags.writeable
    if keys is not None:
        assert keys.dtype == np.int64 and np.array_equal(keys, expected.keys)
        assert not keys.flags.writeable


@settings(max_examples=300, deadline=None)
@given(n=st.integers(2, 30), data=st.data(), seed=st.integers(0, 2 ** 31))
def test_derived_graphs_equal_their_canonicalized_pairs(n, data, seed):
    pairs = st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                     max_size=3 * n)
    g = Graph(n, data.draw(pairs))
    for p in (0.3, 0.7):
        keep = np.random.default_rng(seed).random(g.num_edges) >= p
        view = drop_edges(g, p, seed)
        _assert_canonical(view.edges, g.edges[keep], n, view.keys)
    masked = g.with_features(FeatureMatrix.dense(np.ones((n, 2))))
    _assert_canonical(masked.edges, g.edges, n, masked.keys)
    other = Graph(n, data.draw(pairs))
    pos, _ = select_link_sets(g, other)
    _assert_canonical(pos, sorted(g.edge_set() & other.edge_set()), n)
    if g.num_edges < 3:
        return
    fractions = (0.6, 0.2, 0.2)
    s = random_link_split(g, fractions, seed)
    n_train, n_val, _ = split_sizes(g.num_edges, fractions)
    order = np.random.default_rng(seed).permutation(g.num_edges)
    train, val, test = np.split(g.edges[order], [n_train, n_train + n_val])
    _assert_canonical(s.train_graph.edges, train, n, s.train_graph.keys)
    _assert_canonical(s.val_pos, val, n)
    _assert_canonical(s.test_pos, test, n)


def _uncached_normalized_adjacency(g):
    a = np.eye(g.n)
    for u, v in g.edges:
        a[u, v] = a[v, u] = 1.0
    d = 1.0 / np.sqrt(a.sum(axis=1))
    return d[:, None] * a * d[None, :]


def _composed_normalized_adjacency(g):
    # the sparse composition normalized_adjacency replaced, kept as its
    # reference: scaled A + I, two sparse products and tocsr()
    a_tilde = g.adjacency() + sparse.identity(g.n, format="csr")
    d_half = sparse.diags(1.0 / np.sqrt(np.asarray(a_tilde.sum(axis=1))
                                        .reshape(-1)))
    return (d_half @ a_tilde @ d_half).tocsr()


@pytest.mark.parametrize("n, m", [(0, 0), (1, 0), (7, 3), (90, 400),
                                  (332, 2126)])
def test_normalized_adjacency_keeps_the_composed_bytes(n, m):
    rng = np.random.default_rng(n + m)
    g = Graph(n, rng.integers(0, max(n, 1), size=(m, 2)))
    got, want = normalized_adjacency(g), _composed_normalized_adjacency(g)
    for name in ("indptr", "indices", "data"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    x = rng.normal(size=(n, 5)).astype(np.float32)
    for transpose in (False, True):
        a, b = got.astype(np.float32), want.astype(np.float32)
        if transpose:
            a, b = a.T, b.T
        assert (a @ x).tobytes() == (b @ x).tobytes()


def test_normalized_adjacency_cached_per_graph():
    g = Graph(5, [(0, 1), (1, 2), (2, 3), (0, 4)])
    cached = normalized_adjacency(g)
    assert normalized_adjacency(g) is cached
    assert np.allclose(cached.toarray(), _uncached_normalized_adjacency(g))
    for edges in (g.edges, g.edges[:2]):
        child = Graph(g.n, edges)
        assert normalized_adjacency(child) is not cached
        assert np.allclose(normalized_adjacency(child).toarray(),
                           _uncached_normalized_adjacency(child))


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
    g2 = load_dataset("toy", root=tmp_path)
    assert g2.edge_set() == g.edge_set()
    # the id map is recomputed from the file; nothing is written beside it
    assert [p.name for p in tmp_path.iterdir()] == ["toy.txt"]
    # ids 10/20/30 map to 0/1/2 in ascending order, not in order of
    # appearance: a star centred on 10 keeps its centre at 0
    star = tmp_path / "star"
    star.mkdir()
    write_edge_list(star / "toy.txt", [(30, 10), (10, 20)])
    monkeypatch.setitem(REGISTRY, "toy", DatasetInfo("toy", "toy.txt", 3, 4))
    assert load_dataset("toy", root=star).edge_set() == {(0, 1), (0, 2)}


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
    assert read_edge_pairs(out_path).tolist() == [[0, 1], [0, 3], [1, 2]]


def test_convert_mat_reads_the_symmetrized_nonzero_pattern(tmp_path):
    # (1, 0) and (2, 1) are stored below the diagonal only, (0, 2) is an
    # explicitly stored zero and (3, 3) a self-loop
    from scipy import sparse
    from scipy.io import savemat

    adj = sparse.csc_matrix(
        ([1.0, 1.0, 0.0, 1.0], ([1, 2, 0, 3], [0, 1, 2, 3])), shape=(4, 4))
    assert adj.nnz == 4
    mat_path = tmp_path / "lower.mat"
    savemat(mat_path, {"net": adj})
    out_path = tmp_path / "lower.txt"
    assert convert_mat(mat_path, out_path) == 2
    assert read_edge_pairs(out_path).tolist() == [[0, 1], [1, 2]]
