"""Microcanonical SBM fitting and sampling oracles."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linkssl.augment import AugmentationSpec, make_views
from linkssl.community import louvain, modularity
from linkssl.graphs import Graph
from linkssl.sbm import BlockEdgeCounts, fit_block_counts, sample_sbm


def triangle():
    return Graph(3, [(0, 1), (1, 2), (0, 2)])


def two_triangles_bridge():
    return Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)])


def test_fit_triangle_single_block():
    b = np.zeros(3, dtype=int)
    c = fit_block_counts(triangle(), b)
    assert c.counts.tolist() == [[3]]
    assert c.total_edges == 3


def test_fit_two_triangles_with_bridge():
    b = np.array([0, 0, 0, 1, 1, 1])
    c = fit_block_counts(two_triangles_bridge(), b)
    assert c.counts.tolist() == [[3, 1], [1, 3]]


def test_fit_k4_split_in_half():
    g = Graph(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
    b = np.array([0, 0, 1, 1])
    c = fit_block_counts(g, b)
    assert c.counts.tolist() == [[1, 4], [4, 1]]


def test_fit_reads_unused_ids_as_empty_blocks():
    c = fit_block_counts(two_triangles_bridge(), np.array([3, 3, 3, 0, 0, 0]))
    assert c.num_blocks == 4
    assert c.block_sizes.tolist() == [3, 0, 0, 3]
    assert [m.tolist() for m in c.members] == [[3, 4, 5], [], [], [0, 1, 2]]
    assert c.counts.tolist() == [[3, 0, 0, 1], [0, 0, 0, 0], [0, 0, 0, 0],
                                 [1, 0, 0, 3]]


@pytest.mark.parametrize("read", [fit_block_counts, modularity])
@pytest.mark.parametrize("assignment, message", [
    (np.array([0, 0, 0, 1, 1]), "one block id per node of g"),
    (np.zeros((6, 1), dtype=int), "one block id per node of g"),
    (np.array([0, 0, 0, 1, 1, -1]), "nonnegative"),
])
def test_partition_readers_reject_a_malformed_assignment(read, assignment,
                                                         message):
    with pytest.raises(ValueError, match=message):
        read(two_triangles_bridge(), assignment)


def test_counts_validation_rejects_overfull_blocks():
    with pytest.raises(ValueError):
        BlockEdgeCounts(num_blocks=1, block_sizes=np.array([3]),
                        counts=np.array([[4]]),
                        members=(np.array([0, 1, 2]),), n=3)
    with pytest.raises(ValueError):
        BlockEdgeCounts(num_blocks=2, block_sizes=np.array([2, 2]),
                        counts=np.array([[0, 5], [5, 0]]),
                        members=(np.array([0, 1]), np.array([2, 3])), n=4)


def test_sample_forced_triangle():
    b = np.zeros(3, dtype=int)
    c = fit_block_counts(triangle(), b)
    for seed in range(5):
        assert sample_sbm(c, seed).edge_set() == triangle().edge_set()


def test_sample_forced_complete_bipartite():
    c = BlockEdgeCounts(num_blocks=2, block_sizes=np.array([2, 3]),
                        counts=np.array([[0, 6], [6, 0]]),
                        members=(np.array([0, 1]), np.array([2, 3, 4])), n=5)
    g = sample_sbm(c, seed=3)
    expected = {(u, v) for u in (0, 1) for v in (2, 3, 4)}
    assert g.edge_set() == expected


def test_sample_preserves_counts_exactly_over_1000_seeds():
    g = two_triangles_bridge()
    b = np.array([0, 0, 0, 1, 1, 1])
    c = fit_block_counts(g, b)
    for seed in range(1000):
        sample = sample_sbm(c, seed)
        refit = fit_block_counts(sample, b)
        assert np.array_equal(refit.counts, c.counts)
        assert sample.num_edges == c.total_edges


def test_sample_uniform_over_admissible_pairs():
    # one edge inside a 4-node block: each of the 6 slots equally likely
    c = BlockEdgeCounts(num_blocks=1, block_sizes=np.array([4]),
                        counts=np.array([[1]]),
                        members=(np.arange(4),), n=4)
    trials = 60000
    freq = {}
    for seed in range(trials):
        (edge,) = sample_sbm(c, seed).edge_set()
        freq[edge] = freq.get(edge, 0) + 1
    assert len(freq) == 6
    p = 1.0 / 6.0
    sigma = math.sqrt(trials * p * (1 - p))
    for edge, count in freq.items():
        assert abs(count - trials * p) < 3 * sigma, (edge, count)


def sbm_views(g, seed, kind="sbm2", b=None):
    """make_views' SBM views under a Louvain partition of g."""
    b = louvain(g, seed=0) if b is None else b
    return make_views(g, AugmentationSpec(kind=kind),
                      b=fit_block_counts(g, b), seed=seed)


def test_sbm_augment_forced_on_two_triangles():
    g = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    for out in sbm_views(g, seed=0):
        assert out.edge_set() == g.edge_set()


def test_sbm_augment_preserves_edge_count():
    rng = np.random.default_rng(0)
    pool = [(u, v) for u in range(15) for v in range(u + 1, 15)]
    idx = rng.choice(len(pool), size=40, replace=False)
    g = Graph(15, [pool[i] for i in idx])
    for seed in range(10):
        for out in sbm_views(g, seed=seed):
            assert out.num_edges == g.num_edges


def test_sbm_augment_usually_changes_the_graph():
    clique_a = [(u, v) for u in range(10) for v in range(u + 1, 10)]
    clique_b = [(u + 10, v + 10) for u, v in clique_a]
    g = Graph(20, clique_a + clique_b + [(0, 10)])
    b = louvain(g, seed=0)
    assert b.max() == 1
    changed = sum(sbm_views(g, s, "sbm", b)[1].edge_set() != g.edge_set()
                  for s in range(1000))
    # blocks = the two cliques, so the only free slot is the bridge:
    # P(change) = 99/100 exactly; allow a 3 sigma binomial band around 990
    sigma = math.sqrt(1000 * 0.99 * 0.01)
    assert changed >= 990 - 3 * sigma


def test_sbm_augment_carries_features():
    g = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    for out in sbm_views(g, seed=1):
        assert out.features is g.features


def test_sample_deterministic():
    g = two_triangles_bridge()
    c = fit_block_counts(g, louvain(g, seed=0))
    a = sample_sbm(c, seed=17)
    b2 = sample_sbm(c, seed=17)
    assert a.edge_set() == b2.edge_set()


def _reference_sample_intra(members, k, rng):
    """The per-block tuple-set loop the vectorized sampler must reproduce."""
    size = len(members)
    slots = size * (size - 1) // 2
    if k == 0:
        return []
    if k * 2 > slots:
        us, vs = np.triu_indices(size, k=1)
        idx = rng.choice(slots, size=k, replace=False)
        return [(int(members[us[t]]), int(members[vs[t]])) for t in idx]
    chosen = set()
    while len(chosen) < k:
        m = max(16, 2 * (k - len(chosen)))
        i = rng.integers(0, size, size=m)
        j = rng.integers(0, size, size=m)
        lo = np.minimum(i, j)
        hi = np.maximum(i, j)
        for a, b in zip(lo[lo != hi], hi[lo != hi]):
            chosen.add((int(a), int(b)))
            if len(chosen) == k:
                break
    return [(int(members[i]), int(members[j])) for i, j in sorted(chosen)]


def _reference_sample_inter(members_r, members_s, k, rng):
    a, b = len(members_r), len(members_s)
    slots = a * b
    if k == 0:
        return []
    if k * 2 > slots:
        idx = rng.choice(slots, size=k, replace=False)
        return [(int(members_r[t // b]), int(members_s[t % b])) for t in idx]
    chosen = set()
    while len(chosen) < k:
        m = max(16, 2 * (k - len(chosen)))
        i = rng.integers(0, a, size=m)
        j = rng.integers(0, b, size=m)
        for ii, jj in zip(i, j):
            chosen.add((int(ii), int(jj)))
            if len(chosen) == k:
                break
    return [(int(members_r[i]), int(members_s[j])) for i, j in sorted(chosen)]


def _reference_sample_sbm(c, seed):
    rng = np.random.default_rng(seed)
    edges = []
    for r in range(c.num_blocks):
        edges.extend(_reference_sample_intra(c.members[r],
                                             int(c.counts[r, r]), rng))
        for s in range(r + 1, c.num_blocks):
            edges.extend(_reference_sample_inter(c.members[r], c.members[s],
                                                 int(c.counts[r, s]), rng))
    return Graph(c.n, np.array(edges, dtype=np.int64).reshape(-1, 2))


@st.composite
def block_counts(draw):
    """Random partitions (empty blocks allowed, members in any order) with
    zero, sparse, dense and full counts for each block pair."""
    n = draw(st.integers(1, 40))
    num_blocks = draw(st.integers(1, 6))
    assignment = np.array(draw(st.lists(st.integers(0, num_blocks - 1),
                                        min_size=n, max_size=n)))
    shuffle = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    members = tuple(shuffle.permutation(np.flatnonzero(assignment == r))
                    for r in range(num_blocks))
    sizes = np.array([mm.size for mm in members], dtype=np.int64)
    counts = np.zeros((num_blocks, num_blocks), dtype=np.int64)
    for r in range(num_blocks):
        for s in range(r, num_blocks):
            slots = (int(sizes[r] * (sizes[r] - 1) // 2) if r == s
                     else int(sizes[r] * sizes[s]))
            regime = draw(st.sampled_from(["zero", "sparse", "dense", "any"]))
            lo, hi = {"zero": (0, 0), "sparse": (1, slots // 2),
                      "dense": (slots // 2 + 1, slots),
                      "any": (0, slots)}[regime]
            k = draw(st.integers(lo, hi)) if lo <= hi else 0
            counts[r, s] = counts[s, r] = k
    return BlockEdgeCounts(num_blocks=num_blocks, block_sizes=sizes,
                           counts=counts, members=members, n=n)


@settings(max_examples=300, deadline=None)
@given(c=block_counts(), seed=st.integers(0, 2 ** 32 - 1))
def test_sample_matches_reference_stream(c, seed):
    expected = _reference_sample_sbm(c, seed)
    out = sample_sbm(c, seed)
    assert np.array_equal(out.edges, expected.edges)
    assert out.num_edges == c.total_edges


@settings(max_examples=100, deadline=None)
@given(c=block_counts())
def test_assignment_inverts_the_members(c):
    expected = np.empty(c.n, dtype=np.int64)
    for r, members in enumerate(c.members):
        expected[members] = r
    assert np.array_equal(c.assignment(), expected)


def test_sample_matches_reference_on_louvain_fit():
    # a sparse graph with many blocks: most block pairs hold no edges
    rng = np.random.default_rng(5)
    g = Graph(300, rng.integers(0, 300, size=(450, 2)))
    c = fit_block_counts(g, louvain(g, seed=0))
    assert c.num_blocks > 10 and (np.triu(c.counts) == 0).any()
    for seed in range(10):
        assert np.array_equal(sample_sbm(c, seed).edges,
                              _reference_sample_sbm(c, seed).edges)


def _pinned_counts():
    """32 blocks from 1 to 13 nodes, members in ascending order; each block
    pair empty, sparse (rejection), dense (enumeration) or full. Pairs of
    1- and 2-node blocks hold 1 or 2 node pairs, so any edge they hold is
    drawn by enumeration."""
    rng = np.random.default_rng(2024)
    sizes = np.array([1, 1, 1, 2, 2, 2, 3, 4] + [5, 6, 8, 13] * 6)
    assignment = rng.permutation(np.repeat(np.arange(sizes.size), sizes))
    members = tuple(np.flatnonzero(assignment == r) for r in range(sizes.size))
    slots = np.outer(sizes, sizes)
    np.fill_diagonal(slots, sizes * (sizes - 1) // 2)
    fraction = np.choose(rng.integers(0, 4, size=slots.shape),
                         [0.0, 0.2, 0.7, 1.0])
    counts = np.triu(np.floor(fraction * slots).astype(np.int64))
    counts = counts + np.triu(counts, 1).T
    return BlockEdgeCounts(num_blocks=sizes.size, block_sizes=sizes,
                           counts=counts, members=members, n=int(sizes.sum()))


def test_sample_stream_is_pinned():
    # recorded when every block pair was drawn and mapped on its own
    c = _pinned_counts()
    assert (c.num_blocks, c.total_edges) == (32, 9530)
    digest = hashlib.sha256()
    for seed in range(20):
        digest.update(sample_sbm(c, seed).edges.tobytes())
    assert digest.hexdigest()[:16] == "1989d47715de8816"


def test_counts_validation_rejects_negative_counts():
    with pytest.raises(ValueError, match="nonnegative"):
        BlockEdgeCounts(num_blocks=2, block_sizes=np.array([2, 2]),
                        counts=np.array([[0, -1], [-1, 0]]),
                        members=(np.array([0, 1]), np.array([2, 3])), n=4)


def test_counts_validation_names_the_first_overfull_pair():
    members = (np.array([0, 1]), np.array([2, 3]), np.array([4]))
    with pytest.raises(ValueError, match=r"pair \(0,2\)"):
        BlockEdgeCounts(num_blocks=3, block_sizes=np.array([2, 2, 1]),
                        counts=np.array([[1, 0, 3], [0, 2, 0], [3, 0, 0]]),
                        members=members, n=5)


@pytest.mark.parametrize("fields, message", [
    # sizes that contradict two 2-node blocks
    ({"block_sizes": np.array([4, 4])}, "block_sizes"),
    # one block declared, two member arrays
    ({"num_blocks": 1, "block_sizes": np.array([2]),
      "counts": np.array([[0]])}, "members must hold num_blocks"),
    # a member id outside [0, n)
    ({"members": (np.array([0, 1]), np.array([2, 7]))}, r"\[0, n=4\)"),
    # a node in two blocks, another in none
    ({"members": (np.array([0, 1]), np.array([1, 2]))}, r"\[0, n=4\)"),
])
def test_counts_validation_rejects_members_that_contradict_fields(fields,
                                                                  message):
    base = {"num_blocks": 2, "block_sizes": np.array([2, 2]),
            "counts": np.array([[1, 0], [0, 1]]),
            "members": (np.array([0, 1]), np.array([2, 3])), "n": 4}
    with pytest.raises(ValueError, match=message):
        BlockEdgeCounts(**{**base, **fields})
