"""Graph representation, edge-list ingestion, link splitting, and sampling.

Graphs are immutable, undirected, and simple: no self-loops, no duplicate
edges, endpoints in [0, n). Edges are stored canonically as (u, v) with
u < v in lexicographic order so that identical seeds reproduce identical
byte-level results everywhere downstream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse


@dataclass(frozen=True)
class FeatureMatrix:
    """Node features: a fixed matrix X times a 0/1 column mask.

    `dense_values` is X as an (n, f) float64 array, or None for the
    identity, which is never materialized. `column_mask` (None keeps every
    column) is feature dropout: (X diag(m)) W == X (m[:, None] * W), so the
    encoder masks rows of W and X is never copied.
    """

    n_rows: int
    n_cols: int
    dense_values: np.ndarray | None = None
    column_mask: np.ndarray | None = None

    def __post_init__(self):
        if self.dense_values is None:
            if self.n_rows != self.n_cols:
                raise ValueError("identity features require d = n")
        elif self.dense_values.shape != (self.n_rows, self.n_cols):
            raise ValueError("feature shape mismatch")

    @staticmethod
    def identity(n):
        return FeatureMatrix(n_rows=n, n_cols=n)

    @staticmethod
    def dense(values):
        values = np.asarray(values, dtype=np.float64)
        return FeatureMatrix(n_rows=values.shape[0], n_cols=values.shape[1],
                             dense_values=values)


# largest node count whose pair keys u * n + v fit in int64
MAX_NODES = math.isqrt(np.iinfo(np.int64).max)


def _pairs(keys, n):
    """(m, 2) int64 node pairs (u, v) of the pair keys u * n + v."""
    pairs = np.empty((keys.size, 2), dtype=np.int64)
    np.divmod(keys, n, out=(pairs[:, 0], pairs[:, 1]))
    return pairs


class Graph:
    """Immutable undirected simple graph.

    The constructor is the one canonicalizer: it range-checks n and the raw
    pairs and keeps `keys`, the sorted distinct int64 u * n + v (u < v) of
    the non-loop pairs, which `edges` decodes; `from_keys` takes canonical
    keys as they are. The normalized adjacency is cached per dtype on
    first use.
    """

    __slots__ = ("n", "edges", "keys", "features", "_norm_adj")

    def __init__(self, n, edges, features=None):
        if not 0 <= n <= MAX_NODES:
            raise ValueError(f"node count {n} outside [0, {MAX_NODES}]")
        arr = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        if arr.size and (arr.min() < 0 or arr.max() >= n):
            raise ValueError("edge endpoint outside [0, n)")
        lo, hi = np.minimum(*arr.T), np.maximum(*arr.T)
        keep = lo != hi  # drop self-loops
        self._set(n, _sorted_unique(lo[keep] * n + hi[keep]), features)

    @classmethod
    def from_keys(cls, n, keys, features=None):
        """Graph on n nodes with `keys`, unchecked: they must be sorted,
        distinct int64 u * n + v (0 <= u < v < n), e.g. a subset of another
        n-node graph's keys. Marks `keys` read-only."""
        g = cls.__new__(cls)
        g._set(n, keys, features)
        return g

    def _set(self, n, keys, features):
        self.n = int(n)
        self.keys = keys
        self.keys.setflags(write=False)
        self.edges = _pairs(keys, self.n)
        self.edges.setflags(write=False)
        self.features = features if features is not None else FeatureMatrix.identity(n)
        if self.features.n_rows != self.n:
            raise ValueError("feature row count must equal n")
        self._norm_adj = {}

    @property
    def num_edges(self):
        return self.edges.shape[0]

    def edge_set(self):
        """The edges as a set of (u, v) tuples; built on demand, for tests."""
        return frozenset(map(tuple, self.edges.tolist()))

    def degrees(self):
        return np.bincount(self.edges.ravel(), minlength=self.n)

    def with_features(self, features):
        return Graph.from_keys(self.n, self.keys, features)

    def adjacency(self):
        """Binary adjacency as scipy CSR."""
        m = self.num_edges
        rows = np.concatenate([self.edges[:, 0], self.edges[:, 1]])
        cols = np.concatenate([self.edges[:, 1], self.edges[:, 0]])
        data = np.ones(2 * m)
        return sparse.csr_matrix((data, (rows, cols)), shape=(self.n, self.n))

    def __repr__(self):
        return f"Graph(n={self.n}, edges={self.num_edges})"


@dataclass(frozen=True)
class EdgeSplit:
    """Train/val/test partition of the edges of `graph`, which holds every
    known positive, so sampled negatives avoid it. The message-passing
    graph contains train edges only; validation and test positives are
    never added back at inference time.
    """

    graph: Graph
    train_graph: Graph
    val_pos: np.ndarray
    test_pos: np.ndarray
    seed: int

    @property
    def train_pos(self):
        return self.train_graph.edges


def read_lines(path):
    """Lines of a UTF-8 text file, streamed; undecodable bytes raise
    ValueError naming the path."""
    with open(path, encoding="utf-8") as fh:
        try:
            yield from fh
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: not UTF-8 text: {exc}") from exc


def read_edge_pairs(path):
    """Raw (u, v) rows of a whitespace-separated `read_lines` edge list.

    '#' lines and blank lines are skipped. Malformed lines and ids outside
    int64 raise ValueError naming path:line; ids are kept, negatives too.
    """
    pairs = []
    for lineno, line in enumerate(read_lines(path), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        tokens = stripped.split()
        if len(tokens) != 2:
            raise ValueError(f"{path}:{lineno}: expected two integers, "
                             f"got {stripped!r}")
        row = []
        for token in tokens:
            try:
                row.append(int(token))
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: non-integer token "
                                 f"{token!r} in {stripped!r}") from exc
            if not -2 ** 63 <= row[-1] < 2 ** 63:
                raise ValueError(f"{path}:{lineno}: id {token} outside int64")
        pairs.append(row)
    if not pairs:
        raise ValueError(f"{path}: no edges found")
    return np.array(pairs, dtype=np.int64)


def check_split_fractions(fractions):
    """`fractions` as a (train, val, test) tuple of floats, each in [0, 1]
    and summing to 1; raises ValueError naming them otherwise."""
    fr = tuple(float(f) for f in fractions)
    # a NaN fails the range comparison too
    if (len(fr) != 3 or not all(0.0 <= f <= 1.0 for f in fr)
            or abs(sum(fr) - 1.0) > 1e-9):
        raise ValueError(f"split_fractions {fr} must be 3 values in [0, 1] "
                         "summing to 1")
    return fr


def split_sizes(m, fractions):
    """(train, val, test) edge counts of a split of m edges.

    Validation and test sizes are floor(fraction * m); the remainder goes
    to train, keeping the message-passing graph maximal.
    """
    _, f_val, f_test = check_split_fractions(fractions)
    if m < 3:
        raise ValueError("graph needs at least 3 edges to split")
    n_val = math.floor(f_val * m)
    n_test = math.floor(f_test * m)
    return m - n_val - n_test, n_val, n_test


def random_link_split(g, fractions, seed):
    """Partition edges into train/val/test by uniformly shuffled assignment,
    sized by `split_sizes`."""
    n_train, n_val, _ = split_sizes(g.num_edges, fractions)
    order = np.random.default_rng(seed).permutation(g.num_edges)
    parts = np.split(order, [n_train, n_train + n_val])
    train, val, test = (Graph.from_keys(g.n, np.sort(g.keys[p]), g.features)
                        for p in parts)
    return EdgeSplit(graph=g, train_graph=train, val_pos=val.edges,
                     test_pos=test.edges, seed=int(seed))


def normalized_adjacency(g, dtype=np.float64):
    """Symmetrically normalized propagation matrix D^-1/2 (A + I) D^-1/2.

    Built once per graph in float64 and cached on it; another `dtype` is
    that matrix cast once and cached next to it, so the encoder's float32
    products read the same values without a cast per call. Callers must
    not modify it.
    """
    dtype = np.dtype(dtype)
    cached = g._norm_adj.get(dtype)
    if cached is not None:
        return cached
    if dtype != np.float64:
        cached = normalized_adjacency(g).astype(dtype)
    else:
        n, (u, v) = g.n, g.edges.T
        # both orientations and the self-loops as row-major keys r * n + c
        keys = np.sort(np.concatenate([g.keys, v * n + u,
                                       np.arange(n) * (n + 1)]))
        rows, cols = np.divmod(keys, n)
        counts = np.bincount(rows, minlength=n)  # degree + 1
        d_half = 1.0 / np.sqrt(counts)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        cached = sparse.csr_matrix(
            (d_half[rows] * d_half[cols], cols, indptr), shape=(n, n))
    g._norm_adj[dtype] = cached
    return cached


def _member(sorted_keys, keys):
    """Boolean mask: which of `keys` occur in the sorted array."""
    if sorted_keys.size == 0:
        return np.zeros(np.shape(keys), dtype=bool)
    idx = np.searchsorted(sorted_keys, keys)
    return sorted_keys[np.minimum(idx, sorted_keys.size - 1)] == keys


def _run_starts(sorted_keys):
    """Boolean mask of the first element of each run of equal keys."""
    starts = np.ones(sorted_keys.size, dtype=bool)
    starts[1:] = sorted_keys[1:] != sorted_keys[:-1]
    return starts


def _sorted_unique(keys):
    # np.unique is 7-16x slower: 179 vs 16 us on 1,300 keys (numpy 2.4.6)
    keys = np.sort(keys)
    return keys[_run_starts(keys)]


_NO_KEYS = np.zeros(0, dtype=np.int64)

# first rounds of more draws go alone: a batch would sort them slower
_BATCH_DRAWS = 1024


def _sample_pair_keys(rng, counts, rows, cols, unordered, min_draws,
                      forbidden=_NO_KEYS):
    """counts[r] >= 1 distinct keys of each disjoint range r, range by range,
    drawn from `rng` exactly as one call per range would draw them.

    Range r holds offset[r] + i * cols[r] + j for (i, j) in [0, rows[r]) x
    [0, cols[r]), i < j if unordered[r]; offset[r] sums rows * cols before r.
    Each range is uniform without replacement over its keys not in the
    sorted `forbidden`. A range needing over half of those enumerates them
    for `rng.choice`; the others draw rounds of max(min_draws, 2 * missing)
    i, then j, and accept new keys in draw order. A run of such ranges draws
    its first rounds in one array-bound `rng.integers` call, which consumes
    the stream as the scalar calls do; the generator is rewound to the first
    range of the run left short, which goes on alone.
    """
    if len(counts) == 1:  # nothing to batch: spare the per-range arrays
        return _sample_range(rng, int(counts[0]), int(rows[0]), int(cols[0]),
                             bool(unordered[0]), 0, min_draws, forbidden)
    counts, rows, cols = (np.asarray(a, dtype=np.int64)
                          for a in (counts, rows, cols))
    unordered = np.asarray(unordered, dtype=bool)
    offsets = np.cumsum(rows * cols) - rows * cols
    admissible = (np.where(unordered, rows * (rows - 1) // 2, rows * cols)
                  - np.searchsorted(forbidden, offsets + rows * cols)
                  + np.searchsorted(forbidden, offsets))
    batched = (2 * counts <= np.minimum(admissible, _BATCH_DRAWS)).tolist()
    chosen, r = [_NO_KEYS], 0
    while r < len(batched):
        end = r
        while end < len(batched) and batched[end]:
            end += 1
        if end - r > 1:
            part = slice(r, end)
            keys, short = _first_rounds(
                rng, counts[part], rows[part], cols[part], unordered[part],
                offsets[part], min_draws, forbidden)
            chosen.append(keys)
            r += short
            if r == end:
                continue
        chosen.append(_sample_range(
            rng, int(counts[r]), int(rows[r]), int(cols[r]),
            bool(unordered[r]), int(offsets[r]), min_draws, forbidden))
        r += 1
    return np.concatenate(chosen)


def _sample_range(rng, count, rows, cols, unordered, offset, min_draws,
                  forbidden):
    """One range alone, with scalar bounds."""
    size = rows * cols
    lo, hi = np.searchsorted(forbidden, [offset, offset + size])
    if 2 * count > (rows * (rows - 1) // 2 if unordered else size) - hi + lo:
        pool = np.arange(offset, offset + size, dtype=np.int64)
        if unordered:
            i, j = np.divmod(pool - offset, cols)
            pool = pool[i < j]
        pool = pool[~_member(forbidden, pool)]
        return pool[rng.choice(pool.size, size=count, replace=False)]
    chosen = []
    while count:
        draws = max(min_draws, 2 * count)
        i = rng.integers(0, rows, size=draws)
        j = rng.integers(0, cols, size=draws)
        if unordered:  # min * cols + max, as max = i + j - min
            keys = (np.minimum(i, j) * (cols - 1) + (i + j))[i != j]
        else:
            keys = i * cols + j
        chosen.append(_first_draws(keys + offset, forbidden)[:count])
        count -= chosen[-1].size
        if count:
            forbidden = np.sort(np.concatenate([forbidden, chosen[-1]]))
    return np.concatenate(chosen)


def _first_draws(keys, forbidden):
    """Each key not in `forbidden` at its first draw, in draw order."""
    keys = keys[~_member(forbidden, keys)]
    order = np.argsort(keys, kind="stable")
    return keys[np.sort(order[_run_starts(keys[order])])]


def _first_rounds(rng, counts, rows, cols, unordered, offsets, min_draws,
                  forbidden):
    """The first rounds of a run of ranges from one `rng.integers` call: the
    keys of the ranges before the first left short and that range's index
    (the run's length if none is), where `rng` is rewound to."""
    draws = np.repeat(np.maximum(min_draws, 2 * counts), 2)  # i, then j
    highs = np.repeat(np.stack([rows, cols], axis=1).ravel(), draws)
    state = rng.bit_generator.state
    drawn = rng.integers(0, highs)
    is_i = np.repeat(np.arange(draws.size) % 2 == 0, draws)
    i, j = drawn[is_i], drawn[~is_i]
    which = np.repeat(np.arange(counts.size), draws[::2])
    pair = unordered[which]
    lo = np.where(pair, np.minimum(i, j), i)  # min * cols + max when a pair
    keys = offsets[which] + lo * cols[which] + (i + j - lo)
    keys = _first_draws(keys[~pair | (i != j)], forbidden)
    which = np.searchsorted(offsets + rows * cols, keys, side="right")
    found = np.bincount(which, minlength=counts.size)
    short = int(np.append(np.flatnonzero(found < counts), counts.size)[0])
    if short < counts.size:
        rng.bit_generator.state = state
        rng.integers(0, highs[:draws[:2 * short].sum()])
    # each range keeps its first `count` keys
    rank = np.arange(keys.size) - (np.cumsum(found) - found)[which]
    return keys[(rank < counts[which]) & (which < short)], short


def sample_negative_pairs(g, count, seed=0):
    """Sample `count` distinct unordered non-edges of `g` uniformly.

    Pairs in g.edges are never returned; a caller that must avoid more
    pairs passes a graph that holds them too. Deterministic given the seed.
    Raises when fewer than `count` admissible pairs exist. Drawn as the one
    range of a `_sample_pair_keys` call, 2 * max(missing, 16) pairs per
    rejection round.
    """
    count = int(count)
    if count < 0:
        raise ValueError("count must be nonnegative")
    n = g.n
    admissible = n * (n - 1) // 2 - g.num_edges
    if count > admissible:
        raise ValueError(f"requested {count} negative pairs but only "
                         f"{admissible} non-edges exist")
    if count == 0:
        return np.zeros((0, 2), dtype=np.int64)
    keys = _sample_pair_keys(np.random.default_rng(seed), [count], [n], [n],
                             [True], min_draws=32, forbidden=g.keys)
    return _pairs(keys, n)
