"""Graph representation, edge-list ingestion, link splitting, and sampling.

Graphs are immutable, undirected, and simple: no self-loops, no duplicate
edges, endpoints in [0, n). Edges are stored canonically as (u, v) with
u < v in lexicographic order so that identical seeds reproduce identical
byte-level results everywhere downstream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse


@dataclass(frozen=True)
class FeatureMatrix:
    """Node features: a dense matrix or an implicit identity.

    The identity kind never materializes the n x n matrix; column masking
    (feature dropout) is represented by `column_mask`, exploiting
    (I * diag(mask)) @ W == mask[:, None] * W in the encoder.
    """

    kind: str  # "identity" | "dense"
    n_rows: int
    n_cols: int
    dense_values: np.ndarray | None = None
    column_mask: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in ("identity", "dense"):
            raise ValueError(f"unknown feature kind {self.kind!r}")
        if self.kind == "identity" and self.n_rows != self.n_cols:
            raise ValueError("identity features require d = n")
        if self.kind == "dense":
            if self.dense_values is None:
                raise ValueError("dense features require values")
            if self.dense_values.shape != (self.n_rows, self.n_cols):
                raise ValueError("feature shape mismatch")

    @staticmethod
    def identity(n):
        return FeatureMatrix(kind="identity", n_rows=n, n_cols=n)

    @staticmethod
    def dense(values):
        values = np.asarray(values, dtype=np.float64)
        return FeatureMatrix(kind="dense", n_rows=values.shape[0],
                             n_cols=values.shape[1], dense_values=values)

    def materialize(self):
        """Dense ndarray view of the features (identity kinds allocate here)."""
        if self.kind == "dense":
            return self.dense_values
        eye = np.eye(self.n_rows)
        if self.column_mask is not None:
            eye = eye * self.column_mask[np.newaxis, :]
        return eye


# largest node count (and id span) whose pair keys u * n + v fit in int64
MAX_NODES = math.isqrt(np.iinfo(np.int64).max)


def canonical_edges(edges):
    """Sorted (m, 2) int64 array of unordered pairs with u < v, deduplicated."""
    arr = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    lo = np.minimum(arr[:, 0], arr[:, 1])
    hi = np.maximum(arr[:, 0], arr[:, 1])
    keep = lo != hi  # drop self-loops
    lo, hi = lo[keep], hi[keep]
    if lo.size == 0:
        return np.zeros((0, 2), dtype=np.int64)
    # sort and deduplicate as pair keys, offset so every id is nonnegative
    base = lo.min()
    width = hi.max() - base + 1
    if width > MAX_NODES:
        raise ValueError(f"node ids span {width} values; at most "
                         f"{MAX_NODES} fit int64 pair keys")
    keys = _sorted_unique((lo - base) * width + (hi - base))
    return np.stack([keys // width + base, keys % width + base], axis=1)


class Graph:
    """Immutable undirected simple graph.

    Edge identity is `keys`: the sorted int64 array of u * n + v (u < v),
    one per edge, searched by bisection. Its normalized adjacency is
    computed on first use and cached.
    """

    __slots__ = ("n", "edges", "keys", "features", "_norm_adj")

    def __init__(self, n, edges, features=None, _skip_canonicalize=False):
        edges = (np.asarray(edges, dtype=np.int64).reshape(-1, 2)
                 if _skip_canonicalize else canonical_edges(edges))
        if edges.size and (edges.min() < 0 or edges.max() >= n):
            raise ValueError("edge endpoint outside [0, n)")
        if n > MAX_NODES:
            raise ValueError(f"node count {n} exceeds {MAX_NODES}")
        self.n = int(n)
        self.edges = edges
        self.edges.setflags(write=False)
        # canonical edges are lexicographically sorted, so the keys are too
        self.keys = edges[:, 0] * self.n + edges[:, 1]
        self.keys.setflags(write=False)
        self.features = features if features is not None else FeatureMatrix.identity(n)
        if self.features.n_rows != self.n:
            raise ValueError("feature row count must equal n")
        self._norm_adj = None

    @property
    def num_edges(self):
        return self.edges.shape[0]

    def contains(self, u, v):
        if u > v:
            u, v = v, u
        if not 0 <= u < v < self.n:
            return False
        return bool(_member(self.keys, np.int64(u) * self.n + v))

    def edge_set(self):
        """The edges as a set of (u, v) tuples; built on demand, for tests."""
        return frozenset(map(tuple, self.edges.tolist()))

    def degrees(self):
        deg = np.zeros(self.n, dtype=np.int64)
        if self.edges.size:
            np.add.at(deg, self.edges[:, 0], 1)
            np.add.at(deg, self.edges[:, 1], 1)
        return deg

    def with_edges(self, edges):
        """Same node set and features, different edge set."""
        return Graph(self.n, edges, features=self.features)

    def with_features(self, features):
        return Graph(self.n, self.edges, features=features,
                     _skip_canonicalize=True)

    def adjacency(self):
        """Binary adjacency as scipy CSR."""
        m = self.num_edges
        if m == 0:
            return sparse.csr_matrix((self.n, self.n))
        rows = np.concatenate([self.edges[:, 0], self.edges[:, 1]])
        cols = np.concatenate([self.edges[:, 1], self.edges[:, 0]])
        data = np.ones(2 * m)
        return sparse.csr_matrix((data, (rows, cols)), shape=(self.n, self.n))

    def __repr__(self):
        return f"Graph(n={self.n}, edges={self.num_edges})"


@dataclass(frozen=True)
class EdgeSplit:
    """Train/val/test partition of a graph's edges.

    The message-passing graph contains train edges only; validation and
    test positives are never added back at inference time.
    """

    train_graph: Graph
    train_pos: np.ndarray
    val_pos: np.ndarray
    test_pos: np.ndarray
    seed: int

    def known_graph(self):
        """The train graph with every known positive (train, val and test)
        added as an edge: the pairs that sampled negatives must avoid."""
        return self.train_graph.with_edges(np.concatenate(
            [self.train_graph.edges, self.train_pos, self.val_pos,
             self.test_pos]))


def read_edge_pairs(path):
    """Raw (u, v) rows of a whitespace-separated edge-list file, with the
    1-based line number of each row.

    '#' lines and blank lines are skipped. Malformed lines raise ValueError
    naming path:line; ids are kept as written, negatives included.
    """
    pairs, linenos = [], []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            tokens = stripped.split()
            if len(tokens) != 2:
                raise ValueError(f"{path}:{lineno}: expected two node ids, "
                                 f"got {stripped!r}")
            try:
                pairs.append((int(tokens[0]), int(tokens[1])))
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: non-integer node id "
                                 f"in {stripped!r}") from exc
            linenos.append(lineno)
    if not pairs:
        raise ValueError(f"{path}: no edges found")
    return np.array(pairs, dtype=np.int64), linenos


def load_edge_list(path, n_hint=None):
    """Parse a whitespace-separated "u v" edge-list file into a Graph.

    '#' lines are comments. Self-loops are dropped, duplicate and reversed
    pairs deduplicated. Node count is max id + 1, or n_hint if larger.
    """
    raw, linenos = read_edge_pairs(path)
    negative = np.flatnonzero(raw.min(axis=1) < 0)
    if negative.size:
        raise ValueError(f"{path}:{linenos[negative[0]]}: negative node id")
    edges = canonical_edges(raw)
    n = int(raw.max()) + 1
    if n_hint is not None:
        n = max(n, int(n_hint))
    return Graph(n, edges)


def split_sizes(m, fractions):
    """(train, val, test) edge counts of a split of m edges.

    Validation and test sizes are floor(fraction * m); the remainder goes
    to train, keeping the message-passing graph maximal.
    """
    f_train, f_val, f_test = fractions
    if min(f_train, f_val, f_test) < 0:
        raise ValueError("fractions must be nonnegative")
    if abs(f_train + f_val + f_test - 1.0) > 1e-9:
        raise ValueError("fractions must sum to 1")
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
    shuffled = g.edges[order]
    train_pos = canonical_edges(shuffled[:n_train])
    val_pos = canonical_edges(shuffled[n_train:n_train + n_val])
    test_pos = canonical_edges(shuffled[n_train + n_val:])
    train_graph = g.with_edges(train_pos)
    for arr in (train_pos, val_pos, test_pos):
        arr.setflags(write=False)
    return EdgeSplit(train_graph=train_graph, train_pos=train_pos,
                     val_pos=val_pos, test_pos=test_pos, seed=int(seed))


def normalized_adjacency(g):
    """Symmetrically normalized propagation matrix D^-1/2 (A + I) D^-1/2.

    Computed once per graph and cached on it; callers must not modify it.
    """
    if g._norm_adj is None:
        a_tilde = g.adjacency() + sparse.identity(g.n, format="csr")
        deg = np.asarray(a_tilde.sum(axis=1)).reshape(-1)
        d_half = sparse.diags(1.0 / np.sqrt(deg))
        g._norm_adj = (d_half @ a_tilde @ d_half).tocsr()
    return g._norm_adj


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
    keys = np.sort(keys)
    return keys[_run_starts(keys)]


def _exclude_keys(exclude, n):
    """Keys of the valid pairs in `exclude` (any iterable of (u, v));
    self-loops and pairs with an endpoint outside [0, n) are dropped."""
    pairs = np.asarray(exclude if isinstance(exclude, np.ndarray)
                       else list(exclude), dtype=np.int64).reshape(-1, 2)
    lo = pairs.min(axis=1)
    hi = pairs.max(axis=1)
    valid = (lo != hi) & (lo >= 0) & (hi < n)
    return lo[valid] * n + hi[valid]


def sample_negative_pairs(g, count, exclude=(), seed=0):
    """Sample `count` distinct unordered non-edges uniformly at random.

    Pairs in g.edges or in `exclude` are never returned. Deterministic
    given the seed. Raises when fewer than `count` admissible pairs exist.

    Rejection sampling draws 2 * max(missing, 16) candidate pairs per
    round and accepts them in draw order, each if it is not forbidden and
    not yet chosen; the scan is vectorized per round. When more than half
    of the admissible pairs are needed, they are enumerated instead.
    """
    count = int(count)
    if count < 0:
        raise ValueError("count must be nonnegative")
    n = g.n
    forbidden = g.keys
    extra = _exclude_keys(exclude, n)
    if extra.size:
        forbidden = _sorted_unique(np.concatenate([forbidden, extra]))
    total = n * (n - 1) // 2
    admissible = total - forbidden.size
    if count > admissible:
        raise ValueError(f"requested {count} negative pairs but only "
                         f"{admissible} non-edges exist")
    if count == 0:
        return np.zeros((0, 2), dtype=np.int64)

    rng = np.random.default_rng(seed)
    if count * 2 > admissible:
        # dense regime: enumerate every admissible pair and choose directly
        us, vs = np.triu_indices(n, k=1)
        mask = ~_member(forbidden, us.astype(np.int64) * n + vs)
        pool = np.stack([us[mask], vs[mask]], axis=1).astype(np.int64)
        idx = rng.choice(pool.shape[0], size=count, replace=False)
        return pool[idx]

    chosen = []
    missing = count
    while missing:
        batch = max(missing, 16)
        u = rng.integers(0, n, size=2 * batch)
        v = rng.integers(0, n, size=2 * batch)
        keys = np.minimum(u, v) * n + np.maximum(u, v)
        candidates = np.flatnonzero((u != v) & ~_member(forbidden, keys))
        # the first draw of each key in the round, in draw order
        order = np.argsort(keys[candidates], kind="stable")
        first = _run_starts(keys[candidates[order]])
        accepted = keys[np.sort(candidates[order[first]])][:missing]
        chosen.append(accepted)
        missing -= accepted.size
        if missing:
            forbidden = np.sort(np.concatenate([forbidden, accepted]))
    keys = np.concatenate(chosen)
    return np.stack([keys // n, keys % n], axis=1)
