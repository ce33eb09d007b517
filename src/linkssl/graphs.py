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


def canonical_edges(edges):
    """Sorted (m, 2) int64 array of unordered pairs with u < v, deduplicated."""
    arr = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    if arr.shape[0] == 0:
        return arr
    lo = np.minimum(arr[:, 0], arr[:, 1])
    hi = np.maximum(arr[:, 0], arr[:, 1])
    keep = lo != hi  # drop self-loops
    stacked = np.stack([lo[keep], hi[keep]], axis=1)
    if stacked.shape[0] == 0:
        return stacked
    return np.unique(stacked, axis=0)


class Graph:
    """Immutable undirected simple graph with O(1) expected edge lookup."""

    __slots__ = ("n", "edges", "features", "_edge_set")

    def __init__(self, n, edges, features=None, _skip_canonicalize=False):
        edges = (np.asarray(edges, dtype=np.int64).reshape(-1, 2)
                 if _skip_canonicalize else canonical_edges(edges))
        if edges.size and (edges.min() < 0 or edges.max() >= n):
            raise ValueError("edge endpoint outside [0, n)")
        self.n = int(n)
        self.edges = edges
        self.edges.setflags(write=False)
        self.features = features if features is not None else FeatureMatrix.identity(n)
        if self.features.n_rows != self.n:
            raise ValueError("feature row count must equal n")
        self._edge_set = frozenset(map(tuple, edges.tolist()))

    @property
    def num_edges(self):
        return self.edges.shape[0]

    def contains(self, u, v):
        if u > v:
            u, v = v, u
        return (u, v) in self._edge_set

    def edge_set(self):
        return self._edge_set

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

    def all_positive_set(self):
        parts = [p for p in (self.train_pos, self.val_pos, self.test_pos)
                 if p.size]
        if not parts:
            return frozenset()
        return frozenset(map(tuple, np.concatenate(parts).tolist()))


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
    """Symmetrically normalized propagation matrix D^-1/2 (A + I) D^-1/2."""
    a_tilde = g.adjacency() + sparse.identity(g.n, format="csr")
    deg = np.asarray(a_tilde.sum(axis=1)).reshape(-1)
    inv_sqrt = 1.0 / np.sqrt(deg)
    d_half = sparse.diags(inv_sqrt)
    return (d_half @ a_tilde @ d_half).tocsr()


def _pair_key(u, v, n):
    return u * n + v if u < v else v * n + u


def sample_negative_pairs(g, count, exclude=(), seed=0):
    """Sample `count` distinct unordered non-edges uniformly at random.

    Pairs in g.edges or in `exclude` are never returned. Deterministic
    given the seed. Raises when fewer than `count` admissible pairs exist.
    """
    count = int(count)
    if count < 0:
        raise ValueError("count must be nonnegative")
    n = g.n
    forbidden = set()
    for u, v in g.edges:
        forbidden.add(_pair_key(int(u), int(v), n))
    for u, v in exclude:
        u, v = int(u), int(v)
        if u != v and 0 <= u < n and 0 <= v < n:
            forbidden.add(_pair_key(u, v, n))
    total = n * (n - 1) // 2
    admissible = total - len(forbidden)
    if count > admissible:
        raise ValueError(f"requested {count} negative pairs but only "
                         f"{admissible} non-edges exist")
    if count == 0:
        return np.zeros((0, 2), dtype=np.int64)

    rng = np.random.default_rng(seed)
    if count * 2 > admissible:
        # dense regime: enumerate every admissible pair and choose directly
        us, vs = np.triu_indices(n, k=1)
        keys = us.astype(np.int64) * n + vs
        mask = np.array([k not in forbidden for k in keys])
        pool = np.stack([us[mask], vs[mask]], axis=1).astype(np.int64)
        idx = rng.choice(pool.shape[0], size=count, replace=False)
        return pool[idx]

    chosen = []
    chosen_keys = set()
    while len(chosen) < count:
        batch = max(count - len(chosen), 16)
        u = rng.integers(0, n, size=2 * batch)
        v = rng.integers(0, n, size=2 * batch)
        for uu, vv in zip(u, v):
            if uu == vv:
                continue
            key = _pair_key(int(uu), int(vv), n)
            if key in forbidden or key in chosen_keys:
                continue
            chosen_keys.add(key)
            chosen.append((min(uu, vv), max(uu, vv)))
            if len(chosen) == count:
                break
    return np.array(chosen, dtype=np.int64)
