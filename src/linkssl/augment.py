"""View generation: the augmentation family producing (G', G'') per epoch.

Kinds:
  random       edge dropping + feature masking, uniform rates
  deg/evc/pr   dropping/masking steered by degree, eigenvector or PageRank
               centrality (edge importance = mean log1p endpoint centrality)
  scom         dropping/masking steered by community strength (edge
               importance = mean endpoint block strength, plus an
               intra-block bonus)
  sbm          view 1 = input graph unchanged, view 2 = fresh microcanonical
               SBM sample from the supplied block-pair counts
  sbm2         both views are fresh SBM samples
  sbm_oracle   same view structure as sbm; the blocks are detected on the
               full graph the split was cut from, test edges included

The non-SBM kinds differ only in their importance scores. One scheme,
reconstructed from the centrality-guided augmentation convention, turns
scores s into per-edge and per-feature-column drop probabilities:
p = min((s_max - s) / (s_max - s_mean) * rate, cutoff), which removes
low-importance items more aggressively. `random` has no scores, and a flat
surface (max equals mean) falls back to the uniform rate with a warning.
As the community-strength scheme is only qualitatively described in its
source, its scores here (mean endpoint strength plus an intra-block bonus
equal to the global mean block strength) are a documented approximation.
"""

from __future__ import annotations

import dataclasses
import warnings
from dataclasses import dataclass

import numpy as np

from .graphs import Graph
from .sbm import sample_sbm

SBM_KINDS = ("sbm", "sbm2", "sbm_oracle")
ADAPTIVE_KINDS = ("deg", "evc", "pr")
ALL_KINDS = ("random",) + ADAPTIVE_KINDS + ("scom",) + SBM_KINDS

CENTRALITY_BY_KIND = {"deg": "degree", "evc": "eigenvector", "pr": "pagerank"}


@dataclass(frozen=True)
class AugmentationSpec:
    kind: str = "random"
    drop_edge_rate_1: float = 0.2
    drop_edge_rate_2: float = 0.2
    drop_feature_rate_1: float = 0.1
    drop_feature_rate_2: float = 0.1
    detector: str = "louvain"
    cutoff: float = 0.9

    def __post_init__(self):
        if self.kind not in ALL_KINDS:
            raise ValueError(f"unknown augmentation kind {self.kind!r}")
        if self.detector != "louvain":
            raise ValueError(f"unknown community detector {self.detector!r}; "
                             f"only 'louvain' is built in")
        for name in ("drop_edge_rate_1", "drop_edge_rate_2",
                     "drop_feature_rate_1", "drop_feature_rate_2"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 0.9:
                raise ValueError(f"{name}={rate} outside [0, 0.9]")
        if not 0.0 <= self.cutoff <= 0.95:
            raise ValueError(f"cutoff={self.cutoff} outside [0, 0.95]")

    def needs_block_state(self):
        return self.kind in SBM_KINDS or self.kind == "scom"


def drop_edges(g, p, seed):
    """Remove edge i with probability p (a scalar rate or one per edge)."""
    if g.num_edges == 0 or np.ndim(p) == 0 and p == 0.0:
        return g
    keep = np.random.default_rng(seed).random(g.num_edges) >= p
    return Graph.from_keys(g.n, g.keys[keep], g.features)


def mask_features(x, p, seed):
    """Zero feature column j with probability p (a scalar rate or one per
    column): the drawn keep mask joins x's column mask, and X is shared."""
    if np.ndim(p) == 0 and p == 0.0:
        return x
    keep = (np.random.default_rng(seed).random(x.n_cols) >= p).astype(
        np.float64)
    mask = keep if x.column_mask is None else x.column_mask * keep
    return dataclasses.replace(x, column_mask=mask)


def centrality(g, kind):
    """Node centrality scores: raw degrees, the dominant eigenvector of A
    (Lanczos from the uniform vector, sign fixed, clipped at 0, unit L2
    norm; uniform on an edgeless graph), or PageRank with damping 0.85
    summing to 1."""
    if kind == "degree":
        return g.degrees().astype(np.float64)
    if kind == "eigenvector":
        from scipy.sparse.linalg import eigsh

        x = np.full(g.n, 1.0 / np.sqrt(g.n))
        if g.num_edges == 0:
            return x
        # Lanczos: power iteration oscillates on a bipartite component,
        # whose extreme eigenvalues are +-lambda
        _, vec = eigsh(g.adjacency(), k=1, which="LA", v0=x)
        vec = vec[:, 0]
        if vec.sum() < 0.0:
            vec = -vec
        vec = np.maximum(vec, 0.0)
        return vec / np.linalg.norm(vec)
    if kind == "pagerank":
        damping = 0.85
        deg = g.degrees().astype(np.float64)
        adj = g.adjacency()
        p = np.full(g.n, 1.0 / g.n)
        dangling = deg == 0.0
        inv_deg = np.where(dangling, 0.0, 1.0 / np.maximum(deg, 1.0))
        for _ in range(1000):
            spread = adj.T @ (p * inv_deg)
            lost = p[dangling].sum()
            nxt = damping * (spread + lost / g.n) + (1.0 - damping) / g.n
            if np.abs(nxt - p).sum() < 1e-8:
                return nxt / nxt.sum()
            p = nxt
        raise RuntimeError("pagerank did not converge within 1000 iterations")
    raise KeyError(f"unknown centrality kind {kind!r}")


def _block_strengths(blocks):
    """Internal density of each block: intra_edges(c) / C(size_c, 2), with 0
    for singleton blocks."""
    slots = blocks.block_sizes * (blocks.block_sizes - 1) // 2
    return np.where(slots > 0, np.diag(blocks.counts) / np.maximum(slots, 1),
                    0.0)


def _importance(g, spec, b):
    """(per-edge, per-feature-column) importances for spec.kind, or None
    for `random`.

    Node scores are the kind's centrality, or for `scom` the strength of the
    node's block. A feature column's importance is the score-weighted count
    of its nonzero entries in X, `(X != 0).T @ scores`, times the column
    mask; for the identity X that count is the node's own score, so the
    identity is never materialized.
    """
    if spec.kind == "random":
        return None
    u, v = g.edges[:, 0], g.edges[:, 1]
    if spec.kind == "scom":
        strengths = _block_strengths(b)
        block = b.assignment()
        scores = strengths[block]
        edges = (0.5 * (scores[u] + scores[v])
                 + float(strengths.mean()) * (block[u] == block[v]))
    else:
        scores = centrality(g, CENTRALITY_BY_KIND[spec.kind])
        edges = 0.5 * (np.log1p(scores[u]) + np.log1p(scores[v]))
    if not np.all(np.isfinite(scores)) or np.any(scores < 0):
        raise ValueError("node scores must be finite and nonnegative")
    x = g.features
    columns = (scores if x.dense_values is None
               else (x.dense_values != 0.0).astype(np.float64).T @ scores)
    if x.column_mask is not None:
        columns = columns * x.column_mask
    return edges, columns


def drop_probabilities(importance, rate, cutoff, what):
    """min((s_max - s) / (s_max - s_mean) * rate, cutoff) per item, or the
    uniform `rate` when there is no importance (`random`), nothing to drop,
    or a flat surface. Only the flat surface warns; `what` names it."""
    if not 0.0 <= rate < 1.0:
        raise ValueError("rate must lie in [0, 1)")
    if importance is None or rate == 0.0 or importance.size == 0:
        return rate
    s_max = importance.max()
    span = s_max - importance.mean()
    if span <= 1e-12:
        action = "feature masking" if what == "feature" else "edge dropping"
        warnings.warn(f"degenerate {what} importance; uniform {action}")
        return rate
    return np.minimum((s_max - importance) / span * rate, cutoff)


def _sub_seeds(seed, count):
    return [int(s.generate_state(1)[0])
            for s in np.random.SeedSequence(seed).spawn(count)]


def make_views(g, spec, b=None, seed=0):
    """Produce the two training views for one epoch. Pure in (g, spec, b, seed);
    `b` is g's `sbm.BlockEdgeCounts`, which `scom` and the SBM kinds read."""
    if spec.needs_block_state() and b is None:
        raise ValueError(f"kind={spec.kind!r} requires a block state")

    if spec.kind in SBM_KINDS:
        s1, s2 = _sub_seeds(seed, 2)
        if spec.kind == "sbm2":
            view1 = sample_sbm(b, s1).with_features(g.features)
        else:
            view1 = g
        view2 = sample_sbm(b, s2).with_features(g.features)
        return view1, view2

    e1, e2, f1, f2 = _sub_seeds(seed, 4)
    edge_imp, column_imp = _importance(g, spec, b) or (None, None)
    edge_what = "community" if spec.kind == "scom" else "edge"
    views = [drop_edges(g, drop_probabilities(edge_imp, rate, spec.cutoff,
                                              edge_what), s)
             for rate, s in ((spec.drop_edge_rate_1, e1),
                             (spec.drop_edge_rate_2, e2))]
    masks = [mask_features(g.features, drop_probabilities(
                 column_imp, rate, spec.cutoff, "feature"), s)
             for rate, s in ((spec.drop_feature_rate_1, f1),
                             (spec.drop_feature_rate_2, f2))]
    return tuple(v.with_features(x) for v, x in zip(views, masks))
