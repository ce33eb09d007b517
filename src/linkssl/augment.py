"""View generation: the augmentation family producing (G', G'') per epoch.

Kinds:
  random       edge dropping + feature masking, uniform rates
  deg/evc/pr   adaptive dropping/masking steered by degree, eigenvector,
               or PageRank centrality (log-scaled importance, normalized
               deviation from the max, capped by `cutoff`)
  scom         community-strength steered dropping (intra-block edges get
               an importance bonus) with strength-steered feature masking
  sbm          view 1 = input graph unchanged, view 2 = fresh microcanonical
               SBM sample respecting the supplied block state
  sbm2         both views are fresh SBM samples
  sbm_oracle   same view structure as sbm; the block state is expected to
               come from detection on the full pre-split graph

The adaptive probability scheme is reconstructed from the centrality-guided
augmentation convention: p = min((s_max - s) / (s_max - s_mean) * rate,
cutoff), which removes low-importance items more aggressively. As the
community-strength scheme is only qualitatively described in its source,
the variant here (mean endpoint strength plus an intra-block bonus equal to
the global mean block strength) is a documented approximation.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .community import DETECTORS
from .graphs import FeatureMatrix
from .sbm import fit_block_counts, sample_sbm

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
        if self.detector not in DETECTORS:
            raise ValueError(f"unknown community detector {self.detector!r}; "
                             f"choices: {DETECTORS}")
        for name in ("drop_edge_rate_1", "drop_edge_rate_2",
                     "drop_feature_rate_1", "drop_feature_rate_2"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 0.9:
                raise ValueError(f"{name}={rate} outside [0, 0.9]")
        if self.cutoff > 0.95:
            raise ValueError("cutoff must be <= 0.95")

    def needs_block_state(self):
        return self.kind in SBM_KINDS or self.kind == "scom"


@dataclass(frozen=True)
class CentralityWeights:
    node_scores: np.ndarray
    kind: str  # degree | eigenvector | pagerank | community_strength

    def __post_init__(self):
        scores = np.asarray(self.node_scores, dtype=np.float64)
        object.__setattr__(self, "node_scores", scores)
        if not np.all(np.isfinite(scores)) or np.any(scores < 0):
            raise ValueError("centrality scores must be finite and nonnegative")


def drop_edges_random(g, rate, seed):
    """Remove each edge independently with probability `rate`."""
    if not 0.0 <= rate < 1.0:
        raise ValueError("rate must lie in [0, 1)")
    if rate == 0.0 or g.num_edges == 0:
        return g
    rng = np.random.default_rng(seed)
    keep = rng.random(g.num_edges) >= rate
    return g.with_edges(g.edges[keep])


def mask_features_random(x, rate, seed):
    """Zero whole feature dimensions, each kept with probability 1 - rate."""
    if not 0.0 <= rate < 1.0:
        raise ValueError("rate must lie in [0, 1)")
    if rate == 0.0:
        return x
    rng = np.random.default_rng(seed)
    keep = (rng.random(x.n_cols) >= rate).astype(np.float64)
    return _apply_column_mask(x, keep)


def _apply_column_mask(x, keep):
    if x.kind == "identity":
        mask = keep if x.column_mask is None else x.column_mask * keep
        return FeatureMatrix(kind="identity", n_rows=x.n_rows, n_cols=x.n_cols,
                             column_mask=mask)
    return FeatureMatrix.dense(x.dense_values * keep[np.newaxis, :])


def centrality(g, kind):
    """Node centrality scores: raw degrees, the dominant eigenvector of A
    (power iteration, tol 1e-8, at most 1000 iterations, unit L2 norm), or
    PageRank with damping 0.85 summing to 1."""
    if kind == "degree":
        return CentralityWeights(g.degrees().astype(np.float64), "degree")
    if kind == "eigenvector":
        adj = g.adjacency()
        shift = 1e-12
        x = np.full(g.n, 1.0 / np.sqrt(g.n))
        for _ in range(1000):
            nxt = adj @ x + shift * x
            norm = np.linalg.norm(nxt)
            if norm == 0.0:
                raise RuntimeError("eigenvector iteration collapsed to zero")
            nxt /= norm
            if np.linalg.norm(nxt - x) < 1e-8:
                return CentralityWeights(np.maximum(nxt, 0.0), "eigenvector")
            x = nxt
        raise RuntimeError("eigenvector centrality did not converge "
                           "within 1000 iterations")
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
                return CentralityWeights(nxt / nxt.sum(), "pagerank")
            p = nxt
        raise RuntimeError("pagerank did not converge within 1000 iterations")
    raise KeyError(f"unknown centrality kind {kind!r}")


def _probabilities_from_importance(importance, rate, cutoff):
    """min((s_max - s) / (s_max - s_mean) * rate, cutoff), or None when the
    importance surface is degenerate (caller falls back to uniform)."""
    s_max = importance.max()
    s_mean = importance.mean()
    span = s_max - s_mean
    if span <= 1e-12:
        return None
    return np.minimum((s_max - importance) / span * rate, cutoff)


def _edge_importance_from_centrality(g, w):
    c = w.node_scores
    return 0.5 * (np.log1p(c[g.edges[:, 0]]) + np.log1p(c[g.edges[:, 1]]))


def adaptive_drop_edges(g, w, rate, cutoff, seed):
    """Drop edges with probability decreasing in endpoint importance.

    Edge importance is the mean log-scaled endpoint centrality. A degenerate
    importance surface (max equals mean) falls back to uniform dropping.
    """
    if rate >= 1.0:
        raise ValueError("rate must be < 1")
    if g.num_edges == 0 or rate == 0.0:
        return g
    importance = _edge_importance_from_centrality(g, w)
    probs = _probabilities_from_importance(importance, rate, cutoff)
    if probs is None:
        warnings.warn("degenerate edge importance; uniform edge dropping")
        return drop_edges_random(g, rate, seed)
    rng = np.random.default_rng(seed)
    keep = rng.random(g.num_edges) >= probs
    return g.with_edges(g.edges[keep])


def _dimension_importance(x, node_scores):
    """Centrality-weighted frequency of nonzero entries per feature column.

    For identity features this reduces to the node's own centrality, so the
    implicit representation needs no materialization.
    """
    if x.kind == "identity":
        importance = node_scores.copy()
        if x.column_mask is not None:
            importance = importance * x.column_mask
        return importance
    nonzero = (x.dense_values != 0.0).astype(np.float64)
    return nonzero.T @ node_scores


def adaptive_mask_features(x, w, rate, cutoff, seed):
    """Mask feature dimensions with probability decreasing in importance."""
    if rate >= 1.0:
        raise ValueError("rate must be < 1")
    if rate == 0.0:
        return x
    importance = _dimension_importance(x, w.node_scores)
    probs = _probabilities_from_importance(importance, rate, cutoff)
    if probs is None:
        warnings.warn("degenerate feature importance; uniform feature masking")
        return mask_features_random(x, rate, seed)
    rng = np.random.default_rng(seed)
    keep = (rng.random(x.n_cols) >= probs).astype(np.float64)
    return _apply_column_mask(x, keep)


def _block_strengths(g, b):
    """Internal density of each block: intra_edges(c) / C(size_c, 2), with 0
    for singleton blocks."""
    counts = fit_block_counts(g, b)
    sizes = counts.block_sizes.astype(np.float64)
    slots = sizes * (sizes - 1.0) / 2.0
    return np.where(slots > 0, np.diag(counts.counts) / np.maximum(slots, 1.0),
                    0.0)


def community_strength(g, b):
    """Per-node community strength: internal density of the node's block.

    strength(c) = intra_edges(c) / C(size_c, 2); singleton blocks get 0.
    """
    return CentralityWeights(_block_strengths(g, b)[b.assignment],
                             "community_strength")


def scom_drop_edges(g, b, rate, cutoff, seed):
    """Community-strength edge dropping: importance = mean endpoint strength,
    plus the global mean block strength as a bonus when both endpoints share
    a block, so intra-community edges survive preferentially."""
    return _scom_drop_edges(g, b, _block_strengths(g, b), rate, cutoff, seed)


def _scom_drop_edges(g, b, block_strengths, rate, cutoff, seed):
    if rate >= 1.0:
        raise ValueError("rate must be < 1")
    if g.num_edges == 0 or rate == 0.0:
        return g
    scores = block_strengths[b.assignment]
    delta = float(block_strengths.mean())
    u, v = g.edges[:, 0], g.edges[:, 1]
    importance = 0.5 * (scores[u] + scores[v])
    importance = importance + delta * (b.assignment[u] == b.assignment[v])
    probs = _probabilities_from_importance(importance, rate, cutoff)
    if probs is None:
        warnings.warn("degenerate community importance; uniform edge dropping")
        return drop_edges_random(g, rate, seed)
    rng = np.random.default_rng(seed)
    keep = rng.random(g.num_edges) >= probs
    return g.with_edges(g.edges[keep])


def _sub_seeds(seed, count):
    return [int(s.generate_state(1)[0])
            for s in np.random.SeedSequence(seed).spawn(count)]


def make_views(g, spec, b=None, seed=0):
    """Produce the two training views for one epoch. Pure in (g, spec, b, seed)."""
    if spec.needs_block_state() and b is None:
        raise ValueError(f"kind={spec.kind!r} requires a block state")

    if spec.kind in SBM_KINDS:
        counts = fit_block_counts(g, b)
        s1, s2 = _sub_seeds(seed, 2)
        if spec.kind == "sbm2":
            view1 = sample_sbm(counts, s1).with_features(g.features)
        else:
            view1 = g
        view2 = sample_sbm(counts, s2).with_features(g.features)
        return view1, view2

    e1, e2, f1, f2 = _sub_seeds(seed, 4)
    if spec.kind == "random":
        view1 = drop_edges_random(g, spec.drop_edge_rate_1, e1)
        view2 = drop_edges_random(g, spec.drop_edge_rate_2, e2)
        x1 = mask_features_random(g.features, spec.drop_feature_rate_1, f1)
        x2 = mask_features_random(g.features, spec.drop_feature_rate_2, f2)
    elif spec.kind in ADAPTIVE_KINDS:
        w = centrality(g, CENTRALITY_BY_KIND[spec.kind])
        view1 = adaptive_drop_edges(g, w, spec.drop_edge_rate_1, spec.cutoff, e1)
        view2 = adaptive_drop_edges(g, w, spec.drop_edge_rate_2, spec.cutoff, e2)
        x1 = adaptive_mask_features(g.features, w, spec.drop_feature_rate_1,
                                    spec.cutoff, f1)
        x2 = adaptive_mask_features(g.features, w, spec.drop_feature_rate_2,
                                    spec.cutoff, f2)
    else:  # scom
        strengths = _block_strengths(g, b)
        view1 = _scom_drop_edges(g, b, strengths, spec.drop_edge_rate_1,
                                 spec.cutoff, e1)
        view2 = _scom_drop_edges(g, b, strengths, spec.drop_edge_rate_2,
                                 spec.cutoff, e2)
        w = CentralityWeights(strengths[b.assignment], "community_strength")
        x1 = adaptive_mask_features(g.features, w, spec.drop_feature_rate_1,
                                    spec.cutoff, f1)
        x2 = adaptive_mask_features(g.features, w, spec.drop_feature_rate_2,
                                    spec.cutoff, f2)
    return view1.with_features(x1), view2.with_features(x2)
