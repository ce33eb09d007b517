"""Contrastive and bootstrapped objectives over node and link embeddings.

Both InfoNCE objectives share one denominator helper. Node-level InfoNCE
builds n x n score matrices; the link-level variant builds k x k ones, where
k is the number of links shared by the two views. That is not smaller than
the node case on dense graphs: on PB (n = 1222) k is about 7.5k.
"""

from __future__ import annotations

import numpy as np

from .. import autodiff as ad
from ..graphs import sample_negative_pairs


def _nce_direction(anchor, cross, same, tau):
    """One InfoNCE direction: (log-denominator per anchor row, logits).

    The denominator sums every anchor x cross score plus the anchor x same
    scores off the diagonal. `logits` is the anchor x cross matrix at
    temperature tau.
    """
    scaled = ad.scalar_mul(anchor, 1.0 / tau)
    logits = ad.matmul(scaled, ad.transpose(cross))
    same_logits = ad.matmul(scaled, ad.transpose(same))
    den = ad.logaddexp(ad.logsumexp_rows(logits),
                       ad.logsumexp_rows(ad.mask_diagonal(same_logits)))
    return den, logits


def grace_loss(u_emb, v_emb, projector, tau):
    """Symmetric node-level InfoNCE between two views.

    Both embeddings pass through the shared projection head, rows are L2
    normalized, and each anchor contrasts its positive (same node, other
    view) against every other node in both views at temperature tau.
    Returns the negated mean objective (a scalar to minimize).
    """
    if u_emb.shape != v_emb.shape:
        raise ValueError("views must embed the same node set")
    if tau <= 0:
        raise ValueError("tau must be positive")
    p1 = ad.row_l2_normalize(projector.forward(u_emb))
    p2 = ad.row_l2_normalize(projector.forward(v_emb))
    den1, logits = _nce_direction(p1, p2, p1, tau)
    den2, _ = _nce_direction(p2, p1, p2, tau)
    pos = ad.diag_part(logits)
    # loss = mean(den1 + den2 - 2 * pos) / 2 since both directions share the
    # positive score cos(u_i, v_i) / tau
    gap = ad.sub(ad.add(den1, den2), ad.scalar_mul(pos, 2.0))
    return ad.scalar_mul(ad.tensor_mean(gap), 0.5)


def select_link_sets(view1, view2, rng_seed, exclude=None):
    """Positive links = edges surviving in both views; negatives are sampled
    uniformly among pairs absent from either view (and `exclude`), one per
    positive, resampled each call.

    Returns (edge_pos, edge_neg) as (k, 2) arrays; both empty when the
    views share no edge (callers skip such epochs).
    """
    if view1.n != view2.n:
        raise ValueError("views must share a node set")
    common = np.intersect1d(view1.keys, view2.keys, assume_unique=True)
    if not common.size:
        empty = np.empty((0, 2), dtype=np.int64)
        return empty, empty
    edge_pos = np.stack([common // view1.n, common % view1.n], axis=1)
    forbidden = view2.edges
    if exclude is not None:
        forbidden = np.concatenate([forbidden, np.array(
            list(exclude), dtype=np.int64).reshape(-1, 2)])
    edge_neg = sample_negative_pairs(view1, len(edge_pos),
                                     seed=rng_seed, exclude=forbidden)
    return edge_pos, edge_neg


def lgrace_loss(z1_pos, z2_pos, z1_neg, z2_neg, tau, anchor="positive",
                add_positive_to_denominator=False):
    """Link-level InfoNCE over MLP link representations.

    The numerator scores the aligned positive pair cos(z1_pos_i, z2_pos_i).
    The denominator accumulates the anchor's similarities to every
    cross-view negative and to the same-view negatives except index i
    (positive and negative sets are index-aligned and equally sized).

    anchor="positive" scores negatives against the anchor link's positive
    representation; anchor="negative" uses the i-th same-view negative
    representation instead. `add_positive_to_denominator` optionally adds
    the numerator term to the denominator as well.
    Symmetrized over the two views; returns the scalar loss to minimize.
    """
    if tau <= 0:
        raise ValueError("tau must be positive")
    if z1_pos.shape != z2_pos.shape or z1_neg.shape != z2_neg.shape:
        raise ValueError("view link sets must align")
    if z1_pos.shape[0] == 0:
        raise ValueError("no positive links to contrast")
    if z1_pos.shape[0] != z1_neg.shape[0]:
        raise ValueError("need one negative per positive link")
    if anchor not in ("positive", "negative"):
        raise ValueError("anchor must be 'positive' or 'negative'")
    n1p = ad.row_l2_normalize(z1_pos)
    n2p = ad.row_l2_normalize(z2_pos)
    n1n = ad.row_l2_normalize(z1_neg)
    n2n = ad.row_l2_normalize(z2_neg)
    pos = ad.scalar_mul(ad.row_sum(ad.elementwise_mul(n1p, n2p)), 1.0 / tau)

    def direction(anchor_rows, cross_negs, same_negs):
        den, _ = _nce_direction(anchor_rows, cross_negs, same_negs, tau)
        if add_positive_to_denominator:
            den = ad.logaddexp(den, pos)
        return den

    a1 = n1p if anchor == "positive" else n1n
    a2 = n2p if anchor == "positive" else n2n
    den1 = direction(a1, n2n, n1n)
    den2 = direction(a2, n1n, n2n)
    gap = ad.sub(ad.add(den1, den2), ad.scalar_mul(pos, 2.0))
    return ad.scalar_mul(ad.tensor_mean(gap), 0.5)


def bgrl_loss(online_pred, target_emb):
    """Negative mean cosine alignment, -(2/N) * sum_i cos(pred_i, target_i).

    The target embedding must be a constant tensor (no gradient is defined
    with respect to it); gradients flow into the online prediction only.
    """
    if online_pred.shape != target_emb.shape:
        raise ValueError("prediction and target must align row-for-row")
    if target_emb.requires_grad:
        raise ValueError("target embedding must be constant (stop-gradient)")
    cos = ad.row_cosine_similarity(online_pred, target_emb)
    return ad.scalar_mul(ad.tensor_mean(cos), -2.0)


def lbgrl_loss(online_link_pred, target_link_emb):
    """bgrl_loss applied to index-aligned positive-link representations."""
    return bgrl_loss(online_link_pred, target_link_emb)
