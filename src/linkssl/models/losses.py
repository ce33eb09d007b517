"""Contrastive and bootstrapped objectives over node and link embeddings.

The link-level objectives are the node-level ones over link rows: L-GRACE
is GRACE's InfoNCE with sampled negative links, and L-BGRL uses bgrl_loss
as it is. Both InfoNCE objectives stack their two views' anchors and
contrasted rows and take the mean log-denominator from one op over their
2k x 2k scores with each row's own column masked (autodiff.nce_denominator),
the NT-Xent form of SimCLR that GRACE adopts. The op scores those rows in
blocks once, builds its input gradients in the same pass and keeps no
score, so its scratch is O(NCE_BLOCK_ROWS x 2k), not (2k)^2, and the
loss's forward does the op's gradient work. For GRACE k is the node count;
for L-GRACE it is the number of links shared by the two views, which is
not smaller than the node count on dense graphs: on PB (n = 1222) k is
about 7.5k.

The views' rows are stacked before one row_l2_normalize, whose output is
the array the denominator reads; the positive scores come from row_slice
views of it. Rows are normalized independently, so stacking first gives
the per-view bits, and the graph keeps one copy of the normalized rows.
The link rows come from autodiff.pair_mlp, whose graph keeps only the
node embeddings and parameters it reads, so once lgrace_loss has stacked
a link set nothing keeps its rows: the graph holds only the normalized
stacked rows.

bgrl_loss takes its cosine from one op, autodiff.row_cosine_similarity.
Its target rows need no grad, so the graph keeps the prediction's unit
rows and a reference to the target's values, and no normalized target;
the bootstrapped step builds each branch's target rows with the branch, so
they die when backward consumes the branch's graph.
"""

from __future__ import annotations

import numpy as np

from .. import autodiff as ad
from ..graphs import Graph, sample_negative_pairs


def _nce_gap(den, rows, tau):
    """den - mean(pos) for the stacked rows [view 1; view 2] and their mean
    log-denominator den.

    Each direction shares the positive score pos_i = rows_i . rows_{k+i} /
    tau, so this is the mean of the two directions' den - pos. The two
    halves are row_slice views, so the product's rule saves no copy.
    """
    k = rows.shape[0] // 2
    pos = ad.scalar_mul(ad.row_sum(ad.elementwise_mul(
        ad.row_slice(rows, 0, k), ad.row_slice(rows, k, 2 * k))), 1.0 / tau)
    return ad.sub(den, ad.tensor_mean(pos))


def _stacked_unit_rows(first, second):
    """[first; second] with every row scaled to unit L2 norm."""
    return ad.row_l2_normalize(ad.concat_rows([first, second]))


def grace_loss(u_emb, v_emb, projector, tau):
    """Symmetric node-level InfoNCE between two views.

    Both embeddings pass through the shared projection head, rows are L2
    normalized, and each anchor contrasts its positive (same node, other
    view) against every other node in both views at temperature tau.
    Returns the negated mean objective (a scalar to minimize).
    """
    if u_emb.shape != v_emb.shape:
        raise ValueError("views must embed the same node set")
    both = _stacked_unit_rows(projector.forward(u_emb),
                              projector.forward(v_emb))
    return _nce_gap(ad.nce_denominator(both, both, tau), both, tau)


def select_link_sets(view1, view2, rng_seed=None):
    """Positive links = edges surviving in both views; with an `rng_seed`,
    negatives are sampled uniformly among pairs absent from either view, one
    per positive, resampled each call.

    Returns (edge_pos, edge_neg) as (k, 2) arrays, both empty when the views
    share no edge (callers skip such epochs); edge_neg is None when no seed
    is given (L-BGRL reads no negatives).
    """
    if view1.n != view2.n:
        raise ValueError("views must share a node set")
    common = np.intersect1d(view1.keys, view2.keys, assume_unique=True)
    edge_pos = Graph.from_keys(view1.n, common).edges
    if rng_seed is None:
        return edge_pos, None
    if not common.size:  # no positives, so no negatives either
        return edge_pos, edge_pos
    # the union of the views holds every pair that negatives must avoid; it
    # beats np.union1d of the keys, 33 vs 454 us on 2 x 1,300 (numpy 2.4.6)
    union = Graph(view1.n, np.concatenate([view1.edges, view2.edges]))
    edge_neg = sample_negative_pairs(union, len(edge_pos), seed=rng_seed)
    return edge_pos, edge_neg


def lgrace_loss(z1_pos, z2_pos, z1_neg, z2_neg, tau):
    """Link-level InfoNCE over MLP link representations: GRACE's objective
    with sampled negative links in place of the other positives.

    The numerator scores the aligned positive pair cos(z1_pos_i, z2_pos_i).
    The denominator accumulates positive link i's similarities to every
    cross-view negative and to the same-view negatives except index i
    (positive and negative sets are index-aligned and equally sized).
    Symmetrized over the two views; returns the scalar loss to minimize.
    """
    if z1_pos.shape != z2_pos.shape or z1_neg.shape != z2_neg.shape:
        raise ValueError("view link sets must align")
    if z1_pos.shape[0] == 0:
        raise ValueError("no positive links to contrast")
    if z1_pos.shape[0] != z1_neg.shape[0]:
        raise ValueError("need one negative per positive link")
    # the graph keeps only the stacked rows, so each link set dies once
    # it is stacked (the caller passes them as argument expressions)
    anchors = _stacked_unit_rows(z1_pos, z2_pos)
    del z1_pos, z2_pos
    contrasted = _stacked_unit_rows(z1_neg, z2_neg)
    del z1_neg, z2_neg
    den = ad.nce_denominator(anchors, contrasted, tau)
    return _nce_gap(den, anchors, tau)


def bgrl_loss(online_pred, target_emb):
    """Negative mean cosine alignment, -(2/N) * sum_i cos(pred_i, target_i).

    The target embedding must be a constant tensor (no gradient is defined
    with respect to it); gradients flow into the online prediction only.
    The cosine op rebuilds the target's unit rows in backward rather than
    keeping them.
    """
    if online_pred.shape != target_emb.shape:
        raise ValueError("prediction and target must align row-for-row")
    if target_emb.requires_grad:
        raise ValueError("target embedding must be constant (stop-gradient)")
    cos = ad.row_cosine_similarity(online_pred, target_emb)
    return ad.scalar_mul(ad.tensor_mean(cos), -2.0)
