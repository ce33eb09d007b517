"""Loss oracles, encoder contracts, and training-loop behavior.

Frozen constants below were computed by hand from the loss definitions
(closed forms over 1-2 rows), never from the implementation.
"""

import dataclasses
import gc
import importlib.util
import sys
import tracemalloc
import types
import warnings
import weakref
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from linkssl import autodiff as ad
from linkssl import augment, community, runner, sbm
from linkssl.augment import AugmentationSpec
from linkssl.community import louvain
from linkssl.augment import make_views
from linkssl.config import ExperimentConfig
from linkssl.datasets import load_dataset
from linkssl.graphs import FeatureMatrix, Graph, random_link_split
from linkssl.metrics import evaluate_split
from linkssl.models import (Decoder, EncoderConfig, GCNEncoder, LinkMLP,
                            Predictor, Projector, bgrl_loss, embed,
                            grace_loss, hadamard_pairs, lgrace_loss,
                            link_representation, predict_scores,
                            select_link_sets, train_decoder, train_encoder,
                            train_supervised_gcn)
from linkssl.models.training import (BOOTSTRAPPED, DECODER_EPOCHS,
                                     LINK_MODELS, SELF_SUPERVISED,
                                     _decoder_objective, _descend,
                                     _encoder_terms, _init_state, _rows)
from linkssl.optim import zero_grads
from linkssl.seeding import derive_seed
from scipy import sparse


class IdentityHead:
    """Stands in for a projector/MLP when the raw rows are wanted."""

    def forward(self, x):
        return x


class TensorHead:
    """Two-layer ReLU MLP over explicitly supplied weight tensors, so the
    tensors can participate in gradient checks."""

    def __init__(self, w1, b1, w2, b2):
        self.ws = (w1, b1, w2, b2)

    def forward(self, x):
        w1, b1, w2, b2 = self.ws
        return ad.add(ad.matmul(ad.relu(ad.add(ad.matmul(x, w1), b1)), w2),
                      b2)


def toy_cfg(**kw):
    enc = kw.pop("encoder", None)
    if enc is None:
        enc = EncoderConfig(n_layers=kw.pop("n_layers", 1), layer_size=64,
                            norm=kw.pop("norm", "layer"))
    base = dict(model="grace", ct_epochs=5, batch_size=256, gnn_lr=1e-3,
                pred_lr=1e-2, proj_hidden=64, loss_func="bce",
                mask_input=False, weight_decay=1e-6, tau=0.5, ema_decay=0.9,
                encoder=enc)
    base.update(kw)
    return SimpleNamespace(**base)


def two_triangles():
    return Graph(6, np.array([(0, 1), (0, 2), (1, 2),
                              (3, 4), (3, 5), (4, 5), (2, 3)]))


# ---------------------------------------------------------------- grace loss

def test_grace_two_nodes_frozen_value():
    # u1=v1=[1,0], u2=v2=[0,1], tau=1: per anchor the positive scores 1 and
    # both negatives score 0, so l = 1 - ln(e + 2) and loss = ln(e + 2) - 1
    u = ad.Tensor(np.array([[1.0, 0.0], [0.0, 1.0]]))
    v = ad.Tensor(np.array([[1.0, 0.0], [0.0, 1.0]]))
    loss = grace_loss(u, v, IdentityHead(), 1.0)
    assert loss.item() == pytest.approx(np.log(np.e + 2.0) - 1.0, abs=1e-12)


def test_grace_two_nodes_frozen_value_tau_half():
    # same instance at tau=0.5: loss = ln(e^2 + 2) - 2
    u = ad.Tensor(np.array([[1.0, 0.0], [0.0, 1.0]]))
    v = ad.Tensor(np.array([[1.0, 0.0], [0.0, 1.0]]))
    loss = grace_loss(u, v, IdentityHead(), 0.5)
    assert loss.item() == pytest.approx(np.log(np.e ** 2 + 2.0) - 2.0,
                                        abs=1e-12)


def test_grace_single_node_loss_zero():
    u = ad.Tensor(np.array([[3.0, 4.0]]))
    v = ad.Tensor(np.array([[3.0, 4.0]]))
    assert grace_loss(u, v, IdentityHead(), 0.5).item() == 0.0


def test_grace_view_exchange_symmetry():
    rng = np.random.default_rng(5)
    u = ad.Tensor(rng.normal(size=(6, 4)))
    v = ad.Tensor(rng.normal(size=(6, 4)))
    a = grace_loss(u, v, IdentityHead(), 0.3).item()
    b = grace_loss(v, u, IdentityHead(), 0.3).item()
    assert abs(a - b) <= 1e-12


def test_grace_row_permutation_invariance():
    rng = np.random.default_rng(6)
    u_vals = rng.normal(size=(6, 4))
    v_vals = rng.normal(size=(6, 4))
    perm = rng.permutation(6)
    a = grace_loss(ad.Tensor(u_vals), ad.Tensor(v_vals),
                   IdentityHead(), 0.4).item()
    b = grace_loss(ad.Tensor(u_vals[perm]), ad.Tensor(v_vals[perm]),
                   IdentityHead(), 0.4).item()
    assert abs(a - b) <= 1e-10


def test_grace_rejects_bad_inputs():
    u = ad.Tensor(np.ones((2, 3)))
    with pytest.raises(ValueError):
        grace_loss(u, ad.Tensor(np.ones((3, 3))), IdentityHead(), 0.5)
    with pytest.raises(ValueError):
        grace_loss(u, u, IdentityHead(), 0.0)


def test_grace_loss_grad_check():
    rng = np.random.default_rng(7)
    u = ad.Tensor(rng.normal(size=(6, 3)))
    v = ad.Tensor(rng.normal(size=(6, 3)))
    w1 = ad.Tensor(rng.normal(size=(3, 4)) * 0.7)
    b1 = ad.Tensor(rng.normal(size=(1, 4)) * 0.3 + 0.2)
    w2 = ad.Tensor(rng.normal(size=(4, 3)) * 0.7)
    b2 = ad.Tensor(rng.normal(size=(1, 3)) * 0.3)

    def f(tu, tv, tw1, tb1, tw2, tb2):
        return grace_loss(tu, tv, TensorHead(tw1, tb1, tw2, tb2), 0.5)

    assert ad.grad_check(f, [u, v, w1, b1, w2, b2]) < 1e-4


# --------------------------------------------------------------- lgrace loss

def _single_link_tensors():
    z1p = ad.Tensor(np.array([[1.0, 0.0]]))
    z2p = ad.Tensor(np.array([[1.0, 0.0]]))
    z1n = ad.Tensor(np.array([[0.0, 1.0]]))
    z2n = ad.Tensor(np.array([[0.0, 1.0]]))
    return z1p, z2p, z1n, z2n


def test_lgrace_single_link_frozen_minus_one():
    # positive cos=1, lone cross-view negative cos=0, intra sum empty at
    # size 1, tau=1: l = 1 per direction, loss = -1
    z1p, z2p, z1n, z2n = _single_link_tensors()
    assert lgrace_loss(z1p, z2p, z1n, z2n, 1.0).item() == pytest.approx(
        -1.0, abs=1e-12)


def test_lgrace_with_positives_as_negatives_is_grace():
    # GRACE is L-GRACE whose negatives are the other positives
    rng = np.random.default_rng(14)
    u = ad.Tensor(rng.normal(size=(7, 4)))
    v = ad.Tensor(rng.normal(size=(7, 4)))
    link = lgrace_loss(u, v, u, v, 0.5).item()
    node = grace_loss(u, v, IdentityHead(), 0.5).item()
    assert abs(link - node) <= 1e-12


def test_lgrace_monotone_in_tau():
    # identical positives (cos=1) and orthogonal negatives: the positive
    # term 1/tau dominates, so the loss strictly drops as tau shrinks
    z1p = ad.Tensor(np.tile([[1.0, 0.0, 0.0]], (3, 1)))
    z2p = ad.Tensor(np.tile([[1.0, 0.0, 0.0]], (3, 1)))
    z1n = ad.Tensor(np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0],
                              [0.0, 1.0, 1.0]]))
    z2n = ad.Tensor(np.array([[0.0, 1.0, 0.0], [0.0, 1.0, 1.0],
                              [0.0, 0.0, 1.0]]))
    taus = [0.9, 0.7, 0.5, 0.3, 0.1]
    values = [lgrace_loss(z1p, z2p, z1n, z2n, t).item() for t in taus]
    assert all(b < a for a, b in zip(values, values[1:]))


def test_lgrace_view_exchange_symmetry():
    rng = np.random.default_rng(8)
    z1p = ad.Tensor(rng.normal(size=(5, 3)))
    z2p = ad.Tensor(rng.normal(size=(5, 3)))
    z1n = ad.Tensor(rng.normal(size=(5, 3)))
    z2n = ad.Tensor(rng.normal(size=(5, 3)))
    a = lgrace_loss(z1p, z2p, z1n, z2n, 0.4).item()
    b = lgrace_loss(z2p, z1p, z2n, z1n, 0.4).item()
    assert abs(a - b) <= 1e-12


def test_lgrace_aligned_permutation_invariance():
    # permuting positives and negatives by one shared permutation relabels
    # the per-link terms without changing the index alignment
    rng = np.random.default_rng(9)
    vals = [rng.normal(size=(5, 3)) for _ in range(4)]
    perm = rng.permutation(5)
    a = lgrace_loss(*[ad.Tensor(v) for v in vals], 0.5).item()
    b = lgrace_loss(*[ad.Tensor(v[perm]) for v in vals], 0.5).item()
    assert abs(a - b) <= 1e-10


def test_lgrace_rejects_bad_inputs():
    z1p, z2p, z1n, z2n = _single_link_tensors()
    empty = ad.Tensor(np.empty((0, 2)))
    with pytest.raises(ValueError):
        lgrace_loss(empty, empty, z1n, z2n, 1.0)
    with pytest.raises(ValueError):
        lgrace_loss(z1p, z2p, ad.Tensor(np.ones((2, 2))),
                    ad.Tensor(np.ones((2, 2))), 1.0)
    with pytest.raises(ValueError):
        lgrace_loss(z1p, z2p, z1n, z2n, -1.0)


def test_lgrace_loss_grad_check():
    rng = np.random.default_rng(10)
    tensors = [ad.Tensor(rng.normal(size=(6, 3))) for _ in range(4)]

    def f(a, b, c, d):
        return lgrace_loss(a, b, c, d, 0.5)

    assert ad.grad_check(f, tensors) < 1e-4


def _per_direction_denominator(anchor, cross, same, tau):
    """One InfoNCE direction as separate k x k ops: every anchor x cross
    score plus the anchor x same scores off the diagonal."""
    scaled = ad.scalar_mul(anchor, 1.0 / tau)
    logits = ad.matmul(scaled, ad.transpose(cross))
    same_logits = ad.matmul(scaled, ad.transpose(same))
    return ad.logaddexp(ad.logsumexp_rows(logits),
                        ad.logsumexp_rows(ad.mask_diagonal(same_logits)))


def _per_direction_nce(z1p, z2p, z1n, z2n, tau):
    """Both directions' mean(den - pos) / 2, the unstacked reference."""
    n1p, n2p, n1n, n2n = [ad.row_l2_normalize(z) for z in (z1p, z2p, z1n, z2n)]
    pos = ad.scalar_mul(ad.row_sum(ad.elementwise_mul(n1p, n2p)), 1.0 / tau)
    den1 = _per_direction_denominator(n1p, n2n, n1n, tau)
    den2 = _per_direction_denominator(n2p, n1n, n2n, tau)
    gap = ad.sub(ad.add(den1, den2), ad.scalar_mul(pos, 2.0))
    return ad.scalar_mul(ad.tensor_mean(gap), 0.5)


@pytest.mark.parametrize("tau", [0.5, 0.05, 1e-3])
@pytest.mark.parametrize("model", ["grace", "lgrace"])
def test_stacked_denominator_matches_per_direction_composition(model, tau):
    # tau = 1e-3 puts the cosine logits at +/-1000
    rng = np.random.default_rng(21)
    vals = [rng.normal(size=(40, 8)) for _ in range(4)]

    def loss_and_grads(fn, arrays):
        tensors = [ad.Tensor(v, requires_grad=True) for v in arrays]
        loss = fn(*tensors)
        ad.backward(loss)
        return loss.item(), [t.grad for t in tensors]

    if model == "grace":
        got = loss_and_grads(
            lambda u, v: grace_loss(u, v, IdentityHead(), tau), vals[:2])
        want = loss_and_grads(
            lambda u, v: _per_direction_nce(u, v, u, v, tau), vals[:2])
    else:
        got = loss_and_grads(
            lambda *z: lgrace_loss(*z, tau), vals)
        want = loss_and_grads(
            lambda *z: _per_direction_nce(*z, tau), vals)
    assert got[0] == pytest.approx(want[0], rel=1e-12, abs=1e-12)
    for g, w in zip(got[1], want[1]):
        assert np.max(np.abs(g - w)) <= 1e-12 * max(1.0, np.max(np.abs(w)))


# ----------------------------------------------------------- bgrl and lbgrl

def test_bgrl_identical_rows_minus_two():
    a = ad.Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]), requires_grad=True)
    b = ad.Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]))
    assert bgrl_loss(a, b).item() == pytest.approx(-2.0, abs=1e-12)


def test_bgrl_orthogonal_rows_zero():
    a = ad.Tensor(np.array([[1.0, 0.0], [0.0, 2.0]]))
    b = ad.Tensor(np.array([[0.0, 5.0], [3.0, 0.0]]))
    assert bgrl_loss(a, b).item() == pytest.approx(0.0, abs=1e-12)


def test_bgrl_negated_rows_plus_two():
    vals = np.array([[1.0, -2.0], [0.5, 4.0]])
    assert bgrl_loss(ad.Tensor(vals), ad.Tensor(-vals)).item() == (
        pytest.approx(2.0, abs=1e-12))


def test_bgrl_rejects_grad_tracked_target():
    a = ad.Tensor(np.ones((2, 2)))
    t = ad.Tensor(np.ones((2, 2)), requires_grad=True)
    with pytest.raises(ValueError):
        bgrl_loss(a, t)


def test_lbgrl_row_rescale_invariance():
    # L-BGRL's objective is bgrl_loss over link rows; rescaling one link's
    # prediction leaves its cosine unchanged
    rng = np.random.default_rng(11)
    pred = rng.normal(size=(4, 3))
    tgt = rng.normal(size=(4, 3))
    base = bgrl_loss(ad.Tensor(pred), ad.Tensor(tgt)).item()
    scaled = pred.copy()
    scaled[2] *= 37.5
    other = bgrl_loss(ad.Tensor(scaled), ad.Tensor(tgt)).item()
    assert abs(base - other) <= 1e-12


def test_bgrl_loss_grad_check():
    rng = np.random.default_rng(12)
    x = ad.Tensor(rng.normal(size=(6, 3)))
    w1 = ad.Tensor(rng.normal(size=(3, 4)) * 0.7)
    b1 = ad.Tensor(rng.normal(size=(1, 4)) * 0.3 + 0.3)
    w2 = ad.Tensor(rng.normal(size=(4, 3)) * 0.7)
    b2 = ad.Tensor(rng.normal(size=(1, 3)) * 0.3)
    target = ad.Tensor(rng.normal(size=(6, 3)))

    def f(tx, tw1, tb1, tw2, tb2):
        return bgrl_loss(TensorHead(tw1, tb1, tw2, tb2).forward(tx), target)

    assert ad.grad_check(f, [x, w1, b1, w2, b2]) < 1e-4


def _float64_link_head(rng, dim=3, hidden=4):
    return LinkMLP(dim, hidden, rng, dtype=np.float64)


def test_bgrl_loss_grad_check_through_a_float64_predictor():
    # the predictor is one autodiff.mlp; every parameter of a real float64
    # Predictor is checked, its biases moved off zero
    rng = np.random.default_rng(14)
    pred = Predictor(3, 5, rng, dtype=np.float64)
    for p in (pred.b1, pred.b2):
        p.tensor.values[...] = rng.normal(size=p.shape) * 0.3
    x = ad.Tensor(rng.normal(size=(6, 3)))
    target = ad.Tensor(rng.normal(size=(6, 3)))

    def f(t, *_):
        return bgrl_loss(pred.forward(t), target)

    params = [p.tensor for p in pred.parameters()]
    assert all(p.values.dtype == np.float64 for p in params)
    assert ad.grad_check(f, [x] + params) < 1e-4


def test_lbgrl_loss_grad_check():
    # bgrl_loss over link rows, differentiated into the node embeddings
    # and the link head's parameters
    rng = np.random.default_rng(13)
    h = ad.Tensor(rng.normal(size=(5, 3)))
    head = _float64_link_head(rng)
    edges = [(0, 1), (1, 2), (0, 4), (3, 4), (2, 3), (1, 4)]
    target = ad.Tensor(rng.normal(size=(6, 3)))

    def f(t, *_):
        return bgrl_loss(link_representation(t, edges, head), target)

    params = [p.tensor for p in head.parameters()]
    assert ad.grad_check(f, [h] + params) < 1e-4


# ------------------------------------------------------------ link set pick

def test_select_link_sets_identical_views():
    g = two_triangles()
    pos, neg = select_link_sets(g, g, rng_seed=3)
    assert set(map(tuple, pos)) == g.edge_set()
    assert len(neg) == len(pos)


def test_select_link_sets_disjoint_views_empty():
    a = Graph(4, np.array([(0, 1)]))
    b = Graph(4, np.array([(2, 3)]))
    pos, neg = select_link_sets(a, b, rng_seed=3)
    assert len(pos) == 0 and len(neg) == 0


def test_select_link_sets_negatives_avoid_both_views():
    rng = np.random.default_rng(14)
    for trial in range(20):
        n = 8
        all_pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        e1 = rng.choice(len(all_pairs), size=10, replace=False)
        e2 = rng.choice(len(all_pairs), size=10, replace=False)
        a = Graph(n, np.array([all_pairs[i] for i in e1]))
        b = Graph(n, np.array([all_pairs[i] for i in e2]))
        pos, neg = select_link_sets(a, b, rng_seed=trial)
        union = a.edge_set() | b.edge_set()
        assert set(map(tuple, pos)) == a.edge_set() & b.edge_set()
        assert len(neg) == len(pos)
        neg_set = set(map(tuple, neg))
        assert len(neg_set) == len(neg)
        assert not neg_set & union


def test_select_link_sets_resamples_negatives():
    g = two_triangles()
    _, neg_a = select_link_sets(g, g, rng_seed=1)
    _, neg_b = select_link_sets(g, g, rng_seed=2)
    assert set(map(tuple, neg_a)) != set(map(tuple, neg_b))


def test_select_link_sets_without_seed_draws_no_negatives():
    g = two_triangles()
    pos, neg = select_link_sets(g, g)
    assert set(map(tuple, pos)) == g.edge_set() and neg is None
    pos, neg = select_link_sets(Graph(4, np.array([(0, 1)])),
                                Graph(4, np.array([(2, 3)])))
    assert pos.shape == (0, 2) and neg is None


@pytest.mark.parametrize("model, draws", [("lbgrl", 0), ("lgrace", 1)])
def test_only_lgrace_samples_link_negatives(monkeypatch, model, draws):
    # L-BGRL bootstraps its shared links against the target and reads no
    # negatives, so its epoch must not pay for drawing them
    from linkssl.models import losses
    calls = []

    def spy(*args, **kwargs):
        calls.append(args)
        return sample_negative_pairs(*args, **kwargs)

    sample_negative_pairs = losses.sample_negative_pairs
    monkeypatch.setattr(losses, "sample_negative_pairs", spy)
    spec = AugmentationSpec(drop_edge_rate_1=0.0, drop_edge_rate_2=0.0)
    state = train_encoder(_toy_split(), spec, model,
                          toy_cfg(model=model, ct_epochs=1), seed=2)
    assert state.epoch == 1
    assert len(calls) == draws


# ------------------------------------------------------------------ encoder

def test_encoder_zero_weights_give_zero_embeddings():
    g = two_triangles()
    for norm in ("batch", "layer"):
        enc = GCNEncoder(6, EncoderConfig(n_layers=2, layer_size=64,
                                          norm=norm),
                         np.random.default_rng(0))
        for w in enc.weights:
            w.tensor.values[:] = 0.0
        out = enc.forward(g, mode="train")
        assert np.allclose(out.values, 0.0)


@pytest.mark.parametrize("n_layers", [1, 2, 3, 4])
def test_encoder_output_shape(n_layers):
    g = two_triangles()
    enc = GCNEncoder(6, EncoderConfig(n_layers=n_layers, layer_size=64),
                     np.random.default_rng(1))
    assert enc.forward(g, mode="train").shape == (6, 64)


@pytest.mark.parametrize("norm", ["batch", "layer"])
def test_encoder_permutation_equivariance(norm):
    rng = np.random.default_rng(15)
    n = 10
    edges = np.array([(u, v) for u in range(n) for v in range(u + 1, n)
                      if rng.random() < 0.4])
    feats = rng.normal(size=(n, 5))
    g = Graph(n, edges, features=FeatureMatrix.dense(feats))
    perm = rng.permutation(n)
    inv = np.empty(n, dtype=np.int64)
    inv[perm] = np.arange(n)
    g_perm = Graph(n, np.array([(inv[u], inv[v]) for u, v in edges]),
                   features=FeatureMatrix.dense(feats[perm]))
    enc = GCNEncoder(5, EncoderConfig(n_layers=2, layer_size=64, norm=norm),
                     np.random.default_rng(2), dtype=np.float64)
    h = enc.forward(g, mode="train").values
    h_perm = enc.forward(g_perm, mode="train").values
    assert np.allclose(h[perm], h_perm, atol=1e-10)


def test_encoder_identity_features_match_materialized():
    # a column mask on the identity zeroes exactly those columns of I
    g = two_triangles()
    mask = np.array([1.0, 0.0, 1.0, 1.0, 0.0, 1.0])
    masked = dataclasses.replace(FeatureMatrix.identity(6), column_mask=mask)
    g_id = g.with_features(masked)
    g_dense = g.with_features(FeatureMatrix.dense(np.eye(6) * mask))
    enc = GCNEncoder(6, EncoderConfig(n_layers=2, layer_size=64),
                     np.random.default_rng(3))
    h_id = enc.forward(g_id, mode="train").values
    h_dense = enc.forward(g_dense, mode="train").values
    assert np.allclose(h_id, h_dense, atol=1e-12)


def test_encoder_masked_dense_features_match_premasked_bits():
    # X (m[:, None] * W) gives the bits of (X diag(m)) W, forward and back
    g = two_triangles()
    values = np.random.default_rng(8).normal(size=(6, 5))
    mask = np.array([1.0, 0.0, 1.0, 0.0, 1.0])
    enc = GCNEncoder(5, EncoderConfig(n_layers=2, layer_size=64),
                     np.random.default_rng(9))
    runs = []
    for x in (dataclasses.replace(FeatureMatrix.dense(values),
                                  column_mask=mask),
              FeatureMatrix.dense(values * mask)):
        zero_grads(enc.parameters())
        h = enc.forward(g.with_features(x), mode="train")
        ad.backward(ad.tensor_sum(ad.elementwise_mul(h, h)))
        runs.append((h.values.tobytes(),
                     enc.weights[0].tensor.grad.tobytes()))
    assert runs[0] == runs[1]


def test_encoder_weight_standardization_column_scale_invariance():
    g = two_triangles()
    enc = GCNEncoder(6, EncoderConfig(n_layers=1, layer_size=64,
                                      weight_standardization=True),
                     np.random.default_rng(4))
    base = enc.forward(g, mode="train").values
    enc.weights[0].tensor.values[:, 7] *= 4.0
    enc.weights[0].tensor.values[:, 12] += 3.0
    again = enc.forward(g, mode="train").values
    assert np.allclose(base, again, atol=1e-10)


def test_encoder_batchnorm_running_stats_update_only_in_train_mode():
    g = two_triangles()
    enc = GCNEncoder(6, EncoderConfig(n_layers=1, layer_size=64,
                                      norm="batch"),
                     np.random.default_rng(5))
    before = {k: v.copy() for k, v in enc.bn_states[0].items()}
    enc.forward(g, mode="eval")
    for key, value in before.items():
        assert np.array_equal(enc.bn_states[0][key], value), key
    enc.forward(g, mode="train")
    for key, value in before.items():
        assert not np.array_equal(enc.bn_states[0][key], value), key


def test_encoder_rejects_unknown_mode():
    # an unknown mode must not fall through to batch statistics and
    # silently update the running state
    g = two_triangles()
    enc = GCNEncoder(6, EncoderConfig(n_layers=1, layer_size=64,
                                      norm="batch"),
                     np.random.default_rng(5))
    before = enc.bn_states[0]["running_mean"].copy()
    for mode in ("evaluate", "target"):
        with pytest.raises(ValueError, match="unknown encoder mode"):
            enc.forward(g, mode=mode)
    assert np.array_equal(enc.bn_states[0]["running_mean"], before)


def test_encoder_end_to_end_grace_grad_check():
    g = two_triangles()
    enc = GCNEncoder(6, EncoderConfig(n_layers=1, layer_size=64,
                                      norm="layer"),
                     np.random.default_rng(6), dtype=np.float64)
    proj = Projector(64, 8, np.random.default_rng(7), dtype=np.float64)
    checked = [enc.weights[0].tensor, enc.slopes[0].tensor,
               enc.gammas[0].tensor, enc.betas[0].tensor,
               proj.w1.tensor, proj.b1.tensor]

    def f(*_):
        h1 = enc.forward(g, mode="train")
        h2 = enc.forward(g, mode="train")
        return grace_loss(h1, h2, proj, 0.5)

    assert ad.grad_check(f, checked) < 1e-4


# -------------------------------------------------------- link representation

def test_link_representation_hadamard_rows():
    h = ad.Tensor(np.array([[1.0, 2.0], [3.0, 4.0], [0.0, 0.0]]))
    assert np.allclose(hadamard_pairs(h, [(0, 1)]).values, [[3.0, 8.0]])
    assert np.allclose(hadamard_pairs(h, [(2, 1)]).values, [[0.0, 0.0]])
    head = _float64_link_head(np.random.default_rng(2), dim=2)
    out = link_representation(h, [(0, 1)], head)
    assert np.array_equal(out.values,
                          head.forward(hadamard_pairs(h, [(0, 1)])).values)
    swapped = link_representation(h, [(1, 0)], head)
    assert np.array_equal(out.values, swapped.values)
    zeroed = link_representation(h, [(2, 1)], head)
    assert np.array_equal(zeroed.values,
                          head.forward(ad.Tensor(np.zeros((1, 2)))).values)


def test_link_representation_rejects_out_of_range():
    h = ad.Tensor(np.ones((3, 2)))
    head = _float64_link_head(np.random.default_rng(2), dim=2)
    for pair in ((0, 3), (-1, 0)):
        with pytest.raises(ValueError):
            link_representation(h, [pair], head)


# ----------------------------------------------------------- graph retention
#
# A step's graph holds backward nodes and the arrays their rules read. These
# tests pin the op outputs a model's graph lets go of, so an op that starts
# keeping whole outputs again shows here.


def _output_values(monkeypatch, *ops):
    """Weak references to the values of every output of the named autodiff
    ops, in call order, keyed by op."""
    refs = {op: [] for op in ops}
    for op in ops:
        def spy(*args, _op=getattr(ad, op), _refs=refs[op], **kwargs):
            out = _op(*args, **kwargs)
            _refs.append(weakref.ref(out.values))
            return out
        monkeypatch.setattr(ad, op, spy)
    return refs


def test_mlp_graph_keeps_only_its_input(monkeypatch):
    # a head is one autodiff.mlp: its graph keeps the input rows, which the
    # first weight's gradient reads, and rebuilds the ReLU output in
    # backward instead of keeping it
    rng = np.random.default_rng(0)
    mlp = Projector(8, 16, rng)
    refs = _output_values(monkeypatch, "mlp")
    x = ad.Tensor(rng.normal(size=(5, 8)).astype(np.float32))
    rows = weakref.ref(x.values)
    loss = ad.tensor_sum(mlp.forward(x))
    del x
    (out,) = refs["mlp"]
    assert out() is None
    assert rows() is not None  # the rule reads it
    assert not any(a.shape == (5, 16) for a in _saved_buffers(loss))
    ad.backward(loss)
    assert np.any(mlp.w1.grad != 0.0)
    del loss
    assert rows() is None


@pytest.mark.parametrize("norm", ["batch", "layer"])
def test_encoder_graph_drops_the_propagated_rows(norm, monkeypatch):
    enc = GCNEncoder(6, EncoderConfig(n_layers=2, layer_size=64, norm=norm),
                     np.random.default_rng(4))
    refs = _output_values(monkeypatch, "sparse_matmul")
    loss = ad.tensor_sum(enc.forward(two_triangles(), mode="train"))
    assert len(refs["sparse_matmul"]) == 2
    assert all(ref() is None for ref in refs["sparse_matmul"])
    ad.backward(loss)
    assert np.any(enc.weights[0].grad != 0.0)


def _saved_buffers(loss):
    """The distinct arrays a loss's graph keeps, each as the base array it
    views: every ndarray reachable through tensors, backward nodes, tuples,
    lists, rules' closure cells and sparse matrices."""
    found, seen, stack = {}, set(), [loss]
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            while isinstance(obj.base, np.ndarray):
                obj = obj.base
            found[id(obj)] = obj
        elif sparse.issparse(obj):
            stack.extend(vars(obj).values())
        elif isinstance(obj, types.FunctionType):
            stack.extend(c.cell_contents for c in obj.__closure__ or ())
        elif isinstance(obj, (ad.Tensor, ad._Node, tuple, list)):
            stack.extend(gc.get_referents(obj))
    return list(found.values())


def perfbench_twins():
    """The benchmark's twin generator, perfbench/twins.py, loaded by path."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "twins.py"
    spec = importlib.util.spec_from_file_location("perfbench_twins", path)
    twins = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(twins)
    return twins


def _usair_twin(root):
    """The benchmark's USAir twin (twin seed 1), written under `root`."""
    perfbench_twins().write_twin("USAir", 1, str(root))
    return load_dataset("USAir", root=root)


def test_one_lgrace_step_keeps_each_link_row_once(monkeypatch, tmp_path):
    # the first step of the usair-lgrace bench seed (run seed 1): each
    # link set's rows are one pair_mlp, and both views' rows are
    # normalized stacked, so the graph keeps neither the gathered (k, d)
    # endpoints nor a concatenated copy of the normalized rows
    graph = _usair_twin(tmp_path)
    cfg = ExperimentConfig(dataset="USAir", model="lgrace", ct_epochs=100,
                           seeds=(1,))
    split = runner.seed_split(graph, cfg, 1)
    seed = derive_seed(1, "train")
    state = _init_state("lgrace", split.train_graph.features.n_cols, cfg,
                        seed)
    v1, v2 = make_views(split.train_graph, cfg.augmentation, None,
                        seed=derive_seed(seed, "augment", 0))
    edge_pos, edge_neg = select_link_sets(v1, v2,
                                          derive_seed(seed, "negatives", 0))
    k = len(edge_pos)
    embeddings = []

    def keep(view, mode="train", _forward=state.encoder.forward):
        h = _forward(view, mode)
        embeddings.append(h.values)
        return h

    monkeypatch.setattr(state.encoder, "forward", keep)
    refs = _output_values(monkeypatch, "concat_rows", "row_l2_normalize")
    (loss,) = _encoder_terms(state, v1, v2, edge_pos, edge_neg, cfg)
    saved = _saved_buffers(loss)

    endpoints = [h[edges[:, side]] for h in embeddings
                 for edges in (edge_pos, edge_neg) for side in (0, 1)]
    assert len(embeddings) == 2 and k > 900
    assert not any(a.shape == e.shape and np.array_equal(a, e)
                   for a in saved for e in endpoints)
    assert len(refs["concat_rows"]) == 2
    assert all(ref() is None for ref in refs["concat_rows"])
    for ref in refs["row_l2_normalize"]:
        rows = ref()
        assert rows is not None and rows.shape[0] == 2 * k
        assert sum(np.array_equal(a, part) for a in saved
                   for part in (rows, rows[:k], rows[k:])
                   if a.shape == part.shape) == 1
    # measured: 7,040,736 B (6.71 MiB) with pair_mlp link rows, and
    # 12,871,392 B (12.28 MiB) when each link set's graph kept its (k, d)
    # product rows and (k, h) hidden layer; the InfoNCE op's two (2k, d)
    # gradients, the parameters, their grads and the sparse adjacency are
    # included in both
    assert sum(a.nbytes for a in saved) < 8 * 2 ** 20
    ad.backward(loss)
    assert np.any(state.link_mlp.w1.grad != 0.0)


def test_one_lgrace_step_keeps_no_link_mlp_activation():
    # tracemalloc peak of one L-GRACE step above its start, in units of one
    # link set's (k, d) float32 rows; on _planted_split (k = 199, d = h =
    # 64) it measured 25.3 units, 29.3 with the four link sets held by the
    # caller until lgrace_loss returns (CPython < 3.11 keeps call arguments
    # on the caller's stack), and 41.4 with the link-MLP composition,
    # whose graph keeps each set's (k, d) product rows and (k, h) hidden
    # layer (45.5 with the sets also held)
    split = _planted_split()
    cfg = toy_cfg(model="lgrace", encoder=EncoderConfig(
        n_layers=2, layer_size=64, norm="batch"))
    state = _init_state("lgrace", split.train_graph.features.n_cols, cfg,
                        seed=3)
    v1, v2 = make_views(split.train_graph, AugmentationSpec(), None, seed=3)
    edge_pos, edge_neg = select_link_sets(v1, v2, 5)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        value = _descend(_encoder_terms(state, v1, v2, edge_pos, edge_neg,
                                        cfg),
                         0, "lgrace", cfg.weight_decay,
                         (state.online_parameters(), cfg.gnn_lr))
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert np.isfinite(value)
    unit = len(edge_pos) * cfg.encoder.layer_size * 4
    assert len(edge_pos) > 150 and cfg.proj_hidden == 64
    assert peak < 33 * unit
    if sys.version_info >= (3, 11):
        assert peak < 27.5 * unit


def _bootstrap_inputs(model, cfg):
    """_planted_split's train graph, a `model` state and the graph's two
    views at seed 3, and the views' shared links for a link model."""
    graph = _planted_split().train_graph
    state = _init_state(model, graph.features.n_cols, cfg, seed=3)
    v1, v2 = make_views(graph, AugmentationSpec(), None, seed=3)
    edge_pos = (select_link_sets(v1, v2, None)[0] if model in LINK_MODELS
                else None)
    return graph, state, v1, v2, edge_pos


def _one_step(state, v1, v2, edge_pos, cfg):
    """One encoder step of `state` on the views; returns the loss."""
    return _descend(_encoder_terms(state, v1, v2, edge_pos, None, cfg), 0,
                    state.model, cfg.weight_decay,
                    (state.online_parameters(), cfg.gnn_lr))


def _bootstrapped_step_peak(model):
    """tracemalloc peak of one `model` step above its start on
    _planted_split (n = 90, d = 64, the predictor's hidden width 256), in
    units of one (n, d) float32 embedding."""
    cfg = toy_cfg(model=model, proj_hidden=256, encoder=EncoderConfig(
        n_layers=2, layer_size=64, norm="batch"))
    graph, state, v1, v2, edge_pos = _bootstrap_inputs(model, cfg)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        value = _one_step(state, v1, v2, edge_pos, cfg)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert np.isfinite(value)
    assert graph.n == 90
    return peak / (graph.n * cfg.encoder.layer_size * 4)


def test_one_bgrl_step_keeps_no_head_activation():
    # 14.5 units when the step is the process's first, 13.7 after another;
    # 17.7 when backward kept every rule until the graph died and a step
    # held both views' target rows, and 26.5 when the graph also kept each
    # GCN layer's norm output, the predictor's (n, 256) ReLU output and the
    # target's unit rows. CPython < 3.11 keeps the prediction on the
    # caller's stack while the cosine is built (about one unit) and a
    # rule's grad on backward's, hence the looser bound there.
    peak = _bootstrapped_step_peak("bgrl")
    assert peak < 17
    if sys.version_info >= (3, 11):
        assert peak < 16


def test_one_lbgrl_step_keeps_no_head_activation():
    # about 199 shared links (2.2 units a link set): 22.9 units when the
    # step is the process's first, 22.0 after another, and 31.9-32.8 when
    # backward kept every rule until the graph died and a step held both
    # views' target rows. Holding each rule's grad on backward's stack, as
    # CPython < 3.11 does, measured 0.8 units more.
    peak = _bootstrapped_step_peak("lbgrl")
    assert peak < 28
    if sys.version_info >= (3, 11):
        assert peak < 25


def test_bgrl_graph_drops_the_cosine_product(monkeypatch):
    # the cosine is one op: its graph keeps the prediction's unit rows and
    # a reference to the target's values, not the row products and not the
    # target's unit rows, which backward rebuilds
    rng = np.random.default_rng(5)
    pred = ad.Tensor(rng.normal(size=(6, 3)), requires_grad=True)
    target = ad.Tensor(rng.normal(size=(6, 3)))
    refs = _output_values(monkeypatch, "row_cosine_similarity")
    loss = bgrl_loss(pred, target)
    (cos,) = refs["row_cosine_similarity"]
    assert cos() is None
    unit = [v / np.linalg.norm(v, axis=1, keepdims=True)
            for v in (pred.values, target.values)]
    kept = [a for a in _saved_buffers(loss) if a.shape == (6, 3)]
    assert len(kept) == 3  # the two leaves' values and pred's unit rows
    assert any(a is target.values for a in kept)
    assert any(np.allclose(a, unit[0]) for a in kept)
    assert not any(np.allclose(a, unit[1]) or np.allclose(a, unit[0] * unit[1])
                   for a in kept)
    ad.backward(loss)
    assert pred.grad.shape == (6, 3)


def test_bgrl_backward_frees_the_unit_rows_before_the_predictor_rule(
        monkeypatch):
    # backward drops each rule as soon as it returns, so the cosine's saved
    # unit rows â are gone by the time the predictor's rule runs
    rng = np.random.default_rng(5)
    head = Predictor(3, 8, rng, dtype=np.float64)
    x = ad.Tensor(rng.normal(size=(6, 3)), requires_grad=True)
    target = ad.Tensor(rng.normal(size=(6, 3)))
    unit, alive_at_rule = [], []

    def make(values, parents, backward_fn, op, _make=ad._make):
        if op == "mlp":
            def spy(g, nodes):
                alive_at_rule.append(unit[0]() is not None)
                backward_fn(g, nodes)
            return _make(values, parents, spy, op)
        return _make(values, parents, backward_fn, op)

    monkeypatch.setattr(ad, "_make", make)
    pred = head.forward(x)
    ahat = pred.values / np.linalg.norm(pred.values, axis=1, keepdims=True)
    loss = bgrl_loss(pred, target)
    del pred
    (saved,) = [a for a in _saved_buffers(loss)
                if a.shape == (6, 3) and np.allclose(a, ahat)]
    unit.append(weakref.ref(saved))
    del saved
    assert unit[0]() is not None
    ad.backward(loss)
    assert alive_at_rule == [False]
    assert np.any(head.w1.grad != 0.0) and x.grad.shape == (6, 3)


@pytest.mark.parametrize("model", BOOTSTRAPPED)
def test_each_branch_builds_its_own_target_rows(model, monkeypatch):
    # branch 1 reads v2's target rows and branch 2 v1's, which are built
    # only after branch 1 has been differentiated: when the target encoder
    # embeds v1, branch 1's loss and target rows are gone
    from linkssl.models import training

    cfg = toy_cfg(model=model)
    _, state, v1, v2, edge_pos = _bootstrap_inputs(model, cfg)
    losses, targets, calls = [], [], []

    def target_forward(view, mode="train",
                       _forward=state.target_encoder.forward):
        calls.append((view, [ref() is not None for ref in losses + targets]))
        return _forward(view, mode)

    def loss_fn(pred, target, _loss=training.bgrl_loss):
        targets.append(weakref.ref(target.values))
        return _loss(pred, target)

    def backward(loss, _backward=ad.backward):
        losses.append(weakref.ref(loss))
        return _backward(loss)

    monkeypatch.setattr(state.target_encoder, "forward", target_forward)
    monkeypatch.setattr(training, "bgrl_loss", loss_fn)
    monkeypatch.setattr(ad, "backward", backward)
    value = _one_step(state, v1, v2, edge_pos, cfg)
    assert np.isfinite(value)
    assert len(calls) == 2 and calls[0][0] is v2 and calls[1][0] is v1
    assert calls[0][1] == []
    assert calls[1][1] == [False, False]  # branch 1's loss, its target rows


@pytest.mark.parametrize("model", BOOTSTRAPPED)
def test_bootstrapped_branch_graph_dies_before_the_next_branch(model,
                                                               monkeypatch):
    # the predictor's input rows are saved for its first weight's gradient,
    # so they live as long as their branch's graph: alive at that branch's
    # backward, dead when the second branch's online forward starts
    cfg = toy_cfg(model=model)
    _, state, v1, v2, edge_pos = _bootstrap_inputs(model, cfg)
    inputs = []  # the predictor's inputs, one per branch

    def head(x, *params, _mlp=ad.mlp):
        inputs.append(weakref.ref(x.values))
        return _mlp(x, *params)

    monkeypatch.setattr(ad, "mlp", head)
    alive_at_forward, alive_at_backward = [], []

    def forward(view, mode="train", _forward=state.encoder.forward):
        alive_at_forward.append([ref() is not None for ref in inputs])
        return _forward(view, mode)

    def backward(loss, _backward=ad.backward):
        alive_at_backward.append([ref() is not None for ref in inputs])
        return _backward(loss)

    monkeypatch.setattr(state.encoder, "forward", forward)
    monkeypatch.setattr(ad, "backward", backward)
    value = _one_step(state, v1, v2, edge_pos, cfg)
    assert np.isfinite(value)
    assert len(alive_at_forward) == len(alive_at_backward) == 2
    # the target rows come first and need no predictor; L-BGRL's link MLP
    # is a pair_mlp op, not the heads' mlp, so no head input was seen yet
    assert alive_at_forward[0] == []
    first = alive_at_backward[0]
    assert first == [True]  # branch 1's predictor input, read by backward
    assert len(alive_at_forward[1]) == len(first)
    assert not any(alive_at_forward[1])
    assert not any(ref() is not None for ref in inputs)


# ---------------------------------------------------------------- train loops

def _toy_split(seed=1):
    g = two_triangles()
    return random_link_split(g, (0.7, 0.1, 0.2), seed=seed)


def test_train_encoder_grace_loss_decreases():
    split = _toy_split()
    spec = AugmentationSpec(kind="random", drop_edge_rate_1=0.2,
                            drop_edge_rate_2=0.2, drop_feature_rate_1=0.1,
                            drop_feature_rate_2=0.1)
    state = train_encoder(split, spec, "grace", toy_cfg(ct_epochs=100),
                          seed=4)
    losses = [v for _, v in state.loss_history]
    assert losses[-1] < losses[0]
    assert state.epoch == 100


@pytest.mark.parametrize("model", SELF_SUPERVISED)
def test_train_encoder_bit_identical_repeat(model):
    split = _toy_split()
    spec = AugmentationSpec()
    runs = []
    for _ in range(2):
        st = train_encoder(split, spec, model, toy_cfg(ct_epochs=5), seed=9)
        runs.append([p.values.copy() for p in st.online_parameters()]
                    + [t.values.copy() for t, _ in st.tracked]
                    + [np.array(st.loss_history)])
    assert len(runs[0]) == len(runs[1])
    assert all(np.array_equal(a, b, equal_nan=True)
               for a, b in zip(*runs))


# The compositions that built link rows and the InfoNCE losses before
# autodiff.pair_mlp, autodiff.pair_product and the stacked normalization,
# kept as references.

def _gathered_pair_product(x, u, v):
    return ad.elementwise_mul(ad.gather_rows(x, u), ad.gather_rows(x, v))


def _composed_link_representation(h, edges, mlp):
    pairs = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    return mlp.forward(_gathered_pair_product(h, pairs[:, 0], pairs[:, 1]))


def _per_part_gap(den, rows1, rows2, tau):
    pos = ad.scalar_mul(ad.row_sum(ad.elementwise_mul(rows1, rows2)),
                        1.0 / tau)
    return ad.sub(den, ad.tensor_mean(pos))


def _per_part_grace_loss(u_emb, v_emb, projector, tau):
    p1 = ad.row_l2_normalize(projector.forward(u_emb))
    p2 = ad.row_l2_normalize(projector.forward(v_emb))
    both = ad.concat_rows([p1, p2])
    return _per_part_gap(ad.nce_denominator(both, both, tau), p1, p2, tau)


def _per_part_lgrace_loss(z1_pos, z2_pos, z1_neg, z2_neg, tau):
    n1p, n2p, n1n, n2n = (ad.row_l2_normalize(z)
                          for z in (z1_pos, z2_pos, z1_neg, z2_neg))
    den = ad.nce_denominator(ad.concat_rows([n1p, n2p]),
                             ad.concat_rows([n1n, n2n]), tau)
    return _per_part_gap(den, n1p, n2p, tau)


def _planted_split():
    # 3 blocks of 30 nodes; about 180 links survive in both views, so
    # L-GRACE's 2k stacked rows span two NCE_BLOCK_ROWS row blocks
    rng = np.random.default_rng(21)
    blocks = np.arange(90) % 3
    u, v = np.triu_indices(90, 1)
    keep = rng.random(len(u)) < np.where(blocks[u] == blocks[v], 0.3, 0.01)
    g = Graph(90, np.stack([u[keep], v[keep]], axis=1))
    return random_link_split(g, (0.7, 0.1, 0.2), seed=4)


@pytest.mark.parametrize("model", ["grace", "lgrace", "lbgrl"])
def test_training_keeps_the_bits_of_the_per_part_compositions(model,
                                                              monkeypatch):
    from linkssl.models import training

    split = _planted_split()
    spec = AugmentationSpec(drop_edge_rate_1=0.2, drop_edge_rate_2=0.2)
    cfg = toy_cfg(ct_epochs=4, encoder=EncoderConfig(
        n_layers=2, layer_size=64, norm="batch"))

    def trajectory():
        st = train_encoder(split, spec, model, cfg, seed=6)
        return ([p.values.copy() for p in st.online_parameters()]
                + [t.values.copy() for t, _ in st.tracked]
                + [np.array(st.loss_history)])

    now = trajectory()
    called = []

    def reference(fn):
        def spy(*args):
            called.append(fn.__name__)
            return fn(*args)
        return spy

    monkeypatch.setattr(training, "link_representation",
                        reference(_composed_link_representation))
    monkeypatch.setattr(training, "grace_loss",
                        reference(_per_part_grace_loss))
    monkeypatch.setattr(training, "lgrace_loss",
                        reference(_per_part_lgrace_loss))
    before = trajectory()
    assert called and (model == "grace") == (
        "_composed_link_representation" not in called)
    assert len(now) == len(before)
    assert all(a.tobytes() == b.tobytes() for a, b in zip(now, before))
    assert not np.isnan(before[-1][:, 1]).any()


def _joint_bootstrap_terms(state, v1, v2, edge_pos, edge_neg, cfg):
    """The bootstrapped step before branches were differentiated one at a
    time, kept as a reference: both online branches, then both target
    rows, joined by ad.add under one backward."""
    h1 = state.encoder.forward(v1, mode="train")
    h2 = state.encoder.forward(v2, mode="train")
    z1 = _rows(h1, edge_pos, state.link_mlp)
    z2 = _rows(h2, edge_pos, state.link_mlp)
    t1 = _rows(state.target_encoder.forward(v1, mode="train"),
               edge_pos, state.target_link_mlp)
    t2 = _rows(state.target_encoder.forward(v2, mode="train"),
               edge_pos, state.target_link_mlp)
    yield ad.add(bgrl_loss(state.predictor.forward(z1), t2),
                 bgrl_loss(state.predictor.forward(z2), t1))


@pytest.mark.parametrize("model", BOOTSTRAPPED)
def test_bootstrapped_branches_keep_the_bits_of_the_joint_step(model,
                                                               monkeypatch):
    from linkssl.models import training

    split = _planted_split()
    spec = AugmentationSpec(drop_edge_rate_1=0.2, drop_edge_rate_2=0.2)
    cfg = toy_cfg(ct_epochs=4, encoder=EncoderConfig(
        n_layers=2, layer_size=64, norm="batch"))
    backward_calls = []

    def trajectory():
        # the target encoder's BN statistics are left out: its branches see
        # v2 before v1, where the joint step embeds v1 first, and nothing
        # reads them (the target runs only in train mode; embed and
        # params.npz use the online encoder)
        backward_calls.clear()
        st = train_encoder(split, spec, model, cfg, seed=6)
        return ([p.values.copy() for p in st.online_parameters()]
                + [t.values.copy() for t, _ in st.tracked]
                + [s[key].copy() for s in st.encoder.bn_states
                   for key in sorted(s)]
                + [np.array(st.loss_history)])

    def count(loss, _backward=ad.backward):
        backward_calls.append(1)
        return _backward(loss)

    monkeypatch.setattr(ad, "backward", count)
    now = trajectory()
    assert len(backward_calls) == 2 * cfg.ct_epochs
    monkeypatch.setattr(training, "_encoder_terms", _joint_bootstrap_terms)
    before = trajectory()
    assert len(backward_calls) == cfg.ct_epochs
    assert len(now) == len(before)
    assert all(a.tobytes() == b.tobytes() for a, b in zip(now, before))
    assert not np.isnan(before[-1][:, 1]).any()


@pytest.mark.parametrize("stage", [*SELF_SUPERVISED, "decoder",
                                   "gcn_supervised"])
def test_each_step_drops_its_graph_before_the_next(stage, monkeypatch):
    # a step's loss holds its backward nodes and the arrays they saved for
    # backward; a loop name that keeps it until the next step rebinds it
    # doubles what is retained. Views start an encoder epoch, decoder
    # negatives start a decoder or supervised batch.
    from linkssl.models import training

    losses, live = [], []

    def keep_ref(loss, _backward=ad.backward):
        losses.append(weakref.ref(loss))
        return _backward(loss)

    def step_start(fn):
        def spy(*args, **kwargs):
            live.append(sum(ref() is not None for ref in losses))
            return fn(*args, **kwargs)
        return spy

    monkeypatch.setattr(ad, "backward", keep_ref)
    monkeypatch.setattr(training, "make_views",
                        step_start(training.make_views))
    monkeypatch.setattr(training, "sample_negative_pairs",
                        step_start(training.sample_negative_pairs))
    split = _toy_split()
    cfg = toy_cfg(model=stage, ct_epochs=3)
    if stage == "decoder":
        state = _init_state("grace", split.train_graph.features.n_cols, cfg,
                            seed=2)
        train_decoder(state, split, cfg, seed=2)
        steps = terms = DECODER_EPOCHS
    elif stage == "gcn_supervised":
        train_supervised_gcn(split, cfg, seed=2)
        steps = terms = 3
    else:
        spec = AugmentationSpec(drop_edge_rate_1=0.0, drop_edge_rate_2=0.0)
        train_encoder(split, spec, stage, cfg, seed=2)
        # a bootstrapped step differentiates its two branches one by one
        steps, terms = 3, 6 if stage in BOOTSTRAPPED else 3
    assert len(losses) == terms
    assert len(live) == steps
    assert live == [0] * len(live)


def test_freed_step_memory_is_reused_not_faulted_in_again():
    # a step frees its graph at once; a trimmed heap top faults every page
    # in again on the next step (81,601 faults over these 10 cycles with
    # glibc's default thresholds, 0 with the heap kept)
    from linkssl import process

    def step():
        arrays = [np.ones((256, 1024)) for _ in range(16)]  # 16 x 2 MiB
        del arrays

    if not process.keep_freed_heap():
        pytest.skip("needs glibc")
    import resource

    step()
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(10):
        step()
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    assert faults < 32 * 2 ** 20 // 4096  # less than one step's pages


@pytest.mark.parametrize("model, heads", [
    ("grace", {"projector"}), ("bgrl", {"predictor"}),
    ("lgrace", {"link_mlp"}), ("lbgrl", {"link_mlp", "predictor"}),
    ("gcn_supervised", set())])
def test_init_state_heads(model, heads):
    cfg = toy_cfg(model=model)
    state = _init_state(model, 6, cfg, seed=3)
    built = {name for name in ("projector", "predictor", "link_mlp")
             if getattr(state, name) is not None}
    assert built == heads
    online, target = [], []
    if model in ("bgrl", "lbgrl"):
        online = state.encoder.parameters()
        target = state.target_encoder.parameters()
    if model == "lbgrl":
        online = online + state.link_mlp.parameters()
        target = target + state.target_link_mlp.parameters()
    assert [id(o) for _, o in state.tracked] == [id(p) for p in online]
    assert [id(t) for t, _ in state.tracked] == [id(p) for p in target]
    assert [t.name for t in target] == [p.name for p in online]
    assert (state.target_link_mlp is not None) == (model == "lbgrl")
    if model not in ("bgrl", "lbgrl"):
        assert state.target_encoder is None


def _module_arrays(encoder, link_mlp):
    arrays = [bn[k] for bn in encoder.bn_states for k in bn]
    for p in encoder.parameters() + (
            link_mlp.parameters() if link_mlp is not None else []):
        arrays += [a for a in (p.values, p.grad, p.adam_m, p.adam_v)
                   if a is not None]
    return arrays


@pytest.mark.parametrize("model", ["bgrl", "lbgrl"])
@pytest.mark.parametrize("norm", ["batch", "layer"])
def test_target_is_a_frozen_copy_sharing_no_array(model, norm):
    state = train_encoder(_toy_split(), AugmentationSpec(), model,
                          toy_cfg(model=model, ct_epochs=2, norm=norm),
                          seed=4)
    online = _module_arrays(state.encoder, state.link_mlp)
    target = _module_arrays(state.target_encoder, state.target_link_mlp)
    assert len(target) > 0
    assert not any(np.shares_memory(t, o) for t in target for o in online)
    copies = state.target_encoder.parameters()
    if model == "lbgrl":
        copies = copies + state.target_link_mlp.parameters()
    assert [t for t, _ in state.tracked] == copies
    for t in copies:
        assert not t.tensor.requires_grad
        assert t.tensor.grad is None
        assert t.tensor._backward_fn is None


@pytest.mark.parametrize("model", ["bgrl", "lbgrl"])
def test_target_parameters_hold_no_adam_moments(model):
    # the target moves by EMA only; Adam moments copied from the online
    # parameters would be dead arrays
    state = train_encoder(_toy_split(), AugmentationSpec(), model,
                          toy_cfg(model=model, ct_epochs=2), seed=4)
    assert state.tracked
    for target, online in state.tracked:
        assert target.adam_m is None and target.adam_v is None
        assert online.adam_m is not None and online.adam_v is not None


def test_train_encoder_seed_changes_trajectory():
    split = _toy_split()
    spec = AugmentationSpec()
    st1 = train_encoder(split, spec, "grace", toy_cfg(ct_epochs=5), seed=1)
    st2 = train_encoder(split, spec, "grace", toy_cfg(ct_epochs=5), seed=2)
    diffs = [not np.array_equal(a.values, b.values)
             for a, b in zip(st1.online_parameters(),
                             st2.online_parameters())]
    assert any(diffs)


@pytest.mark.parametrize("model", ["bgrl", "lbgrl"])
def test_ema_target_replay(model):
    # determinism lets the 1-, 2- and 3-epoch runs expose the online
    # trajectory; the final target must equal the EMA recursion over it
    split = _toy_split()
    spec = AugmentationSpec(drop_edge_rate_1=0.1, drop_edge_rate_2=0.1)
    cfgs = {t: toy_cfg(model=model, ct_epochs=t) for t in (0, 1, 2, 3)}
    states = {t: train_encoder(split, spec, model, cfgs[t], seed=6)
              for t in (0, 1, 2, 3)}
    final = states[3]
    decay = cfgs[3].ema_decay
    for i, (target, _) in enumerate(final.tracked):
        shadow = states[0].tracked[i][1].values.copy()
        for t in (1, 2, 3):
            shadow *= decay
            shadow += (1.0 - decay) * states[t].tracked[i][1].values
        assert np.array_equal(target.values, shadow), target.name


def test_train_encoder_skips_empty_intersection_epochs():
    g = Graph(4, np.array([(0, 1), (1, 2), (2, 3)]))
    split = random_link_split(g, (1.0, 0.0, 0.0), seed=0)
    spec = AugmentationSpec(drop_edge_rate_1=0.9, drop_edge_rate_2=0.9)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        state = train_encoder(split, spec, "lgrace", toy_cfg(ct_epochs=30),
                              seed=0)
    skipped = [v for _, v in state.loss_history if not np.isfinite(v)]
    assert skipped
    assert any("share no edge" in str(w.message) for w in caught)


def test_train_encoder_detects_blocks_when_needed():
    split = _toy_split()
    spec = AugmentationSpec(kind="scom", drop_edge_rate_1=0.3,
                            drop_edge_rate_2=0.3)
    state = train_encoder(split, spec, "grace", toy_cfg(ct_epochs=5), seed=2)
    assert state.epoch == 5


@pytest.fixture
def louvain_calls(monkeypatch):
    """Edge counts of the graphs community.louvain is called on."""
    calls = []

    def spy(g, seed=0):
        calls.append(g.num_edges)
        return louvain(g, seed)

    monkeypatch.setattr(community, "louvain", spy)
    return calls


@pytest.mark.parametrize("kind", ["sbm_oracle", "sbm", "sbm2", "scom",
                                  "random", "deg", "evc", "pr"])
def test_train_encoder_detects_blocks_once_on_the_right_graph(kind,
                                                             louvain_calls):
    split = _toy_split()
    state = train_encoder(split, AugmentationSpec(kind=kind), "grace",
                          toy_cfg(ct_epochs=2), seed=2)
    if kind == "sbm_oracle":
        expected = [split.graph.num_edges]
    elif kind in ("sbm", "sbm2", "scom"):
        expected = [split.train_graph.num_edges]
    else:
        expected = []
    assert louvain_calls == expected
    assert state.detector_edges == (expected[0] if expected else None)


@pytest.mark.parametrize("kind", ["sbm_oracle", "sbm", "sbm2", "scom",
                                  "random", "deg"])
def test_train_encoder_fits_blocks_once_per_call(kind, monkeypatch):
    # the views of every epoch read one BlockEdgeCounts, tallied on the
    # train graph; augment itself never fits one
    fit = sbm.fit_block_counts
    fitted = []

    def spy(g, b):
        fitted.append(g.num_edges)
        return fit(g, b)

    monkeypatch.setattr(sbm, "fit_block_counts", spy)
    split = _toy_split()
    train_encoder(split, AugmentationSpec(kind=kind), "grace",
                  toy_cfg(ct_epochs=4), seed=2)
    needs_blocks = kind in ("sbm_oracle", "sbm", "sbm2", "scom")
    assert fitted == ([split.train_graph.num_edges] if needs_blocks else [])
    assert not hasattr(augment, "fit_block_counts")


def test_supervised_gcn_never_detects_blocks(louvain_calls):
    cfg = ExperimentConfig(
        model="gcn_supervised", augmentation=AugmentationSpec(kind="sbm"),
        encoder=EncoderConfig(n_layers=1, layer_size=64, norm="layer"),
        ct_epochs=100, proj_hidden=64, seeds=(1,))
    result = runner.run_single(two_triangles(), cfg, seed=1, k=None)
    assert louvain_calls == []
    assert result.detector_edges is None


def test_train_encoder_rejects_unknown_model():
    with pytest.raises(ValueError):
        train_encoder(_toy_split(), AugmentationSpec(), "gcn_supervised",
                      toy_cfg(), seed=0)


# -------------------------------------------------------------- decoder stage

class StubEncoder:
    def __init__(self, h, layer_size=64):
        self._h = h
        self.cfg = EncoderConfig(layer_size=layer_size)

    def forward(self, graph, mode="train"):
        return ad.Tensor(self._h)


def _two_cliques_split():
    edges = [(u, v) for u in range(4) for v in range(u + 1, 4)]
    edges += [(u + 4, v + 4) for u, v in edges]
    g = Graph(8, np.array(edges))
    return random_link_split(g, (0.8, 0.0, 0.2), seed=3)


def test_train_decoder_separable_embeddings_reach_full_accuracy():
    split = _two_cliques_split()
    h = np.zeros((8, 64))
    h[:4, 0] = 1.0
    h[4:, 1] = 1.0
    state = SimpleNamespace(encoder=StubEncoder(h))
    dec = train_decoder(state, split, toy_cfg(loss_func="bce"), seed=5)
    pos_scores = predict_scores(state, dec, split.train_graph,
                                split.train_pos)
    cross = [(u, v) for u in range(4) for v in range(4, 8)]
    neg_scores = predict_scores(state, dec, split.train_graph, cross)
    assert (pos_scores > 0.5).all()
    assert (neg_scores < 0.5).all()


@pytest.mark.parametrize("loss_func", ["bce", "log_sig"])
def test_train_decoder_loss_funcs_run(loss_func):
    split = _two_cliques_split()
    h = np.random.default_rng(6).normal(size=(8, 64))
    state = SimpleNamespace(encoder=StubEncoder(h))
    dec = train_decoder(state, split, toy_cfg(loss_func=loss_func), seed=5)
    s = predict_scores(state, dec, split.train_graph, split.train_pos)
    assert s.shape == (len(split.train_pos),)
    assert ((s > 0.0) & (s < 1.0)).all()


def test_loss_func_keys_select_the_same_decoder_objective():
    split = _two_cliques_split()
    h = np.random.default_rng(6).normal(size=(8, 64))
    state = SimpleNamespace(encoder=StubEncoder(h))
    bce = train_decoder(state, split, toy_cfg(loss_func="bce"), seed=5)
    log_sig = train_decoder(state, split, toy_cfg(loss_func="log_sig"),
                            seed=5)
    for a, b in zip(bce.parameters(), log_sig.parameters()):
        assert np.array_equal(a.values, b.values)


@pytest.mark.parametrize("logit,label", [(40.0, 0.0), (-40.0, 1.0)])
def test_decoder_objective_stable_when_confidently_wrong(logit, label):
    # softplus(40) = 40 + log1p(exp(-40)) = 40 to ~4e-18; a log(sigmoid)
    # clamped at 1e-12 would read -log(1e-12) = 27.63 and have no gradient
    decoder = Decoder(2, 2, np.random.default_rng(0))
    for p in decoder.parameters():
        p.values[...] = 0.0
    decoder.mlp.b2.values[...] = logit
    loss = _decoder_objective(decoder, ad.Tensor(np.ones((1, 2))),
                              np.array([label]))
    assert abs(loss.item() - 40.0) < 1e-12
    ad.backward(loss)
    assert abs(decoder.mlp.b2.grad.item()) > 0.5


def test_train_decoder_zero_embeddings_constant_scores():
    split = _two_cliques_split()
    state = SimpleNamespace(encoder=StubEncoder(np.zeros((8, 64))))
    dec = train_decoder(state, split, toy_cfg(), seed=7)
    s = predict_scores(state, dec, split.train_graph,
                       [(0, 1), (0, 5), (2, 7), (3, 4)])
    assert np.allclose(s, s[0])


def test_train_decoder_mask_input_changes_training():
    split = _two_cliques_split()
    h = np.random.default_rng(8).normal(size=(8, 64))
    state = SimpleNamespace(encoder=StubEncoder(h))
    dec_plain = train_decoder(state, split, toy_cfg(mask_input=False), seed=9)
    dec_masked = train_decoder(state, split, toy_cfg(mask_input=True), seed=9)
    a = predict_scores(state, dec_plain, split.train_graph, split.train_pos)
    b = predict_scores(state, dec_masked, split.train_graph, split.train_pos)
    assert not np.allclose(a, b)


def test_predict_scores_contracts():
    split = _two_cliques_split()
    h = np.random.default_rng(10).normal(size=(8, 64))
    state = SimpleNamespace(encoder=StubEncoder(h))
    dec = train_decoder(state, split, toy_cfg(), seed=11)
    pairs = [(0, 5), (5, 0), (1, 6)]
    s = predict_scores(state, dec, split.train_graph, pairs)
    assert s.shape == (3,)
    assert s[0] == s[1]
    assert ((s > 0.0) & (s < 1.0)).all()
    again = predict_scores(state, dec, split.train_graph, pairs)
    assert np.array_equal(s, again)


def test_score_embeds_the_train_graph_once():
    # evaluate_split scores positives and then negatives; both come from
    # one embedding, with the bits of a predict_scores call on each
    split = _two_cliques_split()
    h = np.random.default_rng(10).normal(size=(8, 64))
    state = SimpleNamespace(encoder=StubEncoder(h))
    dec = train_decoder(state, split, toy_cfg(), seed=11)
    embedded, scored = [], []

    def forward(graph, mode="train", _forward=state.encoder.forward):
        embedded.append((graph, mode))
        return _forward(graph, mode)

    def scorer(pairs):
        scored.append(np.array(pairs))
        return predict_scores(state, dec, split.train_graph, pairs)

    state.encoder.forward = forward
    got = runner._score(split, state, dec, [("evaluate", 5)],
                        split.test_pos, 2)
    assert embedded == [(split.train_graph, "eval")]
    assert evaluate_split(scorer, split, split.test_pos, 2, 5) == got
    assert [p.shape for p in scored] == [(len(split.test_pos), 2)] * 2


@pytest.mark.parametrize("pair", [(-1, 0), (0, 8)])
def test_predict_scores_rejects_ids_outside_the_graph(pair):
    # a negative id used to wrap to the score of row n - 1, and an id of n
    # or more raised a bare IndexError
    split = _two_cliques_split()
    h = np.random.default_rng(10).normal(size=(8, 64))
    state = SimpleNamespace(encoder=StubEncoder(h))
    dec = train_decoder(state, split, toy_cfg(), seed=11)
    bad = min(pair) if min(pair) < 0 else max(pair)
    with pytest.raises(ValueError, match=rf"pair id {bad} .*n = 8"):
        predict_scores(state, dec, split.train_graph, [pair])


def test_train_supervised_gcn_separates_cliques():
    split = _two_cliques_split()
    cfg = toy_cfg(model="gcn_supervised", ct_epochs=100,
                  encoder=EncoderConfig(n_layers=2, layer_size=64,
                                        norm="layer"))
    state, dec = train_supervised_gcn(split, cfg, seed=12)
    pos = predict_scores(state, dec, split.train_graph, split.train_pos)
    cross = [(u, v) for u in range(4) for v in range(4, 8)]
    neg = predict_scores(state, dec, split.train_graph, cross)
    assert pos.mean() > neg.mean() + 0.2


def test_train_supervised_gcn_records_each_epochs_mean_batch_loss(
        monkeypatch):
    from linkssl.models import training

    split = _toy_split()
    cfg = toy_cfg(model="gcn_supervised", ct_epochs=4, batch_size=2)
    values = []

    def keep_value(*args, _descend=training._descend):
        values.append(_descend(*args))
        return values[-1]

    monkeypatch.setattr(training, "_descend", keep_value)
    state, _ = train_supervised_gcn(split, cfg, seed=5)
    batches = -(-len(split.train_pos) // cfg.batch_size)
    assert batches > 1 and len(values) == cfg.ct_epochs * batches
    assert [e for e, _ in state.loss_history] == list(range(cfg.ct_epochs))
    assert all(np.isfinite(v) for _, v in state.loss_history)
    assert [v for _, v in state.loss_history] == [
        float(np.mean(values[e * batches:(e + 1) * batches]))
        for e in range(cfg.ct_epochs)]


def test_embed_uses_eval_mode_running_stats():
    split = _toy_split()
    spec = AugmentationSpec()
    state = train_encoder(split, spec, "grace",
                          toy_cfg(ct_epochs=5, norm="batch"), seed=3)
    h1 = embed(state, split.train_graph)
    h2 = embed(state, split.train_graph)
    assert np.array_equal(h1, h2)
    assert h1.shape == (6, 64)
