"""Training loops: the four self-supervised encoders, the frozen-encoder
decoder stage, and the jointly trained supervised GCN.

Every random draw is addressed through the seed lineage (init, per-epoch
augmentation, per-epoch/per-batch negatives, decoder shuffling/masking), so
one (config, seed) pair maps to one bit-exact parameter trajectory.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .. import autodiff as ad
from ..augment import make_views
from ..community import get_detector
from ..graphs import sample_negative_pairs
from ..optim import EmaShadow, adam_step, ema_update, zero_grads
from ..seeding import derive_rng, derive_seed
from .losses import bgrl_loss, grace_loss, lgrace_loss, select_link_sets
from .nets import (Decoder, GCNEncoder, LinkMLP, Predictor, Projector,
                   hadamard_pairs, link_representation)

DECODER_EPOCHS = 100  # fixed decoder budget, not searched
DECODER_MASK_RATE = 0.1

SELF_SUPERVISED = ("grace", "bgrl", "lgrace", "lbgrl")


@dataclass
class TrainState:
    model: str
    encoder: GCNEncoder
    projector: Projector | None = None
    predictor: Predictor | None = None
    link_mlp: LinkMLP | None = None
    shadows: dict = field(default_factory=dict)
    tracked: list = field(default_factory=list)
    epoch: int = 0
    seed: int = 0
    loss_history: list = field(default_factory=list)

    def online_parameters(self):
        params = list(self.encoder.parameters())
        for head in (self.projector, self.predictor, self.link_mlp):
            if head is not None:
                params.extend(head.parameters())
        return params

    def shadow_tensors(self):
        return {name: shadow.as_tensor()
                for name, shadow in self.shadows.items()}


def _check_finite(value, epoch, model):
    if not np.isfinite(value):
        raise RuntimeError(
            f"{model} training diverged: loss={value} at epoch {epoch}")


def _init_state(model, in_dim, cfg, seed):
    """Encoder plus the heads `model` trains; "gcn_supervised" gets none."""
    rng = derive_rng(seed, "init")
    encoder = GCNEncoder(in_dim, cfg.encoder, rng)
    d = cfg.encoder.layer_size
    state = TrainState(model=model, encoder=encoder, seed=seed)
    if model == "grace":
        state.projector = Projector(d, cfg.proj_hidden, rng)
    elif model == "bgrl":
        state.predictor = Predictor(d, cfg.proj_hidden, rng)
    elif model == "lgrace":
        state.link_mlp = LinkMLP(d, cfg.proj_hidden, rng)
    elif model == "lbgrl":
        state.link_mlp = LinkMLP(d, cfg.proj_hidden, rng)
        state.predictor = Predictor(d, cfg.proj_hidden, rng)
    if model in ("bgrl", "lbgrl"):
        state.tracked = list(encoder.parameters())
        if state.link_mlp is not None:
            state.tracked.extend(state.link_mlp.parameters())
        state.shadows = {p.name: EmaShadow(p, cfg.ema_decay)
                         for p in state.tracked}
    return state


def _epoch_views(graph, spec, block_state, seed, epoch):
    return make_views(graph, spec, block_state,
                      seed=derive_seed(seed, "augment", epoch))


def train_encoder(split, spec, model, cfg, seed, block_state=None):
    """Self-supervised encoder training on the train graph only.

    block_state, when the augmentation needs one and none is supplied, is
    detected on the train graph; the oracle variant passes a pre-split
    detection in from the caller. Epochs whose views share no edge (link
    models only) are skipped with a warning.
    """
    if model not in SELF_SUPERVISED:
        raise ValueError(f"unknown self-supervised model {model!r}")
    graph = split.train_graph
    if spec.needs_block_state() and block_state is None:
        detector = get_detector(spec.detector)
        block_state = detector(graph, derive_seed(seed, "detection"))
    state = _init_state(model, graph.features.n_cols, cfg, seed)
    params = state.online_parameters()

    for epoch in range(cfg.ct_epochs):
        v1, v2 = _epoch_views(graph, spec, block_state, seed, epoch)
        if model == "grace":
            h1 = state.encoder.forward(v1, mode="train")
            h2 = state.encoder.forward(v2, mode="train")
            loss = grace_loss(h1, h2, state.projector, cfg.tau)
        elif model == "bgrl":
            h1 = state.encoder.forward(v1, mode="train")
            h2 = state.encoder.forward(v2, mode="train")
            shadow = state.shadow_tensors()
            t1 = state.encoder.forward(v1, mode="target", weight_source=shadow)
            t2 = state.encoder.forward(v2, mode="target", weight_source=shadow)
            loss = ad.add(
                bgrl_loss(state.predictor.forward(h1), t2),
                bgrl_loss(state.predictor.forward(h2), t1))
        else:
            neg_seed = derive_seed(seed, "negatives", epoch)
            edge_pos, edge_neg = select_link_sets(v1, v2, neg_seed)
            if len(edge_pos) == 0:
                warnings.warn(
                    f"epoch {epoch}: views share no edge, skipping")
                state.loss_history.append((epoch, float("nan")))
                continue
            h1 = state.encoder.forward(v1, mode="train")
            h2 = state.encoder.forward(v2, mode="train")
            if model == "lgrace":
                loss = lgrace_loss(
                    link_representation(h1, edge_pos, state.link_mlp),
                    link_representation(h2, edge_pos, state.link_mlp),
                    link_representation(h1, edge_neg, state.link_mlp),
                    link_representation(h2, edge_neg, state.link_mlp),
                    cfg.tau)
            else:
                shadow = state.shadow_tensors()
                t1 = state.encoder.forward(v1, mode="target",
                                           weight_source=shadow)
                t2 = state.encoder.forward(v2, mode="target",
                                           weight_source=shadow)
                z1 = link_representation(h1, edge_pos, state.link_mlp)
                z2 = link_representation(h2, edge_pos, state.link_mlp)
                tz1 = link_representation(t1, edge_pos, state.link_mlp,
                                          weight_source=shadow)
                tz2 = link_representation(t2, edge_pos, state.link_mlp,
                                          weight_source=shadow)
                loss = ad.add(
                    bgrl_loss(state.predictor.forward(z1), tz2),
                    bgrl_loss(state.predictor.forward(z2), tz1))
        value = loss.item()
        _check_finite(value, epoch, model)
        ad.backward(loss)
        adam_step(params, lr=cfg.gnn_lr, weight_decay=cfg.weight_decay)
        zero_grads(params)
        for p in state.tracked:
            ema_update(state.shadows[p.name], p)
        state.loss_history.append((epoch, value))
        state.epoch = epoch + 1
    return state


def embed(state, graph):
    """Frozen-encoder node embeddings (running-stat normalization)."""
    return state.encoder.forward(graph, mode="eval").values


def _decoder_objective(decoder, z, labels):
    """Binary link loss on Hadamard inputs z (Tensor) with 0/1 labels.

    mean softplus(-sign * logit), sign +1 for positives and -1 for
    negatives: binary cross-entropy on the sigmoid, stable at any logit.
    Both `loss_func` keys ("bce", "log_sig") select it.
    """
    logits = decoder.logits(z)
    sign = ad.Tensor(np.where(labels.reshape(-1, 1) > 0.5, -1.0, 1.0))
    zeros = ad.Tensor(np.zeros_like(labels.reshape(-1, 1)))
    return ad.tensor_mean(ad.logaddexp(zeros, ad.elementwise_mul(logits,
                                                                 sign)))


def _decoder_batches(split, cfg, seed, epochs, dim):
    """Mini-batches of decoder pairs: (epoch, pairs, labels, input mask).

    Each epoch shuffles train_pos; each batch of positives (size clamped to
    the positive count) is followed by as many fresh negatives, which avoid
    every known positive. The per-epoch 0/1 input mask over `dim` columns
    is None unless cfg.mask_input.
    """
    train_pos = split.train_pos
    if len(train_pos) == 0:
        raise ValueError("decoder training needs at least one positive edge")
    known = split.known_graph()
    batch = min(cfg.batch_size, len(train_pos))
    for epoch in range(epochs):
        order = derive_rng(seed, "decoder_order", epoch).permutation(
            len(train_pos))
        mask = None
        if cfg.mask_input:
            mask = (derive_rng(seed, "decoder_mask", epoch).random(dim)
                    >= DECODER_MASK_RATE).astype(np.float64)
        for bi, start in enumerate(range(0, len(train_pos), batch)):
            pos = train_pos[order[start:start + batch]]
            neg = sample_negative_pairs(
                known, len(pos),
                seed=derive_seed(seed, "decoder_neg", epoch, bi))
            labels = np.concatenate([np.ones(len(pos)), np.zeros(len(neg))])
            yield epoch, np.concatenate([pos, neg]), labels, mask


def train_decoder(state, split, cfg, seed):
    """Decoder stage: 100 epochs of batched link classification on frozen
    embeddings; positives from train_pos, fresh negatives per batch, batch
    size clamped to the positive count; optional input masking."""
    h = embed(state, split.train_graph)
    decoder = Decoder(h.shape[1], state.encoder.cfg.layer_size,
                      derive_rng(seed, "decoder_init"))
    params = decoder.parameters()
    for epoch, pairs, labels, mask in _decoder_batches(
            split, cfg, seed, DECODER_EPOCHS, h.shape[1]):
        z = h[pairs[:, 0]] * h[pairs[:, 1]]
        if mask is not None:
            z = z * mask
        loss = _decoder_objective(decoder, ad.Tensor(z), labels)
        _check_finite(loss.item(), epoch, "decoder")
        ad.backward(loss)
        adam_step(params, lr=cfg.pred_lr, weight_decay=cfg.weight_decay)
        zero_grads(params)
    return decoder


def train_supervised_gcn(split, cfg, seed):
    """Joint encoder+decoder optimization with the decoder loss; same
    architecture as the frozen pipeline, trained end-to-end."""
    graph = split.train_graph
    state = _init_state("gcn_supervised", graph.features.n_cols, cfg, seed)
    decoder = Decoder(cfg.encoder.layer_size, cfg.encoder.layer_size,
                      derive_rng(seed, "decoder_init"))
    enc_params = state.encoder.parameters()
    dec_params = decoder.parameters()
    for epoch, pairs, labels, mask in _decoder_batches(
            split, cfg, seed, cfg.ct_epochs, cfg.encoder.layer_size):
        h = state.encoder.forward(graph, mode="train")
        z = hadamard_pairs(h, pairs)
        if mask is not None:
            z = ad.elementwise_mul(z, ad.Tensor(mask.reshape(1, -1)))
        loss = _decoder_objective(decoder, z, labels)
        _check_finite(loss.item(), epoch, "gcn_supervised")
        ad.backward(loss)
        adam_step(enc_params, lr=cfg.gnn_lr, weight_decay=cfg.weight_decay)
        adam_step(dec_params, lr=cfg.pred_lr, weight_decay=cfg.weight_decay)
        zero_grads(enc_params)
        zero_grads(dec_params)
        state.epoch = epoch + 1
    return state, decoder


def predict_scores(state, decoder, graph, pairs):
    """Sigmoid link scores for (u, v) pairs; deterministic, order-preserving,
    symmetric in each pair."""
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    h = embed(state, graph)
    z = h[pairs[:, 0]] * h[pairs[:, 1]]
    return decoder.scores(ad.Tensor(z)).values.ravel()
