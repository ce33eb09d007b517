"""Training loops: the four self-supervised encoders, the frozen-encoder
decoder stage, and the jointly trained supervised GCN.

BGRL and L-BGRL bootstrap against a target network: a deep copy of the
online encoder (and, for L-BGRL, of the link MLP) whose tensors never
require grad and which each epoch moves toward the online weights by EMA.

Every random draw is addressed through the seed lineage (init, per-epoch
augmentation, per-epoch/per-batch negatives, decoder shuffling/masking), so
one (config, seed) pair maps to one bit-exact parameter trajectory.

A step is a sequence of loss terms (`_descend`): each term is built,
differentiated and dropped before the next is built, and Adam steps once
after the last. GRACE, L-GRACE, the decoder and the supervised GCN have one
term. BGRL and L-BGRL have two, their symmetric loss's branches, so a step
holds one branch's graph at a time, with the same bits as one backward
through the summed branches. On the NS twin's BGRL/SBM seed that cut the
encoder stage's tracemalloc peak from 25.2 to 19.0 MiB and the seed's peak
RSS by about 8 MB. Each branch also builds the target rows it reads (v2's
for branch 1, v1's for branch 2) only when it is built, so a step holds
one branch's target rows as well, and backward consumes each graph as it
runs, freeing each rule's saved arrays before the next rule runs. Those
two cut a BGRL step's tracemalloc peak on a 90-node planted graph from
17.7 to 14.5 (n, d) units and an L-BGRL step's from 31.9 to 22.9, and the
NS twin's BGRL/SBM seed's encoder stage from 14.7 to 13.2 MiB.
"""

from __future__ import annotations

import copy
import itertools
import warnings
from dataclasses import dataclass, field

import numpy as np

from .. import autodiff as ad
from .. import community, process, sbm
from ..augment import make_views
from ..graphs import sample_negative_pairs
from ..optim import adam_step, ema_update, zero_grads
from ..seeding import derive_rng, derive_seed
from .losses import bgrl_loss, grace_loss, lgrace_loss, select_link_sets
from .nets import (Decoder, GCNEncoder, LinkMLP, Predictor, Projector,
                   hadamard_pairs, link_representation)

DECODER_EPOCHS = 100  # fixed decoder budget, not searched
DECODER_MASK_RATE = 0.1

SELF_SUPERVISED = ("grace", "bgrl", "lgrace", "lbgrl")
# the paper's two axes: objectives over link rows instead of node rows, and
# a bootstrapped EMA target instead of contrasted negatives
LINK_MODELS = ("lgrace", "lbgrl")
BOOTSTRAPPED = ("bgrl", "lbgrl")


@dataclass
class TrainState:
    model: str
    encoder: GCNEncoder
    projector: Projector | None = None
    predictor: Predictor | None = None
    link_mlp: LinkMLP | None = None
    target_encoder: GCNEncoder | None = None
    target_link_mlp: LinkMLP | None = None
    tracked: list = field(default_factory=list)  # (target, online) pairs
    epoch: int = 0
    loss_history: list = field(default_factory=list)
    # set when the augmentation needed blocks: Louvain's seed, the edge
    # count of the graph it ran on, and the number of blocks it found
    detection_seed: int | None = None
    detector_edges: int | None = None
    detected_blocks: int | None = None

    def online_parameters(self):
        return _parameters(self.encoder, self.projector, self.predictor,
                           self.link_mlp)


def _parameters(*modules):
    return [p for m in modules if m is not None for p in m.parameters()]


def _descend(terms, epoch, model, weight_decay, *groups):
    """One optimizer step over a loss that is the sum of `terms`: check
    that each term is finite and backpropagate it, then step Adam on each
    (params, lr) group and zero their grads. Returns the sum of the terms'
    values, added in their dtype as `ad.add` would.

    Each term is differentiated and dropped before the next is built, so
    when `terms` is a generator (the bootstrapped models' two branches) a
    step holds one term's graph at a time. Each parameter receives one
    gradient contribution per term, and addition commutes, so the grads are
    those of one backward through the summed terms. The loop name is
    deleted before the generator resumes: holding it would keep the last
    term's graph alive while the next is built.
    """
    total = None
    for term in terms:
        value = term.values
        if not np.isfinite(value).all():
            raise RuntimeError(f"{model} training diverged: "
                               f"loss={value.item()} at epoch {epoch}")
        ad.backward(term)
        total = value if total is None else total + value
        del term
    for params, lr in groups:
        adam_step(params, lr=lr, weight_decay=weight_decay)
    zero_grads(p for params, _ in groups for p in params)
    return total.item()


def _init_state(model, in_dim, cfg, seed):
    """Encoder plus the heads `model` trains; "gcn_supervised" gets none."""
    rng = derive_rng(seed, "init")
    encoder = GCNEncoder(in_dim, cfg.encoder, rng)
    d = cfg.encoder.layer_size
    state = TrainState(model=model, encoder=encoder)
    if model in LINK_MODELS:
        state.link_mlp = LinkMLP(d, cfg.proj_hidden, rng)
    elif model in SELF_SUPERVISED and model not in BOOTSTRAPPED:
        state.projector = Projector(d, cfg.proj_hidden, rng)
    if model in BOOTSTRAPPED:
        state.predictor = Predictor(d, cfg.proj_hidden, rng)
        state.target_encoder, state.target_link_mlp = copy.deepcopy(
            (encoder, state.link_mlp))
        targets = _parameters(state.target_encoder, state.target_link_mlp)
        for p in targets:
            p.tensor.requires_grad = False
            p.tensor.grad = None
            p.adam_m = p.adam_v = None
        state.tracked = list(zip(targets,
                                 _parameters(encoder, state.link_mlp)))
    return state


def _rows(h, edges, link_mlp):
    """The rows an objective compares: node embeddings as they are, or one
    link representation per edge when `edges` is given."""
    if edges is None:
        return h
    return link_representation(h, edges, link_mlp)


def _bootstrap_branch(state, view, other, edge_pos):
    """One bootstrapped term: the online rows of `view`, predicted, against
    the target rows of the `other` view, which are built first and need no
    graph."""
    target = _rows(state.target_encoder.forward(other, mode="train"),
                   edge_pos, state.target_link_mlp)
    online = _rows(state.encoder.forward(view, mode="train"), edge_pos,
                   state.link_mlp)
    return bgrl_loss(state.predictor.forward(online), target)


def _encoder_terms(state, v1, v2, edge_pos, edge_neg, cfg):
    """One epoch's loss terms, from the two views: one InfoNCE term, or the
    two bootstrapped branches, the second built only after `_descend` has
    differentiated and dropped the first. Each branch builds its own target
    rows, so a step never holds both: branch 1 reads v2's and branch 2
    v1's. The branches are yielded as expressions, so no local name keeps
    the first one's graph alive. L-GRACE's four link sets are argument
    expressions too, so once lgrace_loss has stacked them nothing holds
    their rows (on CPython >= 3.11, which moves call arguments into the
    callee's frame). The online encoder sees v1 before v2 and the target
    encoder v2 before v1, so their batch-norm statistics update in those
    orders; nothing reads the target's, which runs only in train mode."""
    if state.model in BOOTSTRAPPED:
        yield _bootstrap_branch(state, v1, v2, edge_pos)
        yield _bootstrap_branch(state, v2, v1, edge_pos)
        return
    h1 = state.encoder.forward(v1, mode="train")
    h2 = state.encoder.forward(v2, mode="train")
    if state.model in LINK_MODELS:
        yield lgrace_loss(_rows(h1, edge_pos, state.link_mlp),
                          _rows(h2, edge_pos, state.link_mlp),
                          _rows(h1, edge_neg, state.link_mlp),
                          _rows(h2, edge_neg, state.link_mlp), cfg.tau)
    else:
        yield grace_loss(h1, h2, state.projector, cfg.tau)


def train_encoder(split, spec, model, cfg, seed):
    """Self-supervised encoder training on the train graph only.

    An augmentation that needs blocks fits them once: the train graph's
    edges tallied under Louvain's partition of the train graph (for
    sbm_oracle, of split.graph). Each epoch embeds both views, takes node
    rows (GRACE, BGRL) or shared-link rows (L-GRACE, L-BGRL), and contrasts
    them (InfoNCE) or bootstraps them (target copy plus predictor). Epochs
    whose views share no edge (link models only) are skipped with a warning.
    """
    if model not in SELF_SUPERVISED:
        raise ValueError(f"unknown self-supervised model {model!r}")
    process.keep_freed_heap()
    graph = split.train_graph
    blocks = None
    # Louvain before the model, so its transient dicts are freed before the
    # parameters are allocated, and the tally after: on the NS twin the other
    # orders raised peak RSS by 1-6 MB and by 1-2 MB
    if spec.needs_block_state():
        detected = split.graph if spec.kind == "sbm_oracle" else graph
        detection_seed = derive_seed(seed, "detection")
        partition = community.louvain(detected, detection_seed)
    state = _init_state(model, graph.features.n_cols, cfg, seed)
    if spec.needs_block_state():
        blocks = sbm.fit_block_counts(graph, partition)
        state.detection_seed = detection_seed
        state.detector_edges = detected.num_edges
        state.detected_blocks = blocks.num_blocks
    params = state.online_parameters()

    edge_pos = edge_neg = None
    for epoch in range(cfg.ct_epochs):
        v1, v2 = make_views(graph, spec, blocks,
                            seed=derive_seed(seed, "augment", epoch))
        if model in LINK_MODELS:
            negatives = (None if model in BOOTSTRAPPED
                         else derive_seed(seed, "negatives", epoch))
            edge_pos, edge_neg = select_link_sets(v1, v2, negatives)
            if len(edge_pos) == 0:
                warnings.warn(
                    f"epoch {epoch}: views share no edge, skipping")
                state.loss_history.append((epoch, float("nan")))
                continue
        value = _descend(_encoder_terms(state, v1, v2, edge_pos, edge_neg,
                                        cfg),
                         epoch, model, cfg.weight_decay, (params, cfg.gnn_lr))
        for target, online in state.tracked:
            ema_update(target, online, cfg.ema_decay)
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
    Both `loss_func` keys ("bce", "log_sig") select it. The sign and zero
    constants take the logits' dtype.
    """
    logits = decoder.logits(z)
    dtype = logits.values.dtype
    sign = ad.Tensor(np.where(labels.reshape(-1, 1) > 0.5, -1.0,
                              1.0).astype(dtype))
    zeros = ad.Tensor(np.zeros((len(labels), 1), dtype=dtype))
    return ad.tensor_mean(ad.logaddexp(zeros, ad.elementwise_mul(logits,
                                                                 sign)))


def _pair_loss(decoder, h, pairs, labels, mask):
    """One decoder batch's forward pass, from embeddings h to the loss."""
    z = hadamard_pairs(h, pairs)
    if mask is not None:
        z = ad.elementwise_mul(z, ad.Tensor(
            mask.reshape(1, -1).astype(z.values.dtype)))
    return _decoder_objective(decoder, z, labels)


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
                split.graph, len(pos),
                seed=derive_seed(seed, "decoder_neg", epoch, bi))
            labels = np.concatenate([np.ones(len(pos)), np.zeros(len(neg))])
            yield epoch, np.concatenate([pos, neg]), labels, mask


def _epoch_means(batches, step):
    """(epoch, mean of step(pairs, labels, mask, epoch) over the epoch's
    batches) for each epoch of the `_decoder_batches` stream."""
    for epoch, epoch_batches in itertools.groupby(batches, lambda b: b[0]):
        values = [step(pairs, labels, mask, epoch)
                  for _, pairs, labels, mask in epoch_batches]
        yield epoch, float(np.mean(values))


def train_decoder(state, split, cfg, seed):
    """Decoder stage: 100 epochs of batched link classification on frozen
    embeddings; positives from train_pos, fresh negatives per batch, batch
    size clamped to the positive count; optional input masking. The
    decoder's loss_history holds each epoch's mean batch loss."""
    h = ad.Tensor(embed(state, split.train_graph))
    decoder = Decoder(h.shape[1], state.encoder.cfg.layer_size,
                      derive_rng(seed, "decoder_init"))
    params = decoder.parameters()

    def step(pairs, labels, mask, epoch):
        return _descend((_pair_loss(decoder, h, pairs, labels, mask),),
                        epoch, "decoder", cfg.weight_decay,
                        (params, cfg.pred_lr))

    decoder.loss_history.extend(_epoch_means(_decoder_batches(
        split, cfg, seed, DECODER_EPOCHS, h.shape[1]), step))
    return decoder


def train_supervised_gcn(split, cfg, seed):
    """Joint encoder+decoder optimization with the decoder loss; same
    architecture as the frozen pipeline, trained end-to-end. Each epoch's
    loss is the mean of its batch losses."""
    process.keep_freed_heap()
    graph = split.train_graph
    state = _init_state("gcn_supervised", graph.features.n_cols, cfg, seed)
    decoder = Decoder(cfg.encoder.layer_size, cfg.encoder.layer_size,
                      derive_rng(seed, "decoder_init"))
    enc_params = state.encoder.parameters()
    dec_params = decoder.parameters()

    def step(pairs, labels, mask, epoch):
        return _descend(
            (_pair_loss(decoder, state.encoder.forward(graph, mode="train"),
                        pairs, labels, mask),),
            epoch, "gcn_supervised", cfg.weight_decay,
            (enc_params, cfg.gnn_lr), (dec_params, cfg.pred_lr))

    for epoch, value in _epoch_means(_decoder_batches(
            split, cfg, seed, cfg.ct_epochs, cfg.encoder.layer_size), step):
        state.loss_history.append((epoch, value))
        state.epoch = epoch + 1
    return state, decoder


def decoder_scorer(state, decoder, graph):
    """Scorer of (u, v) pair arrays by the decoder's sigmoid link scores,
    from one frozen embedding of `graph` built here, so scoring positives
    and then negatives embeds once."""
    h = ad.Tensor(embed(state, graph))

    def scorer(pairs):
        return decoder.scores(hadamard_pairs(h, pairs)).values.ravel()

    return scorer


def predict_scores(state, decoder, graph, pairs):
    """Sigmoid link scores for (u, v) pairs; deterministic, order-preserving,
    symmetric in each pair. An id outside [0, n) raises ValueError."""
    return decoder_scorer(state, decoder, graph)(pairs)
