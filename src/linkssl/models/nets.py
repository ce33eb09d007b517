"""Network building blocks: GCN encoder, MLP heads, and the link decoder.

Modules are built in float32 (TRAIN_DTYPE). GCNEncoder, MLP and its
heads (Projector, Predictor, LinkMLP) take a `dtype` for their parameters,
BN statistics and the constants they build, so a float64 model for
verification (grad_check) comes from the same code. Weights are drawn in
float64 and then cast, so the dtype moves no random stream. All
parameters flow through the reverse-mode autodiff ops.

Each module's graph keeps only what its backward reads. A GCN layer's
norm and PReLU are one autodiff op (batch_norm or layer_norm given the
layer's slope), which keeps x̂ but not the norm output; the heads are one
autodiff.mlp each, which keeps its input and rebuilds the hidden layer in
backward; link rows are one autodiff.pair_mlp. So a step keeps, per GCN
layer, x̂ and the layer output, and per head its input. The decoder keeps
its composition (see Decoder).

Every feature kind takes one first-layer path: features are a fixed X (or
the identity) times a column mask m, and the first product is
X (m[:, None] * W), so feature dropout zeroes rows of W and never copies X.
For the identity, X @ W collapses to W and the n x n identity is never
materialized. Modules read only their own parameters; the bootstrapped
models' target network is a deep copy of them.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .. import autodiff as ad
from ..graphs import _pair_columns, normalized_adjacency
from ..optim import Parameter

TRAIN_DTYPE = np.float32  # every module's default dtype


def as_int(name, value):
    """`value` of integer field `name`: numpy ints pass, 100.0 raises."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} takes integers, got {value!r}") from None


@dataclass(frozen=True)
class EncoderConfig:
    n_layers: int = 2
    layer_size: int = 128
    norm: str = "batch"  # "batch" | "layer"
    batchnorm_momentum: float = 0.9
    weight_standardization: bool = False

    def __post_init__(self):
        for name in ("n_layers", "layer_size"):
            object.__setattr__(self, name, as_int(name, getattr(self, name)))
        if not 1 <= self.n_layers <= 4:
            raise ValueError("n_layers must be 1..4")
        if not 64 <= self.layer_size <= 512:
            raise ValueError("layer_size must be 64..512")
        if self.norm not in ("batch", "layer"):
            raise ValueError("norm must be 'batch' or 'layer'")
        if not 0.0 <= self.batchnorm_momentum <= 1.0:
            raise ValueError("batchnorm_momentum must lie in [0, 1]")


def glorot(rng, fan_in, fan_out):
    """Glorot-uniform (fan_in, fan_out) float64 draw."""
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


class GCNEncoder:
    """Stacked GCN layers: H <- PReLU(Norm(A_hat @ H @ W)) per layer, the
    norm and its PReLU one autodiff op."""

    def __init__(self, in_dim, cfg, rng, dtype=TRAIN_DTYPE):
        self.cfg = cfg
        self.in_dim = in_dim
        self.dtype = dtype
        self.weights = []
        self.slopes = []
        self.gammas = []
        self.betas = []
        self.bn_states = []
        d_in = in_dim
        for layer in range(cfg.n_layers):
            d_out = cfg.layer_size
            self.weights.append(Parameter(
                glorot(rng, d_in, d_out).astype(dtype), name=f"enc.W{layer}"))
            self.slopes.append(Parameter(np.full((1, 1), 0.25, dtype=dtype),
                                         name=f"enc.prelu{layer}"))
            self.gammas.append(Parameter(np.ones((1, d_out), dtype=dtype),
                                         name=f"enc.gamma{layer}"))
            self.betas.append(Parameter(np.zeros((1, d_out), dtype=dtype),
                                        name=f"enc.beta{layer}"))
            self.bn_states.append(
                {"running_mean": np.zeros((1, d_out), dtype=dtype),
                 "running_var": np.ones((1, d_out), dtype=dtype)})
            d_in = d_out

    def parameters(self):
        return self.weights + self.slopes + self.gammas + self.betas

    def _first_product(self, view, weight_tensor):
        """X (m[:, None] * W) for the view's features X and column mask m,
        both in the encoder's dtype; an identity X skips the product."""
        x = view.features
        if x.column_mask is not None:
            weight_tensor = ad.elementwise_mul(weight_tensor, ad.Tensor(
                x.column_mask.reshape(-1, 1).astype(self.dtype)))
        if x.dense_values is None:
            return weight_tensor
        return ad.matmul(ad.Tensor(x.dense_values.astype(self.dtype,
                                                         copy=False)),
                         weight_tensor)

    def forward(self, view, mode="train"):
        """Embed the view's nodes.

        mode: "train" (batch statistics, running stats updated) or
              "eval" (running statistics).
        """
        if view.features.n_rows != view.n or (view.features.n_cols
                                              != self.in_dim):
            raise ValueError("feature shape does not match encoder input")
        if mode not in ("train", "eval"):
            raise ValueError(f"unknown encoder mode {mode!r}")
        adj = normalized_adjacency(view, self.dtype)
        h = None
        for layer in range(self.cfg.n_layers):
            w = self.weights[layer].tensor
            if self.cfg.weight_standardization:
                w = ad.standardize_cols(w)
            if layer == 0:
                xw = self._first_product(view, w)
            else:
                xw = ad.matmul(h, w)
            pre = ad.sparse_matmul(adj, xw)
            gamma = self.gammas[layer].tensor
            beta = self.betas[layer].tensor
            slope = self.slopes[layer].tensor
            if self.cfg.norm == "batch":
                h = ad.batch_norm(pre, gamma, beta, self.bn_states[layer],
                                  self.cfg.batchnorm_momentum,
                                  training=mode == "train", slope=slope)
            else:
                h = ad.layer_norm(pre, gamma, beta, slope=slope)
        return h


class MLP:
    """Two linear layers with ReLU between; returns pre-activation output."""

    def __init__(self, in_dim, hidden_dim, out_dim, rng, name,
                 dtype=TRAIN_DTYPE):
        self.w1 = Parameter(glorot(rng, in_dim, hidden_dim).astype(dtype),
                            name=f"{name}.w1")
        self.b1 = Parameter(np.zeros((1, hidden_dim), dtype=dtype),
                            name=f"{name}.b1")
        self.w2 = Parameter(glorot(rng, hidden_dim, out_dim).astype(dtype),
                            name=f"{name}.w2")
        self.b2 = Parameter(np.zeros((1, out_dim), dtype=dtype),
                            name=f"{name}.b2")
        self.name = name

    def parameters(self):
        return [self.w1, self.b1, self.w2, self.b2]

    def forward(self, x):
        """One autodiff.mlp, whose graph keeps x but not the hidden layer."""
        return ad.mlp(x, self.w1.tensor, self.b1.tensor, self.w2.tensor,
                      self.b2.tensor)


class Projector(MLP):
    """Contrastive projection head g: embedding -> proj_hidden -> embedding."""

    def __init__(self, dim, proj_hidden, rng, dtype=TRAIN_DTYPE):
        super().__init__(dim, proj_hidden, dim, rng, name="proj",
                         dtype=dtype)


class Predictor(MLP):
    """Online-side prediction head for the asymmetric models."""

    def __init__(self, dim, proj_hidden, rng, dtype=TRAIN_DTYPE):
        super().__init__(dim, proj_hidden, dim, rng, name="pred",
                         dtype=dtype)


class LinkMLP(MLP):
    """Link representation head: MLP over the Hadamard product h_u * h_v."""

    def __init__(self, dim, proj_hidden, rng, dtype=TRAIN_DTYPE):
        super().__init__(dim, proj_hidden, dim, rng, name="link",
                         dtype=dtype)


class Decoder:
    """Two linear layers with a ReLU between them; sigmoid applied on top.

    Consumes Hadamard products of node embeddings and returns logits via
    `logits`; `scores` wraps them in a sigmoid taken in float64, since a
    float32 sigmoid rounds every logit above about 17 to 1.0 and so ties
    pairs that the logits rank.

    `logits` keeps the matmul/add/relu composition rather than the heads'
    autodiff.mlp, so its graph saves the (batch, hidden) ReLU output. The
    recompute costs time and buys nothing here: with autodiff.mlp the 600
    decoder steps of a USAir twin seed took 0.63 s in place of 0.58 s
    (medians of 10, one thread), and the decoder stage's tracemalloc peak
    on the NS twin stayed 5.4 MiB above its start either way, below the
    encoder stage's 14.5 MiB.
    """

    def __init__(self, dim, hidden_dim, rng):
        self.mlp = MLP(dim, hidden_dim, 1, rng, name="dec")
        self.loss_history = []  # (epoch, mean batch loss) of its training

    def parameters(self):
        return self.mlp.parameters()

    def logits(self, z):
        m = self.mlp
        hidden = ad.relu(ad.add(ad.matmul(z, m.w1.tensor), m.b1.tensor))
        return ad.add(ad.matmul(hidden, m.w2.tensor), m.b2.tensor)

    def scores(self, z):
        return ad.sigmoid(ad.Tensor(self.logits(z).values.astype(np.float64)))


def link_representation(h, edges, mlp):
    """Row per edge: MLP(h_u * h_v), one autodiff.pair_mlp, whose graph
    keeps neither the product rows nor the hidden layer. Symmetric in
    (u, v); ids outside [0, n) raise."""
    return ad.pair_mlp(h, *_pair_columns(edges), mlp.w1.tensor,
                       mlp.b1.tensor, mlp.w2.tensor, mlp.b2.tensor)


def hadamard_pairs(h, pairs):
    """h_u * h_v rows, one per (u, v) pair: decoder batches and scored
    pairs. Ids outside [0, n) raise."""
    return ad.pair_product(h, *_pair_columns(pairs))
