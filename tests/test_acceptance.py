"""Acceptance gate: one test per release criterion, each printing a single
pass/fail line under `pytest -v`.

Criteria needing the benchmark edge lists skip with instructions when the
data root is absent. Set LINKSSL_FAST=1 to shrink the evaluation seed set
of the trained criteria from ten seeds to three while keeping the protocol
identical.
"""

import dataclasses
import math
import os
import time
import tracemalloc

import numpy as np
import pytest

from linkssl import autodiff as ad
from linkssl import runner
from linkssl.augment import AugmentationSpec, make_views
from linkssl.community import louvain
from linkssl.config import ExperimentConfig, SearchSpace
from linkssl.datasets import (DATA_ROOT_ENV, REGISTRY, UNATTRIBUTED_NAMES,
                              dataset_available, load_dataset)
from linkssl.graphs import Graph, normalized_adjacency
from linkssl.metrics import ScoreSet, average_precision, hits_at_k, roc_auc
from linkssl.models.losses import (bgrl_loss, grace_loss, lgrace_loss,
                                   select_link_sets)
from linkssl.models.nets import EncoderConfig, GCNEncoder, LinkMLP, \
    link_representation
from linkssl.sbm import fit_block_counts, sample_sbm
from linkssl.seeding import derive_rng, derive_seed
from linkssl.significance import bonferroni_dunn_groups, friedman_test

FAST = bool(os.environ.get("LINKSSL_FAST"))
EVAL_SEEDS = (1, 2, 3) if FAST else tuple(range(1, 11))
SEARCH_BUDGET = 25

OP_TOL = 1e-6
LOSS_TOL = 1e-4


def _require_datasets(*names):
    missing = [n for n in names if not dataset_available(n)]
    if missing:
        pytest.skip(
            f"benchmark edge lists missing: {', '.join(missing)}; "
            f"point {DATA_ROOT_ENV} at the dataset directory (see README)")


# --------------------------------------------------------- criterion 1


def _check_op_gradients(rng):
    """Every differentiable op, checked on random 6-node-sized inputs."""
    n, d = 6, 4

    def t(*shape, positive=False, away_from_zero=False):
        vals = rng.normal(size=shape)
        if positive:
            vals = 0.5 + np.abs(vals)
        if away_from_zero:
            vals = np.sign(vals) * (0.2 + np.abs(vals))
        return ad.Tensor(vals)

    adjacency = normalized_adjacency(
        Graph(n, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (1, 4)]))
    gather_idx = np.array([0, 2, 2, 5])
    # normalization outputs are weighted before summing: a plain sum of
    # standardized columns/rows is constant, leaving only float noise for
    # the check to compare
    weight = ad.Tensor(rng.normal(size=(n, d)))

    def weighted_sum(out):
        return ad.tensor_sum(ad.elementwise_mul(out, weight))

    def bn(x, gamma, beta):
        state = {"running_mean": np.zeros((1, d)),
                 "running_var": np.ones((1, d))}
        return weighted_sum(
            ad.batch_norm(x, gamma, beta, state, 0.9, training=True))

    checks = [
        ("matmul", lambda a, b: ad.tensor_sum(ad.matmul(a, b)),
         [t(n, d), t(d, 3)]),
        ("sparse_matmul",
         lambda x: ad.tensor_sum(ad.sparse_matmul(adjacency, x)), [t(n, d)]),
        ("add", lambda a, b: ad.tensor_sum(ad.add(a, b)),
         [t(n, d), t(n, d)]),
        ("add_broadcast", lambda a, b: ad.tensor_sum(ad.add(a, b)),
         [t(n, d), t(1, d)]),
        ("sub", lambda a, b: ad.tensor_sum(ad.sub(a, b)),
         [t(n, d), t(n, d)]),
        ("elementwise_mul", lambda a, b: ad.tensor_sum(ad.elementwise_mul(
            a, b)), [t(n, d), t(n, d)]),
        ("scalar_mul", lambda a: ad.tensor_sum(ad.scalar_mul(a, 1.7)),
         [t(n, d)]),
        ("relu", lambda x: ad.tensor_sum(ad.relu(x)),
         [t(n, d, away_from_zero=True)]),
        ("prelu", lambda x, s: ad.tensor_sum(ad.prelu(x, s)),
         [t(n, d, away_from_zero=True), ad.Tensor([[0.25]])]),
        ("sigmoid", lambda x: ad.tensor_sum(ad.sigmoid(x)), [t(n, d)]),
        ("row_l2_normalize",
         lambda x: ad.tensor_sum(ad.row_l2_normalize(x)),
         [t(n, d, positive=True)]),
        ("row_sum", lambda x: ad.tensor_sum(ad.row_sum(x)), [t(n, d)]),
        ("row_cosine_similarity",
         lambda a, b: ad.tensor_sum(ad.row_cosine_similarity(a, b)),
         [t(n, d, positive=True), t(n, d, positive=True)]),
        ("logsumexp_rows",
         lambda x: ad.tensor_sum(ad.logsumexp_rows(x)), [t(n, n)]),
        ("logaddexp", lambda a, b: ad.tensor_sum(ad.logaddexp(a, b)),
         [t(n, d), t(n, d)]),
        ("tensor_sum", ad.tensor_sum, [t(n, d)]),
        ("tensor_mean", ad.tensor_mean, [t(n, d)]),
        ("concat_rows",
         lambda a, b: ad.tensor_sum(ad.concat_rows([a, b])),
         [t(n, d), t(3, d)]),
        ("transpose", lambda x: ad.tensor_sum(ad.transpose(x)), [t(n, d)]),
        ("gather_rows",
         lambda x: ad.tensor_sum(ad.gather_rows(x, gather_idx)), [t(n, d)]),
        ("mask_diagonal",
         lambda x: ad.tensor_sum(ad.mask_diagonal(x, fill=0.0)), [t(n, n)]),
        ("mask_diagonal_logsumexp",
         lambda x: ad.tensor_sum(ad.logsumexp_rows(ad.mask_diagonal(x))),
         [t(n, n)]),
        ("nce_denominator",
         lambda a, b: weighted_sum(ad.nce_denominator(a, b, 0.5)),
         [t(n, d), t(n, d)]),
        ("nce_denominator_symmetric",
         lambda x: weighted_sum(ad.nce_denominator(x, x, 0.5)), [t(n, d)]),
        ("batch_norm", bn, [t(n, d), t(1, d, positive=True), t(1, d)]),
        ("layer_norm",
         lambda x, g, b: weighted_sum(ad.layer_norm(x, g, b)),
         [t(n, d), t(1, d, positive=True), t(1, d)]),
        ("standardize_cols",
         lambda w: weighted_sum(ad.standardize_cols(w)), [t(n, d)]),
    ]
    for name, fn, inputs in checks:
        err = ad.grad_check(fn, inputs)
        assert err < OP_TOL, f"{name}: gradient error {err:.3e} >= {OP_TOL}"


class _Head:
    """Two-layer MLP over externally supplied weight tensors, so gradient
    checks cover the head weights as explicit inputs."""

    def __init__(self, w1, b1, w2, b2):
        self.w1, self.b1, self.w2, self.b2 = w1, b1, w2, b2

    def forward(self, x):
        hidden = ad.relu(ad.add(ad.matmul(x, self.w1), self.b1))
        return ad.add(ad.matmul(hidden, self.w2), self.b2)


def _check_loss_gradients(rng):
    n, d, hidden = 6, 4, 5

    def t(*shape):
        return ad.Tensor(rng.normal(size=shape))

    def head_tensors():
        return [t(d, hidden), t(1, hidden), t(hidden, d), t(1, d)]

    def grace(u, v, w1, b1, w2, b2):
        return grace_loss(u, v, _Head(w1, b1, w2, b2), tau=0.5)

    err = ad.grad_check(grace, [t(n, d), t(n, d)] + head_tensors())
    assert err < LOSS_TOL, f"grace_loss: gradient error {err:.3e}"

    def lgrace(z1p, z2p, z1n, z2n):
        return lgrace_loss(z1p, z2p, z1n, z2n, tau=0.5)

    err = ad.grad_check(lgrace, [t(n, d) for _ in range(4)])
    assert err < LOSS_TOL, f"lgrace_loss: gradient error {err:.3e}"

    target = ad.Tensor(rng.normal(size=(n, d)))

    def bgrl(x, w1, b1, w2, b2):
        return bgrl_loss(_Head(w1, b1, w2, b2).forward(x), target)

    err = ad.grad_check(bgrl, [t(n, d)] + head_tensors())
    assert err < LOSS_TOL, f"bgrl_loss: gradient error {err:.3e}"

    link_target = ad.Tensor(rng.normal(size=(n, d)))

    def lbgrl(links, w1, b1, w2, b2):
        return bgrl_loss(_Head(w1, b1, w2, b2).forward(links), link_target)

    err = ad.grad_check(lbgrl, [t(n, d)] + head_tensors())
    assert err < LOSS_TOL, f"bgrl_loss on links: gradient error {err:.3e}"


def _oracle_hits(y_pos, y_neg, k):
    threshold = sorted(y_neg, reverse=True)[k - 1]
    return sum(1 for s in y_pos if s > threshold) / len(y_pos)


def _oracle_auc(y_pos, y_neg):
    # pairwise Mann-Whitney count; every partial sum is a multiple of 0.5,
    # so the float result is exact
    total = 0.0
    for p in y_pos:
        for q in y_neg:
            if p > q:
                total += 1.0
            elif p == q:
                total += 0.5
    return total / (len(y_pos) * len(y_neg))


def _oracle_ap(y_pos, y_neg):
    ranked = sorted([(s, 1) for s in y_pos] + [(s, 0) for s in y_neg],
                    key=lambda pair: (-pair[0], pair[1]))
    precisions = []
    seen_pos = 0
    for rank, (_, label) in enumerate(ranked, start=1):
        if label:
            seen_pos += 1
            precisions.append(seen_pos / rank)
    return float(np.asarray(precisions).sum() / len(y_pos))


def _check_metric_oracles(rng, n_sets=1000):
    for _ in range(n_sets):
        n_pos = int(rng.integers(1, 30))
        n_neg = int(rng.integers(1, 30))
        # coarse integer grid keeps ties frequent
        y_pos = rng.integers(0, 10, size=n_pos) / 10.0
        y_neg = rng.integers(0, 10, size=n_neg) / 10.0
        k = int(rng.integers(1, n_neg + 1))
        s = ScoreSet(y_pos=y_pos, y_neg=y_neg)
        assert hits_at_k(s, k) == _oracle_hits(y_pos, y_neg, k)
        assert roc_auc(s) == _oracle_auc(y_pos, y_neg)
        assert average_precision(s) == _oracle_ap(y_pos, y_neg)


def _check_sbm_count_preservation(rng, n_samples=1000):
    n = 30
    pairs = [(int(u), int(v)) for u, v in rng.integers(0, n, size=(140, 2))
             if u != v]
    g = Graph(n, pairs)
    b = np.arange(n) % 3
    counts = fit_block_counts(g, b)
    for sample_seed in range(n_samples):
        resampled = sample_sbm(counts, seed=sample_seed)
        assert np.array_equal(fit_block_counts(resampled, b).counts,
                              counts.counts)


def _check_louvain_two_cliques():
    edges = []
    for base in (0, 10):
        edges.extend((base + i, base + j)
                     for i in range(10) for j in range(i + 1, 10))
    edges.append((0, 10))  # bridge
    state = louvain(Graph(20, edges), seed=0)
    first, second = state[:10], state[10:]
    assert len(set(first)) == 1
    assert len(set(second)) == 1
    assert first[0] != second[0]


def test_criterion_1_property_suite_runs_clean_under_two_minutes():
    started = time.monotonic()
    rng = np.random.default_rng(20240)
    _check_op_gradients(rng)
    _check_loss_gradients(rng)
    _check_metric_oracles(rng)
    _check_sbm_count_preservation(rng)
    _check_louvain_two_cliques()
    elapsed = time.monotonic() - started
    assert elapsed < 120.0, f"property suite took {elapsed:.1f}s"


# ----------------------------------------------- criteria 2-5 (trained)

_TUNED_MEANS = {}


def _base_config(dataset, model, kind):
    info = REGISTRY[dataset]
    return ExperimentConfig(
        dataset=dataset, model=model,
        augmentation=AugmentationSpec(kind=kind),
        split_fractions=info.split_fractions, seeds=EVAL_SEEDS)


def _mean_hits(cfg):
    graph = load_dataset(cfg.dataset)
    rows, failures = runner.run_experiment(cfg, graph=graph)
    assert not failures, f"seed failures: {failures}"
    return float(np.mean([row["hits_at_50"] for row in rows]))


def _searched_mean_hits(dataset, model, kind):
    """25-trial random search on the tuning split, then the mean test
    Hits@50 over the evaluation seeds. Memoized across criteria."""
    key = (dataset, model, kind)
    if key not in _TUNED_MEANS:
        base = _base_config(dataset, model, kind)
        best, _ = runner.random_search(SearchSpace(budget=SEARCH_BUDGET),
                                       base, seed=runner.TUNING_SEED)
        _TUNED_MEANS[key] = _mean_hits(
            dataclasses.replace(best, seeds=EVAL_SEEDS))
    return _TUNED_MEANS[key]


def test_criterion_2_supervised_gcn_usair_hits_at_50():
    _require_datasets("USAir")
    mean = _searched_mean_hits("USAir", "gcn_supervised", "random")
    assert mean >= 0.80, f"supervised GCN mean Hits@50 = {100 * mean:.2f}"


def test_criterion_3_grace_random_usair_hits_at_50():
    _require_datasets("USAir")
    mean = _searched_mean_hits("USAir", "grace", "random")
    assert mean >= 0.82, f"GRACE random mean Hits@50 = {100 * mean:.2f}"


def test_criterion_4_oracle_sbm_separation_on_power():
    _require_datasets("Power")
    base = _base_config("Power", "grace", "random")
    # fixed configuration, sized for a CPU-only run on 4941 nodes
    fixed = dataclasses.replace(
        base,
        encoder=EncoderConfig(n_layers=2, layer_size=64, norm="batch"),
        ct_epochs=100, gnn_lr=1e-3, pred_lr=1e-3, proj_hidden=64,
        loss_func="bce", tau=0.5)
    random_mean = _mean_hits(fixed)
    oracle_mean = _mean_hits(dataclasses.replace(
        fixed, augmentation=AugmentationSpec(kind="sbm_oracle")))
    detail = (f"oracle {100 * oracle_mean:.2f} vs "
              f"random {100 * random_mean:.2f}")
    assert oracle_mean >= 2.0 * random_mean, detail
    assert oracle_mean >= 0.80, detail


def test_criterion_5_lgrace_tracks_grace_on_usair():
    _require_datasets("USAir")
    grace_mean = _searched_mean_hits("USAir", "grace", "random")
    lgrace_mean = _searched_mean_hits("USAir", "lgrace", "random")
    gap = abs(lgrace_mean - grace_mean)
    assert gap <= 0.03, (f"L-GRACE {100 * lgrace_mean:.2f} vs "
                         f"GRACE {100 * grace_mean:.2f}: gap {100 * gap:.2f}")


# --------------------------------------------------------- criterion 6


def test_criterion_6_link_loss_memory_scales_with_links_not_nodes():
    n = 2000
    rng = np.random.default_rng(5)
    edges = [(i, (i + 1) % n) for i in range(n)]
    chords = rng.integers(0, n, size=(800, 2))
    edges += [(int(u), int(v)) for u, v in chords if u != v]
    graph = Graph(n, edges)

    spec = AugmentationSpec(kind="random", drop_edge_rate_1=0.7,
                            drop_edge_rate_2=0.7)
    view1, view2 = make_views(graph, spec, seed=derive_seed(0, "augment", 0))
    edge_pos, edge_neg = select_link_sets(view1, view2,
                                          derive_seed(0, "negatives", 0))
    p = len(edge_pos)
    assert 0 < p < n // 2

    cfg = EncoderConfig(n_layers=1, layer_size=64, norm="layer")
    encoder = GCNEncoder(n, cfg, derive_rng(0, "init"))
    link_mlp = LinkMLP(cfg.layer_size, 64, derive_rng(0, "init"))

    with ad.track_allocations() as tracker:
        h1 = encoder.forward(view1)
        h2 = encoder.forward(view2)
        z1_pos = link_representation(h1, edge_pos, link_mlp)
        z2_pos = link_representation(h2, edge_pos, link_mlp)
        z1_neg = link_representation(h1, edge_neg, link_mlp)
        z2_neg = link_representation(h2, edge_neg, link_mlp)
        loss = lgrace_loss(z1_pos, z2_pos, z1_neg, z2_neg, tau=0.5)
        ad.backward(loss)

    node_square = [s for s in tracker.shapes if s[0] >= n and s[1] >= n]
    assert not node_square, f"node-square allocations: {node_square}"
    # both views' links are stacked into one InfoNCE over 2p rows, which
    # scores them in row blocks and never holds a 2p x 2p matrix
    anchor = ad.Tensor(np.concatenate([z1_pos.values, z2_pos.values]),
                       requires_grad=True)
    other = ad.Tensor(np.concatenate([z1_neg.values, z2_neg.values]),
                      requires_grad=True)
    tracemalloc.start()
    try:
        ad.backward(ad.tensor_sum(ad.nce_denominator(anchor, other, 0.5)))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * (2 * p) ** 2, (
        f"InfoNCE peak {peak} bytes reaches one |links| x |links| matrix")
    assert tracker.peak_live_bytes < 8 * n * n, (
        f"peak {tracker.peak_live_bytes} bytes exceeds one n x n matrix")


# --------------------------------------------------------- criterion 7


def test_criterion_7_dataset_counts_match_published_table():
    _require_datasets(*UNATTRIBUTED_NAMES)
    for name in UNATTRIBUTED_NAMES:
        info = REGISTRY[name]
        g = load_dataset(name)
        assert g.n == info.num_nodes, name
        assert g.num_edges == info.num_undirected_edges, name


# --------------------------------------------------------- criterion 8


def test_criterion_8_significance_machinery_on_strict_ordering():
    # 3 methods x 10 runs, strictly ordered within every run
    scores = np.array([[r + 0.1 * j for j in range(3)] for r in range(10)],
                      dtype=np.float64)
    chi, p = friedman_test(scores)
    assert abs(chi - 20.0) < 1e-6
    # exact p for 2 degrees of freedom: exp(-chi/2) = 4.53999e-5 (~4.5e-5)
    assert abs(p - math.exp(-10.0)) < 1e-7
    # alpha=0.1: the critical difference (0.877) sits below the rank gap
    # (1.0), so the groups are exactly the extremes; at alpha=0.05 the CD
    # (1.00237) would just swallow the middle method
    best, worst = bonferroni_dunn_groups(scores, alpha=0.1)
    assert best == {2}
    assert worst == {0}
