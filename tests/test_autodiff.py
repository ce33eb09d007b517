"""Gradient checks and frozen-value oracles for the autodiff core."""

import copy
import gc
import math
import os
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
import types
import weakref
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

import linkssl.autodiff as ad
from linkssl import process
from linkssl.autodiff import Tensor, backward, grad_check
from linkssl.models.nets import MLP
from linkssl.optim import Parameter, adam_step, ema_update


@pytest.fixture
def rng(request):
    """A generator seeded by the test's own id, so a test draws the same
    inputs in a `-k` subset as in the full run."""
    return np.random.default_rng(zlib.crc32(request.node.name.encode()))


def leaf(rng, shape, scale=1.0):
    return Tensor(rng.normal(size=shape) * scale, requires_grad=True)


# --- frozen forward values -------------------------------------------------


def test_logsumexp_of_zero_row_is_ln2():
    x = Tensor([[0.0, 0.0]])
    assert ad.logsumexp_rows(x).item() == pytest.approx(math.log(2.0), abs=1e-12)


def test_sigmoid_zero_is_half():
    assert ad.sigmoid(Tensor([[0.0]])).item() == 0.5


def test_row_cosine_of_vector_with_itself_is_one():
    v = Tensor([[3.0, -4.0, 1.0]])
    assert ad.row_cosine_similarity(v, v).item() == pytest.approx(1.0, abs=1e-12)


def test_square_gradient_at_three_is_six():
    x = Tensor([[3.0]], requires_grad=True)
    backward(ad.elementwise_mul(x, x))
    assert x.grad[0, 0] == pytest.approx(6.0, abs=1e-12)


def test_sum_sigmoid_gradient_at_zero_is_quarter():
    x = Tensor(np.zeros((1, 5)), requires_grad=True)
    backward(ad.tensor_sum(ad.sigmoid(x)))
    assert np.allclose(x.grad, 0.25, atol=1e-12)


def test_unreached_parameter_grad_stays_zero():
    p = Parameter(np.ones((2, 2)))
    q = Parameter(np.ones((2, 2)))
    backward(ad.tensor_sum(ad.relu(p.tensor)))
    assert np.any(p.grad != 0.0)
    assert np.all(q.grad == 0.0)


def test_backward_twice_doubles_gradients():
    x = Tensor([[2.0]], requires_grad=True)

    def build():
        return ad.tensor_sum(ad.elementwise_mul(x, x))

    backward(build())
    once = x.grad.copy()
    backward(build())
    assert np.allclose(x.grad, 2.0 * once)


def test_backward_visits_shared_subexpressions_once():
    # 40 stacked y <- y + y diamonds: gradient is exactly 2^40 and the walk
    # must finish instantly; an exponential revisit would never return.
    x = Tensor([[1.0]], requires_grad=True)
    y = x
    for _ in range(40):
        y = ad.add(y, y)
    backward(y)
    assert x.grad[0, 0] == 2.0 ** 40


def test_non_scalar_backward_rejected():
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    with pytest.raises(ValueError):
        backward(ad.relu(x))


# --- gradient checks per op (tolerance 1e-6) --------------------------------


OP_CASES = [
    ("matmul", lambda a, b: ad.tensor_sum(ad.sigmoid(ad.matmul(a, b))),
     [(4, 3), (3, 5)]),
    ("add_broadcast", lambda a, b: ad.tensor_sum(ad.sigmoid(ad.add(a, b))),
     [(4, 3), (1, 3)]),
    ("sub_broadcast", lambda a, b: ad.tensor_sum(ad.sigmoid(ad.sub(a, b))),
     [(4, 3), (4, 1)]),
    ("elementwise_mul", lambda a, b: ad.tensor_mean(ad.elementwise_mul(a, b)),
     [(3, 4), (3, 4)]),
    ("scalar_mul", lambda a: ad.tensor_sum(ad.scalar_mul(a, -1.7)), [(3, 3)]),
    ("relu", lambda a: ad.tensor_sum(ad.relu(a)), [(4, 4)]),
    ("sigmoid", lambda a: ad.tensor_sum(ad.sigmoid(a)), [(3, 5)]),
    ("row_l2_normalize", lambda a: ad.tensor_sum(
        ad.sigmoid(ad.row_l2_normalize(a))), [(4, 3)]),
    ("row_sum", lambda a: ad.tensor_sum(ad.sigmoid(ad.row_sum(a))), [(4, 3)]),
    ("row_cosine", lambda a, b: ad.tensor_sum(ad.row_cosine_similarity(a, b)),
     [(4, 3), (4, 3)]),
    ("logsumexp_rows", lambda a: ad.tensor_sum(ad.logsumexp_rows(a)), [(4, 5)]),
    ("logaddexp", lambda a, b: ad.tensor_sum(ad.logaddexp(a, b)),
     [(3, 4), (3, 4)]),
    ("mean", lambda a: ad.tensor_mean(a), [(4, 4)]),
    ("concat_rows", lambda a, b: ad.tensor_sum(
        ad.sigmoid(ad.concat_rows([a, b]))), [(2, 3), (4, 3)]),
    ("transpose", lambda a: ad.tensor_sum(ad.sigmoid(ad.transpose(a))),
     [(3, 5)]),
    ("gather_rows", lambda a: ad.tensor_sum(
        ad.sigmoid(ad.gather_rows(a, [0, 2, 2, 1]))), [(4, 3)]),
    ("pair_product", lambda a: ad.tensor_sum(ad.sigmoid(
        ad.pair_product(a, [0, 2, 2, 1, 3], [1, 2, 0, 3, 0]))), [(4, 3)]),
    # a repeated pair and a (u, u) pair
    ("pair_mlp", lambda x, w1, b1, w2, b2: ad.tensor_sum(ad.sigmoid(
        ad.pair_mlp(x, [0, 2, 2, 1, 0], [1, 2, 0, 3, 1], w1, b1, w2, b2))),
     [(4, 3), (3, 5), (1, 5), (5, 2), (1, 2)]),
    ("row_slice", lambda a: ad.tensor_sum(ad.sigmoid(ad.elementwise_mul(
        ad.row_slice(a, 0, 2), ad.row_slice(a, 3, 5)))), [(6, 3)]),
    ("mask_diagonal", lambda a: ad.tensor_sum(
        ad.logsumexp_rows(ad.mask_diagonal(a))), [(4, 4)]),
    ("nce_denominator", lambda a, b: ad.tensor_sum(ad.sigmoid(
        ad.nce_denominator(a, b, 0.5))), [(5, 3), (5, 3)]),
    ("nce_denominator_symmetric", lambda a: ad.tensor_sum(ad.sigmoid(
        ad.nce_denominator(a, a, 0.5))), [(5, 3)]),
    ("standardize_cols", lambda a: ad.tensor_sum(
        ad.sigmoid(ad.standardize_cols(a))), [(5, 3)]),
]


@pytest.mark.parametrize("name,fn,shapes", OP_CASES, ids=[c[0] for c in OP_CASES])
def test_op_gradient(name, fn, shapes, rng):
    inputs = [leaf(rng, s) for s in shapes]
    assert grad_check(fn, inputs) < 1e-6


def test_prelu_gradient(rng):
    x = leaf(rng, (4, 3))
    slope = Tensor([[0.3]], requires_grad=True)
    fn = lambda a, s: ad.tensor_sum(ad.sigmoid(ad.prelu(a, s)))
    assert grad_check(fn, [x, slope]) < 1e-6


@pytest.mark.parametrize("s", [-0.5, 1.7])
def test_prelu_gradient_outside_unit_slope(s, rng):
    # the kernel may not assume a slope in [0, 1]
    x = leaf(rng, (4, 3))
    slope = Tensor([[s]], requires_grad=True)
    fn = lambda a, s: ad.tensor_sum(ad.sigmoid(ad.prelu(a, s)))
    assert grad_check(fn, [x, slope]) < 1e-6


def test_sparse_matmul_gradient(rng):
    adj = sparse.random(5, 5, density=0.5, random_state=3, format="csr")
    x = leaf(rng, (5, 3))
    fn = lambda a: ad.tensor_sum(ad.sigmoid(ad.sparse_matmul(adj, a)))
    assert grad_check(fn, [x]) < 1e-6


def test_layer_norm_gradient(rng):
    x = leaf(rng, (4, 6))
    gamma = Tensor(rng.uniform(0.5, 1.5, size=(1, 6)), requires_grad=True)
    beta = leaf(rng, (1, 6), scale=0.1)
    fn = lambda a, g, b: ad.tensor_sum(ad.sigmoid(ad.layer_norm(a, g, b)))
    assert grad_check(fn, [x, gamma, beta]) < 1e-6


def test_batch_norm_gradient_training_mode(rng):
    x = leaf(rng, (6, 4))
    gamma = Tensor(rng.uniform(0.5, 1.5, size=(1, 4)), requires_grad=True)
    beta = leaf(rng, (1, 4), scale=0.1)

    def fn(a, g, b):
        state = {"running_mean": np.zeros((1, 4)),
                 "running_var": np.ones((1, 4))}
        return ad.tensor_sum(ad.sigmoid(
            ad.batch_norm(a, g, b, state, momentum=0.9, training=True)))

    assert grad_check(fn, [x, gamma, beta]) < 1e-6


def test_batch_norm_eval_uses_running_stats():
    state = {"running_mean": np.full((1, 2), 3.0),
             "running_var": np.full((1, 2), 4.0)}
    gamma = Tensor(np.ones((1, 2)))
    beta = Tensor(np.zeros((1, 2)))
    x = Tensor([[3.0, 5.0]])
    out = ad.batch_norm(x, gamma, beta, state, momentum=0.9, training=False)
    assert out.values[0, 0] == pytest.approx(0.0, abs=1e-6)
    assert out.values[0, 1] == pytest.approx(1.0, rel=1e-2)  # 2/sqrt(4+eps)


def test_batch_norm_running_stats_update():
    state = {"running_mean": np.zeros((1, 1)), "running_var": np.ones((1, 1))}
    x = Tensor([[2.0], [4.0]])
    ad.batch_norm(x, Tensor([[1.0]]), Tensor([[0.0]]), state,
                  momentum=0.9, training=True)
    assert state["running_mean"][0, 0] == pytest.approx(0.3, abs=1e-12)
    assert state["running_var"][0, 0] == pytest.approx(0.9 + 0.1 * 1.0, abs=1e-12)


def test_logsumexp_all_minus_inf_row_contributes_nothing():
    x = Tensor(np.array([[0.0, 0.0], [-np.inf, -np.inf]]))
    out = ad.logsumexp_rows(x)
    assert out.values[0, 0] == pytest.approx(math.log(2.0))
    assert out.values[1, 0] == -np.inf
    combined = ad.logaddexp(Tensor([[1.0], [1.0]]), out)
    assert combined.values[1, 0] == pytest.approx(1.0, abs=1e-12)


def test_nce_denominator_two_rows_is_the_other_score():
    # with two rows each denominator holds one term, a_i . o_j / tau, j != i,
    # and the op returns their mean
    a = Tensor([[1.0, 2.0], [3.0, -1.0]])
    o = Tensor([[0.5, 0.0], [2.0, 1.0]])
    out = ad.nce_denominator(a, o, 0.5)
    assert out.shape == (1, 1)
    assert out.item() == pytest.approx((8.0 + 3.0) / 2, abs=1e-12)
    # shared: both rows score a_0 . a_1 = 1
    assert ad.nce_denominator(a, a, 0.5).item() == pytest.approx(2.0,
                                                                abs=1e-12)


@pytest.mark.parametrize("symmetric", [False, True])
def test_nce_denominator_repeated_backward_leaves_output_intact(symmetric,
                                                                rng):
    # backward hands over the gradients the forward built and consumes the
    # graph: a second backward raises and leaves the output and the grads
    # as they were. For one tensor passed twice the grad is the sum of the
    # arrays two distinct tensors of its values receive.
    values = rng.normal(size=(2 * ad.NCE_BLOCK_ROWS + 7, 3))
    a, o = (Tensor(values, requires_grad=True) for _ in range(2))
    out = ad.nce_denominator(a, o, 0.3)
    loss = ad.tensor_sum(ad.sigmoid(out))
    backward(loss)
    da, do = a.grad.copy(), o.grad.copy()
    kept = out.values.copy()
    if symmetric:
        a = o = Tensor(values, requires_grad=True)
        out = ad.nce_denominator(a, a, 0.3)
        assert out.values.tobytes() == kept.tobytes()
        loss = ad.tensor_sum(ad.sigmoid(out))
        backward(loss)
        assert np.array_equal(a.grad, da + do)
    grads = [t.grad.copy() for t in (a, o)]
    with pytest.raises(RuntimeError, match="consumed"):
        backward(loss)
    assert out.values.tobytes() == kept.tobytes()
    assert all(np.array_equal(t.grad, g) for t, g in zip((a, o), grads))


def test_second_backward_on_a_consumed_loss_raises(rng):
    # backward consumes the graph: a second backward on the loss, or on
    # another loss that reaches a consumed node, raises and leaves the
    # grads as the first left them
    x = leaf(rng, (4, 3))
    h = ad.relu(x)
    loss = ad.tensor_sum(h)
    backward(loss)
    kept = x.grad.copy()
    for again in (loss, ad.tensor_mean(h)):
        with pytest.raises(RuntimeError, match="consumed"):
            backward(again)
        assert np.array_equal(x.grad, kept)
    # a leaf is never consumed: a new graph that reaches it adds its part
    backward(ad.tensor_sum(x))
    assert np.array_equal(x.grad, kept + 1.0)


def test_nce_denominator_records_no_square_array(rng):
    # past two row blocks the op still keeps and builds no r x r array;
    # what the tracker sees are the inputs, output and gradients
    r, d = 2 * ad.NCE_BLOCK_ROWS + 5, 3
    with ad.track_allocations() as tracker:
        a, o = leaf(rng, (r, d)), leaf(rng, (r, d))
        backward(ad.tensor_sum(ad.nce_denominator(a, o, 0.5)))
    assert (r, r) not in tracker.shapes
    assert max(rows * cols for rows, cols in tracker.shapes) <= r * d


def test_tracker_releases_op_caches_with_their_output(rng):
    # an op's cache lives in its backward rule, so it dies with the op's
    # output; counted forever, live_bytes could only grow
    a = leaf(rng, (100, 100))
    with ad.track_allocations() as tracker:
        for _ in range(5):
            ad.logsumexp_rows(a)
    assert tracker.live_bytes == 0
    assert tracker.peak_live_bytes >= 100 * 100 * 8


def test_tracker_counts_a_saved_array_until_its_graph_dies(rng):
    # relu's rule saves its output's array: the array outlives the tensor
    # that held it and is released with the graph, not with the tensor
    x = leaf(rng, (100, 100))
    with ad.track_allocations() as tracker:
        h = ad.relu(x)
        loss = ad.tensor_sum(h)
        saved = weakref.ref(h.values)
        del h
        assert saved() is not None
        assert tracker.live_bytes == 100 * 100 * 8 + 8
        backward(loss)
        del loss
    assert saved() is None
    assert tracker.live_bytes == 0


def test_nce_denominator_rejects_bad_shapes(rng):
    with pytest.raises(ValueError, match="equal shapes"):
        ad.nce_denominator(leaf(rng, (4, 3)), leaf(rng, (5, 3)), 0.5)
    with pytest.raises(ValueError, match="equal shapes"):
        ad.nce_denominator(leaf(rng, (4, 3)), leaf(rng, (4, 2)), 0.5)
    with pytest.raises(ValueError, match="at least 2 rows"):
        ad.nce_denominator(leaf(rng, (1, 3)), leaf(rng, (1, 3)), 0.5)


@pytest.mark.parametrize("tau", [0.0, -0.5, float("nan")])
@pytest.mark.parametrize("symmetric", [False, True])
def test_nce_denominator_rejects_a_tau_not_finite_and_positive(tau,
                                                               symmetric,
                                                               rng):
    # tau = 0 would divide by zero and a negative tau negate every score
    a = leaf(rng, (4, 3))
    o = a if symmetric else leaf(rng, (4, 3))
    with pytest.raises(ValueError, match="tau must be finite and positive"):
        ad.nce_denominator(a, o, tau)


@pytest.mark.parametrize("symmetric", [False, True])
def test_nce_denominator_gradient_across_row_blocks(symmetric, rng):
    # positive inputs make every gradient coordinate a sum of positive
    # terms: over ~1000 coordinates, a signed draw leaves some near zero,
    # where central differences cannot resolve 1e-6 relative (a dense
    # kept-softmax op reads the same errors, up to 2.6e-5, there); the
    # factor makes the upstream gradient differ from 1
    r = ad.NCE_BLOCK_ROWS + 3
    inputs = [Tensor(rng.uniform(0.5, 1.5, size=(r, 2)), requires_grad=True)
              for _ in range(1 if symmetric else 2)]

    def fn(a, b=None):
        return ad.scalar_mul(
            ad.nce_denominator(a, a if b is None else b, 0.5), 1.7)

    assert grad_check(fn, inputs) < 1e-6


def _dense_nce(a, o, g, tau):
    """The kept-softmax InfoNCE denominator and its input gradients."""
    s = a @ o.T / tau
    np.fill_diagonal(s, -np.inf)
    m = np.max(s, axis=1, keepdims=True)
    p = np.exp(s - m)
    sums = np.sum(p, axis=1, keepdims=True)
    p /= sums
    w = p * (g / tau)
    return m + np.log(sums), w @ o, w.T @ a


def _assert_close_grad(got, want):
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


B = ad.NCE_BLOCK_ROWS


@pytest.mark.parametrize("r", [2, B - 1, B, B + 1, 2 * B + 5])
@pytest.mark.parametrize("grads", ["anchor", "other", "both", "shared"])
def test_nce_denominator_matches_dense_softmax(r, grads, rng):
    # the mean's gradient c / r reaches every row, c the upstream scalar
    tau, c = 0.2, rng.normal()
    a = rng.normal(size=(r, 4))
    o = a if grads == "shared" else rng.normal(size=(r, 4))
    anchor = Tensor(a, requires_grad=grads != "other")
    other = anchor if grads == "shared" else Tensor(
        o, requires_grad=grads != "anchor")
    out = ad.nce_denominator(anchor, other, tau)
    backward(ad.scalar_mul(out, c))
    want, da, do = _dense_nce(a, o, np.full((r, 1), c / r), tau)
    assert out.shape == (1, 1)
    assert abs(out.item() - np.mean(want)) <= 1e-12 * max(1.0, abs(out.item()))
    if grads == "shared":
        _assert_close_grad(anchor.grad, da + do)
        return
    if grads == "other":
        assert anchor.grad is None
    else:
        _assert_close_grad(anchor.grad, da)
    if grads == "anchor":
        assert other.grad is None
    else:
        _assert_close_grad(other.grad, do)


@pytest.mark.parametrize("symmetric", [False, True])
def test_nce_denominator_scratch_is_row_blocks(symmetric, rng):
    # forward plus backward peaks far below one r x r float64 array
    r = 6000
    a = leaf(rng, (r, 8))
    o = a if symmetric else leaf(rng, (r, 8))
    tracemalloc.start()
    try:
        backward(ad.tensor_sum(ad.nce_denominator(a, o, 0.5)))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * r * r / 4


def _nce_with_threads(monkeypatch, threads, a, o, upstream=1.0):
    monkeypatch.setattr(ad, "_nce_threads", lambda n_blocks: threads)
    anchor = Tensor(a, requires_grad=True)
    other = anchor if o is None else Tensor(o, requires_grad=True)
    out = ad.nce_denominator(anchor, other, 0.5)
    backward(ad.scalar_mul(out, upstream))
    return out.values, anchor.grad, other.grad


@pytest.mark.parametrize("symmetric", [False, True])
def test_nce_denominator_bits_do_not_depend_on_threads(symmetric, rng,
                                                       monkeypatch):
    r = 4 * ad.NCE_BLOCK_ROWS + 5
    a = rng.normal(size=(r, 16))
    o = None if symmetric else rng.normal(size=(r, 16))
    serial = _nce_with_threads(monkeypatch, 1, a, o, 1.7)
    threaded = _nce_with_threads(monkeypatch, 2, a, o, 1.7)
    for got, want in zip(threaded, serial):
        assert np.array_equal(got, want)


def _two_pass_nce(a, o, tau):
    """The mean log-denominator and both input gradients by the two-pass
    arithmetic the op replaced, step for step: a forward that keeps the
    (r, 1) log-denominators, then a backward that scores each block again
    under tensor_mean's gradient (1/r) / tau."""
    r = a.shape[0]
    blocks = [(lo, min(lo + B, r)) for lo in range(0, r, B)]

    def scores(lo, hi):
        s = a[lo:hi] @ o.T
        s *= 1.0 / tau
        np.fill_diagonal(s[:, lo:hi], -np.inf)
        return s

    out = np.empty((r, 1), dtype=a.dtype)
    for lo, hi in blocks:
        s = scores(lo, hi)
        m = np.max(s, axis=1, keepdims=True)
        s -= m
        np.exp(s, out=s)
        out[lo:hi] = m + np.log(np.sum(s, axis=1, keepdims=True))
    scale = np.full((r, 1), a.dtype.type(1) / r, dtype=a.dtype) / tau
    da, do = np.empty_like(a), np.zeros_like(o)
    for lo, hi in blocks:
        w = scores(lo, hi)
        w -= out[lo:hi]
        np.exp(w, out=w)
        w *= scale[lo:hi]
        np.matmul(w, o, out=da[lo:hi])
        for j0, j1 in blocks:
            do[j0:j1] += w[:, j0:j1].T @ a[lo:hi]
    return (np.sum(out) / r).reshape(1, 1), da, do


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_nce_denominator_keeps_the_two_pass_bits_on_distinct_inputs(
        threads, dtype, rng, monkeypatch):
    # L-GRACE's inputs: unit rows, the other's drawn apart from the
    # anchor's, over five row blocks
    r = 4 * B + 5
    a, o = rng.normal(size=(2, r, 32))
    a /= np.linalg.norm(a, axis=1, keepdims=True)
    o /= np.linalg.norm(o, axis=1, keepdims=True)
    a, o = a.astype(dtype), o.astype(dtype)
    got = _nce_with_threads(monkeypatch, threads, a, o)
    for g, want in zip(got, _two_pass_nce(a, o, 0.5)):
        assert g.dtype == want.dtype
        assert g.tobytes() == want.tobytes()


def test_run_blocks_keeps_block_order_for_the_ordered_step():
    # later blocks finish their body first, yet the ordered step and the
    # caller's return wait for every earlier block
    blocks = [(lo, lo + 1) for lo in range(6)]
    ran_on, order = set(), []

    def body(lo, hi):
        time.sleep(0.005 * (len(blocks) - lo))
        ran_on.add(threading.get_ident())
        return lo

    ad._run_blocks(blocks, 2, body, lambda lo, hi, carry: order.append(carry))
    assert order == list(range(6))
    assert len(ran_on) == 2


def test_run_blocks_reraises_a_failed_block_without_hanging():
    def body(lo, hi):
        if lo == 1:
            raise ValueError("block 1 failed")
        time.sleep(0.01)

    caught = []

    def call():
        try:
            ad._run_blocks([(lo, lo + 1) for lo in range(8)], 2, body,
                           lambda lo, hi, carry: None)
        except ValueError as exc:
            caught.append(exc)

    caller = threading.Thread(target=call, daemon=True)
    caller.start()
    caller.join(timeout=60)
    assert not caller.is_alive(), "a failed block left the others waiting"
    assert [str(e) for e in caught] == ["block 1 failed"]


@pytest.mark.parametrize("blas, sharers, cpus, budget", [
    (None, 1, 2, 1), (1, 1, 2, 2), (2, 1, 2, 1), (4, 1, 2, 1), (1, 1, 1, 1),
    (1, 2, 2, 1), (1, 1, 8, 2), (1, 2, 8, 2), (2, 2, 8, 2), (2, 1, 3, 1)])
def test_nce_thread_budget_splits_cpus_over_blas_and_workers(
        blas, sharers, cpus, budget, monkeypatch):
    monkeypatch.setattr(process, "blas_threads", lambda: blas)
    monkeypatch.setattr(process, "_cpu_sharers", sharers)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                        raising=False)
    assert ad.nce_thread_budget() == budget


@pytest.mark.parametrize("symmetric", [False, True])
def test_nce_denominator_scratch_does_not_grow_with_cpus(symmetric, rng,
                                                         monkeypatch):
    # an 8-CPU host with OpenBLAS on 1 thread: the blocks in flight are
    # capped, so the row-block scratch bound holds as on one thread
    monkeypatch.setattr(process, "blas_threads", lambda: 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)),
                        raising=False)
    r = 6000
    assert ad._nce_threads(-(-r // ad.NCE_BLOCK_ROWS)) == ad.NCE_MAX_THREADS
    a = leaf(rng, (r, 8))
    o = a if symmetric else leaf(rng, (r, 8))
    tracemalloc.start()
    try:
        backward(ad.tensor_sum(ad.nce_denominator(a, o, 0.5)))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * r * r / 4


def test_run_blocks_ordered_steps_lose_no_update_under_stress():
    # more threads than cores and a short switch interval: the ordered
    # step's unlocked read-modify-write still sees every earlier block
    blocks = [(lo, lo + 1) for lo in range(300)]
    total, order = [0], []

    def in_order(lo, hi, carry):
        seen = total[0]
        order.append(carry)
        total[0] = seen + carry

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        caller = threading.Thread(
            target=ad._run_blocks,
            args=(blocks, 8, lambda lo, hi: lo, in_order), daemon=True)
        caller.start()
        caller.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not caller.is_alive(), "the ordered steps deadlocked"
    assert order == list(range(300))
    assert total[0] == sum(range(300))


def test_run_blocks_on_one_thread_stays_on_the_caller():
    ran_on, order = set(), []

    def body(lo, hi):
        ran_on.add(threading.get_ident())
        return lo

    ad._run_blocks([(lo, lo + 1) for lo in range(4)], 1, body,
                   lambda lo, hi, carry: order.append(carry))
    assert ran_on == {threading.get_ident()}
    assert order == [0, 1, 2, 3]


def test_nce_threads_stay_at_most_half_the_blocks(monkeypatch):
    monkeypatch.setattr(ad, "nce_thread_budget", lambda: 2)
    assert [ad._nce_threads(n) for n in (1, 2, 3, 4, 8)] == [1, 1, 1, 2, 2]


FORK_PROBE = """
import multiprocessing
from concurrent.futures import ProcessPoolExecutor

import numpy as np

import linkssl.autodiff as ad

ad._nce_threads = lambda n_blocks: 2


def run():
    rng = np.random.default_rng(0)
    r = 4 * ad.NCE_BLOCK_ROWS + 5
    anchor = ad.Tensor(rng.normal(size=(r, 8)), requires_grad=True)
    other = ad.Tensor(rng.normal(size=(r, 8)), requires_grad=True)
    out = ad.nce_denominator(anchor, other, 0.5)
    ad.backward(ad.tensor_sum(out))
    return out.values, anchor.grad, other.grad


if __name__ == "__main__":
    parent = run()
    fork = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(2, mp_context=fork) as pool:
        child = pool.submit(run).result()
    print(all(np.array_equal(x, y) for x, y in zip(parent, child)))
"""


@pytest.mark.skipif(sys.platform != "linux", reason="needs fork")
def test_threaded_nce_denominator_survives_a_fork():
    # the parent runs the op on 2 threads, then a forked worker runs it
    # again; threads the parent kept would not exist in the child, and a
    # pool waiting on them would hang, so a timeout fails the test
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + [p for p in [env.get("PYTHONPATH")] if p])
    # its own session, so a timeout also kills the forked workers
    probe = subprocess.Popen([sys.executable, "-c", FORK_PROBE], env=env,
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                             text=True, start_new_session=True)
    try:
        stdout, stderr = probe.communicate(timeout=120)
    except subprocess.TimeoutExpired:
        os.killpg(probe.pid, signal.SIGKILL)
        probe.communicate()
        pytest.fail("the forked worker hung in nce_denominator")
    assert probe.returncode == 0, stderr
    assert stdout.split() == ["True"]


@settings(max_examples=150, deadline=None)
@given(n=st.integers(1, 8), d=st.integers(1, 4),
       idx=st.lists(st.integers(0, 7), max_size=20),
       seed=st.integers(0, 2 ** 32 - 1))
def test_gather_rows_backward_equals_add_at(n, d, idx, seed):
    # the sparse scatter must add duplicate rows exactly as np.add.at does
    idx = [i % n for i in idx]
    rng = np.random.default_rng(seed)
    x = Tensor(rng.normal(size=(n, d)), requires_grad=True)
    g = rng.normal(size=(len(idx), d))
    backward(ad.tensor_sum(ad.elementwise_mul(ad.gather_rows(x, idx),
                                              Tensor(g))))
    want = np.zeros((n, d))
    np.add.at(want, np.asarray(idx, dtype=np.intp), g)
    assert np.array_equal(x.grad, want)


@settings(max_examples=150, deadline=None)
@given(n=st.integers(1, 8), d=st.integers(1, 4),
       pairs=st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)),
                      max_size=20),
       seed=st.integers(0, 2 ** 32 - 1))
def test_pair_product_equals_gather_and_multiply(n, d, pairs, seed):
    # the one op must give the composition's bits in both passes, duplicate
    # and self pairs included; x's other use reaches its grad first, so the
    # order in which the two scattered parts are added to it counts
    pairs = np.array([(u % n, v % n) for u, v in pairs],
                     dtype=np.intp).reshape(-1, 2)
    rng = np.random.default_rng(seed)
    values = rng.normal(size=(n, d))
    g, other = rng.normal(size=(len(pairs), d)), rng.normal(size=(n, d))

    def run(product):
        x = Tensor(values.copy(), requires_grad=True)
        rows = product(x, pairs[:, 0], pairs[:, 1])
        backward(ad.add(ad.tensor_sum(ad.elementwise_mul(x, Tensor(other))),
                        ad.tensor_sum(ad.elementwise_mul(rows, Tensor(g)))))
        return rows.values, x.grad

    rows, grad = run(ad.pair_product)
    want_rows, want_grad = run(lambda x, u, v: ad.elementwise_mul(
        ad.gather_rows(x, u), ad.gather_rows(x, v)))
    assert np.array_equal(rows, want_rows)
    assert np.array_equal(grad, want_grad)


@pytest.mark.parametrize("bad", [-1, 5])
def test_pair_product_rejects_ids_outside_the_rows(bad):
    x = Tensor(np.ones((5, 2)))
    with pytest.raises(ValueError, match=rf"pair id {bad} .*n = 5"):
        ad.pair_product(x, [0, bad], [1, 2])
    with pytest.raises(ValueError, match=rf"pair id {bad} .*n = 5"):
        ad.pair_product(x, [0, 1], [bad, 2])


def _link_mlp(rng, d, hidden, dtype):
    """A link head in `dtype` whose four parameters are all nonzero."""
    mlp = MLP(d, hidden, d, rng, name="link", dtype=dtype)
    for p in (mlp.b1, mlp.b2):
        p.tensor.values[...] = rng.normal(size=p.shape) * 0.1
    return mlp


def _composed_mlp(x, mlp):
    """The matmul/add/relu composition that autodiff.mlp replaces."""
    hidden = ad.relu(ad.add(ad.matmul(x, mlp.w1.tensor), mlp.b1.tensor))
    return ad.add(ad.matmul(hidden, mlp.w2.tensor), mlp.b2.tensor)


def _pair_mlp_rows(x, u, v, mlp):
    return ad.pair_mlp(x, u, v, mlp.w1.tensor, mlp.b1.tensor, mlp.w2.tensor,
                       mlp.b2.tensor)


@pytest.mark.parametrize("k", [1, 9])
def test_pair_mlp_keeps_the_bits_of_the_composition(k, rng):
    # float32, as training runs it: one x feeds two link sets and a third
    # use under one backward, so the order in which each op adds into x's
    # and the parameters' grads counts; k = 1 gives one-row bias shares
    n, d, hidden = 6, 4, 8
    xv = rng.normal(size=(n, d)).astype(np.float32)
    other = rng.normal(size=(n, d)).astype(np.float32)
    mlp = _link_mlp(rng, d, hidden, np.float32)
    sets = [rng.integers(0, n, size=(2, k)) for _ in range(2)]
    if k > 1:
        sets[0][:, 1] = sets[0][:, 0]  # a repeated pair
        sets[1][1, 2] = sets[1][0, 2]  # a (u, u) pair
    ups = [rng.normal(size=(k, d)).astype(np.float32) for _ in sets]

    def run(link_rows):
        head = copy.deepcopy(mlp)
        x = Tensor(xv.copy(), requires_grad=True)
        rows = [link_rows(x, u, v, head) for u, v in sets]
        loss = ad.tensor_sum(ad.elementwise_mul(x, Tensor(other)))
        for r, g in zip(rows, ups):
            loss = ad.add(loss, ad.tensor_sum(ad.elementwise_mul(r,
                                                                 Tensor(g))))
        backward(loss)
        grads = [x.grad] + [p.grad for p in head.parameters()]
        assert not any(np.shares_memory(a, b)
                       for i, a in enumerate(grads) for b in grads[:i])
        return [r.values for r in rows] + grads

    got = run(_pair_mlp_rows)
    want = run(lambda x, u, v, head: _composed_mlp(ad.pair_product(x, u, v),
                                                   head))
    assert len(got) == len(want) == 7
    for a, b in zip(got, want):
        assert a.dtype == b.dtype == np.float32
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


def test_pair_mlp_hands_each_parent_its_own_bias_gradient():
    # at k = 1 a bias's share of g is g itself; with one (1, 1) tensor in
    # every role, a bias grad that adopted g would be added into before
    # the rule reads g again
    def grad(link_rows):
        t = Tensor([[0.7]], requires_grad=True)
        backward(ad.tensor_sum(ad.elementwise_mul(link_rows(t),
                                                  Tensor([[1.3]]))))
        return t.grad

    got = grad(lambda t: ad.pair_mlp(t, [0], [0], t, t, t, t))
    want = grad(lambda t: ad.add(ad.matmul(ad.relu(ad.add(ad.matmul(
        ad.pair_product(t, [0], [0]), t), t)), t), t))
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("bad", [-1, 5])
def test_pair_mlp_rejects_ids_outside_the_rows(bad, rng):
    x = Tensor(np.ones((5, 2)))
    mlp = _link_mlp(rng, 2, 3, np.float64)
    for u, v in (([0, bad], [1, 2]), ([0, 1], [bad, 2])):
        with pytest.raises(ValueError, match=rf"pair id {bad} .*n = 5"):
            _pair_mlp_rows(x, u, v, mlp)


def test_pair_mlp_graph_keeps_no_link_row(rng):
    # the composition's graph keeps the (k, d) product rows and the (k, h)
    # hidden layer for its matmul rules; the op's keeps only x, the ids
    # and the parameters, and a forward that needs no grad keeps nothing
    n, d, hidden, k = 7, 4, 6, 11
    x = Tensor(rng.normal(size=(n, d)), requires_grad=True)
    mlp = _link_mlp(rng, d, hidden, np.float64)
    u, v = rng.integers(0, n, size=(2, k))
    wide = {(k, d), (k, hidden)}

    composed = _composed_mlp(ad.pair_product(x, u, v), mlp)
    kept = {a.shape for a in _reachable(composed._node)[1]}
    assert wide <= kept

    refs = []
    real_maximum = np.maximum

    def maximum(*args, **kwargs):  # the op's hidden layer, in its forward
        out = real_maximum(*args, **kwargs)
        refs.append(weakref.ref(out))
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ad.np, "maximum", maximum)
        out = _pair_mlp_rows(x, u, v, mlp)
    assert len(refs) == 1 and refs[0]() is None
    # the parents' values and grads (a Parameter starts at a zero grad)
    leaves = [x.values, u.base] + [a for p in mlp.parameters()
                                   for a in (p.tensor.values, p.grad)]
    saved = _reachable(out._node)[1]
    assert {id(a) for a in saved} == {id(a) for a in leaves}
    backward(ad.tensor_sum(out))
    assert x.grad.shape == (n, d) and mlp.w1.grad.shape == (d, hidden)

    target = copy.deepcopy(mlp)  # as the bootstrapped target's copy
    for p in target.parameters():
        p.tensor.requires_grad = False
    frozen = _pair_mlp_rows(Tensor(x.values), u, v, target)
    assert frozen._node is None and not frozen.requires_grad
    assert np.array_equal(frozen.values, out.values)


# --- fused ops: one op in place of a composition -----------------------------
#
# batch_norm and layer_norm with a slope, mlp and row_cosine_similarity each
# replace a composition of simpler ops. Each gives the composition's bits in
# float32, value and every gradient, and its graph keeps less.

NORM_KINDS = ["train", "eval", "layer"]


def _norm(kind, x, gamma, beta, state, slope=None):
    """Batch norm on batch ("train") or running ("eval") statistics, or
    layer norm ("layer"); prelu-fused when given a slope."""
    if kind == "layer":
        return ad.layer_norm(x, gamma, beta, slope=slope)
    return ad.batch_norm(x, gamma, beta, state, 0.9, kind == "train",
                         slope=slope)


def _norm_inputs(rng, d, dtype):
    """(gamma, beta, state) in `dtype`, gamma and beta away from 1 and 0."""
    gamma = rng.uniform(0.5, 1.5, size=(1, d)).astype(dtype)
    beta = (rng.normal(size=(1, d)) * 0.3).astype(dtype)
    state = {"running_mean": (rng.normal(size=(1, d)) * 0.2).astype(dtype),
             "running_var": rng.uniform(0.5, 2.0, size=(1, d)).astype(dtype)}
    return gamma, beta, state


@pytest.mark.parametrize("s", [0.25, -0.5])
@pytest.mark.parametrize("kind", NORM_KINDS)
def test_fused_norm_gradient(kind, s, rng):
    x = leaf(rng, (6, 4))
    gv, bv, state = _norm_inputs(rng, 4, np.float64)

    def fn(a, gamma, beta, slope):
        fresh = {k: v.copy() for k, v in state.items()}
        return ad.tensor_sum(ad.sigmoid(_norm(kind, a, gamma, beta, fresh,
                                              slope=slope)))

    inputs = [x, Tensor(gv), Tensor(bv), Tensor([[s]])]
    assert grad_check(fn, inputs) < 1e-6


@pytest.mark.parametrize("kind", NORM_KINDS)
def test_fused_norm_keeps_the_bits_of_the_composition(kind, rng):
    # float32, as training runs it: the two views of GRACE share the slope,
    # gamma and beta, and the first view's input feeds a third op, so the
    # order in which each rule adds into a grad counts
    n, d = 7, 5
    xs = [rng.normal(loc=0.3, size=(n, d)).astype(np.float32)
          for _ in range(2)]
    gv, bv, state = _norm_inputs(rng, d, np.float32)
    other = rng.normal(size=(n, d)).astype(np.float32)
    ups = [rng.normal(size=(n, d)).astype(np.float32) for _ in xs]

    def run(layer):
        x1, x2 = (Tensor(v.copy(), requires_grad=True) for v in xs)
        gamma, beta = (Tensor(v.copy(), requires_grad=True)
                       for v in (gv, bv))
        slope = Tensor(np.full((1, 1), 0.25, dtype=np.float32),
                       requires_grad=True)
        running = {k: v.copy() for k, v in state.items()}
        outs = [layer(x, gamma, beta, running, slope) for x in (x1, x2)]
        loss = ad.tensor_sum(ad.elementwise_mul(x1, Tensor(other)))
        for out, up in zip(outs, ups):
            loss = ad.add(loss, ad.tensor_sum(ad.elementwise_mul(
                out, Tensor(up))))
        backward(loss)
        grads = [t.grad for t in (x1, x2, gamma, beta, slope)]
        assert not any(np.shares_memory(a, b)
                       for i, a in enumerate(grads) for b in grads[:i])
        return ([o.values for o in outs] + grads
                + [running[k] for k in sorted(running)])

    got = run(lambda x, g, b, st, s: _norm(kind, x, g, b, st, slope=s))
    want = run(lambda x, g, b, st, s: ad.prelu(_norm(kind, x, g, b, st), s))
    assert len(got) == len(want) == 9
    for a, b in zip(got, want):
        assert a.dtype == b.dtype == np.float32
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("kind", NORM_KINDS)
def test_fused_norm_graph_keeps_xhat_but_not_the_norm_output(kind, rng,
                                                             monkeypatch):
    # the composition's graph keeps the norm output y for prelu's rule; the
    # fused op's keeps only x̂, and y never exists apart from the output
    gv, bv, state = _norm_inputs(rng, 4, np.float64)
    gamma, beta = Tensor(gv, requires_grad=True), Tensor(bv)
    slope = Tensor([[0.25]], requires_grad=True)
    xhats = []

    def scale_shift(x, xhat, *args, _scale_shift=ad._scale_shift):
        xhats.append(weakref.ref(xhat))
        return _scale_shift(x, xhat, *args)

    monkeypatch.setattr(ad, "_scale_shift", scale_shift)
    x = leaf(rng, (6, 4))
    normed = _norm(kind, x, gamma, beta, state)
    y = weakref.ref(normed.values)
    loss = ad.tensor_sum(ad.prelu(normed, slope))
    del normed
    assert y() is not None

    out = _norm(kind, x, gamma, beta, state, slope=slope)
    fused = [weakref.ref(out.values), xhats[-1]]
    loss = ad.tensor_sum(out)
    del out
    assert fused[0]() is None and fused[1]() is not None
    backward(loss)
    assert x.grad.shape == (6, 4) and slope.grad.shape == (1, 1)
    del loss
    assert y() is None and fused[1]() is None


def _composed_cosine(a, b):
    """The composition that autodiff.row_cosine_similarity replaces."""
    return ad.row_sum(ad.elementwise_mul(ad.row_l2_normalize(a),
                                         ad.row_l2_normalize(b)))


def test_row_cosine_gradient_with_one_tensor_as_both_rows(rng):
    # cos(v, v) is 1 on every row, so its gradient is 0; the row sums give
    # the check a gradient to compare
    fn = lambda v: ad.tensor_sum(ad.elementwise_mul(
        ad.row_cosine_similarity(v, v), ad.row_sum(v)))
    assert grad_check(fn, [leaf(rng, (4, 3))]) < 1e-6


def test_row_cosine_gradient_against_a_constant_target(rng):
    # BGRL's case: b needs no grad. One target row is below the EPS
    # floor, so it divides by EPS, and one is zero, so its unit row is 0
    # and the prediction's row gets no gradient
    bv = rng.normal(size=(5, 3))
    bv[1] = 0.0
    bv[3] *= 1e-14
    fn = lambda a: ad.tensor_sum(ad.sigmoid(ad.row_cosine_similarity(
        a, Tensor(bv))))
    a = leaf(rng, (5, 3))
    assert grad_check(fn, [a]) < 1e-6
    assert not a.grad[1].any() and a.grad[3].any()


@pytest.mark.parametrize("case", ["distinct", "same", "constant_b"])
def test_row_cosine_keeps_the_bits_of_the_composition(case, rng):
    # float32: a feeds two cosines and a third op under one backward; a
    # zero row and a row below the EPS floor on each side
    n, d = 6, 5
    av, bv, cv, other = (rng.normal(size=(n, d)).astype(np.float32)
                         for _ in range(4))
    av[1] = 0.0
    av[3] *= 1e-14
    bv[2] = 0.0
    bv[4] *= 1e-14
    ups = [rng.normal(size=(n, 1)).astype(np.float32) for _ in range(2)]

    def run(cos):
        a = Tensor(av.copy(), requires_grad=True)
        b, c = (Tensor(v.copy(), requires_grad=case == "distinct")
                for v in (bv, cv))
        if case == "same":
            b = a
        outs = [cos(a, b), cos(c, a)]
        loss = ad.tensor_sum(ad.elementwise_mul(a, Tensor(other)))
        for out, up in zip(outs, ups):
            loss = ad.add(loss, ad.tensor_sum(ad.elementwise_mul(
                out, Tensor(up))))
        backward(loss)
        grads = [t.grad for t in ((a, c) if b is a else (a, b, c))
                 if t.requires_grad]
        return [o.values for o in outs] + grads

    got = run(ad.row_cosine_similarity)
    want = run(_composed_cosine)
    assert len(got) == len(want) == (5 if case == "distinct" else 3)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype == np.float32
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("b_grad", [False, True])
def test_row_cosine_graph_keeps_no_unit_target(b_grad, rng, monkeypatch):
    # the graph keeps â; it keeps b̂ only where b needs a gradient, and
    # otherwise a reference to b's values, from which backward rebuilds b̂
    units = []

    def unit_rows(values, _unit_rows=ad._unit_rows):
        out = _unit_rows(values)
        units.append(weakref.ref(out[0]))
        return out

    monkeypatch.setattr(ad, "_unit_rows", unit_rows)
    a = leaf(rng, (5, 3))
    b = Tensor(rng.normal(size=(5, 3)), requires_grad=b_grad)
    loss = ad.tensor_sum(ad.row_cosine_similarity(a, b))
    a_unit, b_unit = units
    assert a_unit() is not None
    assert (b_unit() is not None) == b_grad
    assert any(v is b.values for v in _reachable(loss._node)[1])
    backward(loss)
    assert len(units) == (2 if b_grad else 3)
    if not b_grad:  # the rebuilt b̂, turned in place into a's gradient
        assert units[-1]() is a.grad
    del loss
    assert a_unit() is None and b_unit() is None


def test_mlp_gradient(rng):
    fn = lambda x, w1, b1, w2, b2: ad.tensor_sum(ad.sigmoid(
        ad.mlp(x, w1, b1, w2, b2)))
    shapes = [(5, 3), (3, 4), (1, 4), (4, 2), (1, 2)]
    inputs = [leaf(rng, s) for s in shapes]
    inputs[2].values += 0.3  # more hidden units active
    assert grad_check(fn, inputs) < 1e-6


@pytest.mark.parametrize("n", [1, 6])
def test_mlp_keeps_the_bits_of_the_composition(n, rng):
    # float32: one head over two inputs, as the bootstrapped predictor's
    # two branches would be under one backward, with x feeding a third op;
    # n = 1 gives one-row bias shares
    d, hidden = 4, 8
    xv, other = (rng.normal(size=(n, d)).astype(np.float32)
                 for _ in range(2))
    mlp = _link_mlp(rng, d, hidden, np.float32)
    ups = [rng.normal(size=(n, d)).astype(np.float32) for _ in range(2)]

    def run(head_rows):
        head = copy.deepcopy(mlp)
        x = Tensor(xv.copy(), requires_grad=True)
        outs = [head_rows(x, head), head_rows(ad.scalar_mul(x, -0.5), head)]
        loss = ad.tensor_sum(ad.elementwise_mul(x, Tensor(other)))
        for out, up in zip(outs, ups):
            loss = ad.add(loss, ad.tensor_sum(ad.elementwise_mul(
                out, Tensor(up))))
        backward(loss)
        grads = [x.grad] + [p.grad for p in head.parameters()]
        assert not any(np.shares_memory(a, b)
                       for i, a in enumerate(grads) for b in grads[:i])
        return [o.values for o in outs] + grads

    got = run(lambda x, head: ad.mlp(x, *(p.tensor
                                          for p in head.parameters())))
    want = run(_composed_mlp)
    assert len(got) == len(want) == 7
    for a, b in zip(got, want):
        assert a.dtype == b.dtype == np.float32
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


def test_mlp_graph_keeps_its_input_but_no_hidden_layer(rng):
    # the composition's graph keeps the (n, h) ReLU output for its second
    # matmul's rule; the op's keeps x's values and the parameters only
    n, d, hidden = 9, 4, 6
    x = Tensor(rng.normal(size=(n, d)), requires_grad=True)
    mlp = _link_mlp(rng, d, hidden, np.float64)
    params = [p.tensor for p in mlp.parameters()]
    composed = _composed_mlp(x, mlp)
    assert (n, hidden) in {a.shape for a in _reachable(composed._node)[1]}

    refs = []
    real_maximum = np.maximum

    def maximum(*args, **kwargs):  # the op's hidden layer, in its forward
        out = real_maximum(*args, **kwargs)
        refs.append(weakref.ref(out))
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ad.np, "maximum", maximum)
        out = ad.mlp(x, *params)
    assert len(refs) == 1 and refs[0]() is None
    leaves = [x.values] + [a for p in mlp.parameters()
                           for a in (p.tensor.values, p.grad)]
    saved = _reachable(out._node)[1]
    assert {id(a) for a in saved} == {id(a) for a in leaves}
    backward(ad.tensor_sum(out))
    assert x.grad.shape == (n, d) and mlp.w2.grad.shape == (hidden, d)


@settings(max_examples=150, deadline=None)
@given(n=st.integers(1, 40), d=st.integers(1, 6),
       scale=st.sampled_from([1e-3, 1.0, 1e3]), training=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1))
def test_batch_norm_forward_equals_np_var_reference(n, d, scale, training,
                                                    seed):
    # centring once must give np.var's statistics and output bit for bit
    rng = np.random.default_rng(seed)
    x = rng.normal(loc=rng.normal(), size=(n, d)) * scale
    gamma = rng.uniform(0.5, 1.5, size=(1, d))
    beta = rng.normal(size=(1, d))
    state = {"running_mean": rng.normal(size=(1, d)),
             "running_var": rng.uniform(0.5, 2.0, size=(1, d))}
    want_state = {k: v.copy() for k, v in state.items()}
    out = ad.batch_norm(Tensor(x), Tensor(gamma), Tensor(beta), state,
                        momentum=0.9, training=training)
    if training:
        mu = np.mean(x, axis=0, keepdims=True)
        var = np.var(x, axis=0, keepdims=True)
        for key, batch in (("running_mean", mu), ("running_var", var)):
            want_state[key] *= 0.9
            want_state[key] += (1.0 - 0.9) * batch
    else:
        mu, var = want_state["running_mean"], want_state["running_var"]
    for key in state:
        assert np.array_equal(state[key], want_state[key])
    want = gamma * ((x - mu) * (1.0 / np.sqrt(var + 1e-5))) + beta
    assert np.array_equal(out.values, want)


def test_quadratic_form_grad_check_is_tight(rng):
    # Quadratic forms are exact under central differences up to roundoff.
    A = Tensor(rng.normal(size=(3, 3)))
    x = leaf(rng, (3, 1))
    fn = lambda v: ad.tensor_sum(ad.elementwise_mul(v, ad.matmul(A, v)))
    assert grad_check(fn, [x]) < 1e-9


# --- kernels pinned to their np.where formulas ------------------------------
#
# The per-element kernels are computed branch-free and in place; each must
# give exactly what the straightforward formula written out here gives.


def _upstream(out, rng):
    """Loss sum(out * w) for a fixed random w, so the op's upstream gradient
    is exactly w; returns (loss, w)."""
    w = rng.normal(size=out.shape)
    return ad.tensor_sum(ad.elementwise_mul(out, Tensor(w))), w


@pytest.mark.parametrize("s", [-0.5, 0.0, 0.3, 1.7])
def test_prelu_matches_where_formula(s, rng):
    xv = rng.normal(size=(6, 5))
    xv[0, :2] = 0.0
    xv[1, :2] = -0.0
    x = Tensor(xv.copy(), requires_grad=True)
    slope = Tensor([[s]], requires_grad=True)
    out = ad.prelu(x, slope)
    loss, g = _upstream(out, rng)
    backward(loss)
    neg = xv < 0.0
    assert np.array_equal(out.values, np.where(neg, s * xv, xv))
    assert np.array_equal(x.grad, g * np.where(neg, s, 1.0))
    assert np.array_equal(
        slope.grad, np.sum(g * np.where(neg, xv, 0.0), keepdims=True))


def test_row_l2_normalize_matches_where_formula_on_degenerate_rows(rng):
    xv = rng.normal(size=(5, 4))
    xv[2] = 0.0
    xv[3] *= 1e-14  # below the EPS floor, but not zero
    x = Tensor(xv.copy(), requires_grad=True)
    out = ad.row_l2_normalize(x)
    loss, g = _upstream(out, rng)
    backward(loss)
    norms = np.sqrt(np.sum(xv ** 2, axis=1, keepdims=True))
    denom = np.maximum(norms, ad.EPS)
    want = xv / denom
    correction = want * np.sum(want * g, axis=1, keepdims=True)
    correction = np.where(norms > ad.EPS, correction, 0.0)
    assert np.array_equal(out.values, want)
    assert np.array_equal(x.grad, (g - correction) / denom)
    assert np.array_equal(x.grad[2], g[2] / ad.EPS)


@pytest.mark.parametrize("training", [True, False])
def test_batch_norm_matches_formula(training, rng):
    n, d, momentum = 7, 4, 0.9
    xv = rng.normal(loc=1.0, size=(n, d))
    gv = rng.uniform(0.5, 1.5, size=(1, d))
    bv = rng.normal(size=(1, d))
    state = {"running_mean": rng.normal(size=(1, d)),
             "running_var": rng.uniform(0.5, 2.0, size=(1, d))}
    running = {k: v.copy() for k, v in state.items()}
    x, gamma, beta = (Tensor(v.copy(), requires_grad=True)
                      for v in (xv, gv, bv))
    out = ad.batch_norm(x, gamma, beta, state, momentum, training)
    loss, g = _upstream(out, rng)
    backward(loss)
    if training:
        mu = np.mean(xv, axis=0, keepdims=True)
        centred = xv - mu
        var = np.mean(centred * centred, axis=0, keepdims=True)
    else:
        centred = xv - running["running_mean"]
        var = running["running_var"]
    inv_std = 1.0 / np.sqrt(var + 1e-5)
    xhat = centred * inv_std
    dxhat = g * gv
    if training:
        want_dx = (inv_std / n) * (n * dxhat
                                   - np.sum(dxhat, axis=0, keepdims=True)
                                   - xhat * np.sum(dxhat * xhat, axis=0,
                                                   keepdims=True))
    else:
        want_dx = g * gv * inv_std
    assert np.array_equal(out.values, gv * xhat + bv)
    assert np.array_equal(x.grad, want_dx)
    assert np.array_equal(gamma.grad, np.sum(g * xhat, axis=0, keepdims=True))
    assert np.array_equal(beta.grad, np.sum(g, axis=0, keepdims=True))


def test_adam_step_matches_formula_over_three_steps(rng):
    lr, wd, (beta1, beta2), eps = 0.01, 0.05, (0.9, 0.999), 1e-8
    p = Parameter(rng.normal(size=(4, 3)))
    values = p.values.copy()
    m, v = np.zeros((4, 3)), np.zeros((4, 3))
    for t in range(1, 4):
        g = rng.normal(size=(4, 3))
        p.tensor.grad = g.copy()
        adam_step([p], lr=lr, weight_decay=wd)
        values *= 1.0 - lr * wd
        m = beta1 * m + (1.0 - beta1) * g
        v = beta2 * v + (1.0 - beta2) * (g * g)
        m_hat = m / (1.0 - beta1 ** t)
        v_hat = v / (1.0 - beta2 ** t)
        values -= lr * m_hat / (np.sqrt(v_hat) + eps)
        assert np.array_equal(p.adam_m, m)
        assert np.array_equal(p.adam_v, v)
        assert np.array_equal(p.values, values)
    assert p.step_count == 3


# --- gradient ownership ------------------------------------------------------
#
# A tensor's first gradient contribution becomes its grad without a copy;
# these check that no two tensors, and no later contribution, share it.


def test_add_gives_each_parent_its_own_gradient(rng):
    # backward consumes a graph, so the second accumulation, which must add
    # into the grads a and b adopted and never alias them, builds its own
    a, b = leaf(rng, (3, 4)), leaf(rng, (3, 4))
    g = rng.normal(size=(3, 4))
    for times in (1, 2):
        backward(ad.tensor_sum(ad.elementwise_mul(ad.add(a, b), Tensor(g))))
        assert a.grad is not b.grad
        assert not np.shares_memory(a.grad, b.grad)
        assert np.array_equal(a.grad, times * g), times
        assert np.array_equal(b.grad, times * g), times


def _shared_and_split(build, shape, rng):
    """Gradients of one leaf used twice by `build`, against the sum of the
    gradients of two independent copies, after one and two backwards (each
    through a graph of its own, since backward consumes the graph)."""
    xv = rng.normal(size=shape)
    # small integer upstream gradients keep every sum exact
    w = rng.integers(-4, 5, size=build(Tensor(xv), Tensor(xv)).shape)
    x = Tensor(xv.copy(), requires_grad=True)
    x1, x2 = (Tensor(xv.copy(), requires_grad=True) for _ in range(2))
    for times in (1, 2):
        backward(ad.tensor_sum(ad.elementwise_mul(build(x, x), Tensor(w))))
        backward(ad.tensor_sum(ad.elementwise_mul(build(x1, x2),
                                                  Tensor(w))))
        assert np.array_equal(x.grad, x1.grad + x2.grad), times


@pytest.mark.parametrize("build", [
    lambda p, q: ad.add(p, q),
    lambda p, q: ad.concat_rows([p, q]),
    lambda p, q: ad.add(ad.transpose(p), ad.transpose(q)),
    lambda p, q: ad.concat_rows([ad.transpose(p), ad.transpose(q)]),
], ids=["add", "concat_rows", "transpose", "concat_of_transposes"])
def test_shared_leaf_gradient_equals_copies(build, rng):
    _shared_and_split(build, (3, 4), rng)


# --- what a graph holds -------------------------------------------------------


def _reachable(root):
    """(tensors, base arrays) reachable from `root` through tensors,
    backward nodes, tuples, lists and backward rules' closure cells; each
    array is the base array it views."""
    tensors, arrays, seen, stack = [], {}, set(), [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, Tensor):
            tensors.append(obj)
        if isinstance(obj, np.ndarray):
            while isinstance(obj.base, np.ndarray):
                obj = obj.base
            arrays[id(obj)] = obj
        elif isinstance(obj, types.FunctionType):
            stack.extend(c.cell_contents for c in obj.__closure__ or ())
        elif isinstance(obj, (Tensor, ad._Node, tuple, list)):
            stack.extend(gc.get_referents(obj))
    return tensors, list(arrays.values())


def _norm_case(norm):
    def fn(a, g, b):
        if norm == "layer_norm":
            return ad.tensor_sum(ad.sigmoid(ad.layer_norm(a, g, b)))
        state = {"running_mean": np.zeros((1, 3)),
                 "running_var": np.ones((1, 3))}
        return ad.tensor_sum(ad.sigmoid(
            ad.batch_norm(a, g, b, state, momentum=0.9, training=True)))
    return (norm, fn, [(4, 3), (1, 3), (1, 3)])


GRAPH_CASES = OP_CASES + [
    ("prelu", lambda a, s: ad.tensor_sum(ad.sigmoid(ad.prelu(a, s))),
     [(4, 3), (1, 1)]),
    ("sparse_matmul", lambda a: ad.tensor_sum(ad.sigmoid(ad.sparse_matmul(
        sparse.identity(4, format="csr"), a))), [(4, 3)]),
    _norm_case("layer_norm"), _norm_case("batch_norm"),
]


@pytest.mark.parametrize("name,fn,shapes", GRAPH_CASES,
                         ids=[c[0] for c in GRAPH_CASES])
def test_graph_holds_no_intermediate_tensor(name, fn, shapes, rng):
    # the graph links backward nodes, and a rule keeps arrays, never
    # tensors: from the loss only the leaves that need grad are reachable,
    # not the op outputs the case's ops take as their inputs
    inputs = [leaf(rng, s) for s in shapes]
    loss = fn(*(ad.scalar_mul(t, 1.0) for t in inputs))
    reached = {id(t) for t in _reachable(loss)[0]}
    assert reached <= {id(loss)} | {id(t) for t in inputs}
    assert reached >= {id(t) for t in inputs}


# --- allocation tracking -----------------------------------------------------


def test_allocation_tracker_records_shapes_and_peak():
    with ad.track_allocations() as tracker:
        a = Tensor(np.zeros((100, 100)))
        b = ad.add(a, a)
        del a, b
        Tensor(np.zeros((10, 10)))
    assert (100, 100) in tracker.shapes
    assert tracker.peak_live_bytes >= 2 * 100 * 100 * 8
    assert tracker.max_dim() == 100


# --- optimizer and EMA -------------------------------------------------------


def test_adam_first_step_is_signed_lr():
    p = Parameter(np.array([[1.0, -2.0]]))
    p.tensor.grad = np.array([[0.5, -3.0]])
    adam_step([p], lr=0.01)
    # bias-corrected first step: m_hat = g, v_hat = g^2 -> step ~ lr * sign(g)
    assert p.values[0, 0] == pytest.approx(1.0 - 0.01, rel=1e-6)
    assert p.values[0, 1] == pytest.approx(-2.0 + 0.01, rel=1e-6)


def test_adam_zero_gradient_leaves_parameter_unchanged():
    p = Parameter(np.array([[1.5]]))
    adam_step([p], lr=0.01, weight_decay=0.0)
    assert p.values[0, 0] == 1.5


def test_adam_decoupled_decay_scales_by_one_minus_lr_wd():
    p = Parameter(np.array([[2.0]]))
    adam_step([p], lr=0.01, weight_decay=0.01)
    assert p.values[0, 0] == pytest.approx(2.0 * (1.0 - 1e-4), rel=1e-12)


def _frozen_copy(p):
    # the target side of an EMA pair, as the bootstrapped models build it
    target = Parameter(p.values.copy(), name=p.name)
    target.tensor.requires_grad = False
    target.tensor.grad = None
    return target


def test_ema_decay_one_freezes_shadow():
    p = Parameter(np.array([[1.0]]))
    target = _frozen_copy(p)
    p.tensor.values[:] = 5.0
    ema_update(target, p, 1.0)
    assert target.values[0, 0] == 1.0


def test_ema_decay_zero_copies_online():
    p = Parameter(np.array([[1.0]]))
    target = _frozen_copy(p)
    p.tensor.values[:] = 5.0
    ema_update(target, p, 0.0)
    assert target.values[0, 0] == 5.0


def test_ema_geometric_convergence():
    p = Parameter(np.array([[1.0]]))
    target = _frozen_copy(p)
    target.tensor.values[:] = 0.0
    for t in range(1, 51):
        ema_update(target, p, 0.99)
        assert target.values[0, 0] == pytest.approx(1.0 - 0.99 ** t, rel=1e-9)


def test_ema_shadow_tensor_never_requires_grad():
    p = Parameter(np.ones((2, 2)))
    target = _frozen_copy(p)
    ema_update(target, p, 0.9)
    backward(ad.tensor_sum(ad.elementwise_mul(p.tensor, target.tensor)))
    assert not target.tensor.requires_grad
    assert target.tensor._backward_fn is None
    assert target.tensor.grad is None


def test_ema_update_rejects_decay_outside_unit_interval():
    p = Parameter(np.ones((2, 2)))
    target = _frozen_copy(p)
    target.tensor.values[:] = 0.0
    for decay in (-0.1, 1.5):
        with pytest.raises(ValueError, match="decay"):
            ema_update(target, p, decay)
    assert np.all(target.values == 0.0)
