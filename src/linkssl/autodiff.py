"""Minimal reverse-mode automatic differentiation over dense 2-D arrays.

Every value is a Tensor holding a float32 or float64 matrix of shape
(rows, cols). Scalars are (1, 1) matrices and vectors are single-row or
single-column matrices. Operations record a backward closure; backward()
walks the graph once in reverse topological order and accumulates
gradients into leaf tensors. Gradients persist across backward calls
until zeroed, so calling backward twice doubles them.

The ops are dtype-generic. A Tensor keeps float32 values and casts
anything else to float64; an op fed float32 returns float32 and its rule
builds float32 gradients, and likewise for float64 (mixed inputs promote
to float64, as numpy does). The constants an op makes take its input's
dtype: the backward seed, the tensor_sum and tensor_mean fills,
nce_denominator's log-denominators and gradient scale, the row scatter of
gather_rows, pair_product and pair_mlp and row_slice's zero grad. Training
builds float32 models (models.nets); grad_check and the op tests run in
float64.

Gradient ownership: a backward_fn hands each array it builds to at most
one _accumulate call and keeps no reference to it, so the first
contribution a node receives becomes its grad without a copy and later
ones are added into it in place. `add` is the one op whose upstream
gradient can reach two parents unchanged; it copies for the second.
mlp and pair_mlp hand a bias its share of the upstream gradient, which
for one row is that gradient itself, and copy it then, since their rule
goes on reading the gradient. The same ownership lets a rule write its
input's gradient over the grad flowing in, which no other node reads:
relu, prelu, the normalizations (fused or not), row_l2_normalize and
row_cosine_similarity do. `row_slice` adds its gradient into rows of the
parent's grad in place (_accumulate_rows), which is safe for the same
reason.

The per-element kernels (relu, prelu, batch_norm, layer_norm,
row_l2_normalize, row_cosine_similarity and mlp's ReLU mask) are
branch-free: they use min/max and arithmetic on masks rather than
np.where over data-dependent signs, and write into arrays they own.

Graph lifetime: the graph links backward nodes, not tensors. An op
output that needs grad points to its node, which holds the op's rule, the
nodes of its parents and the grad flowing in; the rule's closure holds
only the arrays it reads (operands for matmul, elementwise_mul, logaddexp
and prelu, the output for relu, sigmoid and row_l2_normalize, x̂ for the
normalizations, the unit rows â for row_cosine_similarity, the input and
the four parameter arrays for mlp, the (n, d) input and the two index
arrays for pair_product, those and the parameters for pair_mlp, the inputs
and the gradients it built for nce_denominator, shapes, bounds or indices
for the rest). So an op output's values die with the tensor unless a rule
saved them, and the graph, which lives as long as the loss's node, holds
just the nodes and the saved arrays. backward() frees only intermediate
grads, so backward on the same loss can run again. The training steps
pass each loss term straight into the call that differentiates it, and
build a step's next term only after the last one is dropped, so no graph
outlives its term.

A graph keeps only what its rules read, and rebuilds the rest in backward
with the forward's expressions (recomputation, Chen et al. 2016,
arXiv:1604.06174), so the bits are those of the composition each op
replaces:
- batch_norm and layer_norm given a PReLU slope return prelu of the norm
  as one op (In-Place Activated BatchNorm, Rota Bulò et al. 2018,
  arXiv:1712.02616): the graph keeps x̂ and rebuilds y = gamma x̂ + beta,
  where the composition also keeps y for prelu's rule. A GCN layer's graph
  thus holds x̂ and the layer output, which the next matmul or head reads.
- mlp, a two-layer head, keeps its input and rebuilds its (n, h) hidden
  layer, at one extra (n x d)(d x h) GEMM per backward.
- row_cosine_similarity keeps â and, where b needs no grad (BGRL's
  target), only a reference to b's values, from which it rebuilds b̂.
- pair_product builds the rows x[u] * x[v] and gathers the (k, d)
  endpoints again in backward instead of saving them; pair_mlp, the link
  MLP over those rows, rebuilds the rows and its hidden layer, so a link
  set's graph keeps only its endpoints.
The rules of the fused norms, mlp and the cosine keep their scratch
within two (n, d) or (n, h) arrays and a sign mask beyond the grad flowing
in. row_slice returns a view, so the InfoNCE losses
normalize both views' rows as one stacked array and read the positive
pairs from views of it.

The InfoNCE denominator (nce_denominator) keeps no score matrix and
returns only the mean its callers take. One pass walks the r x r scores
in blocks of NCE_BLOCK_ROWS rows, scores each block once and turns the
block into its softmax weights in place, so the input gradients are built
in the forward and held until backward hands them over: O(NCE_BLOCK_ROWS
x r) scratch in place of r x r arrays, the blockwise softmax of
FlashAttention (Dao et al. 2022) fused with its loss's backward. Like
FlashAttention-2 (Dao 2023) it runs the row blocks on T threads, so the
scratch is O(T x NCE_BLOCK_ROWS x r). Threads never change bits: they
partition the outputs, never a GEMM's reduction, every GEMM keeps the
shape it has on one thread, and the one sum across blocks is added in
block order. T is process.nce_thread_budget, at most NCE_MAX_THREADS = 2,
so the scratch is at most twice one thread's.

Sparse adjacency matrices enter only through sparse_matmul and are
treated as constants (never differentiated).
"""

from __future__ import annotations

import math
import threading
import weakref
from contextlib import contextmanager

import numpy as np
from scipy import sparse

from .process import NCE_MAX_THREADS, nce_thread_budget, share_one_heap

EPS = 1e-12
NCE_BLOCK_ROWS = 256  # rows of the InfoNCE score matrix held at a time
NCE_EXP_ROWS = 32  # rows of a block whose log-sum-exp exp is in flight


class AllocationTracker:
    """Records the shape and live-byte footprint of arrays created while active.

    Used to verify memory-scaling claims: `shapes` lists every allocation,
    `peak_live_bytes` tracks the high-water mark of simultaneously live
    tensor storage (auxiliary op caches included). Each array counts as
    live until the array itself is collected, so a tensor's values that a
    backward rule saved stay counted after the tensor is dropped, until
    the graph holding the rule dies.

    It counts only tensor values and registered op caches. Scratch that an
    op allocates and frees within one call, such as `nce_denominator`'s
    NCE_BLOCK_ROWS x r score blocks, and the memory of imported modules are
    invisible to it; measure those with `tracemalloc` and `ru_maxrss`.
    """

    def __init__(self):
        self.shapes = []
        self.live_bytes = 0
        self.peak_live_bytes = 0

    def record_array(self, arr):
        self.shapes.append(arr.shape)
        self.live_bytes += arr.nbytes
        if self.live_bytes > self.peak_live_bytes:
            self.peak_live_bytes = self.live_bytes
        weakref.finalize(arr, self._release, arr.nbytes)

    def _release(self, nbytes):
        self.live_bytes -= nbytes

    def max_dim(self):
        return max((max(s) for s in self.shapes), default=0)


_tracker = None


@contextmanager
def track_allocations():
    """Context manager yielding an AllocationTracker active for its scope."""
    global _tracker
    tracker = AllocationTracker()
    _tracker = tracker
    try:
        yield tracker
    finally:
        _tracker = None


def _as_matrix(values):
    arr = np.asarray(values)
    if arr.dtype != np.float32:
        arr = arr.astype(np.float64, copy=False)
    if arr.ndim == 0:
        arr = arr.reshape(1, 1)
    elif arr.ndim == 1:
        arr = arr.reshape(1, -1)
    elif arr.ndim != 2:
        raise ValueError(f"tensors are 2-D, got shape {arr.shape}")
    return arr


class _Node:
    """The backward node of an op output: the op's rule, its parents' nodes
    (None for a parent that needs no grad) and the grad flowing into it.

    backward() calls the rule as rule(grad, *parents). The rule's closure
    holds only the arrays it reads, never the op's input or output tensors.
    """

    __slots__ = ("grad", "_backward_fn", "_parents")

    def __init__(self, backward_fn, parents):
        self.grad = None
        self._backward_fn = backward_fn
        self._parents = parents

    def _accumulate(self, contribution):
        if self.grad is None:
            self.grad = contribution  # owned: see "Gradient ownership"
        else:
            self.grad += contribution

    def _accumulate_rows(self, lo, hi, contribution, rows):
        """Add `contribution` into rows lo:hi of a (rows, d) grad."""
        if self.grad is None:
            self.grad = np.zeros((rows, contribution.shape[1]),
                                 dtype=contribution.dtype)
            self.grad[lo:hi] = contribution
        else:
            self.grad[lo:hi] += contribution


class Tensor:
    """A dense float32 or float64 matrix participating in the backward
    graph; values of any other dtype are cast to float64.

    An op output that needs grad links to its _Node; a leaf that requires
    grad is its own node, with no rule and no parents, and keeps the grad
    it accumulates.
    """

    __slots__ = ("values", "grad", "requires_grad", "_node", "_op",
                 "__weakref__")

    _backward_fn = None
    _parents = ()
    _accumulate = _Node._accumulate
    _accumulate_rows = _Node._accumulate_rows

    def __init__(self, values, requires_grad=False, _op="leaf"):
        self.values = _as_matrix(values)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._node = None
        self._op = _op
        if _tracker is not None:
            _tracker.record_array(self.values)

    @property
    def shape(self):
        return self.values.shape

    def item(self):
        if self.values.size != 1:
            raise ValueError("item() requires a scalar tensor")
        return float(self.values[0, 0])

    def __repr__(self):
        return f"Tensor(shape={self.shape}, op={self._op})"


def _node_of(t):
    """The node `t`'s gradient flows into, or None if it needs no grad."""
    if t._node is not None:
        return t._node
    return t if t.requires_grad else None


def _make(values, parents, backward_fn, op):
    """Create an op output, linking a backward node only when needed."""
    out = Tensor(values, _op=op)
    nodes = tuple(_node_of(p) for p in parents)
    if any(n is not None for n in nodes):
        out.requires_grad = True
        out._node = _Node(backward_fn, nodes)
    return out


def backward(loss):
    """Populate grads of every tensor reachable from `loss` that requires grad.

    Each graph node is visited exactly once (iterative topological order),
    so shared subexpressions cost no extra work. Intermediate node grads
    are freed as soon as they have been propagated.
    """
    if loss.values.size != 1:
        raise ValueError("backward requires a scalar loss")
    root = _node_of(loss)
    if root is None:
        return

    order = []
    seen = set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if parent is not None:
                stack.append((parent, False))

    root._accumulate(np.ones((1, 1), dtype=loss.values.dtype))
    for node in reversed(order):
        if node._backward_fn is None or node.grad is None:
            continue  # a leaf keeps its grad; an unreached node has none
        node._backward_fn(node.grad, *node._parents)
        node.grad = None  # free intermediate storage


def _unbroadcast(grad, shape):
    """Sum `grad` down to `shape` (inverse of numpy broadcasting over 2-D)."""
    if grad.shape == shape:
        return grad
    out = grad
    if shape[0] == 1 and grad.shape[0] != 1:
        out = out.sum(axis=0, keepdims=True)
    if shape[1] == 1 and grad.shape[1] != 1:
        out = out.sum(axis=1, keepdims=True)
    return out


# ---------------------------------------------------------------------------
# primitive operations
#
# A rule of a one-input op runs only when that input needs grad, so it
# checks nothing; a rule of a several-input op checks each parent node.


def matmul(a, b):
    av, bv = a.values, b.values

    def backward_fn(g, na, nb):
        if na is not None:
            na._accumulate(g @ bv.T)
        if nb is not None:
            nb._accumulate(av.T @ g)

    return _make(av @ bv, (a, b), backward_fn, "matmul")


def sparse_matmul(adjacency, x):
    """adjacency (scipy sparse, constant) times dense tensor x."""
    adj_t = adjacency.T

    def backward_fn(g, nx):
        nx._accumulate(adj_t @ g)

    return _make(adjacency @ x.values, (x,), backward_fn, "sparse_matmul")


def add(a, b):
    a_shape, b_shape = a.shape, b.shape

    def backward_fn(g, na, nb):
        if na is not None:
            na._accumulate(_unbroadcast(g, a_shape))
        if nb is not None:
            gb = _unbroadcast(g, b_shape)
            if na is not None and gb is na.grad:
                gb = g.copy()  # `a` has just adopted g
            nb._accumulate(gb)

    return _make(a.values + b.values, (a, b), backward_fn, "add")


def sub(a, b):
    a_shape, b_shape = a.shape, b.shape

    def backward_fn(g, na, nb):
        if na is not None:
            na._accumulate(_unbroadcast(g, a_shape))
        if nb is not None:
            nb._accumulate(-_unbroadcast(g, b_shape))

    return _make(a.values - b.values, (a, b), backward_fn, "sub")


def elementwise_mul(a, b):
    av, bv = a.values, b.values

    def backward_fn(g, na, nb):
        if na is not None:
            na._accumulate(_unbroadcast(g * bv, av.shape))
        if nb is not None:
            nb._accumulate(_unbroadcast(g * av, bv.shape))

    return _make(av * bv, (a, b), backward_fn, "elementwise_mul")


def scalar_mul(a, c):
    c = float(c)

    def backward_fn(g, na):
        na._accumulate(g * c)

    return _make(a.values * c, (a,), backward_fn, "scalar_mul")


def relu(x):
    out = np.maximum(x.values, 0.0)

    def backward_fn(g, nx):
        # out > 0 exactly where x > 0, NaN included, so x need not be kept
        g *= out > 0.0
        nx._accumulate(g)

    return _make(out, (x,), backward_fn, "relu")


def _prelu_forward(xv, s, out=None):
    """min(x, 0) * s + max(x, 0) for a scalar slope s; `out` may be xv."""
    pos = np.maximum(xv, 0.0)
    out = np.minimum(xv, 0.0, out=out)
    out *= s
    out += pos
    return out


def _prelu_backward(g, xv, s, nslope, work=None):
    """PReLU's rule at inputs xv: hand the slope sum(g * min(x, 0)), then
    scale g in place by s where x < 0 and by 1 elsewhere, and return it.
    `work`, when given, is scratch of xv's shape and may be xv itself."""
    neg = xv < 0.0
    if nslope is not None:
        # fmin maps NaN to 0 like the negative-part mask does
        work = np.fmin(xv, 0.0, out=work)
        work *= g
        nslope._accumulate(np.sum(work, keepdims=True).reshape(1, 1))
    scale = np.multiply(neg, s, out=work)
    scale += ~neg
    g *= scale
    return g


def prelu(x, slope):
    """PReLU with a learnable (1, 1) slope tensor for the negative part."""
    xv = x.values
    s = slope.values[0, 0]

    def backward_fn(g, nx, nslope):
        g = _prelu_backward(g, xv, s, nslope)
        if nx is not None:
            nx._accumulate(g)

    return _make(_prelu_forward(xv, s), (x, slope), backward_fn, "prelu")


def sigmoid(x):
    out = 1.0 / (1.0 + np.exp(-x.values))

    def backward_fn(g, nx):
        nx._accumulate(g * out * (1.0 - out))

    return _make(out, (x,), backward_fn, "sigmoid")


def _unit_rows(values):
    """(values / denom, norms, denom): each row scaled to unit L2 norm,
    its norm, and the norm floored at EPS."""
    norms = np.sqrt(np.sum(values ** 2, axis=1, keepdims=True))
    denom = np.maximum(norms, EPS)
    return values / denom, norms, denom


def _unit_rows_backward(g, out, norms, denom):
    """row_l2_normalize's rule at output `out`, written over g: d(x/n)/dx
    applied to g is g/n - out*(out.g)/n, without the curvature term on
    degenerate rows, where the denominator is the EPS floor."""
    work = np.multiply(out, g)
    np.multiply(out, np.sum(work, axis=1, keepdims=True), out=work)
    degenerate = ~(norms[:, 0] > EPS)
    if degenerate.any():
        work[degenerate] = 0.0
    g -= work
    del work
    g /= denom
    return g


def row_l2_normalize(x):
    """Scale each row to unit L2 norm; rows with norm below EPS divide by EPS."""
    out, norms, denom = _unit_rows(x.values)

    def backward_fn(g, nx):
        nx._accumulate(_unit_rows_backward(g, out, norms, denom))

    return _make(out, (x,), backward_fn, "row_l2_normalize")


def row_sum(x):
    shape = x.shape

    def backward_fn(g, nx):
        nx._accumulate(np.broadcast_to(g, shape).copy())

    return _make(np.sum(x.values, axis=1, keepdims=True), (x,), backward_fn,
                 "row_sum")


def row_cosine_similarity(a, b):
    """Per-row cosine similarity, returned as an (n, 1) tensor.

    Equal to row_sum(elementwise_mul(row_l2_normalize(a),
    row_l2_normalize(b))), bit for bit in both passes, as one op. Its rule
    keeps the unit rows â and b̂, as the composition does, except where b
    needs no grad (BGRL's stop-gradient target): then it keeps â and a
    reference to b's values, and rebuilds b̂ with the forward's expression
    only when it forms a's gradient. a's gradient is handed over before
    b's, as the composition's rules run, so cos(v, v) keeps its bits.
    """
    if a.shape != b.shape:
        raise ValueError("row_cosine_similarity requires equal shapes")
    bv = b.values
    ahat, a_norms, a_denom = _unit_rows(a.values)
    bhat, b_norms, b_denom = _unit_rows(bv)
    out = np.sum(ahat * bhat, axis=1, keepdims=True)
    if _node_of(b) is None:
        bhat = None  # rebuilt from bv when a's gradient is formed

    def backward_fn(g, na, nb):
        if na is not None:
            if bhat is None:
                da = _unit_rows(bv)[0]
                da *= g
            else:
                da = bhat * g
            na._accumulate(_unit_rows_backward(da, ahat, a_norms, a_denom))
        if nb is not None:
            nb._accumulate(_unit_rows_backward(ahat * g, bhat, b_norms,
                                               b_denom))

    return _make(out, (a, b), backward_fn, "row_cosine_similarity")


def logsumexp_rows(x):
    """Row-wise log(sum(exp(x))), max-shifted; rows of all -inf yield -inf."""
    m = np.max(x.values, axis=1, keepdims=True)
    finite_m = np.where(np.isfinite(m), m, 0.0)
    sums = np.sum(np.exp(x.values - finite_m), axis=1, keepdims=True)
    with np.errstate(divide="ignore"):
        out = np.where(np.isfinite(m), finite_m + np.log(sums), m)
    softmax = np.exp(x.values - np.where(np.isfinite(out), out, 0.0))
    softmax[~np.isfinite(out)[:, 0]] = 0.0
    if _tracker is not None:
        _tracker.record_array(softmax)

    def backward_fn(g, nx):
        nx._accumulate(g * softmax)

    return _make(out, (x,), backward_fn, "logsumexp_rows")


def logaddexp(a, b):
    """Elementwise log(exp(a) + exp(b)); -inf entries contribute nothing."""
    av, bv = a.values, b.values
    out = np.logaddexp(av, bv)

    def backward_fn(g, na, nb):
        with np.errstate(invalid="ignore"):
            if na is not None:
                wa = np.exp(av - out)
                wa[~np.isfinite(out)] = 0.0
                na._accumulate(_unbroadcast(g * wa, av.shape))
            if nb is not None:
                wb = np.exp(bv - out)
                wb[~np.isfinite(out)] = 0.0
                nb._accumulate(_unbroadcast(g * wb, bv.shape))

    return _make(out, (a, b), backward_fn, "logaddexp")


def _nce_threads(n_blocks):
    """Threads for one pass over n_blocks row blocks: at most half the
    blocks are in flight, so a pass of fewer than 4 blocks keeps the
    serial loop's scratch (2 blocks in flight at r = 478 pushed a link
    loss's peak past 8 r^2 bytes)."""
    return max(1, min(nce_thread_budget(), n_blocks // 2))


def _run_blocks(blocks, threads, body, in_order=None):
    """For each row block (lo, hi), carry = body(lo, hi), then
    in_order(lo, hi, carry) when given.

    `threads` threads, the caller's included, each take the next block by
    index, so at most `threads` blocks are in flight, and block b's
    in_order step starts only after block b-1's has returned. With one
    thread no helper starts and the caller runs every block in order.
    numpy and OpenBLAS release the GIL in the GEMMs, exp and the
    reductions. Helpers live for one call, so no pool can outlive a fork.
    The first exception stops the blocks not yet started and is re-raised
    here.
    """
    todo = enumerate(blocks)
    cond = threading.Condition()
    done = [0]  # blocks whose in_order step has returned
    errors = []

    def work():
        try:
            while True:
                with cond:
                    item = next(todo, None)
                    if item is None or errors:
                        return
                b, (lo, hi) = item
                carry = body(lo, hi)
                if in_order is not None:
                    with cond:
                        cond.wait_for(lambda: done[0] == b or errors)
                        if errors:
                            return
                    in_order(lo, hi, carry)
                    with cond:
                        done[0] += 1
                        cond.notify_all()
                del carry
        except BaseException as exc:  # re-raised in the caller
            with cond:
                errors.append(exc)
                cond.notify_all()

    helpers = [threading.Thread(target=work, daemon=True)
               for _ in range(threads - 1)]
    if helpers:
        share_one_heap()
    for t in helpers:
        t.start()
    work()
    for t in helpers:
        t.join()
    if errors:
        raise errors[0]


def nce_denominator(anchor, other, tau):
    """The InfoNCE mean log-denominator mean_i log sum_{j != i}
    exp(a_i . o_j / tau), a (1, 1) tensor.

    Row i contrasts anchor row i against every row of `other` except row i.
    One pass walks the r x r scores in blocks of NCE_BLOCK_ROWS rows and
    scores each block once. It takes the block's log-sum-exp with its exp
    over slices of NCE_EXP_ROWS rows, so the scores survive, turns them in
    place into the mean's softmax weights W = exp(s - out_i) (1/r) / tau,
    and builds the gradients of the inputs that need one: the anchor's
    W @ o block by block, the other's W^T @ a summed over blocks. One
    tensor passed twice (GRACE's stacked views) is the case o = a: its node
    receives the anchor's gradient, then the other's. The blocks run on
    _nce_threads threads, so the scratch is O(T x NCE_BLOCK_ROWS x r) and
    no r x r array ever exists. The graph holds the (r, d) gradients until
    backward scales them by the upstream scalar and hands them over; a
    second backward on the same loss runs the pass again.

    The bits do not depend on T. Each block writes its own rows of the
    log-denominators and of the anchor's gradient, every GEMM has the shape
    it has on one thread (splitting a block's score GEMM into row halves
    changed bits), and the other's gradient gains block b's part only
    after block b-1's, in NCE_BLOCK_ROWS-row chunks that keep the
    reduction over the block's rows whole.
    """
    if anchor.shape != other.shape:
        raise ValueError(f"nce_denominator needs equal shapes, got "
                         f"{anchor.shape} and {other.shape}")
    if anchor.shape[0] < 2:
        raise ValueError("nce_denominator needs at least 2 rows")
    if not (math.isfinite(tau) and tau > 0):
        raise ValueError(f"tau must be finite and positive, got {tau}")
    a, o = anchor.values, other.values
    r = a.shape[0]
    blocks = [(lo, min(lo + NCE_BLOCK_ROWS, r))
              for lo in range(0, r, NCE_BLOCK_ROWS)]
    # the mean's gradient constant, built as tensor_mean's rule builds it
    scale = np.full((1, 1), a.dtype.type(1) / r, dtype=a.dtype) / tau
    na, no = _node_of(anchor), _node_of(other)

    def run_pass():
        out = np.empty((r, 1), dtype=a.dtype)
        da = None if na is None else np.empty_like(a)
        do = None if no is None else np.zeros_like(o)

        def block(lo, hi):
            s = a[lo:hi] @ o.T
            s *= 1.0 / tau
            np.fill_diagonal(s[:, lo:hi], -np.inf)
            m = np.max(s, axis=1, keepdims=True)
            for i in range(0, hi - lo, NCE_EXP_ROWS):
                rows = slice(i, i + NCE_EXP_ROWS)
                e = s[rows] - m[rows]
                np.exp(e, out=e)
                out[lo:hi][rows] = m[rows] + np.log(
                    np.sum(e, axis=1, keepdims=True))
            s -= out[lo:hi]
            np.exp(s, out=s)
            s *= scale
            if da is not None:
                np.matmul(s, o, out=da[lo:hi])
            return s

        def add_to_do(lo, hi, w):
            for j0, j1 in blocks:
                do[j0:j1] += w[:, j0:j1].T @ a[lo:hi]

        _run_blocks(blocks, _nce_threads(len(blocks)), block,
                    None if do is None else add_to_do)
        return out, da, do

    out, *grads = run_pass()
    if _tracker is not None:  # the graph holds them until backward
        for grad in grads:
            if grad is not None:
                _tracker.record_array(grad)

    def backward_fn(g, na, no):
        da, do = grads or run_pass()[1:]  # an earlier backward took them
        grads.clear()
        for node, grad in ((na, da), (no, do)):
            if node is not None:
                grad *= g
                node._accumulate(grad)

    return _make((np.sum(out) / r).reshape(1, 1), (anchor, other),
                 backward_fn, "nce_denominator")


def tensor_sum(x):
    shape, dtype = x.shape, x.values.dtype

    def backward_fn(g, nx):
        nx._accumulate(np.full(shape, g[0, 0], dtype=dtype))

    return _make(np.sum(x.values).reshape(1, 1), (x,), backward_fn, "sum")


def tensor_mean(x):
    shape, size, dtype = x.shape, x.values.size, x.values.dtype

    def backward_fn(g, nx):
        nx._accumulate(np.full(shape, g[0, 0] / size, dtype=dtype))

    return _make((np.sum(x.values) / size).reshape(1, 1), (x,), backward_fn,
                 "mean")


def concat_rows(tensors):
    parts = [t.values for t in tensors]
    offsets = np.cumsum([0] + [p.shape[0] for p in parts])

    def backward_fn(g, *nodes):
        for node, lo, hi in zip(nodes, offsets[:-1], offsets[1:]):
            if node is not None:
                node._accumulate(g[lo:hi])

    return _make(np.concatenate(parts, axis=0), tuple(tensors), backward_fn,
                 "concat_rows")


def row_slice(x, lo, hi):
    """Rows lo:hi of x as a view of x's values, so a rule that saves the
    output keeps no copy. Backward adds g into those rows of x's grad."""
    rows = x.shape[0]

    def backward_fn(g, nx):
        nx._accumulate_rows(lo, hi, g, rows)

    return _make(x.values[lo:hi], (x,), backward_fn, "row_slice")


def transpose(x):
    def backward_fn(g, nx):
        nx._accumulate(g.T)

    return _make(x.values.T.copy(), (x,), backward_fn, "transpose")


def _scatter_rows(g, idx, rows):
    """The (rows, d) array whose row idx[j] gains g[j], duplicates added:
    one sparse product, column j of the scatter matrix holding its one entry
    at idx[j]."""
    scatter = sparse.csc_matrix(
        (np.ones(len(idx), dtype=g.dtype), idx, np.arange(len(idx) + 1)),
        shape=(rows, len(idx)))
    return scatter @ g


def gather_rows(x, indices):
    """Select rows of x by an integer index array; duplicates allowed."""
    idx = np.asarray(indices, dtype=np.intp)
    rows = x.shape[0]

    def backward_fn(g, nx):
        nx._accumulate(_scatter_rows(g, idx, rows))

    return _make(x.values[idx], (x,), backward_fn, "gather_rows")


def _pair_ids(ids, rows):
    """`ids` as an index array, each checked to lie in [0, rows)."""
    idx = np.asarray(ids, dtype=np.intp)
    if idx.size:
        lo, hi = idx.min(), idx.max()
        if lo < 0 or hi >= rows:
            raise ValueError(f"pair id {lo if lo < 0 else hi} is outside "
                             f"[0, {rows}): there are n = {rows} rows")
    return idx


def _scatter_pair_grad(nx, g, xv, u, v):
    """Add the gradient of the rows x[u] * x[v] into x's node: g * x[v]
    scattered into rows u, then g * x[u] into rows v, the order in which
    the gather_rows rules of the composition run."""
    rows = xv.shape[0]
    for dst, src in ((u, v), (v, u)):
        part = xv[src]
        part *= g
        nx._accumulate(_scatter_rows(part, dst, rows))
        del part


def pair_product(x, u, v):
    """The rows x[u] * x[v], one per pair (u[j], v[j]), as one op.

    Equal to elementwise_mul(gather_rows(x, u), gather_rows(x, v)), bit for
    bit in both passes, but its rule keeps x's values and the two index
    arrays instead of the two gathered (k, d) endpoint arrays. Backward
    gathers them again (_scatter_pair_grad). An id outside [0, rows)
    raises ValueError, where numpy indexing would wrap a negative one.
    """
    xv = x.values
    u, v = _pair_ids(u, xv.shape[0]), _pair_ids(v, xv.shape[0])
    out = xv[u]
    out *= xv[v]

    def backward_fn(g, nx):
        _scatter_pair_grad(nx, g, xv, u, v)

    return _make(out, (x,), backward_fn, "pair_product")


def _bias_grad(g, shape):
    """A bias's share of g; a copy when that is g itself (one row), since
    the rule goes on reading g after handing the share over."""
    gb = _unbroadcast(g, shape)
    return g.copy() if gb is g else gb


def _mlp(x, pairs, w1, b1, w2, b2, op):
    """relu(rows w1 + b1) w2 + b2 over x's rows, or over the rows
    x[u] * x[v] for pairs = (u, v): the one rule body of mlp and pair_mlp.

    The rule keeps x's values, the ids and the four parameter arrays, and
    rebuilds the rows and the hidden layer in backward with the forward's
    expressions (one extra (n x d)(d x h) GEMM). It then runs the
    arithmetic of the composed rules in their order: b2, w2, the ReLU mask,
    b1, w1, then x (for pairs, x's rows u and then rows v). Its scratch is
    one (n, h) array, the hidden layer and then its gradient, with the ReLU
    mask and x's gradient, and the rows for pairs. x and the parameters
    share one dtype, as every module's do.
    """
    xv, w1v, b1v, w2v = x.values, w1.values, b1.values, w2.values
    b1_shape, b2_shape = b1.shape, b2.shape

    def layers():
        """The input rows and the hidden layer, as the forward built them."""
        if pairs is None:
            rows = xv
        else:
            rows = xv[pairs[0]]
            rows *= xv[pairs[1]]
        hidden = rows @ w1v
        hidden += b1v
        return rows, np.maximum(hidden, 0.0, out=hidden)

    out = layers()[1] @ w2v
    out += b2.values

    def backward_fn(g, nx, nw1, nb1, nw2, nb2):
        rows, hidden = layers()
        if nb2 is not None:
            nb2._accumulate(_bias_grad(g, b2_shape))
        if nw2 is not None:
            nw2._accumulate(hidden.T @ g)
        # hidden > 0 exactly where the pre-activation is, as in relu's
        # rule; the hidden layer's gradient is written over it
        mask = hidden > 0.0
        dh = np.matmul(g, w2v.T, out=hidden)
        del hidden
        dh *= mask
        del mask
        if nb1 is not None:
            nb1._accumulate(_bias_grad(dh, b1_shape))
        if nw1 is not None:
            nw1._accumulate(rows.T @ dh)
        del rows
        if nx is None:
            return
        dx = dh @ w1v.T
        del dh
        if pairs is None:
            nx._accumulate(dx)
        else:
            _scatter_pair_grad(nx, dx, xv, *pairs)

    return _make(out, (x, w1, b1, w2, b2), backward_fn, op)


def mlp(x, w1, b1, w2, b2):
    """relu(x w1 + b1) w2 + b2 as one op: a two-layer head.

    Equal to add(matmul(relu(add(matmul(x, w1), b1)), w2), b2), bit for
    bit in both passes, but its rule keeps only x's values and the four
    parameter arrays, not the (n, h) hidden layer that the composition's
    second matmul rule saves (recomputation, Chen et al. 2016); see _mlp.
    """
    return _mlp(x, None, w1, b1, w2, b2, "mlp")


def pair_mlp(x, u, v, w1, b1, w2, b2):
    """relu((x[u] * x[v]) w1 + b1) w2 + b2, one row per pair (u[j], v[j]),
    as one op: the link MLP over pair_product's rows.

    Equal to mlp(pair_product(x, u, v), w1, b1, w2, b2), and so to the
    composition of pair_product, matmul, add and relu, bit for bit in both
    passes, but its rule keeps only x's values, the two index arrays and
    the four parameter arrays: it rebuilds the (k, d) product rows as well
    as the hidden layer in backward (see _mlp). An id outside [0, rows)
    raises ValueError.
    """
    rows = x.shape[0]
    pairs = (_pair_ids(u, rows), _pair_ids(v, rows))
    return _mlp(x, pairs, w1, b1, w2, b2, "pair_mlp")


def mask_diagonal(x, fill=-np.inf):
    """Copy a square matrix with its diagonal overwritten by a constant."""
    if x.shape[0] != x.shape[1]:
        raise ValueError("mask_diagonal requires a square matrix")
    out = x.values.copy()
    np.fill_diagonal(out, fill)

    def backward_fn(g, nx):
        gc = g.copy()
        np.fill_diagonal(gc, 0.0)
        nx._accumulate(gc)

    return _make(out, (x,), backward_fn, "mask_diagonal")


_NORM_EPS = 1e-5  # variance floor of every standardization


def _standardize(values, axis):
    """(x̂, mean, var, inv_std) of `values` centred and scaled to unit
    variance along `axis`; x̂ is the one new array of values' shape."""
    mu = np.mean(values, axis=axis, keepdims=True)
    centred = values - mu
    var = np.mean(centred * centred, axis=axis, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + _NORM_EPS)
    return np.multiply(centred, inv_std, out=centred), mu, var, inv_std


def _standardize_backward(dxhat, xhat, inv_std, axis, work=None):
    """(inv_std / n) (n dx̂ - sum(dx̂) - x̂ sum(dx̂ x̂)) along `axis`, over
    `dxhat`; `work`, when given, is a scratch array of x̂'s shape."""
    n = xhat.shape[axis]
    work = np.multiply(dxhat, xhat, out=work)
    sum_dxhat_xhat = np.sum(work, axis=axis, keepdims=True)
    sum_dxhat = np.sum(dxhat, axis=axis, keepdims=True)
    dxhat *= n
    dxhat -= sum_dxhat
    np.multiply(xhat, sum_dxhat_xhat, out=work)
    dxhat -= work
    dxhat *= inv_std / n
    return dxhat


def _scale_shift(x, xhat, inv_std, gamma, beta, op, axis, slope=None):
    """gamma * x̂ + beta with the backward of x̂ = standardize(x) along
    `axis`, or of a fixed-statistics x̂ = (x - c) * inv_std for axis None.

    With a (1, 1) `slope` tensor the op returns prelu(gamma * x̂ + beta,
    slope), the norm and its activation fused (In-Place Activated
    BatchNorm, Rota Bulò et al. 2018): the rule keeps x̂ and rebuilds
    y = gamma * x̂ + beta with the forward's expression, where the
    composition keeps y as well. It runs prelu's arithmetic and then the
    norm's, handing out gradients in the composition's order: slope, gamma,
    beta, x. The rule writes x's gradient over its incoming one, and its
    scratch is y (reused for gamma's and the standardization's products)
    and prelu's sign mask.
    """
    gamma_v, beta_v = gamma.values, beta.values
    out = xhat * gamma_v
    out += beta_v
    parents, s = (x, gamma, beta), None
    if slope is not None:
        s = slope.values[0, 0]
        out = _prelu_forward(out, s, out=out)
        parents += (slope,)

    def backward_fn(g, nx, ngamma, nbeta, nslope=None):
        work = None
        if slope is not None:
            work = xhat * gamma_v  # y, rebuilt as the forward built it
            work += beta_v
            g = _prelu_backward(g, work, s, nslope, work=work)
        if ngamma is not None:
            work = np.multiply(g, xhat, out=work)
            ngamma._accumulate(np.sum(work, axis=0, keepdims=True))
        if nbeta is not None:
            nbeta._accumulate(np.sum(g, axis=0, keepdims=True))
        if nx is None:
            return
        g *= gamma_v
        if axis is None:
            g *= inv_std
        else:
            _standardize_backward(g, xhat, inv_std, axis, work)
        nx._accumulate(g)

    return _make(out, parents, backward_fn, op)


def batch_norm(x, gamma, beta, state, momentum, training, slope=None):
    """Batch normalization over rows with running statistics; with a (1, 1)
    `slope` tensor, prelu of it as one op (see _scale_shift).

    `state` is a dict holding 'running_mean' and 'running_var' (1, d) arrays,
    updated in place during training with
    running <- momentum * running + (1 - momentum) * batch.
    """
    if not training:
        inv_std = 1.0 / np.sqrt(state["running_var"] + _NORM_EPS)
        xhat = x.values - state["running_mean"]
        xhat *= inv_std
        return _scale_shift(x, xhat, inv_std, gamma, beta, "batch_norm",
                            None, slope)
    xhat, mu, var, inv_std = _standardize(x.values, axis=0)
    state["running_mean"] *= momentum
    state["running_mean"] += (1.0 - momentum) * mu
    state["running_var"] *= momentum
    state["running_var"] += (1.0 - momentum) * var
    return _scale_shift(x, xhat, inv_std, gamma, beta, "batch_norm", 0, slope)


def layer_norm(x, gamma, beta, slope=None):
    """Per-row normalization with learnable (1, d) scale and shift; with a
    (1, 1) `slope` tensor, prelu of it as one op (see _scale_shift)."""
    xhat, _, _, inv_std = _standardize(x.values, axis=1)
    return _scale_shift(x, xhat, inv_std, gamma, beta, "layer_norm", 1, slope)


def standardize_cols(w):
    """Standardize each column (output unit) of a weight matrix to zero mean
    and unit variance. Differentiable reparameterization applied at forward
    time when weight standardization is enabled."""
    what, _, _, inv_std = _standardize(w.values, axis=0)

    def backward_fn(g, nw):
        nw._accumulate(_standardize_backward(g.copy(), what, inv_std, 0))

    return _make(what, (w,), backward_fn, "standardize_cols")


# ---------------------------------------------------------------------------
# verification


def grad_check(f, inputs, eps=1e-5):
    """Compare backward() gradients of scalar-valued f against central
    finite differences, coordinate by coordinate.

    Returns the maximum relative error |a - n| / max(|a|, |n|, 1e-8)
    over every coordinate of every input tensor.
    """
    for t in inputs:
        t.requires_grad = True
        t.grad = None
    out = f(*inputs)
    backward(out)
    analytic = [np.zeros(t.shape) if t.grad is None else t.grad.copy()
                for t in inputs]

    worst = 0.0
    for t, a in zip(inputs, analytic):
        flat = t.values.reshape(-1)
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + eps
            up = f(*inputs).item()
            flat[j] = orig - eps
            down = f(*inputs).item()
            flat[j] = orig
            numeric = (up - down) / (2.0 * eps)
            aj = a.reshape(-1)[j]
            err = abs(aj - numeric) / max(abs(aj), abs(numeric), 1e-8)
            worst = max(worst, err)
    return worst
