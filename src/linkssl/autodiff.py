"""Minimal reverse-mode automatic differentiation over dense 2-D arrays.

Every value is a Tensor holding a float64 matrix of shape (rows, cols).
Scalars are (1, 1) matrices and vectors are single-row or single-column
matrices. Operations record a backward closure; backward() walks the
graph once in reverse topological order and accumulates gradients into
leaf tensors. Gradients persist across backward calls until zeroed, so
calling backward twice doubles them.

Gradient ownership: a backward_fn hands each array it builds to at most
one _accumulate call and keeps no reference to it, so the first
contribution a tensor receives becomes its grad without a copy and later
ones are added into it in place. `add` is the one op whose upstream
gradient can reach two parents unchanged; it copies for the second.

The per-element kernels (prelu, batch_norm, row_l2_normalize) are
branch-free: they use min/max and arithmetic on masks rather than
np.where over data-dependent signs, and write into arrays they own.

Graph lifetime: a graph lives as long as its output, the loss. Each node
holds its parents and the arrays its backward rule reads, and backward()
frees only intermediate grads, so the graph stays whole and backward on
the same loss can run again. The training steps pass each loss straight
into the call that differentiates it, so no graph outlives its step.

The InfoNCE denominator (nce_denominator) keeps no score matrix. Both of
its passes walk the r x r scores in blocks of NCE_BLOCK_ROWS rows, and
backward recomputes each block's softmax from the kept (r, 1)
log-denominators: one more GEMM per block buys O(NCE_BLOCK_ROWS x r)
scratch in place of r x r arrays. This is the blockwise softmax with
recomputation of FlashAttention (Dao et al. 2022).

Sparse adjacency matrices enter only through sparse_matmul and are
treated as constants (never differentiated).
"""

from __future__ import annotations

import weakref
from contextlib import contextmanager

import numpy as np
from scipy import sparse

EPS = 1e-12
NCE_BLOCK_ROWS = 256  # rows of the InfoNCE score matrix held at a time


class AllocationTracker:
    """Records the shape and live-byte footprint of tensors created while active.

    Used to verify memory-scaling claims: `shapes` lists every allocation,
    `peak_live_bytes` tracks the high-water mark of simultaneously live
    tensor storage (auxiliary op caches included). Each array counts as
    live until the tensor that holds it, or whose backward keeps it, is
    collected.

    It counts only tensor values and registered op caches. Scratch that an
    op allocates and frees within one call, such as `nce_denominator`'s
    NCE_BLOCK_ROWS x r score blocks, and the memory of imported modules are
    invisible to it; measure those with `tracemalloc` and `ru_maxrss`.
    """

    def __init__(self):
        self.shapes = []
        self.live_bytes = 0
        self.peak_live_bytes = 0

    def record_array(self, arr, owner):
        self.shapes.append(arr.shape)
        self.live_bytes += arr.nbytes
        if self.live_bytes > self.peak_live_bytes:
            self.peak_live_bytes = self.live_bytes
        weakref.finalize(owner, self._release, arr.nbytes)

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
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim == 0:
        arr = arr.reshape(1, 1)
    elif arr.ndim == 1:
        arr = arr.reshape(1, -1)
    elif arr.ndim != 2:
        raise ValueError(f"tensors are 2-D, got shape {arr.shape}")
    return arr


class Tensor:
    """A dense float64 matrix participating in the backward graph."""

    __slots__ = ("values", "grad", "requires_grad", "_parents", "_backward_fn",
                 "_op", "__weakref__")

    def __init__(self, values, requires_grad=False, _parents=(), _backward_fn=None,
                 _op="leaf"):
        self.values = _as_matrix(values)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = _parents
        self._backward_fn = _backward_fn
        self._op = _op
        if _tracker is not None:
            _tracker.record_array(self.values, self)

    @property
    def shape(self):
        return self.values.shape

    def item(self):
        if self.values.size != 1:
            raise ValueError("item() requires a scalar tensor")
        return float(self.values[0, 0])

    def __repr__(self):
        return f"Tensor(shape={self.shape}, op={self._op})"

    def _accumulate(self, contribution):
        if self.grad is None:
            self.grad = contribution  # owned: see "Gradient ownership"
        else:
            self.grad += contribution


def _make(values, parents, backward_fn, op):
    """Create an op output, recording the backward rule only when needed."""
    needs = any(p.requires_grad for p in parents)
    if needs:
        return Tensor(values, requires_grad=True, _parents=tuple(parents),
                      _backward_fn=backward_fn, _op=op)
    return Tensor(values, _op=op)


def backward(loss):
    """Populate grads of every tensor reachable from `loss` that requires grad.

    Each graph node is visited exactly once (iterative topological order),
    so shared subexpressions cost no extra work. Intermediate node grads
    are freed as soon as they have been propagated.
    """
    if loss.values.size != 1:
        raise ValueError("backward requires a scalar loss")
    if not loss.requires_grad:
        return

    order = []
    seen = set()
    stack = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen or not node.requires_grad:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            stack.append((parent, False))

    loss._accumulate(np.ones((1, 1)))
    for node in reversed(order):
        if node._backward_fn is None or node.grad is None:
            continue
        node._backward_fn(node.grad)
        if node._parents:
            node.grad = None  # free intermediate storage; leaves keep theirs


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


def matmul(a, b):
    out = a.values @ b.values

    def backward_fn(g):
        if a.requires_grad:
            a._accumulate(g @ b.values.T)
        if b.requires_grad:
            b._accumulate(a.values.T @ g)

    return _make(out, (a, b), backward_fn, "matmul")


def sparse_matmul(adjacency, x):
    """adjacency (scipy sparse, constant) times dense tensor x."""
    out = adjacency @ x.values
    adj_t = adjacency.T

    def backward_fn(g):
        if x.requires_grad:
            x._accumulate(adj_t @ g)

    return _make(out, (x,), backward_fn, "sparse_matmul")


def add(a, b):
    out = a.values + b.values

    def backward_fn(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g, a.shape))
        if b.requires_grad:
            gb = _unbroadcast(g, b.shape)
            if gb is a.grad:
                gb = g.copy()  # `a` has just adopted g
            b._accumulate(gb)

    return _make(out, (a, b), backward_fn, "add")


def sub(a, b):
    out = a.values - b.values

    def backward_fn(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g, a.shape))
        if b.requires_grad:
            b._accumulate(-_unbroadcast(g, b.shape))

    return _make(out, (a, b), backward_fn, "sub")


def elementwise_mul(a, b):
    out = a.values * b.values

    def backward_fn(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g * b.values, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g * a.values, b.shape))

    return _make(out, (a, b), backward_fn, "elementwise_mul")


def scalar_mul(a, c):
    c = float(c)
    out = a.values * c

    def backward_fn(g):
        if a.requires_grad:
            a._accumulate(g * c)

    return _make(out, (a,), backward_fn, "scalar_mul")


def relu(x):
    out = np.maximum(x.values, 0.0)

    def backward_fn(g):
        if x.requires_grad:
            x._accumulate(g * (x.values > 0.0))

    return _make(out, (x,), backward_fn, "relu")


def prelu(x, slope):
    """PReLU with a learnable (1, 1) slope tensor for the negative part."""
    s = slope.values[0, 0]
    out = np.minimum(x.values, 0.0)
    out *= s
    out += np.maximum(x.values, 0.0)

    def backward_fn(g):
        if slope.requires_grad:
            # fmin maps NaN to 0 like the negative-part mask does
            work = np.fmin(x.values, 0.0)
            work *= g
            slope._accumulate(np.sum(work, keepdims=True).reshape(1, 1))
        if x.requires_grad:
            neg = x.values < 0.0
            dx = np.multiply(neg, s)
            dx += ~neg
            dx *= g
            x._accumulate(dx)

    return _make(out, (x, slope), backward_fn, "prelu")


def sigmoid(x):
    out = 1.0 / (1.0 + np.exp(-x.values))

    def backward_fn(g):
        if x.requires_grad:
            x._accumulate(g * out * (1.0 - out))

    return _make(out, (x,), backward_fn, "sigmoid")


def row_l2_normalize(x):
    """Scale each row to unit L2 norm; rows with norm below EPS divide by EPS."""
    norms = np.sqrt(np.sum(x.values ** 2, axis=1, keepdims=True))
    denom = np.maximum(norms, EPS)
    out = x.values / denom

    def backward_fn(g):
        if not x.requires_grad:
            return
        # d(x/n)/dx applied to g is g/n - out*(out.g)/n; drop the curvature
        # term on degenerate rows where the denominator is the EPS floor.
        work = np.multiply(out, g)
        np.multiply(out, np.sum(work, axis=1, keepdims=True), out=work)
        degenerate = ~(norms[:, 0] > EPS)
        if degenerate.any():
            work[degenerate] = 0.0
        np.subtract(g, work, out=work)
        work /= denom
        x._accumulate(work)

    return _make(out, (x,), backward_fn, "row_l2_normalize")


def row_sum(x):
    out = np.sum(x.values, axis=1, keepdims=True)

    def backward_fn(g):
        if x.requires_grad:
            x._accumulate(np.broadcast_to(g, x.shape).copy())

    return _make(out, (x,), backward_fn, "row_sum")


def row_cosine_similarity(a, b):
    """Per-row cosine similarity, returned as an (n, 1) tensor."""
    if a.shape != b.shape:
        raise ValueError("row_cosine_similarity requires equal shapes")
    return row_sum(elementwise_mul(row_l2_normalize(a), row_l2_normalize(b)))


def logsumexp_rows(x):
    """Row-wise log(sum(exp(x))), max-shifted; rows of all -inf yield -inf."""
    m = np.max(x.values, axis=1, keepdims=True)
    finite_m = np.where(np.isfinite(m), m, 0.0)
    sums = np.sum(np.exp(x.values - finite_m), axis=1, keepdims=True)
    with np.errstate(divide="ignore"):
        out = np.where(np.isfinite(m), finite_m + np.log(sums), m)
    softmax = np.exp(x.values - np.where(np.isfinite(out), out, 0.0))
    softmax[~np.isfinite(out)[:, 0]] = 0.0

    def backward_fn(g):
        if x.requires_grad:
            x._accumulate(g * softmax)

    result = _make(out, (x,), backward_fn, "logsumexp_rows")
    if _tracker is not None:
        _tracker.record_array(softmax, result)
    return result


def logaddexp(a, b):
    """Elementwise log(exp(a) + exp(b)); -inf entries contribute nothing."""
    out = np.logaddexp(a.values, b.values)

    def backward_fn(g):
        with np.errstate(invalid="ignore"):
            if a.requires_grad:
                wa = np.exp(a.values - out)
                wa[~np.isfinite(out)] = 0.0
                a._accumulate(_unbroadcast(g * wa, a.shape))
            if b.requires_grad:
                wb = np.exp(b.values - out)
                wb[~np.isfinite(out)] = 0.0
                b._accumulate(_unbroadcast(g * wb, b.shape))

    return _make(out, (a, b), backward_fn, "logaddexp")


def _nce_block_scores(a, o, lo, hi, tau):
    """Rows lo:hi of the scaled score matrix a @ o.T / tau, own column -inf."""
    s = a[lo:hi] @ o.T
    s *= 1.0 / tau
    np.fill_diagonal(s[:, lo:hi], -np.inf)
    return s


def nce_denominator(anchor, other, tau):
    """InfoNCE log-denominators log sum_{j != i} exp(a_i . o_j / tau), (r, 1).

    Row i contrasts anchor row i against every row of `other` except row i.
    Both passes walk the r x r score matrix in blocks of NCE_BLOCK_ROWS
    rows, and only the (r, 1) result is kept: backward recomputes each
    block's scores and takes its softmax from the result, so the op's
    scratch is O(NCE_BLOCK_ROWS x r) and no r x r array ever exists.
    Passing the same tensor twice (GRACE's stacked views) makes the scores
    symmetric, so row block i of the gradient weights W + W^T is
    exp(s - out_i) scale_i + exp(s - out_j^T) scale_j, one product per block.
    """
    if anchor.shape != other.shape:
        raise ValueError(f"nce_denominator needs equal shapes, got "
                         f"{anchor.shape} and {other.shape}")
    if anchor.shape[0] < 2:
        raise ValueError("nce_denominator needs at least 2 rows")
    a, o = anchor.values, other.values
    r = a.shape[0]
    blocks = [(lo, min(lo + NCE_BLOCK_ROWS, r))
              for lo in range(0, r, NCE_BLOCK_ROWS)]
    out = np.empty((r, 1))
    for lo, hi in blocks:
        s = _nce_block_scores(a, o, lo, hi, tau)
        m = np.max(s, axis=1, keepdims=True)
        s -= m
        np.exp(s, out=s)
        out[lo:hi] = m + np.log(np.sum(s, axis=1, keepdims=True))
        del s  # free each block before the next is scored

    def backward_fn(g):
        scale = g / tau
        if anchor is other:
            # off the diagonal s_ij <= out_j, so exp(s - out_j) <= 1
            da = np.empty_like(a)
            for lo, hi in blocks:
                w = _nce_block_scores(a, a, lo, hi, tau)
                wt = w - out.T
                np.exp(wt, out=wt)
                wt *= scale.T
                w -= out[lo:hi]
                np.exp(w, out=w)
                w *= scale[lo:hi]
                w += wt
                np.matmul(w, a, out=da[lo:hi])
                del w, wt
            anchor._accumulate(da)
            return
        da = np.empty_like(a) if anchor.requires_grad else None
        do = np.zeros_like(o) if other.requires_grad else None
        for lo, hi in blocks:
            w = _nce_block_scores(a, o, lo, hi, tau)
            w -= out[lo:hi]
            np.exp(w, out=w)
            w *= scale[lo:hi]
            if da is not None:
                np.matmul(w, o, out=da[lo:hi])
            if do is not None:
                do += w.T @ a[lo:hi]
            del w
        if da is not None:
            anchor._accumulate(da)
        if do is not None:
            other._accumulate(do)

    return _make(out, (anchor, other), backward_fn, "nce_denominator")


def tensor_sum(x):
    out = np.sum(x.values).reshape(1, 1)

    def backward_fn(g):
        if x.requires_grad:
            x._accumulate(np.full(x.shape, g[0, 0]))

    return _make(out, (x,), backward_fn, "sum")


def tensor_mean(x):
    size = x.values.size
    out = (np.sum(x.values) / size).reshape(1, 1)

    def backward_fn(g):
        if x.requires_grad:
            x._accumulate(np.full(x.shape, g[0, 0] / size))

    return _make(out, (x,), backward_fn, "mean")


def concat_rows(tensors):
    parts = [t.values for t in tensors]
    out = np.concatenate(parts, axis=0)
    offsets = np.cumsum([0] + [p.shape[0] for p in parts])

    def backward_fn(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                t._accumulate(g[lo:hi])

    return _make(out, tuple(tensors), backward_fn, "concat_rows")


def transpose(x):
    out = x.values.T.copy()

    def backward_fn(g):
        if x.requires_grad:
            x._accumulate(g.T)

    return _make(out, (x,), backward_fn, "transpose")


def gather_rows(x, indices):
    """Select rows of x by an integer index array; duplicates allowed."""
    idx = np.asarray(indices, dtype=np.intp)
    out = x.values[idx]

    def backward_fn(g):
        if x.requires_grad:
            # scatter-add as one sparse product: row idx[j] gains g[j];
            # column j of the scatter matrix holds its one entry at idx[j]
            scatter = sparse.csc_matrix(
                (np.ones(len(idx)), idx, np.arange(len(idx) + 1)),
                shape=(x.shape[0], len(idx)))
            x._accumulate(scatter @ g)

    return _make(out, (x,), backward_fn, "gather_rows")


def mask_diagonal(x, fill=-np.inf):
    """Copy a square matrix with its diagonal overwritten by a constant."""
    if x.shape[0] != x.shape[1]:
        raise ValueError("mask_diagonal requires a square matrix")
    out = x.values.copy()
    np.fill_diagonal(out, fill)

    def backward_fn(g):
        if x.requires_grad:
            gc = g.copy()
            np.fill_diagonal(gc, 0.0)
            x._accumulate(gc)

    return _make(out, (x,), backward_fn, "mask_diagonal")


def batch_norm(x, gamma, beta, state, momentum, training):
    """Batch normalization over rows with running statistics.

    `state` is a dict holding 'running_mean' and 'running_var' (1, d) arrays,
    updated in place during training with
    running <- momentum * running + (1 - momentum) * batch.
    """
    bn_eps = 1e-5
    if training:
        mu = np.mean(x.values, axis=0, keepdims=True)
        centred = x.values - mu
        var = np.mean(centred * centred, axis=0, keepdims=True)
        state["running_mean"] *= momentum
        state["running_mean"] += (1.0 - momentum) * mu
        state["running_var"] *= momentum
        state["running_var"] += (1.0 - momentum) * var
    else:
        centred = x.values - state["running_mean"]
        var = state["running_var"]
    inv_std = 1.0 / np.sqrt(var + bn_eps)
    xhat = np.multiply(centred, inv_std, out=centred)  # no second n x d copy
    out = xhat * gamma.values
    out += beta.values

    def backward_fn(g):
        work = None
        if gamma.requires_grad:
            work = np.multiply(g, xhat)
            gamma._accumulate(np.sum(work, axis=0, keepdims=True))
        if beta.requires_grad:
            beta._accumulate(np.sum(g, axis=0, keepdims=True))
        if not x.requires_grad:
            return
        dxhat = g * gamma.values
        if training:
            # (inv_std / n) * (n dxhat - sum(dxhat) - xhat sum(dxhat xhat))
            n = x.shape[0]
            work = np.multiply(dxhat, xhat, out=work)
            sum_dxhat_xhat = np.sum(work, axis=0, keepdims=True)
            sum_dxhat = np.sum(dxhat, axis=0, keepdims=True)
            dxhat *= n
            dxhat -= sum_dxhat
            np.multiply(xhat, sum_dxhat_xhat, out=work)
            dxhat -= work
            dxhat *= inv_std / n
        else:
            dxhat *= inv_std
        x._accumulate(dxhat)

    return _make(out, (x, gamma, beta), backward_fn, "batch_norm")


def layer_norm(x, gamma, beta):
    """Per-row normalization with learnable (1, d) scale and shift."""
    ln_eps = 1e-5
    mu = np.mean(x.values, axis=1, keepdims=True)
    var = np.var(x.values, axis=1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + ln_eps)
    xhat = (x.values - mu) * inv_std
    out = gamma.values * xhat + beta.values

    def backward_fn(g):
        if gamma.requires_grad:
            gamma._accumulate(np.sum(g * xhat, axis=0, keepdims=True))
        if beta.requires_grad:
            beta._accumulate(np.sum(g, axis=0, keepdims=True))
        if x.requires_grad:
            d = x.shape[1]
            dxhat = g * gamma.values
            dx = (inv_std / d) * (d * dxhat
                                  - np.sum(dxhat, axis=1, keepdims=True)
                                  - xhat * np.sum(dxhat * xhat, axis=1,
                                                  keepdims=True))
            x._accumulate(dx)

    return _make(out, (x, gamma, beta), backward_fn, "layer_norm")


def standardize_cols(w):
    """Standardize each column (output unit) of a weight matrix to zero mean
    and unit variance. Differentiable reparameterization applied at forward
    time when weight standardization is enabled."""
    ws_eps = 1e-5
    mu = np.mean(w.values, axis=0, keepdims=True)
    var = np.var(w.values, axis=0, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + ws_eps)
    what = (w.values - mu) * inv_std

    def backward_fn(g):
        if w.requires_grad:
            n = w.shape[0]
            dw = (inv_std / n) * (n * g
                                  - np.sum(g, axis=0, keepdims=True)
                                  - what * np.sum(g * what, axis=0,
                                                  keepdims=True))
            w._accumulate(dw)

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
