"""float32 training: the dtype contract and the numerics at the edges.

Training runs in float32 (`nets.TRAIN_DTYPE`). The ops are dtype-generic:
an op fed float32 returns and backpropagates float32, an op fed float64
returns and backpropagates float64. The numerics tests run one op or step
in float32 and the same computation in float64 on the same (float32)
inputs, at the edges where a float32 result could overflow, underflow or
lose its floor: row_l2_normalize's 1e-12, Adam's 1e-8, the 1e-5 variance
floor of every standardization, nce_denominator at tau = 0.1 and the
softplus decoder loss at logits of +-100. Each result must be finite and
within the stated tolerance of its float64 reference.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest
from scipy import sparse

import linkssl.autodiff as ad
from linkssl import runner
from linkssl.augment import AugmentationSpec
from linkssl.autodiff import Tensor, backward
from linkssl.config import ExperimentConfig
from linkssl.graphs import Graph
from linkssl.models import training
from linkssl.models.nets import TRAIN_DTYPE, Decoder
from linkssl.optim import Parameter, adam_step
from tests.test_models import toy_cfg


def _batch_norm(a, g, b, train=True):
    state = {"running_mean": np.zeros((1, a.shape[1]), dtype=a.values.dtype),
             "running_var": np.ones((1, a.shape[1]), dtype=a.values.dtype)}
    return ad.batch_norm(a, g, b, state, momentum=0.9, training=train)


# (name, op over the leaves, leaf shapes); every public op of autodiff
OPS = [
    ("matmul", ad.matmul, [(4, 3), (3, 5)]),
    ("sparse_matmul", lambda a: ad.sparse_matmul(sparse.random(
        4, 4, density=0.5, random_state=1, format="csr",
        dtype=a.values.dtype), a), [(4, 3)]),
    ("add", ad.add, [(4, 3), (1, 3)]),
    ("sub", ad.sub, [(4, 3), (4, 1)]),
    ("elementwise_mul", ad.elementwise_mul, [(3, 4), (1, 4)]),
    ("scalar_mul", lambda a: ad.scalar_mul(a, -1.7), [(3, 3)]),
    ("relu", ad.relu, [(4, 4)]),
    ("prelu", ad.prelu, [(4, 3), (1, 1)]),
    ("sigmoid", ad.sigmoid, [(3, 5)]),
    ("row_l2_normalize", ad.row_l2_normalize, [(4, 3)]),
    ("row_sum", ad.row_sum, [(4, 3)]),
    ("row_cosine_similarity", ad.row_cosine_similarity, [(4, 3), (4, 3)]),
    ("logsumexp_rows", ad.logsumexp_rows, [(4, 5)]),
    ("logaddexp", ad.logaddexp, [(3, 4), (3, 4)]),
    ("nce_denominator", lambda a, b: ad.nce_denominator(a, b, 0.1),
     [(5, 3), (5, 3)]),
    ("nce_denominator_symmetric", lambda a: ad.nce_denominator(a, a, 0.1),
     [(5, 3)]),
    ("sum", ad.tensor_sum, [(4, 4)]),
    ("mean", ad.tensor_mean, [(4, 4)]),
    ("concat_rows", lambda a, b: ad.concat_rows([a, b]), [(2, 3), (4, 3)]),
    ("row_slice", lambda a: ad.row_slice(a, 1, 3), [(4, 3)]),
    ("transpose", ad.transpose, [(3, 5)]),
    ("gather_rows", lambda a: ad.gather_rows(a, [0, 2, 2, 1]), [(4, 3)]),
    ("pair_product", lambda a: ad.pair_product(a, [0, 2, 2], [1, 2, 0]),
     [(4, 3)]),
    ("mask_diagonal", lambda a: ad.logsumexp_rows(ad.mask_diagonal(a)),
     [(4, 4)]),
    ("batch_norm", _batch_norm, [(4, 3), (1, 3), (1, 3)]),
    ("batch_norm_eval", lambda a, g, b: _batch_norm(a, g, b, False),
     [(4, 3), (1, 3), (1, 3)]),
    ("layer_norm", ad.layer_norm, [(4, 3), (1, 3), (1, 3)]),
    ("standardize_cols", ad.standardize_cols, [(5, 3)]),
]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("name,op,shapes", OPS, ids=[c[0] for c in OPS])
def test_op_keeps_its_input_dtype(name, op, shapes, dtype):
    rng = np.random.default_rng(0)
    leaves = [Tensor(rng.normal(size=s).astype(dtype), requires_grad=True)
              for s in shapes]
    out = op(*leaves)
    assert out.values.dtype == dtype
    loss = ad.tensor_sum(ad.sigmoid(out))
    assert loss.values.dtype == dtype
    backward(loss)
    assert [t.grad.dtype for t in leaves] == [dtype] * len(leaves)


def test_tensor_keeps_float32_and_casts_the_rest_to_float64():
    assert Tensor(np.ones((2, 2), dtype=np.float32)).values.dtype == np.float32
    for values in ([[1, 2]], np.ones(3, dtype=np.float16), [[True]], 2.5):
        assert Tensor(values).values.dtype == np.float64


# ----------------------------------------------------------------- numerics


def _both(fn, inputs):
    """fn's (output, grads) in float32 and in float64 on the same float32
    inputs; the loss weights the output by fixed random weights."""
    runs = []
    for dtype in (np.float32, np.float64):
        leaves = [Tensor(x.astype(dtype), requires_grad=True) for x in inputs]
        out = fn(*leaves)
        weights = np.random.default_rng(9).normal(size=out.shape)
        backward(ad.tensor_sum(ad.elementwise_mul(
            out, Tensor(weights.astype(dtype)))))
        runs.append((out.values, [t.grad for t in leaves]))
    return runs


def _assert_close(got, want, rtol, atol=0.0):
    assert got.dtype == np.float32 and want.dtype == np.float64
    assert np.isfinite(got).all()
    np.testing.assert_allclose(got, want, rtol=rtol, atol=atol)


def test_row_l2_normalize_floor_in_float32():
    # a zero row, rows below the 1e-12 floor (one whose squares are
    # float32 subnormals) and an ordinary row; the floored rows' grads are
    # g / 1e-12, about 1e12
    x = np.array([[0.0, 0.0, 0.0], [3e-13, -4e-13, 0.0],
                  [1e-20, 0.0, 2e-20], [3.0, 4.0, -1.0]], dtype=np.float32)
    (out32, (g32,)), (out64, (g64,)) = _both(ad.row_l2_normalize, [x])
    # measured: 3e-8 on the output and 7e-7 on the grad, relative
    _assert_close(out32, out64, rtol=1e-6)
    _assert_close(g32, g64, rtol=2e-6)
    assert np.abs(g32[:3]).max() > 1e11


@pytest.mark.parametrize("scale", [1e-2, 1e-8, 1e-20])
def test_adam_eps_in_float32(scale):
    # at 1e-8 the gradient is of Adam's eps; at 1e-20 its square underflows
    # in float32 and the step is eps-bound in both precisions
    rng = np.random.default_rng(3)
    start = rng.uniform(0.5, 2.0, size=(4, 3))
    grads = [(rng.normal(size=(4, 3)) * scale).astype(np.float32)
             for _ in range(3)]
    params = {dtype: Parameter(start.astype(np.float32).astype(dtype))
              for dtype in (np.float32, np.float64)}
    for g in grads:
        for dtype, p in params.items():
            p.tensor.grad = g.astype(dtype)
            adam_step([p], lr=1e-2, weight_decay=1e-5)
    p32, p64 = params[np.float32], params[np.float64]
    for a in (p32.values, p32.adam_m, p32.adam_v):
        assert a.dtype == np.float32 and np.isfinite(a).all()
    # float32 rounds values of about 1 to 6e-8
    _assert_close(p32.values, p64.values, rtol=3e-7)


STANDARDIZATIONS = [
    ("layer_norm", ad.layer_norm),
    ("batch_norm", _batch_norm),
    ("standardize_cols", lambda x, g, b: ad.standardize_cols(x)),
]


@pytest.mark.parametrize("name,op", STANDARDIZATIONS,
                         ids=[c[0] for c in STANDARDIZATIONS])
def test_standardization_floor_in_float32(name, op):
    # columns (rows for layer_norm): constant, variance 1e-8 under the 1e-5
    # floor, and ordinary; the floor keeps inv_std at most 1 / sqrt(1e-5)
    rng = np.random.default_rng(4)
    cols = np.stack([np.full(6, 3.0), rng.normal(size=6) * 1e-4,
                     rng.normal(size=6)], axis=1)
    x = (cols.T if name == "layer_norm" else cols).astype(np.float32)
    d = x.shape[1]
    gamma = rng.uniform(0.5, 1.5, size=(1, d)).astype(np.float32)
    beta = rng.normal(size=(1, d)).astype(np.float32)
    (out32, g32), (out64, g64) = _both(op, [x, gamma, beta])
    # measured: under 1e-7 of the largest entry, outputs and grads alike
    _assert_close(out32, out64, rtol=0, atol=1e-6 * np.abs(out64).max())
    for a, b in zip(g32, g64):
        if a is not None:
            _assert_close(a, b, rtol=0, atol=1e-6 * np.abs(b).max())


@pytest.mark.parametrize("symmetric", [True, False])
def test_nce_denominator_at_tau_one_tenth_in_float32(symmetric):
    # unit rows at tau = 0.1 give scores in [-10, 10]; 300 rows take two
    # row blocks
    rng = np.random.default_rng(5)
    rows = rng.normal(size=(2, 300, 16))
    rows /= np.linalg.norm(rows, axis=2, keepdims=True)
    rows = rows.astype(np.float32)
    if symmetric:
        def fn(a):
            return ad.nce_denominator(a, a, 0.1)
        inputs = [rows[0]]
    else:
        def fn(a, o):
            return ad.nce_denominator(a, o, 0.1)
        inputs = list(rows)
    (out32, g32), (out64, g64) = _both(fn, inputs)
    # measured: 9e-8 relative on the output, 7e-7 of the largest grad entry
    _assert_close(out32, out64, rtol=1e-6)
    for a, b in zip(g32, g64):
        _assert_close(a, b, rtol=0, atol=1e-5 * np.abs(b).max())


def test_softplus_decoder_loss_at_logits_of_one_hundred_in_float32():
    # softplus(-+100) is 3.7e-44 (a float32 subnormal) or 100; the
    # gradient is sigmoid(+-100) / k: 1 / k or a subnormal
    logits = np.array([[100.0], [-100.0], [100.0], [-100.0], [0.0], [20.0]],
                      dtype=np.float32)
    labels = np.array([1.0, 1.0, 0.0, 0.0, 1.0, 0.0])
    head = SimpleNamespace(logits=lambda z: z)
    runs = []
    for dtype in (np.float32, np.float64):
        z = Tensor(logits.astype(dtype), requires_grad=True)
        loss = training._decoder_objective(head, z, labels)
        backward(loss)
        runs.append((loss.values, z.grad))
    (loss32, g32), (loss64, g64) = runs
    _assert_close(loss32, loss64, rtol=1e-6)
    _assert_close(g32, g64, rtol=1e-6, atol=1e-30)
    want = (100.0 + 100.0 + np.log(2.0) + np.logaddexp(0.0, 20.0)) / 6
    assert loss64[0, 0] == pytest.approx(want, rel=1e-12)


# ---------------------------------------------------- the training pipeline


def _float32_graph():
    rng = np.random.default_rng(6)
    n = 24
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                     if rng.random() < 0.3])


def _modules(trained):
    for item in trained:
        state, decoder = item if isinstance(item, tuple) else (item, None)
        if isinstance(state, training.TrainState):
            yield from (state.encoder, state.projector, state.predictor,
                        state.link_mlp, state.target_encoder,
                        state.target_link_mlp)
        else:
            decoder = state
        yield decoder


@pytest.mark.parametrize("model", ["grace", "bgrl", "lgrace", "lbgrl",
                                   "gcn_supervised"])
def test_one_epoch_trains_and_saves_float32(model, monkeypatch, tmp_path):
    # one encoder epoch (the decoder stage keeps its fixed 100) with batch
    # norm, two layers and decoder input masks
    trained, stepped = [], []
    for name in ("train_encoder", "train_decoder", "train_supervised_gcn"):
        def keep(*args, _fn=getattr(runner, name), **kwargs):
            trained.append(_fn(*args, **kwargs))
            return trained[-1]
        monkeypatch.setattr(runner, name, keep)

    def step(params, **kwargs):
        params = list(params)
        stepped.extend(p.grad.dtype for p in params)
        return adam_step(params, **kwargs)

    monkeypatch.setattr(training, "adam_step", step)
    cfg = toy_cfg(model=model, ct_epochs=1, n_layers=2, norm="batch",
                  mask_input=True, augmentation=AugmentationSpec(),
                  split_fractions=(0.7, 0.1, 0.2))
    result = runner.run_single(_float32_graph(), cfg, seed=3, k=None)

    assert stepped and set(stepped) == {np.dtype(TRAIN_DTYPE)}
    arrays = []
    for module in _modules(trained):
        if module is None:
            continue
        for p in module.parameters():
            arrays += [a for a in (p.values, p.grad, p.adam_m, p.adam_v)
                       if a is not None]
        for bn in getattr(module, "bn_states", ()):
            arrays += list(bn.values())
    assert len(arrays) > 20
    assert {a.dtype for a in arrays} == {np.dtype(TRAIN_DTYPE)}

    runner.write_run_dir(str(tmp_path), ExperimentConfig(
        dataset="toy", model=model, ct_epochs=100, seeds=(3,)), result)
    label = f"{model}_random"
    with np.load(tmp_path / "toy" / label / "3" / "params.npz") as saved:
        assert saved.files
        assert {saved[k].dtype for k in saved.files} == {np.dtype(np.float32)}


def test_decoder_scores_rank_logits_a_float32_sigmoid_would_tie():
    # a float32 sigmoid gives 1.0 at both logits, tying the pairs
    logits = np.array([[20.0], [30.0]], dtype=np.float32)
    assert np.all(ad.sigmoid(Tensor(logits)).values == 1.0)
    head = SimpleNamespace(logits=lambda z: z)
    scores = Decoder.scores(head, Tensor(logits)).values.ravel()
    assert scores.dtype == np.float64
    assert scores[0] < scores[1] < 1.0
