"""The traced benchmark patches program names from outside; each one must
still resolve, or `perfbench/run.py --trace 1` breaks without a test failing,
and the training loop must still call the ones it owns, or their spans read 0.

perfbench/spans.py is loaded by path and only read: no tracer is entered.
"""

import importlib
import importlib.util
from pathlib import Path
from types import SimpleNamespace

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_functions_resolve():
    spans = load_spans()
    for module, attr, name in spans.FUNCTIONS:
        owner = importlib.import_module(module)
        assert callable(getattr(owner, attr, None)), (
            f"span {name}: {module}.{attr} is gone")


def test_traced_autodiff_ops_and_methods_resolve():
    spans = load_spans()
    from linkssl import autodiff, runner
    from linkssl.models import nets

    missing = [op for op in spans.AUTODIFF_OPS
               if not callable(getattr(autodiff, op, None))]
    assert missing == []
    assert callable(nets.GCNEncoder.forward)
    assert callable(runner.run_experiment)


# the traced names in models.training that one epoch of each model calls
EPOCH_CALLS = {
    "grace": {"make_views", "grace_loss", "adam_step"},
    "bgrl": {"make_views", "bgrl_loss", "adam_step", "ema_update"},
    "lgrace": {"make_views", "select_link_sets", "lgrace_loss", "adam_step"},
    "lbgrl": {"make_views", "select_link_sets", "bgrl_loss", "adam_step",
              "ema_update"},
}


def _one_epoch(training, model):
    from linkssl.augment import AugmentationSpec
    from linkssl.graphs import Graph, random_link_split
    from linkssl.models import EncoderConfig

    graph = Graph(8, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6),
                      (6, 7), (4, 7), (1, 6)])
    split = random_link_split(graph, (0.8, 0.1, 0.1), seed=1)
    spec = AugmentationSpec(drop_edge_rate_1=0.0, drop_edge_rate_2=0.0)
    cfg = SimpleNamespace(
        ct_epochs=1, gnn_lr=1e-3, weight_decay=0.0, proj_hidden=64, tau=0.5,
        ema_decay=0.9, encoder=EncoderConfig(n_layers=1, layer_size=64))
    state = training.train_encoder(split, spec, model, cfg, seed=2)
    assert state.epoch == 1
    return state


@pytest.mark.parametrize("model", sorted(EPOCH_CALLS))
def test_train_encoder_calls_traced_names(model, monkeypatch):
    # a refactor that stops calling a traced name would read 0 in its span
    from linkssl.models import training

    called = set()
    for module, attr, _ in load_spans().FUNCTIONS:
        if module != "linkssl.models.training":
            continue

        def spy(*args, _attr=attr, _fn=getattr(training, attr), **kwargs):
            called.add(_attr)
            return _fn(*args, **kwargs)

        monkeypatch.setattr(training, attr, spy)
    _one_epoch(training, model)
    assert called == EPOCH_CALLS[model]


# per epoch of a 1-layer encoder: EMA moves 4 encoder parameters (W, PReLU
# slope, gamma, beta), plus the link MLP's 4 for lbgrl; the bootstrapped
# models embed each view with the online encoder and with its target copy
EPOCH_COUNTS = {"grace": (0, 2), "lgrace": (0, 2), "bgrl": (4, 4),
                "lbgrl": (8, 4)}


@pytest.mark.parametrize("model", sorted(EPOCH_COUNTS))
def test_epoch_call_counts_match_bench_history(model, monkeypatch):
    # optim.ema_update.calls and models.nets.encoder_forward.calls count
    # these calls; keeping them per parameter and per view keeps traced
    # runs comparable with earlier benches
    from linkssl.models import nets, training

    counts = {"ema_update": 0, "forward": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(training, "ema_update",
                        counted("ema_update", training.ema_update))
    monkeypatch.setattr(nets.GCNEncoder, "forward",
                        counted("forward", nets.GCNEncoder.forward))
    state = _one_epoch(training, model)
    assert (counts["ema_update"], counts["forward"]) == EPOCH_COUNTS[model]
    assert counts["ema_update"] == len(state.tracked)
