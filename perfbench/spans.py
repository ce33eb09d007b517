"""Spans recorded from outside the program, around calls into its layers.

Entering a `Tracer` replaces public functions with timing wrappers at the
names the consuming modules call them by (for example
`linkssl.models.training.sample_negative_pairs`, which is the decoder's
negative sampler); leaving it puts the originals back. Wrappers only
read the clock and the call's result; they draw no random numbers, so a
traced seed writes the same artifacts as an untraced one.

Each span keeps its inclusive time and its self time (inclusive minus the
time of spans it encloses). Spans are summed in memory and read once the
traced seed has ended. Byte counts are summed from op output shapes; they
are computed, not measured memory.
"""

from __future__ import annotations

import time
from collections import defaultdict

# (module, attribute, span name) for plain functions
FUNCTIONS = (
    ("linkssl.runner", "random_link_split", "graphs.random_link_split"),
    ("linkssl.runner", "train_encoder", "models.training.train_encoder"),
    ("linkssl.runner", "train_decoder", "models.training.train_decoder"),
    ("linkssl.runner", "evaluate_split", "metrics.evaluate_split"),
    ("linkssl.runner", "write_run_dir", "runner.write_run_dir"),
    ("linkssl.runner", "write_metrics_csv", "runner.write_metrics_csv"),
    ("linkssl.models.training", "sample_negative_pairs",
     "graphs.sample_negative_pairs.decoder"),
    ("linkssl.models.losses", "sample_negative_pairs",
     "graphs.sample_negative_pairs.links"),
    ("linkssl.metrics", "sample_negative_pairs",
     "graphs.sample_negative_pairs.eval"),
    ("linkssl.models.training", "select_link_sets",
     "models.losses.select_link_sets"),
    ("linkssl.models.training", "grace_loss", "models.losses.grace_loss"),
    ("linkssl.models.training", "lgrace_loss", "models.losses.lgrace_loss"),
    ("linkssl.models.training", "bgrl_loss", "models.losses.bgrl_loss"),
    ("linkssl.models.training", "make_views", "augment.make_views"),
    ("linkssl.models.training", "adam_step", "optim.adam_step"),
    ("linkssl.models.training", "ema_update", "optim.ema_update"),
    ("linkssl.models.nets", "normalized_adjacency",
     "graphs.normalized_adjacency"),
    ("linkssl.augment", "sample_sbm", "sbm.sample_sbm"),
    ("linkssl.community", "louvain", "community.louvain"),
    ("linkssl.autodiff", "backward", "autodiff.backward"),
)

AUTODIFF_OPS = ("matmul", "sparse_matmul", "logsumexp_rows", "logaddexp",
                "mask_diagonal", "row_l2_normalize", "gather_rows",
                "elementwise_mul", "batch_norm", "transpose")

# direct children of run_experiment; with runner.self_s they cover the seed
STAGES = ("graphs.random_link_split", "models.training.train_encoder",
          "models.training.train_decoder", "metrics.evaluate_split",
          "runner.write_run_dir", "runner.write_metrics_csv")

ROOT = "runner.run_experiment"


class _Frame:
    __slots__ = ("name", "start", "children")

    def __init__(self, name, start):
        self.name = name
        self.start = start
        self.children = 0.0


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.stage_s = defaultdict(float)  # spans whose parent is the root
        self.counts = defaultdict(int)
        self._stack = []
        self._patched = []

    # -- span bookkeeping ---------------------------------------------------

    def _wrap(self, name, fn, on_result=None):
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            frame = _Frame(name, clock())
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame.start
                self.calls[name] += 1
                self.total_s[name] += duration
                self.self_s[name] += duration - frame.children
                if stack:
                    stack[-1].children += duration
                    if stack[-1].name == ROOT:
                        self.stage_s[name] += duration
            if on_result is not None:
                on_result(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _patch(self, owner, attr, name, on_result=None):
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self._wrap(name, original, on_result))

    # -- counters taken from results ----------------------------------------

    def _count_pairs(self, name):
        def on_result(args, result):
            self.counts[name + ".pairs"] += len(result)
        return on_result

    def _count_views(self, args, result):
        self.counts["augment.view_edges"] += sum(v.num_edges for v in result)

    def _count_shared(self, args, result):
        self.counts["models.losses.shared_links"] += len(result[0])

    def _count_op_bytes(self, name):
        def on_result(args, result):
            self.counts[name + ".bytes"] += result.values.nbytes
        return on_result

    # -- install on entry, restore the originals on exit ---------------------

    def __enter__(self):
        import importlib

        from linkssl import autodiff, runner
        from linkssl.models import nets

        hooks = {"augment.make_views": self._count_views,
                 "models.losses.select_link_sets": self._count_shared}
        for module, attr, name in FUNCTIONS:
            hook = hooks.get(name)
            if name.startswith("graphs.sample_negative_pairs"):
                hook = self._count_pairs(name)
            self._patch(importlib.import_module(module), attr, name, hook)
        for op in AUTODIFF_OPS:
            name = f"autodiff.{op}"
            self._patch(autodiff, op, name, self._count_op_bytes(name))
        self._patch(nets.GCNEncoder, "forward", "models.nets.encoder_forward")
        self._patch(runner, "run_experiment", ROOT)
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()
        return False
