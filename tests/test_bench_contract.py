"""The traced benchmark patches program names from outside; each one must
still resolve, or `perfbench/run.py --trace 1` breaks without a test failing.

perfbench/spans.py is loaded by path and only read: no tracer is entered.
"""

import importlib
import importlib.util
from pathlib import Path

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
