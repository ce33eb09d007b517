"""Importing the package loads numpy and scipy.sparse, not scipy.stats or
scipy.sparse.linalg: together those two cost about 1 s and 48 MB per
process, and no training seed uses them. Each import runs in a fresh
interpreter, because this test process may already hold both modules.
Every name a package exports must resolve in it.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
HEAVY = ("scipy.stats", "scipy.sparse.linalg")


@pytest.mark.parametrize("module", ["linkssl", "linkssl.cli"])
def test_import_leaves_heavy_scipy_modules_unloaded(module):
    probe = (f"import json, sys; import {module}; "
             f"print(json.dumps([m for m in {HEAVY!r} if m in sys.modules]))")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    out = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout.splitlines()[-1]) == []


@pytest.mark.parametrize("module", ["linkssl", "linkssl.models"])
def test_every_exported_name_resolves(module):
    package = importlib.import_module(module)
    assert [name for name in package.__all__
            if not hasattr(package, name)] == []
    assert len(set(package.__all__)) == len(package.__all__)
