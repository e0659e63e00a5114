"""The benchmark's tracer wraps engine functions by name; each traced name
must still resolve, or a rename would surface only in a traced benchmark run."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path


def test_traced_names_resolve(perfbench):
    tracing = perfbench("tracing")
    assert tracing.TRACED
    for module_name, qualname, _ in tracing.TRACED:
        module = importlib.import_module(module_name)
        if "." in qualname:
            cls_name, attr = qualname.split(".")
            assert attr in vars(getattr(module, cls_name)), qualname
        else:
            assert callable(getattr(module, qualname)), qualname


def test_cli_import_loads_every_traced_module(perfbench):
    """Tracer.install imports qgl3.cli and then reads each traced module from
    sys.modules, so in a fresh interpreter importing the CLI must load them
    all: a CLI that imported a layer lazily would fail a traced run."""
    modules = {module_name for module_name, _, _ in perfbench("tracing").TRACED}
    src = Path(__file__).resolve().parent.parent / "src"
    out = subprocess.run(
        [sys.executable, "-c", "import json, sys, qgl3.cli; print(json.dumps(sorted(sys.modules)))"],
        capture_output=True, text=True, check=True, env=dict(os.environ, PYTHONPATH=str(src)),
    ).stdout
    assert modules <= set(json.loads(out)), modules - set(json.loads(out))
