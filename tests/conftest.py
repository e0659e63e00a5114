import importlib.util
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from qgl3 import decomp
from qgl3.lattice import FacetType
from qgl3.verify import run_suite

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def perfbench(monkeypatch):
    """Load a module of the benchmark directory by path: perfbench("tracing").
    The test skips when the directory is absent (an installed copy).  The
    module is in sys.modules while the test runs, as dataclasses need."""

    def load(name):
        path = PERFBENCH / f"{name}.py"
        if not path.exists():
            pytest.skip("needs the perfbench directory of a checkout")
        spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
        module = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, module)
        spec.loader.exec_module(module)
        return module

    return load


@pytest.fixture(scope="session")
def suite_report():
    """run_suite(name, l_values, box), run once per session: the tests that
    check the same sweep (the benchmark's pinned counts, the acceptance
    criteria) share its report instead of running it again."""
    reports = {}

    def get(name, l_values, box):
        key = (name, tuple(l_values), box)
        if key not in reports:
            reports[key] = run_suite(name, list(l_values), box)
        return reports[key]

    return get


def _container_sizes() -> dict[str, int]:
    """The size of every module-level dict, list and set of qgl3, and of the
    cache of every functools-memoized function, by qualified name."""
    sizes = {}
    for module_name, module in sorted(sys.modules.items()):
        if module_name.split(".")[0] != "qgl3":
            continue
        for name, value in vars(module).items():
            if name.startswith("__"):
                continue
            if isinstance(value, (dict, list, set)):
                sizes[f"{module_name}.{name}"] = len(value)
            elif hasattr(value, "cache_info"):
                sizes[f"{module_name}.{name}"] = value.cache_info().currsize
    return sizes


# Run in a fresh interpreter, where every memo starts empty whatever the
# tests before it filled: every module of qgl3 is imported first, so a
# module loaded during the sweep does not count as growth.  It prints the
# containers that grew, the keys of the restricted-orbit memo that are
# triples of plain ints, with the memo's size, and the number of graph
# skeletons.
_MEMO_SWEEP = f"""
import importlib, json, pkgutil, sys
import qgl3
from qgl3 import lattice, structure, verify
for info in pkgutil.iter_modules(qgl3.__path__):
    importlib.import_module(f"qgl3.{{info.name}}")
{inspect.getsource(_container_sizes)}
before = _container_sizes()
for suite in verify.SUITES:
    assert verify.run_suite(suite, [2, 3, 5], 4).passed, suite
after = _container_sizes()
print(json.dumps({{
    "grew": sorted(name for name, n in after.items() if n != before.get(name)),
    "orbit_rows": len(lattice._orbits),
    "skeletons": len(structure._skeletons),
    "int_keys": [list(k) for k in lattice._orbits
                 if type(k) is tuple and len(k) == 3 and all(type(x) is int for x in k)],
}}))
"""


_SWEEP = pytest.StashKey[subprocess.Popen]()


def pytest_collection_finish(session):
    """Start the memo sweep as soon as a collected test needs it, so that it
    runs beside the tests before that one."""
    if any("memo_sweep" in getattr(item, "fixturenames", ()) for item in session.items):
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        session.config.stash[_SWEEP] = subprocess.Popen(
            [sys.executable, "-c", _MEMO_SWEEP],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
        )


def pytest_sessionfinish(session):
    """Stop a memo sweep that no test read, as when -x ends the run early."""
    proc = session.config.stash.get(_SWEEP, None)
    if proc is not None and proc.returncode is None:
        proc.kill()
        proc.communicate()


@pytest.fixture(scope="session")
def memo_sweep(pytestconfig):
    """What the acceptance sweep (every suite at l in {2, 3, 5}, box 4)
    leaves in the memos of a fresh interpreter, run once per session."""
    proc = pytestconfig.stash[_SWEEP]
    out, err = proc.communicate()
    assert proc.returncode == 0, err
    return json.loads(out)


@pytest.fixture
def fresh_memo():
    """Empty the decomposition memo, which also holds the factor families
    of dominant weights, before and after the test, so that a test which
    changes a family producer neither reads lists memoized before it nor
    leaves its own behind."""
    decomp._decompositions.clear()
    yield
    decomp._decompositions.clear()


@pytest.fixture
def wrap_family(monkeypatch, fresh_memo):
    """wrap_family(corrupt) replaces decomp.family_pairs, the one builder of
    the factor families, by one that hands the factors of each facet, as int
    pairs, to corrupt(facet, factors) and returns what it gives back.  Every
    reader looks the builder up at call time, so the wrapper reaches them all."""
    family = decomp.family_pairs

    def wrap(corrupt):
        def wrapped(lam, l):
            facet, factors = family(lam, l)
            return facet, corrupt(facet, factors)

        monkeypatch.setattr(decomp, "family_pairs", wrapped)

    return wrap


@pytest.fixture
def corrupt_down_alcove(wrap_family):
    """Corrupt one weight of the down-alcove factor family, so that the
    filtration identity fails on part of every sweep.  Worker processes
    forked by a parallel sweep inherit the corruption."""

    def corrupted(facet, factors):
        if facet is not FacetType.DOWN_ALCOVE:
            return factors
        a, b = factors[5]
        return factors[:5] + ((a + 1, b),) + factors[6:]

    wrap_family(corrupted)


@pytest.fixture
def degenerate_down_alcove(wrap_family):
    """Replace factor 6 of the down-alcove factor family by factor 5, so
    that every down-alcove list repeats a weight and the Ext tables read on
    it raise."""

    def degenerate(facet, factors):
        if facet is not FacetType.DOWN_ALCOVE:
            return factors
        return factors[:5] + factors[4:5] + factors[6:]

    wrap_family(degenerate)


@pytest.fixture
def corrupt_right_wall(wrap_family):
    """Shift factor 2 of the right-wall factor family by (1, 0), and factor
    2 of the left-wall family, its coordinate swap, by (0, 1): both walls are
    corrupted, and the translation of a wall weight meets a factor that is
    not on exactly one wall."""
    shift = {FacetType.RIGHT_WALL: (1, 0), FacetType.LEFT_WALL: (0, 1)}

    def corrupted(facet, factors):
        if facet not in shift:
            return factors
        (a, b), (da, db) = factors[1], shift[facet]
        return factors[:1] + ((a + da, b + db),) + factors[2:]

    wrap_family(corrupted)
