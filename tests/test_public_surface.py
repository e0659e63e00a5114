"""Every engine name has a caller outside the tests.

A top-level function or class, or a public method, of src/qgl3 passes when
qgl3.__all__ exports it, when a module of src/qgl3 or perfbench/ uses it
outside its own definition, or when it is on ALLOWED.  Uses are read from
the syntax tree: names, attributes, and in perfbench/ the dotted names in
string constants, which is how the tracer names what it wraps.  Methods
are matched by name only, so a method passes when any attribute of that
name is used.
"""

import ast
import importlib
import re
from collections import defaultdict
from pathlib import Path

import qgl3

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "qgl3"
BENCH = ROOT / "perfbench"
TESTS = ROOT / "tests"

# Names kept with no caller outside the tests.  The weight-basis oracle
# routes live in tests/oracles.py.  Two oracles stay in src/ only because
# the benchmark's tracer names them, charring.decompose_into_weyl and
# decomp.DecompResult.character (tests/test_perfbench_tracing.py checks
# that every traced name resolves); they move when the tracer stops naming
# them.  WallTranslate.lists is the public view of a translate's factor
# lists as OffWallEntry values; the engine reads the int-pair rows beside it.
ALLOWED: set[str] = {"translate.WallTranslate.lists"}


def _uses(tree: ast.AST, strings: bool):
    """(name, line) of every name and attribute in tree, and with strings
    also of every word in a string constant that is not a docstring."""
    docstrings = {
        id(node.body[0].value)
        for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef))
        and node.body
        and isinstance(node.body[0], ast.Expr)
    }
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif (
            strings
            and isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and id(node) not in docstrings
        ):
            for word in re.findall(r"\w+", node.value):
                yield word, node.lineno


def _span(node) -> range:
    first = min([node.lineno] + [d.lineno for d in node.decorator_list])
    return range(first, node.end_lineno + 1)


def _definitions(tree: ast.Module):
    """(qualified name, bare name, lines) of every top-level function and
    class and every public method."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        yield node.name, node.name, _span(node)
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item.name, _span(item)


def unused_names() -> list[str]:
    trees = {path: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    uses = defaultdict(list)  # name -> [(path, line)]
    for path in sorted(SRC.glob("*.py")) + sorted(BENCH.glob("*.py")):
        tree = trees.get(path) or ast.parse(path.read_text())
        for name, line in _uses(tree, strings=path.parent == BENCH):
            uses[name].append((path, line))
    out = []
    for path, tree in trees.items():
        for qualname, name, lines in _definitions(tree):
            label = f"{path.stem}.{qualname}"
            if name in qgl3.__all__ or label in ALLOWED:
                continue
            if all(where == path and line in lines for where, line in uses[name]):
                out.append(label)
    return out


def test_every_engine_name_has_a_caller():
    assert unused_names() == []


def test_allowlist_names_exist():
    for label in ALLOWED:
        module, *attrs = label.split(".")
        obj = importlib.import_module(f"qgl3.{module}")
        for attr in attrs:
            obj = getattr(obj, attr)


def unused_imports() -> list[str]:
    """module.name for every top-level `from ... import` name of a module of
    src/qgl3 or tests/, other than the package's __init__, that the module
    never uses."""
    out = []
    for path in sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        used = {name for name, _ in _uses(tree, strings=False)}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    name = alias.asname or alias.name
                    if name not in used:
                        out.append(f"{path.stem}.{name}")
    return out


def test_every_import_is_used():
    assert unused_imports() == []
