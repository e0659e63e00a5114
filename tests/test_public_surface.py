"""Every engine name has a caller outside the tests.

A top-level function or class, or a public method, of src/qgl3 passes when
qgl3.__all__ exports it, when a module of src/qgl3 or perfbench/ uses it
outside its own definition, or when it is on ALLOWED.  Uses are read from
the syntax tree: names, attributes, and in perfbench/ the dotted names in
string constants, which is how the tracer names what it wraps.

A public method of a class that qgl3.__all__ exports passes on any
attribute of its name.  So does a method of another class when no other
class of src/qgl3 defines a method of that name.  Otherwise a use counts
only where the syntax tree ties it to the method's class: self.method
inside the class; Cls(...).method or f(...).method for f annotated
-> Cls; name.method for a name that the same function binds from such a
call, takes as a parameter annotated Cls, or takes as the target of
`for name in xs` where xs is a parameter or a name annotated list[Cls],
tuple[Cls, ...] or Iterable[Cls]; and in perfbench/ the string
"Cls.method".  Each source file is parsed and walked once per test
session, for unused_names and unused_imports alike.
"""

import ast
import functools
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
# routes live in tests/oracles.py.  Three oracles stay in src/ only because
# the benchmark's tracer names them, charring.decompose_into_weyl,
# charring.tensor_multiplicity (the oracle of ext's Pieri table) and
# decomp.DecompResult.character (tests/test_perfbench_tracing.py checks
# that every traced name resolves); they move when the tracer stops naming
# them.
ALLOWED: set[str] = set()


@functools.cache
def _parse(text: str) -> ast.Module:
    """The syntax tree of a source text, parsed once per test session, so
    unused_names and unused_imports share the trees of src/qgl3."""
    return ast.parse(text)


@functools.cache
def _nodes(tree: ast.AST) -> list[ast.AST]:
    """Every node of tree, walked once per test session."""
    return list(ast.walk(tree))


def _strings(tree: ast.AST):
    """(text, line) of every string constant in tree that is not a docstring."""
    docstrings = {
        id(node.body[0].value)
        for node in _nodes(tree)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef))
        and node.body
        and isinstance(node.body[0], ast.Expr)
    }
    for node in _nodes(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            if id(node) not in docstrings:
                yield node.value, node.lineno


def _uses(tree: ast.AST, strings: bool):
    """(name, line) of every name and attribute in tree, and with strings
    also of every word in a string constant that is not a docstring."""
    for node in _nodes(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
    if strings:
        for text, line in _strings(tree):
            for word in re.findall(r"\w+", text):
                yield word, line


def _annotated_class(ann) -> str | None:
    """The class named by an annotation Cls, "Cls" or Cls | None."""
    if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
        ann = ast.parse(ann.value, mode="eval").body
    if isinstance(ann, ast.BinOp) and isinstance(ann.op, ast.BitOr):
        sides = [x for x in (ann.left, ann.right) if not isinstance(x, ast.Constant)]
        ann = sides[0] if len(sides) == 1 else None
    return ann.id if isinstance(ann, ast.Name) else None


def _element_class(ann) -> str | None:
    """The class Cls of an annotation list[Cls], tuple[Cls, ...] or
    Iterable[Cls], quoted or not."""
    if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
        ann = ast.parse(ann.value, mode="eval").body
    if not isinstance(ann, ast.Subscript):
        return None
    outer = getattr(ann.value, "id", None) or getattr(ann.value, "attr", None)
    inner = ann.slice
    if outer == "tuple":
        if not (isinstance(inner, ast.Tuple) and len(inner.elts) == 2
                and getattr(inner.elts[1], "value", None) is Ellipsis):
            return None
        inner = inner.elts[0]
    elif outer not in ("list", "Iterable"):
        return None
    return _annotated_class(inner)


def _typed_uses(tree: ast.AST, classes: set[str], returns: dict[str, str]):
    """(class, method, line) of every attribute use the syntax tree ties to
    a class: self.method inside the class, and method read off a call that
    builds the class or off a name the enclosing function binds to one: from
    such a call, as a parameter annotated with the class, or as the target
    of a for loop over a name annotated as a list, tuple or iterable of it."""

    def built(node) -> str | None:
        if not isinstance(node, ast.Call):
            return None
        f = node.func
        name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
        return name if name in classes else returns.get(name)

    for cls in _nodes(tree):
        if isinstance(cls, ast.ClassDef):
            for node in ast.walk(cls):
                if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "self":
                    yield cls.name, node.attr, node.lineno
    for node in _nodes(tree):
        if isinstance(node, ast.Attribute) and (owner := built(node.value)):
            yield owner, node.attr, node.lineno
    for scope in _nodes(tree):
        if not isinstance(scope, ast.FunctionDef):
            continue
        nodes = list(ast.walk(scope))
        params = scope.args.posonlyargs + scope.args.args + scope.args.kwonlyargs
        bound = {arg.arg: _annotated_class(arg.annotation) for arg in params}
        elements = {arg.arg: _element_class(arg.annotation) for arg in params}
        for node in nodes:
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                if isinstance(node.targets[0], ast.Name) and (owner := built(node.value)):
                    bound[node.targets[0].id] = owner
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                elements[node.target.id] = _element_class(node.annotation)
        for node in nodes:
            if (isinstance(node, ast.For) and isinstance(node.target, ast.Name)
                    and isinstance(node.iter, ast.Name) and elements.get(node.iter.id)):
                bound[node.target.id] = elements[node.iter.id]
        bound = {name: owner for name, owner in bound.items() if owner in classes}
        for node in nodes:
            if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) in bound:
                yield bound[node.value.id], node.attr, node.lineno


def _span(node) -> range:
    first = min([node.lineno] + [d.lineno for d in node.decorator_list])
    return range(first, node.end_lineno + 1)


def _definitions(tree: ast.Module):
    """(qualified name, class or None, bare name, lines) of every top-level
    function and class and every public method."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        yield node.name, None, node.name, _span(node)
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", node.name, item.name, _span(item)


def unused_names(
    src: dict[str, str], bench: dict[str, str], exported: set[str], allowed=frozenset()
) -> list[str]:
    """module.name of every definition in src (module name -> source) that
    has no use outside its own definition in src or bench, by the rules of
    the module docstring, unless exported or allowed; bench's string
    constants count as uses."""
    trees = {module: _parse(text) for module, text in src.items()}
    bench_trees = {module: _parse(text) for module, text in bench.items()}
    owners = defaultdict(set)  # method name -> classes defining it
    returns = {}  # function name -> the class its return annotation names
    classes = set()
    for tree in trees.values():
        for node in _nodes(tree):
            if isinstance(node, ast.ClassDef):
                classes.add(node.name)
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        owners[item.name].add(node.name)
            elif isinstance(node, ast.FunctionDef) and (cls := _annotated_class(node.returns)):
                returns[node.name] = cls
    uses = defaultdict(list)  # name -> [(module, line)]
    typed = defaultdict(list)  # (class, method) -> [(module, line)]
    scanned = [(m, t, False) for m, t in trees.items()]
    scanned += [(f"bench:{m}", t, True) for m, t in bench_trees.items()]
    for module, tree, is_bench in scanned:
        for name, line in _uses(tree, strings=is_bench):
            uses[name].append((module, line))
        for cls, name, line in _typed_uses(tree, classes, returns):
            typed[cls, name].append((module, line))
        if is_bench:
            for text, line in _strings(tree):
                for dotted in re.findall(r"\w+(?:\.\w+)+", text):
                    parts = dotted.split(".")
                    for cls, name in zip(parts, parts[1:]):
                        typed[cls, name].append((module, line))
    out = []
    for module, tree in trees.items():
        for qualname, cls, name, lines in _definitions(tree):
            label = f"{module}.{qualname}"
            if (cls is None and name in exported) or label in allowed:
                continue
            if cls is None or cls in exported or owners[name] == {cls}:
                found = uses[name]
            else:
                found = typed[cls, name]
            if all(where == module and line in lines for where, line in found):
                out.append(label)
    return out


def _engine_sources():
    return (
        {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))},
        {path.stem: path.read_text() for path in sorted(BENCH.glob("*.py"))},
    )


def stale_labels(labels) -> list[str]:
    """Every module.name of labels that does not resolve to an object of
    src/qgl3."""
    out = []
    for label in sorted(labels):
        module, *attrs = label.split(".")
        try:
            obj = importlib.import_module(f"qgl3.{module}")
            for attr in attrs:
                obj = getattr(obj, attr)
        except (ImportError, AttributeError):
            out.append(label)
    return out


def test_every_engine_name_has_a_caller():
    assert unused_names(*_engine_sources(), set(qgl3.__all__), ALLOWED) == []


def test_allowlist_names_exist():
    # a name on ALLOWED has to exist, or the allowance is stale
    assert stale_labels(ALLOWED) == []
    # the check itself reports a missing module, class or method
    labels = {"decomp.DecompResult.character", "decomp.NoSuchName", "no_such_module.f"}
    assert stale_labels(labels) == ["decomp.NoSuchName", "no_such_module.f"]


# A method whose name another class also defines: the only use of the name
# is tied to the other class, through a function annotated to return it.
SHADOWED = """
class Entry:
    def weyl_character(self):
        return {}


class Translate:
    def weyl_character(self):
        return {}

    def total(self):
        return sum(self.weyl_character().values())


def build() -> Translate:
    return Translate()


def sweep():
    t = build()
    return t.weyl_character(), t.total(), Entry()
"""


def test_a_method_used_only_through_another_class_is_reported():
    assert unused_names({"m": SHADOWED}, {}, {"sweep"}) == ["m.Entry.weyl_character"]
    # a use tied to Entry, or a name only Entry defines, lets it pass
    tied = SHADOWED + "\n\ndef read():\n    x = Entry()\n    return x.weyl_character()\n"
    assert unused_names({"m": tied}, {}, {"sweep", "read"}) == []
    # a parameter annotated Entry, and a loop over a list, tuple or iterable of Entry
    param = SHADOWED + "\n\ndef read(x: Entry):\n    return x.weyl_character()\n"
    assert unused_names({"m": param}, {}, {"sweep", "read"}) == []
    for ann in ("list[Entry]", "tuple[Entry, ...]", "Iterable[Entry]", '"list[Entry]"'):
        looped = SHADOWED + (f"\n\ndef read(xs: {ann}):\n    for x in xs:\n"
                             "        x.weyl_character()\n")
        assert unused_names({"m": looped}, {}, {"sweep", "read"}) == [], ann
        local = SHADOWED + (f"\n\ndef read():\n    xs: {ann} = []\n    for x in xs:\n"
                            "        x.weyl_character()\n")
        assert unused_names({"m": local}, {}, {"sweep", "read"}) == [], ann
    # an unannotated loop, or one over another class, ties nothing to Entry
    for ann in ("", ": list", ": list[Translate]", ": tuple[Entry, Entry]"):
        loose = SHADOWED + (f"\n\ndef read(xs{ann}):\n    for x in xs:\n"
                            "        x.weyl_character()\n")
        assert unused_names({"m": loose}, {}, {"sweep", "read"}) == ["m.Entry.weyl_character"], ann
    alone = SHADOWED.replace("weyl_character", "character", 1)
    assert unused_names({"m": alone + "\nTranslate().character\n"}, {}, {"sweep"}) == []
    # a string of perfbench/ that names the class and the method
    assert unused_names({"m": SHADOWED}, {"b": 'T = "m.Entry.weyl_character"'}, {"sweep"}) == []


def unused_imports() -> list[str]:
    """module.name for every top-level `from ... import` name of a module of
    src/qgl3 or tests/, other than the package's __init__, that the module
    never uses."""
    out = []
    for path in sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = _parse(path.read_text())
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
