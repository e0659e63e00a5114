"""Where the engine builds a Weight.

Inside, the per-factor paths carry plain int pairs and split a weight by
divmod; a Weight is built for a value that leaves the engine.  A tuple
compares and hashes equal to a Weight but prints "(a, b)" where a Weight
prints "(a,b)", so only a type check catches an int pair that leaks out.
"""

import importlib
import inspect
import itertools
import pkgutil
import re
from fractions import Fraction
from pathlib import Path

import pytest

import qgl3
from qgl3 import lattice
from qgl3.decomp import chi_decomposition, factor_family, zhat_factors
from qgl3.ext import ext_table
from qgl3.homs import HomWitness, zhat_head_weight
from qgl3.lattice import (
    FacetType,
    PositiveRoot,
    RestrictedDecomposition,
    Weight,
    classify_restricted,
    decompose,
    dominantize,
)
from qgl3.structure import nabla_l_filtration, zhat_structure
from qgl3.translate import translate_factor_lists
from qgl3.verify import run_suite


def _leaving(lam: tuple[int, int], l: int):
    """(what, value) for every weight the engine hands out about lam,
    asked with plain int pairs."""
    a, b = lam
    cls, res = decompose(lam, l)
    yield "decompose classical", cls
    yield "decompose restricted", res
    yield "dominantize", dominantize(lam)[1]
    yield "dominantize of a non-dominant weight", dominantize((-a - 2, b))[1]
    dec = chi_decomposition(lam, l)
    yield from (("chi_decomposition factor", f) for f in dec.factors)
    yield from (("surviving factor", f) for f in dec.surviving_factors())
    yield from (("zhat_factors", f) for f in zhat_factors(lam, l))
    top = 2 * (l - 1)
    for mu in (lam, (top - a, top - b)):  # the dual weight may be non-dominant
        yield from (("factor_family", f) for f in factor_family(mu, l)[1])
    yield from (("ext_table factor", f) for f in ext_table(lam, l)[0])
    for g in (zhat_structure(lam, l), nabla_l_filtration(lam, l)):
        yield f"{g.kind} lam", g.lam
        yield from ((f"{g.kind} node", n.weight) for n in g.nodes)
    yield "zhat_head_weight", zhat_head_weight(lam, l)


def _translated(l: int, parts):
    """The weights of the classical parts, with ca > 0, that the translate
    suite translates: the alcove weights, and at l = 2 the non-vertex ones."""
    for (ca, cb), (r, s) in itertools.product(parts, itertools.product(range(l), repeat=2)):
        facet = classify_restricted((r, s), l)
        if (facet in _ALCOVES if l >= 3 else facet is not FacetType.VERTEX) and ca > 0:
            yield l * ca + r, l * cb + s


_ALCOVES = (FacetType.DOWN_ALCOVE, FacetType.UP_ALCOVE)


@pytest.mark.parametrize("l", [2, 3, 5])
def test_values_leaving_the_engine_are_weights(l):
    """Every restricted part, so every facet, under two classical parts."""
    parts = [(0, 0), (1, 2)]
    for (ca, cb), (r, s) in itertools.product(parts, itertools.product(range(l), repeat=2)):
        lam = (l * ca + r, l * cb + s)
        for what, w in _leaving(lam, l):
            assert type(w) is Weight, (l, lam, what, w)
    for lam in _translated(l, [(1, 0), (1, 2)]):
        t = translate_factor_lists(lam, l)
        values = [("wall", t.wall), ("mirror", t.mirror)]
        values += [("source factor", nu) for nu, _, _ in t.rows]
        for what, w in values:
            assert type(w) is Weight, (l, lam, what, w)


# Weight and RestrictedDecomposition constructions per case of a cold sweep
# at l = 3, box 1, with every memo empty; the ceilings are the measured
# counts (92/36, 84/36, 216/72 and 547/27).  While the filtration check
# summed chi_l and the survivor bookkeeping dominantized every singular
# classical part, graphs built 329; while the Z-hat head was a
# Weight and zhat_char was multiplied by A(rho), zhat and graphs built 90
# and 365; while the factor families, the dual weights and the off-wall rows
# were built as Weights, the four sweeps built 8.3, 8.3, 8.3 and 45.2 per
# case; before the other per-factor paths carried int pairs, decomposition,
# graphs and translate built 17, 21 and 111.
CEILINGS = {"decomposition": 2.6, "zhat": 2.4, "graphs": 3.0, "translate": 20.3}


@pytest.mark.parametrize("suite", sorted(CEILINGS))
def test_sweeps_build_weights_only_at_the_boundary(monkeypatch, fresh_memo, suite):
    monkeypatch.setattr(lattice, "_orbits", {})
    built = {Weight: 0, RestrictedDecomposition: 0}

    def counting(cls):
        new = cls.__new__

        def counted(c, *args, **kwargs):
            built[cls] += 1
            return new(c, *args, **kwargs)

        return counted

    for cls in built:
        monkeypatch.setattr(cls, "__new__", counting(cls))
    report = run_suite(suite, [3], 1)
    assert report.passed
    assert built[RestrictedDecomposition] == 0
    assert built[Weight] <= CEILINGS[suite] * report.cases_run, built[Weight] / report.cases_run


# The arguments other than l of every public function of src/qgl3 that
# takes a level l, by module and name.  None answers at l < 2: each raises
# lattice.check_level's ValueError, most before they divide by l, the rest
# through the first function they hand l to.  Three are exempt, and only
# these: frobenius_twist, where l is a scaling, check_positions, where l
# only names the message, and the verify suites, which check_sweep guards.
_LEVEL_ARGS = {
    "charring.chi_l": ((3, 3),),
    "charring.chi_l_dimension": ((3, 3),),
    "charring.chi_l_weyl": ((3, 3),),
    "charring.restricted_simple_char": ((0, 0),),
    "charring.restricted_simple_numerator": ((0, 0),),
    "charring.restricted_simple_weyl": ((0, 0),),
    "charring.simple_char_p0": ((3, 3),),
    "decomp.chi_decomposition": ((3, 3),),
    "decomp.factor_family": ((-3, 3),),
    "decomp.family_pairs": ((3, 3),),
    "decomp.nabla_terms": ((3, 3),),
    "decomp.net_terms": (((-1, 0), (3, 3)),),
    "decomp.weyl_of_chi_l": ({(3, 3): 1},),
    "decomp.zhat_char": ((0, 0),),
    "decomp.zhat_factors": ((3, 3),),
    "decomp.zhat_numerator": ((0, 0),),
    "ext.ext1_g": ((3, 3), (1, 1)),
    "ext.ext1_g1": ((0, 0), (0, 0)),
    "ext.ext1_g1b": ((3, 3), (3, 3), (3, 3)),
    "ext.ext1_g1b_general": ((3, 3), (1, 1)),
    "ext.ext_table": ((3, 3),),
    "ext.socle_fundamental_tensor": ((3, 3),),
    "homs.dual_module_weight": ((3, 3),),
    "homs.hat_dual_pair": ((3, 3),),
    "homs.hom_exists_mirror": ((3, 0), (0, 0)),
    "homs.witness_valid": ((3, 0), (0, 0), HomWitness(PositiveRoot.ALPHA1, 1)),
    "homs.zhat_head_weight": ((3, 3),),
    "lattice.check_level": (),
    "lattice.classify_restricted": ((0, 0),),
    "lattice.decompose": ((3, 3),),
    "lattice.facet_classify": ((3, 3),),
    "lattice.facet_stabilizer_walls": ((2, 2),),
    "lattice.fundamental_rep": ((2, 2),),
    "lattice.linked": ((0, 0), (5, 3)),
    "lattice.restricted_orbit": ((0, 0),),
    "structure.nabla_l_filtration": ((3, 3),),
    "structure.zhat_structure": ((3, 3),),
    "translate.local_target": ((1, 0), (0, 0)),
    "translate.off_wall_pairs": ((1, 0), (0, 0), (0, 0)),
    "translate.translate_factor_lists": ((3, 3),),
    "translate.translate_nabla_factor_count": ((3, 3),),
    "translate.translate_onto_wall": ((1, 0), (1, 0), (1, 0)),
    "translate.translated_character": ((3, 3),),
    "translate.wall_weight_below": ((3, 3),),
}


def _exempt(name: str) -> bool:
    return name in ("charring.frobenius_twist", "decomp.check_positions") or name.startswith(
        "verify.suite_")


def _level_functions() -> dict:
    """Every module-level function of src/qgl3, defined there, with no
    leading underscore and a parameter named l, by module and name."""
    found = {}
    for info in pkgutil.iter_modules(qgl3.__path__):
        module = importlib.import_module(f"qgl3.{info.name}")
        for name, f in vars(module).items():
            if (inspect.isfunction(f) and f.__module__ == module.__name__
                    and not name.startswith("_") and "l" in inspect.signature(f).parameters):
                found[f"{info.name}.{name}"] = f
    return found


@pytest.mark.parametrize("l", [1, 0, -3, 2.5, Fraction(7, 2)], ids=str)
def test_public_entry_points_reject_a_level_below_2(l):
    """Every public function that takes l, found by name, raises
    check_level's ValueError at l < 2, or at a non-integral l, on its
    _LEVEL_ARGS row, and restricted_orbit stores no row for it.  A function
    that takes l and has no row, or a row with no such function, fails the
    test."""
    found = {name: f for name, f in _level_functions().items() if not _exempt(name)}
    assert sorted(found) == sorted(_LEVEL_ARGS)
    text = f"need l >= 2, got {l}" if type(l) is int else f"need an integer l, got {l}"
    for name, f in found.items():
        with pytest.raises(ValueError, match=f"^{re.escape(text)}$"):
            f(*_LEVEL_ARGS[name], l=l)
    assert all(type(key[2]) is int and key[2] >= 2 for key in lattice._orbits)


def test_the_level_rule_is_written_once():
    """The text of the level rule occurs once under src/qgl3, in
    lattice.check_level."""
    src = Path(qgl3.__file__).parent
    assert sum(path.read_text().count("need l >= 2") for path in src.glob("*.py")) == 1
