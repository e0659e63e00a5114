"""Where the engine builds a Weight.

Inside, the per-factor paths carry plain int pairs and split a weight by
divmod; a Weight is built for a value that leaves the engine.  A tuple
compares and hashes equal to a Weight but prints "(a, b)" where a Weight
prints "(a,b)", so only a type check catches an int pair that leaks out.
"""

import itertools

import pytest

from qgl3 import charring, lattice
from qgl3.decomp import chi_decomposition, factor_family, zhat_char, zhat_factors, zhat_numerator
from qgl3.charring import chi_l_dimension, chi_l_weyl
from qgl3.ext import ext1_g, ext1_g1, ext1_g1b_general, ext_table
from qgl3.homs import HomWitness, hom_exists_mirror, witness_valid, zhat_head_weight
from qgl3.lattice import (
    FacetType,
    PositiveRoot,
    RestrictedDecomposition,
    Weight,
    classify_restricted,
    decompose,
    dominantize,
    facet_classify,
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
    for name in ("_bk_weights", "_chi_l_templates", "_chi_l_weyl_cache"):
        monkeypatch.setattr(charring, name, {})
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


# The public paths that split by divmod, each asked at a level l.
_SPLITTERS = {
    "facet_classify": lambda l: facet_classify(Weight(3, 3), l),
    "zhat_factors": lambda l: zhat_factors(Weight(3, 3), l),
    "chi_decomposition": lambda l: chi_decomposition(Weight(3, 3), l),
    "factor_family": lambda l: factor_family((-3, 3), l),
    "chi_l_weyl": lambda l: chi_l_weyl(Weight(3, 3), l),
    "chi_l_dimension": lambda l: chi_l_dimension(Weight(3, 3), l),
    "ext1_g": lambda l: ext1_g(Weight(3, 3), Weight(1, 1), l),
    "ext1_g1b_general": lambda l: ext1_g1b_general(Weight(3, 3), Weight(1, 1), l),
}


@pytest.mark.parametrize("name", sorted(_SPLITTERS))
def test_the_level_is_checked_where_divmod_splits(name):
    """The paths that split by divmod reject l < 2 as decompose does."""
    for l in (1, 0, -2):
        with pytest.raises(ValueError, match=r"^need l >= 2"):
            _SPLITTERS[name](l)


# The public entry points that answered at l < 2 before they were guarded:
# a mirror witness at l = 1, a head weight and a zhat character of some
# dimension, or a ZeroDivisionError at l = 0.
_LEVEL_ENTRY_POINTS = {
    "hom_exists_mirror": lambda l: hom_exists_mirror(Weight(3, 0), Weight(0, 0), l),
    "witness_valid": lambda l: witness_valid(
        Weight(3, 0), Weight(0, 0), HomWitness(PositiveRoot.ALPHA1, 1), l),
    "zhat_head_weight": lambda l: zhat_head_weight(Weight(3, 3), l),
    "zhat_char": lambda l: zhat_char(Weight(0, 0), l),
    "zhat_numerator": lambda l: zhat_numerator(Weight(0, 0), l),
    "ext1_g1": lambda l: ext1_g1(Weight(0, 0), Weight(0, 0), l),
    "restricted_simple_weyl": lambda l: charring.restricted_simple_weyl(Weight(0, 0), l),
}


@pytest.mark.parametrize("l", [1, 0, -3])
def test_public_entry_points_reject_a_level_below_2(l):
    """Each public entry point raises the ValueError that ext_table and
    chi_l raise at l < 2, and restricted_orbit stores no row for it."""
    for name, call in _LEVEL_ENTRY_POINTS.items():
        with pytest.raises(ValueError, match=rf"^need l >= 2, got {l}$"):
            call(l)
    assert all(key[2] >= 2 for key in lattice._orbits)
