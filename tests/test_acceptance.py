"""Acceptance suite: the exact integer identities the engine must satisfy.

Each test prints one PASS/FAIL line.  Sweeps run over l in {2, 3, 5} with
classical parts in {0..4}^2 and all restricted parts; every comparison is
exact equality of sparse integer characters.
"""

import itertools
from contextlib import contextmanager

from qgl3.charring import (
    FormalChar,
    alt_weyl_sum,
    char_sum,
    chi_l,
    restricted_simple_char,
    weyl_char,
    weyl_char_alternating,
    weyl_dimension,
)
from qgl3.decomp import chi_decomposition, zhat_char, zhat_factors
from qgl3.lattice import RHO, FacetType, Weight, facet_classify
from qgl3.structure import ModuleGraph, nabla_l_filtration, validate_graph, zhat_structure
from qgl3.translate import translate_nabla_factor_count, translated_character

import oracles

L_VALUES = (2, 3, 5)
BOX = 4


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {number}: {description}")
        raise
    print(f"PASS criterion {number}: {description}")


def sweep():
    for l in L_VALUES:
        for a, b in itertools.product(range(BOX + 1), repeat=2):
            for r, s in itertools.product(range(l), repeat=2):
                yield l, l * Weight(a, b) + Weight(r, s)


def test_criterion_1_decomposition_identity():
    with criterion(1, "decomposition identity over the full sweep, exact"):
        for l, lam in sweep():
            factors = chi_decomposition(lam, l).factors
            assert char_sum(oracles.chi_l(f, l) for f in factors) == weyl_char(lam), (l, lam)


def test_criterion_2_zhat_identity():
    with criterion(2, "induced-from-Borel character identity, dimension l^3"):
        for l, lam in sweep():
            total = None
            for nu in zhat_factors(lam, l):
                h = oracles.hat_simple_char(nu, l)
                total = h if total is None else total + h
            zc = zhat_char(lam, l)
            assert total == zc, (l, lam)
            assert zc.dimension == l**3


def test_criterion_3_worked_instance():
    with criterion(3, "worked instance (3,3) at l=3: factors and dimensions"):
        dec = chi_decomposition(Weight(3, 3), 3)
        assert list(dec.factors) == [
            Weight(3, 3), Weight(4, 1), Weight(3, -3), Weight(1, 4), Weight(-3, 3),
            Weight(3, 0), Weight(0, 0), Weight(0, 3), Weight(1, 1),
        ]
        dims = [chi_l(f, 3).dimension for f in dec.factors]
        assert dims == [8, 21, 0, 21, 0, 3, 1, 3, 7]
        assert sum(dims) == 64 == weyl_dimension(Weight(3, 3))


def test_criterion_4_seven_term_simple_character():
    with criterion(4, "restricted simple character of (1,1) at l=3, seven terms"):
        want = FormalChar(
            {(1, 1): 1, (2, -1): 1, (1, -2): 1, (-1, -1): 1, (-2, 1): 1, (-1, 2): 1, (0, 0): 1}
        )
        assert restricted_simple_char(Weight(1, 1), 3) == want


def test_criterion_5_weyl_oracle():
    with criterion(5, "denominator identity, dimension formula, two paths agree"):
        a_rho = alt_weyl_sum(RHO)
        for a, b in itertools.product(range(9), repeat=2):
            lam = Weight(a, b)
            ch = weyl_char(lam)
            assert alt_weyl_sum(lam + RHO) == ch * a_rho
            assert ch.dimension == weyl_dimension(lam)
            assert weyl_char_alternating(lam) == ch


def test_criterion_6_translation_counts():
    with criterion(6, "generic translation counts 18 (l=5) and 8 (l=2), exact character"):
        for l, lam in (
            (5, 5 * Weight(2, 2) + Weight(1, 1)),
            (5, 5 * Weight(2, 2) + Weight(2, 2)),
            (5, 5 * Weight(3, 2) + Weight(0, 1)),
        ):
            assert translate_nabla_factor_count(lam, l) == 18
            total, mirror = translated_character(lam, l)
            assert total == weyl_char(lam) + weyl_char(mirror)
        for lam in (2 * Weight(3, 2), 2 * Weight(2, 3), 2 * Weight(4, 3) + Weight(1, 0)):
            assert translate_nabla_factor_count(lam, 2) == 8
            total, mirror = translated_character(lam, 2)
            assert total == weyl_char(lam) + weyl_char(mirror)


def test_criterion_7_graph_validation(suite_report):
    # the graphs suite validates both graphs of every weight of the sweep
    with criterion(7, "structure graphs pass all checks over the full sweep"):
        report = suite_report("graphs", L_VALUES, BOX)
        assert report.cases_run == 2 * len(list(sweep())) == 1900
        assert not report.failures, report.failures[:3]


def test_criterion_8_ext_families(suite_report):
    # the ext-lemmas suite checks the stated wall and alcove families at every
    # l, with the Steinberg, label-duality and table cases
    with criterion(8, "simple-module Ext values on the stated families, l in {2,3,5}"):
        report = suite_report("ext-lemmas", L_VALUES, BOX)
        assert report.cases_run == 1742
        assert not report.failures, report.failures[:3]


def test_criterion_9_hom_predicate(suite_report):
    # the homs suite checks every down-alcove weight of the sweep with both
    # classical coordinates >= 1: three cases each
    with criterion(9, "mirror witness onto the head weight, antisymmetric"):
        report = suite_report("homs", L_VALUES, BOX)
        lams = [
            lam for l, lam in sweep()
            if lam.a >= l and lam.b >= l and facet_classify(lam, l) is FacetType.DOWN_ALCOVE
        ]
        assert report.cases_run == 3 * len(lams) == 336
        assert not report.failures, report.failures[:3]


def test_criterion_10_negative_controls():
    with criterion(10, "corruption is detected by the validators"):
        g = zhat_structure(Weight(3, 3), 3)
        bad = ModuleGraph(
            g.lam, g.l, g.kind, g.nodes, tuple(list(g.edges[:-1]) + [("mu1", "mu9")])
        )
        rep = validate_graph(bad)
        assert not rep.ok
        assert any(name == "edges-ext-consistent" for name, _ in rep.failures())
        dec = chi_decomposition(Weight(3, 3), 3)
        mutilated = None
        for f in dec.factors[1:]:
            term = chi_l(f, 3)
            mutilated = term if mutilated is None else mutilated + term
        assert mutilated != weyl_char(Weight(3, 3))


def test_extended_order_spot_checks():
    """Identities beyond the required sweep: order seven, larger weights, and
    order eleven, one weight per facet type."""
    spots = [(7, Weight(20, 13)), (7, 7 * Weight(2, 1) + Weight(3, 2)), (7, Weight(6, 6))]
    facets = set()
    for r, s in ((10, 10), (10, 3), (3, 10), (4, 5), (2, 3), (6, 7)):
        lam = 11 * Weight(1, 1) + Weight(r, s)
        facets.add(facet_classify(lam, 11))
        spots.append((11, lam))
    assert facets == set(FacetType)
    for l, lam in spots:
        assert chi_decomposition(lam, l).character() == weyl_char(lam)
        total = None
        for nu in zhat_factors(lam, l):
            h = oracles.hat_simple_char(nu, l)
            total = h if total is None else total + h
        assert total == zhat_char(lam, l) and total.dimension == l**3
        assert validate_graph(zhat_structure(lam, l)).ok
        assert validate_graph(nabla_l_filtration(lam, l)).ok
