import itertools
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qgl3 import decomp, kernels
from qgl3.charring import (
    FormalChar,
    alt_weyl_sum,
    char_sum,
    chi_l,
    euler_char,
    frobenius_twist,
    restricted_simple_char,
    restricted_simple_numerator,
    restricted_simple_weyl,
    weyl_char,
    weyl_dimension,
    weyl_sum,
)
from qgl3.decomp import chi_decomposition, factor_family, zhat_char, zhat_factors, zhat_numerator
from qgl3.homs import hat_dual_pair
from qgl3.lattice import (
    POSITIVE_ROOTS,
    RHO,
    FacetType,
    Weight,
    classify_restricted,
    decompose,
    dominance_key,
)
from qgl3.verify import run_suite, suite_decomposition

import oracles
from oracles import chi_l_expansion, chi_l_weyl, hat_simple_char, restricted_simple, wall_family


def test_worked_instance_down_alcove():
    dec = chi_decomposition(Weight(3, 3), 3)
    assert dec.case_id == "v"
    assert list(dec.factors) == [
        Weight(3, 3), Weight(4, 1), Weight(3, -3), Weight(1, 4), Weight(-3, 3),
        Weight(3, 0), Weight(0, 0), Weight(0, 3), Weight(1, 1),
    ]
    dims = [chi_l(f, 3).dimension for f in dec.factors]
    assert dims == [8, 21, 0, 21, 0, 3, 1, 3, 7]
    assert sum(dims) == 64
    assert dec.character() == weyl_char(Weight(3, 3))


def test_vertex_case():
    for l in (2, 3, 5):
        lam = l * Weight(2, 1) + Weight(l - 1, l - 1)
        dec = chi_decomposition(lam, l)
        assert dec.case_id == "i"
        assert list(dec.factors) == [lam]
        # twisted tensor factorization at the vertex
        assert weyl_char(lam) == frobenius_twist(weyl_char(Weight(2, 1)), l) * (
            restricted_simple_char(Weight(l - 1, l - 1), l)
        )


def test_up_alcove_case_count():
    dec = chi_decomposition(Weight(1, 1), 3)
    assert dec.case_id == "vi"
    assert len(dec.factors) == 9
    assert dec.factors[3] == Weight(1, 1)
    assert dec.character() == weyl_char(Weight(1, 1))
    # least up-alcove weight over (r,s) = (0,1)
    dec = chi_decomposition(Weight(1, 2), 4)
    assert dec.case_id == "vi" and len(dec.factors) == 9
    assert dec.character() == weyl_char(Weight(1, 2))


def test_factor_counts_by_case():
    for l in (2, 3, 5):
        for cls in (Weight(2, 2), Weight(3, 1)):
            for r, s in itertools.product(range(l), repeat=2):
                dec = chi_decomposition(l * cls + Weight(r, s), l)
                want = {"i": 1, "ii": 4, "iii": 4, "iv": 4, "v": 9, "vi": 9}[dec.case_id]
                assert len(dec.factors) == want


def test_main_identity_sweep_small():
    for l in (2, 3, 5):
        for a, b in itertools.product(range(2), repeat=2):
            for r, s in itertools.product(range(l), repeat=2):
                lam = l * Weight(a, b) + Weight(r, s)
                assert chi_decomposition(lam, l).character() == weyl_char(lam)


def test_filtration_factors_are_the_borel_induced_list(fresh_memo):
    """chi_decomposition lists zhat_factors, reversed on the three walls, so
    the decomposition suite may sum the memo-free list; a non-dominant
    weight is still rejected."""
    walls = set()
    for l in (2, 3, 5):
        for a, b in itertools.product(range(3), repeat=2):
            for r, s in itertools.product(range(l), repeat=2):
                lam = l * Weight(a, b) + Weight(r, s)
                dec = chi_decomposition(lam, l)
                want = zhat_factors(lam, l)
                if dec.facet in _WALLS:
                    walls.add(dec.facet)
                    want.reverse()
                assert list(dec.factors) == want, (lam, l)
    assert walls == set(_WALLS)
    with pytest.raises(ValueError, match="needs a dominant weight"):
        chi_decomposition(Weight(-1, 0), 3)


def test_decomposition_sweep_leaves_the_memo_empty(fresh_memo):
    # l = 6 sweeps the two 3 | l alcove centres, whose restricted orbits
    # have coinciding points, beside the other weights of their facets (at
    # l = 3 every alcove weight is a centre)
    report = run_suite("decomposition", [3, 5, 6], 2)
    assert report.passed and report.cases_run == 9 * (9 + 25 + 36)
    assert not decomp._decompositions


def _chi_l_sum(lam, l: int) -> FormalChar:
    """The weight-basis sum of chi_l over the family of lam, off
    decomp.family_pairs, from the memoized oracles.chi_l."""
    return char_sum(oracles.chi_l(Weight(*f), l) for f in decomp.family_pairs(lam, l)[1])


def _weyl_basis_failures(l: int, lams) -> set[str]:
    """The Weyl-basis sweep the decomposition suite used to run: the case
    names of the dominant weights lam for which the sum of chi_l_weyl over
    the family of lam, off decomp.family_pairs, is not {lam: 1}."""
    failures = set()
    for lam in lams:
        total = weyl_sum(chi_l_weyl(f, l) for f in decomp.family_pairs(lam, l)[1])
        if total != {tuple(lam): 1}:
            failures.add(f"l={l} lam={Weight(*lam)}")
    return failures


def test_corrupted_family_fails_in_both_bases(corrupt_down_alcove):
    """On a corrupted factor family the Weyl-basis sweep fails exactly where
    the weight-basis identity fails.  The decomposition suite, which proves
    each case from its residue, fails exactly on the weights whose residue r
    has D(r) != 0 (oracles.residue_defect): a superset, since a corrupted
    factor whose chi_l vanishes before and after the corruption still
    breaks D(r)."""
    for l, box, counts in ((3, 3, (12, 16)), (5, 2, (36, 54))):
        parts = [Weight(a, b) for a, b in itertools.product(range(box + 1), repeat=2)]
        residues = [Weight(*r) for r in itertools.product(range(l), repeat=2)]
        lams = [l * cls + r for cls in parts for r in residues]
        weight_failures = {f"l={l} lam={lam}" for lam in lams if _chi_l_sum(lam, l) != weyl_char(lam)}
        assert _weyl_basis_failures(l, lams) == weight_failures
        suite_failures = {name for name, _, _, ok in suite_decomposition(l, parts) if not ok}
        defects = {r for r in residues if oracles.residue_defect(r, l)}
        assert suite_failures == {
            f"l={l} lam={lam}" for lam in lams if decompose(lam, l).restricted in defects
        }
        assert suite_failures >= weight_failures
        assert (len(weight_failures), len(suite_failures)) == counts


def test_defect_identity_on_a_corrupted_family(corrupt_down_alcove):
    """The identity behind the decomposition suite's proof, on a corrupted
    down-alcove family, in the weight basis: for lam = l*c + r,
    (sum of chi_l over the family of lam - euler_char(lam)) * A(rho) *
    A(l*rho) = the sum over the Weyl group of w(e(l*c) * D(r)), at l in
    {3, 5} and c in [-2, 3]^2, every r; on some weights both sides are
    nonzero."""
    nonzero = 0
    a_rho = alt_weyl_sum(RHO)
    for l in (3, 5):
        a_lrho = alt_weyl_sum(l * RHO)
        residues = [Weight(*r) for r in itertools.product(range(l), repeat=2)]
        defects = {r: oracles.residue_defect(r, l) for r in residues}
        assert any(defects.values())
        for c in itertools.starmap(Weight, itertools.product(range(-2, 4), repeat=2)):
            for r in residues:
                lam = l * c + r
                lhs = (_chi_l_sum(lam, l) - euler_char(lam)) * a_rho * a_lrho
                assert lhs == oracles.weyl_symmetrize(oracles.shift(defects[r], l * c)), (l, lam)
                nonzero += bool(lhs)
    assert nonzero


def test_a_defect_at_one_classical_part_fails_the_shift_check(monkeypatch, fresh_memo):
    """A factor family corrupted at the one classical part c = (3, 1), where
    every residue check still holds, fails the decomposition suite exactly
    on the weights l*(3, 1) + r, each naming the factor that breaks the
    shift by l*c."""
    family = decomp.family_pairs

    def wrapped(lam, l):
        facet, factors = family(lam, l)
        if (lam[0] // l, lam[1] // l) == (3, 1):
            a, b = factors[-1]
            factors = factors[:-1] + ((a + 1, b),)
        return facet, factors

    monkeypatch.setattr(decomp, "family_pairs", wrapped)
    for l in (3, 5):
        report = run_suite("decomposition", [l], 3)
        assert report.cases_run == 16 * l * l
        residues = itertools.product(range(l), repeat=2)
        want = {f"l={l} lam={l * Weight(3, 1) + Weight(*r)}" for r in residues}
        assert {case for case, _, _ in report.failures} == want
        for _, _, observed in report.failures:
            text = r"factor \d \(\d+,\d+\) != l\*c \+ \(-?\d+,-?\d+\)"
            assert re.fullmatch(text, observed), observed


_WALLS = (FacetType.RIGHT_WALL, FacetType.LEFT_WALL, FacetType.HORIZONTAL_WALL)


@pytest.mark.parametrize("l", [2, 3, 5, 7, 11])
def test_wall_families_against_weight_arithmetic(l):
    """The wall rows over the restricted orbit give the Weight-operator
    formulas on every wall weight of [-2l, 4l]^2, dominant or not."""
    seen = set()
    for a, b in itertools.product(range(-2 * l, 4 * l + 1), repeat=2):
        lam = Weight(a, b)
        facet, factors = factor_family(lam, l)
        if facet in _WALLS:
            seen.add(facet)
            assert factors == wall_family(lam, l), (lam, l)
            assert all(type(f) is Weight for f in factors)
    assert seen == set(_WALLS)


@pytest.mark.parametrize("l", [2, 3, 4, 5, 6, 7, 9, 11])
def test_off_wall_families_against_the_written_out_ones(l):
    """The rows over the restricted orbit give the written-out alcove
    families, and lam alone on the vertex, at every weight of [-3l, 6l)^2
    off the walls, dominant or not."""
    written = {
        FacetType.DOWN_ALCOVE: oracles.down_alcove_family,
        FacetType.UP_ALCOVE: oracles.up_alcove_family,
        FacetType.VERTEX: lambda cls, res, l: (l * cls + res,),
    }
    seen = set()
    for a, b in itertools.product(range(-3 * l, 6 * l), repeat=2):
        facet, factors = decomp.family_pairs((a, b), l)
        if facet in written:
            assert factors == written[facet](*decompose(Weight(a, b), l), l), (a, b, l)
            seen.add(facet)
    assert len(seen) == (3 if l > 2 else 1)


@pytest.mark.parametrize("l", [3, 4, 5, 7, 11])
def test_dual_position_against_the_families(l):
    """hat_dual_pair sends factor i of the family of every alcove weight
    of [-2l, 4l)^2 to factor DUAL_POSITION[i] of the family of 2(l-1)rho -
    lam, in the other alcove; DUAL_POSITION is an involution."""
    sigma = decomp.DUAL_POSITION
    assert sorted(sigma) == sorted(sigma.values()) == list(range(1, 10))
    assert all(sigma[sigma[i]] == i for i in sigma)
    alcoves = {FacetType.DOWN_ALCOVE, FacetType.UP_ALCOVE}
    seen = 0
    for a, b in itertools.product(range(-2 * l, 4 * l), repeat=2):
        lam = Weight(a, b)
        facet = classify_restricted(decompose(lam, l).restricted, l)
        if facet not in alcoves:
            continue
        dual = 2 * (l - 1) * RHO - lam
        assert classify_restricted(decompose(dual, l).restricted, l) is (alcoves - {facet}).pop()
        family, dual_family = zhat_factors(lam, l), zhat_factors(dual, l)
        for i, f in enumerate(family, start=1):
            assert hat_dual_pair(f, l) == dual_family[sigma[i] - 1], (l, lam, i)
        seen += 1
    assert seen == 36 * (l - 1) * (l - 2)  # 5,040 over the five l


def test_nonzero_flags_against_chi_l_weyl():
    """A factor's flag is its chi_l term being nonzero, as the Weyl-basis
    character says, on every weight of [0, 3l)^2."""
    zeros = 0
    for l in (2, 3, 5, 7):
        for a, b in itertools.product(range(3 * l), repeat=2):
            dec = chi_decomposition(Weight(a, b), l)
            flags = dec.nonzero_flags()
            assert flags == [bool(chi_l_weyl(f, l)) for f in dec.factors], (l, a, b)
            zeros += flags.count(False)
    assert zeros


def test_net_terms_against_chi_l_weyl():
    """net_terms collects the chi_l terms of a factor list: its keys are
    dominant, its counts nonzero, and the counted keys sum, in the Weyl
    basis, to the factors' chi_l, on the family of every weight of
    [-2l, 2l)^2; off the dominant chamber the classical parts are singular
    and regular of either sign.  The Weyl-basis sweep the decomposition
    suite used to run holds too, as the Brauer-Klimyk cross-check of the
    families: the chi_l_weyl of the family of every dominant weight of the
    classical box 0..4 at l in {2, 3, 5, 7} sum to {lam: 1}."""
    for l in (2, 3, 5):
        for lam in itertools.product(range(-2 * l, 2 * l), repeat=2):
            factors = decomp.family_pairs(lam, l)[1]
            net = decomp.net_terms(factors, l)
            assert all(n and k[0] >= 0 and k[1] >= 0 for k, n in net.items()), (l, lam)
            want = weyl_sum(chi_l_weyl(f, l) for f in factors)
            got = weyl_sum({w: n * c for w, c in chi_l_weyl(k, l).items()} for k, n in net.items())
            assert got == want, (l, lam)
    for l in (2, 3, 5, 7):
        assert _weyl_basis_failures(l, itertools.product(range(5 * l), repeat=2)) == set()


def test_weyl_of_chi_l_against_chi_l_weyl_on_random_combinations():
    """weyl_of_chi_l, the peel by the decomposition identity, equals the
    sum of n * chi_l_weyl(k) on seeded random integer combinations
    {k: n} of dominant chi_l keys, n of either sign, at l in {2..7, 9}."""
    rng = random.Random(41)
    peeled = 0
    for l in (2, 3, 4, 5, 6, 7, 9):
        for _ in range(60):
            net = {}
            for _ in range(rng.randint(1, 5)):
                k = (rng.randrange(4 * l), rng.randrange(4 * l))
                net[k] = net.get(k, 0) + rng.choice((-3, -2, -1, 1, 2, 3))
            want = weyl_sum({w: n * c for w, c in chi_l_weyl(k, l).items()} for k, n in net.items())
            got = decomp.weyl_of_chi_l(net, l)
            assert got == want, (l, net)
            peeled += len(got) > len(net)
    assert peeled > 300


@pytest.mark.parametrize("edit, count", [("raise", 1), ("repeat", 2), ("drop", 0)])
def test_weyl_of_chi_l_rejects_a_family_that_is_not_unitriangular(monkeypatch, edit, count):
    """With factor 2 of the down-alcove family raised above lam or made a
    second copy of lam, or with lam's row dropped, the peel of a
    down-alcove key raises peel_dominant's ValueError naming the key at the
    first key it takes; the raised row alone would send it up forever.  A
    counter on family_pairs fails the test if the peel runs on instead."""
    rows = decomp.FAMILY_ROWS[FacetType.DOWN_ALCOVE]
    rows = {"raise": rows[:1] + ((1, 0, 1),) + rows[2:],
            "repeat": rows[:1] + ((0, 0, 0),) + rows[2:],
            "drop": rows[1:]}[edit]
    monkeypatch.setitem(decomp.FAMILY_ROWS, FacetType.DOWN_ALCOVE, rows)
    family, calls = decomp.family_pairs, []

    def counted(lam, l):
        calls.append(lam)
        assert len(calls) < 100, "the peel did not stop"
        return family(lam, l)

    monkeypatch.setattr(decomp, "family_pairs", counted)
    lam = 5 * Weight(2, 1) + Weight(1, 1)
    assert decomp.net_terms(counted(lam, 5)[1], 5).get(lam, 0) == count
    calls.clear()
    with pytest.raises(ValueError, match=r"^not expandable: the basis element of \(11,6\) is not unitriangular"):
        decomp.weyl_of_chi_l({lam: 2, Weight(0, 0): 1}, 5)
    assert calls == [lam]


def test_weyl_of_chi_l_rejects_a_non_dominant_key():
    with pytest.raises(ValueError, match=r"^not expandable: leading weight \(-1,4\) is not dominant$"):
        decomp.weyl_of_chi_l({(-1, 4): 1}, 3)


def test_boundary_cancellation():
    # On the dominant edge a pair of alcove terms cancels exactly: the third
    # against the eighth for classical part (a,0), and by duality the fifth
    # against the sixth for (0,a).
    for l in (3, 5):
        for a in (1, 2, 3):
            lam = l * Weight(a, 0)
            dec = chi_decomposition(lam, l)
            assert not chi_l(dec.factors[2], l) + chi_l(dec.factors[7], l)
            assert chi_l(dec.factors[2], l)
            lam = l * Weight(0, a)
            dec = chi_decomposition(lam, l)
            assert not chi_l(dec.factors[4], l) + chi_l(dec.factors[5], l)
            if a >= 2:
                assert chi_l(dec.factors[4], l)


def test_surviving_factors_match_expansion():
    for l in (2, 3, 5):
        for a, b in itertools.product(range(3), repeat=2):
            for r, s in itertools.product(range(l), repeat=2):
                lam = l * Weight(a, b) + Weight(r, s)
                expansion = chi_l_expansion(weyl_char(lam), l)
                assert all(c == 1 for _, c in expansion)
                assert sorted(w for w, _ in expansion) == sorted(
                    chi_decomposition(lam, l).surviving_factors()
                )


@pytest.mark.parametrize("l", [2, 3, 5, 7, 11])
@given(data=st.data())
@settings(max_examples=10, derandomize=True, deadline=None)
def test_surviving_factors_match_expansion_random(l, data):
    cls = data.draw(st.builds(Weight, st.integers(0, 6), st.integers(0, 6)))
    res = data.draw(st.builds(Weight, st.integers(0, l - 1), st.integers(0, l - 1)))
    lam = l * cls + res
    expansion = chi_l_expansion(weyl_char(lam), l)
    assert all(c == 1 and type(w) is Weight for w, c in expansion)
    assert sorted(w for w, _ in expansion) == sorted(chi_decomposition(lam, l).surviving_factors())


def test_chi_l_expansion_rejects_non_invariant():
    with pytest.raises(ValueError, match=r"leading weight \(-1,1\) is not dominant"):
        chi_l_expansion(FormalChar({Weight(1, 0): 1}), 3)


def test_zhat_factors_examples():
    for l in (2, 3, 5):
        lam = l * Weight(1, -2) + Weight(l - 1, l - 1)
        assert zhat_factors(lam, l) == [lam]
    factors = zhat_factors(Weight(1, 0), 2)
    dims = [hat_simple_char(f, 2).dimension for f in factors]
    assert dims == [3, 1, 1, 3]
    assert len(zhat_factors(Weight(3, 3), 3)) == 9
    assert len(zhat_factors(Weight(1, 1), 3)) == 9


def test_zhat_identity_sweep():
    for l in (2, 3):
        for a, b in itertools.product(range(-2, 3), repeat=2):
            for r, s in itertools.product(range(l), repeat=2):
                lam = l * Weight(a, b) + Weight(r, s)
                total = None
                for nu in zhat_factors(lam, l):
                    h = hat_simple_char(nu, l)
                    total = h if total is None else total + h
                zc = zhat_char(lam, l)
                assert total == zc
                assert zc.dimension == l**3


def test_zhat_char_shape():
    zc = zhat_char(Weight(0, 0), 2)
    assert zc.dimension == 8
    assert zc[Weight(0, 0)] == 1
    # lowest weight is lam minus (l-1) times the sum of the positive roots
    low = Weight(-2, -2)
    assert zc[low] == 1
    assert min(zc.coeffs, key=dominance_key) == low


@given(
    st.builds(Weight, st.integers(-3, 3), st.integers(-3, 3)),
    st.builds(Weight, st.integers(-2, 2), st.integers(-2, 2)),
    st.sampled_from([2, 3, 5]),
)
@settings(max_examples=40)
def test_zhat_char_shift_rule(lam, nu, l):
    assert zhat_char(lam + l * nu, l) == zhat_char(lam, l) * FormalChar({l * nu: 1})


def _zhat_char_by_convolution(lam, l):
    """Oracle for zhat_char: e(lam) times the three geometric series, one
    group-ring product per positive root."""
    out = FormalChar({Weight(*lam): 1})
    for root in POSITIVE_ROOTS:
        v = root.vector
        out = out * FormalChar({(-j * v[0], -j * v[1]): 1 for j in range(l)})
    return out


@pytest.mark.parametrize("l", [2, 3, 5, 7, 11])
def test_zhat_char_matches_convolution(l):
    for cls in (Weight(0, 0), Weight(2, 1), Weight(-1, 0), Weight(1, -3), Weight(-2, -2)):
        for res in (Weight(0, 0), Weight(l - 1, 0), Weight(1, l - 2), Weight(l - 1, l - 1)):
            lam = l * cls + res
            assert zhat_char(lam, l) == _zhat_char_by_convolution(lam, l), (l, lam)


@pytest.mark.parametrize("l", [2, 3, 5, 7, 11])
def test_hat_simple_char_is_a_shift(l):
    for cls in (Weight(0, 0), Weight(3, 1), Weight(-2, 1), Weight(0, -4)):
        for r, s in itertools.product(range(l), repeat=2):
            nu = l * cls + Weight(r, s)
            want = restricted_simple(Weight(r, s), l) * FormalChar({l * cls: 1})
            assert hat_simple_char(nu, l) == want, (l, nu)


@pytest.mark.parametrize("l", [2, 3, 4, 5, 7, 11])
def test_numerators_are_characters_times_the_weyl_denominator(l):
    a_rho = alt_weyl_sum(RHO)
    for r, s in itertools.product(range(l), repeat=2):
        res = Weight(r, s)
        num = restricted_simple_numerator(res, l)
        simple = restricted_simple_char(res, l)
        assert num == simple * a_rho, (l, res)
        # the zhat suite's dim L(r), read off the Weyl form
        dim = sum(c * weyl_dimension(k) for k, c in restricted_simple_weyl(res, l).items())
        assert dim == simple.dimension, (l, res)
        assert len(num.coeffs) == (12 if classify_restricted(res, l) is FacetType.UP_ALCOVE else 6)
    for lam in (Weight(0, 0), Weight(l - 1, 2), l * Weight(-1, 3) + Weight(1, 0)):
        num = zhat_numerator(lam, l)
        assert num == zhat_char(lam, l) * a_rho, (l, lam)
        assert len(num.coeffs) == 6


def test_zhat_characters_call_no_convolution(monkeypatch):
    # Neither zhat_char nor restricted_simple_char is memoized, so each
    # call below builds its character inside the guard.
    def refuse(a, b):
        raise AssertionError("kernels.convolve called")

    monkeypatch.setattr(kernels, "convolve", refuse)
    for l in (2, 3, 5):
        for cls in (Weight(0, 0), Weight(1, -2)):
            for r, s in itertools.product(range(l), repeat=2):
                lam = l * cls + Weight(r, s)
                assert zhat_char(lam, l).dimension == l**3
                for nu in zhat_factors(lam, l):
                    restricted_simple_char(decompose(nu, l).restricted, l)
    # the guard is live: a group-ring product does reach it
    with pytest.raises(AssertionError, match="convolve called"):
        zhat_char(Weight(0, 0), 2) * zhat_char(Weight(0, 0), 2)


def test_non_dominant_rejected():
    with pytest.raises(ValueError):
        chi_decomposition(Weight(-1, 3), 3)
