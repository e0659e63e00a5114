import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qgl3 import charring, kernels
from qgl3.charring import (
    FormalChar,
    alt_weyl_sum,
    char_from_weyl,
    chi_l,
    chi_l_weyl,
    decompose_into_weyl,
    divide_by_weyl_denominator,
    divide_exact,
    dual_char,
    e,
    euler_char,
    frobenius_twist,
    restricted_simple_char,
    simple_char_p0,
    simple_table,
    small_nabla_factors,
    tensor_multiplicity,
    weyl_char,
    weyl_char_alternating,
    weyl_dimension,
)
from qgl3.lattice import (
    RHO,
    PositiveRoot,
    Weight,
    affine_reflect,
    decompose,
    dominantize,
    ordinary_reflect,
    weyl_group_elements,
)

coords = st.integers(-6, 6)
weights = st.builds(Weight, coords, coords)
dominants = st.builds(Weight, st.integers(0, 7), st.integers(0, 7))


def brute_force_ssyt_char(lam: Weight) -> FormalChar:
    """Independent oracle: enumerate semistandard tableaux on (a+b, b, 0)
    cell by cell with backtracking, recording contents."""
    p, q = lam.a + lam.b, lam.b
    cells = [(0, j) for j in range(p)] + [(1, j) for j in range(q)]
    counts: dict[Weight, int] = {}
    tableau = {}

    def place(k: int):
        if k == len(cells):
            m = [0, 0, 0]
            for v in tableau.values():
                m[v - 1] += 1
            w = Weight(m[0] - m[1], m[1] - m[2])
            counts[w] = counts.get(w, 0) + 1
            return
        i, j = cells[k]
        for v in (1, 2, 3):
            if j > 0 and (i, j - 1) in tableau and v < tableau[(i, j - 1)]:
                continue
            if i > 0 and v <= tableau[(0, j)]:
                continue
            tableau[(i, j)] = v
            place(k + 1)
            del tableau[(i, j)]

    place(0)
    return FormalChar(counts)


def test_ring_identity_and_additivity():
    x = weyl_char(Weight(2, 1))
    assert e(0, 0) * x == x
    assert e(1, 0) * e(-1, 1) == e(0, 1)


def test_ring_axioms_small():
    a, b, c = e(1, 0), weyl_char(Weight(1, 1)), e(-2, 3)
    assert (a + b) * c == a * c + b * c
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)


def test_tensor_product_rule():
    # three tensor dual-three: adjoint plus trivial
    prod = weyl_char(Weight(1, 0)) * weyl_char(Weight(0, 1))
    assert prod == weyl_char(Weight(1, 1)) + weyl_char(Weight(0, 0))
    assert decompose_into_weyl(prod) == {Weight(1, 1): 1, Weight(0, 0): 1}


def test_weyl_char_examples():
    assert weyl_char(Weight(0, 0)) == e(0, 0)
    adj = weyl_char(Weight(1, 1))
    assert adj.dimension == 8
    assert adj.coeffs == {
        Weight(1, 1): 1,
        Weight(2, -1): 1,
        Weight(-1, 2): 1,
        Weight(0, 0): 2,
        Weight(1, -2): 1,
        Weight(-2, 1): 1,
        Weight(-1, -1): 1,
    }
    assert weyl_char(Weight(3, 3)).dimension == 64
    with pytest.raises(ValueError):
        weyl_char(Weight(-1, 2))


def test_weyl_char_against_brute_force_tableaux():
    for a, b in itertools.product(range(9), repeat=2):
        if a + b > 8:
            continue
        lam = Weight(a, b)
        assert weyl_char(lam) == brute_force_ssyt_char(lam)


@given(dominants)
@settings(max_examples=40)
def test_weyl_char_w_invariant_and_dimension(lam):
    ch = weyl_char(lam)
    assert ch.dimension == weyl_dimension(lam)
    for root in (PositiveRoot.ALPHA1, PositiveRoot.ALPHA2):
        assert ch.map_support(lambda w: ordinary_reflect(w, root)) == ch
    assert ch[lam] == 1


def test_alt_weyl_sum():
    a_rho = alt_weyl_sum(RHO)
    assert len(a_rho.coeffs) == 6
    assert sorted(a_rho.coeffs.values()) == [-1, -1, -1, 1, 1, 1]
    # vanishing on reflection hyperplanes
    assert not alt_weyl_sum(Weight(0, 5))
    assert not alt_weyl_sum(Weight(3, -3))  # fixed by the rho reflection
    # antisymmetry
    img = a_rho.map_support(lambda w: ordinary_reflect(w, PositiveRoot.ALPHA1))
    assert img == -a_rho


def test_denominator_identity_box():
    a_rho = alt_weyl_sum(RHO)
    for a, b in itertools.product(range(6), repeat=2):
        lam = Weight(a, b)
        assert alt_weyl_sum(lam + RHO) == weyl_char(lam) * a_rho
        assert weyl_char_alternating(lam) == weyl_char(lam)


@given(st.builds(Weight, st.integers(0, 60), st.integers(0, 60)))
@settings(max_examples=25, derandomize=True, deadline=None)
def test_alternating_quotient_against_tableaux_large(lam):
    assert weyl_char_alternating(lam) == weyl_char(lam)


def test_divide_by_weyl_denominator_error_paths():
    # e(0,0) shifted by -rho is the lone weight (-1,-1) on its alpha1-string
    with pytest.raises(ValueError, match=r"^inexact .*string \(-1,-1\) \+ N\(2,-1\) sums to 1, not 0"):
        divide_by_weyl_denominator(e(0, 0))
    num = alt_weyl_sum(Weight(3, 2) + RHO)
    assert divide_by_weyl_denominator(num) == weyl_char(Weight(3, 2))
    perturbed = dict(num.coeffs)
    perturbed[4, 3] += 1
    with pytest.raises(ValueError, match=r"^inexact division by the Weyl denominator: the string"):
        divide_by_weyl_denominator(FormalChar(perturbed))
    assert divide_by_weyl_denominator(FormalChar()) == FormalChar()


def test_induced_character_routes_are_independent(monkeypatch):
    """Neither route to the induced character calls the other, so each
    stays an oracle for the other: the quotient runs with the counting
    kernel broken, and the counting route with every division broken."""

    def crossed(*args):
        raise AssertionError("one induced-character route called the other")

    fresh = [Weight(41, 3), Weight(2, 43), Weight(44, 44)]
    monkeypatch.setattr(charring, "_weyl_cache", {})
    monkeypatch.setattr(kernels, "ssyt_weight_counts", crossed)
    quotients = [weyl_char_alternating(lam) for lam in fresh]
    monkeypatch.undo()
    monkeypatch.setattr(charring, "_weyl_cache", {})
    for name in ("divide_by_weyl_denominator", "_divide_by_binomial", "divide_exact"):
        monkeypatch.setattr(charring, name, crossed)
    assert [weyl_char(lam) for lam in fresh] == quotients


def test_divide_exact_error_paths():
    with pytest.raises(ZeroDivisionError):
        divide_exact(e(0, 0), FormalChar())
    # both quotients would be infinite series; the Newton box stops them at once
    with pytest.raises(ValueError, match=r"^inexact .*term \(-1,0\) .*Newton box \[0,-1\] x \[0,0\]"):
        divide_exact(e(0, 0), e(1, 0) + e(0, 0))
    with pytest.raises(ValueError, match=r"^inexact .*term \(0,0\) .*Newton box \[0,2\] x \[-2,-1\]"):
        divide_exact(e(0, 0) + e(3, -2), e(1, 0) + e(0, 1) + e(0, 0))
    with pytest.raises(ValueError, match=r"^inexact .*term \(0,0\) has coefficient 1/2, not an integer"):
        divide_exact(e(0, 0), e(0, 0) * 2)
    assert divide_exact(FormalChar(), e(1, 0)) == FormalChar()


def test_decompose_into_weyl_rejects_non_invariant():
    # peeling weyl(1,0) off e(1,0) leaves -e(-1,1) - e(0,-1), led by (-1,1)
    with pytest.raises(ValueError, match=r"leading weight \(-1,1\) is not dominant"):
        decompose_into_weyl(e(1, 0))


def test_euler_char():
    assert not euler_char(Weight(1, -1))
    assert euler_char(Weight(2, 3)) == weyl_char(Weight(2, 3))
    assert euler_char(Weight(-2, 1)) == -weyl_char(Weight(0, 0))


def test_frobenius_twist():
    assert frobenius_twist(e(1, 0), 3) == e(3, 0)
    assert frobenius_twist(weyl_char(Weight(0, 0)), 5) == weyl_char(Weight(0, 0))
    nat = frobenius_twist(weyl_char(Weight(1, 0)), 2)
    assert nat.coeffs == {Weight(2, 0): 1, Weight(-2, 2): 1, Weight(0, -2): 1}


@given(weights, weights, st.sampled_from([2, 3, 5]))
def test_twist_is_ring_hom(u, v, l):
    x, y = e(*u), e(*v) + e(0, 0)
    assert frobenius_twist(x * y, l) == frobenius_twist(x, l) * frobenius_twist(y, l)
    assert frobenius_twist(x, l).dimension == x.dimension


def test_restricted_simple_char_printed_seven_terms():
    want = (
        e(1, 1) + e(2, -1) + e(1, -2) + e(-1, -1) + e(-2, 1) + e(-1, 2) + e(0, 0)
    )
    assert restricted_simple_char(Weight(1, 1), 3) == want
    assert restricted_simple_char(Weight(1, 1), 3).dimension == 7


def test_restricted_simple_char_steinberg_and_trivial():
    for l in (2, 3, 5):
        st_wt = Weight(l - 1, l - 1)
        assert restricted_simple_char(st_wt, l) == weyl_char(st_wt)
        assert restricted_simple_char(st_wt, l).dimension == l**3
        assert restricted_simple_char(Weight(0, 0), l) == e(0, 0)
    with pytest.raises(ValueError):
        restricted_simple_char(Weight(3, 0), 3)


def test_restricted_simple_char_positivity_bounded_by_weyl():
    for l in (2, 3, 5):
        for r, s in itertools.product(range(l), repeat=2):
            lp = Weight(r, s)
            ch = restricted_simple_char(lp, l)
            full = weyl_char(lp)
            assert all(c > 0 for c in ch.coeffs.values())
            assert all(ch[w] <= full[w] for w in ch.coeffs)
            assert ch[lp] == 1


def test_simple_table_cache_invariants():
    table = simple_table(3)
    restricted_simple_char(Weight(2, 1), 3)
    for wt, ch in table.cache.items():
        assert all(c > 0 for c in ch.coeffs.values())
        for root in (PositiveRoot.ALPHA1, PositiveRoot.ALPHA2):
            assert ch.map_support(lambda w: ordinary_reflect(w, root)) == ch
    # a second lookup is a cache hit
    assert restricted_simple_char(Weight(2, 1), 3) is table.cache[Weight(2, 1)]


def test_small_nabla_factors():
    # (2,1) at l=3 is a right-wall weight, hence simple; the two-factor
    # up-alcove instance over (r,s)=(0,1) is (1,2) at l=4
    assert small_nabla_factors(Weight(2, 1), 3) == [Weight(2, 1)]
    assert small_nabla_factors(Weight(1, 2), 4) == [Weight(1, 2), Weight(0, 1)]
    assert small_nabla_factors(Weight(1, 1), 3) == [Weight(1, 1), Weight(0, 0)]
    for l in (2, 3, 5):
        assert small_nabla_factors(Weight(l - 1, 0), l) == [Weight(l - 1, 0)]
    assert small_nabla_factors(Weight(3, 0), 3) == [Weight(3, 0), Weight(1, 1)]
    assert small_nabla_factors(Weight(0, 3), 3) == [Weight(0, 3), Weight(1, 1)]
    with pytest.raises(ValueError, match="small induced-module ranges"):
        small_nabla_factors(Weight(6, 1), 3)


def test_small_nabla_factors_character_consistency():
    # socle char plus head char reconstructs the induced character
    for l in (3, 5):
        for r in range(l - 1):
            for s in range(l - 1 - r):
                lam = l * Weight(1, 0) + Weight(r, s)
                socle, head = small_nabla_factors(lam, l)
                assert socle == lam
                total = chi_l(lam, l) + simple_char_p0(head, l)
                assert total == weyl_char(lam)


def test_chi_l_examples():
    assert not chi_l(Weight(3, -3), 3)
    assert chi_l(Weight(1, 1), 3) == restricted_simple_char(Weight(1, 1), 3)
    assert chi_l(Weight(4, 1), 3).dimension == 21


@given(weights, st.builds(Weight, st.integers(-2, 2), st.integers(-2, 2)), st.sampled_from([2, 3, 5]))
@settings(max_examples=40)
def test_chi_l_shift_formula(mu, nu, l):
    # literal computable form of the translation shift
    cls, res = decompose(mu, l)
    lhs = chi_l(mu + l * nu, l)
    rhs = frobenius_twist(euler_char(cls + nu), l) * restricted_simple_char(res, l)
    assert lhs == rhs


def test_simple_char_p0():
    assert simple_char_p0(Weight(1, 1), 3) == restricted_simple_char(Weight(1, 1), 3)
    assert simple_char_p0(Weight(3, 3), 3) == frobenius_twist(weyl_char(Weight(1, 1)), 3)
    assert simple_char_p0(Weight(3, 3), 3).dimension == 8
    assert simple_char_p0(Weight(4, 4), 3).dimension == 56
    with pytest.raises(ValueError):
        simple_char_p0(Weight(3, 3), 3, p=5)


def test_dual_char():
    assert dual_char(weyl_char(Weight(1, 0))) == weyl_char(Weight(0, 1))
    assert dual_char(weyl_char(Weight(1, 1))) == weyl_char(Weight(1, 1))
    assert dual_char(e(2, -1)) == e(-1, 2)
    x = weyl_char(Weight(3, 1))
    assert dual_char(dual_char(x)) == x


def test_serialization_roundtrip():
    x = weyl_char(Weight(2, 1)) - 3 * e(-1, -1)
    assert FormalChar.from_triples(x.to_triples()) == x


def test_constructor_copies_and_drops_zeros():
    src = {(1, 0): 2, (0, 1): 0, (-1, -1): -1}
    x = FormalChar(src)
    assert x.coeffs == {(1, 0): 2, (-1, -1): -1}
    src[(1, 0)] = 5
    src[(2, 2)] = 1
    assert x.coeffs == {(1, 0): 2, (-1, -1): -1}
    assert not FormalChar({(0, 0): 0})
    assert FormalChar.from_triples([[1, 0, 1], [1, 0, -1]]) == FormalChar()


def test_weight_and_tuple_keys_agree():
    plain = {(2, -1): 1, (0, 0): 3, (-1, 2): -2}
    x = FormalChar(plain)
    y = FormalChar({Weight(*w): c for w, c in plain.items()})
    assert x == y and hash(x) == hash(y)
    assert repr(x) == repr(y) == "e(2,-1) + -2*e(-1,2) + 3*e(0,0)"
    assert x.to_json() == y.to_json()


def _dot(word, x):
    for root in reversed(word):
        x = affine_reflect(x, root, 0)
    return x


small_dominants = st.builds(Weight, st.integers(0, 2), st.integers(0, 2))
# w . d for a dominant d and w != 1 is regular and never dominant
regular_non_dominants = st.builds(
    _dot, st.sampled_from([w for _, w in weyl_group_elements() if w]), small_dominants
)
# weights on the dot-reflection hyperplanes of alpha1, alpha2 and rho
singulars = st.integers(-3, 3).flatmap(
    lambda t: st.sampled_from([Weight(-1, t), Weight(t, -1), Weight(t, -t - 2)])
)


@pytest.mark.parametrize("l", [2, 3, 5, 7, 11])
@given(data=st.data())
@settings(max_examples=25, derandomize=True, deadline=None)
def test_chi_l_weyl_against_weight_basis(l, data):
    cls = data.draw(st.one_of(small_dominants, regular_non_dominants, singulars))
    res = data.draw(st.builds(Weight, st.integers(0, l - 1), st.integers(0, l - 1)))
    mu = l * cls + res
    want = decompose_into_weyl(chi_l(mu, l))
    assert chi_l_weyl(mu, l) == want
    assert (dominantize(cls)[0] == 0) == (want == {})


def test_chi_l_weyl_examples():
    # classical part (-2,1) dominantizes to (0,0) with sign -1, and (1,1) is
    # up-alcove at l=3 with mirror (0,0): chi_l = -L(1,1) = -ch(1,1) + ch(0,0)
    assert chi_l_weyl(3 * Weight(-2, 1) + Weight(1, 1), 3) == {Weight(1, 1): -1, Weight(0, 0): 1}
    assert chi_l_weyl(Weight(3, -3), 3) == {}
    assert chi_l_weyl(Weight(-3, 1), 3) == {}
    for mu, dim in ((Weight(3, 3), 8), (Weight(4, 1), 21), (Weight(1, 1), 7)):
        x = chi_l_weyl(mu, 3)
        assert sum(c * weyl_dimension(k) for k, c in x.items()) == dim
        assert char_from_weyl(x) == chi_l(mu, 3)


def test_tensor_multiplicity_against_greedy_peel():
    for x in itertools.product(range(4), repeat=2):
        for y in itertools.product(range(3), repeat=2):
            x, y = Weight(*x), Weight(*y)
            peeled = decompose_into_weyl(weyl_char(x) * weyl_char(y))
            for t in itertools.product(range(8), repeat=2):
                assert tensor_multiplicity(t, x, y) == peeled.get(t, 0), (t, x, y)
                assert tensor_multiplicity(t, y, x) == peeled.get(t, 0), (t, y, x)
    with pytest.raises(ValueError):
        tensor_multiplicity(Weight(0, 0), Weight(-1, 1), Weight(1, 0))
