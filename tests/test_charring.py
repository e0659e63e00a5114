import gc
import itertools
import json
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qgl3 import charring, decomp, kernels, lattice, structure, verify
from qgl3.charring import (
    FormalChar,
    alt_weyl_sum,
    char_from_weyl,
    char_sum,
    chi_l,
    chi_l_dimension,
    chi_l_weyl,
    decompose_into_weyl,
    divide_by_weyl_denominator,
    divide_exact,
    euler_char,
    frobenius_twist,
    peel_dominant,
    restricted_simple_char,
    restricted_simple_weyl,
    simple_char_p0,
    tensor_multiplicity,
    weyl_char,
    weyl_char_alternating,
    weyl_dimension,
    weyl_sum,
)
from qgl3.decomp import chi_decomposition, zhat_char
from qgl3.lattice import (
    RHO,
    FacetType,
    PositiveRoot,
    Weight,
    affine_reflect,
    classify_restricted,
    decompose,
    dominantize,
    ordinary_orbit,
    pairing,
    restricted_orbit,
)
from qgl3.translate import translate_factor_lists, translated_character

from oracles import up_alcove_mirror

coords = st.integers(-6, 6)
weights = st.builds(Weight, coords, coords)
dominants = st.builds(Weight, st.integers(0, 7), st.integers(0, 7))


def e(a: int, b: int) -> FormalChar:
    return FormalChar({(a, b): 1})


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


def ordinary_reflect(lam: Weight, root: PositiveRoot) -> Weight:
    """Linear (non-dot) reflection in the hyperplane <x, root~> = 0."""
    c = pairing(lam, root) - pairing(Weight(0, 0), root)
    v = root.vector
    return Weight(lam[0] - c * v[0], lam[1] - c * v[1])


S1, S2 = PositiveRoot.ALPHA1, PositiveRoot.ALPHA2
# The six elements of the finite Weyl group as reduced words with signs.
WEYL_WORDS = ((1, ()), (-1, (S1,)), (-1, (S2,)), (1, (S1, S2)), (1, (S2, S1)), (-1, (S1, S2, S1)))


def apply_word(word, lam: Weight) -> Weight:
    for root in reversed(word):
        lam = ordinary_reflect(lam, root)
    return lam


def test_ordinary_orbit_against_reflection_words():
    # the box holds dominant, non-dominant and singular weights
    for lam in itertools.starmap(Weight, itertools.product(range(-6, 7), repeat=2)):
        want = [(sign, apply_word(word, lam)) for sign, word in WEYL_WORDS]
        assert ordinary_orbit(lam) == want, lam
        got = alt_weyl_sum(lam)
        assert got == sum([FormalChar({w: sign}) for sign, w in want], FormalChar()), lam
        assert all(type(k) is tuple for k in got.coeffs), lam


def reflect(x, root):
    """x with every support weight reflected linearly in root's hyperplane."""
    return FormalChar({ordinary_reflect(w, root): c for w, c in x.coeffs.items()})


@given(dominants)
@settings(max_examples=40)
def test_weyl_char_w_invariant_and_dimension(lam):
    ch = weyl_char(lam)
    assert ch.dimension == weyl_dimension(lam)
    for root in (PositiveRoot.ALPHA1, PositiveRoot.ALPHA2):
        assert reflect(ch, root) == ch
    assert ch[lam] == 1


def test_alt_weyl_sum():
    a_rho = alt_weyl_sum(RHO)
    assert len(a_rho.coeffs) == 6
    assert all(type(k) is tuple for k in a_rho.coeffs)
    assert sorted(a_rho.coeffs.values()) == [-1, -1, -1, 1, 1, 1]
    # vanishing on reflection hyperplanes
    assert not alt_weyl_sum(Weight(0, 5))
    assert not alt_weyl_sum(Weight(3, -3))  # fixed by the rho reflection
    # antisymmetry
    assert reflect(a_rho, PositiveRoot.ALPHA1) == -a_rho


def test_up_alcove_mirror_closed_form():
    """The mirror of an up-alcove weight, the second head of its simple
    character, is point 0 of its restricted orbit; the closed form is the
    reflection in the rho wall at level l."""
    for l in range(2, 12):
        for u, v in itertools.product(range(l), repeat=2):
            res = Weight(u, v)
            mirror = up_alcove_mirror(res, l)
            assert mirror == affine_reflect(res, PositiveRoot.RHO, 1, l)
            facet, points = restricted_orbit(res, l)
            if facet is FacetType.UP_ALCOVE:
                assert points[0] == mirror
                assert restricted_simple_weyl(res, l) == {res: 1, mirror: -1}


@given(st.builds(Weight, st.integers(0, 100), st.integers(0, 100)))
@settings(max_examples=25, derandomize=True, deadline=None)
def test_alternating_quotient_against_tableaux_large(lam):
    assert weyl_char_alternating(lam) == weyl_char(lam)


def test_divide_by_weyl_denominator_error_paths():
    # the strings are named in the partial quotients of num * e(-alpha1), by
    # 1 - e(-theta), then 1 - e(alpha2), then 1 - e(-alpha1); e(0,0) times
    # e(-alpha1) is the lone weight (-2,1) on its theta-string
    with pytest.raises(ValueError, match=r"^inexact .*string \(-2,1\) \+ N\(1,1\) sums to 1, not 0"):
        divide_by_weyl_denominator(e(0, 0))
    # the theta quotient is e(1,4) alone, whose -alpha2-string sums to 1
    with pytest.raises(ValueError, match=r"^inexact .*string \(1,4\) \+ N\(1,-2\) sums to 1, not 0$"):
        divide_by_weyl_denominator(FormalChar({(3, 3): 1, (2, 2): -1}))
    # the alpha2 quotient is e(1,4) alone on the alpha1-line a + 2b = 9
    with pytest.raises(ValueError, match=r"^inexact .*string \(1,4\) \+ N\(2,-1\) sums to 1, not 0$"):
        divide_by_weyl_denominator(FormalChar({(3, 3): 1, (2, 2): -1, (2, 5): -1, (1, 4): 1}))
    num = alt_weyl_sum(Weight(3, 2) + RHO)
    assert divide_by_weyl_denominator(num) == weyl_char(Weight(3, 2))
    perturbed = dict(num.coeffs)
    perturbed[4, 3] += 1
    with pytest.raises(ValueError, match=r"^inexact division by the Weyl denominator: the string"):
        divide_by_weyl_denominator(FormalChar(perturbed))
    assert divide_by_weyl_denominator(FormalChar()) == FormalChar()


class _NoZeroChar(FormalChar):
    """A FormalChar that fails when built from a dict that stores a zero."""

    __slots__ = ()

    def __init__(self, coeffs=None):
        assert all((coeffs or {}).values()), "a zero coefficient was stored"
        super().__init__(coeffs)


def test_divide_by_weyl_denominator_stores_no_zeros(monkeypatch):
    # every string's running sum ends at 0 and is not written, so the
    # quotient dict is the induced character's, with no zero for FormalChar
    # to drop
    nums = {Weight(a, b): alt_weyl_sum(Weight(a, b) + RHO) for a, b in itertools.product(range(7), repeat=2)}
    monkeypatch.setattr(charring, "FormalChar", _NoZeroChar)
    for lam, num in nums.items():
        assert divide_by_weyl_denominator(num).coeffs == weyl_char(lam).coeffs, lam


@pytest.mark.parametrize(
    "combo",
    [
        # an alpha1 running sum returns to 0 inside its string, and the
        # quotient is 0 at (1,1) and (-1,-1), inside linear pieces of their
        # theta-string
        {(1, 1): 1, (2, 2): 1, (3, 3): -1},
        {(1, 1): 1, (0, 0): -2},
        {(2, 2): 1, (3, 0): -1, (0, 3): -1},
        {(3, 3): 1, (1, 1): -3, (4, 1): -1},
        {(5, 0): 2, (0, 5): -2, (2, 2): 3, (4, 1): -1, (1, 4): 1},
        {(9, 4): 1, (4, 9): -1, (6, 6): -1, (7, 5): 1, (0, 0): 5},
        # a theta-string's running sum passes through 0 inside a linear
        # piece, the one quotient zero the division deletes after writing
        {(3, 3): 2, (4, 4): -1},
        {(5, 2): 1, (2, 5): -1},
        {(4, 5): 2, (5, 6): -1},
    ],
)
def test_divide_by_weyl_denominator_virtual_numerators(monkeypatch, combo):
    """sum c_k A(k + rho) / A(rho) = sum c_k weyl_char(k), with mixed-sign and
    cancelling c_k, and the quotient dict stores no zero."""
    num = char_sum(c * alt_weyl_sum(Weight(*k) + RHO) for k, c in combo.items())
    want = char_sum(c * weyl_char(Weight(*k)) for k, c in combo.items())
    monkeypatch.setattr(charring, "FormalChar", _NoZeroChar)
    assert divide_by_weyl_denominator(num).coeffs == want.coeffs


def test_induced_character_routes_are_independent(monkeypatch):
    """Neither route to the induced character calls the other, so each
    stays an oracle for the other: the quotient runs with the counting
    kernel broken, and the counting route with every division broken.
    Neither memoizes a character, so each call below computes its
    coefficients afresh; the two routes share key tuples, through
    kernels.key_line, not counts."""

    def crossed(*args):
        raise AssertionError("one induced-character route called the other")

    weights = [Weight(41, 3), Weight(2, 43), Weight(44, 44)]
    monkeypatch.setattr(kernels, "ssyt_weight_counts", crossed)
    quotients = [weyl_char_alternating(lam) for lam in weights]
    with pytest.raises(AssertionError, match="called the other"):
        weyl_char(weights[0])
    monkeypatch.undo()
    divisions = [name for name in vars(charring) if "divide" in name]
    assert "divide_by_weyl_denominator" in divisions
    for name in divisions:
        monkeypatch.setattr(charring, name, crossed)
    assert [weyl_char(lam) for lam in weights] == quotients
    with pytest.raises(AssertionError, match="called the other"):
        weyl_char_alternating(weights[0])


def test_induced_character_routes_share_key_tuples(monkeypatch):
    """The quotient writes its keys through the key pool of the counting
    kernel: after weyl_char_alternating(lam) on an empty pool, weyl_char(lam)
    builds no line, and every key of its character is the very tuple the
    quotient stored."""
    for lam in (Weight(41, 3), Weight(2, 43), Weight(44, 44), Weight(0, 0)):
        monkeypatch.setattr(kernels, "_key_lines", {})
        quotient = weyl_char_alternating(lam).coeffs
        lines = dict(kernels._key_lines)
        counts = weyl_char(lam).coeffs
        assert kernels._key_lines.keys() == lines.keys(), lam
        assert all(kernels._key_lines[h] is line for h, line in lines.items()), lam
        stored = {k: k for k in quotient}
        assert counts == quotient and all(stored[k] is k for k in counts), lam


def test_no_character_shares_a_memo_dict(monkeypatch):
    """FormalChar keeps the dict it is given, so no engine constructor may
    give it a dict that a memo holds.  On cold and on warm memos at l = 11,
    the coeffs of the characters that weyl_char, weyl_char_alternating,
    char_from_weyl, translated_character and zhat_char return are none of
    the dicts held by a module-level value of qgl3, such as _bk_weights and
    _chi_l_weyl_cache.  translated_character reads no chi_l memo, so the
    chi_l_weyl of the translate's modules fills them."""
    l, lam = 11, 11 * Weight(4, 3) + Weight(2, 5)
    for name in ("_bk_weights", "_chi_l_templates", "_chi_l_weyl_cache"):
        monkeypatch.setattr(charring, name, {})
    modules = [m for name, m in sorted(sys.modules.items()) if name.split(".")[0] == "qgl3"]
    for _ in range(2):
        total, mirror = translated_character(lam, l)
        for w in translate_factor_lists(lam, l).modules:
            chi_l_weyl(w, l)
        top = next(iter(charring._bk_weights))
        chars = [
            total,
            weyl_char(lam),
            weyl_char(top),
            weyl_char_alternating(mirror),
            char_from_weyl(chi_l_weyl(lam, l)),
            char_from_weyl({top: 1}),
            zhat_char(lam, l),
        ]
        seen = set()
        held = {id(d) for m in modules for value in vars(m).values() for d in _held_dicts(value, seen)}
        assert charring._bk_weights and charring._chi_l_weyl_cache
        assert [ch for ch in chars if id(ch.coeffs) in held] == []


def _holds_no_dict(obj) -> bool:
    """True for a leaf or a flat tuple of ints, such as a weight key, which
    _held_dicts passes over without a recursive call."""
    if isinstance(obj, (int, str, float, type(None))):
        return True
    return isinstance(obj, tuple) and all(type(x) is int for x in obj)


def _held_dicts(obj, seen):
    """Every dict reachable from obj through containers and the attributes
    of qgl3 objects, FormalChar.coeffs included."""
    if id(obj) in seen:
        return
    seen.add(id(obj))
    if isinstance(obj, dict):
        yield obj
        items = itertools.chain(obj.keys(), obj.values())
    elif isinstance(obj, (list, tuple, set, frozenset)):
        items = obj
    elif type(obj).__module__.startswith("qgl3") and not isinstance(obj, type):
        names = getattr(obj, "__slots__", ()) or vars(obj)
        items = (getattr(obj, name, None) for name in names)
    else:
        return
    for item in items:
        if not _holds_no_dict(item):
            yield from _held_dicts(item, seen)


def test_chi_l_dimension_against_chi_l_weyl():
    """chi_l_dimension, the closed form sign * dim nabla(c') * dim L(r),
    equals the sum of c * weyl_dimension(k) over chi_l_weyl on every weight
    (a, b) in [-3l, 3l)^2 at l = 2..7: classical parts in [-3, 3)^2,
    singular, regular non-dominant and dominant."""
    signs = set()
    for l in range(2, 8):
        for mu in itertools.product(range(-3 * l, 3 * l), repeat=2):
            want = sum(c * weyl_dimension(k) for k, c in chi_l_weyl(mu, l).items())
            assert chi_l_dimension(mu, l) == want, (l, mu)
            signs.add((want > 0) - (want < 0))
    assert signs == {-1, 0, 1}


def test_no_memo_holds_an_induced_character(monkeypatch):
    """Induced characters are not memoized.  After building a large weight's
    character both ways, its translate at l = 11 and the chi_l_weyl of the
    translate's modules, no module-level value of qgl3 holds the
    weight-basis character of the weight or of its mirror, and the
    Brauer-Klimyk memo holds exactly the dominantized classical parts
    passed to chi_l_weyl."""
    l, lam = 11, 11 * Weight(4, 3) + Weight(2, 5)
    for name in ("_bk_weights", "_chi_l_templates", "_chi_l_weyl_cache"):
        monkeypatch.setattr(charring, name, {})
    ch = weyl_char(lam)
    assert weyl_char_alternating(lam) == ch
    total, mirror = translated_character(lam, l)
    for w in translate_factor_lists(lam, l).modules:
        chi_l_weyl(w, l)
    assert total == ch + weyl_char(mirror)
    big = [ch.coeffs, weyl_char(mirror).coeffs]
    seen = set()
    modules = [m for name, m in sorted(sys.modules.items()) if name.split(".")[0] == "qgl3"]
    for module in modules:
        for name, value in vars(module).items():
            for held in _held_dicts(value, seen):
                assert all(held != x for x in big), f"{module.__name__}.{name}"
    tops = set()
    for a, b, _ in charring._chi_l_weyl_cache:
        sign, top = dominantize(decompose(Weight(a, b), l).classical)
        if sign:
            tops.add(top)
    assert tops and set(charring._bk_weights) == tops


# The engine's memos, each measured to pay for itself on the sweeps that
# read it again.  A new one has to be named here.  structure._skeletons holds
# one graph skeleton per (table, kept positions) pair, at most tables times
# survivor sets: 34 after the acceptance sweep, and no more after sweeps at
# larger l and box (test_structure.SKELETONS).
MEMOS = {
    (charring, "_bk_weights"),
    (charring, "_chi_l_templates"),
    (charring, "_chi_l_weyl_cache"),
    (decomp, "_decompositions"),
    (kernels, "_key_lines"),
    (lattice, "_orbits"),
    (structure, "_skeletons"),
}


def test_only_the_named_memos_grow(memo_sweep):
    """After the acceptance sweep of every suite in a fresh interpreter, the
    module-level containers of qgl3 that grew are exactly the named memos."""
    assert set(memo_sweep["grew"]) == {f"{module.__name__}.{name}" for module, name in MEMOS}


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


# Bases that break unitriangularity, each met at the first lead (2,1): a
# key above the lead (which would send the peel up forever), the lead at
# count 2 (which would leave it in the remainder), a key beside the lead at
# the same a + b; and a remainder led by a non-dominant weight.
_BAD_BASES = {
    "key above": ({(2, 1): 1}, lambda k: {k: 1, (k[0] + 1, k[1] + 1): 1},
                  r"^not expandable: the basis element of \(2,1\) is not unitriangular: "
                  r"\[\(\(2, 1\), 1\), \(\(3, 2\), 1\)\]$"),
    "count 2": ({(2, 1): 3}, lambda k: {k: 2},
                r"^not expandable: the basis element of \(2,1\) is not unitriangular: "
                r"\[\(\(2, 1\), 2\)\]$"),
    "key beside": ({(2, 1): 1}, lambda k: {k: 1, (k[0] - 1, k[1] + 1): 1},
                   r"^not expandable: the basis element of \(2,1\) is not unitriangular"),
    "not dominant": ({(2, 1): 1, (-1, 5): 1}, lambda k: {k: 1},
                     r"^not expandable: leading weight \(-1,5\) is not dominant$"),
}


@pytest.mark.parametrize("case", sorted(_BAD_BASES))
def test_peel_dominant_rejects_a_basis_that_is_not_unitriangular(case):
    """peel_dominant raises a ValueError naming the lead, and for a bad
    basis element its terms, instead of running on or failing elsewhere."""
    x, basis, message = _BAD_BASES[case]
    with pytest.raises(ValueError, match=message):
        peel_dominant(x, basis)


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
    """Every restricted simple character is positive and W-invariant, and
    none is memoized: a second lookup builds an equal, fresh character."""
    for l in (2, 3, 5):
        for r in itertools.product(range(l), repeat=2):
            ch = restricted_simple_char(Weight(*r), l)
            assert all(c > 0 for c in ch.coeffs.values())
            for root in (PositiveRoot.ALPHA1, PositiveRoot.ALPHA2):
                assert reflect(ch, root) == ch
            again = restricted_simple_char(Weight(*r), l)
            assert again == ch and again is not ch


@pytest.mark.parametrize("l", [2, 3, 5, 7])
def test_restricted_simple_weyl_against_alcove_geometry(l):
    """{r: 1}, with {mirror: -1} exactly when r + rho lies strictly between
    the rho walls at levels l and 2l and off the alpha walls at level l;
    the mirror is r's reflection in the rho wall at level l, a down-alcove
    weight.  Keys are plain int pairs."""
    for r in itertools.product(range(l), repeat=2):
        pairings = [pairing(Weight(*r), root) for root in PositiveRoot]
        up = all(0 < p < l for p in pairings[:2]) and l < pairings[2] < 2 * l
        want = {r: 1}
        if up:
            mirror = affine_reflect(Weight(*r), PositiveRoot.RHO, 1, l)
            assert mirror.is_dominant() and pairing(mirror, PositiveRoot.RHO) < l
            want[tuple(mirror)] = -1
        got = restricted_simple_weyl(Weight(*r), l)
        assert got == want, (l, r)
        assert all(type(k) is tuple for k in got)


@pytest.mark.parametrize("l", [2, 3, 5, 7])
def test_chi_l_weyl_of_a_restricted_weight_is_its_simple(l):
    for r in itertools.product(range(l), repeat=2):
        assert chi_l_weyl(r, l) == restricted_simple_weyl(Weight(*r), l), (l, r)


def test_suites_catch_a_simple_without_its_mirror(monkeypatch):
    """A wrong Weyl form of L(r) changes the numerators the zhat suite sums
    over the factors, while zhat_numerator does not read it, so the sum over
    the factors catches it; the decomposition identity catches it too."""
    for name in ("zhat", "decomposition"):
        assert verify.run_suite(name, [3], 1).passed, name
    monkeypatch.setattr(charring, "_chi_l_templates", {})
    monkeypatch.setattr(charring, "_chi_l_weyl_cache", {})
    monkeypatch.setattr(charring, "restricted_simple_weyl", lambda r, l: {(r[0], r[1]): 1})
    for name in ("zhat", "decomposition"):
        report = verify.run_suite(name, [3], 1)
        assert report.cases_run == 36 and report.failures, name


def small_nabla_modules(l):
    """The paper's induced modules with at most two composition factors, as
    (lam, head): head is None when the induced module of lam is simple.
    Restricted lam, where only the up-alcove weights have a second factor,
    and the strips l(1,0) + (r,s) and l(0,1) + (r,s) with r+s <= l-2; on
    the second the head is (r+s+1, l-s-2), e.g. (2,0) for lam = (0,4) at
    l = 3."""
    for r, s in itertools.product(range(l), repeat=2):
        up = r <= l - 2 and s <= l - 2 and r + s >= l - 1
        yield Weight(r, s), Weight(l - s - 2, l - r - 2) if up else None
    for r in range(l - 1):
        for s in range(l - 1 - r):
            yield l * Weight(1, 0) + Weight(r, s), Weight(l - r - 2, r + s + 1)
            yield l * Weight(0, 1) + Weight(r, s), Weight(r + s + 1, l - s - 2)


def test_small_nabla_factors():
    # the surviving twisted-tensor factors are the composition factors
    for l in (2, 3, 5, 7):
        for lam, head in small_nabla_modules(l):
            want = sorted([lam] if head is None else [lam, head])
            assert sorted(chi_decomposition(lam, l).surviving_factors()) == want, (l, lam)


def test_small_nabla_factors_character_consistency():
    # socle character plus head character is the induced character
    for l in (2, 3, 5):
        for lam, head in small_nabla_modules(l):
            if head is not None:
                total = chi_l(lam, l) + simple_char_p0(head, l)
                assert total == weyl_char(lam), (l, lam)


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


def test_serialization_roundtrip():
    x = weyl_char(Weight(2, 1)) - 3 * e(-1, -1)
    # the JSON triples hold every coefficient
    assert FormalChar({(a, b): c for a, b, c in json.loads(x.to_json())}) == x


def test_constructor_keeps_a_dict_without_zeros():
    src = {(1, 0): 2, (-1, -1): -1}
    assert FormalChar(src).coeffs is src


def test_constructor_copies_and_drops_zeros():
    # a dict that stores a zero is filtered into a new one
    src = {(1, 0): 2, (0, 1): 0, (-1, -1): -1}
    x = FormalChar(src)
    assert x.coeffs == {(1, 0): 2, (-1, -1): -1}
    src[(1, 0)] = 5
    src[(2, 2)] = 1
    assert x.coeffs == {(1, 0): 2, (-1, -1): -1}
    assert not FormalChar({(0, 0): 0})
    assert FormalChar({(1, 0): 0, (0, 1): 0}) == FormalChar()


def test_weyl_sum_counts_every_part_and_modifies_none():
    """weyl_sum starts from a copy of its largest part: a dict listed twice
    (chi_l_weyl hands back one memo dict for a repeated factor) counts
    twice, the largest part too, and the sum drops zeros, is a new dict and
    leaves every part as it was."""
    big = {(0, 0): 1, (1, 0): 2, (0, 1): -1}
    small = {(1, 0): -2, (2, 2): 3}
    minus_big = {w: -c for w, c in big.items()}
    cases = [
        ([big, small, big], {(0, 0): 2, (1, 0): 2, (0, 1): -2, (2, 2): 3}),
        ([small, small], {(1, 0): -4, (2, 2): 6}),
        ([big], big),
        ([small, big, minus_big], small),  # the largest part cancels
        ([minus_big, big], {}),
        ([], {}),
    ]
    for parts, want in cases:
        before = [dict(p) for p in parts]
        got = weyl_sum(parts)
        assert got == want and 0 not in got.values(), parts
        assert all(got is not p for p in parts)
        assert parts == before
    assert weyl_sum(p for p in (small, big, small)) == {(0, 0): 1, (1, 0): -2, (0, 1): -1, (2, 2): 6}
    assert weyl_sum(iter(())) == {}


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
    _dot, st.sampled_from([w for _, w in WEYL_WORDS if w]), small_dominants
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


def _brauer_klimyk_reference(weights, heads, l):
    """Oracle for kernels.brauer_klimyk: one lattice.dominantize per kappa
    and head."""
    acc = {}
    for (ka, kb), m in weights.items():
        for (r, s), c in heads:
            t, w = dominantize((r + l * ka, s + l * kb))
            if t:
                acc[w] = acc.get(w, 0) + t * c * m
    return {w: c for w, c in acc.items() if c}


def _chi_l_weyl_reference(mu, l):
    cls, res = decompose(mu, l)
    sign, top = dominantize(cls)
    if not sign:
        return {}
    heads = [(res, sign)]
    if classify_restricted(res, l) is FacetType.UP_ALCOVE:
        heads.append((up_alcove_mirror(res, l), -sign))
    return _brauer_klimyk_reference(weyl_char(top).coeffs, heads, l)


@pytest.mark.parametrize("l", [2, 3, 4, 5, 7])
def test_chi_l_weyl_against_dominantize_loop(l, monkeypatch):
    # classical parts in [-3, 6)^2: dominant, regular non-dominant and
    # singular, each with every restricted part (walls, vertex, up alcove)
    monkeypatch.setattr(charring, "_chi_l_templates", {})
    monkeypatch.setattr(charring, "_chi_l_weyl_cache", {})
    for mu in itertools.product(range(-3 * l, 6 * l), repeat=2):
        assert chi_l_weyl(mu, l) == _chi_l_weyl_reference(mu, l), mu


@pytest.mark.parametrize("l", [6, 9, 11, 12])
def test_chi_l_weyl_templates_in_any_order(l, monkeypatch):
    """A template is built by the first weight of its classical part and
    facet that chi_l_weyl meets, and read by the others; in a shuffled order
    every weight can come first.  Classical parts in [-2, 4]^2 and every
    restricted part, with the 3 | l alcove centres, whose orbit points
    coincide."""
    for name in ("_bk_weights", "_chi_l_templates", "_chi_l_weyl_cache"):
        monkeypatch.setattr(charring, name, {})
    monkeypatch.setattr(lattice, "_orbits", {})
    mus = list(itertools.product(range(-2 * l, 5 * l), repeat=2))
    random.Random(l).shuffle(mus)
    for mu in mus:
        assert chi_l_weyl(mu, l) == _chi_l_weyl_reference(mu, l), mu
    centres = {shape for _, _, shape, _ in charring._chi_l_templates if type(shape) is tuple}
    assert centres == ({(l // 3 - 1,) * 2, (2 * l // 3 - 1,) * 2} if l % 3 == 0 else set())


@pytest.mark.parametrize("l", [6, 9])
def test_chi_l_weyl_alcove_centre_first(l, monkeypatch):
    """From empty memos, each 3 | l alcove centre is read before the other
    weights of its facet, at a dominant and a non-dominant classical part:
    the centre builds a template keyed by itself, the other weights build
    the facet's, and each value is the weight-basis chi_l in the Weyl basis."""
    for name in ("_chi_l_templates", "_chi_l_weyl_cache"):
        monkeypatch.setattr(charring, name, {})
    for centre in ((l // 3 - 1,) * 2, (2 * l // 3 - 1,) * 2):
        facet = restricted_orbit(centre, l)[0]
        others = [r for r in itertools.product(range(l), repeat=2)
                  if r != centre and restricted_orbit(r, l)[0] is facet]
        assert others
        for ca, cb in ((1, 2), (-2, 1)):
            for ra, rb in [centre, *others]:
                mu = Weight(l * ca + ra, l * cb + rb)
                assert chi_l_weyl(mu, l) == decompose_into_weyl(chi_l(mu, l)), mu


def test_chi_l_weyl_keys_are_plain_tuples(monkeypatch):
    # a Weight is a tuple subclass, which the collector never untracks
    monkeypatch.setattr(charring, "_chi_l_weyl_cache", {})
    results = [chi_l_weyl(mu, 5) for mu in itertools.product(range(-5, 20), repeat=2)]
    keys = [k for x in results for k in x]
    assert keys and all(type(k) is tuple for k in keys)
    gc.collect()
    assert not any(gc.is_tracked(k) for k in keys)


def test_tensor_multiplicity_against_dominantize_loop():
    box = list(itertools.product(range(4), repeat=2))
    for x, y in itertools.product(box, repeat=2):
        small, big = (y, x) if weyl_dimension(x) >= weyl_dimension(y) else (x, y)
        want = _brauer_klimyk_reference(weyl_char(small).coeffs, [(big, 1)], 1)
        for t in itertools.product(range(8), repeat=2):
            assert tensor_multiplicity(t, x, y) == want.get(t, 0), (t, x, y)


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
