import itertools
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qgl3 import charring, lattice
from qgl3.charring import restricted_simple_numerator
from qgl3.lattice import (
    POSITIVE_ROOTS,
    AffineWeylElement,
    FacetType,
    PositiveRoot,
    Weight,
    affine_reflect,
    apply_inverse,
    decompose,
    dominantize,
    dual_weight,
    facet_classify,
    facet_stabilizer_walls,
    fundamental_rep,
    linked,
    pairing,
    restricted_orbit,
)
from qgl3.verify import run_suite

import test_family_tables
import test_translate

coords = st.integers(-30, 30)
weights = st.builds(Weight, coords, coords)
roots = st.sampled_from(POSITIVE_ROOTS)
ls = st.sampled_from([2, 3, 5, 7])


def test_enum_members_hash_by_identity():
    """FacetType and PositiveRoot members hash by identity, as the tables
    keyed by them read them, and a pickle round trip, which a parallel
    sweep's results make, gives back the same member."""
    assert FacetType.__hash__ is PositiveRoot.__hash__ is object.__hash__
    for member in (*FacetType, *PositiveRoot):
        assert pickle.loads(pickle.dumps(member)) is member


def test_root_vectors_sum():
    assert PositiveRoot.ALPHA1.vector + PositiveRoot.ALPHA2.vector == PositiveRoot.RHO.vector


def test_pairing_examples():
    assert pairing(Weight(0, 0), PositiveRoot.ALPHA1) == 1
    assert pairing(Weight(3, 3), PositiveRoot.RHO) == 8
    for l in (2, 3, 5):
        assert pairing(Weight(l - 1, l - 1), PositiveRoot.RHO) == 2 * l


@given(weights, roots)
def test_pairing_additive_in_rho(lam, beta):
    total = pairing(lam, PositiveRoot.ALPHA1) + pairing(lam, PositiveRoot.ALPHA2)
    assert pairing(lam, PositiveRoot.RHO) == total


def test_decompose_examples():
    assert decompose(Weight(4, 1), 3) == (Weight(1, 0), Weight(1, 1))
    assert decompose(Weight(3, -3), 3) == (Weight(1, -1), Weight(0, 0))
    assert decompose(Weight(1, 1), 3) == (Weight(0, 0), Weight(1, 1))


@given(weights, ls)
def test_decompose_roundtrip(lam, l):
    cls, res = decompose(lam, l)
    assert l * cls + res == lam
    assert 0 <= res.a <= l - 1 and 0 <= res.b <= l - 1


def test_decompose_signed_box_roundtrip():
    for l in (2, 3):
        for a, b in itertools.product(range(-2 * l, 2 * l + 1), repeat=2):
            cls, res = decompose(Weight(a, b), l)
            assert l * cls + res == Weight(a, b)


def test_affine_reflect_examples():
    assert affine_reflect(Weight(3, 3), PositiveRoot.RHO, 2, 3) == Weight(1, 1)
    assert affine_reflect(Weight(-2, 1), PositiveRoot.ALPHA1, 0, 1) == Weight(0, 0)
    # fixed point on the wall
    lam = Weight(2, 0)
    assert pairing(lam, PositiveRoot.ALPHA1) == 3
    assert affine_reflect(lam, PositiveRoot.ALPHA1, 1, 3) == lam


@given(weights, roots, st.integers(-4, 4), st.integers(1, 7))
def test_affine_reflect_involution(lam, beta, m, step):
    once = affine_reflect(lam, beta, m, step)
    assert affine_reflect(once, beta, m, step) == lam


def test_dominantize_examples():
    assert dominantize(Weight(-1, 5)) == (0, Weight(-1, 5))
    assert dominantize(Weight(2, 3)) == (1, Weight(2, 3))
    assert dominantize(Weight(-2, 1)) == (-1, Weight(0, 0))


def _dominantize_by_reflections(lam):
    """Oracle: apply simple dot reflections until the weight is dominant,
    counting them; a vanishing pairing on the way means singular."""
    cur, sign = Weight(*lam), 1
    while True:
        p1 = pairing(cur, PositiveRoot.ALPHA1)
        p2 = pairing(cur, PositiveRoot.ALPHA2)
        if p1 == 0 or p2 == 0 or p1 + p2 == 0:
            return 0, Weight(*lam)
        if p1 < 0:
            cur, sign = affine_reflect(cur, PositiveRoot.ALPHA1, 0), -sign
        elif p2 < 0:
            cur, sign = affine_reflect(cur, PositiveRoot.ALPHA2, 0), -sign
        else:
            return sign, cur


def test_dominantize_closed_form_against_reflection_loop():
    for a, b in itertools.product(range(-25, 26), repeat=2):
        lam = Weight(a, b)
        assert dominantize(lam) == _dominantize_by_reflections(lam), lam


@given(weights)
def test_dominantize_sign_zero_iff_singular(lam):
    sign, rep = dominantize(lam)
    if sign == 0:
        assert rep == lam
    else:
        assert rep.is_dominant()
        # regular orbits have six distinct dot images; check both reflections move rep
        assert pairing(rep, PositiveRoot.ALPHA1) > 0
        assert pairing(rep, PositiveRoot.ALPHA2) > 0


def test_facet_classify_examples():
    assert facet_classify(Weight(3, 3), 3) is FacetType.DOWN_ALCOVE
    assert facet_classify(Weight(1, 1), 2) is FacetType.VERTEX
    # (2,1) has restricted first coordinate l-1, so it lies on a right wall;
    # the least up-alcove weight over (r,s)=(0,1) is (1,2) at l=4
    assert facet_classify(Weight(2, 1), 3) is FacetType.RIGHT_WALL
    assert facet_classify(Weight(1, 1), 3) is FacetType.UP_ALCOVE
    assert facet_classify(Weight(1, 2), 4) is FacetType.UP_ALCOVE
    with pytest.raises(ValueError):
        facet_classify(Weight(-1, 0), 3)


def test_facet_classify_total_and_disjoint():
    for l in (2, 3, 5, 7):
        for a, b in itertools.product(range(3 * l), repeat=2):
            lam = Weight(a, b)
            kind = facet_classify(lam, l)
            r, s = decompose(lam, l).restricted
            flags = [
                r == l - 1 and s == l - 1,
                r == l - 1 and s < l - 1,
                s == l - 1 and r < l - 1,
                r + s == l - 2,
                r + s <= l - 3,
                r <= l - 2 and s <= l - 2 and r + s >= l - 1,
            ]
            assert sum(flags) == 1
            order = [
                FacetType.VERTEX,
                FacetType.RIGHT_WALL,
                FacetType.LEFT_WALL,
                FacetType.HORIZONTAL_WALL,
                FacetType.DOWN_ALCOVE,
                FacetType.UP_ALCOVE,
            ]
            assert order[flags.index(True)] is kind


def test_vertex_and_down_alcove_pairing_profiles():
    for l in (2, 3, 5):
        for a, b in itertools.product(range(3 * l), repeat=2):
            lam = Weight(a, b)
            kind = facet_classify(lam, l)
            mods = [pairing(lam, beta) % l for beta in POSITIVE_ROOTS]
            if kind is FacetType.VERTEX:
                assert mods == [0, 0, 0]
            if kind is FacetType.DOWN_ALCOVE:
                assert all(1 <= m <= l - 1 for m in mods)
                assert mods[0] + mods[1] == mods[2] <= l - 1


def test_linked_examples():
    assert linked(Weight(3, 3), Weight(1, 1), 3)
    assert linked(Weight(4, 1), Weight(4, 1), 3)
    assert not linked(Weight(1, 0), Weight(0, 0), 5)


@given(weights, roots, st.integers(-3, 3), ls)
def test_linked_with_reflection(lam, beta, m, l):
    image = affine_reflect(lam, beta, m, l)
    assert linked(lam, image, l)


def _fundamental_rep_by_reflections(lam, l):
    """Oracle: reflect in the first violated wall of the closed fundamental
    alcove until none is violated.  Returns the representative and the
    reflection word, as (root, wall value) pairs in the order applied."""
    cur, moves = Weight(*lam), []
    while True:
        if pairing(cur, PositiveRoot.ALPHA1) < 0:
            move = (PositiveRoot.ALPHA1, 0)
        elif pairing(cur, PositiveRoot.ALPHA2) < 0:
            move = (PositiveRoot.ALPHA2, 0)
        elif pairing(cur, PositiveRoot.RHO) > l:
            move = (PositiveRoot.RHO, l)
        else:
            return cur, moves
        cur = affine_reflect(cur, *move)
        moves.append(move)


def _undo_reflections(moves, x):
    """Apply the inverse of a reflection word to x."""
    for root, wall in reversed(moves):
        x = affine_reflect(x, root, wall)
    return x


@pytest.mark.parametrize("l", range(2, 8))
def test_restricted_orbit_is_the_linkage_class(l):
    """The points of restricted_orbit(r) are the restricted weights mu with
    mu + l*c linked to r for some c in [0, 2]^2, which meets every class of
    the weight lattice modulo the root lattice: the whole linkage class of r
    among the restricted weights, at l = 2 and 3 too."""
    restricted = [Weight(a, b) for a in range(l) for b in range(l)]
    shifts = [l * Weight(*c) for c in itertools.product(range(3), repeat=2)]
    for r in restricted:
        _, points = restricted_orbit(r, l)
        want = {mu for mu in restricted if any(linked(mu + c, r, l) for c in shifts)}
        assert set(points) == want, r


def test_orbit_memo_holds_one_int_row_per_restricted_weight(memo_sweep):
    """After every suite at l in {2, 3, 5}, box 4, in a fresh interpreter,
    every key of the orbit memo is a triple of ints naming a restricted
    weight at one of those l: at most 4 + 9 + 25 = 38 rows."""
    keys = {tuple(k) for k in memo_sweep["int_keys"]}
    assert len(keys) == memo_sweep["orbit_rows"] <= 38
    assert keys <= {(r, s, l) for l in (2, 3, 5) for r in range(l) for s in range(l)}


def test_orbit_memo_stores_no_form(monkeypatch):
    """The affine forms of test_family_tables bypass the memo: after an int
    sweep has filled it, restricted_orbit and restricted_simple_numerator
    on the forms leave it as it was, and each facet's forms, the down- and
    up-alcove (p, q) among them, which hash alike and compare equal, still
    get their own facet."""
    monkeypatch.setattr(lattice, "_orbits", {})
    for l in (4, 5, 6, 7):
        for r, s in itertools.product(range(l), repeat=2):
            restricted_orbit((r, s), l)
    rows = dict(lattice._orbits)
    assert len(rows) == 16 + 25 + 36 + 49
    for facet, l, res in test_family_tables.FACETS:
        assert restricted_orbit(res, l)[0] is facet
        restricted_simple_numerator(res, l)
    assert lattice._orbits == rows


def test_a_wrong_orbit_row_fails_the_sweeps(monkeypatch, fresh_memo):
    """With the memo's row of (1, 1) at l = 5 replaced by its orbit with
    points 1 and 2 swapped, every suite that reads the rows reports failed
    cases.  The memos built from the wrong row are dropped and the row is
    restored."""
    facet, points = restricted_orbit((1, 1), 5)
    wrong = (facet, (points[0], points[2], points[1]) + points[3:])
    monkeypatch.setattr(lattice, "_orbits", {(1, 1, 5): wrong})
    for name in ("_bk_weights", "_chi_l_templates", "_chi_l_weyl_cache"):
        monkeypatch.setattr(charring, name, {})
    for suite in ("decomposition", "zhat", "graphs", "ext-lemmas", "translate"):
        assert run_suite(suite, [5], 1).failures, suite
    monkeypatch.undo()
    assert restricted_orbit((1, 1), 5) == (facet, points)


def test_fundamental_rep_examples():
    # a pure translation: (3,3) = (0,0) + 3*rho
    assert fundamental_rep(Weight(3, 3), 3) == (
        Weight(0, 0), AffineWeylElement((0, 1, 2), (-6, -3, 0))
    )
    assert fundamental_rep(Weight(0, 0), 3)[0] == Weight(0, 0)
    assert fundamental_rep(Weight(-1, -1), 5)[0] == Weight(-1, -1)
    rep, w = fundamental_rep(Weight(-7, 12), 4)
    assert rep == _fundamental_rep_by_reflections(Weight(-7, 12), 4)[0]
    assert apply_inverse(w, rep) == Weight(-7, 12)


def test_fundamental_rep_against_reflection_walk_box():
    for l in range(2, 14):
        for a, b in itertools.product(range(-12, 13), repeat=2):
            lam = Weight(a, b)
            rep, w = fundamental_rep(lam, l)
            assert rep == _fundamental_rep_by_reflections(lam, l)[0], (lam, l)
            assert apply_inverse(w, rep) == lam, (lam, l)


@given(st.builds(Weight, st.integers(-60, 60), st.integers(-60, 60)), st.integers(2, 13))
@settings(max_examples=400, derandomize=True, deadline=None)
def test_fundamental_rep_against_reflection_walk(lam, l):
    rep, w = fundamental_rep(lam, l)
    walk_rep, moves = _fundamental_rep_by_reflections(lam, l)
    assert rep == walk_rep
    assert apply_inverse(w, rep) == lam
    # the element and the reflection word agree up to the stabilizer of
    # lam, so they agree on every point that the stabilizer fixes
    if not facet_stabilizer_walls(rep, l):
        for y in (Weight(0, 0), Weight(l, -2), Weight(-3, 2 * l)):
            assert apply_inverse(w, y) == _undo_reflections(moves, y)


def test_orbit_near_candidates_against_reflection_word(monkeypatch):
    """On a wall the element and the walk's word differ by the stabilizer;
    the candidate sets that the window search of test_translate (the
    oracle of translate_onto_wall and local_target) reads from them must
    not.  The orbit points y range over the closed fundamental alcove,
    where translate_onto_wall takes its target representative, and the
    wall's reflections move those off the wall."""
    cases = {}
    for l in (2, 3, 4, 5, 7):
        closed_alcove = [
            Weight(a, b)
            for a, b in itertools.product(range(-1, l), repeat=2)
            if a + b + 2 <= l
        ]
        for a, b in itertools.product(range(-l, 2 * l + 1), repeat=2):
            nu = Weight(a, b)
            if facet_stabilizer_walls(fundamental_rep(nu, l)[0], l):
                for y in closed_alcove:
                    cases[(l, nu, y)] = test_translate._orbit_near(nu, y, l)
    assert sum(len(near) > 1 for _, near in cases.values()) > 1000
    monkeypatch.setattr(test_translate, "fundamental_rep", _fundamental_rep_by_reflections)
    monkeypatch.setattr(test_translate, "apply_inverse", _undo_reflections)
    for (l, nu, y), by_element in cases.items():
        assert test_translate._orbit_near(nu, y, l) == by_element, (l, nu, y)


def test_dual_weight():
    assert dual_weight(Weight(1, 0)) == Weight(0, 1)
    assert dual_weight(Weight(2, 2)) == Weight(2, 2)
    assert dual_weight(Weight(4, 1)) == Weight(1, 4)
    assert dual_weight(dual_weight(Weight(5, -3))) == Weight(5, -3)
