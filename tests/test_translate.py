import functools
import itertools
import random
import re

import pytest

from qgl3 import translate, verify
from qgl3 import charring
from qgl3.charring import FormalChar, chi_l, chi_l_weyl, simple_char_p0, weyl_char, weyl_sum
from qgl3.decomp import chi_decomposition, net_terms, weyl_of_chi_l
from qgl3.lattice import (
    POSITIVE_ROOTS,
    FacetType,
    PositiveRoot,
    Weight,
    affine_reflect,
    apply_inverse,
    decompose,
    facet_classify,
    facet_stabilizer_walls,
    fundamental_rep,
    linked,
    ordinary_orbit,
    pairing,
    restricted_orbit,
)
from qgl3.translate import (
    local_target,
    off_wall_pairs,
    translate_factor_lists,
    translate_nabla_factor_count,
    translate_onto_wall,
    translated_character,
    wall_weight_below,
)

from oracles import chi_l_expansion, off_wall_character

_ALCOVES = (FacetType.DOWN_ALCOVE, FacetType.UP_ALCOVE)


def test_onto_wall_identity_translation():
    assert translate_onto_wall(Weight(1, 0), Weight(1, 0), Weight(1, 0), 5) == Weight(1, 0)


def test_onto_wall_present_and_absent():
    # down-alcove weight onto the horizontal wall above it: survives
    assert translate_onto_wall(Weight(3, 3), Weight(0, 0), Weight(1, 0), 3) == Weight(4, 3)
    # the up-alcove mirror sees that wall from above, outside its upper
    # closure, so its translate dies
    assert translate_onto_wall(Weight(4, 4), Weight(0, 0), Weight(1, 0), 3) is None


def test_onto_wall_rejects_bad_orbit():
    singular = Weight(4, 3)  # on the rho wall at l = 3
    for nu, lam_orbit, mu_orbit, match in (
        (Weight(-2, 1), Weight(0, 0), Weight(1, 0), "dominant"),
        (singular, fundamental_rep(singular, 3)[0], Weight(1, 0), "regular"),
        (Weight(3, 3), Weight(1, 0), Weight(1, 0), "not in the orbit"),
        (Weight(3, 3), Weight(0, 0), Weight(2, 1), "closed bottom alcove"),
        (Weight(3, 3), Weight(0, 0), Weight(-2, 1), "closed bottom alcove"),
    ):
        with pytest.raises(ValueError, match=match):
            translate_onto_wall(nu, lam_orbit, mu_orbit, 3)


@pytest.mark.parametrize("l", [3, 5])
def test_onto_wall_closed_bottom_alcove_bounds(l):
    """The closed bottom alcove is 0 <= <x+rho, alpha~> for both simple
    roots and <x+rho, theta~> <= l, both bounds inclusive: a target with a
    pairing of exactly 0 (alpha1, then alpha2) or exactly l (theta) is
    taken, and one step outside each bound is rejected.  nu = (0, 0) is
    regular and its own representative, so a target on the theta wall, in
    the upper closure of nu's alcove, is its own image, and the translate
    onto a simple-root wall, in the lower closure only, is zero."""
    nu = Weight(0, 0)
    for inside, outside, image in (
        (Weight(-1, 0), Weight(-2, 0), None),  # alpha1: pairing 0, then -1
        (Weight(0, -1), Weight(0, -2), None),  # alpha2: pairing 0, then -1
        (Weight(l - 2, 0), Weight(l - 1, 0), Weight(l - 2, 0)),  # theta: l, then l + 1
    ):
        assert translate_onto_wall(nu, nu, inside, l) == image
        assert _translate_onto_wall_by_search(nu, nu, inside, l) == image
        message = rf"^{re.escape(str(outside))} is not in the closed bottom alcove"
        with pytest.raises(ValueError, match=message):
            translate_onto_wall(nu, nu, outside, l)


def test_onto_wall_character_consistency():
    # translating every surviving filtration factor onto the wall recovers
    # the filtration of the translated module
    for l, lam, wall_rep in (
        (3, Weight(3, 3), Weight(1, 0)),
        (5, 5 * Weight(2, 2) + Weight(0, 1), Weight(2, 1)),
    ):
        lam_rep, _ = fundamental_rep(lam, l)
        dec = chi_decomposition(lam, l)
        image = translate_onto_wall(lam, lam_rep, wall_rep, l)
        total = None
        for f in dec.surviving_factors():
            x = translate_onto_wall(f, lam_rep, wall_rep, l)
            if x is not None:
                term = chi_l(x, l)
                total = term if total is None else total + term
        assert total == weyl_char(image)


def test_off_wall_right_list_l3():
    lst = off_wall_pairs((0, 1), (2, 0), (0, 0), 3)
    assert list(lst) == [
        ((0, 1), (1, 1)),
        ((1, 1), (0, 0)),
        ((-1, 2), (0, 0)),
        ((0, 0), (0, 0)),
        ((0, 1), (0, 0)),
        ((0, 1), (1, 1)),
    ]
    assert [Weight(*c).is_dominant() for c, _ in lst] == [True, True, False, True, True, True]


def test_off_wall_left_list_l5():
    lst = off_wall_pairs((2, 2), (1, 4), (1, 1), 5)
    assert list(lst) == [
        ((2, 2), (3, 2)),
        ((2, 3), (1, 1)),
        ((3, 1), (1, 1)),
        ((1, 2), (1, 1)),
        ((2, 2), (1, 0)),
        ((2, 2), (3, 2)),
    ]


def test_off_wall_horizontal_three_term_list():
    # repeated outer factor around the target
    lst = off_wall_pairs((2, 2), (1, 2), (2, 2), 5)
    assert list(lst) == [
        ((2, 2), (1, 1)),
        ((2, 2), (2, 2)),
        ((2, 2), (1, 1)),
    ]


def test_off_wall_l2_lists():
    c = (3, 2)
    lst = off_wall_pairs(c, (1, 0), (0, 0), 2)
    assert list(lst) == [
        ((3, 2), (0, 1)),
        ((4, 2), (0, 0)),
        ((2, 3), (0, 0)),
        ((3, 1), (0, 0)),
        ((3, 2), (0, 1)),
    ]
    lst = off_wall_pairs(c, (0, 1), (0, 0), 2)
    assert list(lst) == [
        ((3, 2), (1, 0)),
        ((3, 3), (0, 0)),
        ((4, 1), (0, 0)),
        ((2, 2), (0, 0)),
        ((3, 2), (1, 0)),
    ]
    assert off_wall_pairs(c, (0, 1), (1, 0), 2) == (((3, 2), (0, 0)),)
    assert off_wall_pairs(c, (0, 0), (1, 0), 2) == (((3, 2), (1, 0)),)
    assert off_wall_pairs(c, (1, 0), (0, 1), 2) == (((3, 2), (0, 0)),)


def test_off_wall_unsupported_combinations():
    """One error text at every l: both weights, their facets and l."""
    for mu_res, target_res, l, text in (
        (Weight(1, 2), Weight(0, 0), 5, "(1,2) (horizontal-wall) -> (0,0) (down-alcove) for l=5"),
        (Weight(1, 0), Weight(1, 0), 2, "(1,0) (right-wall) -> (1,0) (right-wall) for l=2"),
        (Weight(0, 1), Weight(1, 1), 2, "(0,1) (left-wall) -> (1,1) (vertex) for l=2"),
    ):
        with pytest.raises(ValueError, match=re.escape(f"unsupported translation {text}")):
            off_wall_pairs((1, 1), mu_res, target_res, l)


def test_off_wall_rejects_an_unrestricted_weight_at_every_l():
    """Both weights are classified first, at l = 2 too, so an unrestricted
    one gets the classifier's error before any table is read."""
    for l in (2, 3, 5):
        with pytest.raises(ValueError, match=f"is not restricted for l={l}"):
            off_wall_pairs((1, 1), (l, 0), (0, 0), l)
        with pytest.raises(ValueError, match=f"is not restricted for l={l}"):
            off_wall_pairs((1, 1), (l - 1, 0), (0, -1), l)


def test_generic_factor_counts():
    assert translate_nabla_factor_count(5 * Weight(2, 2) + Weight(2, 2), 5) == 18
    assert translate_nabla_factor_count(5 * Weight(2, 2) + Weight(1, 1), 5) == 18
    assert translate_nabla_factor_count(2 * Weight(3, 2), 2) == 8
    with pytest.raises(ValueError, match="non-generic"):
        translate_nabla_factor_count(Weight(3, 3), 3)
    with pytest.raises(ValueError):
        translate_nabla_factor_count(5 * Weight(2, 2) + Weight(4, 0), 5)  # wall weight


def test_translated_character_identity():
    cases = [
        (5, 5 * Weight(2, 2) + Weight(2, 2)),
        (5, 5 * Weight(2, 2) + Weight(1, 1)),
        (3, Weight(3, 3)),
        (3, Weight(4, 4)),
        (2, 2 * Weight(3, 2)),
        (2, 2 * Weight(2, 4) + Weight(1, 0)),
    ]
    for l, lam in cases:
        total, mirror = translated_character(lam, l)
        assert total == weyl_char(lam) + weyl_char(mirror)
        t = translate_factor_lists(lam, l)
        assert t.mirror == mirror
        assert weyl_sum(chi_l_weyl(w, l) for w in t.modules) == {lam: 1, mirror: 1}
        # the weight-basis route through the factor lists, as an oracle
        weight_basis = None
        for _, _, entries in t.rows:
            for entry in entries:
                ch = off_wall_character(entry, l)
                weight_basis = ch if weight_basis is None else weight_basis + ch
        assert weight_basis == total


@functools.cache
def _swept(l, box):
    """[(lam, t)] for each weight whose translate the suite checks at l,
    classical box 0..box, with the suite's skips: the facets it leaves out,
    the weights with no dominant wall point below and a non-dominant
    mirror.  Built once per session, from the tables as they are."""
    swept = []
    for a, b, r, s in itertools.product(range(box + 1), range(box + 1), range(l), range(l)):
        lam = Weight(l * a + r, l * b + s)
        facet = facet_classify(lam, l)
        if facet is FacetType.VERTEX or l >= 3 and facet not in _ALCOVES:
            continue
        if (a, b) == (0, 0) and facet in (FacetType.DOWN_ALCOVE, FacetType.HORIZONTAL_WALL):
            continue
        t = translate_factor_lists(lam, l)
        if t.mirror.is_dominant():
            swept.append((lam, t))
    return swept


def _onto_wall(lam, l):
    """The image of lam onto the wall point (0, l-2) of the bottom alcove,
    and the images of its surviving factors that survive; None where the
    image of lam dies, which the suite does not check."""
    rep, _ = fundamental_rep(lam, l)
    wall = Weight(0, l - 2)
    image = translate_onto_wall(lam, rep, wall, l)
    if image is None:
        return None
    survivors = chi_decomposition(lam, l).surviving_factors()
    images = (translate_onto_wall(f, rep, wall, l) for f in survivors)
    return image, [x for x in images if x is not None]


def test_translate_identities_by_chi_l_sums():
    """The oracle of the translate suite's chi_l bookkeeping, on the
    suite's own weights at l in {2,3,5,7}, classical box 0..3: the chi_l of
    the modules of each translate sum, in the Weyl basis, to weyl(lam) +
    weyl(mirror), and at l >= 3, where the image of lam survives, the
    chi_l of the onto-wall images of its surviving factors sum to
    weyl(image)."""
    counts = {}
    for l in (2, 3, 5, 7):
        off = onto = 0
        for lam, t in _swept(l, 3):
            assert weyl_sum(chi_l_weyl(w, l) for w in t.modules) == {lam: 1, t.mirror: 1}, (l, lam)
            off += 1
            if l >= 3 and (found := _onto_wall(lam, l)) is not None:
                image, images = found
                assert weyl_sum(chi_l_weyl(x, l) for x in images) == {image: 1}, (l, lam)
                onto += 1
        counts[l] = (off, onto)
    # the suite's case counts of the two identities at box 3
    assert counts == {2: (39, 0), 3: (31, 15), 5: (186, 90), 7: (465, 225)}


def _fails(got, induced, l):
    """(the suite's chi_l bookkeeping fails, the chi_l sum in the Weyl
    basis fails) on the identity sum of chi_l over got = sum of weyl(mu)
    over induced."""
    summed = weyl_sum(chi_l_weyl(w, l) for w in got) == {mu: 1 for mu in induced}
    return verify._chi_l_keys(got, induced, l) != "ok", not summed


def _corrupt_row(rows, key, rng):
    """rows with one seeded row moved: its classical offset shifted by a
    unit step, its orbit index moved, or the row dropped."""
    rows = list(rows)
    i = rng.randrange(len(rows))
    da, db, k = rows[i]
    kind = rng.choice(("shift", "orbit", "drop"))
    if kind == "shift":
        sa, sb = rng.choice(((1, 0), (-1, 0), (0, 1), (0, -1)))
        rows[i] = (da + sa, db + sb, k)
    elif kind == "orbit":
        n = 6 if key[2] in _ALCOVES else 3
        rows[i] = (da, db, (k + rng.randrange(1, n)) % n)
    else:
        del rows[i]
    return tuple(rows)


def test_chi_l_keys_fail_exactly_where_the_chi_l_sum_fails(monkeypatch):
    """Seeded corruptions at l in {2,3,5}, box 3: a row of OFF_WALL_ROWS
    moved or dropped, on a seeded sample of the weights whose translate
    reads it, and some onto-wall images shifted by l*(1,0) or l*(0,1).
    The suite's chi_l bookkeeping fails on exactly the cases where the
    chi_l sum fails.  A shift raises the classical parts, so the shifted
    images always fail both."""
    rng = random.Random(35)
    tally = {"rows": 0, "row cases": 0, "row failures": 0, "images": 0}
    for l in (2, 3, 5):
        readers = {}  # key -> the swept weights whose translate reads its rows
        for lam, t in _swept(l, 3):
            for nu, target, _ in t.rows:
                src = restricted_orbit((nu[0] % l, nu[1] % l), l)[0]
                readers.setdefault((l == 2, src, restricted_orbit(target, l)[0]), []).append(lam)
        for _ in range(20):
            key = rng.choice(sorted(readers, key=str))
            corrupted = _corrupt_row(translate.OFF_WALL_ROWS[key], key, rng)
            monkeypatch.setitem(translate.OFF_WALL_ROWS, key, corrupted)
            lams = sorted(set(readers[key]))
            failed = 0
            for lam in rng.sample(lams, min(6, len(lams))):
                t = translate_factor_lists(lam, l)
                by_keys, by_sum = _fails(t.modules, (lam, t.mirror), l)
                assert by_keys == by_sum, (l, key, corrupted, lam)
                failed += by_sum
                tally["row cases"] += 1
            tally["rows"] += 1
            tally["row failures"] += failed > 0
            monkeypatch.undo()
        onto = [found for lam, _ in _swept(l, 3) if l >= 3 and (found := _onto_wall(lam, l))]
        for image, images in rng.sample(onto, min(10, len(onto))):
            step = l * rng.choice((Weight(1, 0), Weight(0, 1)))
            moved = rng.sample(range(len(images)), rng.randrange(1, len(images) + 1))
            shifted = [x + step if i in moved else x for i, x in enumerate(images)]
            assert _fails(shifted, (image,), l) == (True, True), (l, image, shifted)
            tally["images"] += 1
    # 56 of the 60 row corruptions fail somewhere in their sample
    assert tally == {"rows": 60, "row cases": 360, "row failures": 56, "images": 20}, tally


def test_translate_failure_names_chi_l_keys(monkeypatch):
    """With the last right-wall row dropped, the translate sweep at l = 3,
    box 2, fails where a repeated entry loses a copy, and names the chi_l
    key with its wanted and its observed count."""
    key = (False, FacetType.RIGHT_WALL, FacetType.DOWN_ALCOVE)
    monkeypatch.setitem(translate.OFF_WALL_ROWS, key, translate.OFF_WALL_ROWS[key][:-1])
    report = verify.run_suite("translate", [3], 2)
    assert (report.cases_run, len(report.failures)) == (27, 14)
    assert report.failures[0] == (
        "l=3 lam=(1,4)",
        "translate character = weyl(lam) + weyl(mirror)",
        "(1,1): want 2 got 1",
    )


def test_off_wall_lists_against_character_oracle():
    """Independent oracle: the translate of a single factor is the part of
    (factor character) * (simple character of the translation weight) lying
    in the target orbit, re-expanded in the twisted-tensor basis."""
    cases = [(5, 5 * Weight(2, 2) + Weight(1, 1)), (5, 5 * Weight(2, 2) + Weight(2, 2)),
             (3, 3 * Weight(2, 2) + Weight(0, 0)), (2, 2 * Weight(3, 2))]
    for l, lam in cases:
        t = translate_factor_lists(lam, l)
        rep_lam, _ = fundamental_rep(lam, l)
        rep_mu, _ = fundamental_rep(t.wall, l)
        nu1 = next(w for _, w in ordinary_orbit(rep_lam - rep_mu) if w.is_dominant())
        trans_char = simple_char_p0(nu1, l)
        for nu, _, entries in t.rows:
            product = chi_l(nu, l) * trans_char
            expected = sorted(
                (w, c)
                for w, c in chi_l_expansion(product, l)
                if linked(w, lam, l) and decompose(w, l).classical.is_dominant()
            )
            got = {}
            for (ca, cb), (ra, rb) in entries:
                if ca >= 0 and cb >= 0:
                    w = (l * ca + ra, l * cb + rb)
                    got[w] = got.get(w, 0) + 1
            assert sorted(got.items()) == expected, (l, lam, nu)


# The oracle of the closed forms translate_onto_wall, wall_weight_below and
# local_target: a search over facet windows.  A facet window is, per
# positive root, either the wall value (on_wall) or the open range
# ((n-1)l, nl) containing the pairing.


def facet_windows(lam, l):
    out = []
    for root in POSITIVE_ROOTS:
        p = pairing(lam, root)
        if p % l == 0:
            out.append((True, p // l))
        else:
            out.append((False, -(-p // l)))
    return tuple(out)


def in_closure(x, windows, l):
    for root, (on_wall, n) in zip(POSITIVE_ROOTS, windows):
        p = pairing(x, root)
        if on_wall:
            if p != n * l:
                return False
        elif not (n - 1) * l <= p <= n * l:
            return False
    return True


def in_upper_closure(x, windows, l):
    for root, (on_wall, n) in zip(POSITIVE_ROOTS, windows):
        p = pairing(x, root)
        if on_wall:
            if p != n * l:
                return False
        elif not (n - 1) * l < p <= n * l:
            return False
    return True


def stabilizer_orbit(x, walls, l):
    """Orbit of x under the reflections in the given walls (closed under words)."""
    for _, value in walls:
        if value % l != 0:
            raise ValueError("stabilizer wall value must be a multiple of l")
    seen = {Weight(*x)}
    frontier = [Weight(*x)]
    while frontier:
        cur = frontier.pop()
        for root, value in walls:
            img = affine_reflect(cur, root, value, 1)
            if img not in seen:
                seen.add(img)
                frontier.append(img)
    return seen


def _orbit_near(nu, y, l):
    """The fundamental representative of nu, and the points of the orbit of
    y next to nu: for w with w . nu = representative and y in the closure of
    the representative's facet, w^-1 applied to y's orbit under the
    representative's stabilizer.  The set does not depend on the choice of
    w, which is unique only up to the stabilizer of nu."""
    rep, w = fundamental_rep(nu, l)
    walls = facet_stabilizer_walls(rep, l)
    return rep, {apply_inverse(w, x) for x in stabilizer_orbit(y, walls, l)}


def _translate_onto_wall_by_search(nu, lam_orbit, mu_orbit, l):
    """The translate of the factor nu from the orbit of lam_orbit to the
    orbit of mu_orbit: the one point of the orbit next to nu that lies in
    the upper closure of nu's facet, or None.  Unlike the closed form it
    also takes a singular nu."""
    nu = Weight(*nu)
    if not nu.is_dominant():
        raise ValueError(f"needs a dominant weight, got {nu}")
    rep, candidates = _orbit_near(nu, mu_orbit, l)
    if rep != lam_orbit:
        raise ValueError(f"{nu} is not in the orbit of {lam_orbit} (l={l})")
    if not in_closure(mu_orbit, facet_windows(lam_orbit, l), l):
        raise ValueError(f"{mu_orbit} is not in the closure of the facet of {lam_orbit}")
    nu_windows = facet_windows(nu, l)
    survivors = sorted(x for x in candidates if in_upper_closure(x, nu_windows, l))
    if len(survivors) > 1:
        raise RuntimeError(f"ambiguous wall translation for {nu}: {survivors}")
    return survivors[0] if survivors else None


def _alcove_windows(x, wall, side, l):
    """Windows of the alcove adjacent to the single-wall weight x, on the
    given side ('above' or 'below') of its wall."""
    root0, value = wall
    out = []
    for root in POSITIVE_ROOTS:
        p = pairing(x, root)
        if root is root0:
            n = value // l + (1 if side == "above" else 0)
        else:
            if p % l == 0:
                raise ValueError(f"{x} lies on more than one wall")
            n = -(-p // l)
        out.append((False, n))
    return tuple(out)


def _single_wall(x, l):
    walls = facet_stabilizer_walls(x, l)
    return walls[0] if len(walls) == 1 else None


def _in_lower_closure(nu, windows, l):
    return in_closure(nu, windows, l) and not in_upper_closure(nu, windows, l)


def _admissible_target(nu, nu_wall, x, l):
    """Does (source nu on the wall nu_wall, target x) form a supported
    configuration: x inside an alcove with nu in its lower closure, or
    (walls only) x on a wall of an alcove having nu in its lower closure.
    nu_wall is _single_wall(nu, l), None when nu is not on exactly one wall."""
    if nu_wall is None:
        return False
    x_walls = facet_stabilizer_walls(x, l)
    if not x_walls:
        return _in_lower_closure(nu, facet_windows(x, l), l)
    if len(x_walls) > 1:
        return False
    x_wall = x_walls[0]
    if _in_lower_closure(nu, _alcove_windows(x, x_wall, "below", l), l):
        return True
    above = _alcove_windows(x, x_wall, "above", l)
    return x_wall[0] is not nu_wall[0] and _in_lower_closure(nu, above, l)


def _local_target_by_search(nu, lam_rep, l):
    _, candidates = _orbit_near(nu, lam_rep, l)
    nu_wall = _single_wall(nu, l)
    good = sorted(x for x in candidates if _admissible_target(nu, nu_wall, x, l))
    if len(good) != 1:
        raise ValueError(f"no unique admissible target for {nu}: {good}")
    return good[0]


def _wall_point(root, value, windows, l):
    """A dominant weight with pairing value `value` against `root`, inside
    the closed windows, and on no other wall."""
    if value < 1:
        return None
    ranges = {
        r: ((n - 1) * l, n * l) for r, (_, n) in zip(POSITIVE_ROOTS, windows)
    }
    if root is PositiveRoot.RHO:
        lo, hi = ranges[PositiveRoot.ALPHA1]
        lo2, hi2 = ranges[PositiveRoot.ALPHA2]
        for p1 in range(max(lo, 1), hi + 1):
            p2 = value - p1
            if p1 % l and p2 % l and lo2 <= p2 <= hi2 and p2 >= 1:
                return Weight(p1 - 1, p2 - 1)
        return None
    other = PositiveRoot.ALPHA2 if root is PositiveRoot.ALPHA1 else PositiveRoot.ALPHA1
    lo2, hi2 = ranges[other]
    lor, hir = ranges[PositiveRoot.RHO]
    for p2 in range(max(lo2, 1), hi2 + 1):
        pr = value + p2
        if p2 % l and pr % l and lor <= pr <= hir:
            if root is PositiveRoot.ALPHA1:
                return Weight(value - 1, p2 - 1)
            return Weight(p2 - 1, value - 1)
    return None


def _wall_weight_below_by_search(lam, l):
    facet = facet_classify(lam, l)
    cls, _ = decompose(lam, l)
    if facet is FacetType.DOWN_ALCOVE:
        walls = [(PositiveRoot.ALPHA1, l * cls.a), (PositiveRoot.ALPHA2, l * cls.b)]
        windows = facet_windows(lam, l)
    elif facet is FacetType.UP_ALCOVE:
        walls = [(PositiveRoot.RHO, l * (cls.a + cls.b + 1))]
        windows = facet_windows(lam, l)
    elif facet is FacetType.VERTEX:
        raise ValueError(f"{lam} is a vertex weight; no wall below")
    else:
        wall0 = _single_wall(lam, l)
        windows = _alcove_windows(lam, wall0, "below", l)
        walls = [
            (root, (n - 1) * l)
            for root, (_, n) in zip(POSITIVE_ROOTS, windows)
            if root is not wall0[0]
        ]
    for root, value in walls:
        mu = _wall_point(root, value, windows, l)
        if mu is not None:
            return mu, (root, value)
    raise ValueError(f"no dominant wall point below {lam} (l={l})")


def _outcome(f, *args):
    try:
        return f(*args)
    except ValueError as exc:
        return type(exc)


def test_closed_forms_against_window_search():
    """wall_weight_below and local_target against the window search, on
    every weight with classical part in [0,3]^2 for l in 2..11: the same
    wall weight and wall, or a ValueError on the same inputs, and the same
    local target for every surviving factor of the wall weight."""
    pinned = {
        (5, 5 * Weight(2, 2) + Weight(1, 1)): (Weight(9, 10), (PositiveRoot.ALPHA1, 10)),
        (3, Weight(3, 3)): (Weight(2, 3), (PositiveRoot.ALPHA1, 3)),
        (2, Weight(6, 4)): (Weight(5, 4), (PositiveRoot.ALPHA1, 6)),
    }
    raised = 0
    targets = set()  # (l, factor, representative) triples, each checked once
    for l in range(2, 12):
        for a, b, r, s in itertools.product(range(4), range(4), range(l), range(l)):
            lam = l * Weight(a, b) + Weight(r, s)
            got = _outcome(wall_weight_below, lam, l)
            assert got == _outcome(_wall_weight_below_by_search, lam, l), (l, lam)
            assert got == pinned.get((l, lam), got)
            if got is ValueError:
                raised += 1
                continue
            mu, (root, value) = got
            assert mu.is_dominant()
            assert [b for b in POSITIVE_ROOTS if pairing(mu, b) % l == 0] == [root]
            assert pairing(mu, root) == value
            lam_rep, _ = fundamental_rep(lam, l)
            for nu in chi_decomposition(mu, l).surviving_factors():
                targets.add((l, nu, lam_rep))
    for l, nu, lam_rep in sorted(targets):
        want = _outcome(_local_target_by_search, nu, lam_rep, l)
        assert _outcome(local_target, nu, lam_rep, l) == want, (l, nu, lam_rep)
    # 160 vertices, and 220 class-(0,0) weights on or below the horizontal wall
    assert raised == 380 and len(targets) > 10000
    for lam in (Weight(-1, 0), Weight(3, -2)):
        with pytest.raises(ValueError):
            wall_weight_below(lam, 5)
    # a factor off the walls, and one on all three, has no target
    for nu in (Weight(0, 0), Weight(2, 2)):
        assert _outcome(_local_target_by_search, nu, Weight(0, 0), 3) is ValueError
        with pytest.raises(ValueError, match="not on exactly one wall"):
            local_target(nu, Weight(0, 0), 3)


def test_onto_vertex_from_wall_orbit():
    # translating the filtration of a wall weight onto a vertex orbit in its
    # wall's closure leaves exactly one factor, and exercises the stabilizer
    # candidates of the singular source representative; the closed form
    # takes regular sources only, so this checks the search
    cases = (
        (3, Weight(4, 3), Weight(2, -1)),
        (3, Weight(4, 3), Weight(-1, 2)),
        (5, 5 * Weight(2, 2) + Weight(1, 3), Weight(4, -1)),
        (2, Weight(5, 4), Weight(1, -1)),
    )
    for l, mu, vertex_rep in cases:
        rep, _ = fundamental_rep(mu, l)
        images = []
        acc = None
        for f in chi_decomposition(mu, l).surviving_factors():
            x = _translate_onto_wall_by_search(f, rep, vertex_rep, l)
            if x is not None:
                images.append(x)
                term = chi_l(x, l)
                acc = term if acc is None else acc + term
        assert len(images) == 1
        assert facet_classify(images[0], l).value == "vertex"
        assert acc == weyl_char(images[0])


def test_onto_wall_closed_form_against_window_search():
    """The closed form equals the search on every regular surviving factor
    of the weights with classical part in [0,2]^2, onto every wall point of
    the closed bottom alcove."""
    pairs = survived = 0
    for l in (3, 4, 5, 7):
        walls = [  # pairings (p1, p2, p1 + p2) with one of them 0 or l
            Weight(p1 - 1, p2 - 1)
            for p1 in range(l + 1)
            for p2 in range(l + 1 - p1)
            if p1 == 0 or p2 == 0 or p1 + p2 == l
        ]
        factors = set()
        for a, b, r, s in itertools.product(range(3), range(3), range(l), range(l)):
            lam = l * Weight(a, b) + Weight(r, s)
            if not facet_stabilizer_walls(lam, l):
                factors.update(chi_decomposition(lam, l).surviving_factors())
        for nu in sorted(factors):
            rep, _ = fundamental_rep(nu, l)
            for y in walls:
                got = translate_onto_wall(nu, rep, y, l)
                assert got == _translate_onto_wall_by_search(nu, rep, y, l), (l, nu, y)
                pairs += 1
                survived += got is not None
    assert (pairs, survived) == (9900, 4100)


def test_onto_wall_translates_nabla_for_every_regular_weight():
    """Translation onto a wall takes nabla(lam) to nabla(x), for x the orbit
    point in the closure of lam's alcove (Jantzen II.7.11), and chi(x) = 0
    when x is not dominant.  So for every regular lam the onto-wall images
    of the surviving factors sum to chi(x), also where the image of lam
    itself dies, which the translate sweep does not check."""
    cases = died = 0
    for l in (3, 5, 7):
        # a point on each wall of the bottom alcove, and its vertex -rho
        walls = (Weight(0, l - 2), Weight(-1, 1), Weight(1, -1), Weight(-1, -1))
        for a, b, r, s in itertools.product(range(3), range(3), range(l), range(l)):
            lam = l * Weight(a, b) + Weight(r, s)
            if facet_stabilizer_walls(lam, l):
                continue
            rep, w = fundamental_rep(lam, l)
            factors = chi_decomposition(lam, l).surviving_factors()
            for y in walls:
                x = apply_inverse(w, y)
                images = (translate_onto_wall(f, rep, y, l) for f in factors)
                got = weyl_sum(chi_l_weyl(z, l) for z in images if z is not None)
                assert got == ({x: 1} if x.is_dominant() else {}), (l, lam, y)
                cases += 1
                died += translate_onto_wall(lam, rep, y, l) is None
    assert (cases, died) == (1584, 924)


def test_translate_sweep_builds_each_factor_list_once(monkeypatch):
    """The character identity and the generic count of a weight share one
    translate_factor_lists call."""
    calls = []
    build = translate.translate_factor_lists

    def counted(lam, l):
        calls.append((lam, l))
        return build(lam, l)

    for module in (translate, verify):
        monkeypatch.setattr(module, "translate_factor_lists", counted)
    for l in (3, 5):
        calls.clear()
        parts = [Weight(a, b) for a, b in itertools.product(range(3), repeat=2)]
        cases = list(verify.suite_translate(l, parts))
        assert cases and all(ok for *_, ok in cases)
        # once per weight, and every checked weight had its call; the sweep
        # hands over int pairs and names the case as str(Weight) prints it
        assert len(calls) == len(set(calls))
        assert {case for case, *_ in cases} <= {f"l={l} lam={Weight(*lam)}" for lam, _ in calls}


def test_translate_sweep_records_a_failed_translation(monkeypatch):
    """A ValueError from off_wall_pairs, the one reader of the off-wall
    tables, is a failed case of the sweep that carries its message, and
    translated_character raises it; the sweep skips only the weights with
    no dominant wall point below."""
    off_wall = translate.off_wall_pairs
    calls = []

    def failing_once(mu_cls, mu_res, target_res, l):
        calls.append(mu_cls)
        if len(calls) == 1:
            raise ValueError("unsupported translation (injected)")
        return off_wall(mu_cls, mu_res, target_res, l)

    monkeypatch.setattr(translate, "off_wall_pairs", failing_once)
    report = verify.run_suite("translate", [3], 2)
    assert not report.passed
    assert report.failures == [
        (
            "l=3 lam=(1,1)",
            "translate character = weyl(lam) + weyl(mirror)",
            "unsupported translation (injected)",
        )
    ]
    calls.clear()
    with pytest.raises(ValueError, match=r"^unsupported translation \(injected\)$"):
        translated_character(Weight(1, 1), 3)


def _generic_by_definition(t):
    """Every factor of the wall weight, surviving or not, has a dominant
    classical part, and no translated entry vanishes."""
    factors = chi_decomposition(t.wall, t.l).factors
    return all(decompose(nu, t.l).classical.is_dominant() for nu in factors) and not any(
        not Weight(*c).is_dominant() for _, _, entries in t.rows for c, _ in entries
    )


def test_generic_flag_against_the_definition(monkeypatch):
    """WallTranslate.generic equals the definition on every weight the
    translate sweep reaches at l in {2,3,5,7}, box 3, and the sweep checks
    the factor count of exactly the generic translates with a dominant
    mirror."""
    seen = []
    build = translate.translate_factor_lists

    def recorded(lam, l):
        seen.append((lam, build(lam, l)))
        return seen[-1][1]

    monkeypatch.setattr(verify, "translate_factor_lists", recorded)
    parts = [Weight(a, b) for a, b in itertools.product(range(4), repeat=2)]
    tally = {}
    for l in (2, 3, 5, 7):
        seen.clear()
        cases = list(verify.suite_translate(l, parts))
        assert all(ok for *_, ok in cases)
        for lam, t in seen:
            assert t.generic == _generic_by_definition(t), (l, lam)
        counted = {case for case, identity, *_ in cases if identity.startswith("generic")}
        assert counted == {
            f"l={l} lam={Weight(*lam)}" for lam, t in seen if t.generic and t.mirror.is_dominant()
        }
        tally[l] = (len(seen), len(counted))
    # at l = 5, 138 of the 186 weights are not generic
    assert tally == {2: (47, 18), 3: (31, 8), 5: (186, 48), 7: (465, 120)}


def test_weyl_of_chi_l_against_the_chi_l_sums_on_translates():
    """The Weyl-basis form translated_character reads off chi_l keys,
    decomp.weyl_of_chi_l of the net_terms of the modules, equals the sum of
    chi_l_weyl over the modules on every translate module list at l in
    {2,3,5,7}, classical box 0..4, those with a non-dominant mirror
    included."""
    tally = {}
    for l in (2, 3, 5, 7):
        lists = nondominant = 0
        for lam in itertools.product(range(5 * l), repeat=2):
            try:
                t = translate_factor_lists(Weight(*lam), l)
            except ValueError:
                continue
            want = weyl_sum(chi_l_weyl(w, l) for w in t.modules)
            assert weyl_of_chi_l(net_terms(t.modules, l), l) == want, (l, lam)
            lists += 1
            nondominant += not t.mirror.is_dominant()
        tally[l] = (lists, nondominant)
    assert tally == {2: (74, 10), 3: (49, 0), 5: (294, 0), 7: (735, 0)}


def _translates(lam, l):
    """translated_character(lam, l) answers.  With char_from_weyl replaced
    by FormalChar its answer is the Weyl-basis form, {lam: 1, mirror: 1},
    or {lam: 1} when the mirror is not dominant."""
    try:
        total, mirror = translated_character(lam, l)
    except ValueError:
        return False
    assert total.coeffs == ({lam: 1, mirror: 1} if mirror.is_dominant() else {lam: 1}), (l, lam)
    return True


def test_translated_character_reads_no_chi_l_memo(monkeypatch):
    """translated_character reads chi_l keys only: from empty chi_l memos,
    over every translatable weight at l in {3,5,11}, classical box 0..3,
    the Brauer-Klimyk weights, the templates and the chi_l_weyl memo stay
    empty.  The weight-basis expansion of the Weyl form, which calls the
    tableau kernel directly, runs on the last weight at each l; on the
    others the Weyl form is kept as it is, to keep the sweep quick."""
    memos = ("_bk_weights", "_chi_l_templates", "_chi_l_weyl_cache")
    for name in memos:
        monkeypatch.setattr(charring, name, {})
    expand = translate.char_from_weyl
    tally = {}
    for l in (3, 5, 11):
        monkeypatch.setattr(translate, "char_from_weyl", FormalChar)
        translated = [lam for lam in itertools.product(range(4 * l), repeat=2)
                      if _translates(lam, l)]
        monkeypatch.setattr(translate, "char_from_weyl", expand)
        total, mirror = translated_character(translated[-1], l)
        assert total == weyl_char(translated[-1]) + weyl_char(mirror)
        tally[l] = len(translated)
    assert {name: getattr(charring, name) for name in memos} == dict.fromkeys(memos, {})
    assert tally == {3: 31, 5: 186, 11: 1395}

