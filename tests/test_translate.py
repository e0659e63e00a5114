import itertools

import pytest

from qgl3 import translate, verify
from qgl3.charring import chi_l, simple_char_p0, weyl_char
from qgl3.decomp import chi_decomposition, chi_l_expansion
from qgl3.lattice import (
    POSITIVE_ROOTS,
    FacetType,
    PositiveRoot,
    Weight,
    decompose,
    facet_classify,
    facet_stabilizer_walls,
    facet_windows,
    fundamental_rep,
    in_closure,
    in_upper_closure,
    linked,
    ordinary_orbit,
    pairing,
)
from qgl3.translate import (
    OffWallEntry,
    local_target,
    translate_factor_lists,
    translate_nabla_factor_count,
    translate_off_wall,
    translate_onto_wall,
    translated_character,
    wall_weight_below,
)


def test_onto_wall_identity_translation():
    r = translate_onto_wall(Weight(1, 0), Weight(1, 0), Weight(1, 0), 5)
    assert r.output == Weight(1, 0)


def test_onto_wall_present_and_absent():
    # down-alcove weight onto the horizontal wall above it: survives
    r = translate_onto_wall(Weight(3, 3), Weight(0, 0), Weight(1, 0), 3)
    assert r.output == Weight(4, 3)
    # the up-alcove mirror sees that wall from above, outside its upper
    # closure, so its translate dies
    r2 = translate_onto_wall(Weight(4, 4), Weight(0, 0), Weight(1, 0), 3)
    assert r2.output is None


def test_onto_wall_rejects_bad_orbit():
    with pytest.raises(ValueError):
        translate_onto_wall(Weight(3, 3), Weight(1, 0), Weight(1, 0), 3)


def test_onto_wall_character_consistency():
    # translating every surviving filtration factor onto the wall recovers
    # the filtration of the translated module
    for l, lam, wall_rep in (
        (3, Weight(3, 3), Weight(1, 0)),
        (5, 5 * Weight(2, 2) + Weight(0, 1), Weight(2, 1)),
    ):
        lam_rep, _ = fundamental_rep(lam, l)
        dec = chi_decomposition(lam, l)
        image = translate_onto_wall(lam, lam_rep, wall_rep, l).output
        total = None
        for f in dec.surviving_factors():
            r = translate_onto_wall(f, lam_rep, wall_rep, l)
            if r.output is not None:
                term = chi_l(r.output, l)
                total = term if total is None else total + term
        assert total == weyl_char(image)


def test_off_wall_right_list_l3():
    lst = translate_off_wall(Weight(0, 1), Weight(2, 0), Weight(0, 0), 3)
    assert [(tuple(f.classical), tuple(f.restricted)) for f in lst.factors] == [
        ((0, 1), (1, 1)),
        ((1, 1), (0, 0)),
        ((-1, 2), (0, 0)),
        ((0, 0), (0, 0)),
        ((0, 1), (0, 0)),
        ((0, 1), (1, 1)),
    ]
    assert [f.vanishes for f in lst.factors] == [False, False, True, False, False, False]


def test_off_wall_left_list_l5():
    c = Weight(2, 2)
    lst = translate_off_wall(c, Weight(1, 4), Weight(1, 1), 5)
    assert [(tuple(f.classical), tuple(f.restricted)) for f in lst.factors] == [
        ((2, 2), (3, 2)),
        ((2, 3), (1, 1)),
        ((3, 1), (1, 1)),
        ((1, 2), (1, 1)),
        ((2, 2), (1, 0)),
        ((2, 2), (3, 2)),
    ]


def test_off_wall_horizontal_three_term_list():
    # repeated outer factor around the target
    lst = translate_off_wall(Weight(2, 2), Weight(1, 2), Weight(2, 2), 5)
    assert [(tuple(f.classical), tuple(f.restricted)) for f in lst.factors] == [
        ((2, 2), (1, 1)),
        ((2, 2), (2, 2)),
        ((2, 2), (1, 1)),
    ]


def test_off_wall_l2_lists():
    c = Weight(3, 2)
    lst = translate_off_wall(c, Weight(1, 0), Weight(0, 0), 2)
    assert [(tuple(f.classical), tuple(f.restricted)) for f in lst.factors] == [
        ((3, 2), (0, 1)),
        ((4, 2), (0, 0)),
        ((2, 3), (0, 0)),
        ((3, 1), (0, 0)),
        ((3, 2), (0, 1)),
    ]
    lst = translate_off_wall(c, Weight(0, 1), Weight(0, 0), 2)
    assert len(lst) == 5 and lst.factors[0].restricted == Weight(1, 0)
    assert translate_off_wall(c, Weight(0, 0), Weight(1, 0), 2).factors == (
        OffWallEntry(c, Weight(1, 0)),
    )
    assert translate_off_wall(c, Weight(1, 0), Weight(0, 1), 2).factors == (
        OffWallEntry(c, Weight(0, 0)),
    )


def test_off_wall_unsupported_combinations():
    with pytest.raises(ValueError):
        translate_off_wall(Weight(1, 1), Weight(1, 2), Weight(0, 0), 5)  # horizontal -> down
    with pytest.raises(ValueError):
        translate_off_wall(Weight(1, 1), Weight(1, 0), Weight(1, 0), 2)  # same type


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
        assert (t.weyl_character(), t.mirror) == ({lam: 1, mirror: 1}, mirror)
        # the weight-basis route through the factor lists, as an oracle
        weight_basis = None
        for _, lst in t.lists:
            ch = lst.character(l)
            weight_basis = ch if weight_basis is None else weight_basis + ch
        assert weight_basis == total


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
        for nu, lst in t.lists:
            product = chi_l(nu, l) * trans_char
            expected = sorted(
                (w, c)
                for w, c in chi_l_expansion(product, l)
                if linked(w, lam, l) and decompose(w, l).classical.is_dominant()
            )
            got = {}
            for entry in lst.factors:
                if not entry.vanishes:
                    w = entry.as_weight(l)
                    got[w] = got.get(w, 0) + 1
            assert sorted(got.items()) == expected, (l, lam, nu)


# The oracle of the closed forms wall_weight_below and local_target: a
# search over facet windows.  A facet window is, per positive root, either
# the wall value or the open range ((n-1)l, nl) containing the pairing.


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


def _admissible_target(nu, x, l):
    """Does (source nu on a wall, target x) form a supported configuration:
    x inside an alcove with nu in its lower closure, or (walls only) x on a
    wall of an alcove having nu in its lower closure."""
    x_walls = facet_stabilizer_walls(x, l)
    nu_wall = _single_wall(nu, l)
    if nu_wall is None:
        return False
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
    _, candidates = translate._orbit_near(nu, lam_rep, l)
    good = sorted(x for x in candidates if _admissible_target(nu, x, l))
    if len(good) != 1:
        raise RuntimeError(f"no unique admissible target for {nu}: {good}")
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
    except (ValueError, RuntimeError) as exc:
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
        assert _outcome(_local_target_by_search, nu, Weight(0, 0), 3) is RuntimeError
        with pytest.raises(RuntimeError):
            local_target(nu, Weight(0, 0), 3)


def test_onto_vertex_from_wall_orbit():
    # translating the filtration of a wall weight onto a vertex orbit in its
    # wall's closure leaves exactly one factor, and exercises the stabilizer
    # candidates of the singular source representative
    from qgl3.lattice import facet_classify

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
            r = translate_onto_wall(f, rep, vertex_rep, l)
            if r.output is not None:
                images.append(r.output)
                term = chi_l(r.output, l)
                acc = term if acc is None else acc + term
        assert len(images) == 1
        assert facet_classify(images[0], l).value == "vertex"
        assert acc == weyl_char(images[0])


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
        cases = list(verify.suite_translate(l, 2))
        assert cases and all(ok for *_, ok in cases)
        # once per weight, and every checked weight had its call
        assert len(calls) == len(set(calls))
        assert {case for case, *_ in cases} <= {f"l={l} lam={lam}" for lam, _ in calls}


def test_translate_sweep_records_a_failed_translation(monkeypatch):
    """A ValueError from the factor lists of a weight is a failed case that
    carries its message; the sweep skips only the weights with no dominant
    wall point below."""
    off_wall = translate.translate_off_wall
    calls = []

    def failing_once(mu_cls, mu_res, target_res, l):
        calls.append(mu_cls)
        if len(calls) == 1:
            raise ValueError("unsupported translation (injected)")
        return off_wall(mu_cls, mu_res, target_res, l)

    monkeypatch.setattr(translate, "translate_off_wall", failing_once)
    report = verify.run_suite("translate", [3], 2)
    assert not report.passed
    assert report.failures == [
        (
            "l=3 lam=(1,1)",
            "translate character = weyl(lam) + weyl(mirror)",
            "unsupported translation (injected)",
        )
    ]
