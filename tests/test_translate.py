import pytest

from qgl3 import translate, verify
from qgl3.charring import chi_l, simple_char_p0, weyl_char
from qgl3.decomp import chi_decomposition, chi_l_expansion
from qgl3.lattice import (
    Weight,
    decompose,
    fundamental_rep,
    linked,
    ordinary_orbit,
)
from qgl3.translate import (
    OffWallEntry,
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


def test_wall_weight_below_is_on_one_wall():
    for l, lam in ((5, 5 * Weight(2, 2) + Weight(1, 1)), (3, Weight(3, 3)), (2, Weight(6, 4))):
        mu, (root, value) = wall_weight_below(lam, l)
        assert mu.is_dominant()
        from qgl3.lattice import POSITIVE_ROOTS, pairing

        on_walls = [b for b in POSITIVE_ROOTS if pairing(mu, b) % l == 0]
        assert on_walls == [root]
        assert pairing(mu, root) == value


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
