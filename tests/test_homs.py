import itertools
import json

import pytest

from qgl3.homs import (
    HomWitness,
    dominance_below,
    hat_dual_weight,
    hom_exists_mirror,
    witness_valid,
    zhat_head_weight,
)
from qgl3.lattice import (
    RHO,
    FacetType,
    PositiveRoot,
    Weight,
    decompose,
    dual_weight,
    facet_classify,
)
from qgl3.structure import zhat_structure


def test_dominance_below():
    assert dominance_below(Weight(1, 1), Weight(3, 3))
    assert dominance_below(Weight(0, 0), Weight(2, -1) + Weight(0, 0))
    assert not dominance_below(Weight(3, 3), Weight(3, 3))
    assert not dominance_below(Weight(3, 3), Weight(1, 1))
    assert not dominance_below(Weight(0, 1), Weight(1, 0))  # difference not in root lattice


def test_witness_example():
    w = hom_exists_mirror(Weight(3, 3), Weight(1, 1), 3, 0)
    assert w == HomWitness(PositiveRoot.RHO, 2, 0)
    assert witness_valid(Weight(3, 3), Weight(1, 1), w, 3, 0)


def test_no_witness_on_diagonal_or_upward():
    assert hom_exists_mirror(Weight(3, 3), Weight(3, 3), 3, 0) is None
    assert hom_exists_mirror(Weight(1, 1), Weight(3, 3), 3, 0) is None


def test_no_witness_when_wall_not_unique():
    # (7,7) and (0,0) are mirrored in the wall at pairing 9, but the closed
    # interval [2, 16] contains five multiples of 3
    assert dominance_below(Weight(0, 0), Weight(7, 7))
    assert (16 + 2) % (2 * 3) == 0
    assert hom_exists_mirror(Weight(7, 7), Weight(0, 0), 3, 0) is None


def test_simple_root_witness():
    # mirror in a single alpha1 wall
    lam = Weight(4, 1)
    mu = Weight(0, 3)  # lam - 2*alpha1
    w = hom_exists_mirror(lam, mu, 3, 0)
    assert w is not None and w.beta is PositiveRoot.ALPHA1 and w.e == 0
    assert witness_valid(lam, mu, w, 3, 0)


def test_witness_positive_characteristic_level():
    # mirrored in the unique 6-wall at pairing 12 but three 3-walls intervene
    lam, mu = Weight(7, 7), Weight(3, 3)
    assert hom_exists_mirror(lam, mu, 3, 0) is None
    w = hom_exists_mirror(lam, mu, 3, 2)
    assert w == HomWitness(PositiveRoot.RHO, 2, 1)
    assert witness_valid(lam, mu, w, 3, 2)
    assert not witness_valid(lam, mu, HomWitness(PositiveRoot.RHO, 2, 1), 3, 0)


def test_zhat_head_weight_examples():
    assert zhat_head_weight(Weight(3, 3), 3) == Weight(1, 1)
    for l in (2, 3, 5):
        st_wt = Weight(l - 1, l - 1)
        assert zhat_head_weight(st_wt, l) == st_wt
        lam = l * Weight(2, 1) + st_wt
        assert zhat_head_weight(lam, l) == lam
    assert zhat_head_weight(Weight(1, 0), 2) == Weight(0, -1)


def _hat_dual_by_decompose(nu, l):
    """The dual weight through the restricted decomposition: swap the
    restricted part, negate l times the classical part."""
    cls, res = decompose(nu, l)
    return dual_weight(res) - l * cls


def test_hat_dual_weight_against_decomposition():
    for l in range(2, 14):
        for a, b in itertools.product(range(-3 * l, 3 * l + 1), repeat=2):
            nu = Weight(a, b)
            assert hat_dual_weight(nu, l) == _hat_dual_by_decompose(nu, l), (nu, l)
            head = _hat_dual_by_decompose(2 * (l - 1) * RHO - nu, l)
            assert zhat_head_weight(nu, l) == head, (nu, l)


def test_zhat_head_matches_structure_source():
    for l in (2, 3):
        for a, b in itertools.product(range(-1, 3), repeat=2):
            for r, s in itertools.product(range(l), repeat=2):
                lam = l * Weight(a, b) + Weight(r, s)
                g = zhat_structure(lam, l)
                assert g.sources()[0].weight == zhat_head_weight(lam, l)


def test_head_witness_sweep():
    for l in (2, 3, 5):
        for a, b in itertools.product(range(1, 4), repeat=2):
            for r, s in itertools.product(range(l), repeat=2):
                lam = l * Weight(a, b) + Weight(r, s)
                if facet_classify(lam, l) is not FacetType.DOWN_ALCOVE:
                    continue
                head = zhat_head_weight(lam, l)
                w = hom_exists_mirror(lam, head, l, 0)
                assert w is not None and w.beta is PositiveRoot.RHO and w.e == 0
                assert witness_valid(lam, head, w, l, 0)
                assert hom_exists_mirror(head, lam, l, 0) is None


def test_translation_pair_consistency():
    # adjacent alcove weights mirrored in the wall between them
    w = hom_exists_mirror(Weight(4, 4), Weight(3, 3), 3, 0)
    assert w == HomWitness(PositiveRoot.RHO, 3, 0)
    w = hom_exists_mirror(5 * Weight(2, 2) + Weight(2, 2), 5 * Weight(2, 2) + Weight(1, 1), 5, 0)
    assert w is not None and w.beta is PositiveRoot.RHO and w.e == 0


def test_enumerate_rejects_nothing_dominant():
    with pytest.raises(ValueError):
        hom_exists_mirror(Weight(-1, 0), Weight(0, 0), 3, 0)


def test_witness_json_roundtrip():
    w = hom_exists_mirror(Weight(3, 3), Weight(1, 1), 3, 0)
    data = json.loads(json.dumps(w.to_jsonable()))
    assert HomWitness(PositiveRoot[data["beta"].upper()], data["m"], data["e"]) == w
