import itertools
import json

import pytest

from qgl3.decomp import chi_decomposition
from qgl3.ext import ext1_g
from qgl3.homs import (
    HomWitness,
    dominance_below,
    hat_dual_pair,
    hom_exists_mirror,
    witness_valid,
    zhat_head_weight,
)
from qgl3.lattice import (
    RHO,
    PositiveRoot,
    Weight,
    decompose,
    dual_weight,
)
from qgl3.structure import zhat_structure


def test_dominance_below():
    assert dominance_below(Weight(1, 1), Weight(3, 3))
    assert dominance_below(Weight(0, 0), Weight(2, -1) + Weight(0, 0))
    assert not dominance_below(Weight(3, 3), Weight(3, 3))
    assert not dominance_below(Weight(3, 3), Weight(1, 1))
    assert not dominance_below(Weight(0, 1), Weight(1, 0))  # difference not in root lattice


def test_witness_example():
    w = hom_exists_mirror(Weight(3, 3), Weight(1, 1), 3)
    assert w == HomWitness(PositiveRoot.RHO, 2)
    assert witness_valid(Weight(3, 3), Weight(1, 1), w, 3)


def test_no_witness_on_diagonal_or_upward():
    assert hom_exists_mirror(Weight(3, 3), Weight(3, 3), 3) is None
    assert hom_exists_mirror(Weight(1, 1), Weight(3, 3), 3) is None


def test_no_witness_when_wall_not_unique():
    # (7,7) and (0,0) are mirrored in the wall at pairing 9, but the closed
    # interval [2, 16] contains five multiples of 3
    assert dominance_below(Weight(0, 0), Weight(7, 7))
    assert (16 + 2) % (2 * 3) == 0
    assert hom_exists_mirror(Weight(7, 7), Weight(0, 0), 3) is None


def test_simple_root_witness():
    # mirror in a single alpha1 wall
    lam = Weight(4, 1)
    mu = Weight(0, 3)  # lam - 2*alpha1
    w = hom_exists_mirror(lam, mu, 3)
    assert w is not None and w.beta is PositiveRoot.ALPHA1
    assert witness_valid(lam, mu, w, 3)


def test_positive_characteristic_is_rejected():
    lam, mu = Weight(3, 3), Weight(1, 1)
    w = hom_exists_mirror(lam, mu, 3)
    for p in (2, 3, -1):
        with pytest.raises(ValueError, match="characteristic 0"):
            hom_exists_mirror(lam, mu, 3, p)
        with pytest.raises(ValueError, match="characteristic 0"):
            witness_valid(lam, mu, w, 3, p)


def test_mirror_criterion_is_not_complete():
    # L(2,0) is a composition factor of nabla(0,10) at l = 5 with no Ext^1
    # to the socle L(0,10), so it lies in the head; (2,0) is in the bottom
    # alcove, so nabla(2,0) = L(2,0) and Hom(nabla(0,10), nabla(2,0)) != 0.
    # (0,10) - (2,0) = 2 alpha1 + 6 alpha2 is no multiple of one root.
    lam, mu, l = Weight(0, 10), Weight(2, 0), 5
    assert mu in chi_decomposition(lam, l).surviving_factors()
    assert ext1_g(mu, lam, l) == 0
    assert hom_exists_mirror(lam, mu, l) is None


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


def test_hat_dual_pair_against_decomposition():
    for l in range(2, 14):
        for a, b in itertools.product(range(-3 * l, 3 * l + 1), repeat=2):
            nu = Weight(a, b)
            assert hat_dual_pair(nu, l) == _hat_dual_by_decompose(nu, l), (nu, l)
            head = _hat_dual_by_decompose(2 * (l - 1) * RHO - nu, l)
            assert zhat_head_weight(nu, l) == head, (nu, l)


def test_zhat_head_matches_structure_source():
    for l in (2, 3):
        for a, b in itertools.product(range(-1, 3), repeat=2):
            for r, s in itertools.product(range(l), repeat=2):
                lam = l * Weight(a, b) + Weight(r, s)
                g = zhat_structure(lam, l)
                assert g.sources()[0].weight == zhat_head_weight(lam, l)


def test_translation_pair_consistency():
    # adjacent alcove weights mirrored in the wall between them
    w = hom_exists_mirror(Weight(4, 4), Weight(3, 3), 3)
    assert w == HomWitness(PositiveRoot.RHO, 3)
    w = hom_exists_mirror(5 * Weight(2, 2) + Weight(2, 2), 5 * Weight(2, 2) + Weight(1, 1), 5)
    assert w is not None and w.beta is PositiveRoot.RHO


def test_enumerate_rejects_nothing_dominant():
    with pytest.raises(ValueError):
        hom_exists_mirror(Weight(-1, 0), Weight(0, 0), 3)


def test_witness_json_roundtrip():
    w = hom_exists_mirror(Weight(3, 3), Weight(1, 1), 3)
    data = json.loads(json.dumps(w.to_jsonable()))
    assert data == {"beta": "rho", "m": 2}
    assert HomWitness(PositiveRoot[data["beta"].upper()], data["m"]) == w
