"""Literal pins of the three wall cases at l = 3: the factor order of the
decomposition, the good-filtration graph (node ids, layers, edges) and the
thickened-kernel Ext pairs against the Borel-induced structure graph; and
left-wall Borel-induced factor lists at l = 2 and l = 5."""

import itertools

import pytest

from qgl3.decomp import chi_decomposition, zhat_factors
from qgl3.ext import ext1_g1b
from qgl3.lattice import FacetType, Weight
from qgl3.structure import nabla_l_filtration, zhat_structure

CHAIN = (("mu4", "mu3"), ("mu3", "mu2"), ("mu2", "mu1"))
DIAMOND = (("mu4", "mu3"), ("mu4", "mu2"), ("mu3", "mu1"), ("mu2", "mu1"))

# lam: (facet, chi_decomposition factors, lfilt nodes (id, weight, layer),
#       lfilt edges, zhat edges)
WALL_CASES = {
    # right wall, classical a = -1 mod 3: chain
    (8, 3): (
        FacetType.RIGHT_WALL,
        [(7, 2), (9, 1), (3, 4), (8, 3)],
        [("mu1", (7, 2), 0), ("mu2", (9, 1), 1), ("mu3", (3, 4), 2), ("mu4", (8, 3), 3)],
        (("mu1", "mu2"), ("mu2", "mu3"), ("mu3", "mu4")),
        CHAIN,
    ),
    # right wall, classical a = 1 mod 3: diamond
    (5, 3): (
        FacetType.RIGHT_WALL,
        [(4, 2), (6, 1), (0, 4), (5, 3)],
        [("mu1", (4, 2), 0), ("mu2", (6, 1), 1), ("mu3", (0, 4), 1), ("mu4", (5, 3), 2)],
        (("mu1", "mu2"), ("mu1", "mu3"), ("mu2", "mu4"), ("mu3", "mu4")),
        CHAIN,
    ),
    # left wall on the dominant boundary: two factors survive
    (0, 8): (
        FacetType.LEFT_WALL,
        [(-1, 7), (-2, 9), (1, 3), (0, 8)],
        [("mu3", (1, 3), 2), ("mu4", (0, 8), 3)],
        (("mu3", "mu4"),),
        CHAIN,
    ),
    # horizontal wall: diamond
    (4, 3): (
        FacetType.HORIZONTAL_WALL,
        [(1, 0), (5, 1), (0, 5), (4, 3)],
        [("mu1", (1, 0), 0), ("mu2", (5, 1), 1), ("mu3", (0, 5), 1), ("mu4", (4, 3), 2)],
        (("mu1", "mu2"), ("mu1", "mu3"), ("mu2", "mu4"), ("mu3", "mu4")),
        DIAMOND,
    ),
    # horizontal wall on the dominant boundary: two factors survive
    (1, 3): (
        FacetType.HORIZONTAL_WALL,
        [(-2, 0), (2, 1), (-3, 5), (1, 3)],
        [("mu2", (2, 1), 1), ("mu4", (1, 3), 2)],
        (("mu2", "mu4"),),
        DIAMOND,
    ),
}


# (l, lam): zhat_factors, socle first
LEFT_WALL_ZHAT = {
    (2, (4, 3)): [(4, 3), (4, 0), (2, 4), (3, 2)],
    (5, (12, 9)): [(12, 9), (11, 2), (6, 12), (9, 6)],
}


@pytest.mark.parametrize("l, lam", sorted(LEFT_WALL_ZHAT))
def test_left_wall_zhat_factors(l, lam):
    dec = chi_decomposition(Weight(*lam), l)
    assert dec.facet is FacetType.LEFT_WALL
    assert [tuple(f) for f in zhat_factors(Weight(*lam), l)] == LEFT_WALL_ZHAT[l, lam]


@pytest.mark.parametrize("lam", sorted(WALL_CASES))
def test_wall_factor_order(lam):
    facet, factors, _, _, _ = WALL_CASES[lam]
    dec = chi_decomposition(Weight(*lam), 3)
    assert dec.facet is facet
    assert [tuple(f) for f in dec.factors] == factors


@pytest.mark.parametrize("lam", sorted(WALL_CASES))
def test_wall_filtration_graph(lam):
    _, _, nodes, edges, _ = WALL_CASES[lam]
    g = nabla_l_filtration(Weight(*lam), 3)
    assert [(n.id, tuple(n.weight), n.layer) for n in g.nodes] == nodes
    assert g.edges == edges


@pytest.mark.parametrize("lam", sorted(WALL_CASES))
def test_wall_ext_pairs_are_structure_edges(lam):
    zhat_edges = WALL_CASES[lam][4]
    lam = Weight(*lam)
    g = zhat_structure(lam, 3)
    assert g.edges == zhat_edges
    ids = {f: f"mu{i}" for i, f in enumerate(zhat_factors(lam, 3), start=1)}
    pairs = {
        (ids[u], ids[v])
        for u, v in itertools.permutations(ids, 2)
        if ext1_g1b(lam, u, v, 3)
    }
    assert pairs == set(zhat_edges)
