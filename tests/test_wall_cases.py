"""Literal pins of the three wall cases at l = 3: the factor order of the
decomposition, the good-filtration graph (node ids, layers, edges) and the
thickened-kernel Ext pairs against the Borel-induced structure graph;
left-wall Borel-induced factor lists at l = 2 and l = 5; and the
good-filtration graphs of the alcove cases at l = 3 that the golden file
lacks: the congruent and both mixed nine-factor cases of each alcove, and
the two down-alcove strips."""

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


# lam: (facet, lfilt nodes (id, weight, layer), lfilt edges), at l = 3.  The
# classical part (a, b) is congruent to k = 0 mod 3 in the down alcove and
# to k = 2 in the up alcove; a mixed case keeps the congruent case's layers.
ALCOVE_CASES = {
    # down alcove, both congruent: classical (3, 3)
    (9, 9): (
        FacetType.DOWN_ALCOVE,
        [
            ("mu1", (9, 9), 4), ("mu2", (10, 7), 3), ("mu3", (9, 3), 2),
            ("mu4", (7, 10), 3), ("mu5", (3, 9), 2), ("mu6", (9, 6), 1),
            ("mu7", (6, 6), 1), ("mu8", (6, 9), 1), ("mu9", (7, 7), 0),
        ],
        (
            ("mu9", "mu6"), ("mu9", "mu7"), ("mu9", "mu8"), ("mu6", "mu5"),
            ("mu6", "mu2"), ("mu7", "mu2"), ("mu7", "mu4"), ("mu8", "mu4"),
            ("mu8", "mu3"), ("mu5", "mu4"), ("mu3", "mu2"), ("mu4", "mu1"),
            ("mu2", "mu1"),
        ),
    ),
    # down alcove, a congruent, b not: classical (3, 4)
    (9, 12): (
        FacetType.DOWN_ALCOVE,
        [
            ("mu1", (9, 12), 4), ("mu2", (10, 10), 3), ("mu3", (9, 6), 2),
            ("mu4", (7, 13), 3), ("mu5", (3, 12), 2), ("mu6", (9, 9), 1),
            ("mu7", (6, 9), 1), ("mu8", (6, 12), 1), ("mu9", (7, 10), 0),
        ],
        (
            ("mu9", "mu6"), ("mu9", "mu7"), ("mu9", "mu8"), ("mu6", "mu5"),
            ("mu6", "mu2"), ("mu7", "mu2"), ("mu7", "mu4"), ("mu8", "mu4"),
            ("mu5", "mu4"), ("mu3", "mu2"), ("mu4", "mu1"), ("mu2", "mu1"),
            ("mu9", "mu3"), ("mu8", "mu2"),
        ),
    ),
    # down alcove, b congruent, a not: classical (4, 3)
    (12, 9): (
        FacetType.DOWN_ALCOVE,
        [
            ("mu1", (12, 9), 4), ("mu2", (13, 7), 3), ("mu3", (12, 3), 2),
            ("mu4", (10, 10), 3), ("mu5", (6, 9), 2), ("mu6", (12, 6), 1),
            ("mu7", (9, 6), 1), ("mu8", (9, 9), 1), ("mu9", (10, 7), 0),
        ],
        (
            ("mu9", "mu6"), ("mu9", "mu7"), ("mu9", "mu8"), ("mu6", "mu2"),
            ("mu7", "mu2"), ("mu7", "mu4"), ("mu8", "mu4"), ("mu8", "mu3"),
            ("mu5", "mu4"), ("mu3", "mu2"), ("mu4", "mu1"), ("mu2", "mu1"),
            ("mu9", "mu5"), ("mu6", "mu4"),
        ),
    ),
    # down alcove, b congruent, a not, factor 5 dropped: classical (1, 3);
    # factor 4 keeps layer 3 though its longest path from mu9 is 2
    (3, 9): (
        FacetType.DOWN_ALCOVE,
        [
            ("mu1", (3, 9), 4), ("mu2", (4, 7), 3), ("mu3", (3, 3), 2),
            ("mu4", (1, 10), 3), ("mu6", (3, 6), 1), ("mu7", (0, 6), 1),
            ("mu8", (0, 9), 1), ("mu9", (1, 7), 0),
        ],
        (
            ("mu9", "mu6"), ("mu9", "mu7"), ("mu9", "mu8"), ("mu6", "mu2"),
            ("mu7", "mu2"), ("mu7", "mu4"), ("mu8", "mu4"), ("mu8", "mu3"),
            ("mu3", "mu2"), ("mu4", "mu1"), ("mu2", "mu1"), ("mu6", "mu4"),
        ),
    ),
    # up alcove, both congruent: classical (2, 2)
    (7, 7): (
        FacetType.UP_ALCOVE,
        [
            ("mu1", (3, 9), 2), ("mu2", (4, 7), 1), ("mu3", (3, 3), 0),
            ("mu4", (7, 7), 4), ("mu5", (3, 6), 3), ("mu6", (9, 3), 2),
            ("mu7", (6, 3), 3), ("mu8", (6, 6), 3), ("mu9", (7, 4), 1),
        ],
        (
            ("mu3", "mu2"), ("mu3", "mu9"), ("mu2", "mu8"), ("mu2", "mu5"),
            ("mu2", "mu1"), ("mu9", "mu6"), ("mu9", "mu8"), ("mu9", "mu7"),
            ("mu1", "mu7"), ("mu6", "mu5"), ("mu7", "mu4"), ("mu8", "mu4"),
            ("mu5", "mu4"),
        ),
    ),
    # up alcove, a congruent, b not: classical (2, 4)
    (7, 13): (
        FacetType.UP_ALCOVE,
        [
            ("mu1", (3, 15), 2), ("mu2", (4, 13), 1), ("mu3", (3, 9), 0),
            ("mu4", (7, 13), 4), ("mu5", (3, 12), 3), ("mu6", (9, 9), 2),
            ("mu7", (6, 9), 3), ("mu8", (6, 12), 3), ("mu9", (7, 10), 1),
        ],
        (
            ("mu3", "mu2"), ("mu3", "mu9"), ("mu2", "mu8"), ("mu2", "mu5"),
            ("mu2", "mu1"), ("mu9", "mu6"), ("mu9", "mu8"), ("mu9", "mu7"),
            ("mu6", "mu5"), ("mu7", "mu4"), ("mu8", "mu4"), ("mu5", "mu4"),
            ("mu2", "mu7"), ("mu1", "mu4"),
        ),
    ),
    # up alcove, b congruent, a not: classical (4, 2)
    (13, 7): (
        FacetType.UP_ALCOVE,
        [
            ("mu1", (9, 9), 2), ("mu2", (10, 7), 1), ("mu3", (9, 3), 0),
            ("mu4", (13, 7), 4), ("mu5", (9, 6), 3), ("mu6", (15, 3), 2),
            ("mu7", (12, 3), 3), ("mu8", (12, 6), 3), ("mu9", (13, 4), 1),
        ],
        (
            ("mu3", "mu2"), ("mu3", "mu9"), ("mu2", "mu8"), ("mu2", "mu5"),
            ("mu2", "mu1"), ("mu9", "mu6"), ("mu9", "mu8"), ("mu9", "mu7"),
            ("mu1", "mu7"), ("mu7", "mu4"), ("mu8", "mu4"), ("mu5", "mu4"),
            ("mu9", "mu5"), ("mu6", "mu4"),
        ),
    ),
    # down-alcove strip a = 0: classical (0, 2)
    (0, 6): (
        FacetType.DOWN_ALCOVE,
        [("mu1", (0, 6), 2), ("mu2", (1, 4), 1), ("mu3", (0, 0), 0)],
        (("mu3", "mu2"), ("mu2", "mu1")),
    ),
    # down-alcove strip b = 0: classical (2, 0)
    (6, 0): (
        FacetType.DOWN_ALCOVE,
        [("mu1", (6, 0), 2), ("mu4", (4, 1), 1), ("mu5", (0, 0), 0)],
        (("mu5", "mu4"), ("mu4", "mu1")),
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


@pytest.mark.parametrize("lam", sorted(ALCOVE_CASES))
def test_alcove_filtration_graph(lam):
    facet, nodes, edges = ALCOVE_CASES[lam]
    g = nabla_l_filtration(Weight(*lam), 3)
    assert chi_decomposition(Weight(*lam), 3).facet is facet
    assert [(n.id, tuple(n.weight), n.layer) for n in g.nodes] == nodes
    assert g.edges == edges
