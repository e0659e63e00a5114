"""First extension groups between simple modules.

The restricted-kernel Ext groups are finite lookup tables whose values are
sums of three classical parts, k and the twisted induced modules of the two
fundamental weights.  All three are minuscule, so the thickened-kernel and
full-group Ext dimensions reduce to these tables, in characteristic zero, by
membership tests on the parts' weights (Pieri's rule), read off one table.

The socle of L(1,0) tensor L(lam), from which the paper reads Ext^1
between simples, is one rule per weight of L(1,0) on the restricted part
of lam; the printed rows it replaces are the test oracle in
tests/oracles.py, with one impossible entry corrected.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from qgl3.decomp import DUAL_POSITION, check_positions, factor_family
from qgl3.lattice import (
    FacetType,
    Weight,
    check_level,
    decompose,
    dual_weight,
    restricted_orbit,
)

ExtPart = Union[str, Weight]  # "k" or the untwisted induced weight

TRIV = "k"
NABLA01 = Weight(0, 1)
NABLA10 = Weight(1, 0)

# The weights of each part in dominance order, each of multiplicity one, so
# nabla(c) is a summand of nabla(x) (x) part exactly when c - x is one of them
# (Pieri's rule; Jantzen, RAGS II.5).  A part's dual has highest weight minus
# its lowest.  The weight sets are disjoint and no row of _G1_COLUMNS lists a
# part twice, so pairing a table value against them gives 0 or 1.
_WEIGHTS = {
    TRIV: ((0, 0),),
    NABLA10: ((1, 0), (-1, 1), (0, -1)),
    NABLA01: ((0, 1), (1, -1), (-1, 0)),
}
_DUAL_TOP = {p: (-ws[-1][0], -ws[-1][1]) for p, ws in _WEIGHTS.items()}


@dataclass(frozen=True)
class ExtValue:
    """Multiset of labels realizing a restricted-kernel Ext group."""

    parts: tuple[ExtPart, ...] = ()

    def __bool__(self) -> bool:
        return bool(self.parts)

    @property
    def dimension(self) -> int:
        return sum(len(_WEIGHTS[p]) for p in self.parts)

    def labels(self) -> list[str]:
        return sorted(TRIV if p == TRIV else f"nabla({p[0]},{p[1]})" for p in self.parts)

    def label_dual(self) -> "ExtValue":
        return ExtValue(_normalize(TRIV if p == TRIV else dual_weight(p) for p in self.parts))


def _normalize(parts) -> tuple[ExtPart, ...]:
    return tuple(sorted(parts, key=lambda p: ("", 0, 0) if p == TRIV else ("n", p[0], p[1])))


EXT_ZERO = ExtValue()

# The nonzero columns of alpha's row, as (k, part) over
# restricted_orbit(alpha, l): the rest of alpha's wall triple, or three
# weights of the other alcove, the mirror first.  No column is alpha, so the
# diagonal vanishes.  Each alcove row lists k, nabla(0,1), nabla(1,0), the
# order _normalize sorts them in.
_G1_COLUMNS = {
    FacetType.VERTEX: (),
    FacetType.RIGHT_WALL: ((0, NABLA10),),
    FacetType.LEFT_WALL: ((0, NABLA01),),
    FacetType.HORIZONTAL_WALL: ((1, NABLA01), (2, NABLA10)),
    FacetType.DOWN_ALCOVE: ((5, TRIV), (1, NABLA01), (3, NABLA10)),
    FacetType.UP_ALCOVE: ((0, TRIV), (4, NABLA01), (2, NABLA10)),
}


def ext1_g1(alpha: Weight, beta: Weight, l: int) -> ExtValue:
    """Ext^1 over the Frobenius kernel between restricted simples.

    Nonzero only inside the wall triples {(r,s), (l-1,r), (s,l-1)} with
    r+s = l-2, and between an alcove weight and three weights of the other
    alcove, its mirror among them.  Columns that coincide add their parts:
    at the alcove centre, 3 | l, the three columns of a row are one weight,
    whose entry is k + nabla(0,1) + nabla(1,0) (for l = 3 that is every
    alcove entry).  Steinberg rows and columns, and the diagonal, vanish.
    """
    facet, points = restricted_orbit(alpha, l)
    restricted_orbit(beta, l)  # ValueError unless beta is restricted
    beta = (beta[0], beta[1])
    parts = tuple([part for k, part in _G1_COLUMNS[facet] if points[k] == beta])
    return ExtValue(parts) if parts else EXT_ZERO


def ext1_g(mu: Weight, lam: Weight, l: int) -> int:
    """dim Ext^1 between full simple modules.  Always 0 or 1.

    Equal restricted parts reduce to the classical parts recursively at the
    same l, i.e. the Frobenius quotient is taken to carry the same
    combinatorics one level up (the reading under which the printed small
    extension families hold uniformly, and the analogue of the l^i rule
    used at the thickened-kernel level); distinct restricted parts pair the
    restricted-kernel table value against the classical parts by Pieri's
    rule, the characteristic-zero pairing: a part counts when mc - lc is
    one of its weights.
    """
    if min(mu[0], mu[1], lam[0], lam[1]) < 0:
        raise ValueError(f"ext1_g needs dominant weights, got {Weight(*mu)}, {Weight(*lam)}")
    check_level(l)
    mca, mra = divmod(mu[0], l)
    mcb, mrb = divmod(mu[1], l)
    lca, lra = divmod(lam[0], l)
    lcb, lrb = divmod(lam[1], l)
    mc, lc = (mca, mcb), (lca, lcb)
    if (mra, mrb) == (lra, lrb):
        return 0 if mc == lc else ext1_g(mc, lc, l)
    d = (mca - lca, mcb - lcb)
    return sum(d in _WEIGHTS[p] for p in ext1_g1((mra, mrb), (lra, lrb), l).parts)


def _is_l_power(t: int, l: int) -> bool:
    if t < 1:
        return False
    while t % l == 0:
        t //= l
    return t == 1


def ext1_g1b_general(lam: Weight, mu: Weight, l: int) -> int:
    """dim Ext^1 between simple thickened-kernel modules, characteristic 0.

    Dominant classical difference: a part of the restricted-kernel table
    value counts when the difference is its dual's highest weight.
    Non-dominant difference: exactly the pairs with equal restricted parts
    differing by -l^i times a simple root extend, one-dimensionally.
    """
    check_level(l)
    lca, lra = divmod(lam[0], l)
    lcb, lrb = divmod(lam[1], l)
    mca, mra = divmod(mu[0], l)
    mcb, mrb = divmod(mu[1], l)
    da, db = mca - lca, mcb - lcb  # the classical difference
    lr, mr = (lra, lrb), (mra, mrb)
    if da >= 0 and db >= 0:
        if lr == mr:
            return 0
        return sum((da, db) == _DUAL_TOP[p] for p in ext1_g1(lr, mr, l).parts)
    if lr != mr:
        return 0
    va, vb = -da, -db
    for ra, rb in ((2, -1), (-1, 2)):
        # (va, vb) = t * (ra, rb) with t a (possibly trivial) power of l
        t = va // ra
        if (t * ra, t * rb) == (va, vb) and _is_l_power(t, l):
            return 1
    return 0


# Extension tables between the composition factors of a Borel-induced
# module, indexed by (row, column) positions in the socle-first factor list
# of zhat_factors.  Rows label the upper factor, columns the lower one.  The
# edges of each submodule structure graph extend, and the graph lists them in
# this order.  On the walls they are all the extending pairs: a chain on the
# right and left walls, a diamond on the horizontal one.  In the down alcove
# three edges also extend reversed.  Dualizing the module reverses
# extensions and renumbers the factors by DUAL_POSITION, so the up-alcove
# pairs are the image of the down-alcove ones.  The printed up-alcove table
# has one more entry, (4, 1), which the general rule excludes.

WALL_CHAIN_EDGES = ((4, 3), (3, 2), (2, 1))
WALL_DIAMOND_EDGES = ((4, 3), (4, 2), (3, 1), (2, 1))
DOWN_EDGES = (
    (9, 6), (9, 7), (9, 8),
    (6, 5), (6, 2), (7, 2), (7, 4), (8, 4), (8, 3),
    (5, 4), (3, 2),
    (4, 1), (2, 1),
)
# The set of UP_EDGES is the image of DOWN_EDGES too; its order is output.
UP_EDGES = (
    (3, 2), (3, 9),
    (2, 8), (2, 5), (2, 1), (9, 6), (9, 8), (9, 7),
    (1, 7), (6, 5),
    (7, 4), (8, 4), (5, 4),
)
# The edge table of each facet's Borel-induced module: the one facet -> edges
# map, off which the Ext pairs below and the graph tables of qgl3.structure
# are read.
ZHAT_EDGES = {
    FacetType.VERTEX: (),
    FacetType.RIGHT_WALL: WALL_CHAIN_EDGES,
    FacetType.LEFT_WALL: WALL_CHAIN_EDGES,
    FacetType.HORIZONTAL_WALL: WALL_DIAMOND_EDGES,
    FacetType.DOWN_ALCOVE: DOWN_EDGES,
    FacetType.UP_ALCOVE: UP_EDGES,
}
_DOWN_PAIRS = frozenset(DOWN_EDGES) | {(2, 6), (4, 8), (7, 9)}
_UP_PAIRS = frozenset((DUAL_POSITION[v], DUAL_POSITION[u]) for u, v in _DOWN_PAIRS)
_PAIRS_BY_FACET = {**{facet: frozenset(edges) for facet, edges in ZHAT_EDGES.items()},
                   FacetType.DOWN_ALCOVE: _DOWN_PAIRS, FacetType.UP_ALCOVE: _UP_PAIRS}
_TOP = {facet: max(map(max, edges), default=0) for facet, edges in ZHAT_EDGES.items()}


def ext_table(mu: Weight, l: int) -> tuple[tuple[Weight, ...], frozenset[tuple[int, int]]]:
    """The composition-factor weights of the Borel-induced module of weight
    mu, as factor_family lists them (a shared tuple), and the (upper, lower)
    position pairs, 1-based in that list, between which Ext^1 is nonzero:
    the facet's shared pair set.  A caller checks its weights against the
    list the table was read on."""
    facet, factors = factor_family(mu, l)
    check_positions(mu, l, factors, _TOP[facet])
    if len(set(factors)) != len(factors):
        raise ValueError(
            f"degenerate factor list for {Weight(*mu)} (l={l}): {[tuple(f) for f in factors]}"
        )
    return factors, _PAIRS_BY_FACET[facet]


def ext1_g1b(mu: Weight, lam: Weight, eta: Weight, l: int) -> int:
    """Table lookup: dim Ext^1(upper lam, lower eta) among the composition
    factors of the Borel-induced module of weight mu."""
    mu, lam, eta = Weight(*mu), Weight(*lam), Weight(*eta)
    factors, pairs = ext_table(mu, l)
    missing = [w for w in (lam, eta) if w not in factors]
    if missing:
        raise ValueError(
            f"{missing[0]} is not a composition factor of the induced module of "
            f"weight {mu} (l={l}); factors are {[tuple(f) for f in factors]}"
        )
    return int((factors.index(lam) + 1, factors.index(eta) + 1) in pairs)


# The socle of L(1,0) tensor L(r, s), for restricted (r, s), is a set of
# weights (r, s) + eps, one rule per weight eps of L(1,0), the NABLA10 row of
# _WEIGHTS.  eps = (1,0) is in it for r <= l-2, except on the horizontal
# wall (r + s = l-2) with s >= 1; eps = (-1,1) for r >= 1 and s <= l-2;
# eps = (0,-1) for s >= 1, except on the row r + s = l-1 with r >= 1 (at
# r = 0 this is the editorial reading of a malformed printed entry for
# (0, l-1)).  The printed rows are the test oracle in tests/oracles.py.  No
# verify suite checks this table.
def socle_fundamental_tensor(lam: Weight, l: int, which: Weight = Weight(1, 0)) -> list[Weight]:
    """Socle weights of L(which) tensor L(lam), which in {(1,0), (0,1)}.

    The entries of the restricted part, in the dominance order of the
    weights of L(1,0), are shifted by l times the classical part; the (0,1)
    case is the coordinate-swap dual of the (1,0) case.
    """
    lam = Weight(*lam)
    which = Weight(*which)
    if not lam.is_dominant():
        raise ValueError(f"socle_fundamental_tensor needs a dominant weight, got {lam}")
    if which == Weight(0, 1):
        return [dual_weight(w) for w in socle_fundamental_tensor(dual_weight(lam), l)]
    if which != Weight(1, 0):
        raise ValueError(f"which must be (1,0) or (0,1), got {which}")
    (ca, cb), (r, s) = decompose(lam, l)
    keeps = (
        r <= l - 2 and not (r + s == l - 2 and s >= 1),
        r >= 1 and s <= l - 2,
        s >= 1 and not (r + s == l - 1 and r >= 1),
    )
    return [
        Weight(l * ca + r + a, l * cb + s + b)
        for (a, b), keep in zip(_WEIGHTS[NABLA10], keeps)
        if keep
    ]
