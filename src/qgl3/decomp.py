"""Character decomposition of induced modules into twisted-tensor factors.

chi_decomposition writes the induced character of a dominant weight as a
signed sum of chi_l terms, one family of factor weights per facet type;
its positions, which net_terms gives by bookkeeping, pick the genuine
modules among them.
zhat_factors gives the composition factors of the modules induced from the
Borel to the first-kernel thickening, zhat_char their l^3-dimensional
character, summed afresh on each call, and zhat_numerator is zhat_char
times the Weyl denominator A(rho).  Both identities rest on one
numerator identity per residue r, D(r) = 0: the zhat suite checks the sum
of simples times A(rho), a sum of numerators, at most 12 terms per factor,
and the decomposition suite proves the sum of chi_l terms of l*c + r from
D(r) = 0 and the shift of r's family by l*c, expanding no chi_l.  The
surviving terms need no second sum: the chi_l(l*d + r) with
d dominant are linearly independent, so the survivors sum to the induced
character exactly when they are, with multiplicity, the nonzero net_terms
of the family (validate_graph's survivors-net, and the translate suite).
nabla_terms writes weyl(k) on those keys, the net terms of k's family:
k at count 1 and every other key at a smaller a + b.  So the identity is
unitriangular, and weyl_of_chi_l inverts it by charring.peel_dominant,
turning any {k: n} on chi_l keys into its Weyl-basis form; that is how
translate.translated_character gets its character without expanding a
chi_l, and verify's translate suite reads nabla_terms as it is.

Both lists are read off one factor family per (lam, l), and family_pairs
is its one builder: FAMILY_ROWS writes each facet's family as rows over
lattice.restricted_orbit(r, l), so the family of l*c + r is l*c plus the
family of r, the one assumption under which the zhat identity at c = 0
gives the decomposition identity for every classical part
(tests/test_family_tables.py proves it formally).  DUAL_POSITION renumbers
an alcove family under duality; test_dual_position_on_the_rows and
test_dual_position_reverses_the_edges there prove, for every facet and
l >= 4, that the dual module's graph is the reverse of lam's, so
validate_graph does not check duality.  family_pairs returns the factors
as int pairs; a Weight is built only where a list leaves the engine:
chi_decomposition wraps each factor once, into the DecompResult it
memoizes, zhat_factors wraps a list of its own, and factor_family wraps the
list of a non-dominant weight.  The decomposition and zhat suites read the
int pairs of family_pairs, without the memo, looking it up in this module
at call time.  One in-process memo keyed on (a, b, l) holds
chi_decomposition's DecompResult, which carries the Borel-induced list that
factor_family returns for a dominant weight and the surviving positions,
bookkeeping on the factors done when the result is built; so the structure
graphs, the translation tables and the Ext tables of a weight share one
copy.  The memoized values
(a frozen DecompResult and its tuples) are shared and immutable; the memo
only grows, and nothing persists between runs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import product

from qgl3.charring import (
    FormalChar,
    char_sum,
    chi_l,
    chi_l_dimension,
    peel_dominant,
)
from qgl3.lattice import (
    FacetType,
    POSITIVE_ROOTS,
    Weight,
    check_level,
    dominantize,
    restricted_orbit,
)

_CASE_BY_FACET = {
    FacetType.VERTEX: "i",
    FacetType.RIGHT_WALL: "ii",
    FacetType.LEFT_WALL: "iii",
    FacetType.HORIZONTAL_WALL: "iv",
    FacetType.DOWN_ALCOVE: "v",
    FacetType.UP_ALCOVE: "vi",
}
_WALLS = (FacetType.RIGHT_WALL, FacetType.LEFT_WALL, FacetType.HORIZONTAL_WALL)


# The factor families as rows (da, db, k) over restricted_orbit(res, l): for
# lam = l*c + res, factor i is l*(c + (da, db)) + points[k], in subscript
# order for the alcoves (factor 1, resp. 4, is lam itself) and socle first
# on the walls (factor 1 is lam itself).  The left-wall rows are the
# right-wall rows under the coordinate swap, which fixes rho, dominance and
# the split lam = l*c + res.
FAMILY_ROWS = {
    FacetType.VERTEX: ((0, 0, 0),),
    FacetType.RIGHT_WALL: ((0, 0, 1), (-1, 0, 0), (1, -1, 0), (0, -1, 2)),
    FacetType.LEFT_WALL: ((0, 0, 2), (0, -1, 0), (-1, 1, 0), (-1, 0, 1)),
    FacetType.HORIZONTAL_WALL: ((0, 0, 0), (-1, 0, 2), (0, -1, 1), (-1, -1, 0)),
    FacetType.DOWN_ALCOVE: (
        (0, 0, 0), (0, -1, 1), (0, -2, 2), (-1, 0, 3), (-2, 0, 4),
        (0, -1, 4), (-1, -1, 0), (-1, 0, 2), (-1, -1, 5),
    ),
    FacetType.UP_ALCOVE: (
        (-1, 1, 4), (-1, 0, 3), (-1, -1, 0), (0, 0, 5), (-1, 0, 2),
        (1, -1, 2), (0, -1, 4), (0, 0, 0), (0, -1, 1),
    ),
}


# Dualizing the Borel-induced module of lam sends factor i of either alcove
# family of lam, by homs.hat_dual_pair, to factor DUAL_POSITION[i] of the
# family of 2(l-1)rho - lam, which lies in the other alcove.  An involution,
# proven on the rows in tier-1 and not rechecked per graph.
DUAL_POSITION = {1: 3, 2: 2, 3: 1, 4: 9, 5: 6, 6: 5, 7: 8, 8: 7, 9: 4}


@dataclass(frozen=True, slots=True)
class DecompResult:
    lam: Weight
    l: int
    facet: FacetType
    factors: tuple[Weight, ...]
    # factor_family(lam, l)
    _family: tuple[FacetType, tuple[Weight, ...]] = field(repr=False, compare=False)
    # the surviving positions: the factors with a positive net_terms count
    positions: tuple[int, ...] = field(repr=False, compare=False)

    @property
    def case_id(self) -> str:
        return _CASE_BY_FACET[self.facet]

    def character(self) -> FormalChar:
        """Sum of the chi_l terms in the weight basis (the oracle route)."""
        return char_sum(chi_l(f, self.l) for f in self.factors)

    def nonzero_flags(self) -> list[bool]:
        """Per factor: is its chi_l term nonzero, of nonzero dimension."""
        return [chi_l_dimension(f, self.l) != 0 for f in self.factors]

    def surviving_factors(self) -> list[Weight]:
        """Factors that are genuine twisted-tensor modules of the filtration."""
        return [self.factors[i - 1] for i in self.positions]

    def to_json(self) -> str:
        return json.dumps(
            {
                "lambda": list(self.lam),
                "l": self.l,
                "case": self.case_id,
                "factors": [list(f) for f in self.factors],
                "nonzero": self.nonzero_flags(),
            }
        )


def net_terms(factors: tuple[tuple[int, int], ...], l: int) -> dict[tuple[int, int], int]:
    """The chi_l terms of a factor list collected as {k: n}, n != 0, with
    the sum of chi_l(f) over the factors = the sum of n * chi_l(k); the one
    place where the survivor rule is written.  A factor with a, b >= 0 is
    its own key.  Any other l*c + r is dropped when c is singular (c + rho
    pairs to zero with a root), as nearly all are, before dominantize
    builds a Weight; else it goes to l*c' + r with the sign s of
    dominantize(c) = (s, c').  Every key is dominant."""
    check_level(l)
    net: dict[tuple[int, int], int] = {}
    for f in factors:
        sign, key = 1, f
        if f[0] < 0 or f[1] < 0:
            ca, ra = divmod(f[0], l)
            cb, rb = divmod(f[1], l)
            if ca == -1 or cb == -1 or ca + cb == -2:
                continue
            sign, (da, db) = dominantize((ca, cb))
            key = (l * da + ra, l * db + rb)
        net[key] = net.get(key, 0) + sign
    return {k: n for k, n in net.items() if n}


def nabla_terms(mu: tuple[int, int], l: int) -> dict[tuple[int, int], int]:
    """The induced character of a dominant mu on chi_l keys, weyl(mu) = the
    sum of n * chi_l(k) over this {k: n}: the net_terms of mu's family,
    read off family_pairs looked up at call time.  The identity holds since
    D(r) = 0; it is unitriangular, mu at count 1 and every other key at a
    smaller a + b, which peel_dominant checks on each key it peels."""
    return net_terms(family_pairs(mu, l)[1], l)


def weyl_of_chi_l(net: dict[tuple[int, int], int], l: int) -> dict[tuple[int, int], int]:
    """The Weyl-basis form, keyed by int pairs, of the sum of n * chi_l(k)
    over net = {k: n} on dominant chi_l keys: charring.peel_dominant in the
    basis nabla_terms, the inverse of the decomposition identity.  A
    non-dominant key, or a family that is not unitriangular on chi_l keys,
    is peel_dominant's ValueError naming the key."""
    return peel_dominant(net, lambda k: nabla_terms(k, l))


def factor_family(lam: Weight, l: int) -> tuple[FacetType, tuple[Weight, ...]]:
    """Facet of the restricted part of lam and the composition-factor
    weights of the Borel-induced module of weight lam, wall cases socle
    first.

    For dominant lam this is read off the memoized chi_decomposition(lam),
    which the filtration, translation, graph and Ext consumers share; the
    returned tuple is shared.  The list of a non-dominant weight is built
    on each call.
    """
    if lam[0] >= 0 and lam[1] >= 0:
        return chi_decomposition(lam, l)._family
    facet, factors = family_pairs(lam, l)
    return facet, _as_weights(factors)


def family_pairs(lam: tuple[int, int], l: int) -> tuple[FacetType, tuple[tuple[int, int], ...]]:
    """The one builder of the factor families: the facet of lam's restricted
    part and the rows of that facet evaluated on the restricted orbit, each
    factor an int pair.  Its readers look it up here at call time."""
    check_level(l)
    a, r = divmod(lam[0], l)
    b, s = divmod(lam[1], l)
    facet, points = restricted_orbit((r, s), l)
    la, lb = l * a, l * b
    factors = []
    for da, db, k in FAMILY_ROWS[facet]:
        x, y = points[k]
        factors.append((la + l * da + x, lb + l * db + y))
    return facet, tuple(factors)


def _as_weights(factors) -> tuple[Weight, ...]:
    return tuple(Weight(a, b) for a, b in factors)


def check_positions(lam: Weight, l: int, factors: tuple[Weight, ...], top: int) -> None:
    """ValueError naming lam, l and the first missing position when a table
    that reads positions up to top meets a shorter factor list."""
    if len(factors) < top:
        raise ValueError(f"factor list of {Weight(*lam)} (l={l}) has no position "
                         f"{len(factors) + 1} of {top}: {[tuple(f) for f in factors]}")


_decompositions: dict[tuple[int, int, int], DecompResult] = {}


def chi_decomposition(lam: Weight, l: int) -> DecompResult:
    """Factor weights of the good twisted-tensor filtration of the induced
    module of highest weight lam, raw (vanishing chi_l entries included).

    They are the composition-factor weights of the Borel-induced module of
    weight lam; the wall cases are listed the other way round, highest
    layer first.  Memoized on (lam, l), with the surviving positions; the
    result is shared and never modified.  zhat_factors gives the same list
    for a dominant lam, reversed on the walls, without the memo.
    """
    key = (lam[0], lam[1], l)
    hit = _decompositions.get(key)
    if hit is not None:
        return hit
    if type(lam) is not Weight:
        lam = Weight(*lam)
    if not lam.is_dominant():
        raise ValueError(f"chi_decomposition needs a dominant weight, got {lam}")
    facet, pairs = family_pairs(lam, l)
    family = _as_weights(pairs)
    factors = family[::-1] if facet in _WALLS else family
    net = net_terms(factors, l)
    positions = tuple(i for i, f in enumerate(factors, start=1) if net.get(f, 0) > 0)
    result = _decompositions[key] = DecompResult(lam, l, facet, factors, (facet, family), positions)
    return result


def zhat_factors(lam: Weight, l: int) -> list[Weight]:
    """Composition-factor weights of the Borel-induced module of weight lam.

    The classical part of lam may be arbitrary; the case split depends only
    on the restricted part.  Wall cases are listed socle first.  Built on
    each call, without the memo, as a list of its own.
    """
    return [Weight(a, b) for a, b in family_pairs(lam, l)[1]]


_ROOT_VECTORS = tuple(root.vector for root in POSITIVE_ROOTS)


def zhat_char(lam: Weight, l: int) -> FormalChar:
    """Character e(lam) * prod over positive roots of (1 + e(-root) + ... +
    e(-(l-1) root)); total dimension l^3, summed term by term over the
    exponents (i, j, k) in [0, l)^3 on each call."""
    check_level(l)
    (a1, b1), (a2, b2), (a3, b3) = _ROOT_VECTORS
    a, b = lam
    out: dict[tuple[int, int], int] = {}
    for i, j, k in product(range(l), repeat=3):
        w = (a - i * a1 - j * a2 - k * a3, b - i * b1 - j * b2 - k * b3)
        out[w] = out.get(w, 0) + 1
    return FormalChar(out)


def zhat_numerator(lam: Weight, l: int) -> FormalChar:
    """zhat_char(lam, l) * A(rho), where A(rho) = alt_weyl_sum(RHO): each
    geometric series times its factor 1 - e(-root) of A(rho) telescopes,
    leaving e(lam + rho) * prod over positive roots of (1 - e(-l root)).

    The product is expanded term by term, eight terms of which two cancel.
    """
    check_level(l)
    a, b = lam
    out = {(a + 1, b + 1): 1}  # e(lam + rho)
    for da, db in _ROOT_VECTORS:
        for (x, y), c in list(out.items()):
            k = (x - l * da, y - l * db)
            out[k] = out.get(k, 0) - c
    return FormalChar(out)
