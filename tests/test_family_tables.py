"""A formal check of the factor-family and translation rows over the
restricted orbit.

decomp.FAMILY_ROWS, translate.OFF_WALL_ROWS and lattice.restricted_orbit
are evaluated on affine forms in (l, p, q), where (p, q) parametrize the
restricted weights of one facet.  A comparison of two forms is decided
at the vertices of the facet's parameter triangle, whose coordinates are
affine in l, for every l >= L0: an affine function is >= 0 on a triangle when it is >= 0 at the
vertices.  A comparison that the vertices do not decide raises.  So each
check here holds for every l >= L0 and every restricted weight of the
facet, and on the families of every classical part, since each factor is
l*(c + delta) plus an orbit point.

The checks: every orbit point is restricted and lies in one facet; the
Z-hat identity times A(rho) cancels formally,

    D = sum_i e(l(delta_i + rho)) N(r_i) - e(r + rho) A(l rho) = 0,

with N(r) = A(rho) ch L(r) the numerator of restricted_simple_numerator
(ROADMAP Findings: D = 0 gives the decomposition identity for every
classical part), and below L0 it is checked on every restricted weight;
duality holds on every facet's rows and edge table, so the dual module's
graph is the reverse of lam's (validate_graph leaves this to tier-1, and
oracles.duality_diff sweeps the built graphs, l = 2 and 3 included); the
wall swap holds on the rows; the translation rows give the printed
off-wall tables of tests/oracles.py, and below L0 they are checked against
those tables case by case.
"""

import itertools

import pytest

from qgl3 import decomp, ext, structure, translate
from qgl3.charring import alt_weyl_sum, restricted_simple_numerator
from qgl3.lattice import FacetType, Weight, classify_restricted, restricted_orbit

import oracles

L0 = 4


class Form:
    """c[0] + c[1]*l + c[2]*p + c[3]*q on one facet's parameter triangle,
    whose vertices are pairs of (constant, l coefficient) coordinates."""

    __slots__ = ("c", "verts")

    def __init__(self, c, verts):
        self.c, self.verts = tuple(c), verts

    def _form(self, x):
        return x if isinstance(x, Form) else Form((x, 0, 0, 0), self.verts)

    def __add__(self, x):
        return Form([u + v for u, v in zip(self.c, self._form(x).c)], self.verts)

    __radd__ = __add__

    def __neg__(self):
        return Form([-u for u in self.c], self.verts)

    def __sub__(self, x):
        return self + -self._form(x)

    def __rsub__(self, x):
        return self._form(x) - self

    def __mul__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        return Form([k * u for u in self.c], self.verts)

    __rmul__ = __mul__

    def _sign(self):
        """1 if self >= 0 on the triangle for every l >= L0, -1 if self < 0
        there, 0 if neither."""
        at = [
            (self.c[0] + self.c[2] * p0 + self.c[3] * q0, self.c[1] + self.c[2] * pl + self.c[3] * ql)
            for (p0, pl), (q0, ql) in self.verts
        ]
        if all(v + k * L0 >= 0 and k >= 0 for v, k in at):
            return 1
        if all(v + k * L0 < 0 and k <= 0 for v, k in at):
            return -1
        return 0

    def _holds(self):
        """self >= 0, decided on the whole triangle."""
        sign = self._sign()
        assert sign, f"the sign of {self!r} varies on {self.verts}"
        return sign > 0

    def __ge__(self, x):
        return (self - x)._holds()

    def __le__(self, x):
        return (self._form(x) - self)._holds()

    def __gt__(self, x):
        return (self - x - 1)._holds()

    def __lt__(self, x):
        return (self._form(x) - self - 1)._holds()

    def __eq__(self, x):
        """True for the same form, False for one that differs everywhere on
        the triangle; AssertionError otherwise."""
        d = self - x
        if not any(d.c):
            return True
        assert (d - 1)._sign() > 0 or d._sign() < 0, f"{d!r} vanishes on part of {self.verts}"
        return False

    def __hash__(self):
        return hash(self.c)

    def __repr__(self):
        return "+".join(f"{c}{v}" for c, v in zip(self.c, ("", "l", "p", "q")) if c) or "0"


def _facets():
    """(facet, l, res) per facet, res as forms in (p, q) on the facet's
    parameter triangle; a vertex coordinate (n, m) stands for n + m*l."""
    o, top = (0, 0), (-2, 1)
    triangles = {
        FacetType.VERTEX: ([(o, o)], lambda l, p, q: (l - 1, l - 1)),
        FacetType.RIGHT_WALL: ([(o, o), (o, top)], lambda l, p, q: (l - 1, q)),
        FacetType.LEFT_WALL: ([(o, o), (top, o)], lambda l, p, q: (p, l - 1)),
        FacetType.HORIZONTAL_WALL: ([(o, o), (top, o)], lambda l, p, q: (p, l - 2 - p)),
        FacetType.DOWN_ALCOVE: ([(o, o), ((-3, 1), o), (o, (-3, 1))], lambda l, p, q: (p, q)),
        FacetType.UP_ALCOVE: ([(top, (1, 0)), ((1, 0), top), (top, top)], lambda l, p, q: (p, q)),
    }
    for facet, (verts, res) in triangles.items():
        l, p, q = (Form(c, verts) for c in ((0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)))
        yield facet, l, res(l, p, q)


FACETS = list(_facets())
FORMS = {facet: (l, res) for facet, l, res in FACETS}
IDS = [facet.value for facet, _, _ in FACETS]
ALCOVES = (FacetType.DOWN_ALCOVE, FacetType.UP_ALCOVE)
WALLS = (FacetType.HORIZONTAL_WALL, FacetType.RIGHT_WALL, FacetType.LEFT_WALL)


def _family(cls, res, l):
    """decomp.family_pairs's rows on forms: the factors as (classical, restricted)
    pairs, the classical parts plain ints."""
    facet, points = restricted_orbit(res, l)
    return facet, [((cls[0] + da, cls[1] + db), points[k]) for da, db, k in decomp.FAMILY_ROWS[facet]]


def _split(x, l):
    """(k, x - k*l) with 0 <= x - k*l <= l-1 on the whole triangle."""
    for k in range(-3, 4):
        y = x - k * l
        if 0 <= y <= l - 1:
            return k, y
    raise AssertionError(f"{x!r} has no constant l-adic split")


def _translate(key, cls, res, l):
    """translate.off_wall_pairs's rows on forms: the entries as (classical,
    restricted) pairs, the classical parts plain ints."""
    _, points = restricted_orbit(res, l)
    return [((cls[0] + da, cls[1] + db), points[k]) for da, db, k in translate.OFF_WALL_ROWS[key]]


@pytest.mark.parametrize("facet, l, res", FACETS, ids=IDS)
def test_orbit_points_are_restricted_in_one_facet(facet, l, res):
    got, points = restricted_orbit(res, l)
    assert got is facet
    # every point is restricted, and its facet is the same on the triangle
    facets = tuple(classify_restricted(p, l) for p in points)
    if facet in ALCOVES:
        assert facets == ALCOVES * 3
        assert points[0 if facet is FacetType.DOWN_ALCOVE else 5] == res
    elif facet in WALLS:
        assert facets == WALLS and points[WALLS.index(facet)] == res
    # factor 1 (4 in the up alcove) is lam itself
    _, family = _family((0, 0), res, l)
    assert family[3 if facet is FacetType.UP_ALCOVE else 0] == ((0, 0), res)


def _zhat_defect(res, l, key):
    """The nonzero terms of D(r) for r = res, each exponent read by key:
    sum_i e(l(delta_i + rho)) N(r_i) - e(r + rho) A(l rho)."""
    d = {}

    def add(x, shift, sign):
        for (a, b), c in x.coeffs.items():
            k = (key(a + shift[0]), key(b + shift[1]))
            d[k] = d.get(k, 0) + sign * c

    _, family = _family((0, 0), res, l)
    for (da, db), point in family:
        add(restricted_simple_numerator(point, l), (l * (da + 1), l * (db + 1)), 1)
    add(alt_weyl_sum(Weight(l, l)), (res[0] + 1, res[1] + 1), -1)
    return {k: c for k, c in d.items() if c}


@pytest.mark.parametrize("facet, l, res", FACETS, ids=IDS)
def test_zhat_identity_cancels_formally(facet, l, res):
    assert not _zhat_defect(res, l, lambda form: form.c)


@pytest.mark.parametrize("l", [2, 3])
def test_zhat_identity_cancels_below_l0(l):
    """D(r) = 0 at every restricted r for l < L0, on ints; with the formal
    check, the decomposition identity holds for every classical part at
    every l, which the chi_l bookkeeping of survivors-net and of the
    translate suite rests on (their mirror and image weights lie outside
    the swept box)."""
    for res in itertools.product(range(l), repeat=2):
        assert not _zhat_defect(res, l, int), res


# Dualizing the Borel-induced module of lam, whose restricted part lies in
# facet f, gives the module of 2(l-1)rho - lam, in facet DUALS[f][0], and
# sends factor i of lam's family to factor sigma(i) of the dual family,
# sigma = DUALS[f][1]: each wall and the vertex are self-dual, the walls
# reversing their socle-first order, and the alcoves are each other's dual
# by decomp.DUAL_POSITION.
DUALS = {
    FacetType.VERTEX: (FacetType.VERTEX, {1: 1}),
    **{wall: (wall, {i: 5 - i for i in range(1, 5)}) for wall in WALLS},
    FacetType.DOWN_ALCOVE: (FacetType.UP_ALCOVE, decomp.DUAL_POSITION),
    FacetType.UP_ALCOVE: (FacetType.DOWN_ALCOVE, decomp.DUAL_POSITION),
}


def _dual_rows_hold(facet, l, res, sigma):
    """hat_dual_pair(l*c + (x, y)) = -l*c + (y, x) sends factor i of lam's
    family to factor sigma[i] of the family of 2(l-1)rho - lam, whose
    restricted part lies in the dual facet."""
    _, family = _family((0, 0), res, l)
    (ca, ra), (cb, rb) = (_split(2 * l - 2 - x, l) for x in res)
    dual_facet, dual = _family((ca, cb), (ra, rb), l)
    assert dual_facet is DUALS[facet][0]
    return all(
        dual[sigma[i] - 1] == ((-a, -b), (y, x))
        for i, ((a, b), (x, y)) in enumerate(family, start=1)
    )


def _dual_edges_hold(facet, sigma):
    """Dualizing reverses the extensions: the edges of the dual facet's
    table are the edges of facet's table, reversed and renumbered by sigma."""
    reversed_edges = {(sigma[v], sigma[u]) for u, v in ext.ZHAT_EDGES[facet]}
    return reversed_edges == set(ext.ZHAT_EDGES[DUALS[facet][0]])


@pytest.mark.parametrize("facet, l, res", FACETS, ids=IDS)
def test_dual_position_on_the_rows(facet, l, res):
    """For every l >= L0 and every restricted weight of the facet, the dual
    map sends factor i of lam's family to factor sigma(i) of the dual
    family: with test_dual_position_reverses_the_edges, the dual module's
    graph is the reverse of lam's, which validate_graph does not check per
    graph; oracles.duality_diff sweeps the built graphs, l = 2 and 3 too."""
    assert _dual_rows_hold(facet, l, res, DUALS[facet][1])


@pytest.mark.parametrize("facet", list(DUALS), ids=[facet.value for facet in DUALS])
def test_dual_position_reverses_the_edges(facet):
    assert _dual_edges_hold(facet, DUALS[facet][1])


@pytest.mark.parametrize("facet, l, res", FACETS[1:4], ids=IDS[1:4])
def test_a_wrong_wall_sigma_fails_the_duality_checks(facet, l, res):
    """The row check is not vacuous on the walls: sigma = id, or 5 - i with
    the two middle factors left in place, fails it (on the horizontal wall
    the latter keeps the diamond's edges)."""
    for sigma in ({i: i for i in range(1, 5)}, {1: 4, 2: 2, 3: 3, 4: 1}):
        assert not _dual_rows_hold(facet, l, res, sigma)
    assert not _dual_edges_hold(facet, {i: i for i in range(1, 5)})


@pytest.mark.parametrize("facet, l, res", FACETS[1:3], ids=IDS[1:3])
def test_wall_swap_on_the_rows(facet, l, res):
    """The coordinate swap sends factor i of a right-wall family to factor i
    of the swapped, left-wall family, and back."""
    _, family = _family((2, 5), res, l)
    swapped_facet, swapped = _family((5, 2), (res[1], res[0]), l)
    assert {facet, swapped_facet} == {FacetType.RIGHT_WALL, FacetType.LEFT_WALL}
    assert swapped == [((b, a), (y, x)) for (a, b), (x, y) in family]


OFF_WALL_KEYS = [key for key in translate.OFF_WALL_ROWS if not key[0]]


@pytest.mark.parametrize(
    "key", OFF_WALL_KEYS, ids=[f"{src.value}->{tgt.value}" for _, src, tgt in OFF_WALL_KEYS]
)
def test_off_wall_rows_give_the_printed_tables(key):
    """For l >= L0, on the target facet's triangle, the rows give the
    printed off-wall table of a source of the key's wall facet."""
    _, src, tgt = key
    l, res = FORMS[tgt]
    mu_res = {
        FacetType.RIGHT_WALL: (l - 1, 1),
        FacetType.LEFT_WALL: (1, l - 1),
        FacetType.HORIZONTAL_WALL: (1, l - 3),
    }[src]
    assert _translate(key, (2, 5), res, l) == oracles.off_wall_pairs((2, 5), mu_res, res, l)


def test_left_wall_rows_are_the_swap_of_the_right_wall_rows():
    """The coordinate swap sends the rows of every key, evaluated on its
    target facet's triangle, to the rows of the swapped key."""
    swap = {FacetType.RIGHT_WALL: FacetType.LEFT_WALL, FacetType.LEFT_WALL: FacetType.RIGHT_WALL}
    for key in translate.OFF_WALL_ROWS:
        is_l2, src, tgt = key
        swapped = (is_l2, swap.get(src, src), swap.get(tgt, tgt))
        l, res = FORMS[tgt]
        want = [((b, a), (y, x)) for (a, b), (x, y) in _translate(key, (2, 5), res, l)]
        assert _translate(swapped, (5, 2), (res[1], res[0]), l) == want, key


@pytest.mark.parametrize("l", [2, 3])
def test_off_wall_rows_below_l0(l):
    """Below L0, every restricted (source, target) pair and classical part
    in [-2, 3]^2: off_wall_pairs gives the printed table's entries, or
    a ValueError where no printed table covers the pair."""
    restricted = list(itertools.product(range(l), repeat=2))
    for mu_res, target_res in itertools.product(restricted, repeat=2):
        for c in itertools.product(range(-2, 4), repeat=2):
            want = oracles.off_wall_pairs(c, mu_res, target_res, l)
            if want is None:
                with pytest.raises(ValueError, match="unsupported translation"):
                    translate.off_wall_pairs(c, mu_res, target_res, l)
            else:
                got = translate.off_wall_pairs(c, mu_res, target_res, l)
                assert list(got) == want, (mu_res, target_res, c)


def test_tables_agree_on_their_positions():
    """Per facet, the family has one row per position of the structure
    graph, each row reads a point of the orbit, and every position that the
    Ext tables, the filtration tables and DUAL_POSITION read is one of
    them; every translation row reads a point of its target's orbit."""

    def positions(edges):
        return {p for pair in edges for p in pair}

    for facet, l, res in FACETS:
        rows = decomp.FAMILY_ROWS[facet]
        edges, layers = structure._ZHAT_TABLES[facet]
        assert sorted(layers) == list(range(1, len(rows) + 1)), facet
        assert positions(edges) | positions(ext._PAIRS_BY_FACET[facet]) <= set(layers), facet
        _, points = restricted_orbit(res, l)
        assert all(0 <= k < len(points) for _, _, k in rows), facet
    nine = set(range(1, 10))
    assert set(decomp.DUAL_POSITION) == set(decomp.DUAL_POSITION.values()) == nine
    for edges, layers in structure._NINE_FACTOR_TABLES.values():
        assert set(layers) == nine and positions(edges) <= nine
    for drop, add, drop2, add2 in (structure._DOWN_EDITS, structure._UP_EDITS):
        assert positions((drop, drop2, *add, *add2)) <= nine
    four = set(range(1, len(decomp.FAMILY_ROWS[FacetType.RIGHT_WALL]) + 1))
    for edges, layers in (structure._NABLA_WALL_CHAIN, structure._NABLA_WALL_DIAMOND):
        assert set(layers) == four and positions(edges) <= four
    for (_, _, tgt), rows in translate.OFF_WALL_ROWS.items():
        l, res = FORMS[tgt]
        _, points = restricted_orbit(res, l)
        assert all(0 <= k < len(points) for _, _, k in rows), tgt
