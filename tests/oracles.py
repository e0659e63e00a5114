"""The slow routes the tests compare the engine's fast ones against.

The engine checks its character identities in the basis of induced
characters (chi_l_weyl) or times the Weyl denominator (the zhat suite); the
functions here build the same characters weight by weight, as independent
oracles, and the engine never takes them.  They read each restricted simple
character and each chi_l many times, so restricted_simple and chi_l are
memoized here, not in the engine; no test patches what either reads
(lattice.decompose, the charring constructors, the kernels) and then calls
an oracle here, so a memoized value is always the clean one.  The engine
builds the wall factor families by int arithmetic; wall_family is the
Weight-arithmetic route.  The engine does not check duality per graph, as
tier-1 proves it on the tables; duality_diff checks it on built graphs.
The engine evaluates every factor family as rows over the restricted
orbit; the
written-out alcove families, down_alcove_family and up_alcove_family, are
kept here beside wall_family as their oracle, and so are the up-alcove
mirror's closed form and the printed off-wall translation tables
(off_wall_pairs), which the engine reads off the orbit too.  The engine
derives the alcove Ext pairs from the graph edges, the up-alcove tables
from the down-alcove ones by duality, and every diagram's layers from its
edges; the printed tables are kept here.  The engine reads each graph's
node ids, layers and kept edges off a skeleton compiled once per table and
kept positions; direct_build derives them from the table on each call.  The
engine reduces a weight to the fundamental alcove by comparisons on ints;
fundamental_rep_by_sorting and apply_inverse_by_loop are the sorted-index
and per-entry transcriptions of that closed form.
"""

import functools
from collections import Counter

from qgl3.charring import (
    FormalChar,
    char_sum,
    euler_char,
    frobenius_twist,
    peel_dominant,
    restricted_simple_char,
)
from qgl3.homs import hat_dual_pair
from qgl3.lattice import (
    RHO,
    AffineWeylElement,
    FacetType,
    Weight,
    classify_restricted,
    decompose,
    dual_weight,
)
from qgl3.decomp import check_positions
from qgl3.structure import G1B_SIMPLE, GraphNode, ModuleGraph, _IDS, zhat_structure


@functools.cache
def restricted_simple(res: Weight, l: int) -> FormalChar:
    """restricted_simple_char(res, l), built once per (res, l)."""
    return restricted_simple_char(res, l)


def shift(x: FormalChar, w: Weight) -> FormalChar:
    """x * e(w): every support weight moved by w, without a convolution."""
    a, b = w
    return FormalChar({(p + a, q + b): c for (p, q), c in x.coeffs.items()})


@functools.cache
def chi_l(mu: Weight, l: int) -> FormalChar:
    """charring.chi_l, built once per (mu, l) from the memoized restricted
    simple character: the twisted euler_char of the classical part times
    L(restricted part)."""
    cls, res = decompose(mu, l)
    eu = euler_char(cls)
    if not eu:
        return FormalChar()
    return frobenius_twist(eu, l) * restricted_simple(res, l)


def hat_simple_char(nu: Weight, l: int) -> FormalChar:
    """Character of the simple thickened-kernel module of weight nu: the
    restricted simple character shifted by the twisted classical part."""
    cls, res = decompose(nu, l)
    return shift(restricted_simple(res, l), l * cls)


def chi_l_expansion(x: FormalChar, l: int) -> list[tuple[Weight, int]]:
    """Expand a W-invariant character in the chi_l basis by peel_dominant;
    valid for characters of modules with a good twisted-tensor filtration
    and their virtual combinations.  Terms come out leading weight first,
    each weight a Weight."""
    terms = peel_dominant(x.coeffs, lambda k: chi_l(k, l).coeffs)
    return [(Weight(*k), c) for k, c in terms.items()]


def graph_character(g) -> FormalChar:
    """Sum of the node characters of a structure graph: thickened-kernel
    simples for a Borel-induced module, chi_l terms for a filtration."""
    node_char = hat_simple_char if g.kind == G1B_SIMPLE else chi_l
    return char_sum(node_char(n.weight, g.l) for n in g.nodes)


def off_wall_character(entry, l: int) -> FormalChar:
    """Weight-basis character of an off_wall_pairs entry (classical part,
    restricted part): zero when it vanishes, else chi_l of its weight."""
    cls, res = Weight(*entry[0]), Weight(*entry[1])
    if not cls.is_dominant():
        return FormalChar()
    return chi_l(l * cls + res, l)


def right_wall_family(cls: Weight, r: int, l: int) -> tuple[Weight, ...]:
    """The four factor weights for lam = l*cls + (l-1, r), socle first, by
    Weight arithmetic."""
    s = l - r - 2
    return (
        l * cls + Weight(l - 1, r),
        l * (cls - Weight(1, 0)) + Weight(r, s),
        l * (cls + Weight(1, -1)) + Weight(r, s),
        l * (cls - Weight(0, 1)) + Weight(s, l - 1),
    )


def wall_family(lam: Weight, l: int) -> tuple[Weight, ...]:
    """The factor family of a wall weight, socle first, by Weight
    arithmetic; the left wall is the coordinate swap of the right wall."""
    cls, res = decompose(lam, l)
    facet = classify_restricted(res, l)
    if facet is FacetType.RIGHT_WALL:
        return right_wall_family(cls, res[1], l)
    if facet is FacetType.LEFT_WALL:
        return tuple(dual_weight(w) for w in right_wall_family(dual_weight(cls), res[0], l))
    assert facet is FacetType.HORIZONTAL_WALL, (lam, l, facet)
    r, s = res
    return (
        lam,
        l * (cls - Weight(1, 0)) + Weight(s, l - 1),
        l * (cls - Weight(0, 1)) + Weight(l - 1, r),
        l * (cls - Weight(1, 1)) + Weight(r, s),
    )


def up_alcove_mirror(res: Weight, l: int) -> Weight:
    """Mirror (l-v-2, l-u-2) of an up-alcove restricted weight (u, v) in the
    alcove below, its reflection in the rho wall at level l, by the closed
    form."""
    u, v = res
    return Weight(l - v - 2, l - u - 2)


def down_alcove_family(cls: Weight, res: Weight, l: int) -> tuple[Weight, ...]:
    """The nine factor weights for lam = l*cls + res with res in the open
    fundamental alcove, in subscript order (factor 1 is lam itself)."""
    a, b = cls
    r, s = res
    la, lb = l * a, l * b
    return (
        Weight(la + r, lb + s),
        Weight(la + r + s + 1, lb - s - 2),
        Weight(la + l - r - s - 3, lb - 2 * l + r),
        Weight(la - r - 2, lb + r + s + 1),
        Weight(la - 2 * l + s, lb + l - r - s - 3),
        Weight(la + s, lb - r - s - 3),
        Weight(la - l + r, lb - l + s),
        Weight(la - r - s - 3, lb + r),
        Weight(la - s - 2, lb - r - 2),
    )


def up_alcove_family(cls: Weight, res: Weight, l: int) -> tuple[Weight, ...]:
    """The nine factor weights for lam = l*cls + (l-s-2, l-r-2), subscript
    order (factor 4 is lam itself)."""
    a, b = cls
    r, s = up_alcove_mirror(res, l)
    la, lb = l * a, l * b
    return (
        Weight(la - l + s, lb + 2 * l - r - s - 3),
        Weight(la - r - 2, lb + r + s + 1),
        Weight(la - l + r, lb - l + s),
        Weight(la + l - s - 2, lb + l - r - 2),
        Weight(la - r - s - 3, lb + r),
        Weight(la + 2 * l - r - s - 3, lb - l + r),
        Weight(la + s, lb - r - s - 3),
        Weight(la + r, lb + s),
        Weight(la + r + s + 1, lb - s - 2),
    )


def off_wall_pairs(c, mu_res, target_res, l):
    """translate.off_wall_pairs as the printed case tables: the (classical,
    restricted) pairs of the translate of the factor with classical part c
    and wall-type restricted part mu_res toward target_res, top layer first,
    or None where no table covers the combination.  The l = 2 tables are
    read by weight; a left-wall source is the coordinate swap of the
    right-wall table.  The arithmetic is on the given coordinates alone, so
    it also runs on test_family_tables' affine forms."""
    src = classify_restricted(mu_res, l)
    tgt = classify_restricted(target_res, l)
    if src is FacetType.LEFT_WALL:
        pairs = off_wall_pairs(c[::-1], mu_res[::-1], target_res[::-1], l)
        return None if pairs is None else [(x[::-1], r[::-1]) for x, r in pairs]
    ca, cb = c
    up, left, down = (ca + 1, cb), (ca - 1, cb + 1), (ca, cb - 1)
    if l == 2:
        key = (tuple(mu_res), tuple(target_res))
        if key == ((1, 0), (0, 0)):
            return [(c, (0, 1)), (up, (0, 0)), (left, (0, 0)), (down, (0, 0)), (c, (0, 1))]
        if key in (((0, 0), (1, 0)), ((0, 0), (0, 1))):
            return [(c, target_res)]
        if key == ((1, 0), (0, 1)):
            return [(c, (0, 0))]
        return None
    if src is FacetType.RIGHT_WALL and tgt is FacetType.DOWN_ALCOVE:
        a, b = target_res
        return [
            (c, (l - a - 2, a + b + 1)),
            (up, target_res),
            (left, target_res),
            (down, target_res),
            (c, (l - a - b - 3, a)),
            (c, (l - a - 2, a + b + 1)),
        ]
    if src is FacetType.HORIZONTAL_WALL and tgt is FacetType.UP_ALCOVE:
        mirror = up_alcove_mirror(target_res, l)
        return [(c, mirror), (c, target_res), (c, mirror)]
    return None


def fundamental_rep_by_sorting(lam: Weight, l: int) -> tuple[Weight, AffineWeylElement]:
    """lattice.fundamental_rep as its direct transcription: divmod the GL3
    coordinates (a+b+2, b+1, 0) by l, raise the j smallest residues by l in
    a stable sort (j the quotient sum mod 3), and list the entries by a
    stable decreasing sort."""
    x = (lam[0] + lam[1] + 2, lam[1] + 1, 0)
    q0, r0 = divmod(x[0], l)
    q1, r1 = divmod(x[1], l)
    q2, r2 = divmod(x[2], l)
    z = [r0, r1, r2]
    for i in sorted(range(3), key=z.__getitem__)[: (q0 + q1 + q2) % 3]:
        z[i] += l
    perm = tuple(sorted(range(3), key=z.__getitem__, reverse=True))
    y0, y1, y2 = z[perm[0]], z[perm[1]], z[perm[2]]
    translation = (z[0] - x[0], z[1] - x[1], z[2] - x[2])
    return Weight(y0 - y1 - 1, y1 - y2 - 1), AffineWeylElement(perm, translation)


def apply_inverse_by_loop(w: AffineWeylElement, x: Weight) -> Weight:
    """lattice.apply_inverse entry by entry: the k-th GL3 coordinate of x,
    less the translation, goes back to position perm[k]."""
    y = (x[0] + x[1] + 2, x[1] + 1, 0)
    v = [0, 0, 0]
    for k, i in enumerate(w.perm):
        v[i] = y[k] - w.translation[i]
    return Weight(v[0] - v[1] - 1, v[1] - v[2] - 1)


def direct_build(lam, l, kind, factors, edges, layers, keep):
    """structure._build without the skeleton memo: the kept positions,
    their layers and the kept edges are read off the table on each call."""
    indices = sorted(keep)
    kept = set(indices)
    missing = sorted(kept - layers.keys())
    if missing:
        raise ValueError(f"{kind} graph of {lam} (l={l}): kept position {missing[0]} has no layer")
    check_positions(lam, l, factors, max(kept, default=0))
    nodes = tuple(GraphNode(_IDS[i], factors[i - 1], kind, layers[i]) for i in indices)
    edge_ids = tuple((_IDS[u], _IDS[v]) for u, v in edges if u in kept and v in kept)
    return ModuleGraph(lam, l, kind, nodes, edge_ids)


def _want_got(what: str, want, got, fmt) -> str:
    """"" when the two collections agree as multisets, else the first four
    entries, formatted by fmt, that only one of them holds."""
    want, got = sorted(want), sorted(got)
    if want == got:
        return ""
    only_want = list((Counter(want) - Counter(got)).elements())[:4]
    only_got = list((Counter(got) - Counter(want)).elements())[:4]
    return (
        f"{what}: want {' '.join(map(fmt, only_want)) or '-'}"
        f" got {' '.join(map(fmt, only_got)) or '-'}"
    )


def duality_diff(g) -> str:
    """Compare a Borel-induced graph with the graph of its dual module,
    built as zhat_structure(2(l-1)rho - lam): its nodes must be the dual
    weights of g's nodes and its edges g's edges reversed.  Returns "" when
    they match, else the first dual node weights or reversed edges that
    differ.  test_family_tables proves the same identity on the tables for
    every l >= 4; this sweep of built graphs is its oracle, and the only
    check at l = 2 and 3."""
    gd = zhat_structure(2 * (g.l - 1) * RHO - g.lam, g.l)
    dual = {n.id: Weight(*hat_dual_pair(n.weight, g.l)) for n in g.nodes}
    got = {n.id: n.weight for n in gd.nodes}
    return _want_got("dual nodes", dual.values(), got.values(), str) or _want_got(
        "reversed edges",
        [(dual[v], dual[u]) for u, v in g.edges],
        [(got[u], got[v]) for u, v in gd.edges],
        lambda e: f"{e[0]}->{e[1]}",
    )


# The printed thickened-kernel Ext tables of the two alcoves, as (row,
# column) = (upper, lower) factor positions, and the printed layers of the
# diagrams, which the engine reads off their edges: the walls, in
# zhat_factors order, the two alcoves, congruent and fully non-congruent,
# and the down-alcove strips a = 0 and b = 0.
PRINTED_DOWN_PAIRS = {
    (2, 1), (2, 6),
    (3, 2),
    (4, 1), (4, 8),
    (5, 4),
    (6, 2), (6, 5),
    (7, 2), (7, 4), (7, 9),
    (8, 3), (8, 4),
    (9, 6), (9, 7), (9, 8),
}
PRINTED_UP_PAIRS = {
    (1, 7),
    (2, 1), (2, 5), (2, 8),
    (3, 2), (3, 9),
    (4, 8),
    (5, 2), (5, 4),
    (6, 5),
    (7, 4), (7, 9),
    (8, 4),
    (9, 6), (9, 7), (9, 8),
}
PRINTED_WALL_CHAIN_LAYERS = {4: 0, 3: 1, 2: 2, 1: 3}
PRINTED_WALL_DIAMOND_LAYERS = {4: 0, 3: 1, 2: 1, 1: 2}
PRINTED_DOWN_LAYERS = {9: 0, 6: 1, 7: 1, 8: 1, 5: 2, 3: 2, 4: 3, 2: 3, 1: 4}
PRINTED_DOWN_LAYERS_LOOSE = {9: 0, 5: 1, 6: 1, 7: 1, 8: 1, 3: 1, 4: 2, 2: 2, 1: 3}
PRINTED_UP_LAYERS = {3: 0, 2: 1, 9: 1, 1: 2, 6: 2, 7: 3, 8: 3, 5: 3, 4: 4}
PRINTED_UP_LAYERS_LOOSE = {3: 0, 2: 1, 9: 1, 1: 2, 7: 2, 8: 2, 5: 2, 6: 2, 4: 3}
PRINTED_STRIP_A_LAYERS = {3: 0, 2: 1, 1: 2}
PRINTED_STRIP_B_LAYERS = {5: 0, 4: 1, 1: 2}


# The printed socle table of L(1,0) tensor L(res), one row per restricted
# weight pattern with the least l for which it is stated; the (0, l-1) row
# is an editorial reconstruction of a malformed printed entry.  One entry is
# corrected: the row s = l-2, 2 <= r <= l-2 printed (r-1, l-3) = res - theta
# as its third weight.  A weight of L(1,0) tensor L(res) is res + eps for a
# weight eps of L(1,0) minus a sum of roots, so it lies in the class of
# res + (1,0) modulo the root lattice, and res - theta, in the class of
# res, is no composition factor.  Translation onto the upper wall (Jantzen,
# RAGS II.7.15) gives res + (-1,1) = (r-1, l-1) instead.
def printed_socle_row(res, l: int) -> list[Weight]:
    """The entries of the first printed row that covers res and whose least
    l is at most l: a row stated only from a larger l passes res on (at
    l = 2, (1, 0) falls through the row r = 1, s = l-2 to the row r = l-1,
    s = 0).  The rows are tried in printed order, each as its condition
    and least l, and only the matching row's entries are built."""
    r, s = res
    if r == 0 and s == 0 and l >= 2:
        return [Weight(1, 0)]
    if r == 0 and 1 <= s <= l - 3 and l >= 4:
        return [Weight(1, s), Weight(0, s - 1)]
    if r == 0 and s == l - 2 and l >= 3:
        return [Weight(0, l - 3)]
    if 1 <= r <= l - 3 and r + s == l - 2 and l >= 4:
        return [Weight(r, s - 1), Weight(r - 1, s + 1)]
    if s == 0 and 1 <= r <= l - 2 and l >= 3:
        return [Weight(r + 1, 0), Weight(r - 1, 1)]
    if r >= 1 and s >= 1 and r + s <= l - 3 and l >= 4:
        return [Weight(r + 1, s), Weight(r - 1, s + 1), Weight(r, s - 1)]
    if r == 0 and s == l - 1 and l >= 2:
        return [Weight(1, l - 1), Weight(0, l - 2)]
    if s == l - 1 and 1 <= r <= l - 2 and l >= 3:
        return [Weight(r + 1, l - 1), Weight(r, l - 2)]
    if r == l - 1 and s == l - 1 and l >= 2:
        return [Weight(l - 1, l - 2)]
    if r == 1 and s == l - 2 and l >= 3:
        return [Weight(2, l - 2), Weight(0, l - 1)]
    if s == l - 2 and 2 <= r <= l - 2 and l >= 4:
        return [Weight(r + 1, l - 2), Weight(r, l - 3), Weight(r - 1, l - 1)]
    if 2 <= r <= l - 3 and r + s == l - 1 and l >= 4:
        return [Weight(r + 1, s), Weight(r - 1, s + 1)]
    if r == l - 2 and s == 1 and l >= 4:
        return [Weight(l - 1, 1), Weight(l - 3, 2)]
    if r == l - 1 and s == 0 and l >= 2:
        return [Weight(l - 2, 1)]
    if r == l - 1 and 1 <= s <= l - 2 and l >= 3:
        return [Weight(l - 2, s + 1), Weight(l - 1, s - 1)]
    if r == l - 2 and 2 <= s <= l - 2 and l >= 4:
        return [Weight(l - 1, s), Weight(l - 2, s - 1), Weight(l - 3, s + 1)]
    if l >= 4 and classify_restricted(res, l) is FacetType.UP_ALCOVE:
        return [Weight(r + 1, s), Weight(r - 1, s + 1), Weight(r, s - 1)]
    raise AssertionError(f"no printed socle row covers {res} for l={l}")
