"""Translation of twisted-tensor filtration factors between facets.

Translating onto a wall either relabels a factor or kills it, depending on
whether the image lies in the upper closure of the source alcove; the
source must be regular, and a singular one is rejected.  Off a
wall, the translate of a single factor carries a good filtration whose
(classical, restricted) factor pairs are given by fixed case tables,
written once as data: OFF_WALL_ROWS gives each table as rows over the
restricted orbit of the target (lattice.restricted_orbit), as
decomp.FAMILY_ROWS gives the factor families; the printed tables are the
test oracle in tests/oracles.py.  An entry with non-dominant classical
part stands for the zero module but is kept, so the lists match the
displayed shapes.

The off-wall table for a right-wall source prints one of its interior rows
twice in its source; the duplicate is dropped here, which is what both the
generic factor count 6+6+3+3 = 18 and the exact aggregate character
identity require.

off_wall_pairs is the one reader of the tables: it returns the entries as
(classical part, restricted part) int pairs, and each factor is split by
divmod.  A WallTranslate keeps those rows, and its modules (the one place
the zero-module rule is written), factor count and generic flag are read
off them; a Weight is built only where a value leaves: the wall weight,
the mirror and the source factors of a WallTranslate.

translated_character works on chi_l keys alone: net_terms collects the
modules' chi_l, and decomp.weyl_of_chi_l peels the Weyl-basis form off
those keys with charring.peel_dominant, the engine's one peel, so this
module expands no chi_l (it imports neither chi_l_weyl nor weyl_sum);
only the weight-basis character of that form is built.
"""

from __future__ import annotations

from dataclasses import dataclass

from qgl3.charring import FormalChar, char_from_weyl
from qgl3.decomp import chi_decomposition, net_terms, weyl_of_chi_l
from qgl3.lattice import (
    FacetType,
    PositiveRoot,
    Weight,
    affine_reflect,
    apply_inverse,
    facet_classify,
    facet_stabilizer_walls,
    fundamental_rep,
    pairing,
    restricted_orbit,
)


def translate_onto_wall(
    nu: Weight, lam_orbit: Weight, mu_orbit: Weight, l: int
) -> Weight | None:
    """Translate the factor of regular weight nu from the orbit of
    lam_orbit to the orbit of mu_orbit, a point of the closed bottom
    alcove; None when the translate is zero.

    Closed form (Jantzen II.7.11-7.15): with w . nu = lam_orbit, the image
    is x = w^-1 . mu_orbit, the orbit point in the closure of nu's alcove,
    and it survives exactly when it lies in the upper closure of that
    alcove: (n-1)l < <x+rho, alpha~> <= nl for every positive root alpha,
    where n = ceil(<nu+rho, alpha~>/l).
    """
    if nu[0] < 0 or nu[1] < 0:
        raise ValueError(f"translate_onto_wall needs a dominant weight, got {Weight(*nu)}")
    if facet_stabilizer_walls(nu, l):
        raise ValueError(f"translate_onto_wall needs a regular weight, got {Weight(*nu)} (l={l})")
    rep, w = fundamental_rep(nu, l)
    if rep != (lam_orbit[0], lam_orbit[1]):
        raise ValueError(
            f"{Weight(*nu)} is not in the orbit of {Weight(*lam_orbit)} "
            f"(representative {rep}, l={l})"
        )
    m1, m2 = mu_orbit[0] + 1, mu_orbit[1] + 1
    if not (m1 >= 0 and m2 >= 0 and m1 + m2 <= l):
        raise ValueError(f"{Weight(*mu_orbit)} is not in the closed bottom alcove (l={l})")
    x = apply_inverse(w, mu_orbit)
    # (n-1)l < p <= nl with n = ceil(q/l) says that the pairings p of x and
    # q of nu have one ceiling over l, so p - 1 and q - 1 one floor: a, b
    # and a + b + 1 for the three roots
    a, b = x
    c, d = nu
    if a // l != c // l or b // l != d // l or (a + b + 1) // l != (c + d + 1) // l:
        return None
    return x


# The off-wall tables as rows (da, db, k) over restricted_orbit(target_res,
# l), keyed by (l == 2, source facet, target facet): entry i of the
# translate of a factor with classical part c is (c + (da, db), points[k]),
# top layer first.  The left-wall rows are the coordinate swap of the
# right-wall ones.  At l = 2 every facet holds one restricted weight and the
# three walls are one orbit.
_R, _L, _H = FacetType.RIGHT_WALL, FacetType.LEFT_WALL, FacetType.HORIZONTAL_WALL
OFF_WALL_ROWS = {
    (False, _R, FacetType.DOWN_ALCOVE): (
        (0, 0, 3), (1, 0, 0), (-1, 1, 0), (0, -1, 0), (0, 0, 2), (0, 0, 3),
    ),
    (False, _L, FacetType.DOWN_ALCOVE): (
        (0, 0, 1), (0, 1, 0), (1, -1, 0), (-1, 0, 0), (0, 0, 4), (0, 0, 1),
    ),
    (False, _H, FacetType.UP_ALCOVE): ((0, 0, 0), (0, 0, 5), (0, 0, 0)),
    (True, _R, _H): ((0, 0, 2), (1, 0, 0), (-1, 1, 0), (0, -1, 0), (0, 0, 2)),
    (True, _L, _H): ((0, 0, 1), (0, 1, 0), (1, -1, 0), (-1, 0, 0), (0, 0, 1)),
    (True, _H, _R): ((0, 0, 1),),
    (True, _H, _L): ((0, 0, 2),),
    (True, _R, _L): ((0, 0, 0),),
    (True, _L, _R): ((0, 0, 0),),
}


Entry = tuple[tuple[int, int], tuple[int, int]]


def off_wall_pairs(
    mu_cls: tuple[int, int], mu_res: tuple[int, int], target_res: tuple[int, int], l: int
) -> tuple[Entry, ...]:
    """The one reader of OFF_WALL_ROWS: the entries (classical part,
    restricted part), as int pairs, top layer first, of the translate of the
    twisted-tensor factor with classical part mu_cls and wall-type
    restricted part mu_res into the adjacent facet of restricted type
    target_res: the rows over the orbit of target_res.  ValueError, naming
    both weights, their facets and l, when no row covers the combination."""
    src = restricted_orbit(mu_res, l)[0]
    tgt, points = restricted_orbit(target_res, l)
    rows = OFF_WALL_ROWS.get((l == 2, src, tgt))
    if rows is None:
        raise ValueError(
            f"unsupported translation {Weight(*mu_res)} ({src.value}) -> "
            f"{Weight(*target_res)} ({tgt.value}) for l={l}"
        )
    ca, cb = mu_cls
    return tuple(((ca + da, cb + db), points[k]) for da, db, k in rows)


def local_target(nu: Weight, lam_rep: Weight, l: int) -> Weight:
    """The weight of the orbit with fundamental representative lam_rep
    adjacent to the wall factor nu in the configuration the off-wall tables
    cover: the orbit point in the alcove over nu's one wall.

    Closed form: w^-1 . lam_rep, for w with w . nu = nu's representative,
    lies in an alcove with nu in its closure; reflected in nu's wall when it
    lies below it, it lies in the alcove above.
    """
    walls = facet_stabilizer_walls(nu, l)
    if len(walls) != 1:
        raise ValueError(
            f"no target for factor {nu} toward the orbit of {lam_rep} (l={l}): "
            f"{nu} is not on exactly one wall"
        )
    root, value = walls[0]
    x = apply_inverse(fundamental_rep(nu, l)[1], lam_rep)
    return x if pairing(x, root) > value else affine_reflect(x, root, value)


def wall_weight_below(lam: Weight, l: int) -> tuple[Weight, tuple[PositiveRoot, int]]:
    """A dominant single-wall weight on a lower wall of the alcove whose
    upper closure contains lam, together with its wall.

    Closed form, for lam = l*(ca, cb) + restricted: from a down alcove or a
    horizontal wall the wall is alpha1 at l*ca, or alpha2 at l*cb when
    ca = 0, and the point is l*(ca, cb) - (1, 0), resp. - (0, 1); from
    every other facet the wall is rho at l*(ca+cb+1) and the point is
    l*(ca, cb) + (0, l-2).
    """
    facet = facet_classify(lam, l)
    ca, cb = lam[0] // l, lam[1] // l  # the classical part
    if facet is FacetType.VERTEX:
        raise ValueError(f"{Weight(*lam)} is a vertex weight; no wall below")
    if facet in (FacetType.DOWN_ALCOVE, FacetType.HORIZONTAL_WALL):
        if ca > 0:
            return Weight(l * ca - 1, l * cb), (PositiveRoot.ALPHA1, l * ca)
        if cb > 0:
            return Weight(0, l * cb - 1), (PositiveRoot.ALPHA2, l * cb)
        raise ValueError(f"no dominant wall point below {Weight(*lam)} (l={l})")
    return Weight(l * ca, l * cb + l - 2), (PositiveRoot.RHO, l * (ca + cb + 1))


@dataclass(frozen=True)
class WallTranslate:
    """The translate into lam's facet of the induced module of the wall
    weight below lam: one row per genuine filtration factor nu of the wall
    weight, the wall weight itself, and the mirror image of lam in the wall.
    A row is (nu, the restricted part of nu's target, the translated entries
    of off_wall_pairs); the fields below are read off the entries as int pairs.

    factor_count: the number of entries, 18 when l >= 3 and 8 when l = 2
    for a generic translate.

    modules: the entries that are modules, as int pairs l*c + r; an entry
    with non-dominant classical part c is the zero module.  The sum of
    their chi_l is the character of the translate, weyl(lam) + weyl(mirror).

    generic: every factor of the wall weight survives, so every classical
    part is dominant (hence regular), and every entry is a module; the
    factor counts are asserted for generic translates only."""

    l: int
    rows: tuple[tuple[Weight, tuple[int, int], tuple[Entry, ...]], ...]
    wall: Weight
    mirror: Weight
    factor_count: int
    modules: tuple[tuple[int, int], ...]
    generic: bool


def translate_factor_lists(lam: Weight, l: int) -> WallTranslate:
    """Translate every genuine filtration factor of the wall weight below
    lam into lam's facet.

    Only surviving factors are translated: an entry of the raw weight list
    with non-dominant classical part is the zero module, and the zero
    module translates to zero.  lam is reduced to its fundamental
    representative once, for all factors.
    """
    mu, (root, value) = wall_weight_below(lam, l)
    lam_rep, _ = fundamental_rep(lam, l)
    dec = chi_decomposition(mu, l)
    rows = []
    for nu in dec.surviving_factors():
        x = local_target(nu, lam_rep, l)
        ca, ra = divmod(nu[0], l)
        cb, rb = divmod(nu[1], l)
        target = (x[0] % l, x[1] % l)
        rows.append((nu, target, off_wall_pairs((ca, cb), (ra, rb), target, l)))
    count = sum(len(entries) for _, _, entries in rows)
    modules = tuple((l * ca + ra, l * cb + rb) for _, _, entries in rows
                    for (ca, cb), (ra, rb) in entries if ca >= 0 and cb >= 0)
    generic = len(dec.positions) == len(dec.factors) and len(modules) == count
    mirror = affine_reflect(lam, root, value, 1)
    return WallTranslate(l, tuple(rows), mu, mirror, count, modules, generic)


def translate_nabla_factor_count(lam: Weight, l: int) -> int:
    """Number of factors of the translate of the wall weight below lam,
    for generic lam (see WallTranslate.generic); at l >= 3 lam must be an
    alcove weight."""
    lam = Weight(*lam)
    if l >= 3 and facet_classify(lam, l) not in (
        FacetType.DOWN_ALCOVE,
        FacetType.UP_ALCOVE,
    ):
        raise ValueError(f"{lam} is not an alcove weight for l={l}")
    t = translate_factor_lists(lam, l)
    if not t.generic:
        raise ValueError(
            f"non-generic: a factor of the wall weight {t.wall} below {lam} or a "
            f"translated entry vanishes (l={l})"
        )
    return t.factor_count


def translated_character(lam: Weight, l: int) -> tuple[FormalChar, Weight]:
    """Character of the full translate and the mirror weight whose induced
    character it contains with lam's.  The modules' chi_l are collected on
    keys by net_terms, and decomp.weyl_of_chi_l reads their Weyl-basis form
    off those keys (almost always {lam: 1, mirror: 1}); no chi_l is
    expanded."""
    t = translate_factor_lists(lam, l)
    return char_from_weyl(weyl_of_chi_l(net_terms(t.modules, l), l)), t.mirror
