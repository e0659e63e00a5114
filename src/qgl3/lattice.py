"""Weight lattice, affine Weyl group and facet combinatorics for type A2.

Weights are written in fundamental-weight coordinates for SL3: the pair
(a, b) stands for a*omega_1 + b*omega_2.  The three positive roots are
alpha1 = (2,-1), alpha2 = (-1,2) and their sum rho = (1,1), and coroots are
identified with roots.  All affine reflections act through the dot action
w . x = w(x + rho) - rho, so the relevant pairing is <x + rho, beta~>.

Weight is the type of a weight that leaves the engine.  The functions here
accept any pair of ints; the engine's per-factor paths carry plain int
pairs and split lam = l*classical + restricted by divmod, the split that
decompose documents and returns as two Weights.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple


class Weight(NamedTuple):
    a: int
    b: int

    def __add__(self, other: "Weight") -> "Weight":
        return Weight(self.a + other[0], self.b + other[1])

    def __sub__(self, other: "Weight") -> "Weight":
        return Weight(self.a - other[0], self.b - other[1])

    def __neg__(self) -> "Weight":
        return Weight(-self.a, -self.b)

    def __mul__(self, k: int) -> "Weight":
        if not isinstance(k, int):
            return NotImplemented
        return Weight(self.a * k, self.b * k)

    __rmul__ = __mul__

    def is_dominant(self) -> bool:
        return self.a >= 0 and self.b >= 0

    def __str__(self) -> str:
        return f"({self.a},{self.b})"


RHO = Weight(1, 1)


class PositiveRoot(Enum):
    ALPHA1 = 1
    ALPHA2 = 2
    RHO = 3

    __hash__ = object.__hash__  # members are singletons; Enum's hash is a Python call

    @property
    def vector(self) -> Weight:
        return _ROOT_VECTORS[self]


_ROOT_VECTORS = {
    PositiveRoot.ALPHA1: Weight(2, -1),
    PositiveRoot.ALPHA2: Weight(-1, 2),
    PositiveRoot.RHO: Weight(1, 1),
}

POSITIVE_ROOTS = (PositiveRoot.ALPHA1, PositiveRoot.ALPHA2, PositiveRoot.RHO)


class FacetType(Enum):
    VERTEX = "vertex"
    RIGHT_WALL = "right-wall"
    LEFT_WALL = "left-wall"
    HORIZONTAL_WALL = "horizontal-wall"
    DOWN_ALCOVE = "down-alcove"
    UP_ALCOVE = "up-alcove"

    __hash__ = object.__hash__  # as PositiveRoot's


class RestrictedDecomposition(NamedTuple):
    classical: Weight
    restricted: Weight


def pairing(lam: Weight, root: PositiveRoot) -> int:
    """Return <lam + rho, root~>: a+1, b+1 or a+b+2."""
    a, b = lam
    if root is PositiveRoot.ALPHA1:
        return a + 1
    if root is PositiveRoot.ALPHA2:
        return b + 1
    return a + b + 2


def decompose(lam: Weight, l: int) -> RestrictedDecomposition:
    """Split lam = l*classical + restricted with restricted in [0, l-1]^2.

    The split is divmod of each coordinate by l: the classical part is the
    floor quotient, possibly non-dominant, and the restricted part the
    residue.  The engine's per-factor paths take divmod on int pairs and
    build no RestrictedDecomposition; this is the split at the API boundary.
    """
    if l < 2:
        raise ValueError(f"need l >= 2, got {l}")
    ca, ra = divmod(lam[0], l)
    cb, rb = divmod(lam[1], l)
    return RestrictedDecomposition(Weight(ca, cb), Weight(ra, rb))


def affine_reflect(lam: Weight, root: PositiveRoot, m: int, step: int = 1) -> Weight:
    """Dot-action reflection in the hyperplane <x + rho, root~> = m*step."""
    if step < 1:
        raise ValueError(f"need step >= 1, got {step}")
    c = pairing(lam, root) - m * step
    v = root.vector
    return Weight(lam[0] - c * v[0], lam[1] - c * v[1])


def dominantize(lam: Weight) -> tuple[int, Weight]:
    """Normalize lam under the finite dot action.

    Returns (0, lam) when lam is singular (some pairing vanishes), otherwise
    (det w, w . lam) for the unique w making the image dominant.

    Closed form: in GL3 coordinates lam + rho is (a+b+2, b+1, 0) and the
    Weyl group permutes the three entries, so sorting them decreasingly is
    the dominant representative, a tie is a singular weight, and det w is
    the parity of the sort.
    """
    a, b = lam
    x, y = a + b + 2, b + 1
    if x == y or x == 0 or y == 0:
        return 0, Weight(a, b)
    sign = 1
    z = 0
    # three-element sorting network; each swap is one transposition
    if x < y:
        x, y, sign = y, x, -sign
    if y < z:
        y, z, sign = z, y, -sign
    if x < y:
        x, y, sign = y, x, -sign
    return sign, Weight(x - y - 1, y - z - 1)


def classify_restricted(res: Weight, l: int) -> FacetType:
    """Facet type read off a restricted weight in [0, l-1]^2."""
    r, s = res
    if not (0 <= r <= l - 1 and 0 <= s <= l - 1):
        raise ValueError(f"{Weight(r, s)} is not restricted for l={l}")
    if r == l - 1 and s == l - 1:
        return FacetType.VERTEX
    if r == l - 1:
        return FacetType.RIGHT_WALL
    if s == l - 1:
        return FacetType.LEFT_WALL
    if r + s == l - 2:
        return FacetType.HORIZONTAL_WALL
    if r + s <= l - 3:
        return FacetType.DOWN_ALCOVE
    return FacetType.UP_ALCOVE


def restricted_orbit(res: Weight, l: int) -> tuple[FacetType, tuple[tuple[int, int], ...]]:
    """The facet of a restricted weight and, as int pairs in a fixed order,
    the linked restricted points: the one place they are written.  The
    factor families (decomp), the restricted-kernel Ext columns (ext) and
    the off-wall translation tables (translate) are rows over them, and
    restricted_simple_weyl reads an up-alcove weight's mirror as point 0.
    An alcove weight has six, from the down parameter (r, s): res, or the
    mirror (l-v-2, l-u-2) of an up-alcove res = (u, v), which is the sixth
    point.  A wall weight has three, from the horizontal point (x, y),
    x + y = l-2.  The vertex is its own orbit."""
    facet = classify_restricted(res, l)
    r, s = res
    if facet is FacetType.UP_ALCOVE:
        r, s = l - s - 2, l - r - 2
    elif facet is FacetType.RIGHT_WALL:
        r, s = s, l - s - 2
    elif facet is FacetType.LEFT_WALL:
        r, s = l - r - 2, r
    if facet is FacetType.DOWN_ALCOVE or facet is FacetType.UP_ALCOVE:
        t = l - r - s - 3
        return facet, ((r, s), (r + s + 1, l - s - 2), (t, r), (l - r - 2, r + s + 1), (s, t),
                       (l - s - 2, l - r - 2))
    if facet is FacetType.VERTEX:
        return facet, ((r, s),)
    return facet, ((r, s), (l - 1, r), (s, l - 1))


def facet_classify(lam: Weight, l: int) -> FacetType:
    """Classify the affine facet of a dominant weight by its restricted part."""
    a, b = lam
    if a < 0 or b < 0:
        raise ValueError(f"facet_classify needs a dominant weight, got {Weight(a, b)}")
    if l < 2:
        raise ValueError(f"need l >= 2, got {l}")
    return classify_restricted((a % l, b % l), l)


class AffineWeylElement(NamedTuple):
    """An element of the affine Weyl group under the dot action, in GL3
    coordinates x = lam + rho = (a+b+2, b+1, 0), taken modulo (1,1,1): it
    sends x to the vector whose k-th entry is (x + translation)[perm[k]].
    The translation lies in l*Z^3 with entry sum divisible by 3l."""

    perm: tuple[int, int, int]
    translation: tuple[int, int, int]


def fundamental_rep(lam: Weight, l: int) -> tuple[Weight, AffineWeylElement]:
    """Pull lam into the fundamental domain 0 <= <x+rho, alpha_i~>, <x+rho, rho~> <= l.

    Returns the representative together with an affine Weyl element w with
    w . lam = representative.

    Closed form (Jantzen II.6): in GL3 coordinates x = lam + rho =
    (a+b+2, b+1, 0), taken modulo (1,1,1), the group acts by permuting the
    entries and adding l*v for integer vectors v with entry sum divisible
    by 3.  Divmod each entry by l and raise the j smallest residues by l,
    with j the quotient sum mod 3: the result lies in the orbit and its
    entries are at most l apart, so sorted decreasingly it is the orbit's
    point of the closed fundamental alcove.  The representative is unique;
    the element is unique up to the stabilizer of lam.
    """
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


def apply_inverse(w: AffineWeylElement, x: Weight) -> Weight:
    """w^-1 . x in O(1): if w sends nu to its representative, this maps
    representative-side data back to nu's side."""
    y = (x[0] + x[1] + 2, x[1] + 1, 0)
    v = [0, 0, 0]
    for k, i in enumerate(w.perm):
        v[i] = y[k] - w.translation[i]
    return Weight(v[0] - v[1] - 1, v[1] - v[2] - 1)


def linked(lam: Weight, mu: Weight, l: int) -> bool:
    """True when lam and mu lie in the same affine dot orbit."""
    return fundamental_rep(lam, l)[0] == fundamental_rep(mu, l)[0]


def dual_weight(lam: Weight) -> Weight:
    """Contragredient weight -w0(lam) = (b, a)."""
    return Weight(lam[1], lam[0])


# The finite Weyl group as signed permutations of GL3 coordinates, in the
# order of the reduced words 1, s1, s2, s1s2, s2s1, s1s2s1: (sign, (i, j, k))
# sends x to (x_i, x_j, x_k).
_WEYL_PERMUTATIONS = (
    (1, (0, 1, 2)),
    (-1, (1, 0, 2)),
    (-1, (0, 2, 1)),
    (1, (2, 0, 1)),
    (1, (1, 2, 0)),
    (-1, (2, 1, 0)),
)


def ordinary_orbit(lam: Weight) -> list[tuple[int, Weight]]:
    """All (sign, w(lam)) pairs over the finite Weyl group, with repeats,
    under the linear (non-dot) action: in GL3 coordinates lam is
    (a+b, b, 0), w permutes the entries, and sign is det w."""
    a, b = lam
    x = (a + b, b, 0)
    return [(sign, Weight(x[i] - x[j], x[j] - x[k])) for sign, (i, j, k) in _WEYL_PERMUTATIONS]


def dominance_key(w: Weight) -> tuple[int, int]:
    """Sort key compatible with the dominance order on W-invariant supports."""
    return (w[0] + w[1], w[0])


def facet_stabilizer_walls(lam: Weight, l: int) -> list[tuple[PositiveRoot, int]]:
    """Walls through lam, as (root, wall value) reflection data."""
    return [
        (root, pairing(lam, root))
        for root in POSITIVE_ROOTS
        if pairing(lam, root) % l == 0
    ]
