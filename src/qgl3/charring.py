"""Exact formal character ring over the A2 weight lattice.

Characters live in the integral group ring ZX with basis e(lam) and product
e(lam)e(mu) = e(lam+mu).  Everything here is exact integer arithmetic; the
two independent constructions of the induced-module character cross-check
each other: Gelfand-Tsetlin counting (kernels.ssyt_weight_counts; the
patterns are in bijection with semistandard tableaux) and the alternating-sum quotient
A(lam+rho) / A(rho), divided one factor of the Weyl denominator
A(rho) = e(rho) * prod over alpha > 0 of (1 - e(-alpha)) at a time by
running sums down alpha-strings (divide_by_weyl_denominator).  Neither
route calls the other.

FormalChar.coeffs is keyed by int pairs (a, b): the engine builds plain
tuples, which hash and compare equal to Weight, and uses Weight only where a
weight leaves as a value (arguments, the keys of chi_l_weyl and of the peel
results).

W-invariant characters also have a Weyl-basis form, {dominant weight: int}
in the basis of induced characters.  chi_l_weyl and tensor_multiplicity
work there by the Brauer-Klimyk rule; the weight-basis chi_l and
decompose_into_weyl are kept as their independent oracles.
"""

from __future__ import annotations

import json
from itertools import accumulate, repeat
from typing import Callable, Iterable

from qgl3 import kernels
from qgl3.lattice import (
    POSITIVE_ROOTS,
    RHO,
    FacetType,
    Weight,
    classify_restricted,
    decompose,
    dominance_key,
    dominantize,
    dual_weight,
    facet_classify,
    ordinary_orbit,
)


class FormalChar:
    """Sparse integer combination of basis elements e(weight).

    coeffs maps int pairs (a, b) to nonzero ints.  The constructor copies
    its input and drops zero coefficients, and no method mutates self, so
    every instance is an immutable value.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: dict[tuple[int, int], int] | None = None):
        # dict() copies in C; the filtering pass runs only when it has work
        coeffs = dict(coeffs) if coeffs else {}
        if 0 in coeffs.values():
            coeffs = {w: c for w, c in coeffs.items() if c}
        self.coeffs = coeffs

    @classmethod
    def basis(cls, w: Weight, coeff: int = 1) -> "FormalChar":
        return cls({w: coeff})

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, FormalChar) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __getitem__(self, w: Weight) -> int:
        return self.coeffs.get(w, 0)

    def __add__(self, other: "FormalChar") -> "FormalChar":
        out = dict(self.coeffs)
        for w, c in other.coeffs.items():
            out[w] = out.get(w, 0) + c
        return FormalChar(out)

    def __sub__(self, other: "FormalChar") -> "FormalChar":
        return self + (-other)

    def __neg__(self) -> "FormalChar":
        return FormalChar({w: -c for w, c in self.coeffs.items()})

    def __mul__(self, other):
        if isinstance(other, int):
            return FormalChar({w: c * other for w, c in self.coeffs.items()})
        return FormalChar(kernels.convolve(self.coeffs, other.coeffs))

    __rmul__ = __mul__

    @property
    def dimension(self) -> int:
        return sum(self.coeffs.values())

    def map_support(self, f: Callable[[Weight], Weight]) -> "FormalChar":
        out: dict[tuple[int, int], int] = {}
        for w, c in self.coeffs.items():
            k = f(w)
            out[k] = out.get(k, 0) + c
        return FormalChar(out)

    def to_triples(self) -> list[list[int]]:
        return sorted([w[0], w[1], c] for w, c in self.coeffs.items())

    @classmethod
    def from_triples(cls, triples: Iterable[Iterable[int]]) -> "FormalChar":
        out: dict[tuple[int, int], int] = {}
        for a, b, c in triples:
            out[a, b] = out.get((a, b), 0) + c
        return cls(out)

    def to_json(self) -> str:
        return json.dumps(self.to_triples())

    def __repr__(self) -> str:
        if not self.coeffs:
            return "0"
        terms = []
        for w in sorted(self.coeffs, key=dominance_key, reverse=True):
            c = self.coeffs[w]
            e_w = f"e({w[0]},{w[1]})"
            terms.append(e_w if c == 1 else f"{c}*{e_w}")
        return " + ".join(terms)


ZERO_CHAR = FormalChar()
ONE_CHAR = FormalChar({(0, 0): 1})


def e(a: int, b: int) -> FormalChar:
    return FormalChar({(a, b): 1})


_weyl_cache: dict[Weight, FormalChar] = {}


def weyl_char(lam: Weight) -> FormalChar:
    """Character of the induced module of highest weight lam.

    Computed by counting Gelfand-Tsetlin patterns (equivalently,
    semistandard tableaux) of the two-row shape (a+b, b) in three letters
    and projecting contents to SL3 coordinates.
    """
    lam = Weight(*lam)
    if not lam.is_dominant():
        raise ValueError(f"weyl_char needs a dominant weight, got {lam}")
    cached = _weyl_cache.get(lam)
    if cached is None:
        cached = _weyl_cache[lam] = FormalChar(kernels.ssyt_weight_counts(lam.a + lam.b, lam.b))
    return cached


def weyl_dimension(lam: Weight) -> int:
    a, b = lam
    return (a + 1) * (b + 1) * (a + b + 2) // 2


def alt_weyl_sum(mu: Weight) -> FormalChar:
    """Antisymmetrized orbit sum of e(mu) under the linear Weyl action."""
    return char_sum(FormalChar.basis(w, sign) for sign, w in ordinary_orbit(mu))


def divide_exact(num: FormalChar, den: FormalChar) -> FormalChar:
    """Exact quotient in the group ring; ValueError when den does not divide num.

    The engine does not call it (the alternating quotient divides by
    divide_by_weyl_denominator); it is kept because the benchmark's tracer
    names it.

    Peels the lexicographically leading term off one remainder dict in place.
    Lex order is addition-compatible, so the quotient terms come out strictly
    lex-decreasing.  Newton polygons add under multiplication, so an exact
    quotient lies in the box [min_a(num) - min_a(den), max_a(num) - max_a(den)]
    x (the same in b): a term outside it proves the division inexact, and the
    loop visits each point of that finite box at most once.
    """
    if not den:
        raise ZeroDivisionError("division by the zero character")
    lead_d = max(den.coeffs)
    cd = den.coeffs[lead_d]
    rem = dict(num.coeffs)
    lo = [min((w[i] for w in rem), default=0) - min(w[i] for w in den.coeffs) for i in (0, 1)]
    hi = [max((w[i] for w in rem), default=0) - max(w[i] for w in den.coeffs) for i in (0, 1)]
    quot: dict[tuple[int, int], int] = {}
    while rem:
        lead_r = max(rem)
        ta, tb = lead_r[0] - lead_d[0], lead_r[1] - lead_d[1]
        if not (lo[0] <= ta <= hi[0] and lo[1] <= tb <= hi[1]):
            raise ValueError(
                f"inexact division in group ring: quotient term ({ta},{tb}) lies outside "
                f"the Newton box [{lo[0]},{hi[0]}] x [{lo[1]},{hi[1]}]"
            )
        c, r = divmod(rem[lead_r], cd)
        if r:
            raise ValueError(
                f"inexact division in group ring: quotient term ({ta},{tb}) has "
                f"coefficient {rem[lead_r]}/{cd}, not an integer"
            )
        quot[ta, tb] = c
        for (da, db), m in den.coeffs.items():
            k = (ta + da, tb + db)
            n = rem.get(k, 0) - c * m
            if n:
                rem[k] = n
            else:
                del rem[k]
    return FormalChar(quot)


def _divide_by_binomial(x: dict, da: int, db: int) -> dict:
    """x / (1 - e(-alpha)) for alpha = (da, db); ValueError when inexact.

    The quotient q satisfies x(mu) = q(mu) - q(mu + alpha), so
    q(mu) = x(mu) + q(mu + alpha): a running sum down each alpha-string
    from its top support weight.  Below the string's lowest support weight
    q stays at the string's total, which must be 0 for q to be finite.
    The result may hold zero coefficients.
    """
    # Every positive root has a nonzero first coordinate, so a string is
    # walked by its first coordinate, from `top` to `bottom` in steps of da.
    lo: dict[int, int] = {}
    hi: dict[int, int] = {}
    for a, b in x:
        k = db * a - da * b  # constant along the string
        if k in lo:
            if a < lo[k]:
                lo[k] = a
            elif a > hi[k]:
                hi[k] = a
        else:
            lo[k] = hi[k] = a
    out: dict[tuple[int, int], int] = {}
    for k, a_lo in lo.items():
        top, bottom = (hi[k], a_lo) if da > 0 else (a_lo, hi[k])
        n = (top - bottom) // da + 1
        tb = (db * top - k) // da
        string = list(zip(range(top, top - n * da, -da), range(tb, tb - n * db, -db)))
        sums = list(accumulate(map(x.get, string, repeat(0))))
        if sums[-1]:
            ba, bb = string[-1]
            raise ValueError(
                f"inexact division by the Weyl denominator: the string ({ba},{bb}) + "
                f"N({da},{db}) sums to {sums[-1]}, not 0"
            )
        out.update(zip(string, sums))
    return out


def divide_by_weyl_denominator(num: FormalChar) -> FormalChar:
    """num / A(rho), where A(rho) = alt_weyl_sum(RHO); ValueError when A(rho)
    does not divide num.

    A(rho) = e(rho) * (1 - e(-alpha1)) * (1 - e(-alpha2)) * (1 - e(-alpha1 - alpha2)),
    so shift by -rho and divide by each binomial in turn.  An inexact
    division fails at the first alpha-string whose running sum does not
    return to 0; the message names the string by its lowest weight in the
    partial quotient and alpha.
    """
    x = {(a - RHO.a, b - RHO.b): c for (a, b), c in num.coeffs.items()}
    for root in POSITIVE_ROOTS:
        x = _divide_by_binomial(x, *root.vector)
    return FormalChar(x)


def weyl_char_alternating(lam: Weight) -> FormalChar:
    """Second, independent route to weyl_char: quotient of alternating sums."""
    lam = Weight(*lam)
    if not lam.is_dominant():
        raise ValueError(f"weyl_char_alternating needs a dominant weight, got {lam}")
    return divide_by_weyl_denominator(alt_weyl_sum(lam + RHO))


def euler_char(mu: Weight) -> FormalChar:
    """Weyl character extended by the sign rule; zero on singular weights."""
    sign, rep = dominantize(mu)
    if sign == 0:
        return ZERO_CHAR
    ch = weyl_char(rep)
    return ch if sign == 1 else -ch


def frobenius_twist(x: FormalChar, l: int) -> FormalChar:
    """Scale every support weight by l."""
    return FormalChar({(a * l, b * l): c for (a, b), c in x.coeffs.items()})


def dual_char(x: FormalChar) -> FormalChar:
    """Contragredient character: swap the two coordinates of every weight."""
    return x.map_support(dual_weight)


class SimpleCharTable:
    """Append-only cache of restricted simple characters for one order l."""

    def __init__(self, l: int):
        self.l = l
        self.cache: dict[Weight, FormalChar] = {}

    def get(self, lam: Weight) -> FormalChar:
        hit = self.cache.get(lam)
        if hit is None:
            hit = _restricted_simple_char_uncached(lam, self.l)
            self.cache[lam] = hit
        return hit


_simple_tables: dict[int, SimpleCharTable] = {}


def simple_table(l: int) -> SimpleCharTable:
    table = _simple_tables.get(l)
    if table is None:
        table = SimpleCharTable(l)
        _simple_tables[l] = table
    return table


def _is_restricted(lam: Weight, l: int) -> bool:
    return 0 <= lam[0] <= l - 1 and 0 <= lam[1] <= l - 1


def up_alcove_mirror(res: Weight, l: int) -> Weight:
    """Mirror (l-v-2, l-u-2) of an up-alcove restricted weight (u, v) in the
    alcove below."""
    u, v = res
    return Weight(l - v - 2, l - u - 2)


def _restricted_simple_char_uncached(lam: Weight, l: int) -> FormalChar:
    if not _is_restricted(lam, l):
        raise ValueError(f"{lam} is not a restricted weight for l={l}")
    if facet_classify(lam, l) is FacetType.UP_ALCOVE:
        # Up-alcove induced modules have exactly two composition factors; the
        # head is the mirror weight in the alcove below.
        return weyl_char(lam) - weyl_char(up_alcove_mirror(lam, l))
    return weyl_char(lam)


def restricted_simple_char(lam: Weight, l: int) -> FormalChar:
    """Character of the restricted simple module of highest weight lam."""
    return simple_table(l).get(Weight(*lam))


def small_nabla_factors(lam: Weight, l: int) -> list[Weight]:
    """Composition factor weights, socle first, of the small induced modules.

    Covers the four ranges where the induced module has at most two factors:
    restricted non-up-alcove weights, restricted up-alcove weights, and the
    two strips l(1,0) + C-closure and l(0,1) + C-closure.
    """
    lam = Weight(*lam)
    cls, res = decompose(lam, l)
    if cls == Weight(0, 0):
        if not _is_restricted(lam, l):
            raise ValueError(f"{lam} is outside the small induced-module ranges for l={l}")
        if facet_classify(lam, l) is FacetType.UP_ALCOVE:
            return [lam, up_alcove_mirror(lam, l)]
        return [lam]
    if cls == Weight(1, 0) and res[0] + res[1] <= l - 2:
        r, s = res
        return [lam, Weight(l - r - 2, r + s + 1)]
    if cls == Weight(0, 1) and res[0] + res[1] <= l - 2:
        r, s = res
        return [lam, Weight(r + s + 1, l - r - 2)]
    raise ValueError(
        f"{lam} is outside the small induced-module ranges for l={l}: need a "
        "restricted weight, or l(1,0)+(r,s) or l(0,1)+(r,s) with r+s <= l-2"
    )


def chi_l(mu: Weight, l: int) -> FormalChar:
    """Twisted-tensor character: euler_char of the classical part, twisted,
    times the restricted simple character.  Zero when the classical part is
    singular; a negated character when it is regular non-dominant."""
    cls, res = decompose(mu, l)
    eu = euler_char(cls)
    if not eu:
        return ZERO_CHAR
    return frobenius_twist(eu, l) * restricted_simple_char(res, l)


def simple_char_p0(lam: Weight, l: int, p: int = 0) -> FormalChar:
    """Simple character via the twisted tensor factorization, characteristic 0.

    In positive characteristic the classical factor is no longer an induced
    module and its character is not available here, so p != 0 is refused.
    """
    if p != 0:
        raise ValueError("simple characters are only computed in characteristic 0")
    lam = Weight(*lam)
    if not lam.is_dominant():
        raise ValueError(f"simple_char_p0 needs a dominant weight, got {lam}")
    cls, res = decompose(lam, l)
    return frobenius_twist(weyl_char(cls), l) * restricted_simple_char(res, l)


def peel_dominant(x: FormalChar, basis: Callable[[Weight], FormalChar]) -> dict[Weight, int]:
    """Coefficients of x in a basis where basis(k) is e(k) plus weights below
    k in the dominance order, peeling the dominance-leading weight off one
    remainder dict in place; ValueError when that weight is not dominant.

    Each step removes the lead and adds only lower weights, so the leading
    dominance_key strictly decreases, and only finitely many dominant
    weights have height at most the first lead's: the loop ends.
    """
    rem = dict(x.coeffs)
    out: dict[Weight, int] = {}
    while rem:
        top = Weight(*max(rem, key=dominance_key))
        if not top.is_dominant():
            raise ValueError(f"not expandable: leading weight {top} is not dominant")
        c = out[top] = rem[top]
        for w, m in basis(top).coeffs.items():
            n = rem.get(w, 0) - c * m
            if n:
                rem[w] = n
            else:
                del rem[w]
    return out


def decompose_into_weyl(x: FormalChar) -> dict[Weight, int]:
    """Write a W-invariant character as an integer combination of weyl_chars."""
    return peel_dominant(x, weyl_char)


# Weyl basis.  A W-invariant character is also written as a plain dict
# {dominant weight: int}: its coordinates in the basis of induced characters,
# the form decompose_into_weyl returns.  Products with an induced character
# follow the Brauer-Klimyk rule: for a W-invariant family of weights kappa
# with multiplicities m(kappa),
#     (sum m(kappa) e(kappa)) * ch(nu) = sum m(kappa) euler(nu + kappa),
# and each euler term is one closed-form dominantize.


def weyl_sum(parts: Iterable[dict[Weight, int]]) -> dict[Weight, int]:
    """Sum of {weight: int} combinations in either basis, zero coefficients
    dropped."""
    out: dict[Weight, int] = {}
    for part in parts:
        for w, c in part.items():
            out[w] = out.get(w, 0) + c
    return {w: c for w, c in out.items() if c}


def char_sum(parts: Iterable[FormalChar]) -> FormalChar:
    """Sum of weight-basis characters, accumulated in one dict."""
    return FormalChar(weyl_sum(p.coeffs for p in parts))


def char_from_weyl(x: dict[Weight, int]) -> FormalChar:
    """The weight-basis character sum c * weyl_char(k) of a Weyl-basis
    combination; inverse to decompose_into_weyl."""
    out: dict[tuple[int, int], int] = {}
    for k, c in x.items():
        for w, m in weyl_char(k).coeffs.items():
            out[w] = out.get(w, 0) + c * m
    return FormalChar(out)


_chi_l_weyl_cache: dict[tuple[int, int, int], dict[Weight, int]] = {}


def chi_l_weyl(mu: Weight, l: int) -> dict[Weight, int]:
    """chi_l(mu, l) in the basis of induced characters.

    Write mu = l*c + r, let c' = w.c be the dominantized classical part
    (sign det w, or zero when c is singular) and rbar the mirror of r when r
    is up-alcove.  Since L(r) = ch(r) - ch(rbar), with the second term only
    for up-alcove r, the Brauer-Klimyk rule gives

        chi_l(mu) = sign * sum over kappa in wt(c') of
                    m(kappa) * [euler(r + l*kappa) - euler(rbar + l*kappa)].

    Memoized on (mu, l); the returned dict is shared and must not be
    modified.
    """
    key = (mu[0], mu[1], l)
    hit = _chi_l_weyl_cache.get(key)
    if hit is None:
        cls, res = decompose(mu, l)
        sign, top = dominantize(cls)
        acc: dict[Weight, int] = {}
        if sign:
            heads = [(res, sign)]
            if classify_restricted(res, l) is FacetType.UP_ALCOVE:
                heads.append((up_alcove_mirror(res, l), -sign))
            for (ka, kb), m in weyl_char(top).coeffs.items():
                for (r, s), c in heads:
                    t, w = dominantize((r + l * ka, s + l * kb))
                    if t:
                        acc[w] = acc.get(w, 0) + t * c * m
        hit = _chi_l_weyl_cache[key] = {w: c for w, c in acc.items() if c}
    return hit


def tensor_multiplicity(target: Weight, x: Weight, y: Weight) -> int:
    """Multiplicity of the induced character of `target` in weyl(x)*weyl(y).

    Brauer-Klimyk: weyl(x)*weyl(y) = sum over the weights kappa of the
    smaller factor of m(kappa) * euler(x + kappa), so only the terms whose
    dot-dominantization lands on `target` count, with their signs.
    """
    if not (Weight(*x).is_dominant() and Weight(*y).is_dominant()):
        raise ValueError(f"tensor_multiplicity needs dominant weights, got {x}, {y}")
    if weyl_dimension(x) < weyl_dimension(y):
        x, y = y, x
    total = 0
    for (ka, kb), m in weyl_char(y).coeffs.items():
        sign, w = dominantize((x[0] + ka, x[1] + kb))
        if sign and w == target:
            total += sign * m
    return total
