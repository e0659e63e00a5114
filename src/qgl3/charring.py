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
weight leaves as a value (arguments, the keys of the peel results).

W-invariant characters also have a Weyl-basis form, {dominant weight: int}
in the basis of induced characters.  chi_l_weyl and tensor_multiplicity
work there by the Brauer-Klimyk rule, one kernels.brauer_klimyk call each,
whose keys are plain int pairs; the weight-basis chi_l and
decompose_into_weyl are kept as their independent oracles.

Induced characters are not memoized: both routes build each one afresh.
The only memo of them is _bk_weights, the tableau counts of the classical
parts and small tensor factors that the Brauer-Klimyk rule expands.
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
    PositiveRoot,
    Weight,
    affine_reflect,
    classify_restricted,
    decompose,
    dominance_key,
    dominantize,
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
        if not all(coeffs.values()):
            coeffs = {w: c for w, c in coeffs.items() if c}
        self.coeffs = coeffs

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

    def to_triples(self) -> list[list[int]]:
        return sorted([w[0], w[1], c] for w, c in self.coeffs.items())

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


def weyl_char(lam: Weight) -> FormalChar:
    """Character of the induced module of highest weight lam.

    Computed by counting Gelfand-Tsetlin patterns (equivalently,
    semistandard tableaux) of the two-row shape (a+b, b) in three letters
    and projecting contents to SL3 coordinates.  Not memoized: each call
    builds the character afresh.
    """
    lam = Weight(*lam)
    if not lam.is_dominant():
        raise ValueError(f"weyl_char needs a dominant weight, got {lam}")
    return FormalChar(kernels.ssyt_weight_counts(lam.a + lam.b, lam.b))


# Weight multiplicities {(a, b): int} of the induced characters that
# chi_l_weyl and tensor_multiplicity expand by the Brauer-Klimyk rule, keyed
# by dominant weight.  These are the only induced characters the engine
# reads again and again, and they are small: the dominantized classical
# parts of chi_l_weyl's arguments and the smaller factor of a tensor product.
_bk_weights: dict[tuple[int, int], dict[tuple[int, int], int]] = {}


def _weights_of(lam: tuple[int, int]) -> dict[tuple[int, int], int]:
    """The weight multiplicities of weyl_char(lam) for a dominant lam,
    memoized in _bk_weights; the returned dict is shared and must not be
    modified."""
    key = (lam[0], lam[1])
    hit = _bk_weights.get(key)
    if hit is None:
        hit = _bk_weights[key] = kernels.ssyt_weight_counts(key[0] + key[1], key[1])
    return hit


def weyl_dimension(lam: Weight) -> int:
    a, b = lam
    return (a + 1) * (b + 1) * (a + b + 2) // 2


def alt_weyl_sum(mu: Weight) -> FormalChar:
    """Antisymmetrized orbit sum of e(mu) under the linear Weyl action, keyed
    by int pairs."""
    out: dict[tuple[int, int], int] = {}
    for sign, (a, b) in ordinary_orbit(mu):
        out[a, b] = out.get((a, b), 0) + sign
    return FormalChar(out)


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
    q stays at the string's total, which must be 0 for q to be finite, so
    the string's lowest weight is not stored.  Only a zero sum inside a
    string can leave a zero coefficient in the result.
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
        # the bottom entry's sum was just shown to be 0: leave it out
        out.update(zip(string[:-1], sums))
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
    x = shift(num, -RHO).coeffs
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


def shift(x: FormalChar, w: Weight) -> FormalChar:
    """x * e(w): every support weight moved by w, without a convolution."""
    a, b = w
    return FormalChar({(p + a, q + b): c for (p, q), c in x.coeffs.items()})


def frobenius_twist(x: FormalChar, l: int) -> FormalChar:
    """Scale every support weight by l."""
    return FormalChar({(a * l, b * l): c for (a, b), c in x.coeffs.items()})


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


def up_alcove_mirror(res: Weight, l: int) -> Weight:
    """Mirror (l-v-2, l-u-2) of an up-alcove restricted weight (u, v) in the
    alcove below: its reflection in the rho wall at level l."""
    return affine_reflect(res, PositiveRoot.RHO, 1, l)


def _restricted_simple_char_uncached(lam: Weight, l: int) -> FormalChar:
    if classify_restricted(lam, l) is FacetType.UP_ALCOVE:
        # Up-alcove induced modules have exactly two composition factors; the
        # head is the mirror weight in the alcove below.
        return weyl_char(lam) - weyl_char(up_alcove_mirror(lam, l))
    return weyl_char(lam)


def restricted_simple_char(lam: Weight, l: int) -> FormalChar:
    """Character of the restricted simple module of highest weight lam."""
    return simple_table(l).get(Weight(*lam))


def restricted_simple_numerator(lam: Weight, l: int) -> FormalChar:
    """restricted_simple_char(lam, l) * A(rho), where A(rho) = alt_weyl_sum(RHO):
    A(lam + rho) - A(mirror + rho) by the Weyl character formula, the
    second term only for up-alcove lam.  At most 12 terms."""
    lam = Weight(*lam)
    num = alt_weyl_sum(lam + RHO)
    if classify_restricted(lam, l) is FacetType.UP_ALCOVE:
        num = num - alt_weyl_sum(up_alcove_mirror(lam, l) + RHO)
    return num


def chi_l(mu: Weight, l: int) -> FormalChar:
    """Twisted-tensor character: euler_char of the classical part, twisted,
    times the restricted simple character.  Zero when the classical part is
    singular; a negated character when it is regular non-dominant."""
    cls, res = decompose(mu, l)
    eu = euler_char(cls)
    if not eu:
        return ZERO_CHAR
    return frobenius_twist(eu, l) * restricted_simple_char(res, l)


def simple_char_p0(lam: Weight, l: int) -> FormalChar:
    """Simple character via the twisted tensor factorization, in
    characteristic 0, where the classical factor is an induced module."""
    lam = Weight(*lam)
    if not lam.is_dominant():
        raise ValueError(f"simple_char_p0 needs a dominant weight, got {lam}")
    return chi_l(lam, l)


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
# which kernels.brauer_klimyk sums on int pairs.


def weyl_sum(parts: Iterable[dict[Weight, int]]) -> dict[Weight, int]:
    """Sum of {weight: int} combinations in either basis, zero coefficients
    dropped."""
    out: dict[Weight, int] = {}
    for part in parts:
        for w, c in part.items():
            out[w] = out.get(w, 0) + c
    return {w: c for w, c in out.items() if c}


def coeff_diff(got: dict[Weight, int], want: dict[Weight, int]) -> str:
    """The string "ok", or the first few coefficients that differ; got and
    want are {weight: int} in the weight basis (FormalChar.coeffs) or in the
    Weyl basis."""
    if got == want:
        return "ok"
    diff = [
        f"{Weight(*w)}: want {want.get(w, 0)} got {got.get(w, 0)}"
        for w in sorted(set(got) | set(want))
        if got.get(w, 0) != want.get(w, 0)
    ]
    return "; ".join(diff[:4]) if diff else "ok"


def char_sum(parts: Iterable[FormalChar]) -> FormalChar:
    """Sum of weight-basis characters, accumulated in one dict."""
    return FormalChar(weyl_sum(p.coeffs for p in parts))


def char_from_weyl(x: dict[Weight, int]) -> FormalChar:
    """The weight-basis character sum c * weyl_char(k) of a Weyl-basis
    combination; inverse to decompose_into_weyl.

    Each induced character is built afresh.  The tableau counts of the
    largest unit-coefficient term become the sum's dict as they are, with
    no copy, and the other terms are added into it.
    """
    for k in x:
        if k[0] < 0 or k[1] < 0:
            raise ValueError(f"char_from_weyl needs dominant weights, got {Weight(*k)}")
    base = max((k for k, c in x.items() if c == 1), key=weyl_dimension, default=None)
    out = {} if base is None else kernels.ssyt_weight_counts(base[0] + base[1], base[1])
    for k, c in x.items():
        if k != base:
            for w, m in kernels.ssyt_weight_counts(k[0] + k[1], k[1]).items():
                out[w] = out.get(w, 0) + c * m
    return FormalChar(out)


_chi_l_weyl_cache: dict[tuple[int, int, int], dict[tuple[int, int], int]] = {}


def chi_l_weyl(mu: Weight, l: int) -> dict[tuple[int, int], int]:
    """chi_l(mu, l) in the basis of induced characters, keyed by int pairs.

    Write mu = l*c + r, let c' = w.c be the dominantized classical part
    (sign det w, or zero when c is singular) and rbar the mirror of r when r
    is up-alcove.  Since L(r) = ch(r) - ch(rbar), with the second term only
    for up-alcove r, the Brauer-Klimyk rule gives

        chi_l(mu) = sign * sum over kappa in wt(c') of
                    m(kappa) * [euler(r + l*kappa) - euler(rbar + l*kappa)],

    which kernels.brauer_klimyk sums with (r, sign) and (rbar, -sign) as
    heads.  Memoized on (mu, l); the returned dict is shared and must not
    be modified.
    """
    key = (mu[0], mu[1], l)
    hit = _chi_l_weyl_cache.get(key)
    if hit is None:
        cls, res = decompose(mu, l)
        sign, top = dominantize(cls)
        hit = {}
        if sign:
            heads = [(res, sign)]
            if classify_restricted(res, l) is FacetType.UP_ALCOVE:
                heads.append((up_alcove_mirror(res, l), -sign))
            hit = kernels.brauer_klimyk(_weights_of(top), heads, l)
        _chi_l_weyl_cache[key] = hit
    return hit


def tensor_multiplicity(target: Weight, x: Weight, y: Weight) -> int:
    """Multiplicity of the induced character of `target` in weyl(x)*weyl(y).

    Brauer-Klimyk: weyl(x)*weyl(y) = sum over the weights kappa of the
    smaller factor of m(kappa) * euler(x + kappa); the coefficient of
    `target` in that sum is the multiplicity.
    """
    if not (Weight(*x).is_dominant() and Weight(*y).is_dominant()):
        raise ValueError(f"tensor_multiplicity needs dominant weights, got {x}, {y}")
    if weyl_dimension(x) < weyl_dimension(y):
        x, y = y, x
    return kernels.brauer_klimyk(_weights_of(y), [(x, 1)], 1).get(target, 0)
