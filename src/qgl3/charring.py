"""Exact formal character ring over the A2 weight lattice.

Characters live in the integral group ring ZX with basis e(lam) and product
e(lam)e(mu) = e(lam+mu).  Everything here is exact integer arithmetic; the
two independent constructions of the induced-module character cross-check
each other and neither calls the other: Gelfand-Tsetlin counting
(kernels.ssyt_weight_counts) and the quotient A(lam+rho) / A(rho) by the
factored Weyl denominator, in runs along root strings (divide_by_weyl_denominator).

FormalChar.coeffs is keyed by int pairs (a, b): the engine builds plain
tuples, which hash and compare equal to Weight, and uses Weight only where a
weight leaves as a value (arguments, the keys of the peel results).

W-invariant characters also have a Weyl-basis form, {dominant weight: int}
in the basis of induced characters.  chi_l_weyl and tensor_multiplicity
work there by the Brauer-Klimyk rule, whose keys are plain int pairs; the
weight-basis chi_l and decompose_into_weyl are kept as their independent
oracles.  tensor_multiplicity, the tests' oracle of ext's Pieri table, makes
one kernels.brauer_klimyk call each; chi_l_weyl makes one per template, a
table of rows over lattice.restricted_orbit shared by the weights with the
same dominantized classical part, facet and l.  The restricted simple characters are written
once in the Weyl basis, by restricted_simple_weyl; their weight-basis
characters, their numerators and the heads of the templates are all read
off it.

Induced and restricted simple characters are not memoized: each call
builds its character afresh, though the tableau counts share their weight
keys through kernels._key_lines.  The memos here are _bk_weights, the
tableau counts of the classical parts and small tensor factors that the
Brauer-Klimyk rule expands, _chi_l_templates and _chi_l_weyl_cache.
"""

from __future__ import annotations

import json
from itertools import accumulate, repeat
from typing import Callable, Iterable

from qgl3 import kernels
from qgl3.lattice import (
    RHO,
    FacetType,
    Weight,
    decompose,
    dominance_key,
    dominantize,
    ordinary_orbit,
    restricted_orbit,
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

    def to_json(self) -> str:
        return json.dumps(sorted([w[0], w[1], c] for w, c in self.coeffs.items()))

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
    """Character of the induced module of highest weight lam, built afresh
    by counting Gelfand-Tsetlin patterns (equivalently, semistandard
    tableaux) of the two-row shape (a+b, b) in three letters."""
    lam = Weight(*lam)
    if not lam.is_dominant():
        raise ValueError(f"weyl_char needs a dominant weight, got {lam}")
    return FormalChar(kernels.ssyt_weight_counts(lam.a + lam.b, lam.b))


# Weight multiplicities of the induced characters that the Brauer-Klimyk
# rule expands, keyed by dominant weight: the only ones read again and again,
# and small (chi_l_weyl's classical parts, the engine's only reads, and the
# smaller factor of a tensor_multiplicity).
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
    The engine does not call it; it is kept because the benchmark's tracer
    names it.

    Peels the lex-leading term off one remainder dict in place.  Newton
    polygons add under multiplication, so an exact quotient lies in the box
    [min_a(num) - min_a(den), max_a(num) - max_a(den)] x (the same in b): a
    term outside it proves the division inexact, and the loop ends.
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


def divide_by_weyl_denominator(num: FormalChar) -> FormalChar:
    """num / A(rho), where A(rho) = alt_weyl_sum(RHO); ValueError when A(rho)
    does not divide num.

    A(rho) = e(rho)(1 - e(-alpha1))(1 - e(-alpha2))(1 - e(-theta)); dividing
    by 1 - e(-alpha) takes running sums down alpha-strings, finite only when
    each string sums to 0.  Only the alpha1 pass reads keys; its running sums
    are constant runs.  A run divides by 1 - e(-alpha2) to its value on the
    half-strip below it: an alpha2-string (2a + b fixed) sums to the runs it
    crosses, checked by a sorted sweep of run ends per coset mod 3, and a
    theta-string (a - b = f, bounded by Newton polygons) meets a half-strip
    in an interval, so the quotient is piecewise linear there, one
    dict.update per piece.  An inexact division names a string that does not
    sum to 0 by its lowest weight in the partial quotient and its root.
    """
    inexact = "inexact division by the Weyl denominator: the string ({},{}) + N({},{}) sums to {}, not 0"
    strings: dict[int, list[tuple[int, int]]] = {}
    for (a, b), c in num.coeffs.items():  # keyed on x = num * e(-rho)
        strings.setdefault(a + 2 * b - 3, []).append((a - 1, c))
    runs = []  # (top a, top a - b, length, value)
    for h, string in strings.items():
        string.sort(reverse=True)
        total = 0
        for (a, c), (a_next, _) in zip(string, string[1:]):
            total += c
            if total:
                runs.append((a, (3 * a - h) // 2, (a - a_next) // 2, total))
        a, c = string[-1]
        if total + c:
            raise ValueError(inexact.format(a, (h - a) // 2, 2, -1, total + c))

    ends: dict[tuple[int, int], int] = {}  # (coset, 2a + b) -> change of the alpha2-string sums
    cosets: dict[int, list[tuple[int, int, int, int]]] = {}
    for ta, ft, n, v in runs:
        g = 3 * ta - ft
        for key, dv in (((ft % 3, g - 3 * n + 3), v), ((ft % 3, g + 3), -v)):
            ends[key] = ends.get(key, 0) + dv
        cosets.setdefault(ft % 3, []).append((ta, ft, n, v))
    marks = sorted(ends)
    for (_, g), total in zip(marks, accumulate(map(ends.get, marks))):
        if total:  # the string's lowest weight is its crossing with the largest a
            crossings = ((ta, n, *divmod(3 * ta - ft - g, 3)) for ta, ft, n, _ in runs)
            a = max(ta - 2 * j for ta, n, j, r in crossings if not r and 0 <= j < n)
            raise ValueError(inexact.format(a, g - 2 * a, -1, 2, total))

    out: dict[tuple[int, int], int] = {}
    for tops in cosets.values():
        for f in range(min(ft - 3 * n for _, ft, n, _ in tops) + 3, max(ft for _, ft, _, _ in tops) - 2, 3):
            # a run's half-strip meets the string at a = ta - d - j, max(0, d) <= j < n
            events = []
            for ta, ft, n, v in tops:
                d = (ft - f) // 3
                if d < n:
                    events.append((ta - d if d < 0 else ta - 2 * d, v))
                    events.append((ta - d - n, -v))
            events.sort(reverse=True)
            total = step = 0
            for (p, dv), (p_next, _) in zip(events, events[1:]):
                step += dv
                if p == p_next:
                    continue
                n = p - p_next
                keys = zip(range(p, p_next, -1), range(p - f, p_next - f, -1))
                if step:
                    out.update(zip(keys, range(total + step, total + (n + 1) * step, step)))
                    k, r = divmod(-total, step)
                    if not r and 0 < k <= n:  # the running sum passes through 0
                        del out[p + 1 - k, p + 1 - k - f]
                    total += n * step
                    low = p_next + 1
                elif total:
                    out.update(zip(keys, repeat(total, n)))
            if total:
                raise ValueError(inexact.format(low, low - f, 1, 1, total))
    return FormalChar(out)


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


def restricted_simple_weyl(lam: Weight, l: int) -> dict[tuple[int, int], int]:
    """The restricted simple character L(lam) in the basis of induced
    characters, keyed by int pairs: {lam: 1}, and for up-alcove lam also
    {mirror: -1}, since an up-alcove induced module has exactly two
    composition factors, the head at the mirror weight in the alcove below,
    point 0 of lam's restricted orbit.  The one place this rule is written;
    ValueError when lam is not restricted."""
    key = (lam[0], lam[1])
    facet, points = restricted_orbit(key, l)
    if facet is FacetType.UP_ALCOVE:
        return {key: 1, points[0]: -1}
    return {key: 1}


def restricted_simple_char(lam: Weight, l: int) -> FormalChar:
    """Character of the restricted simple module of highest weight lam,
    built afresh from restricted_simple_weyl."""
    return char_from_weyl(restricted_simple_weyl(Weight(*lam), l))


def restricted_simple_numerator(lam: Weight, l: int) -> FormalChar:
    """restricted_simple_char(lam, l) * A(rho), where A(rho) = alt_weyl_sum(RHO):
    the sum of c * A(k + rho) over restricted_simple_weyl(lam, l), by the
    Weyl character formula.  At most 12 terms."""
    return char_sum(
        c * alt_weyl_sum(Weight(a + 1, b + 1))
        for (a, b), c in restricted_simple_weyl(Weight(*lam), l).items()
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

    Leads come off a heap of negated dominance_keys, skipping keys whose
    weight has left the remainder; each step removes the lead and adds only
    lower weights, so the leads strictly decrease and the loop ends.
    """
    from heapq import heapify, heappop, heappush  # on first use: only the oracles peel
    rem = dict(x.coeffs)
    heap = [(-a - b, -a) for a, b in rem]
    heapify(heap)
    out: dict[Weight, int] = {}
    while rem:
        s, a = heappop(heap)
        if (-a, a - s) not in rem:
            continue
        top = Weight(-a, a - s)
        if not top.is_dominant():
            raise ValueError(f"not expandable: leading weight {top} is not dominant")
        c = out[top] = rem[top]
        for w, m in basis(top).coeffs.items():
            n = rem.get(w)
            if n is None:
                rem[w] = -c * m
                heappush(heap, (-w[0] - w[1], -w[0]))
            elif n == c * m:
                del rem[w]
            else:
                rem[w] = n - c * m
    return out


def decompose_into_weyl(x: FormalChar) -> dict[Weight, int]:
    """Write a W-invariant character as an integer combination of weyl_chars."""
    return peel_dominant(x, weyl_char)


# Weyl basis: {dominant weight: int}, as decompose_into_weyl returns.
# Products with an induced character follow the Brauer-Klimyk rule: for a
# W-invariant family of weights kappa with multiplicities m(kappa),
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
    combination; inverse to decompose_into_weyl.  The tableau counts of the
    largest unit-coefficient term become the sum's dict without a copy, and
    the other terms, each built afresh, are added into it."""
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


# Brauer-Klimyk templates of chi_l_weyl, keyed on (dominantized classical
# part, facet of the restricted part, l): rows (l*qa, l*qb, k, c) over the
# restricted orbit, each standing for c times the induced character of
# l*q + points[k], before the sign of the classical part.  A weight whose
# orbit points coincide, a 3 | l alcove centre, keys its own template by
# its restricted part instead of its facet.
_chi_l_templates: dict[tuple[int, int, FacetType | tuple[int, int], int],
                        tuple[tuple[int, int, int, int], ...]] = {}
_chi_l_weyl_cache: dict[tuple[int, int, int], dict[tuple[int, int], int]] = {}


def _chi_l_template(top: tuple[int, int], res: tuple[int, int], l: int,
                    points: tuple[tuple[int, int], ...]) -> tuple[tuple[int, int, int, int], ...]:
    """chi_l_weyl(l*top + res, l) for a dominant top, as rows
    (l*qa, l*qb, k, c) over points = restricted_orbit(res, l), one
    kernels.brauer_klimyk call: each output weight is linked to res, so its
    restricted part is points[k] for exactly one k when the points are
    pairwise distinct."""
    index = {p: k for k, p in enumerate(points)}
    heads = restricted_simple_weyl(res, l).items()
    rows = []
    for (a, b), c in kernels.brauer_klimyk(_weights_of(top), heads, l).items():
        pa, pb = a % l, b % l
        rows.append((a - pa, b - pb, index[pa, pb], c))
    return tuple(rows)


def chi_l_weyl(mu: Weight, l: int) -> dict[tuple[int, int], int]:
    """chi_l(mu, l) in the basis of induced characters, keyed by int pairs.

    Write mu = l*c + r and let c' = w.c be the dominantized classical part
    (sign det w, or zero when c is singular).  With L(r) = sum of
    d * ch(k) over restricted_simple_weyl(r, l), the Brauer-Klimyk rule gives

        chi_l(mu) = sign * sum over kappa in wt(c') and (k, d) of
                    m(kappa) * d * euler(k + l*kappa).

    Every term is linked to r, and which alcove or wall l*kappa + k falls in
    does not move while r stays in its facet (checked weight by weight in
    the tests), so the sum is read off the template of (c', facet of r, l),
    built on the first weight that needs it: its rows (l*qa, l*qb, j, e) give
    sign * e * ch(l*q + points[j]) over points = restricted_orbit(r, l).
    Memoized on (mu, l); the returned dict is shared and must not be
    modified.
    """
    key = (mu[0], mu[1], l)
    hit = _chi_l_weyl_cache.get(key)
    if hit is None:
        if l < 2:
            raise ValueError(f"need l >= 2, got {l}")
        ca, ra = divmod(mu[0], l)
        cb, rb = divmod(mu[1], l)
        sign, top = dominantize((ca, cb))
        hit = {}
        if sign:
            facet, points = restricted_orbit((ra, rb), l)
            shape = facet if len(set(points)) == len(points) else (ra, rb)
            tkey = (top[0], top[1], shape, l)
            rows = _chi_l_templates.get(tkey)
            if rows is None:
                rows = _chi_l_templates[tkey] = _chi_l_template(top, (ra, rb), l, points)
            hit = {(qa + points[k][0], qb + points[k][1]): sign * c for qa, qb, k, c in rows}
        _chi_l_weyl_cache[key] = hit
    return hit


def tensor_multiplicity(target: Weight, x: Weight, y: Weight) -> int:
    """Multiplicity of the induced character of `target` in weyl(x)*weyl(y),
    the coefficient of `target` in the Brauer-Klimyk sum over the weights
    kappa of the smaller factor of m(kappa) * euler(x + kappa).  The engine
    does not call it; it is kept because the benchmark's tracer names it."""
    if min(x[0], x[1], y[0], y[1]) < 0:
        raise ValueError(f"tensor_multiplicity needs dominant weights, got {x}, {y}")
    if weyl_dimension(x) < weyl_dimension(y):
        x, y = y, x
    return kernels.brauer_klimyk(_weights_of(y), [(x, 1)], 1).get(target, 0)
