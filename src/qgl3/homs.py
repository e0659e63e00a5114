"""Homomorphism existence between induced modules via the mirror criterion.

A nonzero map from the induced module of lam to that of mu is guaranteed
when mu lies strictly below lam in the dominance order and the two weights
are mirror images in the unique wall of level l*p^e between them.  In
characteristic zero only e = 0 walls occur and the criterion is complete
at the level of existence; the spaces are at most one-dimensional.
"""

from __future__ import annotations

from dataclasses import dataclass

from qgl3.lattice import (
    POSITIVE_ROOTS,
    PositiveRoot,
    Weight,
    pairing,
)


@dataclass(frozen=True)
class HomWitness:
    beta: PositiveRoot
    m: int
    e: int

    def to_jsonable(self) -> dict:
        return {"beta": self.beta.name.lower(), "m": self.m, "e": self.e}


def dominance_below(mu: Weight, lam: Weight) -> bool:
    """True when lam - mu is a nonzero nonnegative sum of simple roots."""
    d = Weight(*lam) - Weight(*mu)
    if d == Weight(0, 0):
        return False
    c1, c2 = 2 * d.a + d.b, d.a + 2 * d.b
    return c1 >= 0 and c2 >= 0 and c1 % 3 == 0 and c2 % 3 == 0


def witness_valid(lam: Weight, mu: Weight, w: HomWitness, l: int, p: int) -> bool:
    """Re-verify a witness independently of the search that produced it."""
    step = l * (p ** w.e if p else 1)
    if p == 0 and w.e != 0:
        return False
    c = pairing(lam, w.beta) - w.m * step
    v = w.beta.vector
    if Weight(lam[0] - c * v[0], lam[1] - c * v[1]) != Weight(*mu):
        return False
    lo = min(pairing(lam, w.beta), pairing(mu, w.beta))
    hi = max(pairing(lam, w.beta), pairing(mu, w.beta))
    walls_between = hi // step - (lo - 1) // step  # multiples of step in [lo, hi]
    return walls_between == 1


def hom_exists_mirror(lam: Weight, mu: Weight, l: int, p: int = 0) -> HomWitness | None:
    """Search for a mirror-wall witness forcing Hom(nabla(lam), nabla(mu)) != 0.

    Returns the lexicographically least witness by (e, root, m), or None.
    The criterion is sufficient; for p > 0 no completeness is claimed.
    """
    lam, mu = Weight(*lam), Weight(*mu)
    if not (lam.is_dominant() and mu.is_dominant()):
        raise ValueError(f"hom_exists_mirror needs dominant weights, got {lam}, {mu}")
    if not dominance_below(mu, lam):
        return None
    best = None
    for beta in POSITIVE_ROOTS:
        p_lam = pairing(lam, beta)
        p_mu = pairing(mu, beta)
        total = p_lam + p_mu
        e = 0
        while True:
            step = l * (p ** e if p else 1)
            if step > p_lam:
                break
            if total % (2 * step) == 0:
                cand = HomWitness(beta, total // (2 * step), e)
                if witness_valid(lam, mu, cand, l, p) and (
                    best is None or (cand.e, cand.beta.value, cand.m) < (best.e, best.beta.value, best.m)
                ):
                    best = cand
            if p == 0:
                break
            e += 1
    return best


def hat_dual_weight(nu: Weight, l: int) -> Weight:
    """Weight of the dual of a thickened-kernel simple: swap the restricted
    part, negate the classical part."""
    a, b = nu
    ra, rb = a % l, b % l
    return Weight(rb - (a - ra), ra - (b - rb))


def zhat_head_weight(lam: Weight, l: int) -> Weight:
    """Highest weight of the simple head of the Borel-induced module: the
    dual weight of 2(l-1)rho - lam.  For vertex weights this returns lam
    itself (the module is simple)."""
    a, b = lam
    top = 2 * (l - 1)
    return hat_dual_weight((top - a, top - b), l)
