"""Homomorphism existence between induced modules via the mirror criterion.

A nonzero map from the induced module of lam to that of mu is guaranteed
when mu lies strictly below lam in the dominance order and the two weights
are dot-mirror images in the unique wall of level l between them.  The
criterion is sufficient, not complete: at l = 5, L(2,0) lies in the head of
nabla(0,10) (ext1_g((2,0), (0,10), 5) is 0) and (2,0) is in the bottom
alcove, so Hom(nabla(0,10), nabla(2,0)) is nonzero, yet (0,10) - (2,0) is
not a multiple of one root and no witness exists.

hat_dual_pair is the one dual map of thickened-kernel simples, and
dual_module_weight the one dual weight 2(l-1)rho - lam of a Borel-induced
module, both on int pairs; zhat_head_weight builds a Weight from them, and
validate_graph reads the head as an int pair.
"""

from __future__ import annotations

from dataclasses import dataclass

from qgl3.lattice import (
    POSITIVE_ROOTS,
    PositiveRoot,
    Weight,
    affine_reflect,
    check_level,
    pairing,
)


@dataclass(frozen=True)
class HomWitness:
    beta: PositiveRoot
    m: int

    def to_jsonable(self) -> dict:
        return {"beta": self.beta.name.lower(), "m": self.m}


def _characteristic_zero(p: int) -> None:
    if p != 0:
        raise ValueError(f"mirror witnesses are computed in characteristic 0 only, got p={p}")


def dominance_below(mu: Weight, lam: Weight) -> bool:
    """True when lam - mu is a nonzero nonnegative sum of simple roots."""
    da, db = lam[0] - mu[0], lam[1] - mu[1]
    if da == db == 0:
        return False
    c1, c2 = 2 * da + db, da + 2 * db
    return c1 >= 0 and c2 >= 0 and c1 % 3 == 0 and c2 % 3 == 0


def witness_valid(lam: Weight, mu: Weight, w: HomWitness, l: int, p: int = 0) -> bool:
    """Re-verify a witness independently of the search that produced it:
    mu is lam reflected in the wall <x + rho, beta~> = m*l, and that wall is
    the only multiple of l between the two pairings.

    p must be 0: the engine computes in characteristic 0, and the parameter
    is kept because the benchmark passes it.
    """
    _characteristic_zero(p)
    check_level(l)
    if affine_reflect(lam, w.beta, w.m, l) != (mu[0], mu[1]):
        return False
    lo = min(pairing(lam, w.beta), pairing(mu, w.beta))
    hi = max(pairing(lam, w.beta), pairing(mu, w.beta))
    return hi // l - (lo - 1) // l == 1  # multiples of l in [lo, hi]


def hom_exists_mirror(lam: Weight, mu: Weight, l: int, p: int = 0) -> HomWitness | None:
    """Search for a mirror-wall witness forcing Hom(nabla(lam), nabla(mu)) != 0.

    Returns the first valid witness in root order (alpha1, alpha2, rho), or
    None.  Each root has at most one candidate wall, the midpoint of the two
    pairings.  The criterion is sufficient only (see the module docstring).

    p must be 0: the engine computes in characteristic 0, and the parameter
    is kept because the benchmark passes it.
    """
    _characteristic_zero(p)
    check_level(l)
    if min(lam[0], lam[1], mu[0], mu[1]) < 0:
        raise ValueError(
            f"hom_exists_mirror needs dominant weights, got {Weight(*lam)}, {Weight(*mu)}"
        )
    if not dominance_below(mu, lam):
        return None
    for beta in POSITIVE_ROOTS:
        total = pairing(lam, beta) + pairing(mu, beta)
        if total % (2 * l) == 0:
            w = HomWitness(beta, total // (2 * l))
            if witness_valid(lam, mu, w, l):
                return w
    return None


def hat_dual_pair(nu: tuple[int, int], l: int) -> tuple[int, int]:
    """Weight of the dual of a thickened-kernel simple, as an int pair: swap
    the restricted part, negate the classical part.  The one definition of
    the dual map; the head check of validate_graph reads it on int pairs."""
    check_level(l)
    a, b = nu
    ra, rb = a % l, b % l
    return rb - (a - ra), ra - (b - rb)


def dual_module_weight(lam: tuple[int, int], l: int) -> tuple[int, int]:
    """2(l-1)rho - lam as an int pair: the weight of the dual of the
    Borel-induced module of weight lam.  The one place it is computed."""
    check_level(l)
    top = 2 * (l - 1)
    return top - lam[0], top - lam[1]


def zhat_head_weight(lam: Weight, l: int) -> Weight:
    """Highest weight of the simple head of the Borel-induced module: the
    dual weight of 2(l-1)rho - lam.  For vertex weights this returns lam
    itself (the module is simple)."""
    return Weight(*hat_dual_pair(dual_module_weight(lam, l), l))
