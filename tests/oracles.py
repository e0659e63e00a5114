"""The weight-basis routes the tests compare the engine's identities against.

The engine checks its character identities in the basis of induced
characters (chi_l_weyl) or times the Weyl denominator (the zhat suite); the
functions here build the same characters weight by weight, as independent
oracles, and the engine never takes them.  They read each restricted simple
character many times, so restricted_simple is memoized here, not in the
engine.
"""

import functools

from qgl3.charring import (
    FormalChar,
    char_sum,
    euler_char,
    frobenius_twist,
    peel_dominant,
    restricted_simple_char,
)
from qgl3.lattice import Weight, decompose
from qgl3.structure import G1B_SIMPLE


@functools.cache
def restricted_simple(res: Weight, l: int) -> FormalChar:
    """restricted_simple_char(res, l), built once per (res, l)."""
    return restricted_simple_char(res, l)


def shift(x: FormalChar, w: Weight) -> FormalChar:
    """x * e(w): every support weight moved by w, without a convolution."""
    a, b = w
    return FormalChar({(p + a, q + b): c for (p, q), c in x.coeffs.items()})


def chi_l(mu: Weight, l: int) -> FormalChar:
    """charring.chi_l with the restricted simple character memoized: the
    twisted euler_char of the classical part times L(restricted part)."""
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
    and their virtual combinations.  Terms come out leading weight first."""
    return list(peel_dominant(x, lambda k: chi_l(k, l)).items())


def graph_character(g) -> FormalChar:
    """Sum of the node characters of a structure graph: thickened-kernel
    simples for a Borel-induced module, chi_l terms for a filtration."""
    node_char = hat_simple_char if g.kind == G1B_SIMPLE else chi_l
    return char_sum(node_char(n.weight, g.l) for n in g.nodes)


def off_wall_character(entry, l: int) -> FormalChar:
    """Weight-basis character of a translate_off_wall entry: zero when it
    vanishes, else chi_l of its weight."""
    return FormalChar() if entry.vanishes else chi_l(entry.as_weight(l), l)
