"""Exact combinatorics of characters, filtrations, extensions and
homomorphisms for quantum GL3 at an l-th root of unity.

Everything is integer-exact: characters live in the group ring of the SL3
weight lattice, and every structural statement (filtration factor lists,
extension tables, submodule graphs, homomorphism witnesses) is checked
against character identities.
"""

from qgl3.charring import (
    FormalChar,
    chi_l,
    chi_l_weyl,
    euler_char,
    frobenius_twist,
    restricted_simple_char,
    simple_char_p0,
    weyl_char,
)
from qgl3.decomp import chi_decomposition, zhat_char, zhat_factors
from qgl3.ext import ExtValue, ext1_g, ext1_g1, ext1_g1b, socle_fundamental_tensor
from qgl3.homs import HomWitness, hom_exists_mirror, zhat_head_weight
from qgl3.lattice import FacetType, PositiveRoot, Weight, facet_classify, linked
from qgl3.structure import ModuleGraph, nabla_l_filtration, validate_graph, zhat_structure

__version__ = "0.1.0"

__all__ = [
    "ExtValue",
    "FacetType",
    "FormalChar",
    "HomWitness",
    "ModuleGraph",
    "PositiveRoot",
    "Weight",
    "chi_decomposition",
    "chi_l",
    "chi_l_weyl",
    "euler_char",
    "ext1_g",
    "ext1_g1",
    "ext1_g1b",
    "facet_classify",
    "frobenius_twist",
    "hom_exists_mirror",
    "linked",
    "nabla_l_filtration",
    "restricted_simple_char",
    "simple_char_p0",
    "socle_fundamental_tensor",
    "validate_graph",
    "weyl_char",
    "zhat_char",
    "zhat_factors",
    "zhat_head_weight",
    "zhat_structure",
]
