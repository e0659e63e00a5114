"""Submodule-structure graphs of Borel-induced modules and the layered
good-filtration graphs of induced modules.

Nodes are composition factors (thickened-kernel simples) or twisted-tensor
filtration factors; a directed edge upper -> lower records a nonsplit
extension of the lower factor by the upper one.  The edge lists are the
Ext tables of qgl3.ext, and the layers are read off the edges, once, at
import: the longest path from a source, or in the up alcove the dual
reading, top minus the longest path to a sink.  The mixed congruence
variants of the nine-factor filtrations delete the edge named by the
violated congruence, add the two that replace it, and keep the congruent
diagram's layers; they are flagged as reconstructions.  Each graph is
built by one call from one (edges, layers) table and the positions it
keeps: all of the table's for a Borel-induced module, the surviving
positions for a filtration.  What depends on the table and the kept
positions alone (node ids, factor indices, layers, kept edges, the top
position) is compiled once into a skeleton, memoized on the table's content
and the kept positions, and each call fills it with the weight's factors.
validate_graph reads no character.  It gives a Borel-induced graph four
checks (nodes, sink, source, Ext edges) and a filtration two; duality, the
dual module's graph being the reverse of this one, is not checked per
graph: tier-1 proves it on the tables (tests/test_family_tables.py).  The
node checks compare multisets as sorted weight tuples and as plain
{weight: count} dicts, whose == runs in C, and coeff_diff formats the
want/got text of a node check only when it fails.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

from qgl3.charring import coeff_diff
from qgl3.decomp import check_positions, chi_decomposition, factor_family, net_terms
from qgl3.ext import WALL_CHAIN_EDGES, WALL_DIAMOND_EDGES, ZHAT_EDGES, ext_table
from qgl3.homs import dual_module_weight, hat_dual_pair
from qgl3.lattice import FacetType, Weight

G1B_SIMPLE = "G1BSimple"
NABLA_L = "NablaL"


class GraphNode(NamedTuple):
    id: str
    weight: Weight
    kind: str
    layer: int


@dataclass(frozen=True)
class ModuleGraph:
    lam: Weight
    l: int
    kind: str
    nodes: tuple[GraphNode, ...]
    edges: tuple[tuple[str, str], ...]

    def node_weights(self) -> list[Weight]:
        return [n.weight for n in self.nodes]

    def sources(self) -> list[GraphNode]:
        lowers = {v for _, v in self.edges}
        return [n for n in self.nodes if n.id not in lowers]

    def sinks(self) -> list[GraphNode]:
        uppers = {u for u, _ in self.edges}
        return [n for n in self.nodes if n.id not in uppers]

    def to_jsonable(self) -> dict:
        return {
            "lambda": list(self.lam),
            "l": self.l,
            "kind": self.kind,
            "nodes": [
                {"id": n.id, "weight": list(n.weight), "kind": n.kind, "layer": n.layer}
                for n in self.nodes
            ],
            "edges": [list(e) for e in self.edges],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_jsonable())

    def to_dot(self) -> str:
        name = f"{'zhat' if self.kind == G1B_SIMPLE else 'lfilt'}_{self.lam.a}_{self.lam.b}_l{self.l}"
        label = "L̂" if self.kind == G1B_SIMPLE else "∇_l"
        lines = [f'digraph "{name}" {{', "  rankdir=TB;"]
        for n in sorted(self.nodes, key=lambda n: (n.layer, n.id)):
            lines.append(f'  {n.id} [label="{label}({n.weight.a},{n.weight.b})"];')
        for u, v in self.edges:
            lines.append(f"  {u} -> {v};")
        lines.append("}")
        return "\n".join(lines)


# Edge and layer tables by factor position.  For Borel-induced modules the
# positions index zhat_factors (socle first); for induced-module filtrations
# they index chi_decomposition factors.  The edges are the Ext tables of
# qgl3.ext, and each table's layers are read off its edges once, here: a
# position's layer is its longest path from a source, or in the up alcove
# top minus its longest path to a sink (the dual reading).


def _table(edges, dual: bool = False):
    """(edges, layers) with the layers read off the edges; a table without
    edges is the one-node table."""
    if dual:
        height = _table([(v, u) for u, v in edges])[1]
        return tuple(edges), {i: max(height.values()) - h for i, h in height.items()}
    layers = dict.fromkeys((p for edge in edges for p in edge), 0) or {1: 0}
    for _ in layers:  # a longest path has fewer edges than the table has positions
        for u, v in edges:
            layers[v] = max(layers[v], layers[u] + 1)
    return tuple(edges), layers


# (edges, layers) of the Borel-induced structure graph, by facet.
_ZHAT_TABLES = {f: _table(e, dual=f is FacetType.UP_ALCOVE) for f, e in ZHAT_EDGES.items()}

# The wall filtrations: the wall tables renumbered into chi_decomposition
# order, which lists the four wall factors the other way round.
_NABLA_WALL_CHAIN = _table([(5 - u, 5 - v) for u, v in WALL_CHAIN_EDGES])
_NABLA_WALL_DIAMOND = _table([(5 - u, 5 - v) for u, v in WALL_DIAMOND_EDGES])

# The down-alcove strips a == 0 and b == 0: three factors at most survive.
_STRIP_A = _table(((3, 2), (2, 1)))
_STRIP_B = _table(((5, 4), (4, 1)))

# The edge edits of the non-congruent nine-factor filtrations: per classical
# coordinate, the edge to drop and the two to add.  The up-alcove edits, the
# dual images of the down-alcove ones, keep the printed edge lists' order.
_DOWN_EDITS = ((6, 5), ((9, 5), (6, 4)), (8, 3), ((9, 3), (8, 2)))
_UP_EDITS = ((6, 5), ((9, 5), (6, 4)), (1, 7), ((2, 7), (1, 4)))


def _nine_factor_table(facet: FacetType, edits, ca: bool, cb: bool):
    """The Borel-induced table of the alcove with the edits of each
    classical coordinate not congruent to k mod l.  The mixed cases keep the
    congruent table's layers; they are reconstructions."""
    base, layers = _ZHAT_TABLES[facet]
    drop_a, add_a, drop_b, add_b = edits
    edges = [e for e in base if (ca or e != drop_a) and (cb or e != drop_b)]
    edges += (() if ca else add_a) + (() if cb else add_b)
    if ca or cb:
        return tuple(edges), layers
    return _table(edges, dual=facet is FacetType.UP_ALCOVE)


# The nine-factor filtrations, by (alcove, a = k mod l, b = k mod l), with
# k = 0 in the down alcove and k = l - 1 in the up alcove.
_NINE_FACTOR_TABLES = {
    (facet, ca, cb): _nine_factor_table(facet, edits, ca, cb)
    for facet, edits in ((FacetType.DOWN_ALCOVE, _DOWN_EDITS), (FacetType.UP_ALCOVE, _UP_EDITS))
    for ca in (True, False) for cb in (True, False)
}


_IDS = tuple(f"mu{i}" for i in range(10))

# The skeleton of each (table, kept positions) pair met, keyed by the
# table's content and the kept positions: per kept position, in order, its
# node id, factor index and layer, then the kept edges as id pairs and the
# highest kept position.  At most one per table and survivor set.
_skeletons: dict = {}


def _build(
    lam: Weight,
    l: int,
    kind: str,
    factors: tuple[Weight, ...],
    edges,
    layers: dict[int, int],
    keep: tuple[int, ...],
) -> ModuleGraph:
    """The graph of the kept positions of one (edges, layers) table, its
    nodes carrying the factors at those positions.  What depends on the
    table and keep alone is read off their skeleton, compiled on first use;
    a keep with a position that has no layer is a ValueError on every call
    and is never stored, and the factor list is checked on every call."""
    key = (edges, tuple(layers.items()), keep)
    skeleton = _skeletons.get(key)
    if skeleton is None:
        indices = sorted(keep)
        kept = set(indices)
        missing = sorted(kept - layers.keys())
        if missing:
            raise ValueError(f"{kind} graph of {lam} (l={l}): kept position {missing[0]} has no layer")
        skeleton = _skeletons[key] = (
            tuple((_IDS[i], i - 1, layers[i]) for i in indices),
            tuple((_IDS[u], _IDS[v]) for u, v in edges if u in kept and v in kept),
            max(kept, default=0),
        )
    rows, edge_ids, top = skeleton
    check_positions(lam, l, factors, top)
    new = tuple.__new__  # GraphNode's own __new__ is a Python call per node
    nodes = tuple([new(GraphNode, (i, factors[j], kind, layer)) for i, j, layer in rows])
    return ModuleGraph(lam, l, kind, nodes, edge_ids)


def zhat_structure(lam: Weight, l: int) -> ModuleGraph:
    """Submodule-structure graph of the Borel-induced module of weight lam."""
    if type(lam) is not Weight:
        lam = Weight(*lam)
    facet, factors = factor_family(lam, l)
    edges, layers = _ZHAT_TABLES[facet]
    return _build(lam, l, G1B_SIMPLE, factors, edges, layers, tuple(layers))


def nabla_l_filtration(lam: Weight, l: int) -> ModuleGraph:
    """Layered graph of the good twisted-tensor filtration of the induced
    module of highest weight lam.

    Factors whose classical part is non-dominant or singular are omitted
    together with their incident edges; a kept factor keeps its layer in
    the full table.  On the nine-factor cases the edge set depends on the
    congruence class mod l of the classical coordinates; the two mixed
    cases are reconstructions.
    """
    if type(lam) is not Weight:
        lam = Weight(*lam)
    if not lam.is_dominant():
        raise ValueError(f"nabla_l_filtration needs a dominant weight, got {lam}")
    dec = chi_decomposition(lam, l)
    a, b = lam[0] // l, lam[1] // l  # the classical part
    facet = dec.facet

    if facet is FacetType.VERTEX or (facet is FacetType.DOWN_ALCOVE and a == b == 0):
        edges, layers = _ZHAT_TABLES[FacetType.VERTEX]
    elif facet in (FacetType.RIGHT_WALL, FacetType.LEFT_WALL, FacetType.HORIZONTAL_WALL):
        side = a if facet is FacetType.RIGHT_WALL else b
        is_chain = facet is not FacetType.HORIZONTAL_WALL and side % l == l - 1
        edges, layers = _NABLA_WALL_CHAIN if is_chain else _NABLA_WALL_DIAMOND
    elif facet is FacetType.DOWN_ALCOVE and 0 in (a, b):
        edges, layers = _STRIP_A if a == 0 else _STRIP_B
    else:
        k = 0 if facet is FacetType.DOWN_ALCOVE else l - 1
        edges, layers = _NINE_FACTOR_TABLES[facet, a % l == k, b % l == k]
    return _build(lam, l, NABLA_L, dec.factors, edges, layers, dec.positions)


@dataclass
class ValidationReport:
    checks: list[tuple[str, bool, str]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(passed for _, passed, _ in self.checks)

    def failures(self) -> list[tuple[str, str]]:
        return [(name, detail) for name, passed, detail in self.checks if not passed]

    def add(self, name: str, passed: bool, detail: Callable[[], str]) -> None:
        """detail() formats the failure text; a passing check records ""."""
        self.checks.append((name, passed, "" if passed else detail()))


def validate_graph(g: ModuleGraph) -> ValidationReport:
    """Cross-check a structure graph against its factor list, head/socle
    data and the extension tables.

    A Borel-induced graph gets four checks: its nodes are the factors of
    its Ext table (nodes-match-factors), lam is its one sink, the head
    zhat_head_weight its one source, and every edge is an Ext pair.  That
    the node characters sum to zhat_char is checked by the zhat suite, in
    the numerator form (both sides times A(rho)); the weight-basis sum
    stays in the tests as its oracle.  Duality, the dual module's graph
    being this one reversed, is a fact of the tables, not checked here:
    test_family_tables.py proves it for every facet and l >= 4
    (test_dual_position_on_the_rows, test_dual_position_reverses_the_edges),
    and test_structure.py sweeps the built dual graphs at l in {2, 3, 5, 7}
    (test_duality_check_against_the_built_dual_graph).  A filtration's
    nodes must be the decomp.net_terms of its factors (survivors-net, see
    decomp) and its surviving factors.  nodes-match-factors compares the
    sorted node weights with the sorted factors; the filtration checks
    compare a plain {weight: count} dict of the nodes with net_terms and
    with the count dict of the surviving factors.  Only a failing node
    check calls coeff_diff, on count dicts, to name each differing weight
    with its want and got counts.
    """
    report = ValidationReport()
    weights = g.node_weights()
    if g.kind == G1B_SIMPLE:
        factors, pairs = ext_table(g.lam, g.l)
        report.add(
            "nodes-match-factors",
            sorted(weights) == sorted(factors),
            lambda: f"nodes must be the factors: {coeff_diff(_counts(weights), _counts(factors))}",
        )
        sinks = g.sinks()
        ok = len(sinks) == 1 and sinks[0].weight == g.lam
        report.add("unique-sink", ok, lambda: f"sinks: {[tuple(n.weight) for n in sinks]}")
        sources = g.sources()
        head = hat_dual_pair(dual_module_weight(g.lam, g.l), g.l)  # zhat_head_weight as an int pair
        report.add(
            "unique-source",
            len(sources) == 1 and sources[0].weight == head,
            lambda: f"sources: {[tuple(n.weight) for n in sources]}, head {tuple(head)}",
        )
        weight = {n.id: n.weight for n in g.nodes}
        index = {f: i for i, f in enumerate(factors, start=1)}
        position = {n.id: index.get(n.weight) for n in g.nodes}  # None off the factors
        bad_edges = [
            (tuple(weight[u]), tuple(weight[v]))
            for u, v in g.edges
            if (position[u], position[v]) not in pairs
        ]
        report.add("edges-ext-consistent", not bad_edges, lambda: f"bad edges: {bad_edges}")
    else:
        dec = chi_decomposition(g.lam, g.l)
        got, kept = _counts(weights), _counts(dec.surviving_factors())
        for name, want, what in (
            ("survivors-net", net_terms(dec.factors, g.l), "the net chi_l terms of the factors"),
            ("nodes-match-decomposition", kept, "the surviving factors"),
        ):
            report.add(name, got == want, lambda: f"nodes must be {what}: {coeff_diff(got, want)}")
    return report


def _counts(weights) -> dict:
    """{weight: multiplicity} of a list or tuple of weights, a plain dict."""
    return {w: weights.count(w) for w in weights}
