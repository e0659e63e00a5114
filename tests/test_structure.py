import itertools
import json
import random
import re
import sys
from collections import Counter
from dataclasses import replace

import pytest

from qgl3 import charring, cli, decomp, ext, kernels, structure, verify
from qgl3.charring import chi_l_weyl, weyl_char, weyl_sum
from qgl3.decomp import chi_decomposition, zhat_char
from qgl3.homs import hat_dual_pair, zhat_head_weight
from qgl3.lattice import FacetType, Weight, classify_restricted, decompose
from qgl3.structure import (
    GraphNode,
    ModuleGraph,
    nabla_l_filtration,
    validate_graph,
    zhat_structure,
)
from qgl3.verify import run_suite

import oracles
from oracles import duality_diff, graph_character


def test_zhat_vertex_single_node():
    for l in (2, 3, 5):
        lam = l * Weight(1, 2) + Weight(l - 1, l - 1)
        g = zhat_structure(lam, l)
        assert len(g.nodes) == 1 and not g.edges
        assert validate_graph(g).ok


def test_zhat_wall_chain_and_diamond():
    # right wall: four-node chain
    g = zhat_structure(Weight(5, 3), 3)
    assert len(g.nodes) == 4 and len(g.edges) == 3
    layers = sorted(n.layer for n in g.nodes)
    assert layers == [0, 1, 2, 3]
    assert validate_graph(g).ok
    # horizontal wall: diamond
    g = zhat_structure(3 * Weight(1, 1) + Weight(1, 0), 3)
    assert len(g.nodes) == 4 and len(g.edges) == 4
    assert sorted(n.layer for n in g.nodes) == [0, 1, 1, 2]
    assert validate_graph(g).ok


def test_zhat_worked_instance():
    g = zhat_structure(Weight(3, 3), 3)
    assert len(g.nodes) == 9 and len(g.edges) == 13
    assert g.sinks()[0].weight == Weight(3, 3)
    assert g.sources()[0].weight == Weight(1, 1)
    rep = validate_graph(g)
    assert rep.ok, rep.failures()


def test_zhat_structure_sweep_all_checks():
    for l in (2, 3):
        for a, b in itertools.product(range(-1, 3), repeat=2):
            for r, s in itertools.product(range(l), repeat=2):
                lam = l * Weight(a, b) + Weight(r, s)
                rep = validate_graph(zhat_structure(lam, l))
                assert rep.ok, (lam, l, rep.failures())


def test_zhat_node_counts_by_case():
    for l in (2, 3, 5):
        cls = Weight(1, 2)
        for r, s in itertools.product(range(l), repeat=2):
            lam = l * cls + Weight(r, s)
            g = zhat_structure(lam, l)
            kind = chi_decomposition(lam, l).case_id if lam.is_dominant() else None
            want = {"i": 1, "ii": 4, "iii": 4, "iv": 4, "v": 9, "vi": 9}[kind]
            assert len(g.nodes) == want
            assert graph_character(g) == zhat_char(lam, l)


def test_corrupted_edge_fails_validation():
    g = zhat_structure(Weight(3, 3), 3)
    edges = list(g.edges)
    # rewire one edge to a non-extending pair
    bad = ModuleGraph(g.lam, g.l, g.kind, g.nodes, tuple(edges[:-1] + [("mu1", "mu9")]))
    rep = validate_graph(bad)
    assert not rep.ok
    assert any(name == "edges-ext-consistent" for name, _ in rep.failures())


def test_edge_to_a_non_factor_is_a_failed_check():
    g = zhat_structure(Weight(3, 3), 3)
    stray = GraphNode(g.nodes[0].id, Weight(100, 100), g.nodes[0].kind, g.nodes[0].layer)
    bad = ModuleGraph(g.lam, g.l, g.kind, (stray,) + g.nodes[1:], g.edges)
    failures = dict(validate_graph(bad).failures())
    assert "(100, 100)" in failures["edges-ext-consistent"]


def test_duality_check_names_reversed_edges():
    """The oracle names the edge of the built dual graph that an edited
    graph does not reverse.  Dropping mu6 -> mu2 keeps one sink, one source
    and Ext edges, so validate_graph, which leaves duality to tier-1, passes
    the edited graph."""
    g = zhat_structure(Weight(3, 3), 3)
    u, v = g.edges[4]
    assert (u, v) == ("mu6", "mu2")
    fewer = ModuleGraph(g.lam, g.l, g.kind, g.nodes, g.edges[:4] + g.edges[5:])
    assert validate_graph(fewer).ok
    dual = {n.id: Weight(*hat_dual_pair(n.weight, 3)) for n in g.nodes}
    # the dual graph keeps the reversed edge that the edited graph lost
    assert duality_diff(fewer) == f"reversed edges: want - got {dual[v]}->{dual[u]}"


@pytest.mark.parametrize("l", [2, 3, 5, 7])
def test_duality_check_against_the_built_dual_graph(l):
    """The oracle builds the dual graph of every weight of a box that holds
    non-dominant weights and finds it the reverse of the weight's graph; it
    gives a want/got text on graphs with one edge dropped or one node weight
    changed, for each facet type (one dominant and one non-dominant weight
    each).  test_family_tables proves the identity on the tables for l >= 4;
    this sweep also covers l = 2 and 3."""
    samples = {}
    for a, b in itertools.product(range(-l, 3 * l), repeat=2):
        g = zhat_structure(Weight(a, b), l)
        assert duality_diff(g) == "", (g.lam, l)
        facet = classify_restricted(decompose(g.lam, l).restricted, l)
        samples.setdefault((facet, g.lam.is_dominant()), g)
    facets = {facet for facet, _ in samples}
    assert len(samples) == 2 * len(facets) == (8 if l == 2 else 12)
    for g in samples.values():
        mutants = [replace(g, edges=g.edges[:i] + g.edges[i + 1:]) for i in range(len(g.edges))]
        for i, n in enumerate(g.nodes):
            moved = n._replace(weight=n.weight + Weight(1, 0))
            mutants.append(replace(g, nodes=g.nodes[:i] + (moved,) + g.nodes[i + 1:]))
        for bad in mutants:
            assert duality_diff(bad) != "", (bad, l)


def test_corrupted_family_duality_failures_name_weights(corrupt_down_alcove):
    """A corrupted down-alcove family breaks duality, which the oracle
    names by weights; validate_graph no longer checks it."""
    graphs = [zhat_structure(Weight(a, b), 3) for a, b in itertools.product(range(9), repeat=2)]
    failed = [text for text in map(duality_diff, graphs) if text]
    assert failed
    for observed in failed:
        assert re.search(
            r"^dual nodes: want \(-?\d+,-?\d+\)( \(-?\d+,-?\d+\))* got \(-?\d+,-?\d+\)",
            observed,
        ), observed


def test_graph_sweep_builds_each_factor_list_once(monkeypatch, fresh_memo):
    """From empty memos, the graphs sweep builds one factor family per
    weight, once, into the memo that the Borel-induced graph and the
    filtration graph share; no check reads the dual weight's family.  It
    collects the net chi_l terms of a weight's factor list at most twice,
    once for the surviving positions and once for the survivors-net check,
    and reads one Ext table per Borel-induced graph."""
    builds, nets, tables = Counter(), Counter(), Counter()
    family = decomp.family_pairs
    net_terms = decomp.net_terms
    ext_table = ext.ext_table

    def counted_family(lam, l):
        builds[lam, l] += 1
        return family(lam, l)

    def counted_net(factors, l):
        nets[factors, l] += 1
        return net_terms(factors, l)

    def counted_table(mu, l):
        tables[mu, l] += 1
        return ext_table(mu, l)

    monkeypatch.setattr(decomp, "family_pairs", counted_family)
    monkeypatch.setattr(decomp, "net_terms", counted_net)
    monkeypatch.setattr(structure, "net_terms", counted_net)
    monkeypatch.setattr(ext, "ext_table", counted_table)
    monkeypatch.setattr(structure, "ext_table", counted_table)
    report = run_suite("graphs", [3, 5], 2)
    assert report.passed
    graphs = report.cases_run // 2  # of each kind
    assert graphs == 9 * (9 + 25)
    # each of the graphs memo entries took one build: no family is built twice
    assert len(decomp._decompositions) == graphs
    assert sum(builds.values()) == graphs
    assert len(nets) == graphs and set(nets.values()) == {2}
    assert sum(tables.values()) == graphs


def test_warm_memo_does_not_hide_a_corrupted_family(request):
    """Every sweep that reads a factor family reads it from the one builder,
    decomp.family_pairs, or from the memo it fills: a memo warmed by clean
    sweeps must not answer for a corrupted builder, and no second copy of
    the builder may escape it.  With the corruption applied, each sweep
    fails, on exactly the cases of a cold run."""
    sweeps = ("decomposition", "zhat", "graphs", "ext-lemmas", "translate")
    for name in sweeps:
        assert run_suite(name, [3], 2).passed
    request.getfixturevalue("corrupt_down_alcove")
    warm = {name: run_suite(name, [3], 2).failures for name in sweeps}
    decomp._decompositions.clear()
    cold = {name: run_suite(name, [3], 2).failures for name in sweeps}
    assert all(cold.values()), {name: len(f) for name, f in cold.items()}
    assert warm == cold


def test_zhat_node_list_check():
    g = zhat_structure(Weight(3, 3), 3)
    gone = g.nodes[0].id
    edges = tuple(e for e in g.edges if gone not in e)
    dropped = ModuleGraph(g.lam, g.l, g.kind, g.nodes[1:], edges)
    assert "nodes-match-factors" in dict(validate_graph(dropped).failures())


ZHAT_CHECKS = [
    "nodes-match-factors",
    "unique-sink",
    "unique-source",
    "edges-ext-consistent",
]
LFILT_CHECKS = ["survivors-net", "nodes-match-decomposition"]


def test_passing_reports_list_every_check_in_order():
    for l in (2, 3):
        for a, b in itertools.product(range(3 * l), repeat=2):
            lam = Weight(a, b)
            for g, names in (
                (zhat_structure(lam, l), ZHAT_CHECKS),
                (nabla_l_filtration(lam, l), LFILT_CHECKS),
            ):
                assert validate_graph(g).checks == [(name, True, "") for name in names], (lam, l)


def test_forced_failure_texts():
    """Each forced failure lists every failing check with its exact text."""
    g = zhat_structure(Weight(3, 3), 3)
    top = g.nodes[0]
    assert (top.id, top.weight) == ("mu1", Weight(3, 3))
    dropped = replace(g, nodes=g.nodes[1:], edges=tuple(e for e in g.edges if top.id not in e))
    assert validate_graph(dropped).failures() == [
        ("nodes-match-factors", "nodes must be the factors: (3,3): want 1 got 0"),
        ("unique-sink", "sinks: [(4, 1), (1, 4)]"),
    ]
    # mu5 = (-3,3) loses its one edge down and becomes a second sink
    no_out = replace(g, edges=tuple(e for e in g.edges if e[0] != "mu5"))
    assert validate_graph(no_out).failures() == [
        ("unique-sink", "sinks: [(3, 3), (-3, 3)]"),
    ]
    # mu6 = (3,0) loses its one edge from above and becomes a second source
    no_in = replace(g, edges=tuple(e for e in g.edges if e[1] != "mu6"))
    assert validate_graph(no_in).failures() == [
        ("unique-source", "sources: [(3, 0), (1, 1)], head (1, 1)"),
    ]
    f = nabla_l_filtration(Weight(7, 7), 3)
    first = f.nodes[0]
    assert (first.id, first.weight) == ("mu1", Weight(3, 9))
    moved = replace(f, nodes=(first._replace(weight=Weight(4, 9)),) + f.nodes[1:])
    assert validate_graph(moved).failures() == [
        (
            "survivors-net",
            "nodes must be the net chi_l terms of the factors: (3,9): want 1 got 0;"
            " (4,9): want 0 got 1",
        ),
        (
            "nodes-match-decomposition",
            "nodes must be the surviving factors: (3,9): want 1 got 0; (4,9): want 0 got 1",
        ),
    ]


def test_node_checks_compare_multisets():
    """The node checks compare multisets: a node moved onto another node's
    weight, or a node given twice, fails with each differing weight and its
    want/got counts, though the node weights as a set may be unchanged."""
    g = zhat_structure(Weight(3, 3), 3)
    first, second = g.nodes[:2]
    assert (first.weight, second.weight) == (Weight(3, 3), Weight(4, 1))
    moved = replace(g, nodes=(first._replace(weight=second.weight),) + g.nodes[1:])
    assert dict(validate_graph(moved).failures())["nodes-match-factors"] == (
        "nodes must be the factors: (3,3): want 1 got 0; (4,1): want 1 got 2"
    )
    f = nabla_l_filtration(Weight(7, 7), 3)
    twice = replace(f, nodes=f.nodes + (f.nodes[0]._replace(id="mu0"),))
    assert {n.weight for n in twice.nodes} == {n.weight for n in f.nodes}
    assert validate_graph(twice).failures() == [
        ("survivors-net", "nodes must be the net chi_l terms of the factors: (3,9): want 1 got 2"),
        ("nodes-match-decomposition", "nodes must be the surviving factors: (3,9): want 1 got 2"),
    ]


def test_filtration_survivors_net_names_weights():
    lam = Weight(7, 7)
    g = nabla_l_filtration(lam, 3)
    top = next(n for n in g.nodes if n.weight == lam)
    dropped = ModuleGraph(g.lam, g.l, g.kind, tuple(n for n in g.nodes if n is not top), ())
    detail = dict(validate_graph(dropped).failures())["survivors-net"]
    # the differing weights, as want/got counts
    assert detail == "nodes must be the net chi_l terms of the factors: (7,7): want 1 got 0"


def test_graph_sweeps_call_no_convolution(monkeypatch):
    calls = []
    convolve = kernels.convolve

    def counted(a, b):
        calls.append(1)
        return convolve(a, b)

    monkeypatch.setattr(kernels, "convolve", counted)
    assert run_suite("graphs", [2, 3], 2).passed
    assert not calls
    # the zhat suite divides by A(rho) once per l, for zhat_char, and
    # multiplies nothing, whatever the box; its cases build no restricted
    # simple character in the weight basis

    def unread(r, l):
        raise AssertionError(f"restricted_simple_char({r}, {l})")

    # verify imports no restricted_simple_char; raising=False also covers a
    # copy bound there by a later import
    for module in (charring, verify):
        monkeypatch.setattr(module, "restricted_simple_char", unread, raising=False)
    for box in (0, 2):
        calls.clear()
        assert run_suite("zhat", [2, 3], box).passed
        assert not calls


def test_graph_and_translate_checks_read_no_chi_l(monkeypatch, capsys):
    """The graphs and translate suites, qgl3 lfilt and qgl3 decomp read no
    chi_l, no template and no Brauer-Klimyk sum: with chi_l_weyl raising in
    every module that binds it, and the kernel raising too, they pass from
    empty chi_l memos and leave them empty."""

    def unread(*args):
        raise AssertionError(f"chi_l read: {args}")

    chi_l_weyl = charring.chi_l_weyl
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "qgl3" and getattr(module, "chi_l_weyl", None) is chi_l_weyl:
            monkeypatch.setattr(module, "chi_l_weyl", unread)
    monkeypatch.setattr(kernels, "brauer_klimyk", unread)
    monkeypatch.setattr(charring, "_chi_l_weyl_cache", {})
    monkeypatch.setattr(charring, "_chi_l_templates", {})
    assert run_suite("graphs", [3, 5], 2).passed
    assert run_suite("translate", [3, 5], 3).passed
    for l, lam in ((2, "3,2"), (3, "7,7"), (5, "12,9"), (7, "20,3")):
        assert cli.main(["lfilt", lam, "--l", str(l)]) == 0
        assert capsys.readouterr().out.endswith("  checks: ok\n"), (lam, l)
    for l, lam in ((2, "3,2"), (3, "1,1"), (5, "12,9"), (7, "20,3")):
        assert cli.main(["decomp", lam, "--l", str(l)]) == 0
        assert " chi_l dim " in capsys.readouterr().out, (lam, l)
    assert not charring._chi_l_weyl_cache and not charring._chi_l_templates


@pytest.mark.parametrize("l, box", [(2, 4), (3, 4), (4, 4), (5, 4), (7, 3)])
def test_filtration_nodes_sum_to_the_induced_character(l, box):
    """The oracle of survivors-net: the chi_l of a filtration's nodes,
    summed in the Weyl basis, give the induced character, for every weight
    of the classical box 0..box (the acceptance box and more)."""
    for a, b, r, s in itertools.product(range(box + 1), range(box + 1), range(l), range(l)):
        lam = Weight(l * a + r, l * b + s)
        g = nabla_l_filtration(lam, l)
        assert weyl_sum(chi_l_weyl(n.weight, l) for n in g.nodes) == {lam: 1}, (lam, l)


_SINGULAR = (Weight(-1, 0), Weight(0, -1), Weight(1, -2), Weight(-2, 1))


def _corrupted_nodes(g, rng):
    """(kind, nodes): a seeded node of g dropped, duplicated, and moved by a
    seeded step of l*(1,0), l*(0,1), l*(-1,1), (1,0) and (0,1), and a node
    l*c + r added, with a seeded singular c and restricted r."""
    l, nodes = g.l, g.nodes
    i = rng.randrange(len(nodes))
    yield "drop", nodes[:i] + nodes[i + 1:]
    yield "duplicate", nodes + (nodes[i],)
    steps = (l * Weight(1, 0), l * Weight(0, 1), l * Weight(-1, 1), Weight(1, 0), Weight(0, 1))
    moved = nodes[i]._replace(weight=nodes[i].weight + rng.choice(steps))
    yield "move", nodes[:i] + (moved,) + nodes[i + 1:]
    added = l * rng.choice(_SINGULAR) + Weight(rng.randrange(l), rng.randrange(l))
    yield "singular", nodes + (GraphNode("mu0", added, structure.NABLA_L, 0),)


def test_survivors_net_is_stricter_than_the_character_sum():
    """Every corruption of a filtration's nodes that changes their chi_l sum
    fails survivors-net; the ones that keep the sum and still fail it all
    add a node with a singular classical part, whose chi_l is zero."""
    rng = random.Random(34)
    only_net = set()
    for l in (2, 3, 5):
        for a, b, r, s in itertools.product(range(3), range(3), range(l), range(l)):
            g = nabla_l_filtration(Weight(l * a + r, l * b + s), l)
            for kind, nodes in _corrupted_nodes(g, rng):
                bad = replace(g, nodes=nodes)
                checks = {name: passed for name, passed, _ in validate_graph(bad).checks}
                summed = weyl_sum(chi_l_weyl(n.weight, l) for n in nodes) == {g.lam: 1}
                assert summed or not checks["survivors-net"], (kind, bad)
                if summed and not checks["survivors-net"]:
                    only_net.add(kind)
    assert set(only_net) == {"singular"}, only_net


def test_corrupted_family_fails_graph_cases(corrupt_down_alcove):
    report = run_suite("graphs", [3], 2)
    assert report.cases_run == 2 * 9 * 9
    missing = [f for f in report.failures if "has no layer" in f[2]]
    assert missing
    case, identity, observed = missing[0]
    assert case.endswith(" lfilt") and identity == "filtration nodes and survivors"
    assert case.split()[1] == f"lam={observed.split()[3]}"


def test_nabla_vertex_and_chain_cases():
    g = nabla_l_filtration(3 * Weight(1, 2) + Weight(2, 2), 3)
    assert len(g.nodes) == 1
    assert validate_graph(g).ok
    # dominant-boundary down-alcove weights give chains of length <= 3
    g = nabla_l_filtration(Weight(3, 0), 3)
    assert [n.weight for n in sorted(g.nodes, key=lambda n: n.layer)] == [
        Weight(1, 1), Weight(3, 0),
    ]
    assert len(g.edges) == 1
    assert validate_graph(g).ok
    g = nabla_l_filtration(Weight(6, 0), 3)
    assert len(g.nodes) == 3 and len(g.edges) == 2
    assert validate_graph(g).ok
    g = nabla_l_filtration(Weight(0, 6), 3)
    assert len(g.nodes) == 3 and len(g.edges) == 2
    assert validate_graph(g).ok


@pytest.mark.parametrize("l", [2, 3, 5, 7, 11])
def test_single_node_filtrations_survive_at_position_one(l):
    """The vertex weights and the bottom-alcove weights, whose filtration
    graph is the one node lam, survive at position 1 only, so their graph
    is built by the same call, from the surviving positions, as the rest."""
    seen = 0
    for a, b in itertools.product(range(4), repeat=2):
        for r, s in itertools.product(range(l), repeat=2):
            facet = classify_restricted(Weight(r, s), l)
            if facet is FacetType.VERTEX or (facet is FacetType.DOWN_ALCOVE and a == b == 0):
                lam = l * Weight(a, b) + Weight(r, s)
                assert chi_decomposition(lam, l).positions == (1,), lam
                g = nabla_l_filtration(lam, l)
                assert g.nodes == (GraphNode("mu1", lam, structure.NABLA_L, 0),)
                assert not g.edges
                seen += 1
    assert seen >= 16


def test_nabla_wall_congruence_switch():
    # right wall: chain when the first classical coordinate is -1 mod l
    lam_chain = 3 * Weight(2, 1) + Weight(2, 0)
    g = nabla_l_filtration(lam_chain, 3)
    assert len(g.edges) == 3 and sorted(n.layer for n in g.nodes) == [0, 1, 2, 3]
    lam_diamond = 3 * Weight(1, 1) + Weight(2, 0)
    g = nabla_l_filtration(lam_diamond, 3)
    assert len(g.edges) == 4 and sorted(n.layer for n in g.nodes) == [0, 1, 1, 2]
    for g in (nabla_l_filtration(lam_chain, 3), nabla_l_filtration(lam_diamond, 3)):
        assert validate_graph(g).ok


def test_nabla_worked_instance_seven_nodes():
    g = nabla_l_filtration(Weight(3, 3), 3)
    assert len(g.nodes) == 7
    weights = sorted(map(tuple, g.node_weights()))
    assert weights == [(0, 0), (0, 3), (1, 1), (1, 4), (3, 0), (3, 3), (4, 1)]
    assert validate_graph(g).ok


def test_nabla_nine_factor_congruence_variants():
    l = 3
    # fully congruent: classical part (3,3), both coordinates 0 mod 3
    g = nabla_l_filtration(l * Weight(3, 3) + Weight(0, 0), l)
    assert len(g.nodes) == 9 and len(g.edges) == 13
    # one violated congruence drops one edge and reattaches two
    g = nabla_l_filtration(l * Weight(3, 2) + Weight(0, 0), l)
    assert len(g.nodes) == 9 and len(g.edges) == 14
    # both violated: the printed fifteen-edge diagram
    g = nabla_l_filtration(l * Weight(2, 2) + Weight(0, 0), l)
    assert len(g.nodes) == 9 and len(g.edges) == 15
    # up-alcove extremes: both congruent to -1
    g = nabla_l_filtration(l * Weight(2, 2) + Weight(1, 1), l)
    assert len(g.nodes) == 9 and len(g.edges) == 13
    g = nabla_l_filtration(l * Weight(1, 1) + Weight(1, 1), l)
    assert len(g.nodes) == 9 and len(g.edges) == 15
    for cls in (Weight(3, 3), Weight(3, 2), Weight(2, 2), Weight(1, 1)):
        for res in (Weight(0, 0), Weight(1, 1)):
            rep = validate_graph(nabla_l_filtration(l * cls + res, l))
            assert rep.ok, rep.failures()


def test_nabla_sweep():
    for l in (2, 3):
        for a, b in itertools.product(range(3), repeat=2):
            for r, s in itertools.product(range(l), repeat=2):
                lam = l * Weight(a, b) + Weight(r, s)
                g = nabla_l_filtration(lam, l)
                rep = validate_graph(g)
                assert rep.ok, (lam, l, rep.failures())
                assert graph_character(g) == weyl_char(lam)


def _dual_image(edges) -> set:
    """The edges of the dual module: each edge reversed and renumbered."""
    return {(decomp.DUAL_POSITION[v], decomp.DUAL_POSITION[u]) for u, v in edges}


def test_up_alcove_tables_are_the_dual_images():
    """The up-alcove edge list and its congruence edits stay printed, for
    their order, and as sets are the dual images of the down-alcove ones;
    so is every built up-alcove table, edges and layers, in each of the
    four congruence cases."""
    assert _dual_image(ext.DOWN_EDGES) == set(ext.UP_EDGES)
    assert len(ext.UP_EDGES) == len(set(ext.UP_EDGES)) == 13
    drop_a, add_a, drop_b, add_b = structure._DOWN_EDITS
    up_drop_a, up_add_a, up_drop_b, up_add_b = structure._UP_EDITS
    assert _dual_image([drop_a]) == {up_drop_a} and _dual_image(add_a) == set(up_add_a)
    assert _dual_image([drop_b]) == {up_drop_b} and _dual_image(add_b) == set(up_add_b)
    sigma = decomp.DUAL_POSITION
    for ca, cb in itertools.product((False, True), repeat=2):
        down, down_layers = structure._NINE_FACTOR_TABLES[FacetType.DOWN_ALCOVE, ca, cb]
        up, up_layers = structure._NINE_FACTOR_TABLES[FacetType.UP_ALCOVE, ca, cb]
        assert _dual_image(down) == set(up), (ca, cb)
        top = max(down_layers.values())
        assert up_layers == {sigma[i]: top - k for i, k in down_layers.items()}, (ca, cb)


def _filtration_order(layers: dict[int, int]) -> dict[int, int]:
    """Printed wall layers renumbered from zhat_factors order into
    chi_decomposition order."""
    return {5 - i: k for i, k in layers.items()}


def test_layers_equal_the_printed_ones():
    """Every table's layers, read off its edges, are the printed ones: the
    six Borel-induced facets, the two wall filtrations, the two strips, and
    the four congruence cases of each alcove, where a mixed case keeps the
    congruent layers."""
    chain, diamond = oracles.PRINTED_WALL_CHAIN_LAYERS, oracles.PRINTED_WALL_DIAMOND_LAYERS
    printed = {
        FacetType.VERTEX: {1: 0},
        FacetType.RIGHT_WALL: chain,
        FacetType.LEFT_WALL: chain,
        FacetType.HORIZONTAL_WALL: diamond,
        FacetType.DOWN_ALCOVE: oracles.PRINTED_DOWN_LAYERS,
        FacetType.UP_ALCOVE: oracles.PRINTED_UP_LAYERS,
    }
    for facet, layers in printed.items():
        assert structure._ZHAT_TABLES[facet][1] == layers, facet
    assert structure._NABLA_WALL_CHAIN[1] == _filtration_order(chain)
    assert structure._NABLA_WALL_DIAMOND[1] == _filtration_order(diamond)
    assert structure._STRIP_A[1] == oracles.PRINTED_STRIP_A_LAYERS
    assert structure._STRIP_B[1] == oracles.PRINTED_STRIP_B_LAYERS
    loose = {
        FacetType.DOWN_ALCOVE: oracles.PRINTED_DOWN_LAYERS_LOOSE,
        FacetType.UP_ALCOVE: oracles.PRINTED_UP_LAYERS_LOOSE,
    }
    for (facet, ca, cb), (_, layers) in structure._NINE_FACTOR_TABLES.items():
        assert layers == (printed[facet] if ca or cb else loose[facet]), (facet, ca, cb)
    assert len(structure._NINE_FACTOR_TABLES) == 8


def _built_tables():
    yield from structure._ZHAT_TABLES.values()
    yield structure._NABLA_WALL_CHAIN
    yield structure._NABLA_WALL_DIAMOND
    yield structure._STRIP_A
    yield structure._STRIP_B
    yield from structure._NINE_FACTOR_TABLES.values()


def test_every_edge_climbs_a_layer():
    """On every built table, the mixed ones included, each edge goes from a
    layer k to a layer above k, and every position an edge names has a
    layer."""
    for edges, layers in _built_tables():
        assert all(layers[u] < layers[v] for u, v in edges), (edges, layers)


def test_layers_read_off_edges():
    """The one-node table, a diamond with a tail, and the dual reading,
    which differs from the longest path from a source on a table with two
    sources of unequal height."""
    assert structure._table(()) == ((), {1: 0})
    diamond = ((4, 3), (4, 2), (3, 1), (2, 1), (1, 0))
    assert structure._table(diamond) == (diamond, {4: 0, 3: 1, 2: 1, 1: 2, 0: 3})
    assert structure._table(diamond, dual=True)[1] == {4: 0, 3: 1, 2: 1, 1: 2, 0: 3}
    skew = ((1, 2), (2, 3), (4, 3))
    assert structure._table(skew)[1] == {1: 0, 2: 1, 3: 2, 4: 0}
    assert structure._table(skew, dual=True) == (skew, {1: 0, 2: 1, 3: 2, 4: 1})


# The (table, kept positions) pairs the builders meet: one per Borel-induced
# table content (the two side walls share theirs) and one per survivor set
# of each filtration table.  The acceptance sweep meets them all, and sweeps
# at l = 5, box 8, and l in {4, 6, 7, 9, 11}, box 5 or 6, meet no other.
SKELETONS = 34


def test_skeleton_builds_equal_the_direct_build(monkeypatch):
    """Every graph built at l in {2, 3, 5, 7}, classical box 0..4, equals
    the direct build from the same table and kept positions, and the memo
    holds exactly one skeleton per (table, kept positions) pair met."""
    monkeypatch.setattr(structure, "_skeletons", {})
    build, met = structure._build, set()

    def checked(lam, l, kind, factors, edges, layers, keep):
        g = build(lam, l, kind, factors, edges, layers, keep)
        assert g == oracles.direct_build(lam, l, kind, factors, edges, layers, keep), (lam, l, kind)
        met.add((edges, tuple(layers.items()), keep))
        return g

    monkeypatch.setattr(structure, "_build", checked)
    for l in (2, 3, 5, 7):
        for a, b, r, s in itertools.product(range(5), range(5), range(l), range(l)):
            lam = Weight(l * a + r, l * b + s)
            zhat_structure(lam, l)
            nabla_l_filtration(lam, l)
    assert set(structure._skeletons) == met
    assert len(met) == SKELETONS


def test_skeleton_memo_after_the_acceptance_sweep(memo_sweep):
    assert memo_sweep["skeletons"] == SKELETONS


def test_build_errors_raise_on_every_call(monkeypatch):
    """A kept position with no layer raises on every call and leaves no
    skeleton; a short factor list raises on every call, before and after
    the skeleton of its table and keep is stored."""
    monkeypatch.setattr(structure, "_skeletons", {})
    lam, l = Weight(4, 1), 3
    facet, factors = decomp.factor_family(lam, l)
    edges, layers = structure._ZHAT_TABLES[facet]
    keep = tuple(layers)
    for _ in range(2):
        with pytest.raises(ValueError, match=r"\(l=3\): kept position 5 has no layer$"):
            structure._build(lam, l, structure.NABLA_L, factors, *structure._STRIP_A, (1, 2, 5))
    assert not structure._skeletons

    def build(factors):
        return structure._build(lam, l, structure.G1B_SIMPLE, factors, edges, layers, keep)

    with pytest.raises(ValueError, match=r"has no position 6 of 9"):
        build(factors[:5])
    assert build(factors) == zhat_structure(lam, l)
    assert len(structure._skeletons) == 1
    with pytest.raises(ValueError, match=r"has no position 6 of 9"):
        build(factors[:5])


def test_a_rebound_table_gets_its_own_skeleton(monkeypatch):
    """The skeletons are keyed by the table's content: a table rebound to
    other edges builds its own graph, and the original table's graph comes
    back when it is bound again."""
    lam, l = Weight(4, 1), 3
    facet = decomp.factor_family(lam, l)[0]
    edges, layers = structure._ZHAT_TABLES[facet]
    g = zhat_structure(lam, l)
    monkeypatch.setitem(structure._ZHAT_TABLES, facet, (edges[1:], layers))
    assert zhat_structure(lam, l).edges == g.edges[1:]
    monkeypatch.setitem(structure._ZHAT_TABLES, facet, (edges, layers))
    assert zhat_structure(lam, l) == g


def test_hat_dual_pair():
    assert hat_dual_pair(Weight(3, 3), 3) == Weight(0, 0) - 3 * Weight(1, 1)
    for l in (2, 3):
        for w in (Weight(4, 1), Weight(-2, 3)):
            assert hat_dual_pair(hat_dual_pair(w, l), l) == w


def test_duality_head_and_source_agree():
    for l in (2, 3):
        for lam in (Weight(1, 0), Weight(3, 3), l * Weight(2, 1) + Weight(0, l - 1)):
            g = zhat_structure(lam, l)
            assert g.sources()[0].weight == zhat_head_weight(lam, l)


def test_dot_export_syntax():
    g = zhat_structure(Weight(3, 3), 3)
    dot = g.to_dot()
    assert dot.startswith("digraph") and dot.endswith("}")
    assert dot.count("{") == dot.count("}")
    body = dot[dot.index("{") + 1:]
    node_lines = [ln for ln in body.splitlines() if "label=" in ln]
    edge_lines = [ln for ln in body.splitlines() if "->" in ln]
    assert len(node_lines) == 9 and len(edge_lines) == 13
    # nodes are declared before any edge
    assert body.index("label=") < body.index("->")


def test_graph_json_roundtrip():
    for g in (zhat_structure(Weight(3, 3), 3), nabla_l_filtration(Weight(4, 4), 3)):
        data = json.loads(g.to_json())
        back = ModuleGraph(
            lam=Weight(*data["lambda"]),
            l=data["l"],
            kind=data["kind"],
            nodes=tuple(
                GraphNode(n["id"], Weight(*n["weight"]), n["kind"], n["layer"])
                for n in data["nodes"]
            ),
            edges=tuple((u, v) for u, v in data["edges"]),
        )
        assert back == g
