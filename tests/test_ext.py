import functools
import itertools

import pytest

from qgl3 import ext
from qgl3.charring import peel_dominant, simple_char_p0, tensor_multiplicity, weyl_char
from qgl3.decomp import factor_family, zhat_factors
from qgl3.ext import (
    EXT_ZERO,
    NABLA01,
    NABLA10,
    TRIV,
    ExtValue,
    ext1_g,
    ext1_g1,
    ext1_g1b,
    ext1_g1b_general,
    socle_fundamental_tensor,
)
from qgl3.lattice import FacetType, Weight, classify_restricted, dual_weight
from qgl3.structure import nabla_l_filtration
from qgl3.verify import SUITES, run_suite, suite_ext_lemmas

import oracles


def test_g1_wall_triple_entries():
    assert ext1_g1(Weight(1, 2), Weight(4, 1), 5).labels() == ["nabla(0,1)"]
    assert ext1_g1(Weight(4, 1), Weight(1, 2), 5).labels() == ["nabla(1,0)"]
    assert ext1_g1(Weight(1, 2), Weight(2, 4), 5).labels() == ["nabla(1,0)"]
    assert ext1_g1(Weight(4, 1), Weight(2, 4), 5) == EXT_ZERO
    assert ext1_g1(Weight(2, 4), Weight(4, 1), 5) == EXT_ZERO


def test_g1_l3_override():
    full = ["k", "nabla(0,1)", "nabla(1,0)"]
    assert ext1_g1(Weight(0, 0), Weight(1, 1), 3).labels() == full
    assert ext1_g1(Weight(1, 1), Weight(0, 0), 3).labels() == full
    assert ext1_g1(Weight(0, 0), Weight(1, 1), 3).dimension == 7


@pytest.mark.parametrize("l", [6, 9, 12])
def test_g1_alcove_centre_adds_coinciding_columns(l):
    """At 3 | l the three columns of an alcove centre's row are one weight,
    the other centre ((1,1) and (3,3) at l = 6), and their parts add, as
    the l = 3 entries do."""
    down = Weight((l - 3) // 3, (l - 3) // 3)
    up = Weight((2 * l - 3) // 3, (2 * l - 3) // 3)
    full = ExtValue((TRIV, NABLA01, NABLA10))
    assert ext1_g1(down, up, l) == ext1_g1(up, down, l) == full


def test_every_suite_passes_where_3_divides_l():
    """The alcove centres exist only for 3 | l; the ext-lemmas suite checks
    their entries, and no suite fails on them."""
    for name in sorted(SUITES):
        report = run_suite(name, [6, 9], 1)
        assert report.passed, (name, report.failures[:3])


def test_g1_alcove_entries_l5():
    # down-alcove weight (0,0) against its mirror neighbourhood
    assert ext1_g1(Weight(0, 0), Weight(3, 3), 5).labels() == ["k"]
    assert ext1_g1(Weight(0, 0), Weight(1, 3), 5).labels() == ["nabla(0,1)"]
    assert ext1_g1(Weight(0, 0), Weight(3, 1), 5).labels() == ["nabla(1,0)"]
    assert ext1_g1(Weight(3, 3), Weight(0, 0), 5).labels() == ["k"]
    assert ext1_g1(Weight(3, 3), Weight(0, 2), 5).labels() == ["nabla(0,1)"]
    assert ext1_g1(Weight(3, 3), Weight(2, 0), 5).labels() == ["nabla(1,0)"]
    assert ext1_g1(Weight(0, 0), Weight(2, 2), 5) == EXT_ZERO


def test_g1_diagonal_and_steinberg_vanish():
    for l in (2, 3, 5):
        st_wt = Weight(l - 1, l - 1)
        for r, s in itertools.product(range(l), repeat=2):
            w = Weight(r, s)
            assert ext1_g1(w, w, l) == EXT_ZERO
            assert ext1_g1(st_wt, w, l) == EXT_ZERO
            assert ext1_g1(w, st_wt, l) == EXT_ZERO


def test_g1_swap_duality_on_triples():
    for l in (2, 3, 5):
        for r in range(l - 1):
            s = l - 2 - r
            triple = (Weight(r, s), Weight(l - 1, r), Weight(s, l - 1))
            for alpha, beta in itertools.product(triple, repeat=2):
                assert ext1_g1(alpha, beta, l) == ext1_g1(beta, alpha, l).label_dual()


def _ext1_g1_table(l):
    """The nonzero entries of the restricted-kernel table as the wall-triple
    search ext1_g1 replaced builds them: four entries per triple over the
    l - 1 triples, then the down-alcove block and its transpose, where
    columns that coincide (the alcove centre, 3 | l) add their parts."""
    table = {}
    for r in range(l - 1):
        s = l - 2 - r
        w_mid, w_right, w_left = Weight(r, s), Weight(l - 1, r), Weight(s, l - 1)
        table[w_mid, w_right] = ExtValue((NABLA01,))
        table[w_mid, w_left] = ExtValue((NABLA10,))
        table[w_right, w_mid] = ExtValue((NABLA10,))
        table[w_left, w_mid] = ExtValue((NABLA01,))
    for r, s in itertools.product(range(l), repeat=2):
        down = Weight(r, s)
        if classify_restricted(down, l) is not FacetType.DOWN_ALCOVE:
            continue
        up = oracles.up_alcove_mirror(down, l)
        for alpha, cols in (
            (down, (
                (up, TRIV),
                (Weight(r + s + 1, l - s - 2), NABLA01),
                (Weight(l - r - 2, r + s + 1), NABLA10),
            )),
            (up, (
                (down, TRIV),
                (Weight(s, l - r - s - 3), NABLA01),
                (Weight(l - r - s - 3, r), NABLA10),
            )),
        ):
            parts = {}
            for beta, part in cols:
                parts.setdefault(beta, []).append(part)
            for beta, ps in parts.items():
                table[alpha, beta] = ExtValue(ext._normalize(ps))
    return table


def test_g1_lookup_against_triple_search():
    """The facet lookup against the table of the wall-triple search, on
    every pair of restricted weights."""
    for l in range(2, 14):
        table = _ext1_g1_table(l)
        box = [Weight(r, s) for r, s in itertools.product(range(l), repeat=2)]
        for alpha, beta in itertools.product(box, repeat=2):
            want = table.get((alpha, beta), EXT_ZERO)
            assert ext1_g1(alpha, beta, l) == want, (l, alpha, beta)


def test_g1_rejects_non_restricted():
    with pytest.raises(ValueError):
        ext1_g1(Weight(3, 0), Weight(0, 0), 3)


def test_ext_value_realization():
    # k + nabla(0,1) + nabla(1,0) is realized by a module of dimension 1 + 3 + 3
    v = ExtValue(("k", Weight(0, 1), Weight(1, 0)))
    assert v.dimension == 7


def test_part_weights_are_pieri_rule():
    """ext's table of the three parts against the character ring: each row
    is the support of the part's induced character, all multiplicities one,
    in dominance order; membership of mc - lc is the tensor multiplicity of
    nabla(mc) in nabla(P) (x) nabla(lc) (Brauer-Klimyk, the independent
    route); the weight sets and the dual highest weights are pairwise
    disjoint, and no row of the restricted-kernel table lists a part twice.
    So every pairing of a table value against the parts is 0 or 1."""
    parts = (TRIV, NABLA10, NABLA01)
    assert set(ext._WEIGHTS) == set(ext._DUAL_TOP) == set(parts)
    for p in parts:
        ch = weyl_char(Weight(0, 0) if p == TRIV else p)
        ws = ext._WEIGHTS[p]
        assert sorted(ws) == sorted(ch.coeffs) and set(ch.coeffs.values()) == {1}
        for (a, b), (c, d) in itertools.pairwise(ws):
            # the step is a nonnegative sum of the simple roots (2,-1), (-1,2)
            x, y = a - c, b - d
            assert (2 * x + y) % 3 == 0 and 2 * x + y >= 0 and x + 2 * y >= 0, (p, ws)
        assert ext._DUAL_TOP[p] == dual_weight(Weight(*ws[0]))
    box = list(itertools.product(range(9), repeat=2))
    for p in (NABLA10, NABLA01):
        for mc, lc in itertools.product(box, repeat=2):
            want = tensor_multiplicity(mc, p, lc)
            assert ((mc[0] - lc[0], mc[1] - lc[1]) in ext._WEIGHTS[p]) == want, (mc, p, lc)
    weights = [w for p in parts for w in ext._WEIGHTS[p]]
    assert len(set(weights)) == len(weights) == 7
    assert len(set(ext._DUAL_TOP.values())) == 3
    for row in ext._G1_COLUMNS.values():
        listed = [part for _, part in row]
        assert len(set(listed)) == len(listed), row


def test_every_nabla_l_edge_carries_ext1_g():
    """Each edge (u, v) of a good twisted-tensor filtration graph has
    Ext^1_G(u, v) one-dimensional (Alperin, JPAA 16, 1980)."""
    graphs = edges = 0
    for l in (2, 3, 4, 5, 7):
        for c, r in itertools.product(
            itertools.product(range(4), repeat=2), itertools.product(range(l), repeat=2)
        ):
            g = nabla_l_filtration(Weight(l * c[0] + r[0], l * c[1] + r[1]), l)
            weight = {n.id: n.weight for n in g.nodes}
            for u, v in g.edges:
                assert ext1_g(weight[u], weight[v], l) == 1, (g.lam, l, u, v)
            graphs += 1
            edges += len(g.edges)
    assert (graphs, edges) == (1648, 9665)


def test_g_examples_and_errors():
    assert ext1_g(Weight(0, 0), Weight(3, 3), 3) == 1
    assert ext1_g(Weight(1, 2), Weight(6, 7), 5) == 0
    assert ext1_g(Weight(2, 2), Weight(2, 2), 5) == 0
    with pytest.raises(ValueError):
        ext1_g(Weight(-1, 0), Weight(0, 0), 3)


def test_g1b_general_examples():
    # non-dominant classical difference: minus a power of l times a simple root
    lam = 3 * Weight(2, 1) + Weight(1, 1)
    assert ext1_g1b_general(lam, lam - 3 * Weight(2, -1), 3) == 1
    assert ext1_g1b_general(lam, lam - 9 * Weight(-1, 2), 3) == 1
    assert ext1_g1b_general(lam, lam - 6 * Weight(2, -1), 3) == 0
    # equal restricted and classical parts differing by a dominant weight
    assert ext1_g1b_general(Weight(1, 1), Weight(1, 1) + 3 * Weight(1, 1), 3) == 0
    # distinct restricted parts paired through the table: ext value
    # nabla(0,1) against classical difference (1,0) gives one dimension
    lam = 3 * Weight(1, 1) + Weight(0, 1)
    mu = 3 * Weight(2, 1) + Weight(2, 0)
    assert ext1_g1(Weight(0, 1), Weight(2, 0), 3).labels() == ["nabla(0,1)"]
    assert ext1_g1b_general(lam, mu, 3) == 1
    # same table value against the non-matching difference (0,1) vanishes
    assert ext1_g1b_general(lam, 3 * Weight(1, 2) + Weight(2, 0), 3) == 0


def test_g1b_case_tables_examples():
    # nine-factor down-alcove table
    mu = 5 * Weight(2, 2) + Weight(1, 1)
    fs = zhat_factors(mu, 5)
    assert ext1_g1b(mu, fs[6], fs[8], 5) == 1  # row 7, column 9
    assert all(ext1_g1b(mu, fs[0], f, 5) == 0 for f in fs)  # socle row vanishes
    # up-alcove table
    mu = 5 * Weight(2, 2) + Weight(2, 2)
    fs = zhat_factors(mu, 5)
    assert ext1_g1b(mu, fs[1], fs[4], 5) == 1  # row 2, column 5
    assert ext1_g1b(mu, fs[1], fs[0], 5) == 1
    assert ext1_g1b(mu, fs[3], fs[3], 5) == 0


def test_g1b_unknown_factor_diagnostic():
    mu = Weight(3, 3)
    with pytest.raises(ValueError, match="not a composition factor") as err:
        ext1_g1b(mu, Weight(2, 2), Weight(3, 3), 3)
    # names the stray weight, mu and the factors
    assert "(2,2) is not" in str(err.value) and "weight (3,3)" in str(err.value)
    assert str([tuple(f) for f in zhat_factors(mu, 3)]) in str(err.value)


def test_g1b_degenerate_factor_list_diagnostic(monkeypatch, fresh_memo):
    mu = Weight(3, 3)
    facet, fs = factor_family(mu, 3)
    monkeypatch.setattr(ext, "factor_family", lambda lam, l: (facet, fs[:-1] + fs[:1]))
    with pytest.raises(ValueError, match="degenerate factor list") as err:
        ext1_g1b(mu, fs[0], fs[1], 3)
    assert "for (3,3)" in str(err.value)
    assert str([tuple(f) for f in fs[:-1] + fs[:1]]) in str(err.value)


def test_g1b_lookups_read_each_factor_list_once(monkeypatch, fresh_memo):
    """ext1_g1b and the ext-lemmas table check read the factor list once per
    weight and check membership against the list the table was read on."""
    calls = []
    family = ext.factor_family

    def counted(mu, l):
        calls.append((mu, l))
        return family(mu, l)

    monkeypatch.setattr(ext, "factor_family", counted)
    mu = Weight(7, 7)
    fs = zhat_factors(mu, 3)
    assert ext1_g1b(mu, fs[1], fs[0], 3) == 1
    assert calls == [(mu, 3)]
    calls.clear()
    cases = list(suite_ext_lemmas(5, [Weight(2, 2)]))
    assert all(ok for *_, ok in cases)
    assert len(calls) == 25 and len(set(calls)) == 25


def test_g1b_tables_match_general_rule_everywhere():
    for l in (2, 3, 5):
        for cls in (Weight(2, 2), Weight(0, 0), Weight(3, 1)):
            for res in itertools.product(range(l), repeat=2):
                mu = l * cls + Weight(*res)
                fs = zhat_factors(mu, l)
                for a in fs:
                    for b in fs:
                        assert ext1_g1b(mu, a, b, l) == ext1_g1b_general(a, b, l), (mu, a, b)


def test_g1b_diagonal_zero():
    for l in (2, 3):
        mu = l * Weight(1, 1) + Weight(0, 0)
        for f in zhat_factors(mu, l):
            assert ext1_g1b(mu, f, f, l) == 0


def test_socle_table_basic_rows():
    for l in (2, 3, 5):
        assert socle_fundamental_tensor(Weight(0, 0), l) == [Weight(1, 0)]
        assert socle_fundamental_tensor(Weight(l - 1, l - 1), l) == [Weight(l - 1, l - 2)]
        assert socle_fundamental_tensor(Weight(l - 1, 0), l) == [Weight(l - 2, 1)]


def test_socle_table_l5_rows():
    assert socle_fundamental_tensor(Weight(0, 2), 5) == [Weight(1, 2), Weight(0, 1)]
    assert socle_fundamental_tensor(Weight(0, 3), 5) == [Weight(0, 2)]
    assert socle_fundamental_tensor(Weight(1, 1), 5) == [
        Weight(2, 1), Weight(0, 2), Weight(1, 0),
    ]
    assert socle_fundamental_tensor(Weight(1, 3), 5) == [Weight(2, 3), Weight(0, 4)]
    assert socle_fundamental_tensor(Weight(3, 1), 5) == [Weight(4, 1), Weight(2, 2)]
    assert socle_fundamental_tensor(Weight(4, 2), 5) == [Weight(3, 3), Weight(4, 1)]
    assert socle_fundamental_tensor(Weight(3, 3), 5) == [
        Weight(4, 3), Weight(2, 4), Weight(3, 2),
    ]


def test_socle_table_classical_shift():
    # the general row is the restricted row shifted by l times the classical part
    lam = 5 * Weight(2, 1) + Weight(1, 1)
    base = socle_fundamental_tensor(Weight(1, 1), 5)
    assert socle_fundamental_tensor(lam, 5) == [5 * Weight(2, 1) + w for w in base]


def test_socle_table_dual_direction():
    lam = Weight(3, 1)
    left = socle_fundamental_tensor(lam, 5, Weight(0, 1))
    right = [dual_weight(w) for w in socle_fundamental_tensor(dual_weight(lam), 5)]
    assert left == right
    with pytest.raises(ValueError):
        socle_fundamental_tensor(lam, 5, Weight(1, 1))


def test_socle_table_covers_restricted_box():
    for l in (2, 3, 5, 7):
        for r, s in itertools.product(range(l), repeat=2):
            out = socle_fundamental_tensor(Weight(r, s), l)
            assert 1 <= len(out) <= 3
            for w in out:
                assert w.is_dominant()


def test_socle_editorial_row_flagged():
    # the (0, l-1) row is the editorial reconstruction
    assert socle_fundamental_tensor(Weight(0, 4), 5) == [Weight(1, 4), Weight(0, 3)]


def test_socle_rule_against_the_printed_rows():
    """One rule per weight of L(1,0) gives the entries of the printed rows,
    as sets, at every restricted weight."""
    for l in range(2, 41):
        for r, s in itertools.product(range(l), repeat=2):
            got = socle_fundamental_tensor(Weight(r, s), l)
            assert len(set(got)) == len(got)
            assert set(got) == set(oracles.printed_socle_row((r, s), l)), (l, r, s)


# The simple characters both parametrizations below peel by, built once.
_simple_p0 = functools.cache(simple_char_p0)


@pytest.mark.parametrize("which", [Weight(1, 0), Weight(0, 1)])
def test_socle_entries_are_composition_factors(which):
    """Every socle entry is a composition factor of L(which) tensor L(lam),
    found by peeling the tensor character in the basis of simple
    characters."""
    for l in range(2, 12):
        simple = functools.partial(_simple_p0, l=l)
        for res in itertools.product(range(l), repeat=2):
            lam = Weight(*res)
            factors = peel_dominant(weyl_char(which) * oracles.restricted_simple(lam, l), simple)
            for w in socle_fundamental_tensor(lam, l, which):
                assert factors.get(w, 0) > 0, (l, lam, which, w, factors)


def test_derived_pair_tables_equal_the_printed_ones():
    """The down-alcove pairs are the graph edges and three reversed edges;
    the up-alcove pairs are their dual image.  Both equal the printed
    tables."""
    assert ext._DOWN_PAIRS == oracles.PRINTED_DOWN_PAIRS
    assert ext._UP_PAIRS == oracles.PRINTED_UP_PAIRS
    extra = ext._DOWN_PAIRS - set(ext.DOWN_EDGES)
    assert {(v, u) for u, v in extra} <= set(ext.DOWN_EDGES) and len(extra) == 3


def test_g1b_tables_are_duality_images():
    # Dualizing the induced module reverses extensions: the entry for
    # (upper, lower) must equal the dual module's entry for the swapped,
    # dualized pair.  This pins the up-alcove table to the down-alcove one.
    from qgl3.lattice import RHO
    from qgl3.homs import hat_dual_pair

    for l in (2, 3, 5):
        for res in itertools.product(range(l), repeat=2):
            mu = l * Weight(2, 2) + Weight(*res)
            mu_dual = 2 * (l - 1) * RHO - mu
            factors = zhat_factors(mu, l)
            for x in factors:
                for y in factors:
                    lhs = ext1_g1b(mu, x, y, l)
                    rhs = ext1_g1b(
                        mu_dual, hat_dual_pair(y, l), hat_dual_pair(x, l), l
                    )
                    assert lhs == rhs, (l, mu, x, y)
