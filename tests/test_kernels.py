import random
from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from qgl3 import kernels
from qgl3.charring import alt_weyl_sum, divide_by_weyl_denominator
from qgl3.kernels import convolve, ssyt_weight_counts
from qgl3.lattice import RHO, Weight

coords = st.tuples(st.integers(-8, 8), st.integers(-8, 8))
sparse = st.dictionaries(coords, st.integers(-5, 5).filter(bool), max_size=12)


def _tableau_counts(p, q):
    """Oracle for ssyt_weight_counts: one count per semistandard tableau.

    A tableau is determined by the letter counts of each row: row one is
    1^x1 2^x2 3^x3 with x1+x2+x3 = p, row two is 2^y2 3^y3 with y2+y3 = q,
    subject to the column-strictness bounds x1 >= y2 and x1 + x2 >= q.  Its
    content (m1, m2, m3) = (x1, x2 + y2, p + q - m1 - m2) projects to the
    SL3 weight (m1 - m2, m2 - m3).  For each x1, every tableau puts its m2
    into one list, and Counter tallies the list.
    """
    out = {}
    for x1 in range(p + 1):
        m2s = []
        for x2 in range(max(q - x1, 0), p - x1 + 1):
            m2s.extend(range(x2, x2 + min(x1, q) + 1))  # y2 = 0..min(x1, q)
        for m2, count in Counter(m2s).items():
            out[x1 - m2, 2 * m2 + x1 - p - q] = count
    return out


@given(sparse, sparse)
def test_convolve_commutes(a, b):
    assert convolve(dict(a), dict(b)) == convolve(dict(b), dict(a))


def test_convolve_identity_and_zero():
    x = {(1, 0): 2, (-1, 3): -1}
    assert convolve(x, {(0, 0): 1}) == x
    assert convolve(x, {}) == {}
    # exact cancellation leaves no zero entries
    out = convolve({(0, 0): 1, (1, 0): -1}, {(1, 0): 1, (2, 0): 1})
    assert out == {(1, 0): 1, (3, 0): -1}


def test_ssyt_counts_dimension():
    # shape (p, q) in three letters carries the module with highest weight
    # (p-q, q); check the closed dimension formula
    for p in range(9):
        for q in range(p + 1):
            total = sum(ssyt_weight_counts(p, q).values())
            a, b = p - q, q
            assert total == (a + 1) * (b + 1) * (a + b + 2) // 2


def test_gelfand_tsetlin_counts_match_tableaux_grid(monkeypatch):
    """Every shape p < 40 gives the tableau counts, written by h = x + 2y
    and then by x, and the alternating quotient A(lam+rho)/A(rho); and the
    state of the key pool, which both routes write through, changes no
    answer: built from an empty pool in ascending, descending and shuffled
    order, the two routes taking turns at building first, each shape gives
    the same counts and the same quotient, items and order.  Ascending order
    rebuilds the lines as their rows get longer, descending builds each at
    its full length first.  The pool ends holding exactly the span of the
    weights built on each line, so no key outside their hull."""
    shapes = [(p, q) for p in range(40) for q in range(p + 1)]
    shuffled = shapes[:]
    random.Random(32).shuffle(shuffled)
    built = {}
    span = {}
    for order in (shapes, shapes[::-1], shuffled):
        monkeypatch.setattr(kernels, "_key_lines", {})
        for i, (p, q) in enumerate(order):
            num = alt_weyl_sum(Weight(p - q, q) + RHO)
            if i % 2:
                counts = ssyt_weight_counts(p, q)
                quotient = divide_by_weyl_denominator(num).coeffs
            else:
                quotient = divide_by_weyl_denominator(num).coeffs
                counts = ssyt_weight_counts(p, q)
            for got, first in zip((counts, quotient), built.setdefault((p, q), (counts, quotient))):
                assert got == first and list(got) == list(first), (p, q)
        if not span:
            for x, y in set().union(*(counts for counts, _ in built.values())):
                lo, hi = span.get(x + 2 * y, (y, y))
                span[x + 2 * y] = (min(lo, y), max(hi, y))
        lines = kernels._key_lines
        assert {h: (y0 - len(keys) + 1, y0) for h, (y0, keys) in lines.items()} == span
        for h, (y0, keys) in lines.items():
            assert keys == [(h - 2 * y, y) for y in range(y0, y0 - len(keys), -1)]
    for (p, q), (got, quotient) in built.items():
        counts = _tableau_counts(p, q)
        assert got == counts, (p, q)
        order = [(x + 2 * y, x) for x, y in got]
        assert order == sorted(order), (p, q)
        assert quotient == counts, (p, q)


@given(st.integers(0, 80).flatmap(lambda p: st.tuples(st.just(p), st.integers(0, p))))
@settings(max_examples=25, derandomize=True, deadline=None)
def test_gelfand_tsetlin_counts_match_tableaux_large(shape):
    p, q = shape
    assert ssyt_weight_counts(p, q) == _tableau_counts(p, q)
