from hypothesis import given, settings
from hypothesis import strategies as st

from qgl3.kernels import convolve, ssyt_weight_counts

coords = st.tuples(st.integers(-8, 8), st.integers(-8, 8))
sparse = st.dictionaries(coords, st.integers(-5, 5).filter(bool), max_size=12)


def _tableau_counts(p, q):
    """Oracle for ssyt_weight_counts: one step per semistandard tableau.

    A tableau is determined by the letter counts of each row: row one is
    1^x1 2^x2 3^x3 with x1+x2+x3 = p, row two is 2^y2 3^y3 with y2+y3 = q,
    subject to the column-strictness bounds x1 >= y2 and x1 + x2 >= q.  The
    content (m1, m2, m3) projects to the SL3 weight (m1 - m2, m2 - m3).
    """
    out = {}
    for x1 in range(p + 1):
        for x2 in range(p - x1 + 1):
            x3 = p - x1 - x2
            if x1 + x2 < q:
                continue
            for y2 in range(min(x1, q) + 1):
                y3 = q - y2
                m1, m2, m3 = x1, x2 + y2, x3 + y3
                key = (m1 - m2, m2 - m3)
                out[key] = out.get(key, 0) + 1
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


def test_gelfand_tsetlin_counts_match_tableaux_grid():
    for p in range(25):
        for q in range(p + 1):
            assert ssyt_weight_counts(p, q) == _tableau_counts(p, q), (p, q)


@given(st.integers(0, 80).flatmap(lambda p: st.tuples(st.just(p), st.integers(0, p))))
@settings(max_examples=25, derandomize=True, deadline=None)
def test_gelfand_tsetlin_counts_match_tableaux_large(shape):
    p, q = shape
    assert ssyt_weight_counts(p, q) == _tableau_counts(p, q)
