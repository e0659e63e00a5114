from hypothesis import given
from hypothesis import strategies as st

from qgl3.kernels import convolve, ssyt_weight_counts

coords = st.tuples(st.integers(-8, 8), st.integers(-8, 8))
sparse = st.dictionaries(coords, st.integers(-5, 5).filter(bool), max_size=12)


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
