import pytest

from qgl3 import decomp
from qgl3.lattice import Weight


@pytest.fixture
def fresh_memo():
    """Empty the decomposition memo, which also holds the factor families
    of dominant weights, before and after the test, so that a test which
    changes a family producer neither reads lists memoized before it nor
    leaves its own behind."""
    decomp._decompositions.clear()
    yield
    decomp._decompositions.clear()


@pytest.fixture
def corrupt_down_alcove(monkeypatch, fresh_memo):
    """Corrupt one weight of the down-alcove factor family, so that the
    filtration identity fails on part of every sweep.  Worker processes
    forked by a parallel sweep inherit the corruption."""
    family = decomp.down_alcove_family

    def corrupted(cls, res, l):
        factors = family(cls, res, l)
        return factors[:5] + (factors[5] + Weight(1, 0),) + factors[6:]

    monkeypatch.setattr(decomp, "down_alcove_family", corrupted)
