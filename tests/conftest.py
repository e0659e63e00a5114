import pytest

from qgl3 import decomp
from qgl3.lattice import Weight


@pytest.fixture
def corrupt_down_alcove(monkeypatch):
    """Corrupt one weight of the down-alcove factor family, so that the
    filtration identity fails on part of every sweep.  Worker processes
    forked by a parallel sweep inherit the corruption."""
    family = decomp.down_alcove_family

    def corrupted(cls, res, l):
        factors = family(cls, res, l)
        factors[5] = factors[5] + Weight(1, 0)
        return factors

    monkeypatch.setattr(decomp, "down_alcove_family", corrupted)
