"""Golden CLI output: characters, decompositions and structure graphs.

The fixture holds, for each command below, a line "$ qgl3 <arguments>"
followed by the command's standard output.  It was written by `render` at
a commit before the group ring's key change and is never rewritten by the
test: a mismatch means an output changed.
"""

import contextlib
import io
import itertools
from pathlib import Path

import pytest

from qgl3.cli import main

FIXTURE = Path(__file__).parent / "golden" / "cli_small.txt"


def commands():
    """l in {2,3}, classical parts (0,0) and (1,1), every restricted part."""
    for l in (2, 3):
        for (ca, cb), (r, s) in itertools.product(((0, 0), (1, 1)), itertools.product(range(l), repeat=2)):
            w = f"{l * ca + r},{l * cb + s}"
            yield ["char", "--l", str(l), w]
            yield ["zhat", "--l", str(l), "--char", w]
            yield ["decomp", "--l", str(l), "--format", "json", w]
            yield ["lfilt", "--l", str(l), "--format", "json", w]
            yield ["zhat", "--l", str(l), "--structure", "--format", "json", w]


def render(argv):
    """The fixture block of one command: its header line and its output lines."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    assert code == 0, f"qgl3 {' '.join(argv)} exited {code}"
    return ["$ qgl3 " + " ".join(argv)] + out.getvalue().splitlines()


def test_cli_outputs_match_golden_fixture():
    want = FIXTURE.read_text().splitlines()
    got = [line for argv in commands() for line in render(argv)]
    command = None
    for i, (w, g) in enumerate(zip(want, got), start=1):
        if g.startswith("$ qgl3 "):
            command = g
        if w != g:
            pytest.fail(f"{command}: fixture line {i} differs\n  want: {w[:200]}\n  got:  {g[:200]}")
    if len(want) != len(got):
        extra = want[len(got)] if len(want) > len(got) else got[len(want)]
        pytest.fail(f"{command}: {len(got)} lines, fixture has {len(want)}; first unmatched: {extra[:200]}")
