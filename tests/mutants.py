"""A mutation census of the engine's tables: which verify suites see each
planted defect.

Each mutant is one (file, old, new) edit of src/qgl3, and old must occur
exactly once in the file.  For each, the source tree is copied into a
temporary directory, the edit is applied there, and all eight verify
suites run at l in {2, 3, 4, 5, 7}, box 3, in a subprocess on that copy.
One markdown row is printed per mutant: the suites that fail, each with
its failure count.  The first row is the unedited copy, which must pass.
Nothing is written under the repository.

Run from the repository root:

    python tests/mutants.py

The file name keeps pytest from collecting it.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
L_VALUES = [2, 3, 4, 5, 7]
BOX = 3

# (name, file under src/qgl3, old, new)
MUTANTS = [
    ("UP_EDGES drops 1->7", "ext.py", "    (1, 7), (6, 5),\n", "    (6, 5),\n"),
    ("UP_EDGES 9->6 to 9->5", "ext.py", "(2, 1), (9, 6), (9, 8)", "(2, 1), (9, 5), (9, 8)"),
    ("DOWN_EDGES drops 5->4", "ext.py", "    (5, 4), (3, 2),\n", "    (3, 2),\n"),
    ("DOWN_EDGES 8->3 to 8->2", "ext.py", "(8, 4), (8, 3),", "(8, 4), (8, 2),"),
    ("down extra pair 7->9 to 7->3", "ext.py", "(4, 8), (7, 9)}", "(4, 8), (7, 3)}"),
    ("wall chain 2->1 to 3->1", "ext.py", "((4, 3), (3, 2), (2, 1))", "((4, 3), (3, 2), (3, 1))"),
    ("wall diamond drops 2->1", "ext.py", "((4, 3), (4, 2), (3, 1), (2, 1))", "((4, 3), (4, 2), (3, 1))"),
    ("DUAL_POSITION 1: 3 to 1: 1", "decomp.py", "{1: 3, 2: 2,", "{1: 1, 2: 2,"),
    ("DUAL_POSITION 4: 9 to 4: 8", "decomp.py", "4: 9, 5: 6,", "4: 8, 5: 6,"),
    (
        "FAMILY_ROWS right wall row 3",
        "decomp.py",
        "(0, 0, 1), (-1, 0, 0), (1, -1, 0), (0, -1, 2)",
        "(0, 0, 1), (-1, 0, 0), (1, -1, 2), (0, -1, 2)",
    ),
    (
        "FAMILY_ROWS left wall row 3",
        "decomp.py",
        "(0, 0, 2), (0, -1, 0), (-1, 1, 0), (-1, 0, 1)",
        "(0, 0, 2), (0, -1, 0), (-1, 1, 1), (-1, 0, 1)",
    ),
    (
        "FAMILY_ROWS horizontal wall row 3",
        "decomp.py",
        "(0, 0, 0), (-1, 0, 2), (0, -1, 1), (-1, -1, 0)",
        "(0, 0, 0), (-1, 0, 2), (0, -1, 2), (-1, -1, 0)",
    ),
    (
        "FAMILY_ROWS down alcove row 9",
        "decomp.py",
        "(-1, 0, 2), (-1, -1, 5),",
        "(-1, 0, 2), (-1, -1, 4),",
    ),
    (
        "FAMILY_ROWS up alcove row 9",
        "decomp.py",
        "(0, 0, 0), (0, -1, 1),\n",
        "(0, 0, 0), (0, -1, 2),\n",
    ),
    (
        "hat_dual_pair keeps the restricted part",
        "homs.py",
        "return rb - (a - ra), ra - (b - rb)",
        "return ra - (a - ra), rb - (b - rb)",
    ),
    (
        "hat_dual_pair keeps the classical part",
        "homs.py",
        "return rb - (a - ra), ra - (b - rb)",
        "return rb + (a - ra), ra + (b - rb)",
    ),
    ("dual_module_weight 2l - 1", "homs.py", "top = 2 * (l - 1)", "top = 2 * l - 1"),
]

# Runs every suite on the copy and prints {suite: failures}; a suite that
# raises counts as failed, with -1.
_RUN = """
import json, sys
from qgl3.verify import SUITES, run_suite
out = {}
for name in SUITES:
    try:
        out[name] = len(run_suite(name, %r, %d).failures)
    except Exception:
        out[name] = -1
print(json.dumps(out))
""" % (L_VALUES, BOX)


def apply(tree: Path, file: str, old: str, new: str) -> None:
    path = tree / "qgl3" / file
    text = path.read_text()
    if text.count(old) != 1:
        raise SystemExit(f"{file}: {old!r} occurs {text.count(old)} times, not once")
    path.write_text(text.replace(old, new))


def census_row(edit) -> str:
    """The failing suites with their failure counts, on a fresh copy of
    the source with edit applied (None: the unedited source)."""
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "src"
        shutil.copytree(SRC, tree, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        if edit is not None:
            apply(tree, *edit)
        env = {**os.environ, "PYTHONPATH": str(tree), "PYTHONDONTWRITEBYTECODE": "1"}
        run = subprocess.run(
            [sys.executable, "-c", _RUN], env=env, cwd=tmp, capture_output=True, text=True
        )
    if run.returncode:
        return f"import fails: {run.stderr.strip().splitlines()[-1]}"
    failed = {name: n for name, n in json.loads(run.stdout).items() if n}
    return ", ".join(f"{name} {'raises' if n < 0 else n}" for name, n in failed.items()) or "none"


def main() -> int:
    print(f"| mutant | failing suites (failures), l in {L_VALUES}, box {BOX} |")
    print("|---|---|")
    print(f"| (unedited) | {census_row(None)} |", flush=True)
    for name, *edit in MUTANTS:
        print(f"| {name} | {census_row(edit)} |", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
