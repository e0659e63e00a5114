import itertools
import json
import multiprocessing

import pytest

from qgl3.cli import main, parse_weight
from qgl3.decomp import zhat_factors
from qgl3.lattice import FacetType, Weight, decompose, facet_classify
from qgl3.verify import SUITES, run_suite


def run(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


def test_parse_weight():
    assert parse_weight("3,3") == Weight(3, 3)
    assert parse_weight("-1,0") == Weight(-1, 0)
    assert parse_weight("4,1,0", gl3=True) == Weight(3, 1)
    with pytest.raises(ValueError):
        parse_weight("1,2,3")


def test_classify(capsys):
    code, out, _ = run(capsys, "classify", "--l", "3", "3,3")
    assert code == 0
    assert "down-alcove" in out
    assert "(1,1)" in out and "(0,0)" in out
    code, out, _ = run(capsys, "classify", "--l", "2", "1,1")
    assert code == 0 and "vertex" in out


def test_classify_rejects_non_dominant(capsys):
    code, _, err = run(capsys, "classify", "--l", "3", "--", "-1,0")
    assert code == 2
    assert "dominant" in err
    code, _, err = run(capsys, "classify", "--l", "3", "-1,0")
    assert code == 2 and "dominant" in err and "required" not in err


def test_weights_with_a_leading_minus_are_arguments(capsys):
    code, out, err = run(capsys, "char", "--l", "3", "--gl3", "-1,-2,-3")
    assert code == 0, err
    assert out == run(capsys, "char", "--l", "3", "1,1")[1]
    code, out, err = run(capsys, "zhat", "--l", "3", "-1,2", "--format", "json")
    assert code == 0, err
    assert json.loads(out) == [list(f) for f in zhat_factors(Weight(-1, 2), 3)]
    assert out == run(capsys, "zhat", "--l", "3", "--format", "json", "--", "-1,2")[1]
    code, out, err = run(capsys, "ext", "--l", "3", "--level", "g1", "-1,0", "1,1")
    assert code == 2 and "restricted" in err


def test_char_json(capsys):
    code, out, _ = run(capsys, "char", "--l", "3", "--format", "json", "1,1")
    assert code == 0
    triples = json.loads(out)
    assert sum(c for _, _, c in triples) == 8


def test_decomp_json(capsys):
    code, out, _ = run(capsys, "decomp", "--l", "3", "--format", "json", "3,3")
    assert code == 0
    data = json.loads(out)
    assert data["case"] == "v"
    assert len(data["factors"]) == 9
    assert data["nonzero"].count(False) == 2


def test_gl3_flag(capsys):
    code, out, _ = run(capsys, "decomp", "--l", "3", "--gl3", "--format", "json", "6,3,0")
    assert code == 0
    assert json.loads(out)["lambda"] == [3, 3]


def test_zhat_outputs(capsys):
    code, out, _ = run(capsys, "zhat", "--l", "3", "3,3", "--structure", "--format", "dot")
    assert code == 0
    assert out.startswith("digraph") and out.count("->") == 13
    code, out, _ = run(capsys, "zhat", "--l", "2", "1,0", "--char", "--format", "json")
    assert code == 0
    assert sum(c for _, _, c in json.loads(out)) == 8
    code, out, _ = run(capsys, "zhat", "--l", "2", "1,0", "--format", "json")
    assert code == 0
    assert len(json.loads(out)) == 4


def test_lfilt_dot(capsys):
    code, out, _ = run(capsys, "lfilt", "--l", "3", "3,3", "--format", "dot")
    assert code == 0
    assert out.count("label=") == 7


def test_dot_rejected_for_non_graph(capsys):
    code, _, err = run(capsys, "char", "--l", "3", "--format", "dot", "1,1")
    assert code == 2 and "dot" in err
    # zhat draws a graph only with --structure
    code, out, err = run(capsys, "zhat", "--l", "3", "--format", "dot", "3,3")
    assert code == 2 and "dot" in err and not out
    code, _, _ = run(capsys, "zhat", "--l", "3", "--format", "dot", "--char", "3,3")
    assert code == 2


def test_removed_noop_flags_are_usage_errors(capsys):
    code, out, _ = run(capsys, "zhat", "--l", "2", "--factors", "1,0")
    assert code == 2 and not out
    for args in (
        ["classify", "1,1"],
        ["char", "1,1"],
        ["decomp", "1,1"],
        ["zhat", "1,1"],
        ["lfilt", "1,1"],
        ["ext", "--level", "g", "0,0", "3,3"],
        ["hom", "3,3", "1,1"],
    ):
        code, out, err = run(capsys, *args, "--l", "3", "--p", "5")
        assert code == 2 and "--p" in err and not out


def test_ext_levels(capsys):
    code, out, _ = run(capsys, "ext", "--l", "5", "--level", "g1", "1,2", "4,1")
    assert code == 0 and out.strip() == "nabla(0,1)^F"
    code, out, _ = run(capsys, "ext", "--l", "3", "--level", "g", "0,0", "3,3")
    assert code == 0 and out.strip() == "1"
    code, out, _ = run(
        capsys, "ext", "--l", "3", "--level", "g1b", "--mu", "3,3", "4,1", "3,3"
    )
    assert code == 0 and out.strip() == "1"
    code, _, err = run(capsys, "ext", "--l", "3", "--level", "g1b", "1,1", "3,3")
    assert code == 2 and "--mu" in err


def test_hom(capsys):
    code, out, _ = run(capsys, "hom", "--l", "3", "--format", "json", "3,3", "1,1")
    assert code == 0
    data = json.loads(out)
    assert data["witness"] == {"beta": "rho", "m": 2}
    code, out, _ = run(capsys, "hom", "--l", "3", "3,3", "1,1")
    assert code == 0 and out.strip() == "witness: beta=rho m=2"
    code, out, _ = run(capsys, "hom", "--l", "3", "3,3", "3,3")
    assert code == 0 and "no witness" in out


def test_verify_ok(capsys):
    code, out, _ = run(capsys, "verify", "--suites", "dimension,zhat", "--l", "2", "--box", "2")
    assert code == 0
    assert "dimension" in out and "ok" in out


def test_verify_jobs(capsys):
    code, out, _ = run(
        capsys, "verify", "--suites", "decomposition", "--l", "2,3", "--box", "2", "--jobs", "2"
    )
    assert code == 0 and "decomposition" in out


def test_verify_unknown_suite(capsys):
    code, _, err = run(capsys, "verify", "--suites", "unknown", "--l", "2")
    assert code == 2 and "unknown" in err


def test_verify_failure_exit_code(capsys, monkeypatch):
    from qgl3 import cli
    from qgl3.verify import VerifyReport

    def fake(name, l_values, box, stream=None, jobs=1):
        report = VerifyReport(name, cases_run=1)
        report.failures.append(("case", "identity", "observed"))
        return report

    monkeypatch.setattr(cli, "run_suite", fake)
    code, out, _ = run(capsys, "verify", "--suites", "dimension", "--l", "2")
    assert code == 1 and "1 failures" in out


def test_weight_basis_failure_names_the_differing_weights(monkeypatch):
    from qgl3 import verify
    from qgl3.charring import FormalChar, weyl_char

    def shifted(lam):
        return weyl_char(lam) + FormalChar({Weight(0, 0): 1})

    monkeypatch.setattr(verify, "weyl_char_alternating", shifted)
    report = run_suite("denominator", [2], 1)
    observed = {case: got for case, identity, got in report.failures}
    assert report.cases_run == 8 and len(report.failures) == 4
    assert observed["lam=(0,0)"] == "(0,0): want 1 got 2"
    assert observed["lam=(1,0)"] == "(0,0): want 0 got 1"


def _zhat_cases(l, box, count):
    """{case name: count(lam)} over the zhat suite's weights where count(lam)
    is nonzero."""
    lams = (
        l * Weight(a, b) + Weight(r, s)
        for a, b in itertools.product(range(box + 1), repeat=2)
        for r, s in itertools.product(range(l), repeat=2)
    )
    return {f"l={l} lam={lam}": n for lam in lams if (n := count(lam))}


def test_zhat_suite_names_a_wrong_restricted_simple(monkeypatch):
    from qgl3 import charring

    l, bad = 3, Weight(1, 1)
    weyl = charring.restricted_simple_weyl

    def wrong(r, l):
        # L(1,1) without its mirror (0,0): the induced character of (1,1)
        return {(1, 1): 1} if tuple(r) == bad else weyl(r, l)

    # the suite reads the Weyl form through chi_l_dimension for the
    # dimension, and through restricted_simple_numerator for the numerator
    monkeypatch.setattr(charring, "restricted_simple_weyl", wrong)
    report = run_suite("zhat", [l], 1)
    users = _zhat_cases(
        l, 1, lambda lam: sum(decompose(nu, l).restricted == bad for nu in zhat_factors(lam, l))
    )
    assert report.cases_run == 36 and users
    assert {case for case, _, _ in report.failures} == set(users)
    # each use of L(1,1) adds e(3c) * A(rho) to the sum of numerators, which
    # the positive sum over the uses cannot cancel, and 1 to the dimension
    for case, _, got in report.failures:
        assert got.startswith("times A(rho): (") and " want " in got, got
        assert got.endswith(f"; dim {27 + users[case]}") and got.count("; dim ") == 1, got


@pytest.mark.parametrize("fault", ["drop", "move"])
def test_zhat_suite_shows_a_wrong_factor_list(wrap_family, fault):
    def wrong(facet, factors):
        if facet is not FacetType.DOWN_ALCOVE:
            return factors
        if fault == "drop":
            return factors[:-1]
        a, b = factors[5]
        return factors[:5] + ((a + 1, b),) + factors[6:]

    wrap_family(wrong)
    report = run_suite("zhat", [5], 1)
    down = _zhat_cases(5, 1, lambda lam: facet_classify(lam, 5) is FacetType.DOWN_ALCOVE)
    assert {case for case, _, _ in report.failures} == set(down)
    for _, _, got in report.failures:
        assert got.startswith("times A(rho): (") and " want " in got and " got " in got, got
        if fault == "drop":
            assert "; dim " in got, got


@pytest.mark.parametrize("fault", ["inexact", "mismatch"])
def test_zhat_suite_records_a_failed_division(monkeypatch, fault):
    """The once-per-l check divides zhat_numerator(0) by A(rho) and compares
    the quotient with zhat_char(0): an inexact division is a failed case
    carrying the division's message, a wrong quotient one carrying the
    want/got text, on every case of that l."""
    from qgl3 import verify
    from qgl3.charring import FormalChar

    numerator, char = verify.zhat_numerator, verify.zhat_char
    if fault == "inexact":
        # e(0,0) is not W-antisymmetric, so A(rho) does not divide the sum
        def wrong(lam, l):
            num = numerator(lam, l)
            return num + FormalChar({(0, 0): 1}) if tuple(lam) == (0, 0) else num

        monkeypatch.setattr(verify, "zhat_numerator", wrong)
        text = "zhat_numerator / A(rho): inexact division by the Weyl denominator: the string "
    else:
        monkeypatch.setattr(verify, "zhat_char", lambda lam, l: char((lam[0] + 1, lam[1]), l))
        text = "zhat_numerator / A(rho): ("
    report = run_suite("zhat", [3], 1)
    assert report.cases_run == 36 and len(report.failures) == 36
    for case, _, got in report.failures:
        shared = [part for part in got.split("; ") if part.startswith("zhat_numerator / A(rho): ")]
        assert len(shared) == 1 and shared[0].startswith(text), (case, got)
        if fault == "mismatch":
            assert " want " in shared[0] and " got " in shared[0], got


def test_invalid_l_and_p(capsys):
    code, _, err = run(capsys, "classify", "--l", "1", "0,0")
    assert code == 2 and "l >= 2" in err
    code, out, err = run(capsys, "hom", "--l", "3", "--p", "2", "3,3", "1,1")
    assert code == 2 and "--p" in err and not out


def test_verify_negative_box_is_usage_error(capsys):
    code, out, err = run(capsys, "verify", "--suites", "dimension", "--l", "3", "--box", "-1")
    assert code == 2 and "box" in err
    assert "cases" not in out


def test_verify_l_below_two_is_usage_error(capsys):
    for l in ("1", "0", "-3"):
        code, out, err = run(
            capsys, "verify", "--suites", "denominator,dimension", "--l", l, "--box", "1"
        )
        assert code == 2 and "l >= 2" in err
        assert "cases" not in out


def test_verify_jobs_below_one_is_usage_error(capsys):
    for jobs in ("0", "-4"):
        code, out, err = run(
            capsys, "verify", "--suites", "dimension", "--l", "3", "--box", "1", "--jobs", jobs
        )
        assert code == 2 and "jobs >= 1" in err
        assert "cases" not in out
    with pytest.raises(ValueError, match="jobs >= 1"):
        run_suite("dimension", [3], 1, jobs=0)


def test_verify_unknown_suite_runs_nothing(capsys):
    code, out, err = run(capsys, "verify", "--suites", "dimension,nosuch", "--l", "3", "--box", "1")
    assert code == 2 and "unknown suite 'nosuch'" in err
    assert "cases" not in out


@pytest.mark.parametrize(
    ("suites", "l_values", "message"),
    [
        ("decomposition", "3,5,3", "l=3 is given twice"),
        ("decomposition,dimension,decomposition", "3", "suite 'decomposition' is given twice"),
    ],
    ids=["l", "suites"],
)
def test_verify_repeat_is_usage_error(capsys, suites, l_values, message):
    """A repeated --l value or suite would run its cases twice and count
    both runs; it is rejected before anything runs."""
    code, out, err = run(capsys, "verify", "--suites", suites, "--l", l_values, "--box", "0")
    assert code == 2 and message in err
    assert "cases" not in out


def test_verify_zero_cases_fails(capsys):
    # the homs suite needs classical parts with both coordinates >= 1
    code, out, _ = run(capsys, "verify", "--suites", "homs", "--l", "3", "--box", "0")
    assert code == 1
    assert "homs: 0 cases" in out and "ok" not in out


def test_homs_suite_records_a_value_error(capsys, monkeypatch):
    """A ValueError from the head weight or the witness search fails the
    weight's three cases with its text, so the case count stays the serial
    one and verify goes on to the later suites."""
    from qgl3 import verify

    serial = run_suite("homs", [2, 3], 3).cases_run
    monkeypatch.setattr(verify, "zhat_head_weight", lambda lam, l: Weight(-1, 0))
    report = run_suite("homs", [2, 3], 3)
    assert serial and report.cases_run == serial and len(report.failures) == serial
    case, identity, got = report.failures[0]
    assert (case, identity) == ("l=3 lam=(3,3)", "rho witness onto the head weight")
    assert got == "hom_exists_mirror needs dominant weights, got (3,3), (-1,0)"
    assert [f[1] for f in report.failures[:3]] == [
        "rho witness onto the head weight",
        "antisymmetric",
        "no witness on the diagonal",
    ]
    code, out, err = run(capsys, "verify", "--suites", "homs,dimension", "--l", "2,3", "--box", "3")
    assert code == 1 and "error:" not in err
    assert out.splitlines() == [f"homs: {serial} cases, {serial} failures", "dimension: 32 cases, ok"]


def test_verify_pool_sized_by_task_count(monkeypatch):
    import concurrent.futures

    sizes = []

    class RecordingPool:
        """Records max_workers and completes each task with no cases."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            fut = concurrent.futures.Future()
            fut.set_result((0, []))
            return fut

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    run_suite("ext-lemmas", [2, 3], 4, jobs=64)  # one part: a task per l
    run_suite("decomposition", [2, 3, 5], 1, jobs=64)  # four parts per l
    run_suite("decomposition", [2], 4, jobs=3)  # fewer jobs than parts
    assert sizes == [2, 12, 3]


@pytest.mark.parametrize("name", sorted(SUITES))
def test_serial_and_parallel_sweeps_agree(name):
    serial = run_suite(name, [2, 3], 1)
    assert serial.cases_run > 0
    for jobs in (2, 3):  # box 1 has four parts, so three chunks are uneven
        parallel = run_suite(name, [2, 3], 1, jobs=jobs)
        assert parallel.cases_run == serial.cases_run
        assert sorted(parallel.failures) == sorted(serial.failures)


def test_serial_and_parallel_failures_agree(corrupt_down_alcove):
    if multiprocessing.get_start_method() != "fork":
        pytest.skip("workers see the corrupted family only when forked")
    for name in ("decomposition", "zhat", "translate", "graphs"):
        serial = run_suite(name, [2, 3, 5], 2)
        parallel = run_suite(name, [2, 3, 5], 2, jobs=2)
        assert serial.failures
        assert parallel.cases_run == serial.cases_run
        assert sorted(parallel.failures) == sorted(serial.failures)


def test_a_short_factor_list_is_a_failed_case(capsys, wrap_family):
    """A family one factor short fails the graph and Ext-table cases that
    read it, with the weight, l and the missing position, and the sweep
    ends with exit 1, not a traceback."""
    wrap_family(lambda facet, factors: factors[:-1] if facet is FacetType.DOWN_ALCOVE else factors)
    code, out, err = run(capsys, "verify", "--suites", "graphs,ext-lemmas", "--l", "2,3,5", "--box", "2")
    assert code == 1
    status = dict(line.split(": ", 1) for line in out.splitlines())
    assert all(status[name].endswith(" failures") for name in ("graphs", "ext-lemmas")), out
    short = [line for line in err.splitlines() if "has no position 9 of 9" in line]
    assert any(line.startswith("FAIL graphs: l=3 ") for line in short), err[:300]
    assert any(line.startswith("FAIL ext-lemmas: l=5 table") for line in short), err[:300]
    assert "factor list of (3,3) (l=3) has no position 9" in err


@pytest.mark.parametrize(
    ("fault", "suites", "message"),
    [
        ("corrupt_down_alcove", ["translate"], "translate_onto_wall needs a regular weight"),
        ("degenerate_down_alcove", ["graphs", "ext-lemmas"], "degenerate factor list for"),
        ("corrupt_right_wall", ["translate"], "is not on exactly one wall"),
    ],
)
def test_an_error_in_a_case_is_a_failed_case(capsys, request, fault, suites, message):
    """A ValueError raised while checking one weight fails that weight's
    case, with the message, and the run goes on to the next case and suite,
    serial and with --jobs 2."""
    request.getfixturevalue(fault)
    argv = ["verify", "--suites", ",".join(suites), "--l", "3,5", "--box", "2"]
    code, out, err = run(capsys, *argv)
    assert code == 1
    status = dict(line.split(": ", 1) for line in out.splitlines())
    for name in suites:
        assert status[name].endswith(" failures"), out
        named = [
            line for line in err.splitlines()
            if line.startswith(f"FAIL {name}: l=") and message in line
        ]
        assert named, (name, err[:300])
    # a parallel sweep fails the same cases; its workers see the fault only
    # when forked
    if multiprocessing.get_start_method() == "fork":
        p_code, p_out, p_err = run(capsys, *argv, "--jobs", "2")
        assert (p_code, p_out) == (code, out)
        assert sorted(p_err.splitlines()) == sorted(err.splitlines())
