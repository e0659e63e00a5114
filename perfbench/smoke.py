"""Smoke test of the benchmark itself, at a reduced size.

    python3 perfbench/smoke.py

Checks that every workload runs through the real command, untraced and
traced, and prints every end-to-end metric with its unit and every metric
BENCHMARK.json names; that a wrong expected case count and a query whose
check is forced to fail each make the run fail; and that the command fails
without printing a result where the qgl3 sources are missing.  Exits 0 when
every check passes.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import iteration  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
PRINTED_METRICS = {
    "setup_s": "s", "wall_s": "s", "ops_per_s": "1/s", "peak_rss_mb": "MB",
    "failed_frac": "ratio", "query_p50_ms": "ms", "query_p90_ms": "ms",
}


def command(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result_line(stdout: str) -> dict:
    last = json.loads(stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}, last.keys()
    return last


def check_untraced() -> None:
    proc = command("--workload", "all", "--seed", "3", "--seconds", "0.01", "--trace", "0", "--size", "smoke")
    assert proc.returncode == 0, proc.stderr
    printed = {}
    for line in proc.stdout.splitlines():
        parts = line.split()
        if len(parts) == 4 and parts[0] in run.WORKLOAD_NAMES:
            printed[(parts[0], parts[1])] = (float(parts[2]), parts[3])
    for workload in run.WORKLOAD_NAMES:
        for name, unit in PRINTED_METRICS.items():
            assert printed[(workload, name)][1] == unit, (workload, name, printed.get((workload, name)))
        assert printed[(workload, "failed_frac")][0] == 0.0, workload
    last = result_line(proc.stdout)
    assert last["correct"] and last["failed"] == 0 and last["attempted"] > 0, last
    for workload in run.WORKLOAD_NAMES:
        for m in SPEC["end_to_end"]:
            got = last["metrics"][f"{workload}/{m['name']}"]
            assert got["unit"] == m["unit"] and got["value"] > 0, (workload, m, got)


def check_traced() -> None:
    for workload in run.WORKLOAD_NAMES:
        proc = command("--workload", workload, "--seed", "3", "--seconds", "0.01", "--trace", "1", "--size", "smoke")
        assert proc.returncode == 0, proc.stderr
        last = result_line(proc.stdout)
        assert last["correct"], last
        assert [m["name"] for m in SPEC["per_layer"]] == list(last["metrics"]), workload
        for m in SPEC["per_layer"]:
            assert last["metrics"][m["name"]]["unit"] == m["unit"], m
        assert f"{workload} trace.overhead_s" in proc.stdout
        assert f"{workload} verify.graphs.cases" in proc.stdout


def failing_run(workload: str) -> tuple[int, dict]:
    """Run the command in this interpreter, iterations included, so that a
    patched workload definition reaches them."""
    saved = run.spawn_iteration
    run.spawn_iteration = lambda w, seed, size, trace, env, deadline, spans=None: iteration.run(w, seed, size, trace)
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0.01", "--size", "smoke"])
    finally:
        run.spawn_iteration = saved
    return code, result_line(out.getvalue())


def check_wrong_case_count() -> None:
    smoke = workloads.WORKLOADS["smoke"]
    saved = smoke["decomp-l7"]
    counts = {name: n + 1 for name, n in saved.expect_cases.items()}
    smoke["decomp-l7"] = dataclasses.replace(saved, expect_cases=counts)
    try:
        code, last = failing_run("decomp-l7")
    finally:
        smoke["decomp-l7"] = saved
    assert code != 0 and not last["correct"] and last["failed"] >= 1, (code, last)


def check_forced_query_failure() -> None:
    saved = workloads.make_queries

    def one_wrong(spec, seed):
        queries = saved(spec, seed)
        i = next(i for i, q in enumerate(queries) if q.kind == "ext")
        queries[i] = dataclasses.replace(queries[i], expect=1 - queries[i].expect)
        return queries

    workloads.make_queries = one_wrong
    try:
        code, last = failing_run("point-queries")
    finally:
        workloads.make_queries = saved
    assert code != 0 and not last["correct"] and last["failed"] == 1, (code, last)


def check_bare_directory() -> None:
    """Without the qgl3 sources the command must fail and print no result."""
    bare = HERE / "results" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in HERE.glob("*.py"):
        shutil.copy(path, bare / "perfbench")
    try:
        proc = command("--workload", "decomp-l7", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=bare)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0, proc
    assert '"correct"' not in proc.stdout, proc.stdout


def main() -> int:
    checks = (check_untraced, check_traced, check_wrong_case_count, check_forced_query_failure, check_bare_directory)
    for check in checks:
        check()
        print(f"ok {check.__name__}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
