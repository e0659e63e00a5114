"""Benchmark of the qgl3 engine: end-to-end sweep and query metrics, and a
traced run that gives per-layer metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload verify-acceptance --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

A run first times set-up (a fresh interpreter imports ``qgl3`` and answers
one trivial CLI call) several times.  It then repeats the workload, each
iteration in a fresh interpreter, until ``--seconds`` have passed, and
reports medians over the iterations.  With ``--trace 1`` it alternates an
untraced and a traced iteration and reports the per-layer metrics of the
traced ones, plus the tracing overhead.

Human-readable lines go first; the last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
A result file with the environment record is written to
``perfbench/results/``.  The exit code is 0 only when every case and query
was checked and passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

WORKLOAD_NAMES = tuple(workloads.WORKLOADS["full"])
SETUP_REPEATS = 11
# Every run, set-up included, ends well inside three minutes: no iteration
# starts once this much time has gone, or when the last one would not fit.
RUN_BUDGET_S = 150.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
    "query_p50_ms": "ms",
    "query_p90_ms": "ms",
    "failed_frac": "ratio",
    "setup_raw_s": "s",
    "wall_raw_s": "s",
    "query_p50_raw_ms": "ms",
    "query_p90_raw_ms": "ms",
    "pace_factor": "ratio",
}


def child_env() -> dict[str, str]:
    """Environment of every child interpreter: the checkout's sources, and no
    persistent simple-character cache (it is loaded unchecked and could
    change both answers and timings).  QGL3_PURE is passed through as is."""
    env = {k: v for k, v in os.environ.items() if k != "QGL3_CACHE_DIR"}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def time_setup(env, deadline) -> list[dict]:
    """Set-up timings, each in a fresh interpreter."""
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(HERE / "iteration.py"), "--setup"],
            env=env, cwd=ROOT, capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up exited {proc.returncode}: {proc.stderr[-500:]}")
        times.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return times


def spawn_iteration(workload, seed, size, trace, env, deadline, spans=None) -> dict:
    """Run iteration.py in a fresh interpreter and return its summary."""
    cmd = [
        sys.executable, str(HERE / "iteration.py"),
        "--workload", workload, "--seed", str(seed), "--size", size, "--trace", str(trace),
    ]
    if spans:
        cmd += ["--spans", str(spans)]
    proc = subprocess.run(
        cmd, env=env, cwd=ROOT, capture_output=True, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"iteration exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def percentile(values, q) -> float:
    """The q-th percentile (0 < q < 100) by linear interpolation."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(setups, iterations) -> dict[str, float]:
    attempted = sum(it["attempted"] for it in iterations)
    failed = sum(it["failed"] for it in iterations)

    median = statistics.median

    def ms(key):  # per iteration; a run that checked nothing reads 0
        return [[s * 1e3 for s in it[key]] or [0.0, 0.0] for it in iterations]

    return {
        "setup_s": median(t["setup_s"] for t in setups),
        "setup_raw_s": median(t["setup_raw_s"] for t in setups),
        "wall_s": median(it["wall_s"] for it in iterations),
        "ops_per_s": median(it["attempted"] / it["wall_s"] for it in iterations),
        "peak_rss_mb": median(it["peak_rss_mb"] for it in iterations),
        "query_p50_ms": median(median(v) for v in ms("latencies_s")),
        "query_p90_ms": median(percentile(v, 90) for v in ms("latencies_s")),
        "failed_frac": failed / attempted if attempted else 1.0,
        "wall_raw_s": median(it["wall_raw_s"] for it in iterations),
        "query_p50_raw_ms": median(median(v) for v in ms("latencies_raw_s")),
        "query_p90_raw_ms": median(percentile(v, 90) for v in ms("latencies_raw_s")),
        "pace_factor": median(it["pace_factor"] for it in iterations),
    }


def layer_metrics(traced, untraced) -> dict[str, float]:
    """Median over the traced iterations of every per-layer metric, the
    per-suite case counts and seconds of the sweeps, and the tracing overhead."""
    tables = []
    for it in traced:
        table = dict(it["layers"])
        for suite in workloads.SUITES:
            cases, seconds = it["by_label"].get(f"verify.{suite}", (0, 0.0))
            table[f"verify.{suite}.cases"] = cases
            table[f"verify.{suite}.s"] = seconds
        tables.append(table)
    out = {name: statistics.median(t[name] for t in tables) for name in tables[0]}
    out["trace.overhead_s"] = statistics.median(it["wall_s"] for it in traced) - statistics.median(
        it["wall_s"] for it in untraced
    )
    return out


def environment(seed, backend) -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {
        "python": platform.python_version(),
        "kernels_backend": backend,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": cpu or platform.processor() or None,
        "platform": platform.platform(),
        "git_commit": commit,
        "QGL3_PURE": os.environ.get("QGL3_PURE"),
        "seed": seed,
    }


def run_workload(workload, seed, seconds, trace, size) -> dict:
    """One benchmark run of one workload; returns the result record."""
    start = time.monotonic()
    deadline = start + RUN_BUDGET_S
    env = child_env()
    setups = time_setup(env, deadline)
    kinds = (0, 1) if trace else (0,)
    runs = {0: [], 1: []}
    spans = RESULTS / f"spans-{workload}-seed{seed}.csv.gz" if trace else None
    errors = []
    t_work = time.monotonic()
    longest = 0.0
    while not runs[kinds[-1]] or (
        time.monotonic() - t_work < seconds and time.monotonic() + longest < deadline
    ):
        t0 = time.monotonic()
        for kind in kinds:
            it = spawn_iteration(workload, seed, size, kind, env, deadline, spans if kind else None)
            runs[kind].append(it)
            errors += it["errors"]
        longest = max(longest, time.monotonic() - t0)
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "size": size,
        "environment": environment(seed, runs[0][0]["backend"]),
        "setup_s": setups,
        "iterations": [
            {k: v for k, v in it.items() if k not in ("latencies_s", "latencies_raw_s", "layers")}
            for it in runs[0] + runs[1]
        ],
        "end_to_end": end_to_end(setups, runs[0]),
        "attempted": sum(it["attempted"] for it in runs[0] + runs[1]),
        "failed": sum(it["failed"] for it in runs[0] + runs[1]),
        "errors": errors[:50],
        "run_s": time.monotonic() - start,
    }
    if trace:
        record["per_layer"] = layer_metrics(runs[1], runs[0])
    return record


def print_record(record) -> None:
    env = record["environment"]
    print(
        f"# {record['workload']} seed={record['seed']} python={env['python']} "
        f"backend={env['kernels_backend']} nproc={env['nproc']} cpu={env['cpu_model']!r} "
        f"commit={env['git_commit']} QGL3_PURE={env['QGL3_PURE']} iterations={len(record['iterations'])}"
    )
    for name, value in record["end_to_end"].items():
        print(f"{record['workload']} {name} {value:.6g} {END_TO_END_UNITS[name]}")
    for name, value in record.get("per_layer", {}).items():
        print(f"{record['workload']} {name} {value:.6g}")
    for err in record["errors"][:10]:
        print(f"{record['workload']} FAILED {err}")


def metrics_of(record, spec, prefix="") -> dict:
    """The metrics BENCHMARK.json names: its per_layer list for a traced run,
    its end_to_end list otherwise.  failed_frac is not among them: it is 0 on
    every passing run, and the result line's "failed" and "attempted" carry it."""
    values, listed = (
        (record["per_layer"], spec["per_layer"]) if record["trace"] else (record["end_to_end"], spec["end_to_end"])
    )
    return {prefix + m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=sorted(workloads.WORKLOADS), default="full",
        help="'smoke' runs every workload at a reduced size (for the smoke test)",
    )
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "qgl3" / "__init__.py").is_file():
        print(f"error: no qgl3 sources under {ROOT / 'src'}; run from a checkout of the repository",
              file=sys.stderr)
        return 2

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    RESULTS.mkdir(exist_ok=True)
    records = []
    for name in names:
        try:
            record = run_workload(name, args.seed, args.seconds, args.trace, args.size)
        except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        path = RESULTS / f"{name}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(record, indent=1))
        print_record(record)
        records.append(record)

    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    if len(records) == 1:
        metrics = metrics_of(records[0], spec)
    else:
        metrics = {}
        for r in records:
            metrics.update(metrics_of(r, spec, prefix=f"{r['workload']}/"))
    correct = failed == 0 and attempted > 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
