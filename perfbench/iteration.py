"""One iteration of a benchmark workload, in a fresh interpreter.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's ``src``.
Prints one JSON object as its last line of standard output: the outcome of
the workload, its wall time and per-case latencies (at the reference speed of
``workloads.Pace``, and as measured), the peak resident set and, when traced,
the per-layer metrics.  With ``--setup`` it times set-up instead.

    python3 perfbench/iteration.py --workload decomp-l7 --seed 1 --size full --trace 0
    python3 perfbench/iteration.py --setup
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
from collections import defaultdict
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent


def _check_engine() -> None:
    import qgl3

    engine = Path(qgl3.__file__).resolve()
    if engine.parent.parent != ROOT / "src":
        raise RuntimeError(f"imported qgl3 from {engine.parent}, not from this checkout")


def run(workload: str, seed: int, size: str = "full", trace: int = 0, spans=None) -> dict:
    """Run one iteration of a workload in this interpreter and summarize it."""
    import qgl3.cli  # noqa: F401 - import cost belongs to set-up, not to the workload
    from qgl3 import kernels

    _check_engine()

    spec = workloads.WORKLOADS[size][workload]
    queries = workloads.make_queries(spec, seed) if isinstance(spec, workloads.QueryStream) else None

    tracer = None
    if trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()

    outcome = workloads.run_sweep(spec) if queries is None else workloads.run_queries(queries)

    latencies = outcome.latencies()
    by_label = defaultdict(lambda: [0, 0.0])
    for label, seconds in latencies:
        by_label[label][0] += 1
        by_label[label][1] += seconds
    factors = outcome.pace.factors()
    result = {
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "wall_s": outcome.wall_s,
        "wall_raw_s": outcome.wall_raw_s,
        "pace_factor": outcome.wall_s / outcome.wall_raw_s if outcome.wall_raw_s else 1.0,
        "pace_marks": len(factors) + 1,
        "latencies_s": [seconds for _, seconds in latencies],
        "latencies_raw_s": [seconds for _, seconds in outcome.latencies(scaled=False)],
        "by_label": dict(by_label),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "backend": kernels.BACKEND,
        "errors": outcome.errors[:20],
    }
    if tracer is not None:
        result["layers"] = tracer.layer_metrics()
        if spans:
            t0 = time.perf_counter()
            tracer.write(spans)
            result["spans"] = {"count": len(tracer.spans), "write_s": time.perf_counter() - t0}
    return result


def setup() -> dict:
    """Time importing ``qgl3`` and answering one trivial CLI call in this
    fresh interpreter, at the reference speed of ``workloads.Pace`` and as
    measured.  Interpreter start-up, the same for every commit, is left out."""
    pace = workloads.Pace()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        import qgl3.cli

        code = qgl3.cli.main(["classify", "--l", "3", "1,1"])
    raw = time.perf_counter() - t0
    pace.mark()
    _check_engine()
    if code != 0:
        raise RuntimeError(f"the set-up call exited {code}")
    return {"setup_s": raw * pace.factors()[0], "setup_raw_s": raw}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--setup", action="store_true", help="time set-up instead of running a workload")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--size", choices=sorted(workloads.WORKLOADS), default="full")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", help="write the spans of a traced run to this .csv.gz file")
    args = parser.parse_args(argv)
    if not args.setup and (args.workload is None or args.seed is None):
        parser.error("--workload and --seed are required unless --setup is given")
    try:
        result = setup() if args.setup else run(args.workload, args.seed, args.size, args.trace, args.spans)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
