"""Self-check of the benchmark's tracer.

    python3 bench/selfcheck.py [--seed N] [--workload W ...]

Runs the traced pass of each in-process workload twice on one seed and
requires identical search funnel counts, identical per-layer call counts
and linalg entry counts, and identical results, so that counts can be
compared exactly between two versions of the program.  It also requires
the tracer to refuse a layer name that has no binding.  Exits non-zero on
any difference.
"""

from __future__ import annotations

import argparse
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import worker  # noqa: E402
import workloads  # noqa: E402
from tracer import LAYERS, TraceError, Tracer  # noqa: E402


def traced_pass(tracer: Tracer, tasks) -> tuple[dict, dict, dict]:
    tracer.reset()
    tracer.install()
    try:
        p = worker.run_pass(tasks, tracer)
    finally:
        tracer.uninstall()
    if p.failures:
        raise SystemExit(f"failed tasks: {p.failures}")
    layers = {name: (row["calls"], row["entries"]) for name, row in tracer.summary().items()}
    return dict(tracer.counts), layers, p.results


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--workload", action="append", choices=workloads.WORKLOADS)
    args = ap.parse_args()

    import gentle  # noqa: F401
    try:
        Tracer(LAYERS + ("hom.no_such_function",))
    except TraceError as e:
        print(f"ok   unknown layer refused: {e}")
    else:
        print("FAIL tracer accepted a layer without a binding")
        return 1

    bad = 0
    tracer = Tracer()
    for name in args.workload or ["search-corpus", "invariants"]:
        tasks = workloads.build(name, args.seed)
        first = traced_pass(tracer, tasks)
        second = traced_pass(tracer, tasks)
        for what, x, y in zip(("funnel counts", "layer calls and entries", "results"),
                              first, second):
            same = x == y
            bad += not same
            print(f"{'ok  ' if same else 'FAIL'} {name} seed {args.seed}: {what} repeat")
        print(f"     funnel {first[0]}, rank calls/entries {first[1]['linalg.rank']}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
