"""Benchmark entry point.

    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1

Runs from the root of a checkout.  Each workload runs in a fresh child
process (bench/worker.py).  With ``--trace 0`` the last stdout line carries
the end-to-end metrics, with ``--trace 1`` the per-layer metrics of a
traced run; the line before it records the Python version, ``nproc``,
sample counts and the first failures.  See bench/README.md.
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

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from tracer import FUNNEL, LAYERS, MATRIX_LAYERS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

TIME_LIMIT_S = 170


class ChildFailed(RuntimeError):
    pass


def _child(args: list[str], deadline: float) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), *args]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"{' '.join(args)}: timed out")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"{' '.join(args)}: exit code {proc.returncode}\n{proc.stderr}")
    return json.loads(lines[-1])


def _end_to_end(run: dict) -> dict:
    # Medians over the run, all in reference seconds (refclock.py).
    median = statistics.median
    return {
        "wall_s": (median(run["passes"]), "s"),
        "task_p50_s": (median(median(ts) for ts in run["by_label"].values()), "s"),
        "setup_s": (median(run["setup_s"]), "s"),
        "peak_rss_mb": (run["peak_rss_mb"], "MB"),
    }


def _median_pass(passes: list[dict]) -> dict:
    return sorted(passes, key=lambda t: t["wall"])[(len(passes) - 1) // 2]


def _per_layer(run: dict) -> dict:
    # counts repeat exactly between passes; times come from the median one
    middle = _median_pass(run["traced"])
    layers = middle["layers"]
    out = {}
    for name in LAYERS:
        out[f"{name}.calls"] = (layers[name]["calls"], "count")
        out[f"{name}.self_s"] = (layers[name]["self_s"], "s")
        out[f"{name}.incl_s"] = (layers[name]["incl_s"], "s")
        if name in MATRIX_LAYERS:
            out[f"{name}.entries"] = (layers[name]["entries"], "count")
    counts = middle["counts"]
    for key in FUNNEL:
        out[f"search.{key}"] = (counts[key], "count")
    words = counts["words"]
    out["search.member_ratio"] = (counts["members"] / words if words else 0.0, "ratio")
    calls = layers["exceptional.identify_shift"]["calls"]
    out["exceptional.identify_shift.hit_ratio"] = (
        counts["shift_hits"] / calls if calls else 0.0, "ratio")
    out["trace.overhead_s"] = (middle["wall"] - statistics.median(run["passes"]), "s")
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=38)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    deadline = time.monotonic() + TIME_LIMIT_S
    try:
        run = _child(["--workload", args.workload, "--seed", str(args.seed),
                      "--seconds", str(args.seconds), "--trace", str(args.trace)], deadline)
    except ChildFailed as e:
        print(f"benchmark run failed: {e}", file=sys.stderr)
        return 1

    metrics = _per_layer(run) if args.trace else _end_to_end(run)
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
        "tasks_per_pass": run["tasks"], "untraced_passes": len(run["passes"]),
        "traced_passes": len(run["traced"]),
        "task_samples": sum(len(ts) for ts in run["by_label"].values()),
        "setup_samples": len(run["setup_s"]), "clock_samples": run["clock_samples"],
        "kernel_ms_quartiles": run["kernel_ms_quartiles"],
        "raw_pass_s_median": statistics.median(run["raw_passes"]),
        "failures": run["failures"]}))
    print(json.dumps({
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
