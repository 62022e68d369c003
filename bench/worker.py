"""One workload in one fresh process: set-up, then a closed loop of passes.

Started by run.py.  Prints one JSON line with the raw measurements; run.py
turns them into metrics.  A fresh process per workload keeps import cost,
peak RSS and the per-algebra caches from leaking between workloads.  One
client, no thread pool: the arithmetic is pure-Python ``Fraction`` work
under the interpreter lock, so a second thread would only queue behind the
first.  Every time is taken on the reference clock (refclock.py), so a
slow phase of the shared host does not read as a slower program.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from refclock import RefClock  # noqa: E402

# Sampling period of the reference clock: short during the 0.1 s set-up,
# so that it gets about ten samples, longer during the passes.
SETUP_CLOCK = RefClock(period=0.01)
if __name__ == "__main__":
    SETUP_CLOCK.start()

ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".bench_out")
PASS_PERIOD_S = 0.05
# A pass is repeated until the run's seconds are used, and at least this
# often, so that every task has more than one sample.
MIN_PASSES = 2


def _import_gentle():
    if not os.path.isdir(os.path.join(ROOT, "src", "gentle")):
        sys.exit(f"no gentle sources under {ROOT}/src")
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import gentle  # noqa: F401  (imports every layer module)
    import gentle.cli  # noqa: F401
    import gentle.randomgen  # noqa: F401


class Pass:
    """Clock readings, results and failures of one pass over the tasks."""

    def __init__(self):
        self.start = self.end = 0.0
        self.marks: list[tuple[str, float, float]] = []  # (label, start, end)
        self.results: dict[str, object] = {}
        self.failures: list[str] = []

    def wall(self, clock: RefClock) -> float:
        return clock.span(self.start, self.end)

    def times(self, clock: RefClock) -> list[tuple[str, float]]:
        return [(label, clock.span(a, b)) for label, a, b in self.marks]


def run_pass(tasks, tracer=None) -> Pass:
    out = Pass()
    out.start = time.perf_counter()
    for task in tasks:
        t = time.perf_counter()
        try:
            if tracer is not None:
                with tracer.task(task.label):
                    result = task.run()
            else:
                result = task.run()
        except Exception as e:  # noqa: BLE001 - a failed task is counted, the run goes on
            out.failures.append(f"{task.label}: {type(e).__name__}: {e}")
        else:
            out.results[task.label] = result
        out.marks.append((task.label, t, time.perf_counter()))
    out.end = time.perf_counter()
    return out


def check_results(p: Pass, expected: dict, reference: dict) -> None:
    """Each result must equal the recorded one and that of the first pass."""
    for label, result in p.results.items():
        got = json.loads(json.dumps(result))
        if label in expected and got != expected[label]:
            p.failures.append(f"{label}: result {got}, expected {expected[label]}")
        elif reference.setdefault(label, got) != got:
            p.failures.append(f"{label}: result {got} differs from an earlier pass")


def _setup_in_child(args) -> float:
    """Set-up time of a fresh process, taken between passes so that the
    samples span the run, in reference seconds."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=True, timeout=120)
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    import workloads
    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"unknown workload {args.workload!r}")
    _import_gentle()
    tasks = workloads.build(args.workload, args.seed)
    setup_end = time.perf_counter()
    SETUP_CLOCK.stop()
    setup_s = SETUP_CLOCK.span(T0, setup_end)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
    with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as fh:
        expected = json.load(fh)[args.workload]
    reference: dict = {}
    setups = [setup_s]
    untraced: list[Pass] = []
    traced: list[dict] = []
    clock = RefClock(period=PASS_PERIOD_S)
    clock.start()
    deadline = time.perf_counter() + args.seconds
    while True:
        p = run_pass(tasks)
        check_results(p, expected, reference)
        untraced.append(p)
        if tracer is None:
            clock.pause()
            setups.append(_setup_in_child(args))
            clock.resume()
        else:
            tracer.reset()
            tracer.install()
            try:
                p = run_pass(tasks, tracer)
            finally:
                tracer.uninstall()
            check_results(p, expected, reference)
        clock.sample()
        clock.build()
        if tracer is not None:
            traced.append({"pass": p, "wall": p.wall(clock),
                           "layers": tracer.summary(clock.to_ref),
                           "counts": dict(tracer.counts)})
        walls = [q.wall(clock) for q in untraced] + [t["wall"] for t in traced]
        step = statistics.median(walls) * (2 if tracer else 1)
        done = len(traced) if tracer else len(untraced)
        if done >= (1 if tracer else MIN_PASSES) and time.perf_counter() + step > deadline:
            break
    clock.stop()
    if tracer is not None:
        os.makedirs(OUT_DIR, exist_ok=True)
        tracer.write_spans(os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl"),
                           clock.to_ref)

    passes = untraced + [t.pop("pass") for t in traced]
    kernel = clock.kernel_times()
    print(json.dumps({
        "setup_s": setups,
        "tasks": len(tasks),
        "passes": [q.wall(clock) for q in untraced],
        "raw_passes": [q.end - q.start for q in untraced],
        "by_label": {t.label: [s for q in untraced for lb, s in q.times(clock) if lb == t.label]
                     for t in tasks},
        "traced": traced,
        "attempted": sum(len(q.marks) for q in passes),
        "failed": sum(len(q.failures) for q in passes),
        "failures": [f for q in passes for f in q.failures][:20],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "clock_samples": len(kernel),
        "kernel_ms_quartiles": [1e3 * k for k in statistics.quantiles(kernel, n=4)],
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    finally:
        # no timer signal may reach the process after main(): its default
        # action would kill it
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
