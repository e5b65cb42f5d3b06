"""Run one workload in this process: set up, time whole rounds, check outputs.

Started by run.py with the environment pinned; prints one JSON line.
Set-up time runs from the top of this file, before ldlab is imported, to
the moment the first timed task could start.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from time import perf_counter, perf_counter_ns  # noqa: E402

OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")


class Failed:
    """Stands in for the output of a task that raised."""

    def __init__(self, exc):
        self.text = f"{type(exc).__name__}: {exc}"

    def __eq__(self, other):
        return isinstance(other, Failed) and other.text == self.text

    def __repr__(self):
        return f"Failed({self.text})"


def run_round(calls, latencies, tracer=None, first_task=0):
    """Run one round of tasks back to back; returns (outputs, failures)."""
    outs = []
    failed = 0
    for i, call in enumerate(calls):
        if tracer is not None:
            tracer.task = first_task + i
        t0 = perf_counter_ns()
        try:
            out = call()
        except Exception as exc:  # a failing task is counted, not fatal
            out = Failed(exc)
            failed += 1
        latencies.append(perf_counter_ns() - t0)
        outs.append(out)
    return outs, failed


def percentile(sorted_values, p):
    """Nearest-rank percentile of an ascending list."""
    k = max(1, math.ceil(p / 100 * len(sorted_values)))
    return sorted_values[k - 1]


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    wl = importlib.import_module("wl_" + args.workload)
    state = wl.setup(args.seed)
    gc.collect()
    setup_s = perf_counter() - T_START
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    latencies = []       # ns, in task order
    attempted = failed = mismatched = 0
    reference = None

    def rounds(count=None, seconds=None, min_samples=0, tracer=None):
        """Run whole rounds; returns (rounds, wall seconds).

        With `seconds`, stop at the round boundary nearest to `seconds`
        once at least `min_samples` latencies are in.
        """
        nonlocal attempted, failed, mismatched, reference
        done = 0
        t0 = perf_counter()
        while True:
            calls = wl.calls(state, tracer)
            outs, bad = run_round(calls, latencies, tracer, attempted)
            attempted += len(calls)
            failed += bad
            if reference is None:
                reference = outs
            else:
                mismatched += sum(a != b for a, b in zip(outs, reference))
            done += 1
            if count is not None:
                if done >= count:
                    break
            elif (len(latencies) >= min_samples
                  and (perf_counter() - t0) * (1 + 0.5 / done) >= seconds):
                break
        return done, perf_counter() - t0

    os.makedirs(OUT_DIR, exist_ok=True)
    if args.trace:
        from tracing import Tracer

        # Untraced rounds for a quarter of the run, then the same number of
        # rounds traced; the first traced round keeps its raw spans.
        n_rounds, untraced_s = rounds(seconds=args.seconds / 4)
        tracer = Tracer()
        tracer.install()
        try:
            tracer.keep = True
            _, traced_s = rounds(count=1, tracer=tracer)
            tracer.keep = False
            if n_rounds > 1:
                _, rest_s = rounds(count=n_rounds - 1, tracer=tracer)
                traced_s += rest_s
        finally:
            tracer.uninstall()
        metrics = tracer.metrics(n_rounds)
        metrics["trace.overhead_ratio"] = (traced_s / untraced_s, "ratio")
        tracer.dump(os.path.join(OUT_DIR, f"trace-{args.workload}.tsv"),
                    {"workload": args.workload, "seed": args.seed,
                     "rounds": 1, "tasks_per_round": len(reference)})
    else:
        min_samples = math.ceil(10 / (1 - wl.TAIL_PERCENTILE / 100))
        n_rounds, wall = rounds(seconds=args.seconds, min_samples=min_samples)
        peak_kib = resource.getrusage(getattr(wl, "RSS_OF", resource.RUSAGE_SELF)).ru_maxrss
        lat = sorted(latencies)
        metrics = {
            "tasks_per_s": (len(lat) / wall, "1/s"),
            "latency_p50_ms": (statistics.median(lat) / 1e6, "ms"),
            "latency_tail_ms": (percentile(lat, wl.TAIL_PERCENTILE) / 1e6, "ms"),
            "peak_rss_mib": (peak_kib / 1024, "MiB"),
        }

    errors = wl.check(state, reference)
    if mismatched:
        errors.append(f"{mismatched} outputs differ from the first round's")
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "setup_s": setup_s,
        "rounds": n_rounds,
        "errors": errors[:20],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
