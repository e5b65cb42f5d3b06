"""ldlab benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload order --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout (the directory holding src/ldlab).
ldlab runs from the source tree through PYTHONPATH, with a fixed hash seed
and numpy/BLAS pinned to one thread.  The workload runs in one worker
process at a time; set-up time is the median over several fresh workers.
The last line of standard output is the JSON result.  See README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("order", "conjugacy", "racks", "cli")
SETUP_PROBES = 6          # extra fresh workers that only set up
CHILD_TIMEOUT_S = 150     # the whole run must end within 180 s

PINNED_ENV = {
    "PYTHONHASHSEED": "0",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}


def child(cmd, env, timeout):
    """Run a child to completion; returns its last stdout line as JSON."""
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, timeout=timeout,
                          text=True, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd[1:3])} exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{' '.join(cmd[1:3])} printed no result")
    return json.loads(lines[-1])


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "ldlab", "__init__.py")):
        print(f"error: no ldlab source tree at {src}; run from the repository root",
              file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONPATH=src, **PINNED_ENV)
    py = sys.executable
    worker = [py, os.path.join(HERE, "worker.py"), "--workload", args.workload,
              "--seed", str(args.seed)]
    try:
        # Compile ldlab's bytecode before anything is timed.
        subprocess.run([py, "-c", "import ldlab.cli"], env=env, check=True,
                       timeout=CHILD_TIMEOUT_S)
        setups = []
        if not args.trace:
            setups = [child(worker + ["--setup-only"], env, CHILD_TIMEOUT_S)["setup_s"]
                      for _ in range(SETUP_PROBES)]
        res = child(worker + ["--seconds", str(args.seconds), "--trace", str(args.trace)],
                    env, CHILD_TIMEOUT_S)
    except (subprocess.SubprocessError, RuntimeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    metrics = res["metrics"]
    if not args.trace:
        setups.append(res["setup_s"])
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    for err in res["errors"]:
        print(f"check failed: {err}", file=sys.stderr)
    result = {"correct": res["correct"], "attempted": res["attempted"],
              "failed": res["failed"], "metrics": metrics}
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with open(os.path.join(HERE, "out", f"result-{args.workload}-trace{args.trace}.json"),
              "w") as fh:
        json.dump(dict(result, seed=args.seed, seconds=args.seconds, rounds=res["rounds"],
                       setup_samples_s=setups), fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
