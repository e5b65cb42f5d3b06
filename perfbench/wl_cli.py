"""cli: one fresh `python -m ldlab.cli` process per command of the README mix.

Per round every command runs once, one child at a time, in an order the
seed shuffles.  A task's latency is the child's wall time, start-up and
imports included, which is what a shell user pays per command.  Expected
outputs are computed by the benchmark (oracles) or are the values the
README prints.
"""

import json
import os
import random
import resource
import subprocess
import sys
from functools import partial
from types import SimpleNamespace

import ldlab.cli  # noqa: F401  (set-up pays the import like any caller would)

import oracles

TAIL_PERCENTILE = 75
RSS_OF = resource.RUSAGE_CHILDREN    # peak RSS of the largest child
CHILD_TIMEOUT_S = 60
HERE = os.path.dirname(os.path.abspath(__file__))


def _csv(rows):
    return "\n".join(",".join(str(v) for v in row) for row in rows)


def _dihedral(k):
    return [[(2 * a - b) % k or k for b in range(1, k + 1)] for a in range(1, k + 1)]


def _ybe_coo(rows):
    """Ones of the 0/1 matrix of rho(a, b) = (a*b, a) as "row col 1", by column."""
    m = len(rows)
    ones = [((rows[a - 1][b - 1] - 1) * m + a, (a - 1) * m + b)
            for a in range(1, m + 1) for b in range(1, m + 1)]
    return "\n".join(f"{r} {c} 1" for r, c in sorted(ones, key=lambda e: (e[1], e[0])))


def _commands():
    d3 = _dihedral(3)
    return [
        (["laver", "table", "--n", "2"], _csv(oracles.laver_rows(4))),
        (["order", "rank3", "1 2 1"], "w^2+1"),
        (["cocycle", "rank", "--rack", "laver:2", "--degree", "2"],
         str(oracles.rational_nullity(oracles.cocycle_rows(oracles.laver_rows(4), 2), 16))),
        (["ybe", "matrix", "--rack", "dihedral:3", "--format", "coo"], _ybe_coo(d3)),
        (["color", "count", "--rack", "dihedral:3", "--strands", "2", "1 1 1"],
         str(oracles.colourings(d3, (1, 1, 1), 2))),
        (["conj", "mu", "--strands", "3", "2 2 1"], "2 1 1"),
        (["game", "g3", "2 1", "--trace"], "2 1\n2\n1 1\n1\n\nsteps=4"),
        (["ack", "3", "--diag"], "61"),
    ]


def setup(seed):
    s = SimpleNamespace()
    s.commands = _commands()
    random.Random(seed).shuffle(s.commands)
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    s.trace_file = os.path.join(HERE, "out", "cli-child-trace.json")
    return s


def _run(cmd):
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
                          check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"exit {proc.returncode}: {proc.stderr.strip()[-200:]}")
    return proc.stdout


def _run_traced(s, tracer, argv):
    task = tracer.task
    out = _run([sys.executable, os.path.join(HERE, "cli_child.py"), s.trace_file] + argv)
    with open(s.trace_file) as fh:
        tracer.merge(json.load(fh), task)
    return out


def calls(s, tracer=None):
    if tracer is None:
        return [partial(_run, [sys.executable, "-m", "ldlab.cli"] + argv)
                for argv, _ in s.commands]
    return [partial(_run_traced, s, tracer, argv) for argv, _ in s.commands]


def check(s, outs):
    errors = []
    for (argv, want), got in zip(s.commands, outs):
        if isinstance(got, str) and got.rstrip("\n") != want:
            errors.append(f"ldlab {' '.join(argv)} printed {got[:80]!r}, expected {want[:80]!r}")
    return errors
