"""Spans around ldlab's public functions, recorded from outside the package.

`Tracer.install()` replaces each traced function by a timing wrapper at
every place it is bound: the defining module and every ldlab module that
imported it by name (``from .order import compare_flipped``).  Nothing is
wrapped until `install()` runs, so untraced runs execute ldlab untouched.

A span's self time is its duration minus the durations of the wrapped
calls nested directly inside it.  Per-function calls and self time are
aggregated for every traced call; raw spans are kept in memory only while
`keep` is set and written out by `dump()`.
"""

import importlib
import inspect
import json
import statistics
import sys
from time import perf_counter_ns

# (module, function) pairs with a span each.
TRACED = (
    ("braid", ("mul", "inverse", "from_word", "to_word", "right_divides",
               "max_right_divisor_in_parabolic", "embed", "all_simples")),
    ("order", ("splitting", "compare_flipped", "compare_D", "rank_bp3", "d_floor")),
    ("conjugacy", ("positive_conjugates", "mu")),
    ("games", ("g3_run",)),
    ("laver", ("build_laver_table",)),
    ("magma", ("is_ld",)),
    ("ybe", ("satisfies_braid_equation",)),
    ("homology", ("cocycle_space", "boundary")),
    ("linalg", ("kernel_basis",)),
    ("invariants", ("count_closure_colourings",)),
    ("cli", ("main", "build_parser")),
)

SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fns in TRACED for fn in fns)

# Work counters, recorded where the work is handed to ldlab.
COUNTERS = (
    "conjugacy.positive_conjugates.members",
    "games.g3_run.steps",
    "laver.build_laver_table.entries",
    "linalg.kernel_basis.constraints",
    "invariants.count_closure_colourings.vectors",
)


class _Counted:
    """An iterable that counts the items taken from it."""

    def __init__(self, items):
        self.items = items
        self.taken = 0

    def __iter__(self):
        for item in self.items:
            self.taken += 1
            yield item


def _bound(fn, args, kwargs):
    ba = inspect.signature(fn).bind(*args, **kwargs)
    ba.apply_defaults()
    return ba.arguments


class Tracer:
    def __init__(self):
        self.agg = {name: [0, 0] for name in SPAN_NAMES}   # name -> [calls, self ns]
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.kernel_rank_drop = 0
        self.import_s = []       # ldlab.cli import times of traced children
        self.spans = []          # (id, name, parent id, task, start ns, end ns)
        self.keep = False
        self.task = -1
        self._stack = []         # [child ns, span id] per open span
        self._next_id = 0
        self._undo = []

    # -- wrappers ----------------------------------------------------

    def _enter(self):
        sid = self._next_id
        self._next_id = sid + 1
        parent = self._stack[-1][1] if self._stack else -1
        frame = [0, sid, parent]
        self._stack.append(frame)
        return frame

    def _exit(self, name, agg, frame, t0, t1):
        stack = self._stack
        if stack and stack[-1] is frame:
            stack.pop()
        else:
            stack.remove(frame)
        dur = t1 - t0
        agg[0] += 1
        agg[1] += dur - frame[0]
        if stack:
            stack[-1][0] += dur
        if self.keep:
            self.spans.append((frame[1], name, frame[2], self.task, t0, t1))

    def _wrap(self, name, fn):
        agg = self.agg[name]
        enter, leave = self._enter, self._exit
        post = getattr(self, "_post_" + name.replace(".", "_"), None)

        if inspect.isgeneratorfunction(fn):
            def wrapper(*args, **kwargs):
                frame = enter()
                t0 = perf_counter_ns()
                try:
                    yield from fn(*args, **kwargs)
                finally:
                    leave(name, agg, frame, t0, perf_counter_ns())
        elif post is None:
            def wrapper(*args, **kwargs):
                frame = enter()
                t0 = perf_counter_ns()
                try:
                    return fn(*args, **kwargs)
                finally:
                    leave(name, agg, frame, t0, perf_counter_ns())
        else:
            def wrapper(*args, **kwargs):
                arguments = _bound(fn, args, kwargs)
                if name == "linalg.kernel_basis":
                    arguments["constraints"] = _Counted(arguments["constraints"])
                frame = enter()
                t0 = perf_counter_ns()
                try:
                    result = fn(**arguments)
                finally:
                    leave(name, agg, frame, t0, perf_counter_ns())
                post(result, arguments)
                return result
        wrapper.__wrapped__ = fn
        return wrapper

    def _post_conjugacy_positive_conjugates(self, result, a):
        self.counters["conjugacy.positive_conjugates.members"] += len(result)

    def _post_games_g3_run(self, result, a):
        self.counters["games.g3_run.steps"] += result.steps - a["state"].steps

    def _post_laver_build_laver_table(self, result, a):
        self.counters["laver.build_laver_table.entries"] += sum(result.periods)

    def _post_linalg_kernel_basis(self, result, a):
        self.counters["linalg.kernel_basis.constraints"] += a["constraints"].taken
        self.kernel_rank_drop += a["dim"] - len(result)

    def _post_invariants_count_closure_colourings(self, result, a):
        self.counters["invariants.count_closure_colourings.vectors"] += a["M"].m ** a["m"]

    # -- installation ------------------------------------------------

    def install(self):
        """Wrap every traced function wherever an ldlab module binds it."""
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "ldlab" or key.startswith("ldlab."))]
        for mod_name, fns in TRACED:
            home = importlib.import_module("ldlab." + mod_name)
            for fn_name in fns:
                orig = getattr(home, fn_name)
                wrapper = self._wrap(f"{mod_name}.{fn_name}", orig)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            setattr(mod, attr, wrapper)
                            self._undo.append((mod, attr, orig))

    def uninstall(self):
        for mod, attr, orig in reversed(self._undo):
            setattr(mod, attr, orig)
        self._undo.clear()

    # -- results -----------------------------------------------------

    def merge(self, data, task):
        """Add the exported state of a tracer that ran in another process."""
        for name, (calls, self_ns) in data["agg"].items():
            self.agg[name][0] += calls
            self.agg[name][1] += self_ns
        for name, value in data["counters"].items():
            self.counters[name] += value
        self.kernel_rank_drop += data["kernel_rank_drop"]
        self.import_s.append(data["import_s"])
        if self.keep:
            base = self._next_id
            for sid, name, parent, _, t0, t1 in data["spans"]:
                self.spans.append((base + sid, name, base + parent if parent >= 0 else -1,
                                   task, t0, t1))
            self._next_id = base + data["next_id"]

    def export(self):
        return {"agg": self.agg, "counters": self.counters,
                "kernel_rank_drop": self.kernel_rank_drop,
                "spans": self.spans, "next_id": self._next_id}

    def metrics(self, rounds):
        """Per-layer metrics, per round of the workload."""
        out = {}
        for name in SPAN_NAMES:
            calls, self_ns = self.agg[name]
            out[name + ".calls"] = (calls / rounds, "count")
            out[name + ".self_s"] = (self_ns / 1e9 / rounds, "s")
        for name, value in self.counters.items():
            out[name] = (value / rounds, "count")
        fed = self.counters["linalg.kernel_basis.constraints"]
        out["linalg.kernel_basis.rank_drop_ratio"] = (
            self.kernel_rank_drop / fed if fed else 0.0, "ratio")
        out["cli.import_s"] = (statistics.median(self.import_s) if self.import_s else 0.0, "s")
        return out

    def dump(self, path, meta):
        """Write the kept spans: one JSON header line, then one span per line."""
        with open(path, "w") as fh:
            fh.write(json.dumps(dict(meta, fields=["id", "name", "parent", "task",
                                                   "start_ns", "end_ns"])) + "\n")
            fh.writelines(f"{s[0]}\t{s[1]}\t{s[2]}\t{s[3]}\t{s[4]}\t{s[5]}\n"
                          for s in self.spans)
