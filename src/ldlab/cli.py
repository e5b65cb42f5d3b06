"""Command-line front end: verb-noun subcommands over the library.

Exit codes: 0 on success, 1 when a precondition or resource bound is
violated (the message names it), 2 on usage errors.  With --format json
the payload is wrapped as {"schema": "<name>/1", "data": ...}; all output
is deterministic given the flags.

Every subcommand is one row of `COMMANDS`.  A handler imports the library
modules it runs, so `import ldlab.cli` loads only `ldlab.errors` and each
command loads only what it needs.
"""

import argparse
import functools
import sys

from .errors import DomainError, ResourceError, count


class _UsageError(Exception):
    pass


def _emit(args, data, text):
    if args.format == "json":
        import json

        print(json.dumps({"schema": f"{args.schema}/1", "data": data}))
    else:
        print(text)


def _word_text(letters) -> str:
    return " ".join(str(l) for l in letters)


def _csv_rows(grid) -> str:
    return "\n".join(",".join(str(v) for v in row) for row in grid)


# ---------------------------------------------------------------- laver

def _cmd_laver_table(args):
    from . import laver

    grid = laver.build_laver_table(args.n).dense()
    _emit(args, grid, _csv_rows(grid))


def _cmd_laver_period(args):
    from . import laver

    value = laver.period(laver.build_laver_table(args.n), args.p)
    _emit(args, {"n": args.n, "p": args.p, "period": value}, str(value))


# -------------------------------------------------------------- cocycle

def _cmd_cocycle_rank(args):
    from . import homology, magma

    M = magma.parse_rack_spec(args.rack)
    if args.degree == 2:
        rank = homology.cocycle_space(M, 2)[0]
    else:
        rank = homology.three_cocycle_rank(M)
    _emit(args, {"rack": args.rack, "degree": args.degree, "rank": rank},
          str(rank))


def _cmd_cocycle_basis(args):
    from . import homology, magma

    if args.degree != 2:
        raise DomainError("basis output needs --degree 2")
    M = magma.parse_rack_spec(args.rack)
    grids = [[list(row) for row in f.grid()]
             for f in homology.cocycle_space(M, 2)[1]]
    _emit(args, grids, "\n\n".join(_csv_rows(g) for g in grids))


def _cmd_cocycle_psi(args):
    from . import homology

    grid = [list(row) for row in homology.psi(args.q, args.n).grid()]
    _emit(args, grid, _csv_rows(grid))


# ---------------------------------------------------------------- braid

def _cmd_braid_nf(args):
    from . import braid as br

    b = br.from_word(br.parse_word(args.word, args.strands))
    perms = " ; ".join(" ".join(str(v) for v in f) for f in b.factors)
    text = f"{b.inf} | {perms}" if perms else f"{b.inf} |"
    _emit(args, {"strands": b.n, "inf": b.inf,
                 "factors": [list(f) for f in b.factors]}, text)


def _cmd_braid_eq(args):
    from . import braid as br

    left = br.from_word(br.parse_word(args.word, args.strands))
    right = br.from_word(br.parse_word(args.word2, args.strands))
    same = br.equal(left, right)
    _emit(args, same, "true" if same else "false")


# ---------------------------------------------------------------- order

def _cmd_order_compare(args):
    from . import braid as br
    from . import order

    rel = order.compare_D(br.parse_word(args.word, args.strands),
                          br.parse_word(args.word2, args.strands),
                          args.strands)
    _emit(args, rel, rel)


def _cmd_order_rank3(args):
    from . import braid as br
    from . import order

    text = order.render_ordinal(order.rank_bp3(br.parse_word(args.word, 3)))
    _emit(args, text, text)


def _cmd_order_anf(args):
    from . import braid as br
    from . import order

    word = order.alternating_normal_form(
        br.parse_word(args.word, args.strands), args.strands)
    _emit(args, list(word.letters), _word_text(word.letters))


def _cmd_order_floor(args):
    from . import braid as br
    from . import order

    value = order.d_floor(br.parse_word(args.word, args.strands), args.strands)
    _emit(args, value, str(value))


# ------------------------------------------------------------------ ybe

def _cmd_ybe_matrix(args):
    from . import magma, ybe

    rho = ybe.rack_to_solution(magma.parse_rack_spec(args.rack))
    print(ybe.export_matrix(rho, args.format))


def _cmd_ybe_check(args):
    from . import magma, ybe

    rho = ybe.rack_to_solution(magma.parse_rack_spec(args.rack))
    law = ybe.satisfies_braid_equation(rho)
    invertible = ybe.is_invertible(rho)
    data = {"yang_baxter": bool(law), "invertible": invertible,
            "witness": list(law.witness) if law.witness else None}
    lines = [f"yang_baxter={'true' if law else 'false'}",
             f"invertible={'true' if invertible else 'false'}"]
    if law.witness:
        lines.append("witness=" + " ".join(str(v) for v in law.witness))
    _emit(args, data, "\n".join(lines))


# ---------------------------------------------------------------- color

def _parse_colors(text: str) -> tuple:
    try:
        return tuple(int(v) for v in text.split(","))
    except ValueError:
        raise DomainError(f"colours must be comma-separated integers, got {text!r}") from None


def _cmd_color_count(args):
    from . import braid as br
    from . import invariants, magma

    M = magma.parse_rack_spec(args.rack)
    word = br.parse_word(args.word, args.strands)
    value = invariants.count_closure_colourings(M, word, args.strands)
    _emit(args, value, str(value))


def _cmd_color_act(args):
    from . import braid as br
    from . import invariants, magma

    M = magma.parse_rack_spec(args.rack)
    colours = _parse_colors(args.colors)
    word = br.parse_word(args.word, len(colours))
    if any(l < 0 for l in word.letters):
        out = invariants.act_full(M, colours, word)
    else:
        out = invariants.act_positive(M, colours, word)
    _emit(args, list(out), ",".join(str(v) for v in out))


def _cmd_color_laver(args):
    from . import braid as br
    from . import invariants

    mid = _parse_colors(args.mid)
    word = br.parse_word(args.word, len(mid))
    left, right = invariants.laver_fraction_colouring(
        args.n, word, mid, args.mode)
    text = (",".join(str(v) for v in left) + "\n"
            + ",".join(str(v) for v in right))
    _emit(args, [list(left), list(right)], text)


def _cmd_quandle_present(args):
    from . import braid as br
    from . import invariants

    word = br.parse_word(args.word, args.strands)
    if args.group:
        text = invariants.wirtinger_group(word, args.strands)
    else:
        text = invariants.fundamental_quandle(word, args.strands).render()
    _emit(args, text, text)


# ----------------------------------------------------------------- conj

def _cmd_conj_class(args):
    from . import braid as br
    from . import conjugacy

    cls = conjugacy.positive_conjugates(
        br.parse_word(args.word, args.strands), args.strands)
    words = [list(br.to_word(m).letters) for m in cls.members]
    _emit(args, words, "\n".join(_word_text(w) for w in words))


def _cmd_conj_mu(args):
    from . import braid as br
    from . import conjugacy

    rep = conjugacy.mu(br.parse_word(args.word, args.strands), args.strands)
    letters = br.to_word(rep).letters
    _emit(args, list(letters), _word_text(letters))


def _table_word(letters) -> str:
    return _word_text(letters) if letters else "-"


def _cmd_conj_sweep(args):
    from . import conjugacy

    rows = conjugacy.sweep_mu_delta(args.maxlen)
    data = [{"word": list(r.word), "mu": list(r.mu_word),
             "agrees": r.agrees} for r in rows]
    text = "\n".join(
        f"{_table_word(r.word)} | {_table_word(r.mu_word)} | "
        f"{'agrees' if r.agrees else 'disagrees'}" for r in rows)
    _emit(args, data, text)


# ----------------------------------------------------------------- game

def _cmd_game_g3(args):
    from . import braid as br
    from . import games

    word = br.parse_word(args.word, 3)
    cap = games.DEFAULT_STEP_CAP if args.cap is None else count(args.cap, 0, "step cap")
    lines = []
    if args.trace:
        trace = games.g3_trace(word, limit=cap + 1)
        lines.extend(_word_text(t.letters) for t in trace)
        done = not trace or trace[-1].letters == ()
        steps = len(trace) - 1 if trace else 0
    else:
        state = games.g3_run(games.g3_start(word), cap)
        done, steps = state.is_trivial, state.steps
    data = {"steps": steps, "finished": done}
    if args.trace:
        data["trace"] = list(lines)
    lines.append(f"steps={steps}" if done else f"aborted at={steps}")
    _emit(args, data, "\n".join(lines))


def _cmd_ack(args):
    from . import games

    bound = games.DEFAULT_ACK_BOUND if args.bound is None else args.bound
    if args.diag:
        if len(args.values) != 1:
            raise _UsageError("ack --diag takes exactly one integer")
        value = games.ackermann_diag(args.values[0], bound=bound)
    else:
        if len(args.values) != 2:
            raise _UsageError("ack takes two integers: level and argument")
        value = games.ackermann(args.values[0], args.values[1], bound=bound)
    _emit(args, value, str(value))


# ------------------------------------------------------------- plumbing

def _int(flag):
    return (flag, {"type": int, "required": True})


def _str(flag):
    return (flag, {"required": True})


def _switch(flag):
    return (flag, {"action": "store_true"})


_STRANDS = _int("--strands")
_WORD = ("word", {})
_WORD2 = ("word2", {})
_RACK = _str("--rack")
_FORMAT = ("--format", {"choices": ["text", "json"], "default": "text"})
_FORMAT_CSV = ("--format", {"choices": ["csv", "json"], "default": "csv"})

# One row per subcommand: "noun verb" (or a bare noun), the schema name of
# its JSON envelope, its handler, and its arguments in the order they are
# added, which is the order usage and --help print them in.
COMMANDS = (
    ("laver table", "laver-table", _cmd_laver_table,
     (_int("--n"), _FORMAT_CSV)),
    ("laver period", "laver-period", _cmd_laver_period,
     (_int("--n"), _int("--p"), _FORMAT)),
    ("cocycle rank", "cocycle-rank", _cmd_cocycle_rank,
     (_RACK, ("--degree", {"type": int, "choices": (2, 3), "required": True}),
      _FORMAT)),
    ("cocycle basis", "cocycle-basis", _cmd_cocycle_basis,
     (_RACK, ("--degree", {"type": int, "default": 2}), _FORMAT_CSV)),
    ("cocycle psi", "cocycle-psi", _cmd_cocycle_psi,
     (_int("--n"), _int("--q"), _FORMAT_CSV)),
    ("braid nf", "braid-nf", _cmd_braid_nf, (_STRANDS, _WORD, _FORMAT)),
    ("braid eq", "braid-eq", _cmd_braid_eq,
     (_STRANDS, _WORD, _WORD2, _FORMAT)),
    ("order compare", "order-compare", _cmd_order_compare,
     (_STRANDS, _WORD, _WORD2, _FORMAT)),
    ("order rank3", "order-rank3", _cmd_order_rank3, (_WORD, _FORMAT)),
    ("order anf", "order-anf", _cmd_order_anf, (_STRANDS, _WORD, _FORMAT)),
    ("order floor", "order-floor", _cmd_order_floor,
     (_STRANDS, _WORD, _FORMAT)),
    ("ybe matrix", None, _cmd_ybe_matrix,
     (_RACK, ("--format", {"choices": ("coo", "csv"), "default": "coo"}))),
    ("ybe check", "ybe-check", _cmd_ybe_check, (_RACK, _FORMAT)),
    ("color count", "color-count", _cmd_color_count,
     (_RACK, _STRANDS, _WORD, _FORMAT)),
    ("color act", "color-act", _cmd_color_act,
     (_RACK, _str("--colors"), _WORD, _FORMAT)),
    ("color laver", "color-laver", _cmd_color_laver,
     (_int("--n"), _str("--mid"),
      ("--mode", {"choices": ("fraction", "delta"), "default": "fraction"}),
      _WORD, _FORMAT)),
    ("quandle present", "quandle-present", _cmd_quandle_present,
     (_STRANDS, _switch("--group"), _WORD, _FORMAT)),
    ("conj class", "conj-class", _cmd_conj_class, (_STRANDS, _WORD, _FORMAT)),
    ("conj mu", "conj-mu", _cmd_conj_mu, (_STRANDS, _WORD, _FORMAT)),
    ("conj sweep-conjecture", "conj-sweep", _cmd_conj_sweep,
     (_int("--maxlen"), _FORMAT)),
    # --cap and --bound default to None: the handler reads the library's
    # defaults, so building the parser does not import games
    ("game g3", "game-g3", _cmd_game_g3,
     (_WORD, _switch("--trace"), ("--cap", {"type": int}), _FORMAT)),
    ("ack", "ack", _cmd_ack,
     (("values", {"type": int, "nargs": "+"}), _switch("--diag"),
      ("--bound", {"type": int}), _FORMAT)),
)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser for every row of `COMMANDS`, built once per process."""
    parser = argparse.ArgumentParser(
        prog="ldlab",
        description="Laver tables, rack cohomology, Yang-Baxter matrices, "
                    "braid orders, games")
    top = parser.add_subparsers(dest="noun", required=True)
    verbs = {}
    for name, schema, fn, arguments in COMMANDS:
        noun, _, verb = name.partition(" ")
        if not verb:
            sub = top.add_parser(noun)
        else:
            if noun not in verbs:
                verbs[noun] = top.add_parser(noun).add_subparsers(
                    dest="verb", required=True)
            sub = verbs[noun].add_parser(verb)
        for flag, options in arguments:
            sub.add_argument(flag, **options)
        sub.set_defaults(fn=fn, schema=schema)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        args.fn(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (DomainError, ResourceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
