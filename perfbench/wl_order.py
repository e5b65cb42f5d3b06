"""order: the Dehornoy order, ordinal ranks and the G3 game.

Per round: every ordered pair within each of several seeded groups of
BP_3 and BP_4 braids (one braid per length stratum) through
compare_flipped, compare_D on seeded signed words (both directions, a
common left factor, a sigma-positive word against the empty word, a word
against itself with one positive letter inserted), rank_bp3 and
alternating_normal_form on the samples, d_floor on seeded words and on the
same words times Delta^2, and G3 games.  Sample lengths are fixed strata;
the seed picks the letters.
"""

import random
from functools import partial
from types import SimpleNamespace

from ldlab import braid as br
from ldlab import games, order

import oracles

TAIL_PERCENTILE = 95

# (strands, lengths, groups): each group holds one braid per length.  Many
# small groups spread the pairs over many distinct braids.
GROUPS = ((3, (2, 4, 6, 8, 10), 12), (4, (2, 4, 6, 8), 8))
# The cost of compare_D grows with the number of inverse letters (each one
# costs a Delta^2 in the central shift), so signed words have a fixed
# length and a fixed number of inverse letters per strand count.
COMPARE_D_CASES = ((3, 20, (4, 2)), (4, 10, (3, 1)))   # (strands, cases, (length, inverses))
# (strands, words).  Only 3 strands: on 4 the cost swings tenfold with the floor.
D_FLOOR_WORDS = ((3, 10),)
G3_WORDS = 12
G3_CAP = 10 ** 15
LONG_GAME = ((1, 1, 2, 2, 1, 1), 90159953477630)

# Published ranks of the positive 3-braids with the given alternating normal words.
RANK_TABLE = (
    ((), "0"), ((1,), "1"), ((1, 1), "2"), ((2,), "w"), ((2, 1), "w+1"),
    ((2, 1, 1), "w+2"), ((2, 2), "w*2"), ((2, 2, 1), "w*2+1"),
    ((2, 2, 1, 1), "w*2+2"), ((2, 2, 2), "w*3"), ((2, 2, 2, 1), "w*3+1"),
    ((2, 2, 2, 1, 1), "w*3+2"), ((1, 2), "w^2"), ((1, 2, 1), "w^2+1"),
    ((1, 2, 1, 1), "w^2+2"), ((1, 2, 2), "w^2+w"), ((1, 2, 2, 1), "w^2+w+1"),
    ((1, 2, 2, 1, 1), "w^2+w+2"), ((1, 1, 2), "w^2*2"), ((1, 1, 2, 1), "w^2*2+1"),
    ((1, 1, 2, 1, 1), "w^2*2+2"), ((1, 1, 2, 2), "w^2*2+w"),
    ((1, 1, 2, 2, 1), "w^2*2+w+1"), ((1, 1, 2, 2, 1, 1), "w^2*2+w+2"),
    ((1, 1, 2, 2, 2), "w^2*2+w*2"), ((1, 1, 2, 2, 2, 1), "w^2*2+w*2+1"),
    ((1, 1, 2, 2, 2, 2), "w^2*2+w*3"), ((1, 1, 2, 2, 2, 2, 1), "w^2*2+w*3+1"),
    ((1, 1, 2, 2, 2, 2, 1, 1), "w^2*2+w*3+2"), ((1, 1, 1, 2), "w^2*3"),
    ((1, 1, 1, 2, 1), "w^2*3+1"), ((1, 1, 1, 2, 2), "w^2*3+w"),
    ((1, 1, 1, 2, 2, 1), "w^2*3+w+1"), ((2, 1, 1, 2), "w^3"),
    ((2, 1, 1, 2, 1), "w^3+1"), ((2, 1, 1, 2, 1, 1), "w^3+2"),
)


def _positive(rng, n, length):
    return tuple(rng.randint(1, n - 1) for _ in range(length))


def _signed(rng, n, length, inverses):
    signs = [-1] * inverses + [1] * (length - inverses)
    rng.shuffle(signs)
    return tuple(sign * rng.randint(1, n - 1) for sign in signs)


def _sigma_positive(rng, n, length):
    """A sigma_i-positive word: sigma_i positive at least once, nothing lower."""
    i = rng.randint(1, n - 1)
    body = [rng.choice((1, -1)) * rng.randint(i + 1, n - 1) if i < n - 1 else i
            for _ in range(length - 1)]
    body.insert(rng.randint(0, len(body)), i)
    return tuple(body)


def render(terms):
    parts = []
    for k, c in terms:
        head = "" if k == 0 else "w" if k == 1 else f"w^{k}"
        parts.append(str(c) if k == 0 else head if c == 1 else f"{head}*{c}")
    return "+".join(parts) or "0"


def setup(seed):
    rng = random.Random(seed)
    s = SimpleNamespace()
    s.groups = []        # (strands, [(word, braid), ...])
    for n, lengths, count in GROUPS:
        for _ in range(count):
            words = [_positive(rng, n, L) for L in lengths]
            s.groups.append((n, [(w, br.from_word(br.BraidWord(n, w))) for w in words]))
    s.compare_d = []     # (strands, relation tag, u, v)
    shape = {}
    for n, cases, (length, inverses) in COMPARE_D_CASES:
        shape[n] = (length, inverses)
        for _ in range(cases):
            u, v, x = (_signed(rng, n, length, inverses) for _ in range(3))
            c = _signed(rng, n, 2, 1)
            pos = _sigma_positive(rng, n, length)
            k = rng.randint(0, len(x))
            grown = x[:k] + (rng.randint(1, n - 1),) + x[k:]
            s.compare_d += [(n, "uv", u, v), (n, "vu", v, u), (n, "cu-cv", c + u, c + v),
                            (n, "pos", pos, ()), (n, "sub", x, grown)]
    s.floors = []
    for n, count in D_FLOOR_WORDS:
        for _ in range(count):
            w = _signed(rng, n, *shape[n])
            s.floors += [(n, w), (n, oracles.delta_letters(n) * 2 + w)]
    s.games = [_positive(rng, 3, rng.randint(3, 6)) for _ in range(G3_WORDS)]
    s.games.append(LONG_GAME[0])
    s.game_states = [games.g3_start(br.BraidWord(3, w)) for w in s.games]
    s.d_words = [(n, br.BraidWord(n, u), br.BraidWord(n, v)) for n, _, u, v in s.compare_d]
    s.floor_words = [(n, br.BraidWord(n, w)) for n, w in s.floors]
    return s


def calls(s, tracer=None):
    out = []
    for n, group in s.groups:
        for i, (_, bi) in enumerate(group):
            for j, (_, bj) in enumerate(group):
                if i != j:
                    out.append(partial(order.compare_flipped, bi, bj, n))
    out += [partial(order.rank_bp3, b) for n, group in s.groups if n == 3 for _, b in group]
    out += [partial(order.alternating_normal_form, b, n)
            for n, group in s.groups for _, b in group]
    out += [partial(order.compare_D, u, v, n) for n, u, v in s.d_words]
    out += [partial(order.d_floor, w, n) for n, w in s.floor_words]
    out += [partial(games.g3_run, st, G3_CAP) for st in s.game_states]
    return out


def check(s, outs):
    errors = []
    it = iter(outs)
    rel = {}             # (group, i, j) -> relation
    for g, (n, group) in enumerate(s.groups):
        k = len(group)
        for i in range(k):
            for j in range(k):
                if i != j:
                    rel[g, i, j] = next(it)
        for i in range(k):
            for j in range(k):
                if i == j:
                    continue
                r = rel[g, i, j]
                if r != {"<": ">", ">": "<", "=": "="}[rel[g, j, i]]:
                    errors.append(f"compare_flipped not antisymmetric in group {g}")
                if (r == "=") != oracles.same_braid(group[i][0], group[j][0], n):
                    errors.append(f"compare_flipped '=' disagrees with the Artin action "
                                  f"on {group[i][0]} vs {group[j][0]}")
        # A relation induced by an integer key is transitive and total.
        below = [sum(rel[g, i, j] == ">" for j in range(k) if j != i) for i in range(k)]
        for i in range(k):
            for j in range(k):
                if i != j and rel[g, i, j] != oracles.cnf_cmp((below[i],), (below[j],)):
                    errors.append(f"compare_flipped not transitive in group {g}")
    for g, (n, group) in enumerate(s.groups):
        if n != 3:
            continue
        ranks = [next(it) for _ in group]
        for i in range(len(ranks)):
            for j in range(len(ranks)):
                if i != j and oracles.cnf_cmp(ranks[i].terms, ranks[j].terms) != rel[g, i, j]:
                    errors.append(f"rank_bp3 does not preserve the order in group {g}")
    for n, group in s.groups:
        for w, _ in group:
            anf = next(it).letters
            if (any(x < 0 for x in anf) or len(anf) != len(w)
                    or not oracles.same_braid(anf, w, n)):
                errors.append(f"alternating_normal_form of {w} is {anf}")
    d_out = {}
    for (n, tag, u, v), r in zip(s.compare_d, it):
        d_out.setdefault((n, tag), []).append((u, v, r))
    for n, _, _ in COMPARE_D_CASES:
        for (u, v, r), (_, _, r_vu), (_, _, r_c) in zip(d_out[n, "uv"], d_out[n, "vu"],
                                                        d_out[n, "cu-cv"]):
            if r != {"<": ">", ">": "<", "=": "="}[r_vu]:
                errors.append(f"compare_D not antisymmetric on {u}, {v}")
            if r_c != r:
                errors.append(f"compare_D not left-invariant on {u}, {v}")
            if (r == "=") != oracles.same_braid(u, v, n):
                errors.append(f"compare_D '=' disagrees with the Artin action on {u}, {v}")
        for u, _, r in d_out[n, "pos"]:
            if not oracles.sigma_positive(u) or r != ">":
                errors.append(f"sigma-positive {u} does not compare above 1")
        for u, v, r in d_out[n, "sub"]:
            if r != "<":
                errors.append(f"subword property fails: {u} vs {v} gave {r}")
    floors = [next(it) for _ in s.floors]
    for k in range(0, len(floors), 2):
        if floors[k + 1] != floors[k] + 1:
            errors.append(f"d_floor(Delta^2 w) != d_floor(w) + 1 for {s.floors[k][1]}")
    for w, st in zip(s.games, s.game_states):
        res = next(it)
        if (res.exponents, res.t, res.steps) != oracles.g3_play(st.exponents, G3_CAP):
            errors.append(f"g3_run from {w} disagrees with the game rules")
    if not res.is_trivial or res.steps != LONG_GAME[1]:
        errors.append(f"the game from {LONG_GAME[0]} does not take {LONG_GAME[1]} steps")
    for letters, text in RANK_TABLE:
        got = render(order.rank_bp3(br.BraidWord(3, letters)).terms)
        if got != text:
            errors.append(f"rank of {letters} is {got}, published {text}")
    return errors
