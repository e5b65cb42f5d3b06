"""racks: Laver tables, law checks, rack cohomology and colouring counts.

Never touches braid normal forms.  Set-up builds A_0..A_13 and the tables.
Per round: build_laver_table(13); is_ld and satisfies_braid_equation on
Laver, dihedral, affine, seeded permutation-rack and seeded random tables;
cocycle_space in degrees 2 and 3; count_closure_colourings on seeded braid
words.  Table sizes are fixed; the seed picks permutations, affine
multipliers, random entries and braid words.
"""

import random
from functools import partial
from types import SimpleNamespace
from math import gcd

from ldlab import homology, invariants, laver, magma, ybe

import oracles

TAIL_PERCENTILE = 99

MAX_N = 13
LAVER_LAW_N = (1, 2, 3, 4, 5)
DIHEDRAL = (5, 9, 15, 27)
AFFINE = (7, 11, 13)
PERMUTATION = (12, 20, 28)
RANDOM = (6, 8, 10, 12)
# (table, degree); "perm4" and "affine5" are seeded.
COCYCLES = (("A1", 2), ("A2", 2), ("A3", 2), ("A4", 2), ("A1", 3), ("A2", 3),
            ("D3", 2), ("D3", 3), ("D5", 2), ("D5", 3), ("affine5", 2), ("perm4", 2),
            ("perm4", 3))
# (table, strands, word length)
COLOURINGS = (("D3", 3, 8), ("D3", 4, 6), ("D5", 3, 8), ("D5", 4, 6),
              ("affine7", 3, 6), ("perm6", 3, 6))


def _permutation_rack(rng, m):
    """x*y = pi(y): left distributive for every permutation pi."""
    pi = list(range(1, m + 1))
    rng.shuffle(pi)
    return magma.from_rows([pi] * m, label=f"perm:{m}")


def _unit(rng, m):
    return rng.choice([t for t in range(2, m) if gcd(t, m) == 1])


def setup(seed):
    rng = random.Random(seed)
    s = SimpleNamespace()
    s.laver = [laver.build_laver_table(n) for n in range(MAX_N + 1)]
    tables = {f"A{n}": s.laver[n].as_magma() for n in LAVER_LAW_N}
    tables.update({f"D{k}": magma.dihedral_quandle(k) for k in DIHEDRAL + (3,)})
    tables.update({f"affine{m}": magma.affine_quandle(m, _unit(rng, m))
                   for m in AFFINE + (5,)})
    tables.update({f"perm{m}": _permutation_rack(rng, m) for m in PERMUTATION + (4, 6)})
    tables.update({f"random{m}": magma.from_rows(
        [[rng.randint(1, m) for _ in range(m)] for _ in range(m)]) for m in RANDOM})
    s.tables = tables
    s.law_names = ([f"A{n}" for n in LAVER_LAW_N] + [f"D{k}" for k in DIHEDRAL]
                   + [f"affine{m}" for m in AFFINE] + [f"perm{m}" for m in PERMUTATION]
                   + [f"random{m}" for m in RANDOM])
    s.solutions = [ybe.rack_to_solution(tables[name]) for name in s.law_names]
    s.colour_words = [
        (name, strands, tuple(rng.choice((1, -1)) * rng.randint(1, strands - 1)
                              for _ in range(length)))
        for name, strands, length in COLOURINGS]
    return s


def calls(s, tracer=None):
    out = [partial(laver.build_laver_table, MAX_N)]
    for name, rho in zip(s.law_names, s.solutions):
        out.append(partial(magma.is_ld, s.tables[name]))
        out.append(partial(ybe.satisfies_braid_equation, rho))
    out += [partial(homology.cocycle_space, s.tables[name], degree)
            for name, degree in COCYCLES]
    out += [partial(invariants.count_closure_colourings, s.tables[name], word, strands)
            for name, strands, word in s.colour_words]
    return out


def check(s, outs):
    errors = []
    for n, table in enumerate(s.laver):
        if n <= 10 and table.periods[0] != oracles.ROW1_PERIODS[n]:
            errors.append(f"row-1 period of A_{n} is {table.periods[0]}")
        if n <= 6 and table.dense() != oracles.laver_rows(1 << n):
            errors.append(f"A_{n} differs from the Laver recurrence")
    it = iter(outs)
    if next(it) != s.laver[MAX_N]:
        errors.append(f"build_laver_table({MAX_N}) differs from the set-up copy")
    for name in s.law_names:
        ld, yb = next(it), next(it)
        rows = [list(r) for r in s.tables[name].op]
        if bool(ld) != oracles.is_ld(rows):
            errors.append(f"is_ld on {name} says {bool(ld)}")
        if bool(yb) != bool(ld):
            errors.append(f"braid equation on {name} says {bool(yb)}, LD says {bool(ld)}")
        if name.startswith(("A", "D", "affine", "perm")) and not ld:
            errors.append(f"{name} should be left distributive")
    for name, degree in COCYCLES:
        rank, basis = next(it)
        M = s.tables[name]
        rows = [list(r) for r in M.op]
        constraints = oracles.cocycle_rows(rows, degree)
        if rank != oracles.rational_nullity(constraints, M.m ** degree):
            errors.append(f"degree-{degree} cocycle rank of {name} is {rank}, "
                          "not the rational nullity")
        if name.startswith("A"):
            n = int(name[1:])
            want = 2 ** n if degree == 2 else 2 ** (2 * n) - 2 ** n + 1
            if rank != want:
                errors.append(f"degree-{degree} cocycle rank of A_{n} is {rank}, not {want}")
        law = homology.is_two_cocycle if degree == 2 else homology.is_three_cocycle
        for f in basis:
            if not law(f, M) or not oracles.satisfies_rows(constraints, f.values):
                errors.append(f"a degree-{degree} basis cochain of {name} is no cocycle")
                break
    for name, strands, word in s.colour_words:
        rows = [list(r) for r in s.tables[name].op]
        got, want = next(it), oracles.colourings(rows, word, strands)
        if got != want:
            errors.append(f"{got} colourings of {word} by {name}, brute force gives {want}")
    return errors
