"""Laver tables and the one-generator tables they sit inside.

For every size N there is exactly one binary operation on {1, ..., N} with

    p * 1 = p + 1 mod N        (values kept in 1..N)

that is computed row by row from p = N down to p = 1 through

    p * q = (p * (q-1)) * (p + 1 mod N).

Row N is the identity row, and each row p < N only consults rows above it,
so the recurrence closes.  The resulting table is left self-distributive
exactly when N is a power of 2; those tables are the Laver tables A_n with
N = 2**n.  Rows of A_n are periodic: row p repeats with period pi(p), the
least q with p * q = 2**n, and the values before that point increase
strictly.  `LaverTable` stores just the prefix of each row up to its first
2**n, which keeps A_13 (2**26 entries when written out) in a few megabytes.
"""

from dataclasses import dataclass

from .errors import ResourceError, count, element, guard_alloc
from .magma import FiniteMagma, is_ld

DEFAULT_MAX_N = 13


def _dense_guard(N: int, what: str) -> None:
    # int64 python list storage is worse than this, but the guard only needs
    # to stop the clearly-too-big requests.
    guard_alloc(8 * N * N, what)


@dataclass(frozen=True)
class GeneralTable:
    """The unique size-N table built from the column-1 rule and the downward recurrence."""

    N: int
    _rows: tuple

    def op(self, p: int, q: int) -> int:
        return self._rows[element(p, self.N) - 1][element(q, self.N) - 1]

    def row(self, p: int) -> tuple:
        return self._rows[element(p, self.N) - 1]

    def dense(self) -> list:
        return [list(r) for r in self._rows]

    def as_magma(self):
        return FiniteMagma(self.N, self._rows, label=f"table:{self.N}")


@dataclass(frozen=True)
class LaverTable:
    """A_n on {1, ..., 2**n}, stored one periodic row prefix at a time."""

    n: int
    size: int
    periods: tuple
    _prefixes: tuple

    def op(self, p: int, q: int) -> int:
        prefix = self._prefixes[element(p, self.size) - 1]
        return prefix[(element(q, self.size) - 1) % len(prefix)]

    def row(self, p: int) -> list:
        """Full row p, length 2**n."""
        prefix = self._prefixes[element(p, self.size) - 1]
        reps = self.size // len(prefix)
        return list(prefix) * reps

    def dense(self) -> list:
        _dense_guard(self.size, f"dense table for A_{self.n}")
        return [self.row(p) for p in range(1, self.size + 1)]

    def as_magma(self):
        _dense_guard(self.size, f"magma copy of A_{self.n}")
        return FiniteMagma(self.size, tuple(tuple(self.row(p)) for p in range(1, self.size + 1)),
                           label=f"A_{self.n}")


def build_general_table(N: int) -> GeneralTable:
    """Fill the size-N table row by row from p = N down to 1."""
    count(N, 1, "table size")
    _dense_guard(N, f"general table of size {N}")
    rows: list = [None] * N
    # Row N only ever consults column 1, so it closes on its own:
    # N*1 = 1 and N*q = (N*(q-1)) + 1 mod N, giving the identity row.
    row = [0] * N
    row[0] = 1
    for q in range(2, N + 1):
        row[q - 1] = row[q - 2] % N + 1
    rows[N - 1] = tuple(row)
    for p in range(N - 1, 0, -1):
        c = p + 1  # p < N, so p+1 mod N is just p+1
        row = [0] * N
        row[0] = c
        for q in range(2, N + 1):
            r = row[q - 2]
            if r <= p:
                raise RuntimeError(f"fill for row {p} fell to row {r}; recurrence did not close")
            row[q - 1] = rows[r - 1][c - 1]
        rows[p - 1] = tuple(row)
    return GeneralTable(N, tuple(rows))


def build_laver_table(n: int, max_n: int = DEFAULT_MAX_N) -> LaverTable:
    """A_n via periodic row prefixes; n is capped (default 13) because the
    written-out table has 4**n entries."""
    count(n, 0, "n")
    if n > count(max_n, 0, "max_n"):
        raise ResourceError(f"n = {n} exceeds the size bound {max_n}")
    N = 1 << n
    prefixes: list = [None] * N
    # Row N is the identity row; its first 2**n appears at column N.
    prefixes[N - 1] = tuple(range(1, N + 1))
    for p in range(N - 1, 0, -1):
        c = p + 1
        vals = [c]
        v = vals[0]
        while v != N:
            prefix = prefixes[v - 1]
            v = prefix[(c - 1) % len(prefix)]
            if v <= vals[-1]:
                raise RuntimeError(f"row {p} of A_{n} stopped increasing at {v}")
            vals.append(v)
        prefixes[p - 1] = tuple(vals)
    periods = tuple(len(prefixes[p]) for p in range(N))
    return LaverTable(n, N, periods, tuple(prefixes))


def period(table: LaverTable, p: int) -> int:
    """pi_n(p): least q with p*q = 2**n."""
    return table.periods[element(p, table.size) - 1]


def project(n: int, x: int) -> int:
    """The projection A_n -> A_(n-1): x mod 2**(n-1), with 0 sent to 2**(n-1)."""
    half = 1 << (count(n, 1, "n") - 1)
    return (element(x, 1 << n) - 1) % half + 1


def period_doubling_check(n: int, max_n: int = DEFAULT_MAX_N) -> bool:
    """Every period either survives or doubles under the projection A_n -> A_(n-1)."""
    count(n, 1, "n")
    big = build_laver_table(n, max_n)
    small = build_laver_table(n - 1, max_n)
    for p in range(1, big.size + 1):
        down = period(small, project(n, p))
        if period(big, p) not in (down, 2 * down):
            return False
    return True


def left_powers(table, x: int, k: int) -> list:
    """[x, x*x, (x*x)*x, ...]: k left powers of x."""
    count(k, 1, "k")
    table.op(x, x)  # rejects an x outside the table, also when k == 1
    seq = [x]
    for _ in range(k - 1):
        seq.append(table.op(seq[-1], x))
    return seq


def is_ld_for_size(N: int) -> tuple:
    """(True, None) when the size-N table is left self-distributive, else
    (False, witness) with the lexicographically first failing triple."""
    return tuple(is_ld(build_general_table(N).as_magma()))
