"""Finite binary systems, law checks with witnesses, and the standard rack families.

Tables are tuples of rows; entries are 1-based elements of {1, ..., m}.
Law checks return a `LawCheck`, which is truthy/falsy and carries the first
failing instance when there is one, so `assert is_ld(M)` and
`is_ld(M).witness` both work.
"""

from dataclasses import dataclass, field
from math import gcd
from operator import itemgetter
from typing import NamedTuple, Optional

from .errors import AmbiguousInverseError, DomainError, _is_int, count, element


class LawCheck(NamedTuple):
    ok: bool
    witness: Optional[tuple]

    def __bool__(self) -> bool:
        return self.ok


@dataclass(frozen=True)
class FiniteMagma:
    m: int
    op: tuple
    label: Optional[str] = field(default=None, compare=False)

    def __post_init__(self):
        count(self.m, 1, "carrier size")
        if len(self.op) != self.m or any(len(row) != self.m for row in self.op):
            raise DomainError(f"operation table must be {self.m}x{self.m}")
        for row in self.op:
            for v in row:
                element(v, self.m, "table entry")

    def mul(self, a: int, b: int) -> int:
        return self.op[element(a, self.m) - 1][element(b, self.m) - 1]

    def elements(self) -> range:
        return range(1, self.m + 1)


def from_rows(rows, label: Optional[str] = None) -> FiniteMagma:
    return FiniteMagma(len(rows), tuple(tuple(r) for r in rows), label=label)


def is_ld(M: FiniteMagma) -> LawCheck:
    """Left self-distributivity x*(y*z) = (x*y)*(x*z); the witness is the
    lexicographically first failing (x, y, z).

    Each pair (x, y) compares both sides over every z at once: the getter of
    row y applied to row x gives x*(y*z), and the getter of row x applied to
    row x*y gives (x*y)*(x*z).
    """
    op = M.op
    # at m = 1 the getters return single values, which always agree: the one
    # 1-element table is LD
    gets = [itemgetter(*[v - 1 for v in row]) for row in op]
    for x, (rx, gx) in enumerate(zip(op, gets), 1):
        for y, (xy, gy) in enumerate(zip(rx, gets), 1):
            lhs, rhs = gy(rx), gx(op[xy - 1])
            if lhs != rhs:
                z = next(z for z, (a, b) in enumerate(zip(lhs, rhs), 1) if a != b)
                return LawCheck(False, (x, y, z))
    return LawCheck(True, None)


def is_left_cancellative(M: FiniteMagma) -> bool:
    """Every row is injective (left translations are one-to-one)."""
    return all(len(set(row)) == M.m for row in M.op)


def is_rack(M: FiniteMagma) -> bool:
    """Left self-distributive with bijective left translations."""
    return is_left_cancellative(M) and bool(is_ld(M))


def is_quandle(M: FiniteMagma) -> bool:
    """A rack that is idempotent: x*x = x."""
    return is_rack(M) and all(M.op[x][x] == x + 1 for x in range(M.m))


def satisfies_rump_law(M: FiniteMagma) -> LawCheck:
    """(x*y)*(x*z) = (y*x)*(y*z)."""
    op = M.op
    for x in range(1, M.m + 1):
        rx = op[x - 1]
        for y in range(1, M.m + 1):
            ry = op[y - 1]
            rxy = op[rx[y - 1] - 1]
            ryx = op[ry[x - 1] - 1]
            for z in range(1, M.m + 1):
                if rxy[rx[z - 1] - 1] != ryx[ry[z - 1] - 1]:
                    return LawCheck(False, (x, y, z))
    return LawCheck(True, None)


def left_inverse_op(M: FiniteMagma, a: int, b: int) -> Optional[int]:
    """The c with a*c = b, None when absent; several solutions raise."""
    row = M.op[element(a, M.m) - 1]
    element(b, M.m)
    hits = [c for c in range(1, M.m + 1) if row[c - 1] == b]
    if not hits:
        return None
    if len(hits) > 1:
        raise AmbiguousInverseError(f"{a} \\ {b} has {len(hits)} solutions: {hits}")
    return hits[0]


def dihedral_quandle(k: int) -> FiniteMagma:
    """a*b = 2a - b mod k on {1, ..., k}."""
    count(k, 1, "k")
    rows = tuple(tuple((2 * a - b - 1) % k + 1 for b in range(1, k + 1)) for a in range(1, k + 1))
    return FiniteMagma(k, rows, label=f"dihedral:{k}")


def affine_quandle(m: int, t: int) -> FiniteMagma:
    """a*b = (1-t)a + tb mod m; t must be a unit mod m."""
    count(m, 1, "m")
    if not _is_int(t) or gcd(t % m, m) != 1:
        raise DomainError(f"t = {t} is not invertible mod {m}")
    rows = tuple(tuple(((1 - t) * a + t * b - 1) % m + 1 for b in range(1, m + 1))
                 for a in range(1, m + 1))
    return FiniteMagma(m, rows, label=f"affine:{m}:{t}")


def _check_group(rows: tuple) -> int:
    """Validate a group table; return the identity element."""
    m = len(rows)
    idents = [e for e in range(1, m + 1)
              if all(rows[e - 1][x - 1] == x and rows[x - 1][e - 1] == x for x in range(1, m + 1))]
    if len(idents) != 1:
        raise DomainError("table has no two-sided identity")
    e = idents[0]
    for a in range(1, m + 1):
        if e not in rows[a - 1]:
            raise DomainError(f"element {a} has no right inverse")
    for a in range(1, m + 1):
        for b in range(1, m + 1):
            ab = rows[a - 1][b - 1]
            for c in range(1, m + 1):
                if rows[ab - 1][c - 1] != rows[a - 1][rows[b - 1][c - 1] - 1]:
                    raise DomainError(f"associativity fails at ({a}, {b}, {c})")
    return e


def conjugation_rack(group_rows) -> FiniteMagma:
    """a*b = a b a^{-1} in a finite group given by its multiplication table."""
    rows = tuple(tuple(r) for r in group_rows)
    m = len(rows)
    probe = FiniteMagma(m, rows)  # range validation
    e = _check_group(probe.op)
    inv = [0] * (m + 1)
    for a in range(1, m + 1):
        for b in range(1, m + 1):
            if rows[a - 1][b - 1] == e:
                inv[a] = b
    conj = tuple(tuple(rows[rows[a - 1][b - 1] - 1][inv[a] - 1] for b in range(1, m + 1))
                 for a in range(1, m + 1))
    return FiniteMagma(m, conj, label="conj")


def left_translation_table(M: FiniteMagma) -> Optional[FiniteMagma]:
    """The magma of the inverted rows (a \\ b), when every row is bijective."""
    if not is_left_cancellative(M):
        return None
    rows = []
    for a in range(1, M.m + 1):
        row = [0] * M.m
        for c in range(1, M.m + 1):
            row[M.op[a - 1][c - 1] - 1] = c
        rows.append(tuple(row))
    return FiniteMagma(M.m, tuple(rows), label=None)


def parse_rack_spec(text: str) -> FiniteMagma:
    """Build a table from a spec string: dihedral:<k>, affine:<m>:<t>,
    laver:<n>, or file:<path.csv> (a CSV m-by-m table)."""
    head, _, rest = text.partition(":")
    # only the int() calls sit in the try: the constructors raise DomainError,
    # a ValueError, whose message must not turn into "non-integer"
    try:
        if head == "affine":
            m, _, t = rest.partition(":")
            params = (int(m), int(t))
        elif head in ("dihedral", "laver"):
            params = (int(rest),)
    except ValueError:
        raise DomainError(f"non-integer parameter in rack spec {text!r}") from None
    if head == "dihedral":
        return dihedral_quandle(*params)
    if head == "affine":
        return affine_quandle(*params)
    if head == "laver":
        from . import laver

        return laver.build_laver_table(*params).as_magma()
    if head == "file":
        import csv

        try:
            with open(rest, newline="") as fh:
                rows = [tuple(int(v) for v in row) for row in csv.reader(fh) if row]
        except OSError as exc:
            raise DomainError(f"cannot read rack table {rest!r}: {exc}") from None
        except ValueError:
            raise DomainError(f"non-integer entry in rack table {rest!r}") from None
        return from_rows(rows, label=f"file:{rest}")
    raise DomainError(
        f"unknown rack spec {text!r}; expected dihedral:<k>, affine:<m>:<t>, "
        "laver:<n>, or file:<path.csv>")


@dataclass(frozen=True)
class QuandleTerm:
    """A formal term over generators x1..xm under * and the left-division bar \\."""

    kind: str  # "gen", "op", "bar"
    gen: int = 0
    left: Optional["QuandleTerm"] = None
    right: Optional["QuandleTerm"] = None

    def __post_init__(self):
        if self.kind == "gen":
            count(self.gen, 1, "generator index")
        elif self.kind in ("op", "bar"):
            if self.left is None or self.right is None:
                raise DomainError(f"{self.kind} term needs two children")
        else:
            raise DomainError(f"unknown term kind {self.kind!r}")

    def render(self, names: Optional[list] = None) -> str:
        if self.kind == "gen":
            if names is not None:
                return names[self.gen - 1]
            return _gen_name(self.gen)
        sym = "*" if self.kind == "op" else "\\"
        return f"({self.left.render(names)} {sym} {self.right.render(names)})"

    def evaluate(self, M: FiniteMagma, values: list) -> int:
        """Value in M when generator i is sent to values[i-1]."""
        if self.kind == "gen":
            return values[self.gen - 1]
        a = self.left.evaluate(M, values)
        b = self.right.evaluate(M, values)
        if self.kind == "op":
            return M.mul(a, b)
        c = left_inverse_op(M, a, b)
        if c is None:
            raise DomainError(f"{a} \\ {b} undefined in this table")
        return c


def _gen_name(i: int) -> str:
    if i <= 26:
        return chr(ord("a") + i - 1)
    return f"x{i}"


def gen(i: int) -> QuandleTerm:
    return QuandleTerm("gen", gen=i)


def op_term(left: QuandleTerm, right: QuandleTerm) -> QuandleTerm:
    return QuandleTerm("op", left=left, right=right)


def bar_term(left: QuandleTerm, right: QuandleTerm) -> QuandleTerm:
    return QuandleTerm("bar", left=left, right=right)
