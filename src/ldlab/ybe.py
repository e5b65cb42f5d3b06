"""Set-theoretic Yang-Baxter solutions, birack laws, and 0/1 matrix export.

A solution is the dense pair map rho over {1..m} x {1..m}; rho(a, b) =
(a |> b, a <| b) names the two extracted operations.  Pseudo-solutions
(non-bijective pair maps) are first-class: invertibility is a reported
property, never a precondition.
"""

from dataclasses import dataclass
from typing import NamedTuple, Optional, Tuple

from .errors import DomainError, count, element
from .magma import FiniteMagma, LawCheck


@dataclass(frozen=True)
class SetSolution:
    m: int
    pairs: tuple  # flat, index (a-1)*m + (b-1) holds rho(a, b)

    def __post_init__(self):
        count(self.m, 1, "carrier size")
        if len(self.pairs) != self.m * self.m:
            raise DomainError(f"pair map must have {self.m * self.m} entries, got {len(self.pairs)}")
        for entry in self.pairs:
            if len(entry) != 2:
                raise DomainError(f"pair map entry {entry!r} is not a pair")
            for v in entry:
                element(v, self.m, "pair map value")

    def rho(self, a: int, b: int) -> Tuple[int, int]:
        return self.pairs[(element(a, self.m) - 1) * self.m + element(b, self.m) - 1]

    def _coordinate_op(self, k: int) -> FiniteMagma:
        m = self.m
        return FiniteMagma(m, tuple(tuple(p[k] for p in self.pairs[i:i + m])
                                    for i in range(0, m * m, m)))

    def left_op(self) -> FiniteMagma:
        """The operation a |> b, the first coordinate of rho(a, b)."""
        return self._coordinate_op(0)

    def right_op(self) -> FiniteMagma:
        """The operation a <| b, the second coordinate of rho(a, b)."""
        return self._coordinate_op(1)


def rack_to_solution(M: FiniteMagma) -> SetSolution:
    """rho(a, b) = (a*b, a); the LD law is not verified here."""
    m = M.m
    pairs = tuple((M.op[a - 1][b - 1], a)
                  for a in range(1, m + 1) for b in range(1, m + 1))
    return SetSolution(m, pairs)


def ops_to_solution(op1: FiniteMagma, op2: FiniteMagma) -> SetSolution:
    """Reassemble rho(a, b) = (a op1 b, a op2 b) from the two operations."""
    if op1.m != op2.m:
        raise DomainError(f"carrier sizes differ: {op1.m} vs {op2.m}")
    m = op1.m
    pairs = tuple((op1.op[a - 1][b - 1], op2.op[a - 1][b - 1])
                  for a in range(1, m + 1) for b in range(1, m + 1))
    return SetSolution(m, pairs)


def solution_ops(rho: SetSolution) -> Tuple[FiniteMagma, FiniteMagma]:
    return rho.left_op(), rho.right_op()


def switch_solution(m: int) -> SetSolution:
    """rho(a, b) = (b, a)."""
    count(m, 1, "carrier size")
    pairs = tuple((b, a) for a in range(1, m + 1) for b in range(1, m + 1))
    return SetSolution(m, pairs)


def identity_solution(m: int) -> SetSolution:
    count(m, 1, "carrier size")
    pairs = tuple((a, b) for a in range(1, m + 1) for b in range(1, m + 1))
    return SetSolution(m, pairs)


def first_projection(m: int) -> FiniteMagma:
    """The trivial operation a op b = a."""
    count(m, 1, "carrier size")
    rows = tuple(tuple(a for _ in range(m)) for a in range(1, m + 1))
    return FiniteMagma(m, rows, label="proj1")


def _braid_equation_failure(rho: SetSolution) -> Optional[Tuple[int, tuple]]:
    """(k, (a, b, c)) for the first triple where the two composites split,
    k the first of their three coordinates that differs; None when none do."""
    m = rho.m
    P = rho.pairs
    # rows[a][b] = rho(a, b), 1-based through a dummy entry in front
    rows = [()] + [(None,) + P[i:i + m] for i in range(0, m * m, m)]
    for a in range(1, m + 1):
        ra = rows[a]
        for b in range(1, m + 1):
            u1, u2 = ra[b]                      # rho^12: (u1, u2, c)
            r_u1, r_u2, rb = rows[u1], rows[u2], rows[b]
            for c in range(1, m + 1):
                v1, v2 = r_u2[c]                # rho^23 rho^12: (u1, v1, v2)
                w1, w2 = r_u1[v1]               # left side: (w1, w2, v2)
                p1, p2 = rb[c]                  # rho^23: (a, p1, p2)
                q1, q2 = ra[p1]                 # rho^12 rho^23: (q1, q2, p2)
                s1, s2 = rows[q2][p2]           # right side: (q1, s1, s2)
                if w1 != q1 or w2 != s1 or v2 != s2:
                    return (1 if w1 != q1 else 2 if w2 != s1 else 3), (a, b, c)
    return None


def satisfies_braid_equation(rho: SetSolution) -> LawCheck:
    """rho^12 rho^23 rho^12 = rho^23 rho^12 rho^23 on every triple.

    rho^12 acts on the first two coordinates, rho^23 on the last two.
    The witness is the first triple (a, b, c) where the composites split.
    """
    failure = _braid_equation_failure(rho)
    return LawCheck(True, None) if failure is None else LawCheck(False, failure[1])


def is_invertible(rho: SetSolution) -> bool:
    """The pair map is a bijection of the m^2 pairs."""
    return len(set(rho.pairs)) == rho.m * rho.m


class BirackCheck(NamedTuple):
    ok: bool
    failure: Optional[str]
    witness: Optional[tuple]

    def __bool__(self) -> bool:
        return self.ok


def birack_laws_check(op1: FiniteMagma, op2: FiniteMagma) -> BirackCheck:
    """The three exchange laws plus the two translation-bijectivity demands.

    op1 is |> (first output), op2 is <| (second output).  Exchange laws,
    each on all triples (x, y, z):

      1. (x|>y) |> ((x<|y) |> z)  =  x |> (y|>z)
      2. (x|>y) <| ((x<|y) |> z)  =  (x <| (y|>z)) |> (y<|z)
      3. (x<|y) <| z              =  (x <| (y|>z)) <| (y<|z)

    Exchange law k is coordinate k of the braid equation for
    rho(x, y) = (x|>y, x<|y), so the braid-equation scan checks them.  Then
    every left translation of |> and every right translation of <| must be
    one-to-one.  The first failure is reported by name.
    """
    failure = _braid_equation_failure(ops_to_solution(op1, op2))
    if failure is not None:
        k, triple = failure
        return BirackCheck(False, f"exchange-{k}", triple)
    for x, row in enumerate(op1.op, start=1):
        repeat = _first_repeat(row)
        if repeat:
            return BirackCheck(False, "left-translations", (x,) + repeat)
    for y, col in enumerate(zip(*op2.op), start=1):
        repeat = _first_repeat(col)
        if repeat:
            return BirackCheck(False, "right-translations", repeat + (y,))
    return BirackCheck(True, None, None)


def _first_repeat(line) -> Optional[Tuple[int, int]]:
    """(i, j), 1-based, for the first position j whose value is at i < j."""
    seen = {}
    for j, v in enumerate(line, start=1):
        if v in seen:
            return seen[v], j
        seen[v] = j
    return None


def exchange_laws_hold(op1: FiniteMagma, op2: FiniteMagma) -> bool:
    """The three exchange laws alone, without the bijectivity demands."""
    return _braid_equation_failure(ops_to_solution(op1, op2)) is None


def matrix_entries(rho: SetSolution) -> tuple:
    """(row, col) positions of the ones, 1-based, in column order.

    Pair (a, b) gets index (a-1)*m + b, first coordinate slowest; the
    column is the input pair, the row its image, so every column carries
    exactly one entry and the total count is m^2.
    """
    m = rho.m
    return tuple(((c - 1) * m + d, i) for i, (c, d) in enumerate(rho.pairs, start=1))


def dense_matrix(rho: SetSolution) -> tuple:
    """The full m^2 x m^2 0/1 matrix as a tuple of row tuples."""
    size = rho.m * rho.m
    rows = [[0] * size for _ in range(size)]
    for r, c in matrix_entries(rho):
        rows[r - 1][c - 1] = 1
    return tuple(tuple(row) for row in rows)


def export_matrix(rho: SetSolution, fmt: str = "coo") -> str:
    """Render the matrix; "coo" gives lines "row col 1", "csv" dense rows."""
    if fmt == "coo":
        return "\n".join(f"{r} {c} 1" for r, c in matrix_entries(rho))
    if fmt == "csv":
        return "\n".join(",".join(str(v) for v in row) for row in dense_matrix(rho))
    raise DomainError(f"unknown matrix format {fmt!r}, expected coo or csv")
