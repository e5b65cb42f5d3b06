"""Chain complexes of a finite binary system and the small cocycle spaces.

Chains in degree k are finite Z-combinations of k-tuples over {1, ..., m},
stored as {tuple: coefficient}; the degree-0 module is Z on the empty
tuple.  Two families of face maps act on tuple generators:

    d*_i (x_1, ..., x_k) = (x_1, ..., x_{i-1}, x_i*x_{i+1}, ..., x_i*x_k)
    d0_i (x_1, ..., x_k) = (x_1, ..., x_{i-1}, x_{i+1}, ..., x_k)

with alternating-sign boundaries del* = sum (-1)^(i-1) d*_i, del0 likewise,
and the two-term (rack) boundary delR = del* - del0.  In degree 2 this
gives delR(x, y) = (x*y) - (y), whose dual produces the usual 2-cocycle
rule f(x,z) + f(x*y, x*z) = f(y,z) + f(x, y*z).

Cochain spaces are handled exactly over Z: two_cocycle_space returns a
saturated basis of the kernel lattice, so its length is the honest rank.

`_cocycle_constraints` is the one coboundary matrix, the dual of delR,
built by the recursion delR(x, r) = [x.r] - [r] - x delR(r).  Its readers:
`cocycle_space` passes the non-empty rows to the kernel, `_coboundary_values`
pairs a cochain with every row (the one pairing loop), which `coboundary_of`
collects and the cocycle checks scan for the first non-zero tuple, and
`coboundary_preimage` reads its columns from the rows one degree down.
`boundary` stays as the chain-level map; tests check the rows against it.
"""

from dataclasses import dataclass
from itertools import product
from typing import Dict, List, Optional, Tuple

from . import linalg
from .errors import DomainError, count, element, guard_alloc
from .magma import FiniteMagma, LawCheck

Chain = Dict[tuple, int]

_KINDS = ("*", "0")


def _check_tuple(m: int, tup: tuple) -> tuple:
    for x in tup:
        element(x, m, "entry")
    return tup


def face_op(M: FiniteMagma, kind: str, i: int, tup: tuple) -> tuple:
    """The i-th face (1-based) of a k-tuple, kind '*' or '0'."""
    if kind not in _KINDS:
        raise DomainError(f"face kind must be one of {_KINDS}, got {kind!r}")
    element(i, len(tup), "face index")
    _check_tuple(M.m, tup)
    if kind == "0":
        return tup[:i - 1] + tup[i:]
    x = tup[i - 1]
    return tup[:i - 1] + tuple(M.mul(x, y) for y in tup[i:])


def _add(chain: Chain, tup: tuple, coeff: int) -> None:
    c = chain.get(tup, 0) + coeff
    if c:
        chain[tup] = c
    else:
        chain.pop(tup, None)


def _as_chain(arg) -> Chain:
    if isinstance(arg, tuple):
        return {arg: 1}
    return arg


def boundary(M: FiniteMagma, kind: str, arg) -> Chain:
    """Boundary of a chain (or a single tuple); kind '*', '0', or 'rack'."""
    if kind not in _KINDS and kind != "rack":
        raise DomainError(f"boundary kind must be '*', '0' or 'rack', got {kind!r}")
    if kind == "rack":
        out = boundary(M, "*", arg)
        for tup, c in boundary(M, "0", arg).items():
            _add(out, tup, -c)
        return out
    chain = _as_chain(arg)
    out: Chain = {}
    for tup, c in chain.items():
        for i in range(1, len(tup) + 1):
            sign = 1 if i % 2 == 1 else -1
            _add(out, face_op(M, kind, i, tup), sign * c)
    return out


def _with_top(M: FiniteMagma, arg, term) -> Chain:
    out: Chain = {}
    for tup, c in _as_chain(arg).items():
        _add(out, *term(_check_tuple(M.m, tup), c))
    return out


def theta(M: FiniteMagma, arg) -> Chain:
    """Prepend the top element: theta(x_1..x_k) = (top, x_1..x_k).

    A contracting homotopy for del* whenever top*x = x for all x (true for
    the top row of a Laver table); theta(del*(c)) + del*(theta(c)) = c.
    """
    return _with_top(M, arg, lambda tup, c: ((M.m,) + tup, c))


def theta_prime(M: FiniteMagma, arg) -> Chain:
    """Append the top element with sign (-1)^k: theta'(x_1..x_k) = (-1)^k (x_1..x_k, top).

    The companion homotopy for del*, using x*top = top for all x."""
    return _with_top(M, arg, lambda tup, c: (tup + (M.m,), (-1) ** len(tup) * c))


def contracting_homotopy_check(M: FiniteMagma, kmax: int) -> bool:
    """theta del + del theta = id on every basis tuple of degree <= kmax,
    for both homotopies, del = del*."""
    for k in range(0, count(kmax, 0, "degree") + 1):
        tuples = [()] if k == 0 else product(range(1, M.m + 1), repeat=k)
        for tup in tuples:
            for h in (theta, theta_prime):
                total = h(M, boundary(M, "*", tup))
                for t2, c in boundary(M, "*", h(M, tup)).items():
                    _add(total, t2, c)
                if total != {tup: 1}:
                    return False
    return True


def _flat(m: int, tup: tuple) -> int:
    idx = 0
    for x in tup:
        idx = idx * m + (x - 1)
    return idx


@dataclass(frozen=True)
class Cochain:
    """Z-valued function on k-tuples, stored flat with x_1 the slowest index."""

    m: int
    degree: int
    values: tuple

    def __post_init__(self):
        count(self.m, 1, "carrier size")
        count(self.degree, 0, "cochain degree")
        if len(self.values) != self.m ** self.degree:
            raise DomainError(f"cochain needs {self.m ** self.degree} values, got {len(self.values)}")

    def __call__(self, *tup) -> int:
        if len(tup) != self.degree:
            raise DomainError(f"expected {self.degree} arguments, got {len(tup)}")
        return self.values[_flat(self.m, _check_tuple(self.m, tup))]

    def grid(self) -> list:
        """Degree-2 cochain as a row-per-x matrix."""
        if self.degree != 2:
            raise DomainError("grid() is for degree-2 cochains")
        return [list(self.values[x * self.m:(x + 1) * self.m]) for x in range(self.m)]


def cochain_from_function(M: FiniteMagma, degree: int, fn) -> Cochain:
    count(degree, 0, "cochain degree")
    guard_alloc(8 * M.m ** degree, f"degree-{degree} cochain on {M.m} elements")
    vals = [fn(*tup) for tup in product(range(1, M.m + 1), repeat=degree)]
    return Cochain(M.m, degree, tuple(vals))


def evaluate_on_chain(f: Cochain, chain: Chain) -> int:
    return sum(c * f(*tup) for tup, c in chain.items())


def coboundary_of(M: FiniteMagma, f: Cochain) -> Cochain:
    """(delta f)(x_vec) = f(delR(x_vec)): degree goes up by one."""
    if f.m != M.m:
        raise DomainError(f"need a cochain over the same carrier, got {f.m} elements for {M.m}")
    k = f.degree + 1
    guard_alloc(8 * M.m ** k, f"degree-{k} cochain on {M.m} elements")
    return Cochain(M.m, k, tuple(_coboundary_values(M, f)))


def _coboundary_values(M: FiniteMagma, f: Cochain):
    """(delta f)(t) for each tuple t in product order: the one pairing loop."""
    v = f.values
    return (sum([c * v[j] for j, c in row.items()]) for row in _cocycle_constraints(M, f.degree))


def _cocycle_check(f: Cochain, M: FiniteMagma, degree: int) -> LawCheck:
    """The first (degree+1)-tuple t, in product order, with f(delR(t)) != 0."""
    if f.degree != degree or f.m != M.m:
        raise DomainError(f"need a degree-{degree} cochain over the same carrier")
    tuples = product(range(1, M.m + 1), repeat=degree + 1)
    for tup, v in zip(tuples, _coboundary_values(M, f)):
        if v:
            return LawCheck(False, tup)
    return LawCheck(True, None)


def is_two_cocycle(f: Cochain, M: FiniteMagma) -> LawCheck:
    """f(x,z) + f(x*y, x*z) = f(y,z) + f(x, y*z) on all triples."""
    return _cocycle_check(f, M, 2)


def is_three_cocycle(f: Cochain, M: FiniteMagma) -> LawCheck:
    """f(x*y,x*z,x*t) + f(x,y,z*t) + f(x,z,t) = f(x,y*z,y*t) + f(y,z,t) + f(x,y,t)."""
    return _cocycle_check(f, M, 3)


def _cocycle_constraints(M: FiniteMagma, degree: int):
    """Sparse rows of the dual rack-boundary map on degree-`degree` cochains.

    One row per (degree+1)-tuple in product order, keyed by flat face
    indices; a row whose faces cancel is yielded empty.  Face 1 of (x, r)
    is x.r under d* and r under d0, face i > 1 is x then face i - 1 of r:
    delR(x, r) = [x.r] - [r] - x delR(r), and x.(y, s) = (x*y, x.s).  So
    each degree is built from the one below, which alone is kept, and the
    top degree is yielded one row at a time.
    """
    m = M.m
    op = [[y - 1 for y in row] for row in M.op]

    def raised(rows):
        stride = len(rows) // m  # x before a face of r
        for x, opx in enumerate(op):
            xr, n = [0], 1  # xr[i]: the flat index of x.r for the r of rows[i]
            while n < len(rows):
                xr, n = [opx[y] * n + a for y in range(m) for a in xr], n * m
            for i, low in enumerate(rows):
                row = {x * stride + j: -c for j, c in low.items()}
                _add(row, xr[i], 1)
                _add(row, i, -1)
                yield row

    rows = [{}]  # the empty tuple: delR(()) = 0
    for k in range(degree):
        guard_alloc(32 * (k + 1) * m ** (k + 1), f"degree-{k} coboundary rows on {m} elements")
        rows = list(raised(rows))
    yield from raised(rows)


def cocycle_space(M: FiniteMagma, degree: int) -> Tuple[int, List[Cochain]]:
    """Saturated Z-basis of the degree-`degree` rack cocycles."""
    dim = M.m ** count(degree, 0, "cocycle degree")
    guard_alloc(8 * dim * dim, f"cocycle kernel in dimension {dim}")
    rows = (row for row in _cocycle_constraints(M, degree) if row)
    basis = linalg.kernel_basis(rows, dim)
    return len(basis), [Cochain(M.m, degree, row) for row in basis]


def two_cocycle_space(M: FiniteMagma) -> Tuple[int, List[Cochain]]:
    return cocycle_space(M, 2)


def three_cocycle_rank(M: FiniteMagma) -> int:
    return cocycle_space(M, 3)[0]


def psi(q: int, n: int) -> Cochain:
    """The 0/1 cocycle marking columns where q appears but stops appearing
    after left translation: psi(x, y) = 1 iff q is a value in column y of
    A_n and not one in column x*y."""
    from .laver import build_laver_table

    table = build_laver_table(n)
    N = table.size
    element(q, N - 1, "q")
    guard_alloc(8 * N * N, f"degree-2 cochain on {N} elements")
    rows = [table.row(x) for x in range(1, N + 1)]
    in_col = [False] * (N + 1)      # in_col[y]: q is a value in column y
    for row in rows:
        for y, v in enumerate(row, 1):
            if v == q:
                in_col[y] = True
    return Cochain(N, 2, tuple(int(in_col[y] and not in_col[v])
                               for row in rows for y, v in enumerate(row, 1)))


def coboundary_preimage(M: FiniteMagma, f: Cochain) -> Optional[Cochain]:
    """A degree-(k-1) integral cochain g with delta(g) = f, when one exists."""
    count(f.degree, 1, "coboundary degree")
    if f.m != M.m:
        raise DomainError(f"need a cochain over the same carrier, got {f.m} elements for {M.m}")
    low = f.degree - 1
    dim_low, dim = M.m ** low, M.m ** f.degree
    guard_alloc(8 * dim_low * dim, f"degree-{low} coboundary matrix on {M.m} elements")
    # column j of the coboundary matrix = delta(indicator of basis tuple j)
    columns = [[0] * dim for _ in range(dim_low)]
    for i, row in enumerate(_cocycle_constraints(M, low)):
        for j, c in row.items():
            columns[j][i] = c
    coeffs = linalg.lattice_solve(columns, f.values)
    if coeffs is None:
        return None
    return Cochain(M.m, low, tuple(coeffs))
