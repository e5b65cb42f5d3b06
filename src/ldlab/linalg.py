"""Exact integer linear algebra for small cocycle systems.

Everything runs on Python ints, so there is no overflow and no floating
point.  One routine, `_reduce`, does all the elimination: it Euclidean-reduces
a sparse {row: weight} vector to a single nonzero entry by unimodular row
operations, handing each operation to a callback that applies it to the
caller's rows.  `kernel_basis` keeps a basis of a sublattice of Z^dim that
satisfies all constraints seen so far, as sparse rows in fixed slots, with an
index from each column to the live slots that are nonzero there.  A new
constraint is weighed only against the slots in the support of its columns;
when some weight is nonzero, the weights are reduced and the one slot left
with a nonzero weight is emptied.  The result is a saturated lattice (any
integer solution of the constraint system is an integer combination of the
returned rows), which is what makes reported ranks honest over Z rather than
over Q.  `lattice_solve` reduces column by column to an integer echelon form.
"""

from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from .errors import DomainError, _is_int, count


def _reduce(weights: Dict[int, int], row_op: Callable[[int, int, int], None]) -> Optional[int]:
    """Reduce the nonzero `weights` in place to one entry; return its row or None.

    Each pass pivots on the weight of smallest absolute value (lowest row on
    ties) and subtracts floor-quotient multiples of it from the other
    weights; row_op(i, p, q) must subtract q times row p from row i, so the
    row lattice is unchanged.
    """
    while len(weights) > 1:
        piv = min(weights, key=lambda i: (abs(weights[i]), i))
        wp = weights[piv]
        for i in [i for i in weights if i != piv]:
            q = weights[i] // wp
            row_op(i, piv, q)
            w = weights[i] - q * wp
            if w:
                weights[i] = w
            else:
                del weights[i]
    return next(iter(weights), None)


def _coefficient(c) -> int:
    """c itself when it is an int, else DomainError."""
    if type(c) is int or _is_int(c):
        return c
    raise DomainError(f"coefficient {c!r} is not an integer")


def _constraint_items(con, dim: int):
    """The (index, coefficient) pairs of a constraint with a nonzero
    coefficient, read in one pass that checks every index and coefficient."""
    if isinstance(con, dict):
        items = con.items()
    elif len(con) != dim:
        raise DomainError(f"constraint has length {len(con)}, expected {dim}")
    else:
        items = enumerate(con)
    out = []
    for j, c in items:
        if not ((type(j) is int or _is_int(j)) and 0 <= j < dim):
            raise DomainError(f"constraint index {j!r} out of range 0..{dim - 1}")
        if _coefficient(c):
            out.append((j, c))
    return out


def kernel_basis(constraints: Iterable, dim: int) -> List[Tuple[int, ...]]:
    """Basis of {v in Z^dim : con . v = 0 for all constraints}.

    Constraints are dense sequences or sparse {index: coeff} dicts, read
    once.  Row i starts as the i-th unit vector in slot i; `cols[j]` holds
    the live slots with a nonzero entry in column j, so a constraint costs
    only the rows that meet its support.  Deterministic: reduction pivots
    on the weight of smallest absolute value, lowest slot on ties, and an
    emptied slot keeps the order of the others.
    """
    count(dim, 0, "dimension")
    rows: List[Optional[Dict[int, int]]] = [{i: 1} for i in range(dim)]
    cols = [{i} for i in range(dim)]

    def row_op(i, p, q):
        row = rows[i]
        for j, b in rows[p].items():
            v = row.get(j, 0) - q * b
            if v:
                row[j] = v
                cols[j].add(i)
            else:  # q != 0, so row i held j
                del row[j]
                cols[j].remove(i)

    for con in constraints:
        weights: Dict[int, int] = {}
        for j, c in _constraint_items(con, dim):
            for s in cols[j]:
                weights[s] = weights.get(s, 0) + rows[s][j] * c
        weights = {s: w for s, w in weights.items() if w}
        if weights:
            last = _reduce(weights, row_op)
            for j in rows[last]:
                cols[j].remove(last)
            rows[last] = None
    return [tuple(row.get(j, 0) for j in range(dim)) for row in rows if row is not None]


def lattice_solve(rows: Sequence[Sequence[int]], target: Sequence[int]) -> Optional[List[int]]:
    """Integer coefficients c with sum(c_i * rows_i) = target, or None.

    None means the target is not in the integer row span (it may still be
    in the rational span).
    """
    rows = [[_coefficient(c) for c in r] for r in rows]
    t = [_coefficient(c) for c in target]
    if not rows:
        return [] if not any(t) else None
    dim = len(rows[0])
    if any(len(r) != dim for r in rows) or len(t) != dim:
        raise DomainError("row/target length mismatch")
    k = len(rows)
    # track[i] holds rows[i] as a combination of the original rows
    track = [[1 if i == j else 0 for j in range(k)] for i in range(k)]

    def row_op(i, p, q):
        for t in (rows, track):
            t[i] = [a - q * b for a, b in zip(t[i], t[p])]

    pivots = []
    r = 0
    for col in range(dim):
        # rows above r already hold pivots and stay out of the weights
        i0 = _reduce({i: rows[i][col] for i in range(r, k) if rows[i][col]}, row_op)
        if i0 is None:
            continue
        rows[r], rows[i0] = rows[i0], rows[r]
        track[r], track[i0] = track[i0], track[r]
        pivots.append((r, col))
        r += 1
    coeffs = [0] * k
    for ri, col in pivots:
        if t[col] == 0:
            continue
        q, rem = divmod(t[col], rows[ri][col])
        if rem:
            return None
        for j in range(dim):
            t[j] -= q * rows[ri][j]
        for j in range(k):
            coeffs[j] += q * track[ri][j]
    if any(t):
        return None
    return coeffs


def lattice_contains(rows: Sequence[Sequence[int]], target: Sequence[int]) -> bool:
    return lattice_solve(rows, target) is not None


def lattices_equal(rows_a: Sequence[Sequence[int]], rows_b: Sequence[Sequence[int]]) -> bool:
    """Mutual membership of the two integer row spans."""
    return (all(lattice_contains(rows_a, v) for v in rows_b)
            and all(lattice_contains(rows_b, v) for v in rows_a))
