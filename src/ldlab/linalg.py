"""Exact integer linear algebra for small cocycle systems.

Everything runs on Python ints, so there is no overflow and no floating
point.  One routine, `_reduce`, does all the elimination: it Euclidean-reduces
a weight vector to a single nonzero entry by unimodular row operations,
carrying the same operations through the rows of any tables it is given.
`kernel_basis` maintains a basis of a sublattice of Z^dim that satisfies all
constraints seen so far: a new constraint is pushed through the current
basis, the resulting weights are reduced, and the one row left with a
nonzero weight is dropped.  The result is a saturated lattice (any integer
solution of the constraint system is an integer combination of the returned
rows), which is what makes reported ranks honest over Z rather than over Q.
`lattice_solve` reduces column by column to an integer echelon form.
"""

from typing import Iterable, List, Optional, Sequence, Tuple

from .errors import DomainError


def _reduce(weights: List[int], *tables: List[List[int]]) -> Optional[int]:
    """Reduce `weights` in place to at most one nonzero entry; return its index or None.

    Each pass pivots on the nonzero weight of smallest absolute value (first
    index on ties) and subtracts floor-quotient multiples of it from the other
    weights.  Row i of every table gets the same operations as weights[i], so
    the row lattice of each table is unchanged.
    """
    while True:
        nz = [i for i, w in enumerate(weights) if w]
        if len(nz) <= 1:
            return nz[0] if nz else None
        piv = min(nz, key=lambda i: (abs(weights[i]), i))
        wp = weights[piv]
        for i in nz:
            if i == piv:
                continue
            q = weights[i] // wp
            if q:
                weights[i] -= q * wp
                for t in tables:
                    t[i] = [a - q * b for a, b in zip(t[i], t[piv])]


def _constraint_items(con, dim: int):
    if isinstance(con, dict):
        return [(j, c) for j, c in con.items() if c]
    if len(con) != dim:
        raise DomainError(f"constraint has length {len(con)}, expected {dim}")
    return [(j, c) for j, c in enumerate(con) if c]


def kernel_basis(constraints: Iterable, dim: int) -> List[Tuple[int, ...]]:
    """Basis of {v in Z^dim : con . v = 0 for all constraints}.

    Constraints are dense sequences or sparse {index: coeff} dicts.
    Deterministic: reduction always pivots on the entry of smallest
    absolute value, first index on ties.
    """
    if dim < 0:
        raise DomainError(f"dimension must be >= 0, got {dim}")
    basis = [[1 if i == j else 0 for j in range(dim)] for i in range(dim)]
    for con in constraints:
        items = _constraint_items(con, dim)
        if not items:
            continue
        weights = [sum(row[j] * c for j, c in items) for row in basis]
        last = _reduce(weights, basis)
        if last is not None:
            del basis[last]
    return [tuple(row) for row in basis]


def lattice_solve(rows: Sequence[Sequence[int]], target: Sequence[int]) -> Optional[List[int]]:
    """Integer coefficients c with sum(c_i * rows_i) = target, or None.

    None means the target is not in the integer row span (it may still be
    in the rational span).
    """
    rows = [list(r) for r in rows]
    if not rows:
        return [] if not any(target) else None
    dim = len(rows[0])
    if any(len(r) != dim for r in rows) or len(target) != dim:
        raise DomainError("row/target length mismatch")
    k = len(rows)
    # track[i] holds rows[i] as a combination of the original rows
    track = [[1 if i == j else 0 for j in range(k)] for i in range(k)]
    pivots = []
    r = 0
    for col in range(dim):
        # rows above r already hold pivots; zero weights keep them out
        i0 = _reduce([0] * r + [rows[i][col] for i in range(r, k)], rows, track)
        if i0 is None:
            continue
        rows[r], rows[i0] = rows[i0], rows[r]
        track[r], track[i0] = track[i0], track[r]
        pivots.append((r, col))
        r += 1
    t = list(target)
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
