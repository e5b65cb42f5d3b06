"""Integer kernels, lattice membership, exact solves."""

import random
from itertools import product

import pytest

from ldlab.errors import DomainError
from ldlab import homology, laver, linalg, magma


# Reference: the dense kernel that pushes every constraint through every
# basis row, with the list form of the same Euclidean pivot rule.  The
# sparse kernel must return its bases row for row.

def _dense_reduce(weights, *tables):
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


def dense_kernel_basis(constraints, dim):
    basis = [[1 if i == j else 0 for j in range(dim)] for i in range(dim)]
    for con in constraints:
        if isinstance(con, dict):
            items = [(j, c) for j, c in con.items() if c]
        else:
            items = [(j, c) for j, c in enumerate(con) if c]
        if not items:
            continue
        weights = [sum(row[j] * c for j, c in items) for row in basis]
        last = _dense_reduce(weights, basis)
        if last is not None:
            del basis[last]
    return [tuple(row) for row in basis]


def dense_lattice_solve(rows, target):
    rows = [list(r) for r in rows]
    if not rows:
        return [] if not any(target) else None
    dim, k = len(rows[0]), len(rows)
    track = [[1 if i == j else 0 for j in range(k)] for i in range(k)]
    pivots = []
    r = 0
    for col in range(dim):
        i0 = _dense_reduce([0] * r + [rows[i][col] for i in range(r, k)], rows, track)
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
    return None if any(t) else coeffs


def _random_system(rng, max_dim, max_rows, spread):
    dim = rng.randrange(0, max_dim + 1)
    rows = []
    for _ in range(rng.randrange(0, max_rows + 1)):
        # mostly sparse rows, as in the cocycle systems, some dense ones
        density = rng.choice((0.2, 0.5, 1.0))
        rows.append([rng.randrange(-spread, spread + 1) if rng.random() < density else 0
                     for _ in range(dim)])
    return dim, rows


def _permutation_rack(rng, m):
    pi = list(range(1, m + 1))
    rng.shuffle(pi)
    return magma.from_rows([pi] * m)


def _cocycle_systems():
    """(table, degree) for the reference comparison, up to dimension 512."""
    rng = random.Random(2014)
    tables = [(f"A{n}", laver.build_laver_table(n).as_magma()) for n in (1, 2, 3, 4)]
    tables += [(f"D{k}", magma.dihedral_quandle(k)) for k in (3, 5, 7)]
    tables += [("affine5:2", magma.affine_quandle(5, 2)),
               ("affine7:3", magma.affine_quandle(7, 3))]
    tables += [(f"perm{m}", _permutation_rack(rng, m)) for m in (3, 4, 5, 6)]
    for name, M in tables:
        for degree in (1, 2, 3):
            if M.m ** degree <= 512:
                yield pytest.param(M, degree, id=f"{name}-degree{degree}")


def test_kernel_simple():
    # x + y + z = 0 over Z^3
    basis = linalg.kernel_basis([[1, 1, 1]], 3)
    assert len(basis) == 2
    for row in basis:
        assert sum(row) == 0
    # saturation: (1, -1, 0) and (0, 1, -1) must be integer combinations
    assert linalg.lattice_contains(basis, (1, -1, 0))
    assert linalg.lattice_contains(basis, (0, 1, -1))


def test_kernel_saturated_not_just_spanning():
    # 2x = 2y has the primitive solution (1, 1); a non-saturated method
    # could return (2, 2) only
    basis = linalg.kernel_basis([[2, -2]], 2)
    assert len(basis) == 1
    assert linalg.lattice_contains(basis, (1, 1))


def test_kernel_sparse_and_dense_agree():
    rng = random.Random(11)
    for _ in range(30):
        dim = rng.randrange(1, 7)
        rows = []
        for _ in range(rng.randrange(0, 6)):
            rows.append([rng.randrange(-3, 4) for _ in range(dim)])
        dense = linalg.kernel_basis(rows, dim)
        sparse = linalg.kernel_basis(
            [{j: c for j, c in enumerate(r) if c} for r in rows], dim)
        assert dense == sparse
        for row in dense:
            for con in rows:
                assert sum(a * b for a, b in zip(con, row)) == 0


def test_kernel_rejects_out_of_range_sparse_keys():
    # a negative key must not wrap round to the last coordinate
    with pytest.raises(DomainError):
        linalg.kernel_basis([{-1: 1}], 3)
    with pytest.raises(DomainError):
        linalg.kernel_basis([{3: 1}], 3)
    with pytest.raises(DomainError):
        linalg.kernel_basis([{0: 1}, {2: 0, 5: 0}], 3)
    assert linalg.kernel_basis([{2: 1}], 3) == [(1, 0, 0), (0, 1, 0)]


def test_kernel_matches_dense_reference_on_random_systems():
    rng = random.Random(12)
    for _ in range(300):
        dim, rows = _random_system(rng, 8, 9, 4)
        want = dense_kernel_basis(rows, dim)
        assert linalg.kernel_basis(rows, dim) == want
        sparse = [{j: c for j, c in enumerate(r) if c} for r in rows]
        assert linalg.kernel_basis(iter(sparse), dim) == want


@pytest.mark.parametrize("M,degree", list(_cocycle_systems()))
def test_kernel_matches_dense_reference_on_cocycle_systems(M, degree):
    rows = list(homology._cocycle_constraints(M, degree))
    assert linalg.kernel_basis(rows, M.m ** degree) == dense_kernel_basis(rows, M.m ** degree)


def test_kernel_saturated_on_a_box():
    # every integer solution in [-3, 3]^dim is an integer combination of the basis
    rng = random.Random(31)
    box = range(-3, 4)
    for _ in range(40):
        dim, rows = _random_system(rng, 4, 3, 3)
        basis = linalg.kernel_basis(rows, dim)
        for v in product(box, repeat=dim):
            if all(sum(c * x for c, x in zip(r, v)) == 0 for r in rows):
                assert linalg.lattice_contains(basis, v), (rows, v)


def test_lattice_solve_matches_dense_reference():
    rng = random.Random(17)
    for _ in range(200):
        dim = rng.randrange(1, 6)
        rows = [[rng.randrange(-4, 5) for _ in range(dim)] for _ in range(rng.randrange(1, 5))]
        target = [rng.randrange(-6, 7) for _ in range(dim)]
        if rng.random() < 0.5:
            coeffs = [rng.randrange(-3, 4) for _ in rows]
            target = [sum(c * r[j] for c, r in zip(coeffs, rows)) for j in range(dim)]
        assert linalg.lattice_solve(rows, target) == dense_lattice_solve(rows, target)


def test_kernel_rank_matches_rational_rank():
    rng = random.Random(23)
    try:
        from sympy import Matrix
    except ImportError:
        pytest.skip("sympy unavailable")
    for _ in range(20):
        dim = rng.randrange(1, 6)
        nrows = rng.randrange(0, 6)
        rows = [[rng.randrange(-4, 5) for _ in range(dim)] for _ in range(nrows)]
        basis = linalg.kernel_basis(rows, dim)
        rank = Matrix(rows).rank() if rows else 0
        assert len(basis) == dim - rank


def test_lattice_solve():
    rows = [(2, 0, 1), (0, 3, 1)]
    coeffs = linalg.lattice_solve(rows, (2, 3, 2))
    assert coeffs == [1, 1]
    assert linalg.lattice_solve(rows, (1, 0, 0)) is None
    assert linalg.lattice_solve([], (0, 0)) == []
    assert linalg.lattice_solve([], (1, 0)) is None
    with pytest.raises(DomainError):
        linalg.lattice_solve(rows, (1, 2))


def test_lattice_solve_divisibility():
    # (2) spans 2Z: 3 is in the rational span but not the lattice
    assert linalg.lattice_solve([(2,)], (4,)) == [2]
    assert linalg.lattice_solve([(2,)], (3,)) is None


def test_lattice_solve_random_roundtrip():
    rng = random.Random(5)
    for _ in range(40):
        dim = rng.randrange(1, 6)
        k = rng.randrange(1, 5)
        rows = [[rng.randrange(-5, 6) for _ in range(dim)] for _ in range(k)]
        coeffs = [rng.randrange(-4, 5) for _ in range(k)]
        target = [sum(c * r[j] for c, r in zip(coeffs, rows)) for j in range(dim)]
        found = linalg.lattice_solve(rows, target)
        assert found is not None
        rebuilt = [sum(c * r[j] for c, r in zip(found, rows)) for j in range(dim)]
        assert rebuilt == target


def test_lattices_equal():
    a = [(1, 0), (0, 1)]
    b = [(1, 1), (0, 1)]
    assert linalg.lattices_equal(a, b)
    assert not linalg.lattices_equal(a, [(2, 0), (0, 1)])
