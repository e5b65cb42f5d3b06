"""Boundaries, homotopies, cocycle spaces, the psi basis."""

import random
from itertools import product

import pytest

from ldlab.errors import DomainError
from ldlab import homology, laver, linalg, magma

A2 = laver.build_laver_table(2).as_magma()
A3 = laver.build_laver_table(3).as_magma()

# The seven 0/1 cocycles on the 8-element table, frozen row by row
# (rows indexed by x = 1..8, columns by y = 1..8).
PSI3_GRIDS = {
    1: ["10000000", "10000000", "10000000", "10000000",
        "10000000", "10000000", "10000000", "00000000"],
    2: ["01000000", "11001000", "11001000", "01000000",
        "11001000", "11001000", "11001000", "00000000"],
    3: ["10101000", "00100000", "10101000", "00100000",
        "10101000", "10101000", "10101000", "00000000"],
    4: ["00010000", "00010000", "01010100", "00010000",
        "01010100", "01010100", "11111110", "00000000"],
    5: ["10001000", "10001000", "10001000", "00000000",
        "10001000", "10001000", "10001000", "00000000"],
    6: ["01000100", "01000100", "11101110", "00000000",
        "01000100", "01000100", "11101110", "00000000"],
    7: ["10101010", "00000000", "10101010", "00000000",
        "10101010", "00000000", "10101010", "00000000"],
}


def grid_rows(f):
    return ["".join(str(v) for v in row) for row in f.grid()]


def small_magmas():
    yield magma.dihedral_quandle(3)
    yield laver.build_laver_table(1).as_magma()
    yield A2
    yield magma.from_rows([[1, 1], [2, 2]])  # left projection x*y = x


def boundary_constraints(M, degree):
    """Reference rows: each rack boundary through `boundary`, then flattened."""
    m = M.m
    for tup in product(range(1, m + 1), repeat=degree + 1):
        row = {}
        for face, c in homology.boundary(M, "rack", tup).items():
            j = homology._flat(m, face)
            v = row.get(j, 0) + c
            if v:
                row[j] = v
            else:
                row.pop(j, None)
        if row:
            yield row


def constraint_magmas():
    rng = random.Random(7)
    yield from (laver.build_laver_table(n).as_magma() for n in range(5))
    yield from (magma.dihedral_quandle(k) for k in (3, 5, 7))
    yield from (magma.affine_quandle(5, 2), magma.affine_quandle(7, 3))
    for m in (1, 2, 3, 4, 5, 6):
        # arbitrary tables: the rows do not assume left distributivity
        yield magma.from_rows([[rng.randint(1, m) for _ in range(m)] for _ in range(m)])


def test_cocycle_constraints_match_boundary_reference():
    for M in constraint_magmas():
        for degree in (1, 2, 3):
            if M.m ** (degree + 1) > 4096:
                continue
            got = list(homology._cocycle_constraints(M, degree))
            want = list(boundary_constraints(M, degree))
            assert got == want
            # same entries in the same order, zero coefficients dropped
            assert [list(r.items()) for r in got] == [list(r.items()) for r in want]


def test_face_ops():
    t = (1, 2, 3)
    assert homology.face_op(A2, "0", 1, t) == (2, 3)
    assert homology.face_op(A2, "0", 2, t) == (1, 3)
    assert homology.face_op(A2, "*", 1, t) == (A2.mul(1, 2), A2.mul(1, 3))
    assert homology.face_op(A2, "*", 3, t) == (1, 2)
    with pytest.raises(DomainError):
        homology.face_op(A2, "*", 4, t)
    with pytest.raises(DomainError):
        homology.face_op(A2, "x", 1, t)


def test_boundary_degree_basics():
    x, y = 1, 2
    assert homology.boundary(A2, "rack", (x, y)) == {(A2.mul(x, y),): 1, (y,): -1}
    # degree 1: both one-term boundaries send (x) to the point; rack kills it
    assert homology.boundary(A2, "*", (x,)) == {(): 1}
    assert homology.boundary(A2, "0", (x,)) == {(): 1}
    assert homology.boundary(A2, "rack", (x,)) == {}


def test_boundary_squares_vanish():
    for M in small_magmas():
        for k in (2, 3, 4):
            if M.m ** k > 4096:
                continue
            for tup in product(range(1, M.m + 1), repeat=k):
                for kind in ("*", "0", "rack"):
                    assert homology.boundary(M, kind, homology.boundary(M, kind, tup)) == {}


def test_mixed_boundary_relation():
    # del* del0 + del0 del* = 0
    for M in small_magmas():
        for k in (2, 3, 4):
            if M.m ** k > 4096:
                continue
            for tup in product(range(1, M.m + 1), repeat=k):
                acc = homology.boundary(M, "*", homology.boundary(M, "0", tup))
                for t3, c in homology.boundary(M, "0", homology.boundary(M, "*", tup)).items():
                    homology._add(acc, t3, c)
                assert acc == {}


def test_face_commutation():
    # d_j after d_i = d_i after d_{j+1} shifted: the simplicial-style identity
    # d^a_j d^b_i = d^b_i d^a_{j+1} for j >= i, mixed kinds included
    M = A2
    for tup in product(range(1, M.m + 1), repeat=3):
        for a in ("*", "0"):
            for b in ("*", "0"):
                for i in (1, 2, 3):
                    for j in range(i, 3):
                        lhs = homology.face_op(M, a, j, homology.face_op(M, b, i, tup))
                        rhs = homology.face_op(M, b, i, homology.face_op(M, a, j + 1, tup))
                        assert lhs == rhs


def test_contracting_homotopies():
    for n in (0, 1, 2, 3):
        M = laver.build_laver_table(n).as_magma()
        kmax = 3 if n <= 2 else 2
        assert homology.contracting_homotopy_check(M, kmax)


def test_homotopy_identity_fails_without_top_unit():
    # dihedral_quandle(3) has no element acting as identity, so theta is not
    # a homotopy there
    assert not homology.contracting_homotopy_check(magma.dihedral_quandle(3), 2)


def test_cochain_basics():
    f = homology.Cochain(2, 2, (0, 1, 2, 3))
    assert f(1, 1) == 0 and f(1, 2) == 1 and f(2, 1) == 2 and f(2, 2) == 3
    assert f.grid() == [[0, 1], [2, 3]]
    with pytest.raises(DomainError):
        f(1)
    with pytest.raises(DomainError):
        f(1, 3)
    with pytest.raises(DomainError):
        homology.Cochain(2, 2, (0,))


def test_two_cocycle_ranks():
    for n in (1, 2, 3, 4):
        M = laver.build_laver_table(n).as_magma()
        rank, basis = homology.two_cocycle_space(M)
        assert rank == 2 ** n
        assert len(basis) == rank
        for f in basis:
            assert homology.is_two_cocycle(f, M)


def test_three_cocycle_ranks():
    for n, expected in [(1, 3), (2, 13)]:
        M = laver.build_laver_table(n).as_magma()
        assert homology.three_cocycle_rank(M) == expected


def test_psi_grids_match_frozen():
    for q, rows in PSI3_GRIDS.items():
        assert grid_rows(homology.psi(q, 3)) == rows


def test_psi_are_cocycles_and_coboundaries():
    for q in range(1, 8):
        f = homology.psi(q, 3)
        assert homology.is_two_cocycle(f, A3)
        g = homology.coboundary_preimage(A3, f)
        assert g is not None
        assert homology.coboundary_of(A3, g).values == f.values


def test_psi_basis_spans_cocycles_with_constant():
    # the seven psi plus the constant-1 cocycle generate the same lattice
    # as the computed kernel basis
    rank, basis = homology.two_cocycle_space(A3)
    const = homology.cochain_from_function(A3, 2, lambda x, y: 1)
    assert homology.is_two_cocycle(const, A3)
    expected = [homology.psi(q, 3).values for q in range(1, 8)] + [const.values]
    assert linalg.lattices_equal([f.values for f in basis], expected)


def test_constant_not_a_coboundary():
    const = homology.cochain_from_function(A3, 2, lambda x, y: 1)
    assert homology.coboundary_preimage(A3, const) is None


def test_psi_range_check():
    with pytest.raises(DomainError):
        homology.psi(9, 3)
    with pytest.raises(DomainError):
        homology.psi(0, 2)


def test_coboundary_of_is_cocycle():
    for M in (A2, magma.dihedral_quandle(3)):
        for j in range(M.m):
            g = homology.Cochain(M.m, 1, tuple(1 if i == j else 0 for i in range(M.m)))
            f = homology.coboundary_of(M, g)
            assert homology.is_two_cocycle(f, M)


def test_is_three_cocycle_on_coboundaries():
    M = A2
    g = homology.cochain_from_function(M, 2, lambda x, y: (x * y) % 3)
    f = homology.coboundary_of(M, g)
    assert f.degree == 3
    assert not any(homology.coboundary_of(M, f).values)  # delta delta = 0
    assert homology.is_three_cocycle(f, M)


def test_three_cocycle_condition_matches_dual_boundary():
    # the six-term identity is exactly f(delR(4-tuple)) = 0
    M = laver.build_laver_table(1).as_magma()
    rank, basis = homology.cocycle_space(M, 3)
    for f in basis:
        assert homology.is_three_cocycle(f, M)
    bad = homology.cochain_from_function(M, 3, lambda x, y, z: x * 7 + y * 3 + z)
    check = homology.is_three_cocycle(bad, M)
    assert not check.ok
    x, y, z, t = check.witness
    lhs = (bad(M.mul(x, y), M.mul(x, z), M.mul(x, t)) + bad(x, y, M.mul(z, t))
           + bad(x, z, t))
    rhs = (bad(x, M.mul(y, z), M.mul(y, t)) + bad(y, z, t) + bad(x, y, t))
    assert lhs != rhs
