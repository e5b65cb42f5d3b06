"""Boundaries, homotopies, cocycle spaces, the psi basis."""

import random
from itertools import product

import pytest

from ldlab.errors import DomainError, ResourceError
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
    """Reference rows: each rack boundary through `boundary`, then flattened;
    one row per tuple, empty ones included."""
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
        yield row


def reference_coboundary(M, f):
    """delta f through `boundary`: f evaluated on the rack boundary of each tuple."""
    vals = [homology.evaluate_on_chain(f, homology.boundary(M, "rack", tup))
            for tup in product(range(1, M.m + 1), repeat=f.degree + 1)]
    return homology.Cochain(M.m, f.degree + 1, tuple(vals))


def reference_preimage(M, f):
    """Columns delta(indicator of tuple j) through `reference_coboundary`."""
    low = f.degree - 1
    dim_low = M.m ** low
    columns = []
    for j in range(dim_low):
        g = homology.Cochain(M.m, low, tuple(1 if i == j else 0 for i in range(dim_low)))
        columns.append(reference_coboundary(M, g).values)
    coeffs = linalg.lattice_solve(columns, f.values)
    return None if coeffs is None else homology.Cochain(M.m, low, tuple(coeffs))


def reference_two_cocycle(f, M):
    """The 2-cocycle law written out triple by triple."""
    for x in range(1, M.m + 1):
        for y in range(1, M.m + 1):
            xy = M.mul(x, y)
            for z in range(1, M.m + 1):
                if f(x, z) + f(xy, M.mul(x, z)) != f(y, z) + f(x, M.mul(y, z)):
                    return magma.LawCheck(False, (x, y, z))
    return magma.LawCheck(True, None)


def reference_three_cocycle(f, M):
    """The six-term 3-cocycle law written out quadruple by quadruple."""
    m = M.m
    for x in range(1, m + 1):
        for y in range(1, m + 1):
            xy = M.mul(x, y)
            yx_row = [M.mul(y, w) for w in range(1, m + 1)]
            x_row = [M.mul(x, w) for w in range(1, m + 1)]
            for z in range(1, m + 1):
                for t in range(1, m + 1):
                    lhs = (f(xy, x_row[z - 1], x_row[t - 1]) + f(x, y, M.mul(z, t))
                           + f(x, z, t))
                    rhs = (f(x, yx_row[z - 1], yx_row[t - 1]) + f(y, z, t)
                           + f(x, y, t))
                    if lhs != rhs:
                        return magma.LawCheck(False, (x, y, z, t))
    return magma.LawCheck(True, None)


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
            assert len(got) == M.m ** (degree + 1)
            assert got == want
            # the space is the kernel of the reference rows: no reader
            # depends on the order of the entries within a row
            rank, basis = homology.cocycle_space(M, degree)
            kernel = linalg.kernel_basis([r for r in want if r], M.m ** degree)
            assert (rank, [f.values for f in basis]) == (len(kernel), kernel)


P = 2 ** 31 - 1


def rank_mod_p(rows, dim):
    """Rank over F_P of sparse integer rows, by plain Gaussian elimination."""
    pivots = []  # (column, row scaled to 1 there, zero at every earlier pivot)
    for row in rows:
        v = [0] * dim
        for j, c in row.items():
            v[j] = c % P
        for col, piv in pivots:
            if v[col]:
                a = v[col]
                v = [(x - a * y) % P for x, y in zip(v, piv)]
        col = next((j for j, x in enumerate(v) if x), None)
        if col is not None:
            inv = pow(v[col], P - 2, P)
            pivots.append((col, [x * inv % P for x in v]))
    return len(pivots)


def test_cocycle_ranks_match_rank_over_a_large_prime():
    rng = random.Random(4)
    pi = [1, 2, 3, 4]
    rng.shuffle(pi)
    tables = [laver.build_laver_table(n).as_magma() for n in (1, 2, 3)]
    tables += [magma.dihedral_quandle(3), magma.dihedral_quandle(5),
               magma.affine_quandle(5, 2), magma.from_rows([pi] * 4)]
    checked = 0
    for M in tables:
        for degree in (2, 3):
            dim = M.m ** degree
            if dim > 125:
                continue
            rank = dim - rank_mod_p(boundary_constraints(M, degree), dim)
            assert homology.cocycle_space(M, degree)[0] == rank
            checked += 1
    assert checked == 13


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


def test_chain_maps_reject_bad_kinds_and_entries():
    d3 = magma.dihedral_quandle(3)
    for kind in ("foo", "", "rack0"):
        with pytest.raises(DomainError, match="boundary kind"):
            homology.boundary(d3, kind, ())
        with pytest.raises(DomainError, match="boundary kind"):
            homology.boundary(d3, kind, {(1, 2): 1})
    for bad in ((7,), (0, 1), (1, 4)):
        with pytest.raises(DomainError):
            homology.theta(d3, bad)
        with pytest.raises(DomainError):
            homology.theta_prime(d3, {bad: 2})


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


def _psi_by_op(q, n):
    """psi(q, n) from its definition, an op call per entry."""
    table = laver.build_laver_table(n)
    cols = range(1, table.size + 1)
    in_col = {y: any(table.op(p, y) == q for p in cols) for y in cols}
    return tuple(int(in_col[y] and not in_col[table.op(x, y)]) for x in cols for y in cols)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_psi_matches_op_reference(n):
    for q in range(1, 2 ** n):
        f = homology.psi(q, n)
        assert (f.m, f.degree) == (2 ** n, 2)
        assert f.values == _psi_by_op(q, n), q


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


def test_psi_memory_guard(monkeypatch):
    need = 8 * 8 * 8  # the 8 x 8 grid on A_3
    monkeypatch.setenv("LDLAB_MAX_MEM", str(need - 1))
    with pytest.raises(ResourceError, match="degree-2 cochain on 8 elements"):
        homology.psi(1, 3)
    monkeypatch.setenv("LDLAB_MAX_MEM", str(need))
    assert grid_rows(homology.psi(1, 3)) == PSI3_GRIDS[1]


def test_cocycle_rows_memory_guard(monkeypatch):
    need = 32 * 2 * 8 ** 2  # the 64 degree-1 rows on A_3, two entries each
    monkeypatch.setenv("LDLAB_MAX_MEM", str(need - 1))
    with pytest.raises(ResourceError, match="degree-1 coboundary rows"):
        next(homology._cocycle_constraints(A3, 2))
    monkeypatch.setenv("LDLAB_MAX_MEM", str(need))
    assert len(list(homology._cocycle_constraints(A3, 2))) == 8 ** 3


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


def sample_cochains(rng, M, degree, count):
    """Cocycles with up to two entries changed, so that the first failure can
    sit anywhere in the scan, and some cochains with random entries."""
    basis = homology.cocycle_space(M, degree)[1]
    dim = M.m ** degree
    for _ in range(count):
        if rng.random() < 0.2:
            vals = [rng.randint(-3, 3) for _ in range(dim)]
        else:
            vals = [0] * dim
            for f in basis:
                c = rng.randint(-2, 2)
                vals = [v + c * b for v, b in zip(vals, f.values)]
        for _ in range(rng.randint(0, 2)):
            vals[rng.randrange(dim)] += rng.choice((-1, 1))
        yield homology.Cochain(M.m, degree, tuple(vals))


def test_cocycle_checks_match_written_out_laws():
    rng = random.Random(1515)
    laws = ((2, homology.is_two_cocycle, reference_two_cocycle),
            (3, homology.is_three_cocycle, reference_three_cocycle))
    outcomes = set()
    for M in constraint_magmas():
        for degree, law, reference in laws:
            if M.m ** (degree + 1) > 1296:
                continue
            for f in sample_cochains(rng, M, degree, 12):
                check = law(f, M)
                assert check == reference(f, M)
                outcomes.add((degree, check.ok))
    assert outcomes == {(2, True), (2, False), (3, True), (3, False)}


def test_coboundary_of_matches_boundary_reference():
    rng = random.Random(1516)
    for M in constraint_magmas():
        for degree in (0, 1, 2, 3):
            if M.m ** (degree + 1) > 1296:
                continue
            for _ in range(4):
                vals = tuple(rng.randint(-3, 3) for _ in range(M.m ** degree))
                f = homology.Cochain(M.m, degree, vals)
                assert homology.coboundary_of(M, f) == reference_coboundary(M, f)


def test_coboundary_preimage_matches_reference():
    rng = random.Random(1517)
    solvable = set()
    for M in constraint_magmas():
        for degree in (1, 2, 3):
            if M.m ** (2 * degree - 1) > 4096:
                continue
            for _ in range(4):
                g = tuple(rng.randint(-3, 3) for _ in range(M.m ** (degree - 1)))
                f = list(reference_coboundary(M, homology.Cochain(M.m, degree - 1, g)).values)
                for _ in range(rng.randint(0, 1)):
                    f[rng.randrange(len(f))] += 1
                f = homology.Cochain(M.m, degree, tuple(f))
                got = homology.coboundary_preimage(M, f)
                assert got == reference_preimage(M, f)
                solvable.add(got is not None)
    assert solvable == {True, False}


def test_cochain_rejects_bad_carrier_and_degree():
    for m, degree, values in ((1, -1, (5,)), (0, 0, (5,)), (0, 2, ())):
        with pytest.raises(DomainError):
            homology.Cochain(m, degree, values)


def test_cocycle_space_and_preimage_reject_bad_degrees():
    with pytest.raises(DomainError):
        homology.cocycle_space(A2, -1)
    with pytest.raises(DomainError, match="cochain degree must be an integer >= 0, got -1"):
        homology.cochain_from_function(magma.dihedral_quandle(3), -1, lambda: 0)
    with pytest.raises(DomainError):
        homology.coboundary_preimage(magma.dihedral_quandle(3), homology.Cochain(3, 0, (1,)))


def test_coboundaries_need_the_same_carrier():
    d3 = magma.dihedral_quandle(3)
    with pytest.raises(DomainError, match="same carrier"):
        homology.coboundary_of(d3, homology.Cochain(4, 1, (0, 1, 2, 3)))
    with pytest.raises(DomainError, match="same carrier"):
        homology.coboundary_preimage(d3, homology.Cochain(4, 2, (0,) * 16))


def test_coboundary_preimage_memory_guard(monkeypatch):
    f = homology.psi(1, 3)
    need = 8 * 8 * 64  # the dense 8 x 64 coboundary matrix on A_3
    monkeypatch.setenv("LDLAB_MAX_MEM", str(need - 1))
    with pytest.raises(ResourceError, match="coboundary matrix"):
        homology.coboundary_preimage(A3, f)
    monkeypatch.setenv("LDLAB_MAX_MEM", str(need))
    assert homology.coboundary_preimage(A3, f) is not None
