"""Set-theoretic solutions, birack laws, and the exported 0/1 matrices."""

import random
from itertools import product

import pytest

from ldlab.errors import DomainError
from ldlab import laver, magma, ybe

# Published 4x4 matrix for the table on {1, 2}; its column 3 (input (2, 1))
# carries the one at row 1 where the pair map (a, b) -> (a*b, a) puts it at
# row 2 = pair (1, 2).  Kept verbatim so the diff stays documented.
PRINTED_A1 = (
    (0, 0, 1, 0),
    (0, 0, 0, 0),
    (1, 1, 0, 0),
    (0, 0, 0, 1),
)

# Published 16x16 matrix for the table on {1..4}.  Columns 9..12 (inputs
# (3, b)) carry their ones at row 13 = pair (4, 1); the pair map sends every
# (3, b) to (4, 3), which is row 15.  The other 12 columns match the map.
PRINTED_A2 = (
    (0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
    (0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
    (0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
    (0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0),
    (1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
    (0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
    (0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
    (0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0),
    (0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
    (0, 0, 0, 0, 1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0),
    (0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
    (0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0),
    (0, 1, 0, 1, 0, 0, 0, 0, 1, 1, 1, 1, 0, 0, 0, 0),
    (0, 0, 0, 0, 0, 1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0),
    (0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
    (0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1),
)

# Matrix forced by the pair map on the table for {1, 2}, written out by hand:
# (1,1)->(2,1)=row 3, (1,2)->(2,1)=row 3, (2,1)->(1,2)=row 2, (2,2)->(2,2)=row 4.
FORMULA_A1 = (
    (0, 0, 0, 0),
    (0, 0, 1, 0),
    (1, 1, 0, 0),
    (0, 0, 0, 1),
)


def laver_magma(n):
    return laver.build_laver_table(n).as_magma()


def random_magma(rng, m):
    rows = tuple(tuple(rng.randint(1, m) for _ in range(m)) for _ in range(m))
    return magma.FiniteMagma(m, rows)


def right_projection(m):
    """x*y = y; its pair map is the switch."""
    return magma.FiniteMagma(m, tuple(tuple(range(1, m + 1)) for _ in range(m)))


def recheck_braid_triple(rho, a, b, c):
    """Recompute both composites on one triple, independently of the checker."""
    def r12(t):
        u = rho.rho(t[0], t[1])
        return (u[0], u[1], t[2])

    def r23(t):
        u = rho.rho(t[1], t[2])
        return (t[0], u[0], u[1])

    return r12(r23(r12((a, b, c)))), r23(r12(r23((a, b, c))))


def tuple_braid_check(rho):
    """Reference scan: both composites as 3-tuples, triple by triple."""
    m = rho.m
    P = rho.pairs

    def r12(t):
        u = P[(t[0] - 1) * m + (t[1] - 1)]
        return (u[0], u[1], t[2])

    def r23(t):
        u = P[(t[1] - 1) * m + (t[2] - 1)]
        return (t[0], u[0], u[1])

    for t in product(range(1, m + 1), repeat=3):
        if r12(r23(r12(t))) != r23(r12(r23(t))):
            return magma.LawCheck(False, t)
    return magma.LawCheck(True, None)


def pseudo_solutions(rng, count):
    """Random pair maps, and rack solutions with a few entries overwritten
    so that the first failure can sit anywhere in the scan."""
    for _ in range(count):
        m = rng.randint(1, 7)
        if rng.random() < 0.3:
            yield ybe.SetSolution(m, tuple((rng.randint(1, m), rng.randint(1, m))
                                           for _ in range(m * m)))
            continue
        base = rng.choice((magma.dihedral_quandle(m), right_projection(m),
                           random_magma(rng, m)))
        pairs = list(ybe.rack_to_solution(base).pairs)
        for _ in range(rng.randint(0, 2)):
            pairs[rng.randrange(m * m)] = (rng.randint(1, m), rng.randint(1, m))
        yield ybe.SetSolution(m, tuple(pairs))


def test_braid_equation_matches_tuple_reference():
    rng = random.Random(409)
    outcomes = set()
    for rho in pseudo_solutions(rng, 400):
        check = ybe.satisfies_braid_equation(rho)
        assert check == tuple_braid_check(rho)
        outcomes.add(check.ok)
    assert outcomes == {True, False}


def test_braid_equation_matches_tuple_reference_on_benchmark_tables():
    # the table sizes of the racks benchmark, with other seeds
    rng = random.Random(27)
    tables = [laver_magma(n) for n in range(1, 6)]
    tables += [magma.dihedral_quandle(k) for k in (5, 9, 15, 27)]
    tables += [magma.affine_quandle(m, t) for m, t in ((7, 3), (11, 2), (13, 5))]
    for m in (12, 20, 28):
        pi = list(range(1, m + 1))
        rng.shuffle(pi)
        tables.append(magma.from_rows([pi] * m))
    tables += [random_magma(rng, m) for m in (6, 8, 10, 12)]
    for M in tables:
        rho = ybe.rack_to_solution(M)
        assert ybe.satisfies_braid_equation(rho) == tuple_braid_check(rho)


def test_solution_validation():
    with pytest.raises(DomainError):
        ybe.SetSolution(2, ((1, 1),) * 3)
    with pytest.raises(DomainError):
        ybe.SetSolution(2, ((1, 1), (1, 2), (2, 3), (2, 2)))
    with pytest.raises(DomainError):
        ybe.SetSolution(2, ((1, 1, 1), (1, 2), (2, 1), (2, 2)))
    with pytest.raises(DomainError):
        ybe.SetSolution(0, ())
    sol = ybe.identity_solution(3)
    with pytest.raises(DomainError):
        sol.rho(0, 1)
    with pytest.raises(DomainError):
        sol.rho(1, 4)


def test_rack_to_solution_pinned():
    a1 = ybe.rack_to_solution(laver_magma(1))
    assert a1.rho(1, 2) == (2, 1)
    a2 = ybe.rack_to_solution(laver_magma(2))
    for b in range(1, 5):
        assert a2.rho(3, b) == (4, 3)
    assert ybe.rack_to_solution(right_projection(4)) == ybe.switch_solution(4)


def test_solution_ops_recover_the_map():
    a2 = ybe.rack_to_solution(laver_magma(2))
    opl, opr = ybe.solution_ops(a2)
    assert opl.op == laver_magma(2).op
    assert opr.op == ybe.first_projection(4).op
    assert ybe.ops_to_solution(opl, opr) == a2
    with pytest.raises(DomainError):
        ybe.ops_to_solution(opl, ybe.first_projection(3))


def test_braid_equation_on_racks():
    for M in (magma.dihedral_quandle(3), magma.dihedral_quandle(5),
              magma.affine_quandle(5, 2), right_projection(3)):
        assert ybe.satisfies_braid_equation(ybe.rack_to_solution(M))
    assert ybe.satisfies_braid_equation(ybe.identity_solution(4))
    assert ybe.satisfies_braid_equation(ybe.switch_solution(4))


def test_braid_equation_fails_with_verified_witness():
    bad = laver.build_general_table(3).as_magma()  # size 3 is not LD
    check = ybe.satisfies_braid_equation(ybe.rack_to_solution(bad))
    assert not check
    a, b, c = check.witness
    lhs, rhs = recheck_braid_triple(ybe.rack_to_solution(bad), a, b, c)
    assert lhs != rhs


def test_braid_equation_iff_ld_for_pair_maps():
    rng = random.Random(20260816)
    for _ in range(200):
        m = rng.randint(1, 4)
        M = random_magma(rng, m)
        sol = ybe.rack_to_solution(M)
        assert ybe.satisfies_braid_equation(sol).ok == magma.is_ld(M).ok


def test_laver_solutions_up_to_n6():
    for n in range(7):
        sol = ybe.rack_to_solution(laver_magma(n))
        assert ybe.satisfies_braid_equation(sol)
        assert ybe.is_invertible(sol) == (n == 0)


def test_is_invertible():
    assert ybe.is_invertible(ybe.identity_solution(5))
    assert ybe.is_invertible(ybe.switch_solution(5))
    for M in (magma.dihedral_quandle(4), magma.affine_quandle(7, 3)):
        assert ybe.is_invertible(ybe.rack_to_solution(M))
    rng = random.Random(99)
    for _ in range(150):
        M = random_magma(rng, rng.randint(1, 4))
        sol = ybe.rack_to_solution(M)
        assert ybe.is_invertible(sol) == magma.is_left_cancellative(M)


def reference_birack_check(op1, op2):
    """The three exchange laws written out triple by triple, then the
    translation demands, each failure named as `birack_laws_check` names it."""
    m = op1.m
    L = op1.op
    R = op2.op
    for x in range(1, m + 1):
        lx = L[x - 1]
        rx = R[x - 1]
        for y in range(1, m + 1):
            xy_l = lx[y - 1]
            xy_r = rx[y - 1]
            l_xyl = L[xy_l - 1]
            r_xyl = R[xy_l - 1]
            l_xyr = L[xy_r - 1]
            r_xyr = R[xy_r - 1]
            ly = L[y - 1]
            ry = R[y - 1]
            for z in range(1, m + 1):
                mid = l_xyr[z - 1]                      # (x<|y) |> z
                yl = ly[z - 1]                          # y|>z
                yr = ry[z - 1]                          # y<|z
                xl = rx[yl - 1]                         # x <| (y|>z)
                if l_xyl[mid - 1] != lx[yl - 1]:
                    return ybe.BirackCheck(False, "exchange-1", (x, y, z))
                if r_xyl[mid - 1] != L[xl - 1][yr - 1]:
                    return ybe.BirackCheck(False, "exchange-2", (x, y, z))
                if r_xyr[z - 1] != R[xl - 1][yr - 1]:
                    return ybe.BirackCheck(False, "exchange-3", (x, y, z))
    for x in range(1, m + 1):
        row = L[x - 1]
        if len(set(row)) != m:
            seen = {}
            for b, v in enumerate(row, start=1):
                if v in seen:
                    return ybe.BirackCheck(False, "left-translations", (x, seen[v], b))
                seen[v] = b
    for y in range(1, m + 1):
        col = [R[x - 1][y - 1] for x in range(1, m + 1)]
        if len(set(col)) != m:
            seen = {}
            for a, v in enumerate(col, start=1):
                if v in seen:
                    return ybe.BirackCheck(False, "right-translations", (seen[v], a, y))
                seen[v] = a
    return ybe.BirackCheck(True, None, None)


def perturbed(rng, M):
    """M with up to two entries overwritten."""
    rows = [list(r) for r in M.op]
    for _ in range(rng.randint(0, 2)):
        rows[rng.randrange(M.m)][rng.randrange(M.m)] = rng.randint(1, M.m)
    return magma.FiniteMagma(M.m, tuple(tuple(r) for r in rows))


def op_pairs(rng, count):
    """(|>, <|) pairs built from biracks with a few entries changed, so that
    every exchange law and both translation demands fail somewhere."""
    for _ in range(count):
        m = rng.randint(1, 5)
        sol = rng.choice((ybe.identity_solution(m), ybe.switch_solution(m),
                          ybe.rack_to_solution(magma.dihedral_quandle(m)),
                          ybe.rack_to_solution(right_projection(m)),
                          ybe.rack_to_solution(random_magma(rng, m))))
        op1, op2 = ybe.solution_ops(sol)
        yield perturbed(rng, op1), perturbed(rng, op2)


def test_birack_laws_match_written_out_reference():
    rng = random.Random(1515)
    outcomes = set()
    for op1, op2 in op_pairs(rng, 1500):
        check = ybe.birack_laws_check(op1, op2)
        want = reference_birack_check(op1, op2)
        assert check == want  # ok, failure and witness
        assert ybe.exchange_laws_hold(op1, op2) == (
            want.ok or want.failure in ("left-translations", "right-translations"))
        outcomes.add(check.failure)
    assert outcomes == {None, "exchange-1", "exchange-2", "exchange-3",
                        "left-translations", "right-translations"}


def test_birack_laws_pinned():
    ok = ybe.birack_laws_check(magma.dihedral_quandle(3), ybe.first_projection(3))
    assert ok and ok.failure is None
    # laws hold for the table on {1, 2} but its row 1 is constant
    check = ybe.birack_laws_check(laver_magma(1), ybe.first_projection(2))
    assert not check
    assert check.failure == "left-translations"
    x, b1, b2 = check.witness
    t = laver_magma(1)
    assert b1 != b2 and t.mul(x, b1) == t.mul(x, b2)
    switch_l = right_projection(3)
    assert ybe.birack_laws_check(switch_l, ybe.first_projection(3))
    with pytest.raises(DomainError):
        ybe.birack_laws_check(right_projection(2), ybe.first_projection(3))


def test_exchange_failure_witness_is_verified():
    bad = laver.build_general_table(3).as_magma()
    check = ybe.birack_laws_check(bad, ybe.first_projection(3))
    assert not check
    assert check.failure == "exchange-1"
    x, y, z = check.witness
    assert bad.mul(bad.mul(x, y), bad.mul(x, z)) != bad.mul(x, bad.mul(y, z))


def test_rack_iff_birack_with_trivial_second_op():
    # exhaustive over every table on {1, 2}
    for rows in product(product((1, 2), repeat=2), repeat=2):
        M = magma.FiniteMagma(2, rows)
        got = ybe.birack_laws_check(M, ybe.first_projection(2)).ok
        assert got == magma.is_rack(M)
    rng = random.Random(4242)
    for _ in range(300):
        M = random_magma(rng, rng.randint(3, 5))
        got = ybe.birack_laws_check(M, ybe.first_projection(M.m)).ok
        assert got == magma.is_rack(M)
    # random tables are almost never racks; make sure the true side ran too
    for M in (magma.dihedral_quandle(4), magma.affine_quandle(5, 3),
              magma.dihedral_quandle(5)):
        assert ybe.birack_laws_check(M, ybe.first_projection(M.m))


def test_exchange_laws_match_braid_equation():
    # exhaustive over all pairs of tables on {1, 2}
    tables = [magma.FiniteMagma(2, rows)
              for rows in product(product((1, 2), repeat=2), repeat=2)]
    for op1 in tables:
        for op2 in tables:
            laws = ybe.exchange_laws_hold(op1, op2)
            braid = ybe.satisfies_braid_equation(ybe.ops_to_solution(op1, op2)).ok
            assert laws == braid
    rng = random.Random(777)
    for _ in range(300):
        m = 3
        op1, op2 = random_magma(rng, m), random_magma(rng, m)
        laws = ybe.exchange_laws_hold(op1, op2)
        braid = ybe.satisfies_braid_equation(ybe.ops_to_solution(op1, op2)).ok
        assert laws == braid


def test_solutions_roundtrip_through_their_ops():
    sols = [ybe.identity_solution(3), ybe.switch_solution(4),
            ybe.rack_to_solution(magma.dihedral_quandle(5)),
            ybe.rack_to_solution(laver_magma(2))]
    for sol in sols:
        opl, opr = ybe.solution_ops(sol)
        assert ybe.exchange_laws_hold(opl, opr)
        assert ybe.ops_to_solution(opl, opr) == sol


def test_matrix_a1_against_formula_and_print():
    dense = ybe.dense_matrix(ybe.rack_to_solution(laver_magma(1)))
    assert dense == FORMULA_A1
    diff_cols = {c + 1 for c in range(4)
                 for r in range(4) if dense[r][c] != PRINTED_A1[r][c]}
    assert diff_cols == {3}
    assert dense[1][2] == 1 and PRINTED_A1[0][2] == 1


def test_matrix_a2_against_formula_and_print():
    dense = ybe.dense_matrix(ybe.rack_to_solution(laver_magma(2)))
    diff_cols = sorted({c + 1 for c in range(16)
                        for r in range(16) if dense[r][c] != PRINTED_A2[r][c]})
    assert diff_cols == [9, 10, 11, 12]
    for col in (9, 10, 11, 12):
        assert dense[14][col - 1] == 1        # pair (4, 3)
        assert PRINTED_A2[12][col - 1] == 1   # pair (4, 1)
    for col in range(1, 17):
        if col not in (9, 10, 11, 12):
            got = tuple(dense[r][col - 1] for r in range(16))
            want = tuple(PRINTED_A2[r][col - 1] for r in range(16))
            assert got == want
    # one entry per input pair forces 2^(2n) ones; the printed matrix has them
    assert sum(map(sum, PRINTED_A2)) == 16
    assert sum(map(sum, dense)) == 16


def test_matrix_shape_and_counts():
    for M in (magma.dihedral_quandle(3), laver_magma(2), magma.affine_quandle(4, 3)):
        sol = ybe.rack_to_solution(M)
        entries = ybe.matrix_entries(sol)
        assert len(entries) == M.m * M.m
        assert sorted(c for _, c in entries) == list(range(1, M.m * M.m + 1))
        assert [c for _, c in entries] == sorted(c for _, c in entries)


def test_export_formats():
    a1 = ybe.rack_to_solution(laver_magma(1))
    assert ybe.export_matrix(a1, "coo") == "3 1 1\n3 2 1\n2 3 1\n4 4 1"
    ident = ybe.identity_solution(2)
    assert ybe.export_matrix(ident, "csv") == "1,0,0,0\n0,1,0,0\n0,0,1,0\n0,0,0,1"
    csv = ybe.export_matrix(a1, "csv")
    parsed = tuple(tuple(int(v) for v in line.split(",")) for line in csv.split("\n"))
    assert parsed == ybe.dense_matrix(a1)
    with pytest.raises(DomainError):
        ybe.export_matrix(a1, "dense")
