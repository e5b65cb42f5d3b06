"""Law predicates, witnesses, and the rack families."""

import random

import pytest

from ldlab.errors import AmbiguousInverseError, DomainError
from ldlab import laver, magma


def test_lawcheck_truthiness():
    assert magma.LawCheck(True, None)
    assert not magma.LawCheck(False, (1, 1, 1))


def test_is_ld_on_laver_tables():
    for n in range(5):
        assert magma.is_ld(laver.build_laver_table(n).as_magma())


def test_is_ld_witness():
    # x*y = x is right projection: x*(y*z) = x, (x*y)*(x*z) = x, LD holds.
    proj = magma.from_rows([[1, 1, 1], [2, 2, 2], [3, 3, 3]])
    assert magma.is_ld(proj)
    skew = magma.from_rows([[2, 1, 1], [3, 3, 1], [2, 2, 2]])
    check = magma.is_ld(skew)
    assert not check
    x, y, z = check.witness
    assert skew.mul(x, skew.mul(y, z)) != skew.mul(skew.mul(x, y), skew.mul(x, z))


def reference_is_ld(M):
    """The plain triple loop over x, y, z in lexicographic order."""
    op = M.op
    for x in range(1, M.m + 1):
        rx = op[x - 1]
        for y in range(1, M.m + 1):
            ry = op[y - 1]
            rxy = op[rx[y - 1] - 1]
            for z in range(1, M.m + 1):
                if rx[ry[z - 1] - 1] != rxy[rx[z - 1] - 1]:
                    return magma.LawCheck(False, (x, y, z))
    return magma.LawCheck(True, None)


def test_is_ld_matches_reference():
    rng = random.Random(7)
    tables = [magma.from_rows([[rng.randrange(1, m + 1) for _ in range(m)]
                               for _ in range(m)])
              for m in range(1, 41) for _ in range(3)]
    for m in range(1, 41, 3):
        pi = list(range(1, m + 1))
        rng.shuffle(pi)
        tables.append(magma.from_rows([pi] * m))
    for k in range(2, 41, 2):
        # one changed entry of a quandle: the first failure comes late
        rows = [list(r) for r in magma.dihedral_quandle(k).op]
        rows[rng.randrange(k)][rng.randrange(k)] = rng.randrange(1, k + 1)
        tables.append(magma.from_rows(rows))
    tables += [magma.dihedral_quandle(k) for k in range(24, 34)]
    tables += [laver.build_general_table(N).as_magma() for N in range(18, 31)]
    verdicts = set()
    for M in tables:
        check = magma.is_ld(M)
        # laver.is_ld_for_size reports this witness, so it must be the
        # lexicographically first failing triple
        assert check == reference_is_ld(M)
        verdicts.add(check.ok)
    assert verdicts == {True, False}


def test_is_ld_allocates_no_cube(monkeypatch):
    # the scan keeps one getter per row, nothing of size m**3
    monkeypatch.setenv("LDLAB_MAX_MEM", "100000")
    assert magma.is_ld(magma.dihedral_quandle(25))


def test_laver_tables_are_not_racks():
    # row 2^n - 1 is constant, so left translations are far from bijective
    for n in range(1, 5):
        M = laver.build_laver_table(n).as_magma()
        assert magma.is_ld(M)
        assert not magma.is_left_cancellative(M)
        assert not magma.is_rack(M)
        assert not magma.is_quandle(M)
    assert magma.is_rack(laver.build_laver_table(0).as_magma())


def test_dihedral_quandle():
    for k in (1, 2, 3, 4, 5, 8):
        Q = magma.dihedral_quandle(k)
        assert magma.is_quandle(Q)
    Q3 = magma.dihedral_quandle(3)
    assert Q3.mul(1, 1) == 1
    assert Q3.mul(1, 2) == 3
    assert Q3.mul(2, 1) == 3


def test_affine_quandle():
    assert magma.affine_quandle(3, 2).op == magma.dihedral_quandle(3).op
    Q = magma.affine_quandle(5, 3)
    assert magma.is_quandle(Q)
    with pytest.raises(DomainError):
        magma.affine_quandle(4, 2)


def test_conjugation_rack():
    # symmetric group on 3 letters: elements e, (12), (13), (23), (123), (132)
    perms = [(1, 2, 3), (2, 1, 3), (3, 2, 1), (1, 3, 2), (2, 3, 1), (3, 1, 2)]
    index = {p: i + 1 for i, p in enumerate(perms)}
    rows = [[index[tuple(q[p[i] - 1] for i in range(3))] for q in perms] for p in perms]
    R = magma.conjugation_rack(rows)
    assert magma.is_quandle(R)
    # conjugation by the identity fixes everything
    assert all(R.mul(1, b) == b for b in R.elements())
    with pytest.raises(DomainError):
        magma.conjugation_rack([[1, 2], [1, 2]])


def test_rump_law():
    for m in (1, 2, 3, 5):
        right = magma.from_rows([[b for b in range(1, m + 1)] for _ in range(m)])
        assert magma.satisfies_rump_law(right)  # x*y = y: both sides z
        shift = magma.from_rows([[b % m + 1 for b in range(1, m + 1)] for _ in range(m)])
        assert magma.satisfies_rump_law(shift)  # x*y = y+1: both sides z+2
    check = magma.satisfies_rump_law(magma.dihedral_quandle(5))
    assert not check
    x, y, z = check.witness
    Q = magma.dihedral_quandle(5)
    assert Q.mul(Q.mul(x, y), Q.mul(x, z)) != Q.mul(Q.mul(y, x), Q.mul(y, z))


def test_left_inverse_op():
    A1 = laver.build_laver_table(1).as_magma()
    assert magma.left_inverse_op(A1, 1, 1) is None
    with pytest.raises(AmbiguousInverseError):
        magma.left_inverse_op(A1, 1, 2)
    Q = magma.dihedral_quandle(5)
    for a in Q.elements():
        for b in Q.elements():
            c = magma.left_inverse_op(Q, a, b)
            assert Q.mul(a, c) == b


def test_left_translation_table():
    Q = magma.dihedral_quandle(7)
    inv = magma.left_translation_table(Q)
    for a in Q.elements():
        for b in Q.elements():
            assert Q.mul(a, inv.mul(a, b)) == b
            assert inv.mul(a, Q.mul(a, b)) == b
    assert magma.left_translation_table(laver.build_laver_table(2).as_magma()) is None


def test_quandle_terms():
    a, b = magma.gen(1), magma.gen(2)
    t = magma.op_term(magma.op_term(a, b), a)
    assert t.render() == "((a * b) * a)"
    assert t.render(["x", "y"]) == "((x * y) * x)"
    Q = magma.dihedral_quandle(3)
    assert t.evaluate(Q, [1, 2]) == Q.mul(Q.mul(1, 2), 1)
    bar = magma.bar_term(a, b)
    assert bar.render() == "(a \\ b)"
    assert Q.mul(1, bar.evaluate(Q, [1, 2])) == 2
    with pytest.raises(DomainError):
        magma.QuandleTerm("op", left=a)
    with pytest.raises(DomainError):
        magma.QuandleTerm("gen", gen=0)


def test_table_validation():
    with pytest.raises(DomainError):
        magma.from_rows([[1, 2], [3, 1]])
    with pytest.raises(DomainError):
        magma.from_rows([[1, 2]])
    with pytest.raises(DomainError):
        magma.dihedral_quandle(0)
