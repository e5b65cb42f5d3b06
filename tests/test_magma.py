"""Law predicates, witnesses, and the rack families."""

import random

import pytest

from ldlab.errors import AmbiguousInverseError, DomainError, ResourceError
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


def test_numpy_and_loop_paths_agree():
    rng = random.Random(7)
    for _ in range(20):
        m = 4
        rows = [[rng.randrange(1, m + 1) for _ in range(m)] for _ in range(m)]
        M = magma.from_rows(rows)
        big = magma.FiniteMagma(M.m, M.op)
        loop = magma.is_ld(M)
        forced = magma._NUMPY_CUTOFF
        try:
            magma._NUMPY_CUTOFF = 1
            vec = magma.is_ld(big)
        finally:
            magma._NUMPY_CUTOFF = forced
        assert loop.ok == vec.ok
        # laver.is_ld_for_size returns whichever branch runs, so both must
        # report the same (lexicographically first) failing triple
        assert vec.witness == loop.witness
        if not loop.ok:
            x, y, z = vec.witness
            assert M.mul(x, M.mul(y, z)) != M.mul(M.mul(x, y), M.mul(x, z))


def test_numpy_scan_respects_memory_cap(monkeypatch):
    # the numpy branch builds m**3 arrays; the loop branch allocates nothing
    monkeypatch.setenv("LDLAB_MAX_MEM", "100000")
    assert magma._NUMPY_CUTOFF == 24
    with pytest.raises(ResourceError, match="LDLAB_MAX_MEM"):
        magma.is_ld(magma.dihedral_quandle(24))
    assert magma.is_ld(magma.dihedral_quandle(23))


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
