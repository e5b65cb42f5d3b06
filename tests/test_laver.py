"""Table construction, periods, projections."""

import pytest

from ldlab.errors import DomainError, ResourceError
from ldlab import laver

# The five smallest tables, frozen entry by entry.
A0 = [[1]]

A1 = [[2, 2],
      [1, 2]]

A2 = [[2, 4, 2, 4],
      [3, 4, 3, 4],
      [4, 4, 4, 4],
      [1, 2, 3, 4]]

A3 = [[2, 4, 6, 8, 2, 4, 6, 8],
      [3, 4, 7, 8, 3, 4, 7, 8],
      [4, 8, 4, 8, 4, 8, 4, 8],
      [5, 6, 7, 8, 5, 6, 7, 8],
      [6, 8, 6, 8, 6, 8, 6, 8],
      [7, 8, 7, 8, 7, 8, 7, 8],
      [8, 8, 8, 8, 8, 8, 8, 8],
      [1, 2, 3, 4, 5, 6, 7, 8]]

A4 = [[2, 12, 14, 16, 2, 12, 14, 16, 2, 12, 14, 16, 2, 12, 14, 16],
      [3, 12, 15, 16, 3, 12, 15, 16, 3, 12, 15, 16, 3, 12, 15, 16],
      [4, 8, 12, 16, 4, 8, 12, 16, 4, 8, 12, 16, 4, 8, 12, 16],
      [5, 6, 7, 8, 13, 14, 15, 16, 5, 6, 7, 8, 13, 14, 15, 16],
      [6, 8, 14, 16, 6, 8, 14, 16, 6, 8, 14, 16, 6, 8, 14, 16],
      [7, 8, 15, 16, 7, 8, 15, 16, 7, 8, 15, 16, 7, 8, 15, 16],
      [8, 16, 8, 16, 8, 16, 8, 16, 8, 16, 8, 16, 8, 16, 8, 16],
      [9, 10, 11, 12, 13, 14, 15, 16, 9, 10, 11, 12, 13, 14, 15, 16],
      [10, 12, 14, 16, 10, 12, 14, 16, 10, 12, 14, 16, 10, 12, 14, 16],
      [11, 12, 15, 16, 11, 12, 15, 16, 11, 12, 15, 16, 11, 12, 15, 16],
      [12, 16, 12, 16, 12, 16, 12, 16, 12, 16, 12, 16, 12, 16, 12, 16],
      [13, 14, 15, 16, 13, 14, 15, 16, 13, 14, 15, 16, 13, 14, 15, 16],
      [14, 16, 14, 16, 14, 16, 14, 16, 14, 16, 14, 16, 14, 16, 14, 16],
      [15, 16, 15, 16, 15, 16, 15, 16, 15, 16, 15, 16, 15, 16, 15, 16],
      [16, 16, 16, 16, 16, 16, 16, 16, 16, 16, 16, 16, 16, 16, 16, 16],
      [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16]]

FROZEN = {0: A0, 1: A1, 2: A2, 3: A3, 4: A4}


@pytest.mark.parametrize("n", range(5))
def test_frozen_tables(n):
    assert laver.build_laver_table(n).dense() == FROZEN[n]


@pytest.mark.parametrize("n", range(7))
def test_laver_agrees_with_general_fill(n):
    compact = laver.build_laver_table(n)
    plain = laver.build_general_table(1 << n)
    assert compact.dense() == plain.dense()


@pytest.mark.parametrize("n", range(9))
def test_row_structure(n):
    table = laver.build_laver_table(n)
    N = table.size
    for p in range(1, N + 1):
        pi = laver.period(table, p)
        assert pi & (pi - 1) == 0  # power of 2
        row = table.row(p)
        head = row[:pi]
        assert head == sorted(set(head))  # strictly increasing
        assert head[-1] == N
        assert all(row[q] == row[q % pi] for q in range(N))
        assert row.index(N) == pi - 1


def test_period_examples():
    for n, expected in [(0, 1), (1, 1), (2, 2), (3, 4), (4, 4)]:
        table = laver.build_laver_table(n)
        assert laver.period(table, 1) == expected
    for n in range(1, 9):
        table = laver.build_laver_table(n)
        assert laver.period(table, table.size - 1) == 1
        assert laver.period(table, table.size) == table.size


def test_period_row1_monotone():
    values = [laver.period(laver.build_laver_table(n), 1) for n in range(9)]
    assert values == sorted(values)
    assert values == [1, 1, 2, 4, 4, 8, 8, 8, 8]
    # row 1 is never slower than row 2; strict at n in {1, 7, 8}
    row2 = [laver.period(laver.build_laver_table(n), 2) for n in range(1, 9)]
    assert row2 == [2, 2, 4, 4, 8, 8, 16, 16]
    for pi1, pi2 in zip(values[1:], row2):
        assert pi1 <= pi2


def test_general_table_recurrence():
    # p*1 = p+1 mod N, and p*q = (p*(q-1))*(p+1 mod N) for q >= 2.
    for N in range(1, 33):
        t = laver.build_general_table(N)
        for p in range(1, N + 1):
            assert t.op(p, 1) == p % N + 1
            for q in range(2, N + 1):
                assert t.op(p, q) == t.op(t.op(p, q - 1), p % N + 1)


def test_general_table_identity_instances():
    # p*(q*1) = (p*q)*(p*1) whenever q*1 does not wrap (q < N); the wrap
    # instance is unsatisfiable in general: witness N=3, p=1, q=3.
    for N in (2, 3, 5, 6, 12):
        t = laver.build_general_table(N)
        for p in range(1, N + 1):
            for q in range(1, N):
                assert t.op(p, t.op(q, 1)) == t.op(t.op(p, q), t.op(p, 1))
    t3 = laver.build_general_table(3)
    assert t3.dense() == [[2, 3, 2], [3, 3, 3], [1, 2, 3]]
    assert t3.op(1, t3.op(3, 1)) != t3.op(t3.op(1, 3), t3.op(1, 1))


def test_full_identity_for_powers_of_two():
    for n in range(0, 6):
        t = laver.build_general_table(1 << n)
        N = t.N
        for p in range(1, N + 1):
            for q in range(1, N + 1):
                assert t.op(p, t.op(q, 1)) == t.op(t.op(p, q), t.op(p, 1))


def test_ld_dichotomy():
    for N in range(1, 65):
        ok, witness = laver.is_ld_for_size(N)
        assert ok == (N & (N - 1) == 0)
        if not ok:
            t = laver.build_general_table(N)
            p, q, r = witness
            assert t.op(p, t.op(q, r)) != t.op(t.op(p, q), t.op(p, r))


def test_ld_witnesses_pinned():
    # the lexicographically first failing triple
    expected = {10: (1, 2, 3), 12: (3, 1, 4), 22: (2, 1, 2), 30: (3, 1, 2),
                48: (3, 4, 13), 60: (3, 1, 4)}
    for N, witness in expected.items():
        assert laver.is_ld_for_size(N) == (False, witness)


def test_projection_homomorphism():
    for n in range(1, 6):
        big = laver.build_laver_table(n)
        small = laver.build_laver_table(n - 1)
        seen = set()
        for x in range(1, big.size + 1):
            seen.add(laver.project(n, x))
            for y in range(1, big.size + 1):
                assert laver.project(n, big.op(x, y)) == small.op(
                    laver.project(n, x), laver.project(n, y))
        assert seen == set(range(1, small.size + 1))


def test_projection_value_chain():
    assert [laver.project(4, x) for x in (2, 12, 14, 16)] == [2, 4, 6, 8]
    assert [laver.project(3, x) for x in (2, 4, 6, 8)] == [2, 4, 2, 4]
    row3 = laver.build_laver_table(3).row(1)
    assert sorted(set(row3)) == [2, 4, 6, 8]


def test_period_doubling():
    for n in range(1, 9):
        assert laver.period_doubling_check(n)


def test_left_powers():
    t = laver.build_laver_table(2)
    assert laver.left_powers(t, 1, 4) == [1, 2, 3, 4]
    # the length-2^n left power of 1 closes back to 1*...: 1_[N] = N, then N*1 = 1
    for n in range(0, 6):
        table = laver.build_laver_table(n)
        powers = laver.left_powers(table, 1, table.size + 1)
        assert powers[table.size - 1] == table.size
        assert powers[table.size] == 1


def test_input_validation():
    with pytest.raises(DomainError):
        laver.build_general_table(0)
    with pytest.raises(DomainError):
        laver.build_laver_table(-1)
    with pytest.raises(ResourceError):
        laver.build_laver_table(14)
    t = laver.build_laver_table(2)
    with pytest.raises(DomainError):
        t.op(0, 1)
    with pytest.raises(DomainError):
        t.op(1, 0)
    with pytest.raises(DomainError, match="out of range 1..4"):
        t.op(1, 5)
    with pytest.raises(DomainError):
        laver.project(1, 3)
    with pytest.raises(DomainError):
        laver.left_powers(t, 1, 0)
    for x, k in ((100, 1), (0, 1), (5, 3)):
        with pytest.raises(DomainError):
            laver.left_powers(t, x, k)
    with pytest.raises(DomainError):
        laver.left_powers(laver.build_general_table(3), 4, 1)


def test_default_cap_admits_a13():
    # the other side of the cap: build_laver_table(14) raises above
    table = laver.build_laver_table(13)
    assert table.size == 8192
    assert table.row(8191) == [8192] * 8192


def test_dense_respects_memory_cap(monkeypatch):
    monkeypatch.setenv("LDLAB_MAX_MEM", "64")
    t = laver.build_laver_table(3, max_n=13)
    with pytest.raises(ResourceError):
        t.dense()


def test_compact_rows_large_n():
    table = laver.build_laver_table(10)
    assert table.size == 1024
    assert laver.period(table, table.size) == table.size
    assert table.op(1, 1) == 2
    assert table.op(table.size, 5) == 5
