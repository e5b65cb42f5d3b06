"""End-to-end acceptance gate: one numbered section per delivery criterion.

Large published data blocks (tables, matrices, grids) are shared with the
per-module tests that froze them; this file re-runs every criterion in one
place.  The published period caption at n = 1 contradicts the published
table itself; that test asserts the computed value and pins the caption
value next to it as a known misprint (see that test's comment).
"""

import random
from itertools import combinations, product

import pytest

from test_conjugacy import MU_TABLE
from test_homology import PSI3_GRIDS, grid_rows
from test_laver import FROZEN
from test_order import RANK_TABLE
from test_ybe import PRINTED_A2

from ldlab import braid as br
from ldlab import conjugacy, games, homology, invariants, laver, magma, order, ybe


def b3(*letters):
    return br.from_word(br.BraidWord(3, tuple(letters)))


def W3(*letters):
    return br.BraidWord(3, tuple(letters))


def laver_magma(n):
    return laver.build_laver_table(n).as_magma()


# ------------------------------------------------------------ 1. tables

def test_c1_tables_match_printed_byte_for_byte():
    total = 0
    for n in range(5):
        dense = laver.build_laver_table(n).dense()
        assert [list(row) for row in dense] == FROZEN[n]
        total += len(dense) ** 2
    assert total == 1 + 4 + 16 + 64 + 256


def test_c1_periods():
    assert laver.period(laver.build_laver_table(0), 1) == 1
    assert laver.period(laver.build_laver_table(2), 1) == 2
    assert laver.period(laver.build_laver_table(3), 1) == 4
    assert laver.period(laver.build_laver_table(4), 1) == 4
    for n in range(1, 9):
        t = laver.build_laver_table(n)
        assert laver.period(t, t.size - 1) == 1
        assert laver.period(t, t.size) == t.size


# Published caption value for the period of row 1 at n = 1 (a known misprint).
CAPTION_PERIOD_A1_ROW1 = 2


def test_laver_period_caption_value_at_n1():
    # The published caption lists period 2 for row 1 at n = 1, but the
    # published two-element table itself has 1*1 = 2 = 2^1, so the row
    # reaches the top already at q = 1 (for n = 0, 1, 2, ... the row-1
    # periods run 1, 1, 2, 4, 4, 8, ...).  The computed value is asserted
    # against the published table and the caption value is pinned as the
    # known misprint.
    row1 = FROZEN[1][0]
    from_table = row1.index(2 ** 1) + 1
    assert from_table == 1
    assert laver.period(laver.build_laver_table(1), 1) == from_table
    assert CAPTION_PERIOD_A1_ROW1 != from_table


# --------------------------------------------------------- 2. dichotomy

def test_c2_ld_dichotomy_with_verified_witnesses():
    for N in range(1, 65):
        ok, witness = laver.is_ld_for_size(N)
        assert ok == (N & (N - 1) == 0)
        if not ok:
            t = laver.build_general_table(N)
            p, q, r = witness
            assert t.op(p, t.op(q, r)) != t.op(t.op(p, q), t.op(p, r))


# -------------------------------------------------------- 3. projection

def test_c3_projection_exhaustive_small():
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


def test_c3_projection_sampled_large():
    # every pair of A_6, A_7 and A_8 (86,016 pairs), row by row
    for n in (6, 7, 8):
        big = laver.build_laver_table(n)
        small = laver.build_laver_table(n - 1).dense()
        proj = [laver.project(n, x) for x in range(1, big.size + 1)]
        assert set(proj) == set(range(1, len(small) + 1))
        for p, row in enumerate(big.dense()):
            image = small[proj[p] - 1]
            assert [proj[v - 1] for v in row] == [image[proj[q] - 1] for q in range(big.size)]


def test_c3_caption_chain():
    assert [laver.project(4, x) for x in (2, 12, 14, 16)] == [2, 4, 6, 8]
    assert [laver.project(3, x) for x in (2, 4, 6, 8)] == [2, 4, 2, 4]


# ---------------------------------------------------------- 4. homology

def _carriers():
    yield from (laver_magma(n) for n in range(4))
    yield magma.dihedral_quandle(5)
    yield magma.affine_quandle(8, 3)


def _chain_add(acc, chain):
    for tup, c in chain.items():
        v = acc.get(tup, 0) + c
        if v:
            acc[tup] = v
        else:
            acc.pop(tup, None)


def test_c4_boundaries_square_to_zero():
    for M in _carriers():
        for k in (2, 3, 4):
            for kind in ("*", "0", "rack"):
                for tup in product(range(1, M.m + 1), repeat=k):
                    inner = homology.boundary(M, kind, tup)
                    assert homology.boundary(M, kind, inner) == {}


def test_c4_mixed_boundary_relation():
    # del* del0 + del0 del* = 0 on every basis chain
    for M in _carriers():
        for k in (2, 3, 4):
            if M.m ** k > 4096:
                continue
            for tup in product(range(1, M.m + 1), repeat=k):
                acc = dict(homology.boundary(M, "*", homology.boundary(M, "0", tup)))
                _chain_add(acc, homology.boundary(M, "0", homology.boundary(M, "*", tup)))
                assert acc == {}


def test_c4_contracting_homotopies():
    for n in range(4):
        assert homology.contracting_homotopy_check(laver_magma(n), 3)


# ------------------------------------------------------------- 5. ranks

def test_c5_cocycle_ranks():
    for n in (1, 2, 3, 4):
        assert homology.two_cocycle_space(laver_magma(n))[0] == 2 ** n
    for n, expected in [(1, 3), (2, 13)]:
        assert homology.three_cocycle_rank(laver_magma(n)) == expected
        assert expected == 2 ** (2 * n) - 2 ** n + 1


def test_c5_psi_grids_cocycles_and_preimages():
    A3 = laver_magma(3)
    for q in range(1, 8):
        f = homology.psi(q, 3)
        assert grid_rows(f) == PSI3_GRIDS[q]
        assert homology.is_two_cocycle(f, A3)
        g = homology.coboundary_preimage(A3, f)
        assert g is not None
        assert homology.coboundary_of(A3, g).values == f.values


# --------------------------------------------------------------- 6. YBE

def test_c6_laver_solutions_braid_but_not_invertible():
    for n in range(1, 7):
        sol = ybe.rack_to_solution(laver_magma(n))
        assert ybe.satisfies_braid_equation(sol)
        assert not ybe.is_invertible(sol)


def test_c6_a2_matrix_formula_and_printed_diff():
    sol = ybe.rack_to_solution(laver_magma(2))
    dense = ybe.dense_matrix(sol)
    # formula: the single one in column (a, b) sits at row (a*b, a)
    A2 = laver_magma(2)
    for a in range(1, 5):
        for bb in range(1, 5):
            col = (a - 1) * 4 + bb
            row = (A2.op[a - 1][bb - 1] - 1) * 4 + a
            got = [r + 1 for r in range(16) if dense[r][col - 1] == 1]
            assert got == [row]
    # printed matrix: identical outside the four columns with input (3, b),
    # where the printed one sits at row 13 = (4, 1) instead of 15 = (4, 3)
    for col in range(1, 17):
        mine = tuple(dense[r][col - 1] for r in range(16))
        printed = tuple(PRINTED_A2[r][col - 1] for r in range(16))
        if col in (9, 10, 11, 12):
            assert mine[14] == 1 and printed[12] == 1
            assert mine != printed
        else:
            assert mine == printed


def test_c6_pair_map_braid_equation_iff_ld():
    # exhaustive over every table on up to three elements
    for m in (1, 2, 3):
        for rows in product(product(range(1, m + 1), repeat=m), repeat=m):
            M = magma.FiniteMagma(m, rows)
            sol = ybe.rack_to_solution(M)
            assert ybe.satisfies_braid_equation(sol).ok == magma.is_ld(M).ok
    rng = random.Random(20260816)
    for _ in range(500):
        rows = tuple(tuple(rng.randint(1, 4) for _ in range(4))
                     for _ in range(4))
        M = magma.FiniteMagma(4, rows)
        sol = ybe.rack_to_solution(M)
        assert ybe.satisfies_braid_equation(sol).ok == magma.is_ld(M).ok


# ----------------------------------------------------- 7. ordering core

def test_c7_generator_chain_in_bp4():
    s = [br.sigma(4, i) for i in (1, 2, 3)]
    assert order.compare_flipped(s[0], s[1], 4) == "<"
    assert order.compare_flipped(s[1], s[2], 4) == "<"


def test_c7_bp3_is_the_segment_below_sigma3():
    embedded = {br.embed(x, 4) for _, x in br.positive_braids_up_to(3, 5)}
    s3 = br.sigma(4, 3)
    for _, beta in br.positive_braids_up_to(4, 5):
        below = order.compare_flipped(beta, s3, 4) == "<"
        assert below == (beta in embedded)


def test_c7_growth_under_positive_letters():
    rng = random.Random(2603)
    for _ in range(1000):
        n = rng.choice((3, 4))
        w = tuple(rng.choice((1, -1)) * rng.randint(1, n - 1)
                  for _ in range(rng.randint(0, 8)))
        i = rng.randint(1, n - 1)
        assert order.compare_D(br.BraidWord(n, w),
                               br.BraidWord(n, (i,) + w), n) == "<"


def test_c7_subword_property():
    rng = random.Random(2604)
    for _ in range(1000):
        n = rng.choice((3, 4))
        w = tuple(rng.randint(1, n - 1) for _ in range(rng.randint(1, 8)))
        k = rng.randrange(len(w))
        assert order.compare_D(br.BraidWord(n, w[:k] + w[k + 1:]),
                               br.BraidWord(n, w), n) == "<"


# ----------------------------------------------------- 8. ordinal ranks

PRINTED_RANKS = ["0", "1", "2", "w", "w+1", "w+2", "w*2", "w*3",
                 "w^2", "w^2+1", "w^2+w", "w^2*2", "w^2*2+w", "w^2*2+w*2",
                 "w^2*2+w*3", "w^2*3", "w^2*3+w", "w^3", "w^3+1", "w^3+2"]


def test_c8_printed_rank_rows():
    rendered = {order.render_ordinal(order.rank_bp3(b3(*word))): word
                for word, _ in RANK_TABLE}
    for word, text in RANK_TABLE:
        assert order.render_ordinal(order.rank_bp3(b3(*word))) == text
    for text in PRINTED_RANKS:
        assert text in rendered


def test_c8_rank_order_matches_flipped_comparison():
    braids = [beta for _, beta in br.positive_braids_up_to(3, 7)]
    ranks = [order.rank_bp3(beta) for beta in braids]
    keys = [order.flipped_key(beta, 3) for beta in braids]
    for i, j in combinations(range(len(braids)), 2):
        by_key = "<" if keys[i] < keys[j] else ">" if keys[i] > keys[j] else "="
        assert order.ordinal_cmp(ranks[i], ranks[j]) == by_key


# ----------------------------------------------------------- 9. G3 game

PRINTED_G3_TRACE = [(2, 2, 1, 1), (2, 2, 1), (2, 2), (2, 1, 1, 1),
                    (2, 1, 1), (2, 1), (2,), (1, 1, 1, 1, 1, 1, 1),
                    (1, 1, 1, 1, 1, 1), (1, 1, 1, 1, 1), (1, 1, 1, 1),
                    (1, 1, 1), (1, 1), (1,), ()]


def test_c9_printed_trace_and_lengths():
    trace = games.g3_trace(W3(2, 2, 1, 1))
    assert [t.letters for t in trace] == PRINTED_G3_TRACE
    assert games.g3_length(W3(2, 2, 1, 1)) == 14
    assert games.g3_length(W3(1, 2, 1)) == 30


def test_c9_traces_descend_strictly():
    for _, beta in br.positive_braids_up_to(3, 3):
        trace = games.g3_trace(br.to_word(beta))
        assert games.g3_is_descending(trace)
        if trace:
            assert trace[-1].letters == ()
    # a longer prefix, tracked on raw states to keep ranking cheap
    state = games.g3_start(W3(1, 1, 2, 2))
    states = [state]
    for _ in range(200):
        state = games.g3_step(state)
        states.append(state)
    assert games.g3_is_descending(states)


def test_c9_long_example_checkpoints_and_resumes():
    # The published 90,159,953,477,630-step run cannot be replayed one
    # transition at a time at desk scale; stepping is exercised on a 10^7
    # prefix only.  Block batching still pins the exact total, since whole
    # tail countdowns collapse into O(1) jumps.
    start = games.g3_start(W3(1, 1, 2, 2, 1, 1))
    one_shot = games.g3_run(start, 10 ** 7)
    assert not one_shot.is_trivial
    state = start
    for _ in range(10):
        state = games.g3_resume(games.g3_checkpoint(state))
        state = games.g3_run(state, 10 ** 6)
    assert state == one_shot
    finished = games.g3_run(one_shot, 10 ** 15)
    assert finished.is_trivial
    assert finished.steps == 90_159_953_477_630


# ------------------------------------------------------------- 10. mu_3

def test_c10_mu_table_and_fixed_points():
    for word, expected in MU_TABLE:
        got = conjugacy.mu(W3(*word))
        if expected is None:
            assert br.equal(got, W3(*word)), word
            assert conjugacy.is_conjugacy_min(W3(*word))
        else:
            assert br.equal(got, W3(*expected)), word


def test_c10_sigma2_cubed_entry():
    # the published row lists sigma1^2, which has exponent sum 2 and so
    # cannot be conjugate to a 3-crossing braid; the computed minimum is
    # sigma1^3 and conservation is asserted instead of the printed value
    got = conjugacy.mu(W3(2, 2, 2))
    assert br.braid_length(got) == 3
    assert br.equal(got, W3(1, 1, 1))
    assert not br.equal(got, W3(1, 1))


def test_c10_sweep_has_no_internal_inconsistencies():
    rows = conjugacy.sweep_mu_delta(5)
    assert len(rows) == len(list(br.positive_braids_up_to(3, 5)))
    bad = 0
    for _, beta in br.positive_braids_up_to(3, 5):
        m = conjugacy.mu(beta)
        if not br.equal(conjugacy.mu(m), m):
            bad += 1
        for member in conjugacy.positive_conjugates(beta).members:
            if not br.equal(conjugacy.mu(member), m):
                bad += 1
    assert bad == 0


# ------------------------------------------------------- 11. colourings

def test_c11_counts_against_in_test_oracle():
    def oracle(letters):
        count = 0
        for a in range(3):
            for bb in range(3):
                x, y = a, bb
                for _ in letters:
                    x, y = (2 * x - y) % 3, x
                count += (x, y) == (a, bb)
        return count

    d3 = magma.dihedral_quandle(3)
    trefoil = invariants.count_closure_colourings(d3, (1, 1, 1), 2)
    unknot = invariants.count_closure_colourings(d3, (1,), 2)
    assert trefoil == oracle((1, 1, 1)) == 9
    assert unknot == oracle((1,)) == 3


def test_c11_trefoil_presentations():
    pres = invariants.fundamental_quandle((1, 1, 1), 2)
    assert pres.render() == \
        "<a, b | ((a * b) * a) * (a * b) = a, (a * b) * a = b>"
    rels = invariants.wirtinger_relations((1, 1, 1), 2)
    assert rels[1] == (1, 2, 1, -2, -1, -2)  # a b a = b a b
    assert invariants.wirtinger_group((1, 1, 1), 2) == \
        "<a, b | a b a b a^-1 b^-1 a^-1 = a, a b a b^-1 a^-1 = b>"


def test_c11_fraction_end_labels():
    frac = invariants.laver_fraction_colouring(2, (1, 2, -1), (1, 1, 1),
                                               "fraction")
    assert frac == ((1, 2, 1), (2, 2, 1))
    delt = invariants.laver_fraction_colouring(2, (1, 2, -1), (1, 1, 1),
                                               "delta")
    assert delt == ((4, 2, 1), (1, 1, 4))


# -------------------------------------------------- 12. property suites

def _random_word(rng, n, length, signed=True):
    out = []
    for _ in range(length):
        l = rng.randint(1, n - 1)
        if signed and rng.random() < 0.5:
            l = -l
        out.append(l)
    return tuple(out)


def _equivalent_word(rng, letters, n, moves=6):
    """Random free/commutation/braid rewrites; the braid stays the same."""
    w = list(letters)
    for _ in range(moves):
        kind = rng.randrange(3)
        if kind == 0:
            i = rng.randint(0, len(w))
            g = rng.randint(1, n - 1) * rng.choice([1, -1])
            w[i:i] = [g, -g]
        elif kind == 1:
            spots = [i for i in range(len(w) - 1)
                     if abs(abs(w[i]) - abs(w[i + 1])) >= 2]
            if spots:
                i = rng.choice(spots)
                w[i], w[i + 1] = w[i + 1], w[i]
        else:
            spots = [i for i in range(len(w) - 2)
                     if w[i] == w[i + 2] and abs(abs(w[i]) - abs(w[i + 1])) == 1
                     and (w[i] > 0) == (w[i + 1] > 0)]
            if spots:
                i = rng.choice(spots)
                w[i], w[i + 1], w[i + 2] = w[i + 1], w[i], w[i + 1]
    return tuple(w)


def test_c12_hurwitz_action_well_defined_per_backend():
    d6 = magma.dihedral_quandle(6)
    shift = invariants.IntegerShiftRack()
    free = invariants.FreeConjugationRack()
    rng = random.Random(1206)
    for _ in range(1000):
        n = rng.randint(2, 4)
        w = _random_word(rng, n, rng.randint(0, 8))
        w2 = _equivalent_word(rng, w, n)
        v = tuple(rng.randint(1, d6.m) for _ in range(n))
        assert (invariants.act_full(d6, v, w, checked=False)
                == invariants.act_full(d6, v, w2, checked=False))
        ints = tuple(rng.randint(-5, 5) for _ in range(n))
        assert (invariants.act_partial(shift, ints, w)
                == invariants.act_partial(shift, ints, w2))
        gens = tuple((i,) for i in range(1, n + 1))
        assert (invariants.act_partial(free, gens, w)
                == invariants.act_partial(free, gens, w2))


def test_c12_shifted_conjugacy_is_ld():
    rng = random.Random(1222)
    for _ in range(50):
        x, y, z = [b3(*(rng.choice((1, -1)) * rng.randint(1, 2)
                        for _ in range(rng.randint(0, 4))))
                   for _ in range(3)]
        lhs = br.shifted_conj(x, br.shifted_conj(y, z, 6), 6)
        rhs = br.shifted_conj(br.shifted_conj(x, y, 6),
                              br.shifted_conj(x, z, 6), 6)
        assert lhs == rhs


def test_c12_cocycle_invariant_type_three_exhaustive():
    A2 = laver_magma(2)
    const = homology.cochain_from_function(A2, 2, lambda x, y: 1)
    cocycles = [const] + homology.two_cocycle_space(A2)[1]
    for phi in cocycles:
        for v in product(range(1, 5), repeat=3):
            lhs = invariants.cocycle_invariant(A2, phi, (1, 2, 1), v,
                                               checked=False)
            rhs = invariants.cocycle_invariant(A2, phi, (2, 1, 2), v,
                                               checked=False)
            assert lhs == rhs
