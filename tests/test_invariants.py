"""Colour propagation, closure counting, cocycle sums, and presentations."""

import random
from itertools import product

import pytest

from ldlab.errors import AmbiguousInverseError, DomainError
from ldlab import braid, homology, invariants, laver, magma


def laver_magma(n):
    return laver.build_laver_table(n).as_magma()


def random_word(rng, n, length, signed=True):
    out = []
    for _ in range(length):
        l = rng.randint(1, n - 1)
        if signed and rng.random() < 0.5:
            l = -l
        out.append(l)
    return tuple(out)


def equivalent_word(rng, letters, n, moves=6):
    """Apply random free/commutation/braid rewrites; stays in the same braid."""
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


def reference_act_full(M, colours, w):
    """The crossing rule written out letter by letter, as act_full had it
    before every action shared one kernel."""
    vec = list(colours)
    for l in w:
        if l > 0:
            a, b = vec[l - 1], vec[l]
            vec[l - 1], vec[l] = M.op[a - 1][b - 1], a
        else:
            i = -l
            a, b = vec[i - 1], vec[i]
            vec[i - 1], vec[i] = b, magma.left_inverse_op(M, b, a)
    return tuple(vec)


def seeded_racks(rng):
    perm = list(range(1, 7))
    rng.shuffle(perm)
    return [magma.dihedral_quandle(3), magma.dihedral_quandle(5),
            magma.affine_quandle(7, 3), magma.from_rows([perm] * 6)]


def test_actions_match_reference():
    rng = random.Random(1717)
    racks = seeded_racks(rng)
    for step in range(400):
        M = racks[step % len(racks)]
        n = rng.randint(2, 4)
        v = tuple(rng.randint(1, M.m) for _ in range(n))
        w = random_word(rng, n, rng.randint(0, 8))
        expected = reference_act_full(M, v, w)
        assert invariants.act_full(M, v, w) == expected
        assert invariants.act_partial(M, v, w) == expected
        if all(l > 0 for l in w):
            assert invariants.act_positive(M, v, w) == expected


def test_count_closure_colourings_matches_reference():
    rng = random.Random(1718)
    racks = seeded_racks(rng)
    for step in range(40):
        M = racks[step % len(racks)]
        m = rng.randint(1, 3)
        w = random_word(rng, m, rng.randint(0, 6)) if m > 1 else ()
        expected = sum(1 for v in product(range(1, M.m + 1), repeat=m)
                       if reference_act_full(M, v, w) == v)
        assert invariants.count_closure_colourings(M, w, m) == expected


def test_table_colours_must_be_elements():
    d3 = magma.dihedral_quandle(3)
    one = constant_cochain(3)
    for bad in ((True, 2), (1.0, 2), (1, 2.5), (False, 1), ("1", 2)):
        with pytest.raises(DomainError):
            invariants.act_positive(d3, bad, (1,))
        with pytest.raises(DomainError):
            invariants.act_full(d3, bad, (1,))
        with pytest.raises(DomainError):
            invariants.act_partial(d3, bad, (1,))
        with pytest.raises(DomainError):
            invariants.cocycle_invariant(d3, one, (1,), bad)


def test_act_full_unchecked_blocked_crossing_is_none():
    # x*y = x: 2 \ 1 does not exist and 1 \ 1 has two values
    M = magma.from_rows([[1, 1], [2, 2]])
    assert invariants.act_full(M, (1, 2), (-1,), checked=False) is None
    assert invariants.act_full(M, (1, 2), (-1, 1), checked=False) is None
    assert invariants.act_full(M, (1, 2), (1,), checked=False) == (1, 1)
    with pytest.raises(AmbiguousInverseError):
        invariants.act_full(M, (1, 1), (-1,), checked=False)


def test_act_positive_pinned():
    a2 = laver_magma(2)
    assert invariants.act_positive(a2, (1, 2, 1), (1,)) == (4, 1, 1)
    assert invariants.act_positive(a2, (1, 1, 1), (1, 2, 1)) == (4, 2, 1)
    assert invariants.act_positive(a2, (3, 2, 4), ()) == (3, 2, 4)
    d3 = magma.dihedral_quandle(3)
    assert invariants.act_full(d3, (1, 2), (1,)) == (3, 1)
    with pytest.raises(DomainError):
        invariants.act_positive(a2, (1, 1), (-1,))
    with pytest.raises(DomainError):
        invariants.act_positive(a2, (1, 5), (1,))
    with pytest.raises(DomainError):
        invariants.act_positive(a2, (1, 1, 1), (3,))
    bad = laver.build_general_table(3).as_magma()
    with pytest.raises(DomainError):
        invariants.act_positive(bad, (1, 1, 1), (1,))
    assert invariants.act_positive(bad, (1, 1, 1), (1,), checked=False)


def test_act_positive_monoid_relations():
    a2 = laver_magma(2)
    for v in product(range(1, 5), repeat=3):
        lhs = invariants.act_positive(a2, v, (1, 2, 1), checked=False)
        rhs = invariants.act_positive(a2, v, (2, 1, 2), checked=False)
        assert lhs == rhs
    for v in product(range(1, 5), repeat=4):
        lhs = invariants.act_positive(a2, v, (1, 3), checked=False)
        rhs = invariants.act_positive(a2, v, (3, 1), checked=False)
        assert lhs == rhs


def test_act_full_undoes_crossings():
    rng = random.Random(5)
    for M in (magma.dihedral_quandle(3), magma.dihedral_quandle(5),
              magma.affine_quandle(8, 3)):
        for _ in range(50):
            v = tuple(rng.randint(1, M.m) for _ in range(3))
            i = rng.randint(1, 2)
            assert invariants.act_full(M, v, (i, -i), checked=False) == v
            assert invariants.act_full(M, v, (-i, i), checked=False) == v


def test_act_full_requires_rack():
    with pytest.raises(DomainError):
        invariants.act_full(laver_magma(2), (1, 1), (1,))


def test_act_full_word_equivalence():
    rng = random.Random(20260816)
    backends = [magma.dihedral_quandle(3), magma.dihedral_quandle(6),
                magma.affine_quandle(7, 2)]
    for step in range(300):
        M = backends[step % len(backends)]
        n = rng.randint(2, 4)
        w = random_word(rng, n, rng.randint(0, 8))
        w2 = equivalent_word(rng, w, n)
        if n >= 2 and (w or w2):
            assert braid.equal(braid.BraidWord(n, w), braid.BraidWord(n, w2))
        v = tuple(rng.randint(1, M.m) for _ in range(n))
        assert (invariants.act_full(M, v, w, checked=False)
                == invariants.act_full(M, v, w2, checked=False))


def test_act_partial_window_pinned():
    window = invariants.IntegerShiftRack(0, 9)
    assert invariants.act_partial(window, (0, 0), (-1,)) is None
    unbounded = invariants.IntegerShiftRack()
    assert invariants.act_partial(unbounded, (0, 0), (-1,)) == (0, -1)
    assert invariants.act_partial(window, (3, 4), (1,)) == (5, 3)
    assert invariants.act_partial(window, (3, 9), (1,)) is None
    with pytest.raises(DomainError):
        invariants.IntegerShiftRack(5, 2)
    with pytest.raises(DomainError):
        invariants.act_partial(window, (3, 40), (1,))


def test_act_partial_on_tables():
    d5 = magma.dihedral_quandle(5)
    rng = random.Random(11)
    for _ in range(60):
        v = tuple(rng.randint(1, 5) for _ in range(3))
        w = random_word(rng, 3, rng.randint(0, 6), signed=False)
        assert invariants.act_partial(d5, v, w) == reference_act_full(d5, v, w)
        ws = random_word(rng, 3, rng.randint(0, 6))
        assert invariants.act_partial(d5, v, ws) == reference_act_full(d5, v, ws)
    with pytest.raises(DomainError):
        invariants.act_partial(laver_magma(2), (1, 1), (1,))


def test_act_partial_window_equivalence():
    # both-defined propagations of equivalent words agree
    rng = random.Random(303)
    window = invariants.IntegerShiftRack(0, 9)
    defined = 0
    for _ in range(400):
        n = rng.randint(2, 3)
        v = tuple(rng.randint(4, 6) for _ in range(n))
        w = random_word(rng, n, rng.randint(0, 4))
        w2 = equivalent_word(rng, w, n, moves=3)
        r1 = invariants.act_partial(window, v, w)
        r2 = invariants.act_partial(window, v, w2)
        if r1 is not None and r2 is not None:
            assert r1 == r2
            defined += 1
    assert defined > 50


def test_free_conjugation_rack():
    rack = invariants.FreeConjugationRack()
    assert invariants.free_reduce((1, 2, -2, -1, 3)) == (3,)
    assert invariants.free_inverse((1, -2, 3)) == (-3, 2, -1)
    with pytest.raises(DomainError):
        invariants.free_reduce((1, 0))
    rng = random.Random(7)
    for _ in range(80):
        a = invariants.free_reduce(random_word(rng, 4, rng.randint(0, 5)))
        b = invariants.free_reduce(random_word(rng, 4, rng.randint(0, 5)))
        assert rack.div(a, rack.mul(a, b)) == b
        assert rack.mul(a, rack.div(a, b)) == b
    for _ in range(120):
        n = rng.randint(2, 4)
        start = tuple((i,) for i in range(1, n + 1))
        w = random_word(rng, n, rng.randint(0, 6))
        w2 = equivalent_word(rng, w, n)
        assert (invariants.act_partial(rack, start, w)
                == invariants.act_partial(rack, start, w2))


def test_integer_rack_word_equivalence():
    rng = random.Random(13)
    rack = invariants.IntegerShiftRack()
    for _ in range(150):
        n = rng.randint(2, 4)
        v = tuple(rng.randint(-5, 5) for _ in range(n))
        w = random_word(rng, n, rng.randint(0, 7))
        w2 = equivalent_word(rng, w, n)
        assert invariants.act_partial(rack, v, w) == invariants.act_partial(rack, v, w2)


def trefoil_count_oracle():
    count = 0
    for a in range(3):
        for b in range(3):
            x, y = a, b
            for _ in range(3):
                x, y = (2 * x - y) % 3, x
            count += (x, y) == (a, b)
    return count


def test_count_closure_colourings():
    d3 = magma.dihedral_quandle(3)
    assert trefoil_count_oracle() == 9
    assert invariants.count_closure_colourings(d3, (1, 1, 1), 2) == 9
    assert invariants.count_closure_colourings(d3, (1,), 2) == 3
    assert invariants.count_closure_colourings(d3, (), 2) == 9
    assert invariants.count_closure_colourings(magma.dihedral_quandle(5), (), 3) == 125
    with pytest.raises(DomainError):
        invariants.count_closure_colourings(laver_magma(1), (1,), 2)


def test_count_closure_invariance():
    rng = random.Random(404)
    for M in (magma.dihedral_quandle(3), magma.dihedral_quandle(5)):
        for _ in range(25):
            n = 3
            w = random_word(rng, n, rng.randint(0, 5))
            base = invariants.count_closure_colourings(M, w, n)
            w2 = equivalent_word(rng, w, n)
            assert invariants.count_closure_colourings(M, w2, n) == base
            u = random_word(rng, n, rng.randint(1, 3))
            conj = u + w + invariants.free_inverse(u)
            assert invariants.count_closure_colourings(M, conj, n) == base


def constant_cochain(m, value=1):
    return homology.Cochain(m, 2, (value,) * (m * m))


def test_cocycle_invariant_pinned():
    a2 = laver_magma(2)
    one = constant_cochain(4)
    assert invariants.cocycle_invariant(a2, one, (1, 2, 1), (1, 1, 1)) == 3
    assert invariants.cocycle_invariant(a2, one, (), (1, 1, 1)) == 0
    a3 = laver_magma(3)
    psi23 = homology.psi(2, 3)
    assert psi23(2, 1) == 1
    assert invariants.cocycle_invariant(a3, psi23, (1,), (2, 1)) == 1
    with pytest.raises(DomainError):
        invariants.cocycle_invariant(a2, one, (-1,), (1, 1))
    with pytest.raises(DomainError):
        invariants.cocycle_invariant(a2, homology.Cochain(4, 2, (7,) + (0,) * 15),
                                     (1,), (1, 1))


def test_cocycle_invariant_type_three():
    a2 = laver_magma(2)
    cocycles = [constant_cochain(4)] + homology.two_cocycle_space(a2)[1]
    for phi in cocycles:
        for v in product(range(1, 5), repeat=3):
            lhs = invariants.cocycle_invariant(a2, phi, (1, 2, 1), v, checked=False)
            rhs = invariants.cocycle_invariant(a2, phi, (2, 1, 2), v, checked=False)
            assert lhs == rhs


def test_cocycle_invariant_coboundary_shift():
    rng = random.Random(88)
    d3 = magma.dihedral_quandle(3)
    phi = constant_cochain(3, 2)
    for _ in range(40):
        g_values = [rng.randint(-3, 3) for _ in range(3)]
        g = homology.Cochain(3, 1, tuple(g_values))
        dg = homology.coboundary_of(d3, g)
        assert homology.is_two_cocycle(dg, d3)
        shifted = homology.Cochain(3, 2, tuple(a + b for a, b in zip(phi.values, dg.values)))
        w = random_word(rng, 3, rng.randint(1, 6), signed=False)
        # on a closure colouring the coboundary telescopes away entirely
        for v in product(range(1, 4), repeat=3):
            if invariants.act_full(d3, v, w, checked=False) != v:
                continue
            assert (invariants.cocycle_invariant(d3, shifted, w, v, checked=False)
                    == invariants.cocycle_invariant(d3, phi, w, v, checked=False))
        # on open colours it telescopes to the end-to-end difference of g
        v = tuple(rng.randint(1, 3) for _ in range(3))
        out = invariants.act_positive(d3, v, w, checked=False)
        diff = sum(g(c) for c in out) - sum(g(c) for c in v)
        assert (invariants.cocycle_invariant(d3, shifted, w, v, checked=False)
                - invariants.cocycle_invariant(d3, phi, w, v, checked=False)) == diff


def test_fundamental_quandle_pinned():
    pres = invariants.fundamental_quandle((1, 1, 1), 2)
    assert pres.relation_texts() == [
        "((a * b) * a) * (a * b) = a",
        "(a * b) * a = b",
    ]
    assert pres.render() == "<a, b | ((a * b) * a) * (a * b) = a, (a * b) * a = b>"
    assert invariants.fundamental_quandle((1,), 2).relation_texts() == [
        "a * b = a",
        "a = b",
    ]
    assert invariants.fundamental_quandle((), 3).relation_texts() == [
        "a = a", "b = b", "c = c",
    ]
    neg = invariants.fundamental_quandle((-1,), 2)
    assert neg.relation_texts() == ["b = a", "b \\ a = b"]


def test_fundamental_quandle_counts_match_closure():
    rng = random.Random(606)
    racks = [magma.dihedral_quandle(3), magma.dihedral_quandle(4),
             magma.affine_quandle(5, 2)]
    for _ in range(30):
        M = racks[rng.randrange(len(racks))]
        m = rng.randint(2, 3)
        w = random_word(rng, m, rng.randint(0, 5))
        pres = invariants.fundamental_quandle(w, m)
        assert pres.colouring_count(M) == invariants.count_closure_colourings(M, w, m)


def test_wirtinger_pinned():
    assert invariants.wirtinger_relations((1,), 2) == ((1, 2, -1, -1), (1, -2))
    assert invariants.wirtinger_group((1,), 2) == "<a, b | a b a^-1 = a, a = b>"
    rels = invariants.wirtinger_relations((1, 1, 1), 2)
    assert rels[1] == (1, 2, 1, -2, -1, -2)  # a b a b^-1 a^-1 = b, i.e. aba = bab
    assert invariants.wirtinger_group((), 2) == "<a, b | a = a, b = b>"


def test_wirtinger_relations_hold_in_the_braid_group():
    # send a -> sigma1, b -> sigma2; closure relations of sigma1^3 must die
    for rel in invariants.wirtinger_relations((1, 1, 1), 2):
        assert braid.from_word(braid.BraidWord(3, rel)).is_trivial


def _s3_elements():
    return [p for p in product((1, 2, 3), repeat=3) if len(set(p)) == 3]


def _perm_apply(p, x):
    return p[x - 1]


def _eval_free(word, assignment):
    out = (1, 2, 3)
    for l in word:
        q = assignment[abs(l) - 1]
        if l < 0:
            inv = [0, 0, 0]
            for i, v in enumerate(q, start=1):
                inv[v - 1] = i
            q = tuple(inv)
        out = tuple(q[v - 1] for v in out)
    return out


def _hom_count(relations, gens):
    total = 0
    for assignment in product(_s3_elements(), repeat=gens):
        if all(_eval_free(r, assignment) == (1, 2, 3) for r in relations):
            total += 1
    return total


def test_wirtinger_presentation_fingerprint():
    mine = invariants.wirtinger_relations((1, 1, 1), 2)
    classic = [(1, 2, 1, -2, -1, -2)]  # aba = bab
    assert _hom_count(mine, 2) == _hom_count(classic, 2)
    unknot = invariants.wirtinger_relations((1,), 2)
    assert _hom_count(unknot, 2) == 6  # one free generator into S3


def test_laver_fraction_colouring_pinned():
    frac = invariants.laver_fraction_colouring(2, (1, 2, -1), (1, 1, 1), "fraction")
    assert frac == ((1, 2, 1), (2, 2, 1))
    delt = invariants.laver_fraction_colouring(2, (1, 2, -1), (1, 1, 1), "delta")
    assert delt == ((4, 2, 1), (1, 1, 4))
    left, right = invariants.laver_fraction_colouring(2, (1, 2), (1, 1, 1), "fraction")
    assert left == (1, 1, 1)
    assert right == invariants.act_positive(laver_magma(2), (1, 1, 1), (1, 2))
    with pytest.raises(DomainError):
        invariants.laver_fraction_colouring(2, (1,), (1, 1), "middle")
    with pytest.raises(DomainError):
        invariants.laver_fraction_colouring(2, (), (3,), "fraction")


def test_laver_fraction_colouring_word_independent():
    rng = random.Random(909)
    for _ in range(20):
        w = random_word(rng, 3, rng.randint(0, 5))
        w2 = equivalent_word(rng, w, 3)
        for mode in ("fraction", "delta"):
            assert (invariants.laver_fraction_colouring(2, w, (1, 1, 1), mode)
                    == invariants.laver_fraction_colouring(2, w2, (1, 1, 1), mode))
