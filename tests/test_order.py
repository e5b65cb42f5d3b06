"""Ordering, splitting, and rank tests.

RANK_TABLE freezes the printed rank column for 36 positive 3-strand
braids given by their alternating normal words; it doubles as the oracle
for the two-implementation agreement test (ordinal comparison of ranks
versus the splitting comparison).  `pairwise_compare_flipped` is the
recursive pairwise comparison that `flipped_key` replaced, kept as the
reference for the key; `probing_splitting` is a reference for the
splitting itself that never reverses a braid.
"""

import itertools
import random

import pytest

from ldlab import braid as br
from ldlab import order as od
from ldlab.errors import DomainError


def b(n, *letters):
    return br.from_word(br.BraidWord(n, tuple(letters)))


RANK_TABLE = [
    ((), "0"),
    ((1,), "1"),
    ((1, 1), "2"),
    ((2,), "w"),
    ((2, 1), "w+1"),
    ((2, 1, 1), "w+2"),
    ((2, 2), "w*2"),
    ((2, 2, 1), "w*2+1"),
    ((2, 2, 1, 1), "w*2+2"),
    ((2, 2, 2), "w*3"),
    ((2, 2, 2, 1), "w*3+1"),
    ((2, 2, 2, 1, 1), "w*3+2"),
    ((1, 2), "w^2"),
    ((1, 2, 1), "w^2+1"),
    ((1, 2, 1, 1), "w^2+2"),
    ((1, 2, 2), "w^2+w"),
    ((1, 2, 2, 1), "w^2+w+1"),
    ((1, 2, 2, 1, 1), "w^2+w+2"),
    ((1, 1, 2), "w^2*2"),
    ((1, 1, 2, 1), "w^2*2+1"),
    ((1, 1, 2, 1, 1), "w^2*2+2"),
    ((1, 1, 2, 2), "w^2*2+w"),
    ((1, 1, 2, 2, 1), "w^2*2+w+1"),
    ((1, 1, 2, 2, 1, 1), "w^2*2+w+2"),
    ((1, 1, 2, 2, 2), "w^2*2+w*2"),
    ((1, 1, 2, 2, 2, 1), "w^2*2+w*2+1"),
    ((1, 1, 2, 2, 2, 2), "w^2*2+w*3"),
    ((1, 1, 2, 2, 2, 2, 1), "w^2*2+w*3+1"),
    ((1, 1, 2, 2, 2, 2, 1, 1), "w^2*2+w*3+2"),
    ((1, 1, 1, 2), "w^2*3"),
    ((1, 1, 1, 2, 1), "w^2*3+1"),
    ((1, 1, 1, 2, 2), "w^2*3+w"),
    ((1, 1, 1, 2, 2, 1), "w^2*3+w+1"),
    ((2, 1, 1, 2), "w^3"),
    ((2, 1, 1, 2, 1), "w^3+1"),
    ((2, 1, 1, 2, 1, 1), "w^3+2"),
]


def pairwise_compare_flipped(beta, beta2, n):
    """Reference: ShortLex on the two splittings, recursing on strand
    count, with two fresh splittings at every level of every comparison."""
    bu, bv = br._lift(beta), br._lift(beta2)
    if n == 2:
        lu, lv = br.braid_length(bu), br.braid_length(bv)
        return "<" if lu < lv else ">" if lu > lv else "="
    su, sv = od.splitting(bu, n), od.splitting(bv, n)
    if su.p != sv.p:
        return "<" if su.p < sv.p else ">"
    for eu, ev in zip(su.entries, sv.entries):
        c = pairwise_compare_flipped(eu, ev, n - 1)
        if c != "=":
            return c
    return "="


def probing_splitting(x, n):
    """Reference: the splitting entries of a positive x, stripping each
    sigma_i (i < n - 1) that a right_divides probe finds, by a multiply by
    its inverse, then flipping the remainder."""
    entries = []
    while True:
        letters = []
        while True:
            i = next((i for i in range(1, n - 1)
                      if br.right_divides(br.sigma(n, i), x)), None)
            if i is None:
                break
            x = br.mul(x, br.inverse(br.sigma(n, i)))
            letters.insert(0, i)
        entries.insert(0, b(n - 1, *letters))
        if x.is_trivial:
            return tuple(entries)
        x = br.flip(x)


# ---------------------------------------------------------------------------
# sigma-positive words

def test_sigma_positive_index():
    assert od.sigma_positive_index(br.BraidWord(3, (2, 1, -2))) == 1
    assert od.sigma_positive_index(br.BraidWord(3, ())) is None
    assert od.sigma_positive_index(br.BraidWord(3, (-1, 2, 1))) is None
    assert od.sigma_positive_index(br.BraidWord(3, (2,))) == 2
    assert od.sigma_positive_index(br.BraidWord(4, (3, -3))) is None


# ---------------------------------------------------------------------------
# splittings

def test_splitting_pinned():
    seq = od.splitting(b(3, 2, 1), 3)
    assert seq.entries == (b(2, 1), b(2, 1))
    seq = od.splitting(b(3, 1, 1), 3)
    assert seq.entries == (b(2, 1, 1),)
    seq = od.splitting(b(3, 1, 2), 3)
    assert seq.entries == (b(2, 1), b(2, 1), br.identity(2))
    seq = od.splitting(b(3, 2, 1, 1, 2), 3)
    assert seq.entries == (b(2, 1), b(2, 1, 1), b(2, 1), br.identity(2))
    assert od.splitting(br.identity(3), 3).entries == (br.identity(2),)
    with pytest.raises(DomainError):
        od.splitting(b(3, -1), 3)


def test_splitting_recomposes_and_is_normal():
    rng = random.Random(31)
    for _ in range(80):
        n = rng.choice((3, 4))
        w = tuple(rng.randint(1, n - 1) for _ in range(rng.randint(0, 8)))
        seq = od.splitting(b(n, *w), n)
        assert seq.recompose() == b(n, *w)
        assert od.is_normal(seq)


@pytest.mark.parametrize("n,maxlen", [(3, 6), (4, 5)])
def test_splitting_matches_probing_reference(n, maxlen):
    for length in range(maxlen + 1):
        for w in itertools.product(range(1, n), repeat=length):
            x = b(n, *w)
            assert od.splitting(x, n).entries == probing_splitting(x, n), w


def test_splitting_work_is_pinned(count_calls):
    # one reversal per splitting and per key, carried down the levels; a
    # strip that reverses on the way in and out at every level, and
    # normalises each entry twice, makes 876 _rev and 2,506 _normalize
    # calls here
    b3, b4 = ([x for _, x in br.positive_braids_up_to(n, k)] for n, k in ((3, 6), (4, 4)))
    revs, norms = count_calls(br, "_rev"), count_calls(br, "_normalize")
    for x in b3:
        od.splitting(x, 3)
        od.flipped_key(x, 3)
    assert revs[0] == 2 * len(b3)
    assert 0 < norms[0] <= 1350
    for x in b4:
        od.splitting(x, 4)
    assert revs[0] == 2 * len(b3) + len(b4)


def test_is_normal_rejects():
    s1 = br.delta(2)
    bad = od.SplittingSeq(3, (s1, s1, s1, br.identity(2)))
    assert not od.is_normal(bad)
    assert bad.recompose() == b(3, 2, 1, 2)
    assert not od.is_normal(od.SplittingSeq(3, (s1, br.identity(2), s1)))
    assert od.is_normal(od.SplittingSeq(3, (s1, s1, s1)))


# ---------------------------------------------------------------------------
# comparisons

def test_compare_flipped_pinned():
    assert od.compare_flipped(br.sigma(3, 1), br.sigma(3, 2), 3) == "<"
    x = b(3, 1, 2, 1)
    assert od.compare_flipped(x, b(3, 2, 1, 2), 3) == "="
    assert od.compare_flipped(b(3, 2, 1), b(3, 1, 2), 3) == "<"
    with pytest.raises(DomainError):
        od.compare_flipped(b(3, -1), b(3, 1), 3)


@pytest.mark.parametrize("n,maxlen", [(3, 6), (4, 4)])
def test_flipped_key_matches_pairwise_reference(n, maxlen):
    braids = [x for _, x in br.positive_braids_up_to(n, maxlen)]
    keys = [od.flipped_key(x, n) for x in braids]
    for x, kx in zip(braids, keys):
        for y, ky in zip(braids, keys):
            ref = pairwise_compare_flipped(x, y, n)
            assert od.compare_flipped(x, y, n) == ref
            assert ("<" if kx < ky else ">" if kx > ky else "=") == ref


def test_two_strand_order_rejects_braids_on_more_strands():
    # sigma_1 sigma_2 does not lie in B_2, so its length alone must not key it
    with pytest.raises(DomainError):
        od.compare_flipped(b(3, 1, 2), b(3, 2, 1), 2)
    with pytest.raises(DomainError):
        od.alternating_normal_form(b(3, 1, 2), 2)
    assert od.flipped_key(b(3, 1, 1), 2) == 2
    assert od.alternating_normal_form(b(3, 1, 1), 2).letters == (1, 1)


def test_flipped_key_rejects_negative_braids():
    with pytest.raises(DomainError):
        od.flipped_key(b(3, -1), 3)
    with pytest.raises(DomainError):
        od.flipped_key(b(2, 1, -1, -1), 2)


def test_rank_table_frozen():
    for letters, text in RANK_TABLE:
        assert od.render_ordinal(od.rank_bp3(b(3, *letters))) == text


def test_rank_agrees_with_comparison():
    braids = [x for _, x in br.positive_braids_up_to(3, 5)]
    ranks = [od.rank_bp3(x) for x in braids]
    for i in range(len(braids)):
        for j in range(i + 1, len(braids)):
            assert od.ordinal_cmp(ranks[i], ranks[j]) == \
                od.compare_flipped(braids[i], braids[j], 3)


def test_rank_is_injective_on_enumeration():
    seen = {}
    for _, x in br.positive_braids_up_to(3, 6):
        key = od.rank_bp3(x).terms
        assert key not in seen
        seen[key] = x


def test_initial_segment_below_sigma3():
    s3 = br.sigma(4, 3)
    for _, x in br.positive_braids_up_to(3, 5):
        assert od.compare_flipped(br.embed(x, 4), s3, 4) == "<"


def test_compare_d_pinned():
    assert od.compare_D(br.BraidWord(3, (1,)), br.BraidWord(3, (2, 1)), 3) == "<"
    assert od.compare_D(br.BraidWord(3, (-1,)), br.BraidWord(3, ()), 3) == "<"
    assert od.compare_D(br.BraidWord(3, (1, 2, 1)), br.BraidWord(3, (2, 1, 2)), 3) == "="
    assert od.compare_D(br.BraidWord(2, (1, 1)), br.BraidWord(2, (1,)), 2) == ">"


def test_braids_grow_under_positive_letters():
    rng = random.Random(47)
    for _ in range(200):
        n = rng.choice((3, 4))
        w = tuple(rng.choice((1, -1)) * rng.randint(1, n - 1)
                  for _ in range(rng.randint(0, 8)))
        i = rng.randint(1, n - 1)
        assert od.compare_D(br.BraidWord(n, w), br.BraidWord(n, (i,) + w), n) == "<"


def test_left_invariance():
    rng = random.Random(53)
    for _ in range(60):
        n = 3
        mk = lambda k: tuple(rng.choice((1, -1)) * rng.randint(1, n - 1)
                             for _ in range(rng.randint(0, 6)))
        u, v, w = mk(0), mk(0), mk(0)
        c = od.compare_D(br.BraidWord(n, u), br.BraidWord(n, v), n)
        assert od.compare_D(br.BraidWord(n, w + u), br.BraidWord(n, w + v), n) == c


def test_subword_property():
    rng = random.Random(59)
    for _ in range(100):
        n = rng.choice((3, 4))
        w = tuple(rng.randint(1, n - 1) for _ in range(rng.randint(1, 8)))
        k = rng.randrange(len(w))
        shorter = w[:k] + w[k + 1:]
        assert od.compare_D(br.BraidWord(n, shorter), br.BraidWord(n, w), n) == "<"


def test_quasipositive_above_trivial():
    rng = random.Random(61)
    for _ in range(60):
        n = 3
        beta = tuple(rng.randint(1, n - 1) for _ in range(rng.randint(1, 5)))
        gamma = tuple(rng.choice((1, -1)) * rng.randint(1, n - 1)
                      for _ in range(rng.randint(0, 5)))
        conj = tuple(-l for l in reversed(gamma)) + beta + gamma
        assert od.compare_D(br.BraidWord(n, ()), br.BraidWord(n, conj), n) == "<"


def test_shift_then_sigma1_grows():
    rng = random.Random(67)
    for _ in range(60):
        w = tuple(rng.choice((1, -1)) * rng.randint(1, 2)
                  for _ in range(rng.randint(0, 6)))
        shifted = tuple(l + 1 if l > 0 else l - 1 for l in w) + (1,)
        assert od.compare_D(br.BraidWord(4, w), br.BraidWord(4, shifted), 4) == "<"


# ---------------------------------------------------------------------------
# normal exponents and normal form

def test_bp3_exponents_pinned():
    assert od.bp3_normal_exponents(b(3, 1, 2, 1)).exponents == (1, 1, 1)
    assert od.bp3_normal_exponents(br.identity(3)).exponents == ()
    assert od.bp3_normal_exponents(b(3, 2, 2, 1, 1)).exponents == (2, 2)
    assert od.bp3_normal_exponents(b(3, 2, 1, 1, 2)).exponents == (1, 2, 1, 0)
    with pytest.raises(DomainError):
        od.bp3_normal_exponents(b(3, -1))


def test_bp3_normal_form_validation():
    with pytest.raises(DomainError):
        od.Bp3NormalForm((0, 1))
    with pytest.raises(DomainError):
        od.Bp3NormalForm((1, 0, 1))
    with pytest.raises(DomainError):
        od.Bp3NormalForm((1, 1, 1, 1))
    nf = od.Bp3NormalForm((1, 2, 1, 0))
    assert nf.word().letters == (2, 1, 1, 2)


def test_alternating_normal_form():
    assert od.alternating_normal_form(b(3, 2, 1, 2), 3).letters == (1, 2, 1)
    assert od.alternating_normal_form(b(3, 1, 1, 1), 3).letters == (1, 1, 1)
    rng = random.Random(71)
    for _ in range(40):
        w = tuple(rng.randint(1, 3) for _ in range(rng.randint(0, 8)))
        x = b(4, *w)
        anf = od.alternating_normal_form(x, 4)
        assert br.from_word(anf) == x
    for letters, _ in RANK_TABLE:
        got = od.alternating_normal_form(b(3, *letters), 3)
        assert got.letters == letters


# ---------------------------------------------------------------------------
# ordinals

def test_ordinal_arithmetic():
    one = od.ordinal_from_int(1)
    w = od.OrdinalCNF(((1, 1),))
    assert od.ordinal_add(one, w) == w
    assert od.ordinal_add(w, one) == od.OrdinalCNF(((1, 1), (0, 1)))
    a = od.OrdinalCNF(((2, 2),))
    bb = od.OrdinalCNF(((1, 3),))
    assert od.render_ordinal(od.ordinal_add(a, bb)) == "w^2*2+w*3"
    assert od.ordinal_cmp(od.OrdinalCNF(((2, 1), (0, 1))),
                          od.OrdinalCNF(((1, 5),))) == ">"
    assert od.ordinal_cmp(w, w) == "="
    assert od.render_ordinal(od.ORDINAL_ZERO) == "0"
    assert od.ordinal_add(w, od.ORDINAL_ZERO) == w
    with pytest.raises(DomainError):
        od.OrdinalCNF(((1, 0),))
    with pytest.raises(DomainError):
        od.OrdinalCNF(((1, 1), (2, 1)))
    with pytest.raises(DomainError):
        od.ordinal_from_int(-1)


def test_ordinal_add_merges_equal_exponents():
    a = od.OrdinalCNF(((2, 1), (1, 2)))
    bb = od.OrdinalCNF(((1, 3), (0, 4)))
    assert od.ordinal_add(a, bb) == od.OrdinalCNF(((2, 1), (1, 5), (0, 4)))


def reference_rank_bp3(nf):
    """The rank as a sum of omega-power terms folded with ordinal_add."""
    p = nf.p
    out = od.ORDINAL_ZERO
    for idx, e in enumerate(nf.exponents):
        c = e if idx == 0 else e - od._epsilon(p - idx)
        if c:
            out = od.ordinal_add(out, od.OrdinalCNF(((p - 1 - idx, c),)))
    return out


def reference_ordinal_cmp(a, b):
    """Term by term: exponent first, then coefficient, then length."""
    for (ka, ca), (kb, cb) in zip(a.terms, b.terms):
        if ka != kb:
            return "<" if ka < kb else ">"
        if ca != cb:
            return "<" if ca < cb else ">"
    if len(a.terms) != len(b.terms):
        return "<" if len(a.terms) < len(b.terms) else ">"
    return "="


def test_rank_and_comparison_match_references():
    ranks = []
    for length in range(9):
        for letters in itertools.product((1, 2), repeat=length):
            nf = od.bp3_normal_exponents(b(3, *letters))
            rank = od.rank_bp3(nf)
            assert rank == reference_rank_bp3(nf)
            ranks.append(rank)
    rng = random.Random(2718)
    for _ in range(5000):
        x, y = rng.choice(ranks), rng.choice(ranks)
        assert od.ordinal_cmp(x, y) == reference_ordinal_cmp(x, y)


# ---------------------------------------------------------------------------
# D-floor

def test_d_floor():
    assert od.d_floor(br.BraidWord(3, ()), 3) == 0
    assert od.d_floor(br.BraidWord(3, (1, 2, 1) * 2), 3) == 1
    assert od.d_floor(br.BraidWord(3, (-1,)), 3) == -1
    assert od.d_floor(br.BraidWord(3, (1, 2, 1) * 3), 3) == 1
    assert od.d_floor(br.BraidWord(3, (1, 2, 1) * 4), 3) == 2
    assert od.d_floor(br.BraidWord(3, (-1, -2, -1) * 2), 3) == -1
    assert od.d_floor(br.BraidWord(3, (-1, -2, -1) * 2 + (-1,)), 3) == -2
    assert od.d_floor(br.BraidWord(3, (1,)), 3) == 0
    assert od.d_floor(br.BraidWord(2, (1, 1)), 2) == 1
