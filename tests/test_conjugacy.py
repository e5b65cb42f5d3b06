"""Positive conjugacy classes, the flipped-order minimum mu, and the sweep."""

import random

import pytest

from test_order import pairwise_compare_flipped

from ldlab import braid as br
from ldlab import conjugacy as cj
from ldlab.errors import DomainError, ResourceError


def W(letters):
    return br.from_word(br.BraidWord(3, tuple(letters)))


def letters_of(b):
    return br.to_word(b).letters


# mu on the alternating normal forms of every braid of rank up to w^3+2,
# (input letters, expected mu letters); None marks a fixed point.
MU_TABLE = [
    ((), None),
    ((1,), None),
    ((1, 1), None),
    ((2,), (1,)),
    ((2, 1), None),
    ((2, 1, 1), None),
    ((2, 2), (1, 1)),
    ((2, 2, 1), (2, 1, 1)),
    ((2, 2, 1, 1), None),
    ((2, 2, 2, 1), (2, 1, 1, 1)),
    ((2, 2, 2, 1, 1), (2, 2, 1, 1, 1)),
    ((1, 2), (2, 1)),
    ((1, 2, 1), (2, 1, 1)),
    ((1, 2, 1, 1), (2, 1, 1, 1)),
    ((1, 2, 2), (2, 1, 1)),
    ((1, 2, 2, 1), (2, 2, 1, 1)),
    ((1, 2, 2, 1, 1), (2, 2, 1, 1, 1)),
    ((1, 1, 2), (2, 1, 1)),
    ((1, 1, 2, 1), (2, 1, 1, 1)),
    ((1, 1, 2, 1, 1), (2, 1, 1, 1, 1)),
    ((1, 1, 2, 2), (2, 2, 1, 1)),
    ((1, 1, 2, 2, 1), (2, 2, 1, 1, 1)),
    ((1, 1, 2, 2, 1, 1), (2, 2, 1, 1, 1, 1)),
    ((1, 1, 2, 2, 2), (2, 2, 1, 1, 1)),
    ((1, 1, 2, 2, 2, 1), (2, 2, 2, 1, 1, 1)),
    ((1, 1, 2, 2, 2, 2), (2, 2, 1, 1, 1, 1)),
    ((1, 1, 2, 2, 2, 2, 1), (2, 2, 2, 1, 1, 1, 1)),
    ((1, 1, 2, 2, 2, 2, 1, 1), (2, 2, 2, 2, 1, 1, 1, 1)),
    ((1, 1, 1, 2), (2, 1, 1, 1)),
    ((1, 1, 1, 2, 1), (2, 1, 1, 1, 1)),
    ((1, 1, 1, 2, 2), (2, 2, 1, 1, 1)),
    ((1, 1, 1, 2, 2, 1), (2, 2, 1, 1, 1, 1)),
    ((2, 1, 1, 2), (2, 2, 1, 1)),
    ((2, 1, 1, 2, 1), (2, 1, 1, 1, 1)),
    ((2, 1, 1, 2, 1, 1), None),
]


def test_class_of_sigma1():
    cls = cj.positive_conjugates(W((1,)))
    assert sorted(letters_of(m) for m in cls.members) == [(1,), (2,)]
    assert W((2,)) in cls
    assert W((1, 1)) not in cls


def test_class_of_trivial():
    cls = cj.positive_conjugates(W(()))
    assert [letters_of(m) for m in cls.members] == [()]


def test_class_of_delta3():
    # two more members than the two obvious Delta-conjugates: conjugating
    # by a single generator already leaves the set {s1s2s1, s2s1s2}
    cls = cj.positive_conjugates(W((1, 2, 1)))
    assert sorted(letters_of(m) for m in cls.members) == [
        (1, 1, 2), (1, 2, 1), (1, 2, 2), (2, 1, 1), (2, 2, 1)]


def test_class_of_central_square_is_singleton():
    cls = cj.positive_conjugates(br.delta(3, 2))
    assert len(cls) == 1
    assert br.equal(cls.members[0], br.delta(3, 2))


def test_witnesses_conjugate_root_to_member():
    for word in ((1, 2, 1), (2, 2, 1), (1, 1, 2, 2), (2, 1, 1, 2, 1)):
        cls = cj.positive_conjugates(W(word))
        for m in cls.members:
            u = cls.witness(m)
            assert br.equal(br.mul(br.mul(br.inverse(u), cls.root), u), m)
    with pytest.raises(DomainError):
        cls.witness(br.delta(3, 4))


def test_members_share_exponent_sum():
    rng = random.Random(42)
    for _ in range(12):
        word = tuple(rng.randint(1, 2) for _ in range(rng.randint(0, 6)))
        cls = cj.positive_conjugates(W(word))
        assert {br.braid_length(m) for m in cls.members} == {len(word)}


def test_mu_matches_the_rank_table():
    for word, expected in MU_TABLE:
        got = cj.mu(W(word))
        assert br.equal(got, W(word if expected is None else expected)), word


def test_mu_of_sigma2_cubed_conserves_length():
    # a 3-letter braid cannot have a 2-letter conjugate, so the only
    # consistent value here is sigma1^3
    got = cj.mu(W((2, 2, 2)))
    assert br.braid_length(got) == 3
    assert letters_of(got) == (1, 1, 1)


def test_is_conjugacy_min():
    for word, expected in MU_TABLE:
        assert cj.is_conjugacy_min(W(word)) == (expected is None), word


def test_mu_idempotent_and_class_invariant():
    for word in ((2, 2, 2), (1, 2, 2, 1), (1, 1, 2, 2, 2, 1), (2, 1, 1, 2, 1)):
        cls = cj.positive_conjugates(W(word))
        m = cj.mu(W(word))
        assert br.equal(cj.mu(m), m)
        for member in cls.members:
            assert br.equal(cj.mu(member), m)


@pytest.mark.parametrize("n,maxlen", [(3, 5), (4, 3)])
def test_mu_is_the_pairwise_minimum(n, maxlen):
    covered = set()
    for _, x in br.positive_braids_up_to(n, maxlen):
        if x in covered:
            continue
        cls = cj.positive_conjugates(x)
        covered.update(cls.members)
        best = cls.members[0]
        for m in cls.members[1:]:
            if pairwise_compare_flipped(m, best, n) == "<":
                best = m
        assert cj.mu(x) == best, letters_of(x)


def oracle_partition(max_len, conj_len):
    """Group same-length positive braids by explicit positive conjugators."""
    conjugators = [b for _, b in br.positive_braids_up_to(3, conj_len)]
    by_len = {}
    for length, b in br.positive_braids_up_to(3, max_len):
        by_len.setdefault(length, []).append(b)
    pairs = set()
    for braids in by_len.values():
        for i, a in enumerate(braids):
            for b in braids[i + 1:]:
                if any(br.equal(br.mul(a, u), br.mul(u, b)) for u in conjugators):
                    pairs.add((a, b))
    return by_len, pairs


def test_class_enumeration_matches_conjugator_search():
    by_len, pairs = oracle_partition(6, 8)
    classes = {}
    for braids in by_len.values():
        for b in braids:
            classes[b] = cj.positive_conjugates(b)
    # completeness: every certified-conjugate pair lies in one class
    for a, b in pairs:
        assert b in classes[a] and a in classes[b]
    # soundness: co-membership is certified by the search or by the witness
    for b, cls in classes.items():
        for m in cls.members:
            if m == b:
                continue
            key = (b, m) if (b, m) in pairs else (m, b)
            if key not in pairs:
                u = cls.witness(m)
                assert br.equal(br.mul(br.mul(br.inverse(u), b), u), m)


def test_class_size_bound_is_explicit():
    with pytest.raises(ResourceError):
        cj.positive_conjugates(W((1, 2, 1)), max_members=2)


def test_input_validation():
    with pytest.raises(DomainError):
        cj.positive_conjugates(br.from_word(br.BraidWord(3, (-1,))))
    with pytest.raises(DomainError):
        cj.positive_conjugates("1 2", None)
    with pytest.raises(DomainError):
        cj.positive_conjugates(W((1,)), n=4)
    cls = cj.positive_conjugates("1 2 1", 3)
    assert len(cls) == 5


def test_conjecture_formula_as_stated_fails_at_the_identity():
    # mu of the central square is itself, which the predicted product misses
    assert br.equal(cj.mu(br.delta(3, 2)), br.delta(3, 2))
    predicted = W((1, 2, 2, 1, 1, 1))
    assert not br.equal(predicted, br.delta(3, 2))
    assert cj.conjecture_mu_delta(W(())) is False


def test_flipped_sandwich_variant_holds_up_to_length_4():
    u, v = W((2, 1, 1, 2)), W((1, 1))
    for _, b in br.positive_braids_up_to(3, 4):
        lhs = cj.mu(br.mul(b, br.delta(3, 2)))
        rhs = br.mul(br.mul(u, cj.mu(b)), v)
        assert br.equal(lhs, rhs), letters_of(b)


def test_sweep_reports_status_per_braid():
    rows = cj.sweep_mu_delta(3)
    assert len(rows) == 14
    assert rows[0] == cj.SweepRow((), (), False)
    by_word = {r.word: r for r in rows}
    assert by_word[(2,)].mu_word == (1,)
    assert by_word[(1, 2, 1)].mu_word == (2, 1, 1)
    assert all(r.agrees is False for r in rows)
