"""Positive conjugacy classes, the flipped-order minimum mu, and the sweep."""

import itertools
import random

import pytest

from test_order import pairwise_compare_flipped

from ldlab import braid as br
from ldlab import conjugacy as cj
from ldlab import invariants
from ldlab.errors import DomainError, ResourceError
from ldlab.order import flipped_key


def W(letters):
    return br.from_word(br.BraidWord(3, tuple(letters)))


def letters_of(b):
    return br.to_word(b).letters


def _classes(n, max_len):
    """One root per positive conjugacy class met up to max_len, with its class."""
    covered = set()
    for _, x in br.positive_braids_up_to(n, max_len):
        if x not in covered:
            cls = cj.positive_conjugates(x)
            covered.update(cls.members)
            yield x, cls


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
    for x, cls in _classes(n, maxlen):
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


@pytest.mark.parametrize("bad", [2.5, True, 0, -1, "3"])
@pytest.mark.parametrize("fn", [cj.positive_conjugates, cj.mu])
def test_class_bound_must_be_a_positive_count(fn, bad):
    # a singleton class, so a bound that is not a count cannot be reached
    with pytest.raises(DomainError, match="max_members"):
        fn(br.delta(3, 2), max_members=bad)


def reference_class(b):
    """Member -> conjugator, by conjugating every member by every
    non-trivial simple, Delta included, as two full products."""
    n = b.n
    simples = [(br.inverse(s), s) for s in br.all_simples(n) if not s.is_trivial]
    found = {b: br.identity(n)}
    frontier = [b]
    while frontier:
        fresh = []
        for x in frontier:
            for s_inv, s in simples:
                y = br.mul(br.mul(s_inv, x), s)
                if y.inf < 0 or y in found:
                    continue
                found[y] = br.mul(found[x], s)
                fresh.append(y)
        frontier = fresh
    return found


def _artin(n, letters):
    return invariants.act_partial(invariants.FreeConjugationRack(),
                                  tuple((i,) for i in range(1, n + 1)), letters)


@pytest.mark.parametrize("n,max_len", [(3, 6), (4, 4)])
def test_flip_orbit_search_matches_all_simples_reference(n, max_len):
    for x, cls in _classes(n, max_len):
        assert set(cls.members) == set(reference_class(x)), letters_of(x)
        assert len(set(cls.members)) == len(cls.members)
        root = letters_of(x)
        for m in cls.members:
            u = letters_of(cls.witness(m))
            assert _artin(n, root + u) == _artin(n, u + letters_of(m))


@pytest.mark.parametrize("n,max_len", [(3, 6), (4, 4)])
def test_mu_is_the_least_member_by_flipped_key(n, max_len):
    # mu keys the reversed class; this keys the class itself
    for x, cls in _classes(n, max_len):
        least = min(cls.members, key=lambda m: flipped_key(m, n))
        for b in (x, br.flip(x)):
            assert cj.mu(b) == least, letters_of(b)


@pytest.mark.parametrize("n,max_len", [(3, 5), (4, 3)])
def test_class_bound_is_exact(n, max_len):
    # members arrive in flip pairs, and the bound holds after each of them
    sizes = set()
    for x, cls in _classes(n, max_len):
        assert len(cj.positive_conjugates(x, max_members=len(cls))) == len(cls)
        if len(cls) > 1:
            sizes.add(len(cls))
            with pytest.raises(ResourceError):
                cj.positive_conjugates(x, max_members=len(cls) - 1)
    assert 2 in sizes and any(k % 2 for k in sizes)


def test_class_in_b2_is_the_braid_alone():
    x = br.from_word(br.BraidWord(2, (1, 1, 1)))
    cls = cj.positive_conjugates(x)
    assert cls.members == (x,) and cls.witness(x).is_trivial
    assert cj.mu(x) == x


def test_simple_list_respects_memory_cap(monkeypatch):
    # 718 simples of B_6 take about 184 kB, the 118 of B_5 about 30 kB
    monkeypatch.setenv("LDLAB_MAX_MEM", "100000")
    with pytest.raises(ResourceError, match="LDLAB_MAX_MEM"):
        cj.positive_conjugates("1", 6)
    assert len(cj.positive_conjugates("1", 5)) == 4


def test_enumeration_mul_count_is_pinned(count_calls):
    # a machine-independent cost: 29,728 products with the all-simples search
    # and a per-member splitting, 12,848 on flip orbits with a shared key
    # memo, 944 with covered simples skipped and no witnesses in mu; the
    # skip keeps the trial conjugations at 1,604 (1,944 without it)
    braids = [W(w) for w in itertools.product((1, 2), repeat=6)]
    calls = count_calls(br, "mul")
    trials = count_calls(br, "_conjugate_simple")
    for b in braids:
        cj.positive_conjugates(b)
        cj.mu(b)
    assert 0 < calls[0] <= 944
    assert 0 < trials[0] <= 1604


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


def test_sweep_enumerates_two_classes_per_row(count_calls):
    calls = count_calls(cj, "_class_links")
    rows = cj.sweep_mu_delta(4)
    assert len(rows) == 26 and calls[0] == 52


def test_sweep_reports_status_per_braid():
    rows = cj.sweep_mu_delta(3)
    assert len(rows) == 14
    assert rows[0] == cj.SweepRow((), (), False)
    by_word = {r.word: r for r in rows}
    assert by_word[(2,)].mu_word == (1,)
    assert by_word[(1, 2, 1)].mu_word == (2, 1, 1)
    assert all(r.agrees is False for r in rows)
