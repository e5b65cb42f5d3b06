"""Property tests of the Garside engine on random signed words.

The independent oracle for equality is the Artin action of B_n on the
free group F_n (through the free conjugation rack), which is faithful:
two words give the same braid exactly when they act alike on the
generators x_1 .. x_n.  The group laws and the word-reversing
anti-automorphism are checked on the same words, the parabolic strip and
the left division by a simple on positive words.  These tests need Hypothesis (the ``test`` extra); the
module is skipped without it.
"""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from ldlab import braid as br
from ldlab import invariants


def b(n, *letters):
    return br.from_word(br.BraidWord(n, tuple(letters)))


def _signed_words(n, max_len=8):
    letter = st.integers(1, n - 1).flatmap(lambda i: st.sampled_from((i, -i)))
    return st.lists(letter, max_size=max_len).map(tuple)


def _word_tuples(count):
    return st.integers(3, 5).flatmap(
        lambda n: st.tuples(st.just(n), *[_signed_words(n)] * count))


def _artin(n, w):
    """The faithful Artin action on the free group, as images of x_1..x_n."""
    return invariants.act_partial(invariants.FreeConjugationRack(),
                                  tuple((i,) for i in range(1, n + 1)), w)


@settings(max_examples=150, deadline=None)
@given(_word_tuples(2))
def test_equality_is_artin_equality(case):
    n, u, v = case
    assert (b(n, *u) == b(n, *v)) == (_artin(n, u) == _artin(n, v))
    assert b(n, *u) == b(n, *(u + v + tuple(-l for l in reversed(v))))


@settings(max_examples=100, deadline=None)
@given(_word_tuples(3))
def test_group_laws(case):
    n, u, v, w = (case[0],) + tuple(b(case[0], *x) for x in case[1:])
    assert br.mul(br.mul(u, v), w) == br.mul(u, br.mul(v, w))
    assert br.mul(u, br.inverse(u)).is_trivial
    assert br.mul(br.inverse(u), u).is_trivial


@settings(max_examples=100, deadline=None)
@given(_word_tuples(2))
def test_reversal_is_an_involutive_anti_automorphism(case):
    n, u, v = (case[0],) + tuple(b(case[0], *x) for x in case[1:])
    assert br._rev(br._rev(u)) == u
    assert br._rev(br.mul(u, v)) == br.mul(br._rev(v), br._rev(u))
    assert br._rev(u) == b(n, *reversed(case[1]))


def _strip_cases():
    return st.integers(3, 5).flatmap(lambda n: st.tuples(
        st.just(n), st.integers(2, n),
        st.lists(st.integers(1, n - 1), max_size=8).map(tuple)))


@settings(max_examples=100, deadline=None)
@given(_strip_cases())
def test_parabolic_strip_splits_off_the_largest_divisor(case):
    n, k, w = case
    x = b(n, *w)
    divisor, rest = br._strip_parabolic(x, k)
    assert all(1 <= i < k for i in br.to_word(divisor).letters)
    assert rest.inf >= 0
    assert br.mul(rest, divisor) == x
    assert not any(br.right_divides(br.sigma(n, i), rest) for i in range(1, k))


def _division_cases():
    return st.integers(2, 5).flatmap(lambda n: st.tuples(
        st.just(n), st.permutations(range(1, n + 1)), st.integers(0, 2),
        st.lists(st.integers(1, n - 1), max_size=8).map(tuple)))


@settings(max_examples=200, deadline=None)
@given(_division_cases())
def test_left_division_by_a_simple(case):
    n, perm, k, w = case
    s = b(n, *br._simple_word(tuple(perm)))
    z = br.mul(br.delta(n, k), b(n, *w))
    q = br._left_divide_simple(tuple(perm), z)
    assert (q is None) == (not br.left_divides(s, z))
    if q is not None:
        assert q.inf >= 0
        assert br.mul(s, q) == z
