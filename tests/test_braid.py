"""Garside engine tests.

The independent oracle for positive words is the equivalence closure of
the defining relations: the moves sigma_i sigma_j <-> sigma_j sigma_i for
|i-j| >= 2 and sigma_i sigma_j sigma_i <-> sigma_j sigma_i sigma_j for
|i-j| = 1 are length-preserving, so the full class of a short word is
reachable by breadth-first search.  Two positive words represent the same
braid exactly when their classes coincide, and a positive braid d
right-divides b exactly when some word for b has a suffix that is a word
for d.
"""

import itertools
import pickle
import random

import pytest

from ldlab import braid as br
from ldlab import games as g
from ldlab import order as od
from ldlab.errors import DomainError


def _rewrites(word):
    for k in range(len(word) - 1):
        i, j = word[k], word[k + 1]
        if abs(i - j) >= 2:
            yield word[:k] + (j, i) + word[k + 2:]
    for k in range(len(word) - 2):
        i, j, i2 = word[k], word[k + 1], word[k + 2]
        if i == i2 and abs(i - j) == 1:
            yield word[:k] + (j, i, j) + word[k + 3:]


def word_class(word):
    start = tuple(word)
    seen = {start}
    frontier = [start]
    while frontier:
        w = frontier.pop()
        for v in _rewrites(w):
            if v not in seen:
                seen.add(v)
                frontier.append(v)
    return frozenset(seen)


def oracle_right_divides(divisor, dividend):
    if len(divisor) > len(dividend):
        return False
    if not divisor:
        return True
    dcls = word_class(divisor)
    k = len(divisor)
    return any(w[-k:] in dcls for w in word_class(dividend))


def positive_words(n, length):
    return itertools.product(range(1, n), repeat=length)


def b(n, *letters):
    return br.from_word(br.BraidWord(n, tuple(letters)))


# ---------------------------------------------------------------------------
# word problem against the closure oracle

@pytest.mark.parametrize("n,maxlen", [(3, 5), (4, 4)])
def test_equal_matches_word_oracle(n, maxlen):
    for length in range(maxlen + 1):
        class_of = {}
        next_id = 0
        for w in positive_words(n, length):
            if w in class_of:
                continue
            for v in word_class(w):
                class_of[v] = next_id
            next_id += 1
        nf_of = {w: b(n, *w) for w in positive_words(n, length)}
        for w, v in itertools.combinations(sorted(nf_of), 2):
            assert (class_of[w] == class_of[v]) == (nf_of[w] == nf_of[v])


def test_normal_form_pinned():
    assert b(3, 1, 2, 1) == b(3, 2, 1, 2) == br.delta(3)
    assert b(3, 1, 2, 1).factors == ()
    assert b(3, 1, 2, 1).inf == 1
    assert b(3, 1, -1).is_trivial
    assert br.equal(b(3, 1, 2, -1), b(3, -2, 1, 2))
    assert b(2, 1, 1, 1) == br.Braid(2, 3, ())
    assert br.from_word(br.BraidWord(3, br.delta_word(3))) == br.delta(3)


def test_word_roundtrip():
    rng = random.Random(11)
    for _ in range(300):
        n = rng.randint(2, 5)
        letters = tuple(rng.choice((1, -1)) * rng.randint(1, n - 1)
                        for _ in range(rng.randint(0, 12)))
        x = br.from_word(br.BraidWord(n, letters))
        assert br.from_word(br.to_word(x)) == x


def test_relation_insensitivity():
    rng = random.Random(23)
    for _ in range(200):
        n = rng.randint(3, 5)
        letters = [rng.choice((1, -1)) * rng.randint(1, n - 1)
                   for _ in range(rng.randint(1, 10))]
        x = br.from_word(br.BraidWord(n, tuple(letters)))
        pos = rng.randint(0, len(letters))
        i = rng.randint(1, n - 1)
        padded = letters[:pos] + [i, -i] + letters[pos:]
        assert br.from_word(br.BraidWord(n, tuple(padded))) == x
        spots = [k for k in range(len(letters) - 1)
                 if abs(abs(letters[k]) - abs(letters[k + 1])) >= 2]
        if spots:
            k = rng.choice(spots)
            swapped = list(letters)
            swapped[k], swapped[k + 1] = swapped[k + 1], swapped[k]
            assert br.from_word(br.BraidWord(n, tuple(swapped))) == x


def test_is_positive():
    assert br.is_positive(b(3, -1, 1))
    assert not br.is_positive(b(3, 1, 2, -1))
    assert br.is_positive(b(3, 1, 2, 1))
    assert not br.is_positive(br.inverse(br.delta(3)))


def test_braid_length():
    rng = random.Random(5)
    for _ in range(100):
        n = rng.randint(2, 5)
        w = tuple(rng.randint(1, n - 1) for _ in range(rng.randint(0, 10)))
        assert br.braid_length(b(n, *w)) == len(w)


# ---------------------------------------------------------------------------
# divisibility

def test_right_divides_pinned():
    d3 = br.delta(3)
    assert br.right_divides(br.sigma(3, 1), d3)
    assert br.right_divides(br.sigma(3, 2), d3)
    assert not br.right_divides(d3, br.sigma(3, 1))
    with pytest.raises(DomainError):
        br.right_divides(b(3, -1), d3)


def test_right_divides_beyond_last_factor():
    # Delta sigma_1 = sigma_2 sigma_2 sigma_1 sigma_2, so sigma_2 right-divides
    # it even though the last normal-form factor is sigma_1.
    x = br.mul(br.delta(3), br.sigma(3, 1))
    assert x.factors == (br.sigma(3, 1).factors[0],)
    assert br.right_divides(br.sigma(3, 2), x)
    assert br.equal(br.mul(x, br.inverse(br.sigma(3, 2))), b(3, 2, 2, 1))


def test_right_divides_matches_oracle():
    for blen in range(5):
        for w in positive_words(3, blen):
            for dlen in range(blen + 1):
                for d in positive_words(3, dlen):
                    got = br.right_divides(b(3, *d), b(3, *w))
                    assert got == oracle_right_divides(d, w), (d, w)


def test_left_gcd_pinned():
    x = b(3, 1, 2)
    assert br.left_gcd(x, x) == x
    assert br.left_gcd(br.sigma(3, 1), br.sigma(3, 2)).is_trivial
    assert br.left_gcd(b(3, 1, 2), b(3, 1, 1)) == br.sigma(3, 1)
    assert br.left_gcd(br.delta(3), b(3, 2, 1, 1)) == b(3, 2, 1)


def test_left_gcd_matches_oracle():
    rng = random.Random(77)
    for n, maxlen in ((3, 5), (4, 4)):
        words = [tuple(rng.randint(1, n - 1) for _ in range(rng.randint(0, maxlen)))
                 for _ in range(40)]
        for u, v in zip(words[::2], words[1::2]):
            g = br.left_gcd(b(n, *u), b(n, *v))
            assert br.left_divides(g, b(n, *u))
            assert br.left_divides(g, b(n, *v))
            ucls, vcls = word_class(u), word_class(v)
            common = {w[:k] for w in ucls for k in range(len(u) + 1)} & \
                     {w[:k] for w in vcls for k in range(len(v) + 1)}
            best = max(len(w) for w in common)
            assert br.braid_length(g) == best
            reps = {b(n, *w) for w in common if len(w) == best}
            assert reps == {g}


def test_max_right_divisor_in_parabolic_pinned():
    got = br.max_right_divisor_in_parabolic(b(3, 2, 1, 1), 2)
    assert got == b(3, 1, 1)
    assert br.max_right_divisor_in_parabolic(br.sigma(3, 2), 2).is_trivial
    assert br.max_right_divisor_in_parabolic(br.delta(3), 3) == br.delta(3)
    with pytest.raises(DomainError):
        br.max_right_divisor_in_parabolic(b(3, 2, 1), 5)


def _oracle_max_parabolic(word, n, k):
    classes = {}
    for w in word_class(word):
        for length in range(len(word) + 1):
            suf = w[len(w) - length:]
            if all(l <= k - 1 for l in suf):
                classes.setdefault(length, set()).add(b(n, *suf))
    best = max(classes)
    assert len(classes[best]) == 1, "maximal parabolic right-divisor not unique"
    return next(iter(classes[best]))


def test_max_right_divisor_matches_bruteforce_b3():
    for length in range(6):
        for w in positive_words(3, length):
            got = br.max_right_divisor_in_parabolic(b(3, *w), 2)
            assert got == _oracle_max_parabolic(w, 3, 2)


def test_max_right_divisor_matches_bruteforce_b4():
    rng = random.Random(101)
    for _ in range(12):
        w = tuple(rng.randint(1, 3) for _ in range(8))
        for k in (2, 3):
            got = br.max_right_divisor_in_parabolic(b(4, *w), k)
            assert got == _oracle_max_parabolic(w, 4, k)


# ---------------------------------------------------------------------------
# structural maps

def test_flip():
    assert br.flip(br.sigma(3, 1)) == br.sigma(3, 2)
    assert br.flip(br.delta(4)) == br.delta(4)
    rng = random.Random(3)
    for _ in range(60):
        n = rng.randint(2, 5)
        w = tuple(rng.choice((1, -1)) * rng.randint(1, n - 1)
                  for _ in range(rng.randint(0, 8)))
        x = b(n, *w)
        assert br.flip(br.flip(x)) == x
        y = b(n, *tuple(rng.choice((1, -1)) * rng.randint(1, n - 1)
                        for _ in range(rng.randint(0, 8))))
        assert br.flip(br.mul(x, y)) == br.mul(br.flip(x), br.flip(y))
    with pytest.raises(DomainError):
        br.flip(br.sigma(3, 1), 4)


def test_shift_and_embed():
    assert br.shift(br.sigma(3, 1), 3) == br.sigma(3, 2)
    assert br.shift(br.identity(2), 2) == br.identity(2)
    with pytest.raises(DomainError):
        br.shift(br.sigma(3, 2), 3)
    assert br.embed(b(3, 1, 2, -1), 5) == b(5, 1, 2, -1)
    with pytest.raises(DomainError):
        br.embed(b(3, 2, 1), 2)
    seen = {}
    for w in positive_words(3, 4):
        img = br.shift(b(3, *w), 5)
        prev = seen.setdefault(img, b(3, *w))
        assert prev == b(3, *w)


def test_shifted_conj_base_case():
    assert br.shifted_conj(br.identity(2), br.identity(2), 2) == br.sigma(2, 1)
    got = br.shifted_conj(br.sigma(2, 1), br.identity(2), 3)
    assert br.equal(got, b(3, 1, 1, -2))


def test_shifted_conj_left_distributes():
    rng = random.Random(404)
    for _ in range(50):
        tri = [b(3, *(rng.choice((1, -1)) * rng.randint(1, 2)
                      for _ in range(rng.randint(0, 4))))
               for _ in range(3)]
        x, y, z = tri
        lhs = br.shifted_conj(x, br.shifted_conj(y, z, 6), 6)
        rhs = br.shifted_conj(br.shifted_conj(x, y, 6),
                              br.shifted_conj(x, z, 6), 6)
        assert lhs == rhs


# ---------------------------------------------------------------------------
# decompositions

def test_fraction_decomposition_pinned():
    b1, b2 = br.fraction_decomposition(b(3, 1, 2, -1))
    assert b1 == br.sigma(3, 2)
    assert b2 == b(3, 1, 2)
    pos = b(3, 2, 1, 2)
    assert br.fraction_decomposition(pos) == (br.identity(3), pos)
    b1, b2 = br.fraction_decomposition(b(3, -1))
    assert b1 == br.sigma(3, 1)
    assert b2.is_trivial


def test_delta_decomposition_pinned():
    d, b0 = br.delta_decomposition(b(3, 1, 2, -1))
    assert d == 1
    assert b0 == b(3, 2, 1, 1, 2)
    pos = b(3, 1, 1)
    assert br.delta_decomposition(pos) == (0, pos)
    d, b0 = br.delta_decomposition(br.inverse(br.mul(br.delta(3), br.delta(3))))
    assert d == 2
    assert b0.is_trivial


def test_decompositions_recompose():
    rng = random.Random(999)
    for _ in range(1000):
        n = rng.randint(2, 5)
        w = br.BraidWord(n, tuple(rng.choice((1, -1)) * rng.randint(1, n - 1)
                                  for _ in range(rng.randint(0, 12))))
        x = br.from_word(w)
        b1, b2 = br.fraction_decomposition(x)
        assert b1.inf >= 0 and b2.inf >= 0
        assert br.left_gcd(b1, b2).is_trivial
        assert br.mul(br.inverse(b1), b2) == x
        d, b0 = br.delta_decomposition(x)
        assert d >= 0 and b0.inf >= 0
        assert br.mul(br.delta(n, -d), b0) == x
        if d > 0:
            assert not br.left_divides(br.delta(n), b0)


# ---------------------------------------------------------------------------
# words, validation, enumeration

def test_word_validation():
    with pytest.raises(DomainError):
        br.BraidWord(3, (0,))
    with pytest.raises(DomainError):
        br.BraidWord(3, (3,))
    with pytest.raises(DomainError):
        br.parse_word("1 x", 3)
    w = br.parse_word("1 2 -1", 3)
    assert w.letters == (1, 2, -1)
    assert br.render_word(w) == "1 2 -1"
    with pytest.raises(DomainError):
        br.mul(br.sigma(3, 1), br.sigma(4, 1))


def test_positive_enumeration_matches_wordwise_counts():
    for n, maxlen in ((3, 5), (4, 4)):
        by_len = {}
        for length, x in br.positive_braids_up_to(n, maxlen):
            by_len.setdefault(length, set()).add(x)
        for length in range(maxlen + 1):
            distinct = {b(n, *w) for w in positive_words(n, length)}
            assert by_len[length] == distinct


def test_all_simples():
    simples3 = list(br.all_simples(3))
    assert len(simples3) == 6
    assert br.identity(3) in simples3
    assert br.delta(3) in simples3
    assert len(list(br.all_simples(4))) == 24
    for s in simples3:
        assert len(s.factors) + abs(s.inf) <= 1


# ---------------------------------------------------------------------------
# the checked constructor

def test_constructor_rejects_unweighted_factors():
    # (1,3,2) (2,1,3) spells sigma_2 sigma_1, whose normal form is one factor
    with pytest.raises(DomainError):
        br.Braid(3, 0, ((1, 3, 2), (2, 1, 3)))
    assert br.to_word(b(3, 2, 1)).letters == (2, 1)
    with pytest.raises(DomainError):
        br.Braid(3, 0, ((1, 2, 3),))
    with pytest.raises(DomainError):
        br.Braid(3, 0, ((1, 1, 3),))


@pytest.mark.parametrize("n", [3, 4])
def test_constructor_accepts_every_normal_form(n):
    for length in range(6):
        for w in positive_words(n, length):
            for x in (b(n, *w), br.inverse(b(n, *w))):
                assert br.Braid(x.n, x.inf, x.factors) == x


# ---------------------------------------------------------------------------
# the one-pass normal form and the closed-form inverse against the loops
# they replaced

def _bubble_normalize(n, perms):
    """Sweep every pair until nothing changes, dropping each 1 and moving
    each Delta into the count, tau-conjugating what stands before it."""
    idp, w0 = br.identity_perm(n), br.w0_perm(n)
    fs = list(perms)
    d = 0
    changed = True
    while changed:
        changed = False
        i = 0
        while i < len(fs):
            if fs[i] == idp:
                fs.pop(i)
                changed = True
            elif fs[i] == w0:
                fs.pop(i)
                d += 1
                fs[:i] = [br.tau_perm(f, n) for f in fs[:i]]
                changed = True
            else:
                i += 1
        for j in range(len(fs) - 1):
            pair = br._left_weighted_fix(fs[j], fs[j + 1])
            if pair != (fs[j], fs[j + 1]):
                fs[j], fs[j + 1] = pair
                changed = True
    return d, tuple(fs)


def _bubble_mul(u, v):
    n = u.n
    uf = u.factors
    if v.inf % 2:
        uf = tuple(br.tau_perm(f, n) for f in uf)
    d, fs = _bubble_normalize(n, uf + v.factors)
    return br._nf(n, u.inf + v.inf + d, fs)


def _per_factor_inverse(x):
    """Multiply the factor inverses Delta^-1 . tau(complement(f)) in reverse
    order, then Delta^-inf, normalising every product."""
    n = x.n
    out = br._nf(n, 0, ())
    for f in reversed(x.factors):
        d, fs = _bubble_normalize(n, (br.tau_perm(br._complement(f), n),))
        out = _bubble_mul(out, br._nf(n, d - 1, fs))
    return _bubble_mul(out, br._nf(n, -x.inf, ()))


def _random_perm(rng, n):
    p = list(range(1, n + 1))
    rng.shuffle(p)
    return tuple(p)


def test_normalize_matches_bubble_loop():
    rng = random.Random(2024)
    for _ in range(3000):
        n = rng.randint(2, 6)
        pool = (br.identity_perm(n), br.w0_perm(n))
        perms = [rng.choice(pool) if rng.random() < 0.2 else _random_perm(rng, n)
                 for _ in range(rng.randint(0, 8))]
        d, fs = br._normalize(n, perms)
        assert (d, fs) == _bubble_normalize(n, perms), (n, perms)
        assert br.Braid(n, d, fs) == br._nf(n, d, fs)


def test_inverse_matches_per_factor_products():
    rng = random.Random(2025)
    for _ in range(600):
        n = rng.randint(2, 6)
        w = tuple(rng.choice((1, -1)) * rng.randint(1, n - 1)
                  for _ in range(rng.randint(0, 12)))
        x = b(n, *w)
        y = br.inverse(x)
        assert y == _per_factor_inverse(x), (n, w)
        assert br.Braid(n, y.inf, y.factors) == y
        assert br.mul(x, y).is_trivial


@pytest.mark.parametrize("n,maxlen", [(3, 6), (4, 4)])
def test_conjugate_simple_matches_product_then_division(n, maxlen):
    # times Delta and Delta^2 reaches the inf >= 1 case in both parities
    simples = [s for s in br.all_simples(n) if s.factors]
    for _, x in br.positive_braids_up_to(n, maxlen):
        for power in (0, 1, 2):
            y = br.mul(x, br.delta(n, power))
            for s in simples:
                p = s.factors[0]
                assert br._conjugate_simple(p, y) == \
                    br._left_divide_simple(p, br.mul(y, s)), (y, p)


# ---------------------------------------------------------------------------
# the reversal strip against the probing reference

def _probing_max_parabolic(x, k):
    """Reference: probe sigma_1 .. sigma_{k-1} with right_divides, strip the
    first that divides, repeat."""
    n = x.n
    div = br.identity(n)
    while True:
        found = next((i for i in range(1, k)
                      if br.right_divides(br.sigma(n, i), x)), None)
        if found is None:
            return div
        x = br.mul(x, br.inverse(br.sigma(n, found)))
        div = br.mul(br.sigma(n, found), div)


@pytest.mark.parametrize("n,maxlen", [(3, 6), (4, 5)])
def test_max_right_divisor_matches_probing_reference(n, maxlen):
    for length in range(maxlen + 1):
        for w in positive_words(n, length):
            x = b(n, *w)
            for k in range(2, n + 1):
                got = br.max_right_divisor_in_parabolic(x, k)
                assert got == _probing_max_parabolic(x, k), (w, k)


def test_max_right_divisor_beyond_last_factor():
    # sigma_3 right-divides 1 1 3 although the last factor's right descents
    # are {1}: the strip has to see past the last factor
    x = br.from_word(br.parse_word("1 1 3", 4))
    assert x.factors[-1] == (2, 1, 3, 4)
    assert br.right_descents(x.factors[-1]) == (1,)
    assert br.right_divides(br.sigma(4, 3), x)
    for k in (2, 3, 4):
        got = br.max_right_divisor_in_parabolic(x, k)
        assert got == _probing_max_parabolic(x, k)
    assert br.max_right_divisor_in_parabolic(x, 3) == b(4, 1, 1)
    assert br.max_right_divisor_in_parabolic(x, 4) == x


# ---------------------------------------------------------------------------
# value classes

def test_values_are_immutable():
    x = b(3, 1, 2)
    values = [(x, "inf"), (od.OrdinalCNF(((1, 2),)), "terms"),
              (g.G3State((1, 2)), "steps")]
    for value, field in values:
        with pytest.raises(AttributeError):
            setattr(value, field, 0)
        with pytest.raises(AttributeError):
            delattr(value, field)
        assert pickle.loads(pickle.dumps(value)) == value
    assert x == b(3, 1, 2) and hash(x) == hash(b(3, 1, 2))
    assert g.G3State((1, 2)) == g.G3State((1, 2), t=1, steps=0)
    assert od.OrdinalCNF() == od.ORDINAL_ZERO
