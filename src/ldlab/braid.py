"""Garside engine for Artin braid groups.

Braids are kept in left-weighted normal form over permutation braids:
``Delta^inf . f_1 ... f_k`` with every ``f_j`` a non-trivial simple
element distinct from Delta and every adjacent pair left-weighted.  That
form is unique, so two `Braid` values are equal exactly when they are the
same braid.  The public constructor ``Braid(n, inf, factors)`` holds every
value to it, or raises DomainError; the operations of this module build
their results through the unchecked ``_nf``.  All values are immutable.

The kernels work a simple at a time (Epstein et al., *Word Processing in
Groups*, 1992, ch. 9): `_normalize` takes each simple in with one
right-to-left pass, a left division by a simple rewrites the head only,
and gcds are peeled off as meets of heads.  So are parabolic right
divisors, off a reversal, which a splitting carries from level to level.
`inverse` is the closed form of El-Rifai and Morton (Q. J. Math. 45,
1994), left-weighted as it stands.

Permutations are one-line tuples over 1..n.  ``perm_mul(p, q)`` composes
"p then q", matching left-to-right reading of braid words.  What the
engine reads off a single permutation and the left-weighting of a pair
are memoised on first use, each memo up to a fixed number of entries.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

from .errors import DomainError, _is_int, check_letters, count, element

Perm = Tuple[int, ...]

# The most entries any memo of this module keeps.  That holds every
# permutation of up to 7 strands and every pair of non-trivial simples of
# B_4 (22**2 of them); a full pair table for B_6 would need 720**2.
_MEMO_SIZE = 1 << 13
_memo = functools.lru_cache(maxsize=_MEMO_SIZE)


# ---------------------------------------------------------------------------
# permutation helpers

@_memo
def identity_perm(n: int) -> Perm:
    return tuple(range(1, n + 1))


@_memo
def w0_perm(n: int) -> Perm:
    """Longest element: the permutation of the half-twist Delta_n."""
    return tuple(range(n, 0, -1))


def perm_mul(p: Perm, q: Perm) -> Perm:
    """Composition "p then q" (apply p first)."""
    return tuple(q[v - 1] for v in p)


@_memo
def perm_inv(p: Perm) -> Perm:
    out = [0] * len(p)
    for pos, val in enumerate(p):
        out[val - 1] = pos + 1
    return tuple(out)


@_memo
def tau_perm(p: Perm, n: int) -> Perm:
    """Conjugation by Delta: tau(p) = w0 p w0, i.e. sigma_i -> sigma_{n-i}."""
    return tuple(n + 1 - p[n - 1 - i] for i in range(n))


@_memo
def perm_len(p: Perm) -> int:
    """Inversion count: crossing number of the simple braid."""
    n = len(p)
    return sum(1 for i in range(n) for j in range(i + 1, n) if p[i] > p[j])


@_memo
def left_descents(p: Perm) -> Tuple[int, ...]:
    """Indices i with sigma_i a left divisor of the simple braid of p."""
    return tuple(i for i in range(1, len(p)) if p[i - 1] > p[i])


@_memo
def right_descents(p: Perm) -> Tuple[int, ...]:
    return left_descents(perm_inv(p))


@_memo
def _complement(p: Perm) -> Perm:
    """The simple c with p c = Delta: perm_inv(p) then w0."""
    return perm_mul(perm_inv(p), w0_perm(len(p)))


def _swap_values(p: Perm, i: int) -> Perm:
    """Right-multiply the simple braid by sigma_i."""
    sub = {i: i + 1, i + 1: i}
    return tuple(sub.get(v, v) for v in p)


def _swap_entries(p: Perm, i: int) -> Perm:
    """Left-multiply the simple braid by sigma_i."""
    q = list(p)
    q[i - 1], q[i] = q[i], q[i - 1]
    return tuple(q)


@_memo
def _simple_word(p: Perm) -> Tuple[int, ...]:
    """A positive word for the simple braid of p, greedy on left descents."""
    letters = []
    while p != identity_perm(len(p)):
        i = left_descents(p)[0]
        letters.append(i)
        p = _swap_entries(p, i)
    return tuple(letters)


@_memo
def _left_weighted_fix(a: Perm, b: Perm) -> Tuple[Perm, Perm]:
    """Slide crossings from b into a until the pair (a, b) is left-weighted."""
    while True:
        ra = set(right_descents(a))
        move = next((i for i in left_descents(b) if i not in ra), None)
        if move is None:
            return a, b
        a = _swap_values(a, move)
        b = _swap_entries(b, move)


# ---------------------------------------------------------------------------
# normal form

@dataclass(frozen=True)
class Braid:
    """A braid of B_n in left-weighted normal form Delta^inf . factors."""

    n: int
    inf: int
    factors: Tuple[Perm, ...]

    def __post_init__(self) -> None:
        n = count(self.n, 2, "strand count")
        if not _is_int(self.inf):
            raise DomainError(f"inf must be an integer, got {self.inf!r}")
        idp = identity_perm(n)
        w0 = w0_perm(n)
        for f in self.factors:
            if tuple(sorted(element(v, n, "factor entry") for v in f)) != idp:
                raise DomainError(f"not a permutation of 1..{n}: {f}")
            if f == idp or f == w0:
                raise DomainError("normal-form factors exclude 1 and Delta")
        for a, b in zip(self.factors, self.factors[1:]):
            if not set(left_descents(b)) <= set(right_descents(a)):
                raise DomainError(f"factors {a} and {b} are not left-weighted")

    @property
    def is_trivial(self) -> bool:
        return self.inf == 0 and not self.factors

    def __mul__(self, other: "Braid") -> "Braid":
        return mul(self, other)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Braid(n={self.n}, word={list(to_word(self).letters)})"


def _nf(n: int, inf: int, factors: Tuple[Perm, ...]) -> Braid:
    """A Braid from factors already in normal form, without the checks."""
    b = object.__new__(Braid)
    _set = object.__setattr__
    _set(b, "n", n)
    _set(b, "inf", inf)
    _set(b, "factors", factors)
    return b


@dataclass(frozen=True)
class BraidWord:
    """A word in the letters sigma_i^{+-1}, letter i standing for sigma_i."""

    n: int
    letters: Tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "letters",
                           check_letters(self.letters, count(self.n, 2, "strand count")))


def parse_word(text: str, n: int) -> BraidWord:
    """Parse whitespace-separated signed generator indices."""
    letters = []
    for tok in text.split():
        try:
            letters.append(int(tok))
        except ValueError:
            raise DomainError(f"bad braid letter {tok!r}") from None
    return BraidWord(n, tuple(letters))


def _word(w) -> BraidWord:
    """The word rule where a word's strand count is read: w itself when it
    is a BraidWord, else DomainError."""
    if isinstance(w, BraidWord):
        return w
    raise DomainError(f"expected a BraidWord, got {type(w).__name__}")


def render_word(w: BraidWord) -> str:
    return " ".join(str(l) for l in _word(w).letters)


def _normalize(n: int, perms: Sequence[Perm]) -> Tuple[int, Tuple[Perm, ...]]:
    """Left-weighted form of a product of simples; returns (delta count, factors).

    Each simple is taken onto a product in normal form (Epstein et al.,
    ch. 9).  Delta adds to the count and tau-conjugates the factors before
    it.  Any other simple is appended and the pairs are left-weighted from
    the right, up to the first pair that stays as it is.  Only the appended
    simple can shrink to 1, and Deltas can form only at the front.
    """
    idp = identity_perm(n)
    w0 = w0_perm(n)
    d = 0
    fs: list = []
    for p in perms:
        if p == w0:
            d += 1
            fs = [tau_perm(f, n) for f in fs]
            continue
        if p == idp:
            continue
        fs.append(p)
        for j in range(len(fs) - 2, -1, -1):
            a, b = _left_weighted_fix(fs[j], fs[j + 1])
            if b == fs[j + 1]:
                break
            fs[j], fs[j + 1] = a, b
        if fs[-1] == idp:
            fs.pop()
        while fs and fs[0] == w0:
            fs.pop(0)
            d += 1
    return d, tuple(fs)


def _product(n: int, perms: Sequence[Perm], inf: int = 0) -> Braid:
    """Delta^inf times the product of the simples of perms, normalised once."""
    d, fs = _normalize(n, perms)
    return _nf(n, inf + d, fs)


def identity(n: int) -> Braid:
    return Braid(n, 0, ())


def sigma(n: int, i: int) -> Braid:
    element(i, count(n, 2, "strand count") - 1, "sigma index")
    return _sigma(n, i)


def _sigma(n: int, i: int) -> Braid:
    if n == 2:
        return _nf(2, 1, ())
    return _nf(n, 0, (_swap_entries(identity_perm(n), i),))


def delta(n: int, power: int = 1) -> Braid:
    return Braid(n, power, ())


def delta_word(n: int) -> Tuple[int, ...]:
    """Positive word for Delta_n: sigma_1 . sigma_2 sigma_1 . ... ."""
    out = []
    for i in range(1, count(n, 2, "strand count")):
        out.extend(range(i, 0, -1))
    return tuple(out)


def mul(u, v) -> Braid:
    u, v = _lift(u), _lift(v)
    if u.n != v.n:
        raise DomainError(f"strand mismatch: {u.n} vs {v.n}")
    n = u.n
    uf = u.factors
    if v.inf % 2:
        uf = tuple(tau_perm(f, n) for f in uf)
    d, fs = _normalize(n, uf + v.factors)
    return _nf(n, u.inf + v.inf + d, fs)


def inverse(u) -> Braid:
    """The inverse in closed form (El-Rifai and Morton, Q. J. Math. 45, 1994).

    A^-1 = complement(A) . Delta^-1, and a Delta^-1 moved left over a simple
    tau-conjugates it, so (Delta^r A_1 ... A_m)^-1 = Delta^(-r-m) B_m ... B_1
    with B_j = tau^(r+j)(complement(A_j)), which is already left-weighted.
    """
    u = _lift(u)
    n, r = u.n, u.inf
    fs = tuple(_complement(f) if (r + j) % 2 == 0 else tau_perm(_complement(f), n)
               for j, f in enumerate(u.factors, start=1))
    return _nf(n, -r - len(fs), fs[::-1])


def _rev(b: Braid) -> Braid:
    """The image of b under the anti-automorphism that reverses words.

    A simple reverses to its inverse permutation and Delta to itself, so
    rev(Delta^r f_1 ... f_k) = Delta^r tau^r(f_k^-1) ... tau^r(f_1^-1).
    """
    n = b.n
    fs = tuple(perm_inv(f) for f in reversed(b.factors))
    if b.inf % 2:
        fs = tuple(tau_perm(f, n) for f in fs)
    d, fs = _normalize(n, fs)
    return _nf(n, b.inf + d, fs)


def from_word(w: BraidWord) -> Braid:
    n = _word(w).n
    out = identity(n)
    for l in w.letters:
        g = _sigma(n, abs(l))
        out = mul(out, g if l > 0 else inverse(g))
    return out


def to_word(b) -> BraidWord:
    b = _lift(b)
    letters = []
    dw = delta_word(b.n)
    if b.inf >= 0:
        letters.extend(dw * b.inf)
    else:
        letters.extend(tuple(-l for l in reversed(dw)) * (-b.inf))
    for f in b.factors:
        letters.extend(_simple_word(f))
    return BraidWord(b.n, tuple(letters))


def _lift(x) -> Braid:
    """The braid-value rule: x itself when it is a Braid, the braid of x
    when it is a BraidWord, else DomainError."""
    if isinstance(x, Braid):
        return x
    if isinstance(x, BraidWord):
        return from_word(x)
    raise DomainError(f"expected a braid or braid word, got {type(x).__name__}")


def _positive(x, what: str) -> Braid:
    """The lifted x when it is a positive braid, else DomainError(what)."""
    b = _lift(x)
    if b.inf < 0:
        raise DomainError(what)
    return b


def equal(u, v) -> bool:
    bu, bv = _lift(u), _lift(v)
    if bu.n != bv.n:
        raise DomainError(f"strand mismatch: {bu.n} vs {bv.n}")
    return bu == bv


def is_positive(w) -> bool:
    return _lift(w).inf >= 0


def braid_length(b) -> int:
    """Crossing number; only meaningful for positive braids."""
    b = _lift(b)
    n = b.n
    return b.inf * (n * (n - 1) // 2) + sum(perm_len(f) for f in b.factors)


# ---------------------------------------------------------------------------
# divisibility lattice on the positive monoid

def right_divides(a, b) -> bool:
    """Whether b = c a for some positive c."""
    ba = _positive(a, "divisor must be a positive braid")
    bb = _positive(b, "dividend must be a positive braid")
    return mul(bb, inverse(ba)).inf >= 0


def left_divides(a, b) -> bool:
    """Whether b = a c for some positive c."""
    ba = _positive(a, "divisor must be a positive braid")
    bb = _positive(b, "dividend must be a positive braid")
    return mul(inverse(ba), bb).inf >= 0


def _head(b: Braid) -> Perm:
    """The permutation of gcd(b, Delta) for a positive braid b."""
    if b.inf >= 1:
        return w0_perm(b.n)
    return b.factors[0] if b.factors else identity_perm(b.n)


@_memo
def _meet(p: Perm, q: Perm) -> Perm:
    """The greatest common prefix of two simples in the weak order."""
    g = identity_perm(len(p))
    while True:
        i = next((i for i in left_descents(p) if i in left_descents(q)), None)
        if i is None:
            return g
        g = _swap_values(g, i)
        p, q = _swap_entries(p, i), _swap_entries(q, i)


def left_gcd(a, b) -> Braid:
    """The greatest common left divisor of two positive braids, peeled a
    simple at a time: gcd(a, b) = s . gcd(s^-1 a, s^-1 b), s the heads' meet."""
    ba, bb = (_positive(x, "argument must be a positive braid") for x in (a, b))
    if ba.n != bb.n:
        raise DomainError(f"strand mismatch: {ba.n} vs {bb.n}")
    n = ba.n
    peeled = []
    while True:
        m = _meet(_head(ba), _head(bb))
        if m == identity_perm(n):
            return _product(n, peeled)
        peeled.append(m)
        ba, bb = _left_divide_simple(m, ba), _left_divide_simple(m, bb)


def _left_divide_simple(p: Perm, z: Braid, after: Tuple[Perm, ...] = ()) -> Optional[Braid]:
    """s^-1 . z . a for the simple s of the permutation p, a positive z and
    the product a of the simples of `after`, normalised once; None if s
    does not left-divide z.

    Delta = s . complement(s), so s^-1 Delta^r = Delta^(r-1) tau^(r-1)(complement(s))
    when r >= 1.  Otherwise s left-divides z exactly when it is a prefix
    of the first factor f (1 when z = 1) in the weak order, i.e. when the
    lengths add up: perm_len(s) + perm_len(s^-1 f) == perm_len(f).
    """
    n = z.n
    if z.inf >= 1:
        c = _complement(p)
        if (z.inf - 1) % 2:
            c = tau_perm(c, n)
        d, fs = _normalize(n, (c,) + z.factors + after)
        return _nf(n, z.inf - 1 + d, fs)
    f = z.factors[0] if z.factors else identity_perm(n)
    q = perm_mul(perm_inv(p), f)
    if perm_len(p) + perm_len(q) != perm_len(f):
        return None
    d, fs = _normalize(n, (q,) + z.factors[1:] + after)
    return _nf(n, d, fs)


def _conjugate_simple(p: Perm, x: Braid) -> Optional[Braid]:
    """s^-1 . x . s for the simple s of the permutation p, neither 1 nor
    Delta, and a positive x, or None when that is not positive.

    When inf x >= 1 or s is a prefix of the first factor, s divides x on
    the left and the quotient times s is normalised once.  Otherwise x . s
    is normalised and divided as it stands.
    """
    y = _left_divide_simple(p, x, (p,))
    if y is None:
        y = _left_divide_simple(p, _product(x.n, x.factors + (p,)))
    return y


def _peel_parabolic(r: Braid, k: int) -> Tuple[List[Perm], Braid]:
    """(simples, rest) with r = s_1 ... s_m . rest and s_1 ... s_m the
    largest left divisor of a positive r in sigma_1 .. sigma_{k-1}.

    The parabolic submonoid is Garside with Garside element Delta_k, so
    the divisor is peeled a simple at a time as gcd(r, Delta_k), the meet
    of Delta_k and the head of r, which sorts the head's first k entries.
    On a reversal r = _rev(b) this strips b's largest parabolic right
    divisor, and _rev(rest) = b . divisor^-1.  rev and flip act letter by
    letter, so they commute: flip(_rev(rest)), the next braid of a
    splitting, has the reversal flip(rest), with nothing normalised.
    """
    n = r.n
    dk = w0_perm(k) + identity_perm(n)[k:]
    peeled = []
    while True:
        p = _meet(_head(r), dk)
        if p == identity_perm(n):
            return peeled, r
        peeled.append(p)
        r = _left_divide_simple(p, r)


def _strip_parabolic(b: Braid, k: int) -> Tuple[Braid, Braid]:
    """(d, b . d^-1) for d the largest right-divisor of a positive b in
    sigma_1 .. sigma_{k-1}: the peel of _rev(b), with d the product of
    the reversed simples."""
    peeled, rest = _peel_parabolic(_rev(b), k)
    return _product(b.n, [perm_inv(s) for s in reversed(peeled)]), _rev(rest)


def max_right_divisor_in_parabolic(b, k: int) -> Braid:
    """Largest right-divisor using only sigma_1 .. sigma_{k-1}."""
    bb = _positive(b, "argument must be a positive braid")
    n = bb.n
    if count(k, 2, "parabolic rank") > n:
        raise DomainError(f"parabolic rank {k} out of range for {n} strands")
    return _strip_parabolic(bb, k)[0]


# ---------------------------------------------------------------------------
# structural maps

def flip(b, n: Optional[int] = None) -> Braid:
    """The involutive automorphism sigma_i -> sigma_{n-i}."""
    bb = _lift(b)
    if n is not None and count(n, 2, "strand count") != bb.n:
        raise DomainError(f"flip ambient {n} does not match braid on {bb.n} strands")
    m = bb.n
    return _nf(m, bb.inf, tuple(tau_perm(f, m) for f in bb.factors))


def _moved(b: Braid, ambient: int, offset: int) -> Braid:
    """b in B_ambient with every sigma_i renamed sigma_{i+offset}, rebuilt
    from the words of its irreducible fraction u^-1 v: unlike the canonical
    word, which spells out Delta_n when inf < 0, u and v never leave the
    smallest standard parabolic that holds b."""
    u, v = (to_word(x).letters for x in fraction_decomposition(b))
    if ambient < max(max(itertools.chain(u, v), default=0) + offset + 1, 2):
        raise DomainError(f"ambient {ambient} too small for this braid")
    num, den = (from_word(BraidWord(ambient, tuple(l + offset for l in w)))
                for w in (u, v))
    return mul(inverse(num), den)


def shift(b, ambient: int) -> Braid:
    """The endomorphism sh: sigma_i -> sigma_{i+1}, into B_ambient."""
    return _moved(_lift(b), count(ambient, 2, "ambient strand count"), 1)


def embed(b, ambient: int) -> Braid:
    """The same braid viewed in B_ambient (idle strands added on the right)."""
    bb = _lift(b)
    if count(ambient, 2, "ambient strand count") == bb.n:
        return bb
    return _moved(bb, ambient, 0)


def shifted_conj(beta, gamma, ambient: int) -> Braid:
    """Shifted conjugation beta * gamma = beta sh(gamma) sigma_1 sh(beta)^{-1}."""
    bb, bg = _lift(beta), _lift(gamma)
    sh_b = shift(bb, ambient)
    out = mul(embed(bb, ambient), shift(bg, ambient))
    out = mul(out, sigma(ambient, 1))
    return mul(out, inverse(sh_b))


def fraction_decomposition(w) -> Tuple[Braid, Braid]:
    """Express a braid as beta_1^{-1} beta_2 with no common left-divisor."""
    b = _lift(w)
    n = b.n
    d = max(0, -b.inf)
    beta1 = delta(n, d)
    beta2 = mul(beta1, b)
    g_inv = inverse(left_gcd(beta1, beta2))
    return mul(g_inv, beta1), mul(g_inv, beta2)


def delta_decomposition(w) -> Tuple[int, Braid]:
    """Express a braid as Delta^{-d} beta0 with d >= 0 minimal."""
    b = _lift(w)
    d = max(0, -b.inf)
    return d, mul(delta(b.n, d), b)


# ---------------------------------------------------------------------------
# enumeration helper

def positive_braids_up_to(n: int, max_len: int) -> Iterator[Tuple[int, Braid]]:
    """Yield (crossing number, braid) for all positive braids of length <= max_len."""
    count(max_len, 0, "max_len")
    layer = {identity(n)}
    yield 0, identity(n)
    for length in range(1, max_len + 1):
        nxt = set()
        for b in layer:
            for i in range(1, n):
                nxt.add(mul(b, sigma(n, i)))
        for b in sorted(nxt, key=lambda x: to_word(x).letters):
            yield length, b
        layer = nxt


def all_simples(n: int) -> Iterator[Braid]:
    """All simple braids (divisors of Delta_n), the identity included."""
    for p in itertools.permutations(range(1, count(n, 2, "strand count") + 1)):
        yield _product(n, (p,))
