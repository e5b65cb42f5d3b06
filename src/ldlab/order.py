"""Left-invariant braid orderings, splittings, and ordinal ranks.

The flipped order on positive braids is ShortLex on Phi_n-splittings,
recursing on strand count (Burckel, JPAA 120, 1997; Dehornoy, JPAA 212,
2008), and `flipped_key` is that order as one sort key per braid.
Arbitrary braids are compared by making both sides positive with a
central power of Delta_n^2 and flipping.  Ranks in (BP_3, <) are
ordinals below omega^omega, kept in Cantor normal form.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from . import braid as br
from .errors import DomainError


# ---------------------------------------------------------------------------
# sigma-positive words

def sigma_positive_index(w: br.BraidWord) -> Optional[int]:
    """The i making w sigma_i-positive: sigma_i occurs, sigma_i^{-1} and all
    lower-index letters do not.  Purely syntactic."""
    if not w.letters:
        return None
    m = min(abs(l) for l in w.letters)
    if m in w.letters and -m not in w.letters:
        return m
    return None


# ---------------------------------------------------------------------------
# splittings

@dataclass(frozen=True)
class SplittingSeq:
    """The Phi_n-splitting (beta_p, ..., beta_1); entries on n-1 strands,
    stored leading entry first."""

    n: int
    entries: Tuple[br.Braid, ...]

    def __post_init__(self) -> None:
        if self.n < 3:
            raise DomainError(f"splittings need n >= 3, got {self.n}")
        if not self.entries:
            raise DomainError("a splitting has at least one entry")
        for e in self.entries:
            if e.n != self.n - 1:
                raise DomainError(f"entry on {e.n} strands in a {self.n}-strand splitting")
            if e.inf < 0:
                raise DomainError("splitting entries must be positive")

    @property
    def p(self) -> int:
        return len(self.entries)

    def recompose(self) -> br.Braid:
        """Phi^{p-1}(beta_p) ... Phi(beta_2) beta_1 in B_n."""
        out = br.identity(self.n)
        p = self.p
        for k, e in enumerate(self.entries):
            x = br.embed(e, self.n)
            if (p - 1 - k) % 2:
                x = br.flip(x)
            out = br.mul(out, x)
        return out


def _split_step(r: br.Braid, n: int) -> Tuple[br.Braid, Optional[br.Braid]]:
    """For r the reversal of a positive braid b of B_n: the entry stripped
    off the right of b, and the reversal of the flipped remainder that the
    splitting continues on (None when empty).

    The peeled simples fix strand n: the entry is their inverses in reverse
    order less their last entry, normalised once, on n - 1 strands.
    """
    peeled, rest = br._peel_parabolic(r, n - 1)
    d, fs = br._normalize(n - 1, [br.perm_inv(s)[:-1] for s in reversed(peeled)])
    return br._nf(n - 1, d, fs), None if rest.is_trivial else br.flip(rest)


def splitting(beta, n: int) -> SplittingSeq:
    """Strip maximal parabolic right-divisors, flipping the remainder."""
    if n < 3:
        raise DomainError(f"splittings need n >= 3, got {n}")
    r = br._rev(br.embed(br._lift(beta), n))
    if r.inf < 0:
        raise DomainError("splitting needs a positive braid")
    entries: List[br.Braid] = []
    while r is not None:
        entry, r = _split_step(r, n)
        entries.append(entry)
    return SplittingSeq(n, tuple(reversed(entries)))


def is_normal(seq: SplittingSeq) -> bool:
    """Whether the sequence is a genuine splitting: at every level above the
    last, sigma_1 is the only generator right-dividing the recomposed suffix,
    i.e. left-dividing its reversal (equivalently, each stripped divisor was
    maximal)."""
    n = seq.n
    suffix = br.identity(n)
    p = seq.p
    for r in range(p, 0, -1):
        suffix = br.mul(br.flip(suffix), br.embed(seq.entries[p - r], n))
        if r == 1:
            break
        if br.left_descents(br._head(br._rev(suffix))) != (1,):
            return False
    return True


# ---------------------------------------------------------------------------
# order comparisons

def _flipped_keys(n: int, of_reversals: bool = False) -> Callable[[br.Braid], Any]:
    """`flipped_key` on positive braids of B_n, as a function that keeps
    one memo over all its calls.

    The memo is keyed by reversals: it maps the reversal of every braid
    met to the keys of its splitting entries, and each braid is reversed
    once on the way in.  As splitting(b) = splitting(flip(rest)) +
    (entry,) and reversal is a bijection, braids sharing a remainder, such
    as the members of one conjugacy class, split it once.  One sub-keyer,
    with its own memo, keys the entries on n - 1 strands.  With
    of_reversals the function takes rev(b) in place of b and returns b's
    key, so a caller holding reversals reverses nothing.
    """
    if n < 3:
        if n == 2:
            return br.braid_length   # rev keeps the length
        raise DomainError(f"splittings need n >= 3, got {n}")
    sub = _flipped_keys(n - 1)
    memo: Dict[br.Braid, Tuple[Any, ...]] = {}

    def key(b: br.Braid):
        chain = []
        keys: Tuple[Any, ...] = ()
        r = b if of_reversals else br._rev(b)
        while r is not None:
            if r in memo:
                keys = memo[r]
                break
            entry, rest = _split_step(r, n)
            chain.append((r, sub(entry)))
            r = rest
        for c, k in reversed(chain):
            keys += (k,)
            memo[c] = keys
        return (len(keys), keys)

    return key


def flipped_key(beta, n: int):
    """Sort key of the flipped D-order on the positive braids of B_n.

    The order is ShortLex on Phi_n-splittings, entries compared in the
    flipped order of B_{n-1}, and length on B_2 (Burckel, "The
    wellordering on positive braids", JPAA 120, 1997; Dehornoy,
    "Alternating normal forms for braids and locally Garside monoids",
    JPAA 212, 2008): so the key is (p, entry keys), and length at n = 2.
    """
    b = br._lift(beta)
    if b.inf < 0:
        raise DomainError("the flipped order needs positive braids")
    return _flipped_keys(n)(br.embed(b, n))


def compare_flipped(beta, beta2, n: int) -> str:
    """Compare positive braids in the flipped D-order; returns <, =, or >."""
    ku, kv = flipped_key(beta, n), flipped_key(beta2, n)
    return "<" if ku < kv else ">" if ku > kv else "="


def compare_D(u: br.BraidWord, v: br.BraidWord, n: int) -> str:
    """Compare arbitrary braid words in the D-order; returns <, =, or >."""
    if u.n != n or v.n != n:
        raise DomainError("word strand counts must match n")
    k = max(sum(1 for l in u.letters if l < 0),
            sum(1 for l in v.letters if l < 0))
    bu = br.mul(br.delta(n, 2 * k), br.from_word(u))
    bv = br.mul(br.delta(n, 2 * k), br.from_word(v))
    if bu.inf < 0 or bv.inf < 0:
        raise RuntimeError("central shift failed to reach the positive monoid")
    if n == 2:
        return compare_flipped(bu, bv, 2)
    return compare_flipped(br.flip(bu), br.flip(bv), n)


# ---------------------------------------------------------------------------
# ordinals below omega^omega

@dataclass(frozen=True)
class OrdinalCNF:
    """Sum of omega^k . c terms, exponents strictly decreasing."""

    terms: Tuple[Tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        last = None
        for k, c in self.terms:
            if k < 0 or c <= 0:
                raise DomainError(f"bad CNF term omega^{k}*{c}")
            if last is not None and k >= last:
                raise DomainError("CNF exponents must strictly decrease")
            last = k

    @property
    def is_zero(self) -> bool:
        return not self.terms


ORDINAL_ZERO = OrdinalCNF()


def ordinal_from_int(c: int) -> OrdinalCNF:
    if c < 0:
        raise DomainError("ordinals are non-negative")
    return OrdinalCNF(((0, c),) if c else ())


def ordinal_add(a: OrdinalCNF, b: OrdinalCNF) -> OrdinalCNF:
    if b.is_zero:
        return a
    k = b.terms[0][0]
    kept = tuple(t for t in a.terms if t[0] > k)
    merged = b.terms
    for ka, ca in a.terms:
        if ka == k:
            merged = ((k, ca + b.terms[0][1]),) + b.terms[1:]
            break
    return OrdinalCNF(kept + merged)


def ordinal_cmp(a: OrdinalCNF, b: OrdinalCNF) -> str:
    # exponents strictly decrease, so CNF order is the order of the term tuples
    if a.terms == b.terms:
        return "="
    return "<" if a.terms < b.terms else ">"


def render_ordinal(a: OrdinalCNF) -> str:
    if a.is_zero:
        return "0"
    parts = []
    for k, c in a.terms:
        if k == 0:
            parts.append(str(c))
        else:
            head = "w" if k == 1 else f"w^{k}"
            parts.append(head if c == 1 else f"{head}*{c}")
    return "+".join(parts)


# ---------------------------------------------------------------------------
# the 3-strand exponent normal form and its rank

_EPSILONS = {1: 0, 2: 1}


def _epsilon(r: int) -> int:
    return _EPSILONS.get(r, 2)


@dataclass(frozen=True)
class Bp3NormalForm:
    """Exponents (e_p, ..., e_1) of the alternating normal form in BP_3."""

    exponents: Tuple[int, ...]

    def __post_init__(self) -> None:
        p = len(self.exponents)
        for idx, e in enumerate(self.exponents):
            r = p - idx
            if r == p and e < 1 and p >= 1:
                raise DomainError("leading exponent must be >= 1")
            if r < p and e < _epsilon(r):
                raise DomainError(f"exponent e_{r} = {e} below minimum {_epsilon(r)}")

    @property
    def p(self) -> int:
        return len(self.exponents)

    def word(self) -> br.BraidWord:
        letters = []
        p = self.p
        for idx, e in enumerate(self.exponents):
            r = p - idx
            letters.extend([1 if r % 2 else 2] * e)
        return br.BraidWord(3, tuple(letters))


def bp3_normal_exponents(beta) -> Bp3NormalForm:
    b = br._lift(beta)
    if b.inf < 0:
        raise DomainError("normal exponents need a positive braid")
    if b.is_trivial:
        return Bp3NormalForm(())
    seq = splitting(b, 3)
    return Bp3NormalForm(tuple(br.braid_length(e) for e in seq.entries))


def rank_bp3(beta) -> OrdinalCNF:
    """Ordinal rank in the flipped D-order on BP_3."""
    nf = beta if isinstance(beta, Bp3NormalForm) else bp3_normal_exponents(beta)
    # the omega exponents p-1, ..., 0 strictly decrease: already Cantor normal form
    p = nf.p
    coeffs = [e - (_epsilon(p - idx) if idx else 0)
              for idx, e in enumerate(nf.exponents)]
    return OrdinalCNF(tuple((p - 1 - idx, c) for idx, c in enumerate(coeffs) if c))


def alternating_normal_form(beta, n: int) -> br.BraidWord:
    """The fully expanded word of shifted sigma_1-blocks."""
    b = br._lift(beta)
    if b.inf < 0:
        raise DomainError("normal form needs a positive braid")
    b = b if b.n == n else br.embed(b, n)
    if n == 2:
        return br.BraidWord(2, (1,) * br.braid_length(b))
    seq = splitting(b, n)
    letters: List[int] = []
    p = seq.p
    for k, e in enumerate(seq.entries):
        sub = alternating_normal_form(e, n - 1)
        if (p - 1 - k) % 2:
            letters.extend(n - l for l in sub.letters)
        else:
            letters.extend(sub.letters)
    return br.BraidWord(n, tuple(letters))


# ---------------------------------------------------------------------------
# the D-floor

def d_floor(w: br.BraidWord, n: int) -> int:
    """Largest k with Delta^{2k} <=_D w."""

    def delta_pow_word(k: int) -> br.BraidWord:
        dw = br.delta_word(n)
        if k >= 0:
            return br.BraidWord(n, dw * (2 * k))
        return br.BraidWord(n, tuple(-l for l in reversed(dw)) * (-2 * k))

    def below(k: int) -> bool:
        return compare_D(delta_pow_word(k), w, n) != ">"

    if below(0):
        lo, hi = 0, 1
        while below(hi):
            lo, hi = hi, hi * 2
    else:
        lo, hi = -1, 0
        while not below(lo):
            lo, hi = lo * 2, lo
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if below(mid):
            lo = mid
        else:
            hi = mid
    return lo
