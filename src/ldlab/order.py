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
from .errors import DomainError, count


# ---------------------------------------------------------------------------
# sigma-positive words

def sigma_positive_index(w: br.BraidWord) -> Optional[int]:
    """The i making w sigma_i-positive: sigma_i occurs, sigma_i^{-1} and all
    lower-index letters do not.  Purely syntactic."""
    letters = br._word(w).letters
    if not letters:
        return None
    m = min(abs(l) for l in letters)
    if m in letters and -m not in letters:
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
        count(self.n, 3, "strand count")
        if not self.entries:
            raise DomainError("a splitting has at least one entry")
        for e in self.entries:
            if not isinstance(e, br.Braid):
                raise DomainError(f"splitting entries are Braids, got {type(e).__name__}")
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


def _split_step(r: br.Braid, n: int) -> Tuple[List[br.Perm], Optional[br.Braid]]:
    """For r the reversal of a positive braid b of B_n: the simples peeled
    off r, and the reversal of the flipped remainder that the splitting
    continues on (None when empty).

    The peeled simples fix strand n.  Less their last entry, on n - 1
    strands, their inverses in reverse order make the entry stripped off
    the right of b, and the simples as they come make its reversal.
    """
    peeled, rest = br._peel_parabolic(r, n - 1)
    return peeled, None if rest.is_trivial else br.flip(rest)


def _entries(b: br.Braid, n: int) -> Tuple[br.Braid, ...]:
    """The splitting entries of a positive braid b of B_n, n >= 3, leading
    entry first."""
    r: Optional[br.Braid] = br._rev(b)
    entries: List[br.Braid] = []
    while r is not None:
        peeled, r = _split_step(r, n)
        entries.append(br._product(n - 1, [br.perm_inv(s)[:-1] for s in reversed(peeled)]))
    return tuple(reversed(entries))


def splitting(beta, n: int) -> SplittingSeq:
    """Strip maximal parabolic right-divisors, flipping the remainder."""
    count(n, 3, "strand count")
    b = br._positive(beta, "splitting needs a positive braid")
    return SplittingSeq(n, _entries(br.embed(b, n), n))


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

def _flipped_keys(n: int) -> Callable[[br.Braid], Any]:
    """`flipped_key` on positive braids of B_n, as a function that takes
    the reversal rev(b) of a braid b, returns b's key and keeps one memo
    over all its calls.

    The memo maps the reversal of every braid met to the keys of its
    splitting entries.  As splitting(b) = splitting(flip(rest)) + (entry,)
    and reversal is a bijection, braids sharing a remainder, such as the
    members of one conjugacy class, split it once.  One sub-keyer, with
    its own memo, keys the entries on n - 1 strands, each given as its
    reversal, so no level reverses anything.
    """
    if count(n, 2, "strand count") == 2:
        return br.braid_length   # rev keeps the length
    sub = _flipped_keys(n - 1)
    memo: Dict[br.Braid, Tuple[Any, ...]] = {}

    def key(r: br.Braid):
        chain = []
        keys: Tuple[Any, ...] = ()
        while r is not None:
            if r in memo:
                keys = memo[r]
                break
            peeled, rest = _split_step(r, n)
            chain.append((r, sub(br._product(n - 1, [s[:-1] for s in peeled]))))
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
    key = _flipped_keys(n)
    b = br.embed(br._positive(beta, "the flipped order needs positive braids"), n)
    return key(b if n == 2 else br._rev(b))


def compare_flipped(beta, beta2, n: int) -> str:
    """Compare positive braids in the flipped D-order; returns <, =, or >."""
    ku, kv = flipped_key(beta, n), flipped_key(beta2, n)
    return "<" if ku < kv else ">" if ku > kv else "="


def compare_D(u: br.BraidWord, v: br.BraidWord, n: int) -> str:
    """Compare arbitrary braid words on n strands, each a BraidWord or a
    sequence of letters, in the D-order; returns <, =, or >."""
    words = [br.BraidWord(n, w) for w in (u, v)]
    k = max(sum(1 for l in w.letters if l < 0) for w in words)
    bu, bv = (br.mul(br.delta(n, 2 * k), br.from_word(w)) for w in words)
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
            count(k, 0, "CNF exponent")
            count(c, 1, "CNF coefficient")
            if last is not None and k >= last:
                raise DomainError("CNF exponents must strictly decrease")
            last = k

    @property
    def is_zero(self) -> bool:
        return not self.terms


ORDINAL_ZERO = OrdinalCNF()


def ordinal_from_int(c: int) -> OrdinalCNF:
    return OrdinalCNF(((0, c),) if count(c, 0, "ordinal") else ())


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
            count(e, _epsilon(p - idx) if idx else 1, "exponent")

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
    b = br._positive(beta, "normal exponents need a positive braid")
    if b.is_trivial:
        return Bp3NormalForm(())
    return Bp3NormalForm(tuple(br.braid_length(e) for e in _entries(br.embed(b, 3), 3)))


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
    b = br.embed(br._positive(beta, "normal form needs a positive braid"), n)
    return br.BraidWord(n, _alternating_letters(b, n))


def _alternating_letters(b: br.Braid, n: int) -> Tuple[int, ...]:
    if n == 2:
        return (1,) * br.braid_length(b)
    entries = _entries(b, n)
    letters: List[int] = []
    p = len(entries)
    for k, e in enumerate(entries):
        sub = _alternating_letters(e, n - 1)
        if (p - 1 - k) % 2:
            letters.extend(n - l for l in sub)
        else:
            letters.extend(sub)
    return tuple(letters)


# ---------------------------------------------------------------------------
# the D-floor

def d_floor(w: br.BraidWord, n: int) -> int:
    """Largest k with Delta^{2k} <=_D w, for a word w on n strands."""
    w = br.BraidWord(n, w)

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
