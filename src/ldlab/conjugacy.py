"""Positive conjugacy classes in B_n and their D-least representatives.

A positive braid's conjugates that are again positive form a finite set,
and conjugating by simple braids alone, keeping only positive results,
reaches all of it.  For a positive x, the positive conjugators u with
u^-1 x u positive are closed under left gcd (Franco and Gonzalez-Meneses,
"Conjugacy problem for braid groups and Garside groups", J. Algebra 266,
2003).  Any conjugator times a central Delta^2k is such a u, and so is
Delta, so s = gcd(u, Delta) is a simple one, and u = s u' splits the
conjugation into the step by s, to a positive conjugate, and a shorter u'.
Conjugation by Delta is the flip sigma_i -> sigma_{n-i}, which needs no
product: each member found brings its flip along, and the search
conjugates by the other simples only.  The least member in the D-order is
the canonical representative mu_n; detecting the braids fixed by mu and
sweeping the mu(beta Delta^2) recursion over short words are the two
consumers of that enumeration.
"""

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Iterator, NamedTuple, Optional, Tuple

from . import braid as br
from .errors import DomainError, ResourceError, guard_alloc
from .order import _flipped_keys

DEFAULT_CLASS_BOUND = 10 ** 6

# Bytes one simple conjugator takes in the list of positive_conjugates:
# a Braid, its factor tuple and its permutation.  tracemalloc measured
# 230-255 bytes on 5 to 8 strands (10 MB for the 40,318 of B_8).
_BYTES_PER_SIMPLE = 256


def _lift_positive(beta, n: Optional[int]) -> br.Braid:
    if isinstance(beta, str):
        if n is None:
            raise DomainError("a braid given as text needs an explicit strand count")
        beta = br.parse_word(beta, n)
    b = br._lift(beta)
    if n is not None and b.n != n:
        raise DomainError(f"braid lives in B_{b.n}, not B_{n}")
    if b.inf < 0:
        raise DomainError("conjugacy enumeration needs a positive braid")
    return b


def _word_key(b: br.Braid) -> Tuple[int, Tuple[int, ...]]:
    letters = br.to_word(b).letters
    return (len(letters), letters)


@dataclass(frozen=True)
class ConjClass:
    """The positive part of a conjugacy class, with BFS conjugator witnesses."""

    n: int
    root: br.Braid
    members: Tuple[br.Braid, ...]
    conjugators: Tuple[br.Braid, ...]

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self) -> Iterator[br.Braid]:
        return iter(self.members)

    @cached_property
    def _witnesses(self) -> Dict[br.Braid, br.Braid]:
        """Member -> conjugator; not a field, so equality ignores it."""
        return dict(zip(self.members, self.conjugators))

    def __contains__(self, beta) -> bool:
        return br._lift(beta) in self._witnesses

    def witness(self, member) -> br.Braid:
        """A conjugator u with u^-1 . root . u = member."""
        u = self._witnesses.get(br._lift(member))
        if u is None:
            raise DomainError("not a member of this class")
        return u


def positive_conjugates(beta, n: Optional[int] = None,
                        max_members: int = DEFAULT_CLASS_BOUND) -> ConjClass:
    """Close {beta} under conjugation by simple braids, keeping positives.

    Members are found in flip pairs {y, flip(y)}: flip is conjugation by
    Delta, and the other simples are closed under tau, so only one member
    of each pair is expanded.  s^-1 . x . s is x . s divided on the left
    by s; when x . s has no Delta, that fails at once unless s is a
    prefix of its first factor.
    """
    b = _lift_positive(beta, n)
    n = b.n
    guard_alloc(_BYTES_PER_SIMPLE * (math.factorial(n) - 2),
                f"the list of simple conjugators of B_{n}")
    simples = [s for s in br.all_simples(n) if s.factors]   # not 1, not Delta
    d = br.delta(n)
    found = {b: br.identity(n)}

    def record(y: br.Braid, u: br.Braid) -> None:
        found[y] = u
        if len(found) > max_members:
            raise ResourceError(f"conjugacy class exceeds {max_members} members")

    if br.flip(b) != b:
        record(br.flip(b), d)
    frontier = [b]
    while frontier:
        fresh = []
        for x in frontier:
            for s in simples:
                y = br._left_divide_simple(s.factors[0], br.mul(x, s))
                if y is None or y in found:
                    continue
                u = br.mul(found[x], s)
                record(y, u)
                fresh.append(y)
                fy = br.flip(y)
                if fy != y:
                    record(fy, br.mul(u, d))
        frontier = fresh
    order = sorted(found, key=_word_key)
    return ConjClass(n=n, root=b, members=tuple(order),
                     conjugators=tuple(found[m] for m in order))


def mu(beta, n: Optional[int] = None,
       max_members: int = DEFAULT_CLASS_BOUND) -> br.Braid:
    """The least positive conjugate of beta in the flipped D-order.

    Conjugating by Delta flips a braid, so every class here is closed
    under the flip automorphism and its least members in the plain and
    flipped orders are flips of one another.  The flipped order is the
    one ranked by rank_bp3, which makes this representative the one
    with the least ordinal rank.  One key function keys the whole class,
    so members share the splittings of their common remainders.
    """
    cls = positive_conjugates(beta, n, max_members)
    return min(cls.members, key=_flipped_keys(cls.n))


def is_conjugacy_min(beta, n: Optional[int] = None) -> bool:
    b = _lift_positive(beta, n)
    return br.equal(mu(b), b)


def conjecture_mu_delta(beta) -> bool:
    """Whether mu3(beta Delta^2) equals s1 s2^2 s1 . mu3(beta) . s1^2."""
    b = _lift_positive(beta, 3)
    return _mu_delta_agrees(b, mu(b))


def _mu_delta_agrees(b: br.Braid, mu_b: br.Braid) -> bool:
    """conjecture_mu_delta for a positive 3-braid b whose mu is mu_b."""
    lhs = mu(br.mul(b, br.delta(3, 2)))
    wrap_left = br.from_word(br.BraidWord(3, (1, 2, 2, 1)))
    wrap_right = br.from_word(br.BraidWord(3, (1, 1)))
    rhs = br.mul(br.mul(wrap_left, mu_b), wrap_right)
    return br.equal(lhs, rhs)


class SweepRow(NamedTuple):
    word: Tuple[int, ...]
    mu_word: Tuple[int, ...]
    agrees: bool


def sweep_mu_delta(max_len: int) -> Tuple[SweepRow, ...]:
    """Evaluate the mu(beta Delta^2) prediction on every positive 3-braid."""
    rows = []
    for _, b in br.positive_braids_up_to(3, max_len):
        least = mu(b)
        rows.append(SweepRow(br.to_word(b).letters,
                             br.to_word(least).letters,
                             _mu_delta_agrees(b, least)))
    return tuple(rows)
