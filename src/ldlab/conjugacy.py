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
conjugates by the other simples only.

Most of those other simples are covered.  The atoms sigma_i are tried
first; when x^sigma_i is positive, every simple s = sigma_i t is skipped
at x, as x^s is reached from the member x^sigma_i by the shorter simple t.
On 3 strands the trials that succeed are exactly the minimal simple
conjugators rho_x(sigma_i) other than Delta, and a member with inf >= 1,
whose conjugates by all atoms are positive, tries the atoms only.  The
search keeps one (parent, simple) link per member; `positive_conjugates`
multiplies them out into witnesses, and `mu` does not.

The least member in the D-order is the canonical representative mu_n;
detecting the braids fixed by mu and sweeping the mu(beta Delta^2)
recursion over short words are the two consumers of that enumeration.
Reversing words is an anti-automorphism that keeps positivity, so the
class of rev(beta) is the reversal of beta's.  `mu` enumerates that one
and keys its members as reversals, which is what the flipped-order keyer
memoises on: no member is reversed, only the least one on the way out.
"""

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Iterator, NamedTuple, Optional, Tuple

from . import braid as br
from .errors import DomainError, ResourceError, count, guard_alloc
from .order import _flipped_keys

DEFAULT_CLASS_BOUND = 10 ** 6

# Bytes one simple conjugator takes in the list the search builds: its
# permutation, its descent mask and their pair.  tracemalloc measured 85-166
# bytes on 5 to 8 strands.  The bound stays at the 256 measured for the
# Braids the list once held, so LDLAB_MAX_MEM admits the same strand counts.
_BYTES_PER_SIMPLE = 256

# member -> (parent member, permutation of the simple conjugating the
# parent to it), None at the root
Links = Dict[br.Braid, Optional[Tuple[br.Braid, br.Perm]]]


def _lift_positive(beta, n: Optional[int]) -> br.Braid:
    if isinstance(beta, str):
        if n is None:
            raise DomainError("a braid given as text needs an explicit strand count")
        beta = br.parse_word(beta, n)
    b = br._positive(beta, "conjugacy enumeration needs a positive braid")
    if n is not None and count(n, 2, "strand count") != b.n:
        raise DomainError(f"braid lives in B_{b.n}, not B_{n}")
    return b


def _word_key(b: br.Braid) -> Tuple[int, Tuple[int, ...]]:
    letters = br.to_word(b).letters
    return (len(letters), letters)


def _class_links(b: br.Braid, max_members: int) -> Links:
    """The positive conjugates of a positive b with their links, in the
    order they were found, which puts every parent before its children.

    Members are found in flip pairs {y, flip(y)}: flip is conjugation by
    Delta, and the other simples are closed under tau, so only one member
    of each pair is expanded.
    """
    count(max_members, 1, "max_members")
    n = b.n
    guard_alloc(_BYTES_PER_SIMPLE * (math.factorial(n) - 2),
                f"the list of simple conjugators of B_{n}")
    idp, w0 = br.identity_perm(n), br.w0_perm(n)
    # sigma_1 is Delta in B_2
    atoms = {br._swap_entries(idp, i): 1 << i for i in range(1, n)} if n > 2 else {}
    every_atom = sum(atoms.values())
    # each simple but 1, Delta and the atoms, with its left descents as bits
    others = [(p, sum(1 << i for i in br.left_descents(p)))
              for p in itertools.permutations(range(1, n + 1))
              if p not in atoms and p != idp and p != w0]
    found: Links = {b: None}
    expand = [b]       # one member of each flip pair, in the order found

    def record(y: br.Braid, link) -> None:
        found[y] = link
        if len(found) > max_members:
            raise ResourceError(f"conjugacy class exceeds {max_members} members")

    def step(x: br.Braid, p: br.Perm) -> bool:
        """Whether x^s is positive for the simple s of p; a new member is recorded."""
        y = br._conjugate_simple(p, x)
        if y is None:
            return False
        if y not in found:
            record(y, (x, p))
            expand.append(y)
            fy = br.flip(y)
            if fy != y:
                record(fy, (y, w0))
        return True

    if br.flip(b) != b:
        record(br.flip(b), (b, w0))
    for x in expand:   # the list grows as it is read
        positive = 0       # the atoms whose conjugates of x are positive
        for p, bit in atoms.items():
            if step(x, p):
                positive |= bit
        if positive == every_atom:
            continue       # every simple but 1 has a left descent
        for p, descents in others:
            if not descents & positive:
                step(x, p)
    return found


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

    The witness of a member is its parent's witness times the simple of
    its link, built in the order the members were found.
    """
    b = _lift_positive(beta, n)
    n = b.n
    links = _class_links(b, max_members)
    w0, d = br.w0_perm(n), br.delta(n)
    witness = {}
    for y, link in links.items():
        if link is None:
            witness[y] = br.identity(n)
        else:
            x, p = link
            witness[y] = br.mul(witness[x], d if p == w0 else br._nf(n, 0, (p,)))
    order = sorted(links, key=_word_key)
    return ConjClass(n=n, root=b, members=tuple(order),
                     conjugators=tuple(witness[m] for m in order))


def mu(beta, n: Optional[int] = None,
       max_members: int = DEFAULT_CLASS_BOUND) -> br.Braid:
    """The least positive conjugate of beta in the flipped D-order.

    Conjugating by Delta flips a braid, so every class here is closed
    under the flip automorphism and its least members in the plain and
    flipped orders are flips of one another.  The flipped order is the
    one ranked by rank_bp3, which makes this representative the one
    with the least ordinal rank.  One key function keys the whole class
    of rev(beta), member by member as the reversal of a member of beta's
    class, so members share the splittings of their common remainders.
    """
    b = _lift_positive(beta, n)
    reversals = _class_links(br._rev(b), max_members)
    return br._rev(min(reversals, key=_flipped_keys(b.n)))


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
