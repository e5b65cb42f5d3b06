"""Hurwitz actions on colour vectors, closure-colouring counts, cocycle sums,
and the symbolic presentations read off a braid diagram.

A colour vector lists strand colours bottom to top; sigma_i acts on positions
(i, i+1).  At a positive crossing the moving colour is multiplied by the
other strand's colour; at a negative crossing it is divided by it:

    (..., a, b, ...) . sigma_i      = (..., a*b, a, ...)
    (..., a, b, ...) . sigma_i^{-1} = (..., b, b \\ a, ...)

Dividing by the stationary colour is the only reading under which
sigma_i sigma_i^{-1} fixes every vector.

`_propagate` is the one place this rule is written.  Every action here
hands it a multiplication and a division: table lookups, a backend's
`mul`/`div`, formal quandle terms, or free-group conjugation.  A crossing
is blocked when the product or quotient does not exist; the action then
returns None.  Table colours, braid words and free-group letters are
checked by the rules in `errors`: a word is a BraidWord or a sequence of
letters, never a Braid.  Anything else raises DomainError.
"""

from dataclasses import dataclass
from functools import partial
from itertools import product
from typing import Callable, Optional, Sequence, Tuple

from .errors import DomainError, _is_int, check_letters, count, element, free_letters
from .magma import (FiniteMagma, QuandleTerm, _gen_name, bar_term, gen,
                    is_ld, is_left_cancellative, is_rack, left_inverse_op,
                    op_term)


def _propagate(vec: list, letters, star: Callable, bar: Callable) -> Optional[tuple]:
    """The Hurwitz action: sigma_i sends (a, b) on strands i, i+1 to
    (star(a, b), a) and sigma_i^{-1} sends it to (b, bar(b, a)).

    `vec` is consumed.  Returns None as soon as star or bar returns None.
    """
    for l in letters:
        i = abs(l) - 1
        a, b = vec[i], vec[i + 1]
        a, b = (star(a, b), a) if l > 0 else (b, bar(b, a))
        if a is None or b is None:
            return None
        vec[i], vec[i + 1] = a, b
    return tuple(vec)


def _positive_only(b, a):
    """The bar of an action or sum defined on positive words only."""
    raise DomainError("negative letter in a positive-only word")


def _table_colours(M: FiniteMagma, colours) -> list:
    return [element(v, M.m, "colour") for v in colours]


def _table_ops(M: FiniteMagma) -> Tuple[Callable, Callable]:
    """star and bar of a table; bar raises AmbiguousInverseError on a row
    that is not injective."""
    op = M.op
    return (lambda a, b: op[a - 1][b - 1]), partial(left_inverse_op, M)


def act_positive(M: FiniteMagma, colours, w, checked: bool = True) -> tuple:
    """Propagate colours through a positive word; needs the LD law only."""
    vec = _table_colours(M, colours)
    letters = check_letters(w, len(vec))
    if checked and not is_ld(M):
        raise DomainError("operation table is not left self-distributive")
    return _propagate(vec, letters, _table_ops(M)[0], _positive_only)


def act_full(M: FiniteMagma, colours, w, checked: bool = True) -> Optional[tuple]:
    """The group action; defined for racks, where division never blocks.

    With checked=False on a table that is not a rack, a crossing whose
    quotient does not exist gives None, as in `act_partial`, and one with
    several quotients raises AmbiguousInverseError.
    """
    if checked and not is_rack(M):
        raise DomainError("full action needs a rack (LD with bijective rows)")
    vec = _table_colours(M, colours)
    return _propagate(vec, check_letters(w, len(vec)), *_table_ops(M))


class IntegerShiftRack:
    """x*y = y + 1 on the integers, optionally clipped to a window.

    Outside the window the operation is undefined (None), which is what makes
    the partial action partial.
    """

    def __init__(self, lo: Optional[int] = None, hi: Optional[int] = None):
        if lo is not None and hi is not None and lo > hi:
            raise DomainError(f"empty window {lo}..{hi}")
        self.lo = lo
        self.hi = hi

    def _clip(self, v: int) -> Optional[int]:
        if self.lo is not None and v < self.lo:
            return None
        if self.hi is not None and v > self.hi:
            return None
        return v

    def check_colour(self, v) -> bool:
        return _is_int(v) and self._clip(v) is not None

    def mul(self, a: int, b: int) -> Optional[int]:
        return self._clip(b + 1)

    def div(self, a: int, b: int) -> Optional[int]:
        """The c with a*c = b."""
        return self._clip(b - 1)


class FreeConjugationRack:
    """Colours are reduced words of a free group; x*y = x y x^{-1}.

    Words are tuples of free-group letters, signed generator indices.
    """

    def check_colour(self, v) -> bool:
        return isinstance(v, tuple) and v == free_reduce(v)

    def mul(self, a: tuple, b: tuple) -> tuple:
        return free_reduce(a + b + free_inverse(a))

    def div(self, a: tuple, b: tuple) -> tuple:
        """The c with a*c = b, namely a^{-1} b a."""
        return free_reduce(free_inverse(a) + b + a)


def act_partial(backend, colours, w) -> Optional[tuple]:
    """Propagate where defined; None as soon as a crossing is blocked.

    `backend` is a FiniteMagma with injective rows or an object with
    `check_colour`, `mul(a, b)` and `div(a, b)` (the c with a*c = b).
    """
    if isinstance(backend, FiniteMagma):
        if not is_left_cancellative(backend):
            raise DomainError("partial action needs injective rows")
        return act_full(backend, colours, w, checked=False)
    vec = list(colours)
    for v in vec:
        if not backend.check_colour(v):
            raise DomainError(f"colour {v!r} is not in the carrier")
    return _propagate(vec, check_letters(w, len(vec)), backend.mul, backend.div)


def free_reduce(word: Sequence[int]) -> tuple:
    out = []
    for l in free_letters(word):
        if out and out[-1] == -l:
            out.pop()
        else:
            out.append(l)
    return tuple(out)


def free_inverse(word: Sequence[int]) -> tuple:
    return tuple(-l for l in reversed(word))


def render_free_word(word: Sequence[int], names: Optional[list] = None) -> str:
    if not word:
        return "1"
    parts = []
    for l in word:
        name = names[abs(l) - 1] if names is not None else _gen_name(abs(l))
        parts.append(name if l > 0 else f"{name}^-1")
    return " ".join(parts)


def count_closure_colourings(M: FiniteMagma, w, m: int) -> int:
    """Vectors fixed by the whole word: colourings of the closed diagram."""
    letters = check_letters(w, m)
    if not is_rack(M):
        raise DomainError("closure counting needs a rack")
    star, bar = _table_ops(M)
    return sum(1 for vec in product(range(1, M.m + 1), repeat=m)
               if _propagate(list(vec), letters, star, bar) == vec)


def cocycle_invariant(M: FiniteMagma, phi, w, colours, checked: bool = True) -> int:
    """Sum of phi over the crossings seen while propagating a positive word."""
    from . import homology
    if not isinstance(phi, homology.Cochain) or phi.degree != 2 or phi.m != M.m:
        raise DomainError("phi must be a degree-2 cochain over the same carrier")
    if checked:
        if not is_ld(M):
            raise DomainError("operation table is not left self-distributive")
        if not homology.is_two_cocycle(phi, M):
            raise DomainError("phi fails the 2-cocycle law")
    vec = _table_colours(M, colours)
    mul = _table_ops(M)[0]
    total = 0

    def star(a, b):
        nonlocal total
        total += phi(a, b)
        return mul(a, b)

    _propagate(vec, check_letters(w, len(vec)), star, _positive_only)
    return total


@dataclass(frozen=True)
class QuandlePresentation:
    """Generators 1..m and relations equating pairs of terms."""

    m: int
    relations: Tuple[Tuple[QuandleTerm, QuandleTerm], ...]

    def __post_init__(self):
        count(self.m, 1, "generator count")
        for lhs, rhs in self.relations:
            for term in (lhs, rhs):
                if _max_gen(term) > self.m:
                    raise DomainError("relation uses a generator past the last one")

    def relation_texts(self) -> list:
        return [f"{_render_outer(lhs)} = {_render_outer(rhs)}"
                for lhs, rhs in self.relations]

    def render(self) -> str:
        gens = ", ".join(_gen_name(i) for i in range(1, self.m + 1))
        return f"<{gens} | {', '.join(self.relation_texts())}>"

    def colouring_count(self, M: FiniteMagma) -> int:
        """Assignments of carrier values to generators satisfying every relation."""
        return sum(1 for values in product(range(1, M.m + 1), repeat=self.m)
                   if all(lhs.evaluate(M, values) == rhs.evaluate(M, values)
                          for lhs, rhs in self.relations))


def _max_gen(term: QuandleTerm) -> int:
    if term.kind == "gen":
        return term.gen
    return max(_max_gen(term.left), _max_gen(term.right))


def _render_outer(term: QuandleTerm) -> str:
    """Render without the outermost parentheses."""
    if term.kind == "gen":
        return term.render()
    sym = "*" if term.kind == "op" else "\\"
    return f"{term.left.render()} {sym} {term.right.render()}"


def fundamental_quandle(w, m: int) -> QuandlePresentation:
    """Propagate formal terms and equate each output with its input generator."""
    letters = check_letters(w, m)
    vec = _propagate([gen(i) for i in range(1, m + 1)], letters, op_term, bar_term)
    return QuandlePresentation(m, tuple((t, gen(i)) for i, t in enumerate(vec, start=1)))


def _wirtinger_colours(w, m: int) -> tuple:
    """Output colours of the generators 1..m, read in the free conjugation rack."""
    letters = check_letters(w, m)
    rack = FreeConjugationRack()
    return _propagate([(i,) for i in range(1, m + 1)], letters, rack.mul, rack.div)


def wirtinger_relations(w, m: int) -> Tuple[tuple, ...]:
    """Freely reduced words t_i g_i^{-1} from reading * as conjugation.

    The i-th output colour, with a*b read as a b a^{-1} and b \\ a as
    b^{-1} a b, is equated with the i-th generator.
    """
    vec = _wirtinger_colours(w, m)
    return tuple(free_reduce(t + (-i,)) for i, t in enumerate(vec, start=1))


def wirtinger_group(w, m: int) -> str:
    """Presentation text of the closure's fundamental group."""
    vec = _wirtinger_colours(w, m)
    gens = ", ".join(_gen_name(i) for i in range(1, m + 1))
    eqs = ", ".join(f"{render_free_word(t)} = {_gen_name(i)}"
                    for i, t in enumerate(vec, start=1))
    return f"<{gens} | {eqs}>"


def laver_fraction_colouring(n: int, w, mid, mode: str = "fraction") -> Tuple[tuple, tuple]:
    """Colour both halves of a fraction or Delta-form diagram from the middle.

    With w = beta_1^{-1} beta_2 the two propagated ends are (mid.beta_1,
    mid.beta_2); in delta mode, w = Delta^{-d} beta_0 gives (mid.Delta^d,
    mid.beta_0).  Both halves are positive, so the table only needs LD.
    """
    from . import braid, laver
    m = len(mid)
    word = braid.BraidWord(m, w)
    table = laver.build_laver_table(n).as_magma()
    if mode == "fraction":
        b1, b2 = braid.fraction_decomposition(word)
        w1 = braid.to_word(b1).letters
        w2 = braid.to_word(b2).letters
    elif mode == "delta":
        d, b0 = braid.delta_decomposition(word)
        w1 = braid.delta_word(m) * d
        w2 = braid.to_word(b0).letters
    else:
        raise DomainError(f"unknown mode {mode!r}, expected fraction or delta")
    return (act_positive(table, mid, w1, checked=False),
            act_positive(table, mid, w2, checked=False))
