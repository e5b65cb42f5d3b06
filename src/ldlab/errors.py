"""Shared error types, the input rules, and the memory guard used by
table/matrix allocators.

The rules, each written once here and called by every module:

- an integer is an `int`; bools, floats and numpy integers are not
  (`_is_int`, which signed values such as a Delta power or a linear
  coefficient use as they are);
- a count (a size, degree, strand count, exponent, cap, bound or level)
  is an integer at least some floor (`count`);
- an element of a finite system on {1, ..., m} is an integer in that
  range (`element`);
- a letter of an n-strand braid word is an integer l with 0 < |l| < n,
  standing for sigma_|l| or its inverse, and a word is a `BraidWord` on
  n strands or a sequence of letters: a `Braid` has no letters and is
  refused (`check_letters`);
- a free-group letter is a nonzero integer (`free_letters`).

The braid rules live in `braid`: a function that reads a braid takes a
`Braid` or a `BraidWord` through `braid._lift`, one that needs a positive
braid through `braid._positive`, and one that reads a word's strand count
takes a `BraidWord` only, through `braid._word`.
"""

import os

DEFAULT_MAX_MEM = 1 << 31  # bytes


class DomainError(ValueError):
    """An input violates a documented precondition."""


class ResourceError(RuntimeError):
    """A computation would exceed a configured resource bound."""


class AmbiguousInverseError(DomainError):
    """Left division a \\ b has several solutions (row of a is not injective at b)."""


class StepCapError(ResourceError):
    """A stepped process hit its step cap; `partial` holds the count reached."""

    def __init__(self, message: str, partial: int):
        super().__init__(message)
        self.partial = partial


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def element(v, m: int, what: str = "element") -> int:
    """v itself when it is an element of {1, ..., m}, else DomainError."""
    # the exact type test is the fast path; int subclasses other than bool
    # (IntEnum, say) pass through _is_int
    if (type(v) is int or _is_int(v)) and 1 <= v <= m:
        return v
    why = "out of range" if _is_int(v) else "is not an integer in"
    raise DomainError(f"{what} {v!r} {why} 1..{m}")


def count(v, lo: int, what: str) -> int:
    """v itself when it is an int >= lo, else DomainError."""
    if (type(v) is int or _is_int(v)) and v >= lo:
        return v
    raise DomainError(f"{what} must be an integer >= {lo}, got {v!r}")


def check_letters(word, n: int) -> tuple:
    """The letters of word, a BraidWord on n strands or a sequence of
    letters, as a tuple, each valid for an n-strand braid, n >= 1."""
    count(n, 1, "strand count")
    try:
        letters = tuple(getattr(word, "letters", word))
    except TypeError:
        raise DomainError(f"expected a braid word, got {type(word).__name__}") from None
    if getattr(word, "n", n) != n:
        raise DomainError(f"word on {word.n} strands where {n} are expected")
    for l in letters:
        if not ((type(l) is int or _is_int(l)) and 0 < abs(l) < n):
            raise DomainError(f"letter {l!r} out of range for {n} strands")
    return letters


def free_letters(seq) -> tuple:
    """The letters of seq as a tuple, each a free-group letter."""
    letters = tuple(seq)
    for l in letters:
        if not ((type(l) is int or _is_int(l)) and l):
            raise DomainError(f"free-group letter {l!r} is not a nonzero integer")
    return letters


def max_mem_bytes() -> int:
    """Allocation cap in bytes, from LDLAB_MAX_MEM when set."""
    raw = os.environ.get("LDLAB_MAX_MEM")
    if raw is None:
        return DEFAULT_MAX_MEM
    try:
        value = int(raw)
    except ValueError:
        raise DomainError(f"LDLAB_MAX_MEM must be an integer byte count, got {raw!r}") from None
    return count(value, 1, "LDLAB_MAX_MEM")


def guard_alloc(nbytes: int, what: str) -> None:
    cap = max_mem_bytes()
    if nbytes > cap:
        raise ResourceError(f"{what} needs about {nbytes} bytes, over the LDLAB_MAX_MEM cap of {cap}")
