"""Shared error types, the three input rules, and the memory guard used by
table/matrix allocators.

An element of a finite system on {1, ..., m} is an int in that range; a
letter of an n-strand braid word is an int l with 0 < |l| < n, standing
for sigma_|l| or its inverse; a free-group letter is any nonzero int.
Bools are not ints here, nor are floats or numpy integers.  `element`,
`check_letters` and `free_letters` write these rules; every module calls them.
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


def check_letters(seq, n: int) -> tuple:
    """The letters of seq as a tuple, each valid for an n-strand braid, n >= 1."""
    if n < 1:
        raise DomainError(f"strand count must be >= 1, got {n}")
    letters = tuple(seq)
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
    if value <= 0:
        raise DomainError("LDLAB_MAX_MEM must be positive")
    return value


def guard_alloc(nbytes: int, what: str) -> None:
    cap = max_mem_bytes()
    if nbytes > cap:
        raise ResourceError(f"{what} needs about {nbytes} bytes, over the LDLAB_MAX_MEM cap of {cap}")
