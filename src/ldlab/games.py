"""The crossing-removal game on positive 3-braids, with growth gauges.

A game state is the exponent tuple (e_p ... e_1) of the alternating
normal form.  At step t the critical block is the rightmost one sitting
strictly above its floor: the final block and the leading block may
drain completely (a drained leading block drops off, exposing the next
one), while a middle block never goes below two crossings.  The critical
exponent drops by one and, when a block follows it, that block grows by
t.  Every step strictly lowers the ordinal rank, so the game always ends
at the trivial braid, after a number of steps that can dwarf the
starting length by many orders of magnitude.

Stepping is exact but the runner batches the frequent tail countdowns
(whenever e_1 > 0 the next e_1 steps only decrement it), which makes
even astronomically long games traversable; traces stay step-by-step.
"""

import json
from dataclasses import dataclass
from typing import Iterable, Optional, Tuple

from . import braid as br
from .errors import DomainError, ResourceError, StepCapError, count
from .order import (Bp3NormalForm, bp3_normal_exponents, ordinal_cmp,
                    rank_bp3)

DEFAULT_STEP_CAP = 10 ** 9
TRACE_STATE_GUARD = 10 ** 6
DEFAULT_ACK_BOUND = 10 ** 6


@dataclass(frozen=True)
class G3State:
    """Exponents of the current braid, the next step index, steps taken."""

    exponents: Tuple[int, ...]
    t: int = 1
    steps: int = 0

    def __post_init__(self):
        Bp3NormalForm(self.exponents)
        count(self.t, 1, "step index")
        count(self.steps, 0, "step count")

    @property
    def is_trivial(self) -> bool:
        return not self.exponents

    @property
    def word(self) -> br.BraidWord:
        return Bp3NormalForm(self.exponents).word()


def g3_start(beta) -> G3State:
    return G3State(bp3_normal_exponents(beta).exponents)


def _advance(exps: list, t: int) -> None:
    """One game step in place; exps must be nonempty."""
    idx = len(exps) - 1
    while idx > 0 and exps[idx] <= (0 if idx == len(exps) - 1 else 2):
        idx -= 1
    exps[idx] -= 1
    if idx + 1 < len(exps):
        exps[idx + 1] += t
    while exps and exps[0] == 0:
        exps.pop(0)


def g3_step(state: G3State, t: Optional[int] = None) -> G3State:
    if state.is_trivial:
        raise DomainError("the game is over: the state is already trivial")
    used = state.t if t is None else count(t, 1, "step index")
    exps = list(state.exponents)
    _advance(exps, used)
    return G3State(tuple(exps), used + 1, state.steps + 1)


def g3_run(state: G3State, max_steps: int) -> G3State:
    """Advance up to max_steps steps, batching pure tail countdowns."""
    exps = list(state.exponents)
    t, steps, budget = state.t, state.steps, count(max_steps, 0, "step cap")
    while budget and exps:
        tail = exps[-1]
        if tail:
            k = min(tail, budget)
            exps[-1] = tail - k
            t += k
            steps += k
            budget -= k
            if not exps[-1] and len(exps) == 1:
                exps.pop()
        else:
            _advance(exps, t)
            t += 1
            steps += 1
            budget -= 1
    return G3State(tuple(exps), t, steps)


def g3_length(beta, cap: int = DEFAULT_STEP_CAP) -> int:
    """Steps until the game from beta ends, erroring out at the cap."""
    state = g3_run(g3_start(beta), cap)
    if not state.is_trivial:
        raise StepCapError(f"game not finished after {cap} steps", partial=cap)
    return state.steps


def g3_trace(beta, limit: Optional[int] = None) -> Tuple[br.BraidWord, ...]:
    """The state sequence from beta, at most limit entries, words out."""
    if limit is not None:
        count(limit, 1, "trace limit")
    state = g3_start(beta)
    if state.is_trivial:
        return ()
    words = [state.word]
    while not state.is_trivial and (limit is None or len(words) < limit):
        if len(words) >= TRACE_STATE_GUARD:
            raise ResourceError(
                f"trace exceeds {TRACE_STATE_GUARD} states; pass a limit")
        state = g3_step(state)
        words.append(state.word)
    return tuple(words)


def g3_is_descending(trace: Iterable) -> bool:
    """Whether ordinal ranks strictly decrease along the given states."""
    ranks = []
    for entry in trace:
        if isinstance(entry, G3State):
            entry = Bp3NormalForm(entry.exponents)
        ranks.append(rank_bp3(entry))
    return all(ordinal_cmp(a, b) == ">" for a, b in zip(ranks, ranks[1:]))


def g3_checkpoint(state: G3State) -> str:
    return json.dumps({"exponents": list(state.exponents),
                       "t": state.t, "steps": state.steps})


def g3_resume(text: str) -> G3State:
    try:
        data = json.loads(text)
        exponents = tuple(int(e) for e in data["exponents"])
        t, steps = int(data["t"]), int(data["steps"])
    except (ValueError, TypeError, KeyError) as exc:
        raise DomainError(f"not a game checkpoint: {exc}") from None
    return G3State(exponents, t, steps)


def ackermann(r: int, x: int, bound: int = DEFAULT_ACK_BOUND) -> int:
    """Level-r Ackermann value, with every intermediate capped by bound.

    Each level keeps a cursor that only moves forward, so the total work
    stays proportional to the bound even at level 3.
    """
    if count(r, 0, "level") > 3:
        raise DomainError(f"level must be between 0 and 3, got {r}")
    count(x, 0, "argument")
    count(bound, 0, "bound")
    args = [0] * (r + 1)
    vals = [None] * (r + 1)

    def at(level: int, target: int) -> int:
        if level == 0:
            value = target + 1
            if value > bound:
                raise ResourceError(
                    f"ackermann value {value} exceeds bound {bound}")
            return value
        if vals[level] is None:
            vals[level] = at(level - 1, 1)
        while args[level] < target:
            vals[level] = at(level - 1, vals[level])
            args[level] += 1
        return vals[level]

    return at(r, x)


def ackermann_diag(x: int, bound: int = DEFAULT_ACK_BOUND) -> int:
    return ackermann(x, x, bound)
