"""conjugacy: positive conjugacy classes and their D-least members.

Per round: positive_conjugates and then mu on every positive word of
lengths 5, 6 and 7 on 3 strands and of length 3 on 4 strands, taken up to
the flip sigma_i -> sigma_{n-i}, and on the words of the published mu
table.  The seed flips each word or not and orders the words.
"""

import itertools
import random
from functools import partial
from types import SimpleNamespace

from ldlab import braid as br
from ldlab import conjugacy, order

import oracles

TAIL_PERCENTILE = 95

# (strands, lengths).  Costs vary widely between words of one length and
# up to 1.7-fold between a word and its flip, so every word of each length
# is used (one of each flip pair, chosen by the seed): a round then costs
# nearly the same, and has nearly the same slowest tasks, for every seed.
STRATA = ((3, (5, 6, 7)), (4, (3,)))

# Published least conjugates of the BP_3 braids with these alternating
# normal words; None marks a braid that is its own least conjugate.  The
# published entry for sigma_2^3 (which drops a crossing) is left out.
MU_TABLE = (
    ((), None), ((1,), None), ((1, 1), None), ((2,), (1,)), ((2, 1), None),
    ((2, 1, 1), None), ((2, 2), (1, 1)), ((2, 2, 1), (2, 1, 1)), ((2, 2, 1, 1), None),
    ((2, 2, 2, 1), (2, 1, 1, 1)), ((2, 2, 2, 1, 1), (2, 2, 1, 1, 1)), ((1, 2), (2, 1)),
    ((1, 2, 1), (2, 1, 1)), ((1, 2, 1, 1), (2, 1, 1, 1)), ((1, 2, 2), (2, 1, 1)),
    ((1, 2, 2, 1), (2, 2, 1, 1)), ((1, 2, 2, 1, 1), (2, 2, 1, 1, 1)), ((1, 1, 2), (2, 1, 1)),
    ((1, 1, 2, 1), (2, 1, 1, 1)), ((1, 1, 2, 1, 1), (2, 1, 1, 1, 1)),
    ((1, 1, 2, 2), (2, 2, 1, 1)), ((1, 1, 2, 2, 1), (2, 2, 1, 1, 1)),
    ((1, 1, 2, 2, 1, 1), (2, 2, 1, 1, 1, 1)), ((1, 1, 2, 2, 2), (2, 2, 1, 1, 1)),
    ((1, 1, 2, 2, 2, 1), (2, 2, 2, 1, 1, 1)), ((1, 1, 2, 2, 2, 2), (2, 2, 1, 1, 1, 1)),
    ((1, 1, 2, 2, 2, 2, 1), (2, 2, 2, 1, 1, 1, 1)),
    ((1, 1, 2, 2, 2, 2, 1, 1), (2, 2, 2, 2, 1, 1, 1, 1)), ((1, 1, 1, 2), (2, 1, 1, 1)),
    ((1, 1, 1, 2, 1), (2, 1, 1, 1, 1)), ((1, 1, 1, 2, 2), (2, 2, 1, 1, 1)),
    ((1, 1, 1, 2, 2, 1), (2, 2, 1, 1, 1, 1)), ((2, 1, 1, 2), (2, 2, 1, 1)),
    ((2, 1, 1, 2, 1), (2, 1, 1, 1, 1)), ((2, 1, 1, 2, 1, 1), None),
)


def flip(word, n):
    """sigma_i -> sigma_{n-i}: conjugation by Delta, so class sizes are kept."""
    return tuple(n - x for x in word)


def setup(seed):
    rng = random.Random(seed)
    s = SimpleNamespace()
    s.words = []
    for n, lengths in STRATA:
        for length in lengths:
            for w in itertools.product(range(1, n), repeat=length):
                if w <= flip(w, n):
                    s.words.append((n, flip(w, n) if rng.random() < 0.5 else w))
    rng.shuffle(s.words)
    s.words += [(3, word) for word, _ in MU_TABLE]
    s.braids = [br.from_word(br.BraidWord(n, w)) for n, w in s.words]
    return s


def calls(s, tracer=None):
    out = []
    for (n, _), b in zip(s.words, s.braids):
        out.append(partial(conjugacy.positive_conjugates, b, n))
        out.append(partial(conjugacy.mu, b, n))
    return out


def _least_ok(least, members, n, ranks):
    """Empty if least is below every member and mu(least) == least."""
    if n == 3:
        # Ranks order BP_3 as compare_flipped does (checked by the order
        # workload); comparing them here is cheaper than comparing braids.
        for m in members:
            if m not in ranks:
                ranks[m] = order.rank_bp3(m).terms
        above = any(oracles.cnf_cmp(ranks[least], ranks[m]) == ">" for m in members)
    else:
        above = any(order.compare_flipped(least, m, n) == ">" for m in members)
    if above:
        return "is above a member of its class"
    if conjugacy.mu(least, n) != least:
        return "is not fixed by mu"
    return ""


def check(s, outs):
    errors = []
    least_ok = {}       # (strands, mu, class) -> "" or what is wrong
    ranks = {}          # BP_3 braid -> rank_bp3 terms
    for k, ((n, w), b) in enumerate(zip(s.words, s.braids)):
        cls, least = outs[2 * k], outs[2 * k + 1]
        if cls.root != b or b not in cls.members:
            errors.append(f"class of {w} does not contain its root")
        for m in cls.members:
            letters = br.to_word(m).letters
            if m.inf < 0 or any(x < 0 for x in letters) or len(letters) != len(w):
                errors.append(f"class of {w} has {letters}, not positive of length {len(w)}")
            u = br.to_word(cls.witness(m)).letters
            if not oracles.same_braid(w + u, u + letters, n):
                errors.append(f"witness {u} does not conjugate {w} to {letters}")
        mu_letters = br.to_word(least).letters
        if least not in cls.members or len(mu_letters) != len(w):
            errors.append(f"mu of {w} is {mu_letters}, not a member of its class")
        # Minimality and idempotence depend only on the class and its mu,
        # and many words share a class: check each pair once.
        key = (n, least, frozenset(cls.members))
        if key not in least_ok:
            least_ok[key] = _least_ok(least, cls.members, n, ranks)
        if least_ok[key]:
            errors.append(f"mu of {w} {least_ok[key]}")
    table_mu = outs[-2 * len(MU_TABLE) + 1::2]
    for (word, expected), least in zip(MU_TABLE, table_mu):
        got = br.to_word(least).letters
        if not oracles.same_braid(got, word if expected is None else expected, 3):
            errors.append(f"mu of {word} is {got}, published {expected}")
    return errors
