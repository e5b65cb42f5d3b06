"""Checks computed apart from ldlab.

Nothing here imports the package under test.  Each routine is written from
the mathematical definition, so agreement with ldlab's output is evidence
and not a tautology:

- the Artin action of B_n on the free group F_n (faithful, so two words
  are the same braid exactly when they act alike);
- the Laver-table recurrence and the row-1 periods of A_0..A_10;
- brute-force left distributivity and closure-colouring counts;
- the rack cocycle constraint rows and their nullity over Q by exact
  Gaussian elimination with fractions;
- the G3 game played from its rules;
- comparison of ordinals below omega^omega in Cantor normal form.
"""

from fractions import Fraction
from itertools import product

# Row-1 periods of A_0 .. A_10 (OEIS A098820).
ROW1_PERIODS = (1, 1, 2, 4, 4, 8, 8, 8, 8, 16, 16)


# ---------------------------------------------------------------- braids

def free_reduce(word):
    out = []
    for letter in word:
        if out and out[-1] == -letter:
            out.pop()
        else:
            out.append(letter)
    return tuple(out)


def free_inverse(word):
    return tuple(-x for x in reversed(word))


def artin_action(letters, n):
    """Images of the generators x_1..x_n of F_n under a braid word.

    sigma_i sends (.., a, b, ..) at positions i, i+1 to (.., a b a^-1, a, ..)
    and sigma_i^-1 to (.., b, b^-1 a b, ..).  The action is faithful.
    """
    vec = [(i,) for i in range(1, n + 1)]
    for letter in letters:
        i = abs(letter)
        a, b = vec[i - 1], vec[i]
        if letter > 0:
            vec[i - 1], vec[i] = free_reduce(a + b + free_inverse(a)), a
        else:
            vec[i - 1], vec[i] = b, free_reduce(free_inverse(b) + a + b)
    return tuple(vec)


def same_braid(u, v, n):
    return artin_action(u, n) == artin_action(v, n)


def delta_letters(n):
    """A positive word for the half twist Delta_n."""
    out = []
    for i in range(1, n):
        out.extend(range(i, 0, -1))
    return tuple(out)


def sigma_positive(letters):
    """Whether the word is sigma_i-positive for its least index i."""
    if not letters:
        return False
    i = min(abs(x) for x in letters)
    return i in letters and -i not in letters


def cnf_cmp(a, b):
    """Compare ordinals given as Cantor normal form term tuples ((k, c), ...)."""
    a, b = tuple(a), tuple(b)
    return "<" if a < b else ">" if a > b else "="


def g3_play(exponents, cap):
    """(exponents, t, steps) after at most cap steps of the G3 game.

    Rules: at step t the critical block is the rightmost block above its
    floor (floor 0 for the first and last block, 2 for middle blocks; the
    first block is critical when no other is).  It loses one crossing and
    the next block, if any, gains t.  Leading empty blocks drop off.  When
    the last block is non-empty it is critical for its whole countdown, so
    those steps are taken at once.
    """
    exps = list(exponents)
    t, steps = 1, 0
    while exps and steps < cap:
        if exps[-1] > 0:
            k = min(exps[-1], cap - steps)
            exps[-1] -= k
            t += k
            steps += k
            if len(exps) == 1 and exps[0] == 0:
                exps.pop()
            continue
        last = len(exps) - 1
        idx = 0
        for i in range(last, 0, -1):
            if exps[i] > (0 if i == last else 2):
                idx = i
                break
        exps[idx] -= 1
        if idx < last:
            exps[idx + 1] += t
        t += 1
        steps += 1
        while exps and exps[0] == 0:
            exps.pop(0)
    return tuple(exps), t, steps


# ---------------------------------------------------------------- tables

def laver_rows(size):
    """Rows of the size-N table from p*1 = p+1 (mod N) and p*q = (p*(q-1))*(p+1)."""
    rows = [None] * (size + 1)
    rows[size] = [q for q in range(1, size + 1)]
    for p in range(size - 1, 0, -1):
        row = [p + 1]
        for _ in range(2, size + 1):
            row.append(rows[row[-1]][p])   # (p*(q-1)) * (p+1), 1-based column p+1
        rows[p] = row
    return [rows[p] for p in range(1, size + 1)]


def row1_period(rows):
    size = len(rows)
    return rows[0].index(size) + 1


def is_ld(rows):
    """Left self-distributivity x*(y*z) = (x*y)*(x*z), by brute force."""
    m = len(rows)
    for x, y, z in product(range(m), repeat=3):
        if rows[x][rows[y][z] - 1] != rows[rows[x][y] - 1][rows[x][z] - 1]:
            return False
    return True


def colourings(rows, letters, strands):
    """Colour vectors fixed by the braid word, the table acting as a rack."""
    m = len(rows)
    left_div = [[0] * (m + 1) for _ in range(m + 1)]
    for a in range(1, m + 1):
        for c in range(1, m + 1):
            left_div[a][rows[a - 1][c - 1]] = c
    count = 0
    for vec in product(range(1, m + 1), repeat=strands):
        cur = list(vec)
        for letter in letters:
            i = abs(letter) - 1
            a, b = cur[i], cur[i + 1]
            if letter > 0:
                cur[i], cur[i + 1] = rows[a - 1][b - 1], a
            else:
                cur[i], cur[i + 1] = b, left_div[b][a]
        count += tuple(cur) == vec
    return count


def _faces(rows, tup):
    """(sign, face) pairs of the rack boundary of a tuple."""
    out = []
    for i in range(len(tup)):
        sign = 1 if i % 2 == 0 else -1
        x = tup[i]
        star = tup[:i] + tuple(rows[x - 1][y - 1] for y in tup[i + 1:])
        zero = tup[:i] + tup[i + 1:]
        out.append((sign, star))
        out.append((-sign, zero))
    return out


def _index(m, tup):
    idx = 0
    for x in tup:
        idx = idx * m + (x - 1)
    return idx


def cocycle_rows(rows, degree):
    """Sparse rows {column: coefficient} of the cocycle condition in a degree."""
    m = len(rows)
    out = []
    for tup in product(range(1, m + 1), repeat=degree + 1):
        row = {}
        for sign, face in _faces(rows, tup):
            j = _index(m, face)
            row[j] = row.get(j, 0) + sign
        row = {j: c for j, c in row.items() if c}
        if row:
            out.append(row)
    return out


def rational_nullity(sparse_rows, dim):
    """dim minus the rank over Q, by Gaussian elimination on Fractions."""
    pivots = {}   # pivot column -> row with coefficient 1 there
    for raw in sparse_rows:
        row = {j: Fraction(c) for j, c in raw.items()}
        while row:
            col = min(row)
            piv = pivots.get(col)
            if piv is None:
                lead = row[col]
                pivots[col] = {j: c / lead for j, c in row.items()}
                break
            factor = row[col]
            for j, c in piv.items():
                v = row.get(j, 0) - factor * c
                if v:
                    row[j] = v
                else:
                    row.pop(j, None)
    return dim - len(pivots)


def satisfies_rows(sparse_rows, values):
    return all(sum(c * values[j] for j, c in row.items()) == 0 for row in sparse_rows)
