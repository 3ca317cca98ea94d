"""Exact linear algebra over the rationals: one Gauss-Jordan elimination,
from which every rank, independence, kernel, span and solve question in the
package is read, and the primitive integer multiple of a rational vector.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence


def rref(rows: Sequence[Sequence]) -> tuple[list[list[Fraction]], list[int]]:
    """(reduced, pivots): the nonzero rows of the reduced row echelon form
    of a rational matrix, and their pivot columns in increasing order.  Row
    i has 1 in column pivots[i] and every other row 0 there, so the rank is
    len(pivots), and the pivot columns are the first columns (from the left)
    that are independent of the columns before them."""
    m = [[Fraction(x) for x in row] for row in rows]
    pivots: list[int] = []
    for c in range(len(m[0]) if m else 0):
        r = len(pivots)
        piv = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        pr = m[r][c]
        m[r] = [x / pr for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
    return m[: len(pivots)], pivots


def primitive(v: Sequence) -> tuple[Fraction, ...]:
    """The primitive integer multiple of a nonzero rational vector whose
    first nonzero coordinate is positive."""
    v = [Fraction(x) for x in v]
    den = math.lcm(*(x.denominator for x in v))
    ints = [int(x * den) for x in v]
    g = math.gcd(*ints)
    if next(x for x in ints if x != 0) < 0:
        g = -g
    return tuple(Fraction(x // g) for x in ints)
