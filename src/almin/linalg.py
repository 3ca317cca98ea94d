"""Exact linear algebra over the rationals: one Gauss-Jordan elimination,
from which every rank, independence, kernel, span and solve question in the
package is read, and the primitive integer multiple of a rational vector.
The elimination runs on integer rows, kept free of common factors, so no
rational is built until each pivot row is divided by its pivot at the end.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence


def _integer_row(v: Sequence) -> list[int]:
    """The integer multiple of a vector of ints and Fractions by the lcm of
    its denominators, read through .numerator and .denominator."""
    den = math.lcm(*(x.denominator for x in v))
    return [x.numerator * (den // x.denominator) for x in v]


def rref(rows: Sequence[Sequence]) -> tuple[list[list[Fraction]], list[int]]:
    """(reduced, pivots): the nonzero rows of the reduced row echelon form
    of a rational matrix, and their pivot columns in increasing order.  Row
    i has 1 in column pivots[i] and every other row 0 there, so the rank is
    len(pivots), and the pivot columns are the first columns (from the left)
    that are independent of the columns before them.

    Each row is scaled to integers first.  Clearing a column replaces a row
    by pivot * row - entry * pivot row, divided by its gcd, so every row
    stays a nonzero multiple of the row that elimination over the rationals
    holds at the same step, and each pivot row is divided by its pivot once,
    at the end."""
    m = [_integer_row(row) for row in rows]
    pivots: list[int] = []
    for c in range(len(m[0]) if m else 0):
        r = len(pivots)
        piv = next((i for i in range(r, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        pr, prow = m[r][c], m[r]
        for i in range(len(m)):
            f = m[i][c]
            if i != r and f:
                row = [pr * x - f * y for x, y in zip(m[i], prow)]
                g = math.gcd(*row)
                m[i] = [x // g for x in row] if g > 1 else row
        pivots.append(c)
    return [[Fraction(x, row[c]) for x in row] for row, c in zip(m, pivots)], pivots


def primitive(v: Sequence) -> tuple[Fraction, ...]:
    """The primitive integer multiple of a nonzero rational vector whose
    first nonzero coordinate is positive."""
    ints = _integer_row(v)
    g = math.gcd(*ints)
    if next(x for x in ints if x != 0) < 0:
        g = -g
    return tuple(Fraction(x // g) for x in ints)
