"""Independent oracles used only by the test suite.

Everything here is implemented from first principles, sharing no code with
the package under test:

- local solvability of z^2 = a x^2 + b y^2 by exhaustive primitive-triple
  search modulo 32 at the prime 2, by residue case analysis with explicit
  quadratic-residue sets at odd primes, and by sign inspection at the real
  place.  A found residue solution lifts to a 2-adic/p-adic solution because
  with squarefree coefficients a primitive zero always has a coordinate
  whose partial derivative has small enough valuation for Hensel's lemma;
  conversely a p-adic solution scales to a primitive integral one and
  reduces.
- local isotropy of a diagonal form of any dimension >= 2, from square
  classes for binary forms, from the solvability above for ternary ones,
  and for larger ones by splitting off a binary subform over every square
  class of Q_p.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

PRIMES_LE_50 = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]


def squarefree_int(x) -> int:
    """Squarefree part of a nonzero rational, by plain trial division."""
    x = Fraction(x)
    n = abs(x.numerator * x.denominator)
    sign = 1 if x > 0 else -1
    s = 1
    d = 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        if e % 2:
            s *= d
        d += 1
    return sign * s * n  # leftover n is prime (or 1), exponent 1


@lru_cache(maxsize=None)
def _qr_set(p: int) -> frozenset:
    return frozenset((z * z) % p for z in range(1, p))


def _is_qr(u: int, p: int) -> bool:
    return u % p in _qr_set(p)


_SQ32 = frozenset((z * z) % 32 for z in range(32))
_ODD_SQ32 = frozenset((z * z) % 32 for z in range(1, 32, 2))


@lru_cache(maxsize=None)
def _solvable_mod32(a32: int, b32: int) -> bool:
    for x in range(32):
        for y in range(32):
            w = (a32 * x * x + b32 * y * y) % 32
            if x % 2 or y % 2:
                if w in _SQ32:
                    return True
            elif w in _ODD_SQ32:
                return True
    return False


@lru_cache(maxsize=None)
def _solvable_odd(a: int, b: int, p: int) -> bool:
    alpha, u = (1, a // p) if a % p == 0 else (0, a)
    beta, v = (1, b // p) if b % p == 0 else (0, b)
    if alpha == 0 and beta == 0:
        # a nondegenerate ternary form over F_p has a nontrivial zero
        # (Chevalley-Warning) at a smooth point, so it lifts
        return True
    if alpha == 1 and beta == 0:
        return _is_qr(v, p)
    if alpha == 0 and beta == 1:
        return _is_qr(u, p)
    return _is_qr(-u * v, p)


def oracle_solvable(a, b, place) -> bool:
    """Does z^2 = a x^2 + b y^2 have a nontrivial solution over the given
    completion of Q?  `place` is 0 for the real place or a prime."""
    a = squarefree_int(a)
    b = squarefree_int(b)
    if place == 0:
        return a > 0 or b > 0
    p = int(place)
    if p == 2:
        return _solvable_mod32(a % 32, b % 32)
    return _solvable_odd(a, b, p)


def _square_classes(p: int) -> tuple[int, ...]:
    """Representatives of Q_p^x / squares: {1, r, p, rp} with r the least
    non-residue for odd p, and {1, 3, 5, 7} times {1, 2} at 2."""
    if p == 2:
        units = (1, 3, 5, 7)
    else:
        units = (1, next(r for r in range(2, p) if not _is_qr(r, p)))
    return tuple(u * e for e in (1, p) for u in units)


def oracle_isotropic(coeffs, p: int) -> bool:
    """Is the diagonal form sum c_i x_i^2 with nonzero integer coefficients
    isotropic over Q_p, for a prime p and at least two coefficients?

    n = 2: -ab is a square in Q_p, that is, its squarefree part is prime to
    p and a residue mod p (1 mod 8 at 2).  n = 3: oracle_solvable.  n >= 4:
    <a, b> + R is isotropic iff some t in Q_p^x / squares is represented by
    <a, b> while -t is represented by R, that is, iff <a, b, -t> and
    R + <t> are both isotropic (an isotropic form represents every t)."""
    a, b, *rest = coeffs
    if not rest:
        s = squarefree_int(-a * b)
        if s % p == 0:
            return False
        return s % 8 == 1 if p == 2 else _is_qr(s, p)
    if len(rest) == 1:
        c = rest[0]
        return oracle_solvable(Fraction(-a, c), Fraction(-b, c), p)
    return any(
        oracle_isotropic([a, b, -t], p) and oracle_isotropic([*rest, t], p)
        for t in _square_classes(p)
    )
