"""Exact integer and rational number theory: factorization, square classes,
and Hilbert symbols over the places of the rationals.

All values are immutable and all functions are pure.  A rational is an
`int` or a `fractions.Fraction`, read as its numerator and denominator;
functions that return a rational return a `Fraction`.  Places are
`RealPlace` or `FinitePrime`, one per prime (`finite_prime`).
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Iterable, Union

from .value import Value

Rational = Union[int, Fraction]

# trial division runs up to this divisor before Pollard rho takes over
TRIAL_DIVISION_BOUND = 10**6
# Pollard rho iterations allowed per cofactor (about 3 s); past it,
# FactorizationExceeded.
RHO_ITERATION_BUDGET = 2**20


class ZeroInput(ValueError):
    pass


class NotPrime(ValueError):
    pass


class FactorizationExceeded(RuntimeError):
    """Raised when factoring an input exceeds the configured effort budget."""


class RealPlace(Value):
    def __repr__(self) -> str:
        return "RealPlace()"


class FinitePrime(Value):
    p: int

    def __post_init__(self):
        if not is_prime(self.p):
            raise NotPrime(f"{self.p} is not prime")

    def __repr__(self) -> str:
        return f"FinitePrime({self.p})"


Place = Union[RealPlace, FinitePrime]

REAL = RealPlace()


# the one place of each prime, proven prime on first use; a composite
# raises NotPrime and is not kept
finite_prime = functools.cache(FinitePrime)


def _miller_rabin(n: int, a: int) -> bool:
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    x = pow(a, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(r - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


# Deterministic for all n < 3.3 * 10^24.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    return all(_miller_rabin(n, a) for a in _MR_BASES if a < n)


def _pollard_rho(n: int) -> int:
    """Deterministic Brent-style rho; returns a nontrivial factor of odd composite n."""
    if n % 2 == 0:
        return 2
    budget = RHO_ITERATION_BUDGET
    for c in range(1, 100):
        x = y = 2
        d = 1
        while d == 1:
            if budget == 0:
                raise FactorizationExceeded(
                    f"pollard rho exceeded RHO_ITERATION_BUDGET = {RHO_ITERATION_BUDGET}"
                    f" iterations on {n}"
                )
            budget -= 1
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = math.gcd(abs(x - y), n)
        if d != n:
            return d
    raise FactorizationExceeded(f"pollard rho failed on {n}")


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of |n| as {prime: exponent}.

    Trial division up to TRIAL_DIVISION_BOUND, then deterministic Pollard
    rho for any remaining cofactor.  Raises FactorizationExceeded rather
    than returning a partial answer.
    """
    if n == 0:
        raise ZeroInput("cannot factor 0")
    n = abs(n)
    out: dict[int, int] = {}
    for p in (2, 3, 5):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    d = 7
    wheel = (4, 2, 4, 2, 4, 6, 2, 6)
    i = 0
    while d * d <= n and d <= TRIAL_DIVISION_BOUND:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += wheel[i]
        i = (i + 1) % 8
    if d * d > n:  # no factor up to sqrt(n) is left: n is 1 or prime
        if n > 1:
            out[n] = out.get(n, 0) + 1
        return out
    # Remaining cofactor has no factor <= the bound.
    stack = [n]
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        f = _pollard_rho(m)
        stack.extend([f, m // f])
    return out


def squarefree_part(x: Rational) -> int:
    """Squarefree integer s with x = s * (rational square); sign(s) = sign(x)."""
    if x == 0:
        raise ZeroInput("squarefree_part(0)")
    n = x.numerator * x.denominator  # same square class as x
    s = 1
    for p, e in factorize(n).items():
        if e % 2:
            s *= p
    return s if n > 0 else -s


def is_rational_square(x: Rational) -> bool:
    if x == 0:
        return True
    if x < 0:
        return False
    return (
        math.isqrt(x.numerator) ** 2 == x.numerator
        and math.isqrt(x.denominator) ** 2 == x.denominator
    )


def rational_sqrt(x: Rational) -> Fraction:
    """The nonnegative square root of a rational square x."""
    return Fraction(math.isqrt(x.numerator), math.isqrt(x.denominator))


def rat_to_str(x: Rational) -> str:
    """x as "n" or "n/d" in lowest terms, the form of every rational in a
    document."""
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def rats_to_str(xs) -> str:
    """Rationals as "(x1, x2, ...)", each as rat_to_str writes it."""
    return "(" + ", ".join(map(rat_to_str, xs)) + ")"


def _two_adic_split(x: Rational, p: int) -> tuple[int, int]:
    """Write x = p^alpha * u with u a p-unit; returns (alpha, u) as ints,
    u being num * den of x with the powers of p removed: not the unit part
    itself but an integer in its square class, which is all that Hilbert
    symbols and square classes read."""
    num, den = x.numerator, x.denominator
    alpha = 0
    while num % p == 0:
        num //= p
        alpha += 1
    while den % p == 0:
        den //= p
        alpha -= 1
    return alpha, num * den  # same square class as the unit part of x


def hilbert_symbol(a: Rational, b: Rational, v: Place) -> int:
    """Hilbert symbol (a,b)_v: +1 iff z^2 = a x^2 + b y^2 has a nontrivial
    solution over the completion at v.  a and b are ints or Fractions, read
    through .numerator and .denominator, which both types have."""
    if a == 0 or b == 0:
        raise ZeroInput("hilbert symbol needs nonzero arguments")
    if isinstance(v, RealPlace):
        return -1 if (a < 0 and b < 0) else 1
    p = v.p
    alpha, u = _two_adic_split(a, p)
    beta, w = _two_adic_split(b, p)
    if p != 2:
        sign = 1
        if alpha * beta % 2 and (p - 1) // 2 % 2:
            sign = -sign
        # p is proven prime by FinitePrime and u, w are p-units, so the
        # residue symbols are read by Euler's criterion
        if beta % 2 and pow(u, (p - 1) // 2, p) != 1:
            sign = -sign
        if alpha % 2 and pow(w, (p - 1) // 2, p) != 1:
            sign = -sign
        return sign
    eps_u = (u % 8 - 1) // 2 % 2  # (u-1)/2 mod 2
    eps_w = (w % 8 - 1) // 2 % 2
    omega_u = (u % 8) in (3, 5)  # (u^2-1)/8 mod 2
    omega_w = (w % 8) in (3, 5)
    e = eps_u * eps_w + alpha * omega_w + beta * omega_u
    return -1 if e % 2 else 1


def relevant_places(values: Iterable[Rational]) -> list[Place]:
    """The real place, 2, and every odd prime dividing a numerator or
    denominator of the given nonzero rationals (ints or Fractions; a zero
    is skipped).  Hilbert symbols in the values are +1 away from this
    set."""
    primes = {2}
    for x in values:
        if x == 0:
            continue
        primes.update(factorize(x.numerator * x.denominator))
    return [REAL] + [finite_prime(p) for p in sorted(primes)]
