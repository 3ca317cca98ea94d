"""Dense univariate polynomials over the rationals.

Coefficients are stored low degree first as tuples of Fraction.  Only the
operations needed for number-field certificates live here: euclidean
division, gcd, Sturm chains, arithmetic modulo a defining polynomial, and
an exact irreducibility test (with the F_p arithmetic it needs).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from .arith import is_rational_square

Poly = tuple[Fraction, ...]


def poly(coeffs: Sequence) -> Poly:
    out = tuple(Fraction(c) for c in coeffs)
    while len(out) > 1 and out[-1] == 0:
        out = out[:-1]
    if not out:
        out = (Fraction(0),)
    return out


def degree(f: Poly) -> int:
    return len(f) - 1 if any(c != 0 for c in f) else -1


def is_zero(f: Poly) -> bool:
    return all(c == 0 for c in f)


def add(f: Poly, g: Poly) -> Poly:
    n = max(len(f), len(g))
    return poly([(f[i] if i < len(f) else 0) + (g[i] if i < len(g) else 0) for i in range(n)])


def neg(f: Poly) -> Poly:
    return poly([-c for c in f])


def sub(f: Poly, g: Poly) -> Poly:
    return add(f, neg(g))


def scale(f: Poly, c) -> Poly:
    return poly([Fraction(c) * x for x in f])


def mul(f: Poly, g: Poly) -> Poly:
    out = [Fraction(0)] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a == 0:
            continue
        for j, b in enumerate(g):
            out[i + j] += a * b
    return poly(out)


def derivative(f: Poly) -> Poly:
    if len(f) == 1:
        return poly([0])
    return poly([Fraction(i) * f[i] for i in range(1, len(f))])


def divmod_poly(f: Poly, g: Poly) -> tuple[Poly, Poly]:
    if is_zero(g):
        raise ZeroDivisionError("polynomial division by zero")
    q = [Fraction(0)] * max(1, len(f) - len(g) + 1)
    r = list(f)
    dg = degree(g)
    lg = g[dg]
    while degree(poly(r)) >= dg:
        dr = degree(poly(r))
        c = r[dr] / lg
        q[dr - dg] = c
        for i in range(len(g)):
            r[dr - dg + i] -= c * g[i]
    return poly(q), poly(r)


def mod(f: Poly, g: Poly) -> Poly:
    return divmod_poly(f, g)[1]


def monic(f: Poly) -> Poly:
    d = degree(f)
    if d < 0:
        return f
    return scale(f, Fraction(1, 1) / f[d])


def gcd(f: Poly, g: Poly) -> Poly:
    a, b = f, g
    while not is_zero(b):
        a, b = b, mod(a, b)
    return monic(a) if not is_zero(a) else poly([0])


def is_squarefree(f: Poly) -> bool:
    return degree(gcd(f, derivative(f))) == 0


def xgcd_mod(f: Poly, modulus: Poly) -> Poly:
    """Inverse of f modulo `modulus`; raises ZeroDivisionError if not coprime."""
    # extended euclid on (modulus, f)
    r0, r1 = modulus, mod(f, modulus)
    s0, s1 = poly([0]), poly([1])
    while not is_zero(r1):
        q, r2 = divmod_poly(r0, r1)
        r0, r1 = r1, r2
        s0, s1 = s1, sub(s0, mul(q, s1))
    if degree(r0) != 0:
        raise ZeroDivisionError("element not invertible modulo defining polynomial")
    return mod(scale(s0, Fraction(1) / r0[0]), modulus)


def mulmod(f: Poly, g: Poly, modulus: Poly) -> Poly:
    return mod(mul(f, g), modulus)


def compose(f: Poly, g: Poly) -> Poly:
    """f(g(x))."""
    acc = poly([0])
    for c in reversed(f):
        acc = add(mul(acc, g), poly([c]))
    return acc


def _sign_changes(signs: list[int]) -> int:
    signs = [s for s in signs if s != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a * b < 0)


def _positive_remainder(a: list[int], b: list[int]) -> list[int]:
    """A positive multiple of the remainder of a by b, primitive (integer
    coefficients low degree first, no trailing zeros; [] is zero)."""
    r = a[:]
    db, lb = len(b) - 1, b[-1]
    m, s = abs(lb), (1 if lb > 0 else -1)
    while len(r) - 1 >= db:
        # m*r - s*lead(r)*x^shift*b cancels the leading term, as s*lb = m
        lr, shift = r[-1], len(r) - 1 - db
        r = [m * x for x in r]
        for i, y in enumerate(b):
            r[shift + i] -= s * lr * y
        while r and r[-1] == 0:
            r.pop()
    g = 0
    for x in r:
        g = math.gcd(g, x)
    return [x // g for x in r] if g > 1 else r


def sturm_chain(f: Poly) -> list[Poly]:
    """The Sturm sequence f, f', -rem(f, f'), ... up to positive factors,
    computed in integer arithmetic; it stops at the last nonzero member,
    gcd(f, f') up to a scalar."""
    c = _integer_coeffs(f)
    while c and c[-1] == 0:
        c.pop()
    chain = [c, [i * x for i, x in enumerate(c)][1:]]
    while len(chain[-1]) > 1:
        r = _positive_remainder(chain[-2], chain[-1])
        if not r:
            break
        chain.append([-x for x in r])
    return [poly(g or [0]) for g in chain]


def real_roots_of_chain(chain: list[Poly]) -> int:
    """The number of distinct real roots that a Sturm sequence counts: its
    sign changes at -infinity minus those at +infinity."""

    def sign_at_inf(g: Poly, positive: bool) -> int:
        d = degree(g)
        if d < 0:
            return 0
        lc = g[d]
        s = 1 if lc > 0 else -1
        if not positive and d % 2:
            s = -s
        return s

    at_minus = [sign_at_inf(g, False) for g in chain]
    at_plus = [sign_at_inf(g, True) for g in chain]
    return _sign_changes(at_minus) - _sign_changes(at_plus)


def _divisors(n: int) -> list[int]:
    """Positive divisors of the nonzero integer n, ascending."""
    from .arith import factorize

    ds = [1]
    for p, e in factorize(n).items():
        ds = [d * p**k for d in ds for k in range(e + 1)]
    return sorted(ds)


def _integer_coeffs(f: Poly) -> list[int]:
    """f times the lcm of its denominators, as integers (low degree first)."""
    den = 1
    for c in f:
        den = den * c.denominator // math.gcd(den, c.denominator)
    return [int(c * den) for c in f]


def rational_roots(f: Poly) -> list[Fraction]:
    """All rational roots of f, via the rational root theorem."""
    d = degree(f)
    if d < 0:
        raise ValueError("zero polynomial")
    ic = _integer_coeffs(f)
    while ic and ic[0] == 0:
        ic = ic[1:]  # factor out x; zero is a root
    roots = []
    if len(ic) < len(f):
        roots.append(Fraction(0))
    if len(ic) <= 1:
        return sorted(set(roots))
    for p in _divisors(ic[0]):
        for q in _divisors(ic[-1]):
            if math.gcd(p, q) != 1:
                continue
            for s in (p, -p):
                # q^n f(s/q) in integers, by Horner
                acc, qk = 0, 1
                for c in reversed(ic):
                    acc = acc * s + c * qk
                    qk *= q
                if acc == 0:
                    roots.append(Fraction(s, q))
    return sorted(roots)


# --------------------------------------------------------------------------
# Irreducibility over the rationals

# Degree >= 5 is proven irreducible from the factor degrees of f modulo the
# primes below this bound; past it the test gives up (IrreducibilityUnproven).
IRREDUCIBILITY_PRIME_BOUND = 200


class IrreducibilityUnproven(RuntimeError):
    """The factor-degree patterns modulo small primes did not prove a
    polynomial of degree >= 5 irreducible (it may be reducible or not)."""


def is_irreducible(f: Poly) -> bool:
    """Exact irreducibility over the rationals.

    Degree 1 is irreducible; degree 2 iff its discriminant is not a rational
    square, which factors nothing; degree 3 iff f has no rational root;
    degree 4 iff it has no rational root and no factorization into two
    integer quadratics (Gauss's lemma).  For degree >= 5 a rational
    root or a repeated factor proves f reducible; otherwise f is irreducible
    when no degree in 1..n-1 is a sum of factor degrees of f modulo every
    prime p < IRREDUCIBILITY_PRIME_BOUND with p not dividing lc(f)*disc(f).
    Raises IrreducibilityUnproven when neither proof is found.
    """
    n = degree(f)
    if n < 1:
        return False
    if n == 1:
        return True
    if n == 2:
        return not is_rational_square(f[1] * f[1] - 4 * f[2] * f[0])
    if rational_roots(f):
        return False
    if n == 3:
        return True
    if n == 4:
        return not _splits_into_quadratics(_integer_coeffs(f))
    if not is_squarefree(f):
        return False
    if _degree_patterns_exclude_factors(_integer_coeffs(f)):
        return True
    raise IrreducibilityUnproven(
        f"irreducibility of a degree-{n} polynomial is not proven by its factor"
        f" degrees modulo the primes below IRREDUCIBILITY_PRIME_BOUND ="
        f" {IRREDUCIBILITY_PRIME_BOUND}"
    )


def _splits_into_quadratics(c: list[int]) -> bool:
    """True iff the integer quartic c (no rational root) is a product of two
    rational quadratics.  Monicize to g(y) = c4^3 f(y/c4); by Gauss's lemma a
    split is (y^2 + ay + b)(y^2 + cy + d) with integers bd = g0, a + c = g3,
    ac = g2 - b - d and ad + bc = g1."""
    lc = c[4]
    g0, g1, g2, g3 = (c[i] * lc ** (3 - i) for i in range(4))
    for m in _divisors(g0):
        for b in (m, -m):
            d = g0 // b
            disc = g3 * g3 - 4 * (g2 - b - d)
            if disc < 0 or math.isqrt(disc) ** 2 != disc:
                continue
            r = math.isqrt(disc)
            for a, cc in (((g3 + r) // 2, (g3 - r) // 2), ((g3 - r) // 2, (g3 + r) // 2)):
                if a * d + b * cc == g1:
                    return True
    return False


def _degree_patterns_exclude_factors(c: list[int]) -> bool:
    """True iff the degrees a rational factor of the squarefree integer
    polynomial c could have (sums of its factor degrees modulo each good prime)
    leave none in 1..n-1."""
    from .arith import is_prime

    n = len(c) - 1
    possible = set(range(1, n))
    for p in range(2, IRREDUCIBILITY_PRIME_BOUND):
        if not is_prime(p) or c[-1] % p == 0:
            continue
        fp = _fp_monic([x % p for x in c], p)
        if len(_fp_gcd(fp, _fp_derivative(fp, p), p)) > 1:
            continue  # p divides the discriminant
        sums = {0}
        for d in _fp_factor_degrees(fp, p):
            sums |= {s + d for s in sums}
        possible &= sums
        if not possible:
            return True
    return False


# Polynomials over F_p: lists of ints in [0, p), low degree first, no
# trailing zeros (the zero polynomial is []).


def _fp_trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _fp_monic(a: list[int], p: int) -> list[int]:
    a = _fp_trim(a)
    inv = pow(a[-1], -1, p)
    return [x * inv % p for x in a]


def _fp_derivative(a: list[int], p: int) -> list[int]:
    return _fp_trim([i * a[i] % p for i in range(1, len(a))])


def _fp_mul(a: list[int], b: list[int], p: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _fp_trim([x % p for x in out])


def _fp_divmod(a: list[int], b: list[int], p: int) -> tuple[list[int], list[int]]:
    r = list(a)
    inv = pow(b[-1], -1, p)
    q = [0] * max(0, len(a) - len(b) + 1)
    for k in range(len(a) - len(b), -1, -1):
        coef = r[k + len(b) - 1] * inv % p
        q[k] = coef
        if coef:
            for j, y in enumerate(b):
                r[k + j] = (r[k + j] - coef * y) % p
    return _fp_trim(q), _fp_trim(r[: len(b) - 1])


def _fp_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    while b:
        a, b = b, _fp_divmod(a, b, p)[1]
    return _fp_monic(a, p) if a else a


def _fp_powmod(a: list[int], e: int, f: list[int], p: int) -> list[int]:
    acc = [1]
    while e:
        if e & 1:
            acc = _fp_divmod(_fp_mul(acc, a, p), f, p)[1]
        a = _fp_divmod(_fp_mul(a, a, p), f, p)[1]
        e >>= 1
    return acc


def _fp_factor_degrees(f: list[int], p: int) -> list[int]:
    """Degrees of the irreducible factors of the monic squarefree f over F_p,
    by distinct-degree factorization: gcd(f, x^(p^d) - x) collects the
    factors of degree d."""
    degs = []
    h = [0, 1]  # x^(p^d) mod f
    d = 0
    while len(f) - 1 >= 2 * (d + 1):
        d += 1
        h = _fp_powmod(h, p, f, p)
        h_minus_x = h + [0] * (2 - len(h))
        h_minus_x[1] = (h_minus_x[1] - 1) % p
        g = _fp_gcd(f, _fp_trim(h_minus_x), p)
        if len(g) > 1:
            degs += [d] * ((len(g) - 1) // d)
            f = _fp_divmod(f, g, p)[0]
            h = _fp_divmod(h, f, p)[1]
    if len(f) > 1:
        degs.append(len(f) - 1)
    return degs
