"""Quadratic forms over the rationals with exact arithmetic.

Forms are symmetric Gram matrices of Fractions.  They are evaluated over
the integers: each form caches its Gram as N / den with N integral, each
vector is cleared to integers over a common denominator, and a pairing or
a restricted Gram entry is an integer sum divided once.  The module provides
congruence diagonalization, signatures, the invariants of a diagonal (one
bilinear product of Hilbert symbols) and Serre's local criterion on them,
written once (_local_isotropic) for local and global isotropy tests and the
Witt index, isotropic vectors constructed from theory (a pair c, -c of
square classes, Legendre's descent for ternary forms, and for dimension >= 4
the splitting step of the proof of Hasse-Minkowski, whose candidate values
are tested against local classes computed once), explicit Witt
decompositions built on them, and a positive nonsquare represented value
read off a diagonal.  Ranks,
independent subsets and primitive integer vectors come from linalg's single
exact elimination.
"""

from __future__ import annotations

import math
from functools import cached_property
from fractions import Fraction
from typing import Iterable, Literal, Optional, Sequence, Union

from .arith import (
    FinitePrime,
    Place,
    RealPlace,
    _two_adic_split,
    factorize,
    hilbert_symbol,
    is_rational_square,
    rational_sqrt,
)
from .linalg import primitive, rref
from .value import Value

Matrix = tuple[tuple[Fraction, ...], ...]
Vector = tuple[Fraction, ...]


class Degenerate(ValueError):
    pass


class NotSymmetric(ValueError):
    pass


class SearchExhausted(RuntimeError):
    """A value or vector provably exists but a budgeted loop did not reach it."""


def _mat(rows: Sequence[Sequence]) -> Matrix:
    return tuple(tuple(Fraction(x) for x in row) for row in rows)


class QuadForm(Value):
    gram: Matrix

    @staticmethod
    def from_rows(rows: Sequence[Sequence]) -> "QuadForm":
        g = _mat(rows)
        n = len(g)
        if any(len(row) != n for row in g):
            raise NotSymmetric("gram matrix must be square")
        for i in range(n):
            for j in range(i):
                if g[i][j] != g[j][i]:
                    raise NotSymmetric("gram matrix must be symmetric")
        return QuadForm(g)

    @staticmethod
    def diagonal(coeffs: Sequence) -> "QuadForm":
        cs = [Fraction(c) for c in coeffs]
        n = len(cs)
        return QuadForm(
            tuple(
                tuple(cs[i] if i == j else Fraction(0) for j in range(n))
                for i in range(n)
            )
        )

    @property
    def dim(self) -> int:
        return len(self.gram)

    @cached_property
    def integral(self) -> tuple[tuple[tuple[tuple[int, int], ...], ...], int]:
        """(rows, den) with G = N / den, N integral and den the least common
        denominator of the entries; rows[i] lists the pairs (j, N_ij) with
        N_ij != 0.  Computed once per form: it is not a field, so equality
        and hashing see only the Gram."""
        den = math.lcm(*(x.denominator for row in self.gram for x in row))
        rows = tuple(
            tuple(
                (j, x.numerator * (den // x.denominator))
                for j, x in enumerate(row)
                if x
            )
            for row in self.gram
        )
        return rows, den

    def value(self, v: Sequence) -> Fraction:
        """q(v) = v^T G v."""
        return self.bilinear(v, v)

    def bilinear(self, u: Sequence, v: Sequence) -> Fraction:
        """B(u, v) = u^T G v: an integer sum over the nonzero coordinates of
        u and the nonzero Gram entries, divided once."""
        rows, den = self.integral
        a, da = _cleared(u)
        b, db = _cleared(v)
        total = 0
        for x, row in zip(a, rows):
            if x:
                total += x * sum(n * b[j] for j, n in row)
        return Fraction(total, den * da * db)

    def determinant(self) -> Fraction:
        return _det(self.gram)


def _cleared(v: Sequence) -> tuple[list[int], int]:
    """(a, d) with v = a / d, a integral and d the least common denominator
    of the coordinates; ints and Fractions are read without conversion."""
    v = [x if isinstance(x, (int, Fraction)) else Fraction(x) for x in v]
    d = math.lcm(*(x.denominator for x in v))
    return [x.numerator * (d // x.denominator) for x in v], d


def _det(g: Matrix) -> Fraction:
    n = len(g)
    m = [list(row) for row in g]
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            det = -det
        det *= m[col][col]
        for r in range(col + 1, n):
            f = m[r][col] / m[col][col]
            for c in range(col, n):
                m[r][c] -= f * m[col][c]
    return det


class DiagForm(Value):
    """A diagonalization q(Bx) = sum coeffs[i] x_i^2: B^T G B = diag(coeffs)."""

    coeffs: tuple[Fraction, ...]
    basis_change: Matrix
    source: QuadForm

    def check(self) -> bool:
        columns = list(zip(*self.basis_change))
        return restrict(self.source, columns).gram == QuadForm.diagonal(self.coeffs).gram


def diagonalize(f: QuadForm) -> DiagForm:
    """Exact congruence diagonalization; raises Degenerate on singular input."""
    n = f.dim
    g = [list(row) for row in f.gram]
    b = [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]

    def add_col(dst: int, src: int, c: Fraction):
        # column op on g (both sides, keeping symmetry) and on b
        for r in range(n):
            g[r][dst] += c * g[r][src]
        for r in range(n):
            g[dst][r] += c * g[src][r]
        for r in range(n):
            b[r][dst] += c * b[r][src]

    def swap_col(i: int, j: int):
        for r in range(n):
            g[r][i], g[r][j] = g[r][j], g[r][i]
        for r in range(n):
            g[i][r], g[j][r] = g[j][r], g[i][r]
        for r in range(n):
            b[r][i], b[r][j] = b[r][j], b[r][i]

    for k in range(n):
        if g[k][k] == 0:
            piv = next((i for i in range(k + 1, n) if g[i][i] != 0), None)
            if piv is not None:
                swap_col(k, piv)
            else:
                # all remaining diagonal entries vanish; use an off-diagonal one
                pair = next(
                    (
                        (i, j)
                        for i in range(k, n)
                        for j in range(i + 1, n)
                        if g[i][j] != 0
                    ),
                    None,
                )
                if pair is None:
                    raise Degenerate("form is singular")
                i, j = pair
                add_col(i, j, Fraction(1))  # now g[i][i] = 2*g[i][j] != 0
                if i != k:
                    swap_col(k, i)
        for i in range(k + 1, n):
            if g[k][i] != 0:
                add_col(i, k, -g[k][i] / g[k][k])
    coeffs = tuple(g[i][i] for i in range(n))
    if any(c == 0 for c in coeffs):
        raise Degenerate("form is singular")
    return DiagForm(coeffs, tuple(tuple(row) for row in b), f)


def signature(f: QuadForm) -> tuple[int, int]:
    """(positive, negative) inertia indices of a nondegenerate form."""
    cs = diagonalize(f).coeffs
    pos = sum(1 for c in cs if c > 0)
    return pos, len(cs) - pos


def _square_class(x: Union[int, Fraction], p: int) -> tuple[int, int]:
    """The class of a nonzero x in Q_p^x / squares, for a proven prime p,
    without factoring: the parity of its valuation, and its unit part mod 8
    at p = 2 or that part's Euler residue at odd p.  x is a square in Q_p
    iff its class is (0, 1)."""
    alpha, u = _two_adic_split(x, p)
    return alpha % 2, u % 8 if p == 2 else pow(u, (p - 1) // 2, p)


def _local_isotropic(n: int, d: Fraction, e: int, v: FinitePrime) -> bool:
    """Whether a form of dimension n, discriminant d and Hasse invariant e at
    the finite place v is isotropic over Q_v (Serre, A Course in Arithmetic
    IV Thm 6): n = 2: -d is a square in Q_v; n = 3: e = (-1, -d)_v; n = 4:
    d is not a square in Q_v or e = (-1, -1)_v; n >= 5: always."""
    if n == 2:
        return _square_class(-d, v.p) == (0, 1)
    if n == 3:
        return e == hilbert_symbol(-1, -d, v)
    if n == 4:
        return _square_class(d, v.p) != (0, 1) or e == hilbert_symbol(-1, -1, v)
    return n >= 5


def is_isotropic(f: QuadForm, place: Union[Place, Literal["global"]]) -> bool:
    """Isotropy over a completion, or over Q ("global", by Hasse-Minkowski),
    from the invariants of a diagonalization."""
    cs = diagonalize(f).coeffs
    if place == "global":
        return _isotropic(*_invariants(cs))
    if isinstance(place, RealPlace):
        return 0 < sum(1 for c in cs if c > 0) < len(cs)
    n, _, d, eps = _invariants(cs, (place.p,))
    # eps omits a prime dividing no coefficient, where every symbol is 1
    return _local_isotropic(n, d, eps.get(place, 1), place)


def _invariants(
    cs: Sequence, primes: Optional[Iterable[int]] = None
) -> tuple[int, int, Fraction, dict[FinitePrime, int]]:
    """(n, p, d, eps) of the diagonal form sum cs_i x_i^2: dimension,
    positive index of inertia, discriminant and the Hasse invariants
    eps_v = prod_{i<j} (c_i, c_j)_v, at 2 and the primes dividing a
    coefficient, taken from `primes` (any set of primes holding them) or
    else found by factoring.  Elsewhere every coefficient is a unit, and a
    unit form of dimension >= 3 is isotropic."""
    ms = [Fraction(c).numerator * Fraction(c).denominator for c in cs]
    if primes is None:
        primes = {p for m in ms for p in factorize(m)}
    eps = {FinitePrime(p): 1 for p in {2, *primes} if p == 2 or any(m % p == 0 for m in ms)}
    d = cs[0] if cs else Fraction(1)
    for c in cs[1:]:
        # eps_v = prod_j (c_1 ... c_{j-1}, c_j)_v by bilinearity
        for v in eps:
            eps[v] *= hilbert_symbol(d, c, v)
        d *= c
    return len(cs), sum(1 for c in cs if c > 0), d, eps


def _isotropic(n: int, pos: int, d: Fraction, eps: dict[FinitePrime, int]) -> bool:
    """Hasse-Minkowski on the invariants of _invariants: indefinite, and
    for n = 2 -d a rational square, else isotropic at each place of eps
    (_local_isotropic)."""
    if n < 2 or not 0 < pos < n:
        return False
    if n == 2:
        return is_rational_square(-d)
    return all(_local_isotropic(n, d, e, v) for v, e in eps.items())


class WittDecomposition(Value):
    """hyperbolic_pairs are (u, v) with q(u)=q(v)=0, B(u,v)=1, in source coords.
    anisotropic_basis spans the orthogonal complement; anisotropic_coeffs is a
    diagonalization of the restricted form."""

    source: QuadForm
    hyperbolic_pairs: tuple[tuple[Vector, Vector], ...]
    anisotropic_basis: tuple[Vector, ...]
    anisotropic_coeffs: tuple[Fraction, ...]

    @property
    def witt_index(self) -> int:
        return len(self.hyperbolic_pairs)

    def check(self) -> bool:
        f = self.source
        vecs = [w for pair in self.hyperbolic_pairs for w in pair]
        k = len(vecs)
        vecs += self.anisotropic_basis
        n = f.dim
        if len(vecs) != n or len(rref(vecs)[1]) < n:
            return False
        g = restrict(f, vecs).gram
        # each hyperbolic pair (rows 2i, 2i + 1) is isotropic with B(u, v) =
        # 1 and orthogonal to every other vector; tail vectors need not be
        # pairwise orthogonal (the coefficients record a diagonalization of
        # the restricted form, not of this basis)
        for i in range(k):
            if any(g[i][j] != int(j == i ^ 1) for j in range(n)):
                return False
        if k == n:
            return True
        # witt_decompose records the diagonalization of this very block
        cs = diagonalize(QuadForm(tuple(row[k:] for row in g[k:]))).coeffs
        return cs == tuple(self.anisotropic_coeffs) and not _isotropic(*_invariants(cs))


# values k tried for the splitting value t = +-f k of a form of dimension
# >= 4 (about 4 us each on a form with 15 primes on a 2-vCPU VM, so some
# 2 s for the whole budget)
SPLIT_VALUE_BUDGET = 2**19


def find_isotropic_vector(f: QuadForm) -> Optional[Vector]:
    """A primitive integer vector with q(v) = 0, or None if the form is
    globally anisotropic.  The vector is built on the squarefree classes of
    a diagonalization (_isotropic_diag) and carried back through its basis;
    each coefficient is factored once, and its primes are passed down."""
    d = diagonalize(f)
    cs, primes = [], {2}  # 2 may divide a splitting value t
    for c in d.coeffs:
        ps = [p for p, e in factorize(c.numerator * c.denominator).items() if e % 2]
        cs.append(math.prod(ps) if c > 0 else -math.prod(ps))
        primes.update(ps)
    if not _isotropic(*_invariants(cs, primes)):
        return None
    # c_i = cs_i w_i^2, so x_i = v_i / w_i is a zero of sum c_i x_i^2
    v = _isotropic_diag(cs, primes)
    xs = [x / rational_sqrt(c / s) for x, c, s in zip(v, d.coeffs, cs)]
    n = f.dim
    out = tuple(
        sum(d.basis_change[i][j] * xs[j] for j in range(n)) for i in range(n)
    )
    assert f.value(out) == 0 and any(x != 0 for x in out)
    return primitive(out)


def _isotropic_diag(cs: list[int], primes: set[int]) -> list[int]:
    """A nonzero integer zero of sum cs_i x_i^2, for the squarefree classes
    cs_i of an isotropic form whose primes all lie in `primes`: e_i + e_j
    for a pair cs_i = -cs_j, Legendre descent in dimension 3, and otherwise
    a splitting (_split)."""
    n = len(cs)
    for i, c in enumerate(cs):
        if -c in cs[i + 1 :]:
            j = cs.index(-c, i + 1)
            return [int(k in (i, j)) for k in range(n)]
    assert n >= 3, "an isotropic binary form has a pair c, -c"
    if n == 3:
        return list(_ternary(*cs, primes))
    return _split(cs, primes)


def _split(cs: list[int], primes: set[int]) -> list[int]:
    """A zero of the form q_1 + q_2, q_1 = <cs_1, cs_2>, dimension >= 4 and
    no pair c, -c: a zero of q_2 if it has one, or else zeros (x, y, z) of
    <cs_1, cs_2, -t> and (w, z') of q_2 + <t> glued as (x z', y z', w z),
    for the first squarefree t = +-f k, k = 1, 2, ... prime to f, with both
    isotropic.  Such a t exists: q_1(x, y) for any zero (x, y, w) of the
    form (the splitting step of Hasse-Minkowski; Cassels, Rational
    Quadratic Forms, ch. 6).

    The classes of t that make both isotropic are found once from the
    invariants of q_1 and q_2: its signs, and its square classes at 2 and
    at each prime p of a coefficient; f is the product of the p at which
    every such class has odd valuation.  A candidate t is looked up there,
    and at each prime q of k outside those places, where every coefficient
    is a unit, <cs_1, cs_2, -t> is isotropic iff -cs_1 cs_2 is a square mod
    q, and q_2 + <t> iff -cs_3 cs_4 is (dimension 4) or always (q_2 holds a
    unit ternary).  At any other prime both are unit forms of dimension
    >= 3, so isotropic.  k is at most SPLIT_VALUE_BUDGET."""
    _, pos1, d1, eps1 = _invariants(cs[:2], primes)
    n2, pos2, d2, eps2 = _invariants(cs[2:], primes)
    if _isotropic(n2, pos2, d2, eps2):
        return [0, 0] + _isotropic_diag(cs[2:], primes)

    def local(t: int, v: FinitePrime) -> bool:
        # adding <c> to a form of discriminant d multiplies eps_v by (d, c)_v
        e1 = eps1.get(v, 1) * hilbert_symbol(d1, -t, v)
        e2 = eps2.get(v, 1) * hilbert_symbol(d2, t, v)
        return _local_isotropic(3, -d1 * t, e1, v) and _local_isotropic(n2 + 1, d2 * t, e2, v)

    signs = {s for s in (1, -1) if 0 < pos1 + (s < 0) < 3 and 0 < pos2 + (s > 0) <= n2}
    classes = {
        v.p: {
            _square_class(t, v.p)
            for u in _unit_classes(v.p)
            for t in (u, u * v.p)
            if local(t, v)
        }
        for v in eps1.keys() | eps2.keys()
    }
    f = math.prod(p for p, ok in classes.items() if all(odd for odd, _ in ok))
    away = [-cs[0] * cs[1]] + ([-cs[2] * cs[3]] if n2 == 2 else [])
    for k in range(1, SPLIT_VALUE_BUDGET + 1):
        if math.gcd(k, f) != 1:
            continue
        for t in (f * k, -f * k):
            if (1 if t > 0 else -1) not in signs or not all(
                _square_class(t, p) in ok for p, ok in classes.items()
            ):
                continue
            ks = factorize(k)  # only for a t that every place admits
            if any(e > 1 for e in ks.values()) or any(
                pow(m, (q - 1) // 2, q) != 1 for q in ks if q not in classes for m in away
            ):
                continue
            with_t = primes | set(ks)
            x, y, z = _isotropic_diag(cs[:2] + [-t], with_t)
            *w, z2 = _isotropic_diag(cs[2:] + [t], with_t)
            return [x * z2, y * z2] + [wi * z for wi in w]
    raise SearchExhausted(
        f"no splitting value t = +-{f} k with 0 < k <= SPLIT_VALUE_BUDGET ="
        f" {SPLIT_VALUE_BUDGET}"
    )


def _unit_classes(p: int) -> tuple[int, ...]:
    """Representatives of the square classes of p-adic units: 1 and the
    least quadratic non-residue for odd p."""
    if p == 2:
        return (1, 3, 5, 7)
    return (1, next(u for u in range(2, p) if pow(u, (p - 1) // 2, p) == p - 1))


def _ternary(a: int, b: int, c: int, primes: set[int]) -> tuple[int, int, int]:
    """A primitive zero of a x^2 + b y^2 + c z^2 for squarefree a, b, c of
    an isotropic form, whose primes all lie in `primes`, within Holzer's bound when a, b, c are pairwise
    coprime: |x| <= sqrt|bc|, |y| <= sqrt|ac|, |z| <= sqrt|ab|."""
    cs, scale = [a, b, c], [Fraction(1)] * 3
    i = 0
    while i < 3:
        # p | c_i, c_j: zeros of <c_i, c_j, c_k> are those of
        # <c_i/g, c_j/g, g c_k/h^2> with x_i, x_j scaled by g, x_k by h
        j, k = (i + 1) % 3, (i + 2) % 3
        g = math.gcd(cs[i], cs[j])
        if g == 1:
            i += 1
            continue
        h = math.gcd(g, cs[k])
        cs[i], cs[j], cs[k] = cs[i] // g, cs[j] // g, cs[k] * g // (h * h)
        scale[i], scale[j], scale[k] = scale[i] / g, scale[j] / g, scale[k] / h
        i = 0
    # order as a, b of one sign and c of the other, then make a, b > 0
    k = next(k for k in range(3) if sum(cs[m] * cs[k] > 0 for m in range(3)) == 1)
    order = [m for m in range(3) if m != k] + [k]
    sign = 1 if cs[order[0]] > 0 else -1
    pa, pb, pc = (sign * cs[m] for m in order)
    x, y, z = _legendre(-pa * pc, -pb * pc, primes)
    # (-ac) x^2 + (-bc) y^2 = z^2 gives a (cx)^2 + b (cy)^2 + c z^2 = 0
    sol = _holzer(pa, pb, pc, *_primitive3(pc * x, pc * y, z))
    out = [Fraction(0)] * 3
    for m, v in zip(order, sol):
        out[m] = v * scale[m]
    den = math.lcm(*(v.denominator for v in out))
    return _primitive3(*(int(v * den) for v in out))


def _primitive3(x: int, y: int, z: int) -> tuple[int, int, int]:
    g = math.gcd(x, y, z)
    return x // g, y // g, z // g


def _legendre(a: int, b: int, primes: set[int]) -> tuple[int, int, int]:
    """(x, y, z) != 0 with a x^2 + b y^2 = z^2, for squarefree a, b with a
    solution whose primes all lie in `primes`, by Legendre's descent: with |a| <= |b| and r^2 = a (mod b),
    r^2 - a = b b' m^2 with |b'| < |b|, and a solution of (a, b') gives one
    of (a, b) through the norm form of Q(sqrt a)."""
    if a == 1:
        return 1, 0, 1
    if b == 1:
        return 0, 1, 1
    if abs(a) > abs(b):
        y, x, z = _legendre(b, a, primes)
        return x, y, z
    r = _sqrt_mod(a, b, primes)
    k = (r * r - a) // b
    ks = factorize(k)  # new primes: the one factorization of a step
    b2 = math.prod(p for p, e in ks.items() if e % 2) * (1 if k > 0 else -1)
    x, y, z = _legendre(a, b2, primes | set(ks))
    # b (b2 m y)^2 = N(z + x sqrt a) N(r + sqrt a) with k = b2 m^2
    return z + r * x, b2 * math.isqrt(k // b2) * y, r * z + a * x


def _sqrt_mod(a: int, m: int, primes: set[int]) -> int:
    """r with r^2 = a (mod m) and |r| <= |m|/2, for squarefree m, whose
    primes all lie in `primes`, and a a square modulo each of them:
    Tonelli-Shanks per prime, then CRT."""
    m = abs(m)
    r, mod = 0, 1
    for p in (p for p in primes if m % p == 0):
        s = _sqrt_mod_prime(a, p)
        r += mod * ((s - r) * pow(mod, -1, p) % p)
        mod *= p
    assert mod == m, "a prime of m is missing from primes"
    r %= m
    return r - m if 2 * r > m else r


def _sqrt_mod_prime(a: int, p: int) -> int:
    """A square root of a modulo the prime p, by Tonelli-Shanks."""
    a %= p
    if a == 0 or p == 2:
        return a
    assert pow(a, (p - 1) // 2, p) == 1, "not a square modulo p"
    q, s = p - 1, 0
    while q % 2 == 0:
        q, s = q // 2, s + 1
    c, t, r = pow(_unit_classes(p)[1], q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2, i = t2 * t2 % p, i + 1
        b = pow(c, 1 << (s - i - 1), p)
        s, c, t, r = i, b * b % p, t * b * b % p, r * b % p
    return r


def _holzer(a: int, b: int, c: int, x: int, y: int, z: int) -> tuple[int, int, int]:
    """Reduce a primitive zero of a x^2 + b y^2 + c z^2 (a, b > 0 > c,
    pairwise coprime and squarefree) towards |z| <= sqrt(ab) (Mordell's
    descent; Cremona-Rusin, Math. Comp. 72 (2003), section 2).  For W =
    (u, v, 0) with (u, v) = lambda (x, y) (mod z), the second zero on the
    line through P and W is (Q(W) P - 2 B(P, W) W) / z^2, with third
    coordinate (a u^2 + b v^2) / z; W runs over short vectors of that
    lattice."""

    def dot(p, q):
        return a * p[0] * q[0] + b * p[1] * q[1]

    while z * z > a * b:
        e1, e2 = (1, y * pow(x, -1, abs(z)) % abs(z)), (0, abs(z))
        while True:  # Lagrange-Gauss reduction for a u^2 + b v^2
            if dot(e1, e1) > dot(e2, e2):
                e1, e2 = e2, e1
            mu = (2 * dot(e1, e2) + dot(e1, e1)) // (2 * dot(e1, e1))
            if mu == 0:
                break
            e2 = (e2[0] - mu * e1[0], e2[1] - mu * e1[1])
        best = (x, y, z)
        for u, v in (e1, e2, (e1[0] + e2[0], e1[1] + e2[1]), (e1[0] - e2[0], e1[1] - e2[1])):
            q = (a * u * u + b * v * v) // z
            m2 = 2 * (a * x * u + b * y * v) // z
            cand = _primitive3((q * x - m2 * u) // z, (q * y - m2 * v) // z, q)
            if abs(cand[2]) < abs(best[2]):
                best = cand
        if best[2] == z:
            break
        x, y, z = best
    return x, y, z


def witt_decompose(f: QuadForm) -> WittDecomposition:
    """Split off hyperbolic planes until the rest is anisotropic."""
    n = f.dim
    basis: list[Vector] = [
        tuple(Fraction(1) if i == j else Fraction(0) for j in range(n)) for i in range(n)
    ]
    pairs: list[tuple[Vector, Vector]] = []
    while len(basis) >= 2:
        split = split_hyperbolic_plane(f, basis)
        if split is None:
            break
        u, v, basis = split
        pairs.append((u, v))
    tail_coeffs: tuple[Fraction, ...] = ()
    if basis:
        tail_coeffs = diagonalize(restrict(f, basis)).coeffs
    return WittDecomposition(f, tuple(pairs), tuple(basis), tail_coeffs)


def restrict(f: QuadForm, vectors: Sequence[Vector]) -> QuadForm:
    """The form f on the span of `vectors`, in that basis: the congruence
    B^T N B / den over the integers, each vector cleared once and N v_j
    formed once per vector."""
    rows, den = f.integral
    cleared = [_cleared(v) for v in vectors]
    images = [[sum(n * a[j] for j, n in row) for row in rows] for a, _ in cleared]
    g = [[None] * len(vectors) for _ in vectors]
    for i, (a, da) in enumerate(cleared):
        for j in range(i + 1):
            total = sum(x * y for x, y in zip(a, images[j]) if x)
            g[i][j] = g[j][i] = Fraction(total, den * da * cleared[j][1])
    return QuadForm(tuple(map(tuple, g)))


def combine(coords: Sequence, vectors: Sequence[Vector]) -> Vector:
    """sum coords[i] * vectors[i]."""
    return tuple(
        sum(c * Fraction(w[j]) for c, w in zip(coords, vectors))
        for j in range(len(vectors[0]))
    )


def split_hyperbolic_plane(
    f: QuadForm, basis: Sequence[Vector]
) -> Optional[tuple[Vector, Vector, list[Vector]]]:
    """(u, v, rest): a hyperbolic pair q(u) = q(v) = 0, B(u, v) = 1 in the
    span of the independent `basis`, and len(basis) - 2 independent vectors
    spanning its orthogonal complement there; None if f is anisotropic on the
    span.  u comes from find_isotropic_vector, v from the first basis vector
    that u pairs with, rest from the basis projected off the plane."""
    u_sub = find_isotropic_vector(restrict(f, basis))
    if u_sub is None:
        return None
    u = combine(u_sub, basis)
    # find v with B(u, v) != 0 among the basis, deterministically
    mate = next(w for w in basis if f.bilinear(u, w) != 0)
    bu = f.bilinear(u, mate)
    v1 = tuple(x / bu for x in mate)
    qv = f.value(v1)
    v = tuple(a - qv / 2 * b for a, b in zip(v1, u))
    assert f.value(u) == 0 and f.value(v) == 0 and f.bilinear(u, v) == 1
    projected: list[Vector] = []
    for w in basis:
        wv, wu = f.bilinear(w, v), f.bilinear(w, u)
        w2 = tuple(x - wv * a - wu * b for x, a, b in zip(w, u, v))
        if any(x != 0 for x in w2):
            projected.append(w2)
    return u, v, _independent_subset(projected, len(basis) - 2)


def _independent_subset(vectors: list[Vector], k: int) -> list[Vector]:
    """The first k vectors (in given order) independent of those before
    them: the pivot columns of the matrix whose columns are the vectors."""
    return [vectors[c] for c in rref(list(zip(*vectors)))[1][:k]]


def witt_index(f: QuadForm) -> int:
    """Witt index over Q, read off the invariants with no vector search: an
    isotropic form is H + f' with H the hyperbolic plane, where f' has
    dimension n - 2, signature (p - 1, q - 1), discriminant -d and Hasse
    invariants eps'_v = eps_v (-1, -d)_v; split planes while isotropic."""
    n, pos, d, eps = _invariants(diagonalize(f).coeffs)
    index = 0
    while _isotropic(n, pos, d, eps):
        index += 1
        n, pos, d = n - 2, pos - 1, -d
        eps = {v: e * hilbert_symbol(-1, d, v) for v, e in eps.items()}
    return index


class RepresentedValue(Value):
    value: Fraction
    vector: Vector  # in the coordinates of the diagonal coefficients


def represent_constrained(coeffs: Sequence) -> RepresentedValue:
    """A positive value of the diagonal form sum c_i x_i^2 that is not a
    rational square, read off the coefficients:

    1. the least positive c_i that is not a square (the last one on ties),
       at x = e_i;
    2. else two positive squares c_i = s^2, c_j = r^2 give 2 at x_i = 1/s,
       x_j = 1/r;
    3. else one positive square c_i = s^2 and a negative c_j = -p/q in
       lowest terms (the one of least pq) give k^2 - pq at x_i = k/s,
       x_j = q, with k = pq + 1.  That value lies strictly between (pq)^2
       and k^2, so it is not a square.

    Raises ValueError when none applies: the form has no positive entry, or
    its one positive entry is a square and it has no negative one.
    """
    cs = [Fraction(c) for c in coeffs]
    pos = [i for i, c in enumerate(cs) if c > 0]
    neg = [i for i, c in enumerate(cs) if c < 0]
    nonsquare = [i for i in pos if not is_rational_square(cs[i])]
    x = [Fraction(0)] * len(cs)
    if nonsquare:
        x[min(reversed(nonsquare), key=cs.__getitem__)] = Fraction(1)
    elif len(pos) >= 2:
        for i in pos[:2]:
            x[i] = 1 / rational_sqrt(cs[i])
    elif pos and neg:
        i = pos[0]
        j = min(neg, key=lambda t: -cs[t].numerator * cs[t].denominator)
        pq = -cs[j].numerator * cs[j].denominator
        x[i] = (pq + 1) / rational_sqrt(cs[i])
        x[j] = Fraction(cs[j].denominator)
    else:
        raise ValueError(
            "no positive nonsquare value read off the coefficients: no entry"
            " is positive, or the one positive entry is a square and none is"
            " negative"
        )
    value = sum(c * t * t for c, t in zip(cs, x))
    assert value > 0 and not is_rational_square(value)
    return RepresentedValue(value, tuple(x))
