"""Rank invariants of rational quadratic forms, computed apart from almin.

Nothing here imports almin.  The Witt index comes from the classical
invariants alone (Serre, *A Course in Arithmetic*, Ch. IV): dimension,
discriminant, signature and the Hasse invariants eps_p = prod_{i<j} (a_i, a_j)_p.
A hyperbolic plane is split off by d -> -d, eps_p -> eps_p * (-1, -d)_p and
(pos, neg) -> (pos - 1, neg - 1), and the form is tested for isotropy again.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

REAL = -1  # the place at infinity; finite places are primes


def prime_factors(n: int) -> list[int]:
    """Distinct prime factors of |n| by trial division (inputs are small)."""
    n = abs(n)
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1 if p == 2 else 2
    if n > 1:
        out.append(n)
    return out


def square_class(x: Fraction) -> int:
    """The squarefree integer s with x = s * (rational square)."""
    x = Fraction(x)
    if x == 0:
        raise ValueError("zero has no square class")
    m = abs(x.numerator * x.denominator)
    s = 1
    for p in prime_factors(m):
        e = 0
        while m % p == 0:
            m //= p
            e += 1
        if e % 2:
            s *= p
    return s if x > 0 else -s


def _split(a: int, p: int) -> tuple[int, int]:
    """a = p^v * u with p not dividing u."""
    v = 0
    while a % p == 0:
        a //= p
        v += 1
    return v, a


def _legendre(u: int, p: int) -> int:
    r = pow(u % p, (p - 1) // 2, p)
    return -1 if r == p - 1 else 1


def hilbert(a: int, b: int, p: int) -> int:
    """The Hilbert symbol (a, b)_p of nonzero integers; p = REAL for infinity
    (Serre, Ch. III Thm 1)."""
    if p == REAL:
        return -1 if a < 0 and b < 0 else 1
    alpha, u = _split(a, p)
    beta, v = _split(b, p)
    if p == 2:
        eps = lambda x: ((x - 1) // 2) % 2  # noqa: E731
        omega = lambda x: ((x * x - 1) // 8) % 2  # noqa: E731
        e = eps(u) * eps(v) + alpha * omega(v) + beta * omega(u)
        return -1 if e % 2 else 1
    sign = -1 if (alpha * beta * ((p - 1) // 2)) % 2 else 1
    if beta % 2:
        sign *= _legendre(u, p)
    if alpha % 2:
        sign *= _legendre(v, p)
    return sign


def is_local_square(d: int, p: int) -> bool:
    """Whether the squarefree integer d is a square in Q_p (or in R)."""
    if p == REAL:
        return d > 0
    if d % p == 0:
        return False
    if p == 2:
        return d % 8 == 1
    return _legendre(d, p) == 1


def pivots(gram) -> list[Fraction]:
    """Diagonal entries of an LDL^T congruence diagonalization.

    A zero pivot is repaired by swapping in a later nonzero diagonal entry or,
    failing that, by adding a later basis vector with a nonzero off-diagonal
    entry.  Raises ValueError on a singular form."""
    g = [[Fraction(x) for x in row] for row in gram]
    n = len(g)
    out = []
    for k in range(n):
        if g[k][k] == 0:
            j = next((j for j in range(k + 1, n) if g[j][j] != 0), None)
            if j is not None:
                g[k], g[j] = g[j], g[k]
                for row in g:
                    row[k], row[j] = row[j], row[k]
            else:
                j = next((j for j in range(k + 1, n) if g[k][j] != 0), None)
                if j is None:
                    raise ValueError("singular form")
                for i in range(n):  # x_k <- x_k + x_j on both sides
                    g[i][k] += g[i][j]
                for i in range(n):
                    g[k][i] += g[j][i]
        piv = g[k][k]
        for i in range(k + 1, n):
            c = g[i][k] / piv
            if c:
                for t in range(k, n):
                    g[i][t] -= c * g[k][t]
        for i in range(k + 1, n):
            g[k][i] = Fraction(0)
        out.append(piv)
    return out


def leading_minors_nonzero(gram) -> bool:
    """Whether LDL^T runs without a single pivot repair, so that its pivots
    are the ratios of consecutive leading principal minors."""
    g = [[Fraction(x) for x in row] for row in gram]
    n = len(g)
    for k in range(n):
        if g[k][k] == 0:
            return False
        for i in range(k + 1, n):
            c = g[i][k] / g[k][k]
            for t in range(k, n):
                g[i][t] -= c * g[k][t]
    return True


@dataclass(frozen=True)
class Invariants:
    dim: int
    disc: int  # square class of the determinant
    pos: int
    neg: int
    hasse: dict  # prime -> eps_p, over every prime where anything can happen

    @property
    def real_rank(self) -> int:
        return min(self.pos, self.neg)


def invariants(classes: list[int]) -> Invariants:
    """Invariants of the diagonal form <a_1, ..., a_n> given by square classes."""
    d = 1
    for a in classes:
        d = square_class(Fraction(d * a))
    primes = {2}
    for a in classes:
        primes.update(prime_factors(a))
    hasse = {}
    for p in sorted(primes):
        e = 1
        for i in range(len(classes)):
            for j in range(i + 1, len(classes)):
                e *= hilbert(classes[i], classes[j], p)
        hasse[p] = e
    pos = sum(1 for a in classes if a > 0)
    return Invariants(len(classes), d, pos, len(classes) - pos, hasse)


def _isotropic_at(n: int, d: int, eps: int, p: int) -> bool:
    """Serre Ch. IV Thm 6, at a finite prime p."""
    if n <= 1:
        return False
    if n == 2:
        return is_local_square(-d, p)
    if n == 3:
        return hilbert(-1, -d, p) == eps
    if n == 4:
        return not is_local_square(d, p) or eps == hilbert(-1, -1, p)
    return True


def is_isotropic(inv: Invariants) -> bool:
    """Hasse-Minkowski: isotropic over Q iff isotropic at every place."""
    n = inv.dim
    if n <= 1 or inv.pos == 0 or inv.neg == 0:
        return False
    if n == 2:
        return square_class(Fraction(-inv.disc)) == 1
    # at an odd prime outside `hasse` every class is a unit, and a unit form
    # of dimension >= 3 is isotropic there
    return all(_isotropic_at(n, inv.disc, e, p) for p, e in inv.hasse.items())


def split_hyperbolic_plane(inv: Invariants) -> Invariants:
    """Invariants of q' where q = H + q' and H is the hyperbolic plane."""
    d = square_class(Fraction(-inv.disc))
    hasse = {p: e * hilbert(-1, d, p) for p, e in inv.hasse.items()}
    return Invariants(inv.dim - 2, d, inv.pos - 1, inv.neg - 1, hasse)


def witt_index(inv: Invariants) -> int:
    w = 0
    while is_isotropic(inv):
        w += 1
        inv = split_hyperbolic_plane(inv)
    return w


@dataclass(frozen=True)
class SoPrediction:
    q_rank: int
    real_rank: int
    verdict: str  # the tag the paper's classification gives


def predict_so(gram) -> SoPrediction:
    """Ranks of SO(q) and the verdict the classification assigns to it.

    dim 3: real rank <= 1, not applicable.  dim 4: square discriminant gives
    A1 x A1 (not almost simple); isotropic with non-square d is
    Res_{Q(sqrt d)/Q} SL2, minimal when d > 0 (case iv) and of real rank 1
    otherwise; the anisotropic case is outside the model.  dim >= 5:
    not minimal as soon as both ranks allow it."""
    inv = invariants([square_class(a) for a in pivots(gram)])
    q = witt_index(inv)
    r = inv.real_rank
    n = inv.dim
    if n <= 3:
        verdict = "not_applicable"
    elif n == 4:
        if inv.disc == 1:
            verdict = "not_applicable"
        elif q == 0:
            verdict = "unsupported"
        else:
            verdict = "minimal" if inv.disc > 0 else "not_applicable"
    else:
        verdict = "not_minimal" if q >= 1 and r >= 2 else "not_applicable"
    return SoPrediction(q, r, verdict)


def gram_of(spec: dict) -> list[list[Fraction]]:
    """The Gram matrix of an `so` specification document."""
    if "diagonal" in spec:
        cs = [Fraction(x) for x in spec["diagonal"]]
        return [[cs[i] if i == j else Fraction(0) for j in range(len(cs))] for i in range(len(cs))]
    return [[Fraction(x) for x in row] for row in spec["gram"]]
