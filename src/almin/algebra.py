"""Quaternion algebras over the rationals (and their quadratic extensions)
with exact arithmetic: ramification, splitting fields, hermitian and
skew-hermitian diagonal forms, and the constructions that reduce unitary
groups over quaternion algebras to orthogonal or field data.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence, Union

from . import numfield, polys
from .arith import (
    REAL,
    Place,
    ZeroInput,
    factorize,
    hilbert_symbol,
    is_rational_square,
    rational_sqrt,
    relevant_places,
    squarefree_part,
)
from .numfield import (
    NumberFieldCert,
    QuadElement,
    QuadraticField,
    is_square_in_quadfield,
)
from .linalg import primitive, rref
from .quadform import QuadForm
from .value import Value

Scalar = Union[Fraction, QuadElement]


class InfeasibleSign(ValueError):
    pass


class NotSymmetric(ValueError):
    pass


class NotInFprime(RuntimeError):
    """a3^{-1} a4 fails to centralize alpha -- impossible by construction."""


class DegenerateTower(ValueError):
    """-c is already a square in F', so no quartic tower exists."""


class Degenerate(ValueError):
    pass


class QuaternionAlgebra(Value):
    """(a, b) over Q: i^2 = a, j^2 = b, ij = -ji."""

    a: Fraction
    b: Fraction

    def __post_init__(self):
        if self.a == 0 or self.b == 0:
            raise ZeroInput("quaternion algebra parameters must be nonzero")
        object.__setattr__(self, "a", Fraction(self.a))
        object.__setattr__(self, "b", Fraction(self.b))

    def element(self, t, x=0, y=0, z=0) -> "QuatElement":
        return QuatElement(self, *(_as_scalar(v) for v in (t, x, y, z)))

    def one(self) -> "QuatElement":
        return self.element(1)

    def gen_i(self) -> "QuatElement":
        return self.element(0, 1)

    def gen_j(self) -> "QuatElement":
        return self.element(0, 0, 1)

    def gen_k(self) -> "QuatElement":
        return self.element(0, 0, 0, 1)


def _as_scalar(v) -> Scalar:
    if isinstance(v, QuadElement):
        return v
    return Fraction(v)


def _conj_scalar(v: Scalar) -> Scalar:
    """Identity on rationals, field conjugation on quadratic elements."""
    if isinstance(v, QuadElement):
        return v.conj()
    return v


def _is_zero_scalar(v: Scalar) -> bool:
    if isinstance(v, QuadElement):
        return v.is_zero()
    return v == 0


class QuatElement(Value):
    """t + x i + y j + z ij with coefficients rational or in a quadratic
    field (the latter realizes the scalar extension D tensor L)."""

    alg: QuaternionAlgebra
    t: Scalar
    x: Scalar
    y: Scalar
    z: Scalar

    def _coerce(self, o) -> "QuatElement":
        if isinstance(o, QuatElement):
            if o.alg != self.alg:
                raise ValueError("mixed quaternion algebras")
            return o
        return QuatElement(self.alg, _as_scalar(o), *( _as_scalar(0),)*3)

    def __add__(self, o):
        o = self._coerce(o)
        return QuatElement(self.alg, self.t + o.t, self.x + o.x, self.y + o.y, self.z + o.z)

    def __radd__(self, o):
        return self + o

    def __neg__(self):
        return QuatElement(self.alg, -self.t, -self.x, -self.y, -self.z)

    def __sub__(self, o):
        return self + (-self._coerce(o))

    def __rsub__(self, o):
        return (-self) + o

    def __mul__(self, o):
        o = self._coerce(o)
        a, b = self.alg.a, self.alg.b
        t1, x1, y1, z1 = self.t, self.x, self.y, self.z
        t2, x2, y2, z2 = o.t, o.x, o.y, o.z
        return QuatElement(
            self.alg,
            t1 * t2 + a * x1 * x2 + b * y1 * y2 - a * b * z1 * z2,
            t1 * x2 + x1 * t2 - b * y1 * z2 + b * z1 * y2,
            t1 * y2 + y1 * t2 + a * x1 * z2 - a * z1 * x2,
            t1 * z2 + z1 * t2 + x1 * y2 - y1 * x2,
        )

    def __rmul__(self, o):
        return self._coerce(o) * self

    def conj(self) -> "QuatElement":
        """Canonical (quaternion) involution: negates the pure part."""
        return QuatElement(self.alg, self.t, -self.x, -self.y, -self.z)

    def nrd(self) -> Scalar:
        a, b = self.alg.a, self.alg.b
        return self.t * self.t - a * self.x * self.x - b * self.y * self.y + a * b * self.z * self.z

    def trd(self) -> Scalar:
        return 2 * self.t if not isinstance(self.t, QuadElement) else self.t + self.t

    def is_zero(self) -> bool:
        return all(_is_zero_scalar(v) for v in (self.t, self.x, self.y, self.z))

    def is_pure(self) -> bool:
        return _is_zero_scalar(self.t)

    def is_central(self) -> bool:
        return all(_is_zero_scalar(v) for v in (self.x, self.y, self.z))

    def inverse(self) -> "QuatElement":
        n = self.nrd()
        if _is_zero_scalar(n):
            raise ZeroDivisionError("element has reduced norm zero")
        c = self.conj()
        if isinstance(n, QuadElement):
            inv = n.inverse()
        else:
            inv = Fraction(1) / n
        return QuatElement(self.alg, c.t * inv, c.x * inv, c.y * inv, c.z * inv)

    def field_conj(self) -> "QuatElement":
        """Coefficientwise quadratic-field conjugation (identity on rationals)."""
        return QuatElement(
            self.alg,
            _conj_scalar(self.t),
            _conj_scalar(self.x),
            _conj_scalar(self.y),
            _conj_scalar(self.z),
        )

    def __eq__(self, o):
        if not isinstance(o, QuatElement):
            o = self._coerce(o)
        return (
            self.alg == o.alg
            and (self - o).is_zero()
        )

    def __hash__(self):
        return hash((self.alg, self.t, self.x, self.y, self.z))


def ramification_set(d: QuaternionAlgebra) -> frozenset[Place]:
    """Places of Q where (a,b) is a division algebra; always even in size."""
    out = [v for v in relevant_places([d.a, d.b]) if hilbert_symbol(d.a, d.b, v) == -1]
    assert len(out) % 2 == 0, "product formula violated"
    return frozenset(out)


def is_division(d: QuaternionAlgebra) -> bool:
    return bool(ramification_set(d))


def is_ramified_at_infinity(d: QuaternionAlgebra) -> bool:
    return hilbert_symbol(d.a, d.b, REAL) == -1


class SplittingField(Value):
    field: QuadraticField
    witness: tuple[Fraction, Fraction, Fraction]  # (c1, c2, c3)
    value: Fraction  # a c1^2 + b c2^2 - ab c3^2, with sqrt(value) in D


def find_splitting_quadratic(
    d: QuaternionAlgebra,
    sign_constraint: str = "any",
) -> SplittingField:
    """A quadratic field Q(sqrt(e)) that splits d, with e the least of
    a, b and -ab (the squares of i, j and ij, so sqrt(e) lies inside d) that
    meets sign_constraint in {"positive", "negative", "any"} and is not a
    rational square.  Over a division algebra none of the three is a square.

    Raises InfeasibleSign when none qualifies, as for a definite algebra
    asked for a positive value.
    """
    a, b = d.a, d.b
    admissible = [
        (e, xs)
        for e, xs in ((a, (1, 0, 0)), (b, (0, 1, 0)), (-a * b, (0, 0, 1)))
        if not is_rational_square(e)
        and sign_constraint in ("any", "positive" if e > 0 else "negative")
    ]
    if not admissible:
        raise InfeasibleSign(
            f"none of a, b, -ab is a nonsquare of sign {sign_constraint}"
        )
    e, xs = min(admissible, key=lambda t: t[0])
    return SplittingField(
        QuadraticField(squarefree_part(e)), tuple(map(Fraction, xs)), e
    )


class HermForm(Value):
    """Hermitian form over a quadratic field L with its conjugation."""

    field: QuadraticField
    matrix: tuple[tuple[QuadElement, ...], ...]

    def __post_init__(self):
        n = len(self.matrix)
        for i in range(n):
            if len(self.matrix[i]) != n:
                raise NotSymmetric("matrix must be square")
            for j in range(n):
                if self.matrix[i][j] != self.matrix[j][i].conj():
                    raise NotSymmetric("matrix must equal its conjugate transpose")

    @staticmethod
    def diagonal(field: QuadraticField, coeffs: Sequence) -> "HermForm":
        cs = [c if isinstance(c, QuadElement) else field.element(c) for c in coeffs]
        n = len(cs)
        zero = field.element(0)
        return HermForm(
            field,
            tuple(
                tuple(cs[i] if i == j else zero for j in range(n)) for i in range(n)
            ),
        )

    @property
    def dim(self) -> int:
        return len(self.matrix)


class QuatForm(Value):
    """Diagonal hermitian or skew-hermitian form over a quaternion algebra
    with its canonical involution, plus a count of leading hyperbolic planes."""

    algebra: QuaternionAlgebra
    kind: str  # "hermitian" | "skew_hermitian"
    diagonal: tuple[QuatElement, ...]
    hyperbolic_count: int = 0

    def __post_init__(self):
        if self.kind not in ("hermitian", "skew_hermitian"):
            raise ValueError("kind must be hermitian or skew_hermitian")
        for e in self.diagonal:
            if _is_zero_scalar(e.nrd()):
                raise Degenerate("diagonal entries must have nonzero reduced norm")
            if self.kind == "hermitian" and not e.is_central():
                raise NotSymmetric("hermitian entries must be central (rational)")
            if self.kind == "skew_hermitian" and not e.is_pure():
                raise NotSymmetric("skew-hermitian entries must be pure")

    @property
    def rank(self) -> int:
        return 2 * self.hyperbolic_count + len(self.diagonal)


class QuatSecondKindForm(Value):
    """Hermitian form over D = D' tensor L with the second-kind involution
    int(unit) o (canonical involution tensor conjugation of L).  The
    attribute unit_inverse is computed once, here; it is not a field."""

    l_field: QuadraticField
    inner_algebra: QuaternionAlgebra
    unit: QuatElement
    diagonal: tuple[QuatElement, ...]
    hyperbolic_count: int = 0

    def __post_init__(self):
        u = self.unit
        if u.is_zero():
            raise Degenerate("unit must be invertible")
        object.__setattr__(self, "unit_inverse", u.inverse())
        if second_kind_involution(self, u) != u:
            raise NotSymmetric("unit must be fixed by the involution it twists")
        for e in self.diagonal:
            if _is_zero_scalar(e.nrd()):
                raise Degenerate("diagonal entries must have nonzero reduced norm")
            if second_kind_involution(self, e) != e:
                raise NotSymmetric("diagonal entries must be involution-symmetric")

    @property
    def rank(self) -> int:
        return 2 * self.hyperbolic_count + len(self.diagonal)


def second_kind_involution(form: QuatSecondKindForm, x: QuatElement) -> QuatElement:
    """tau(x) = u * (conj_D' tensor conj_L)(x) * u^{-1}."""
    return form.unit * x.conj().field_conj() * form.unit_inverse


def _re_mul(s: Scalar, o: Scalar) -> Fraction:
    """The rational part of s o: p p' + d q q' for (p + q sqrt(d))(p' + q' sqrt(d))."""
    if isinstance(s, QuadElement):
        if isinstance(o, QuadElement):
            if s.fld != o.fld:
                raise ValueError("mixed quadratic fields")
            return s.x * o.x + s.fld.d * s.y * o.y
        return s.x * o
    if isinstance(o, QuadElement):
        return s * o.x
    return s * o


def re_trd_pairing(x: QuatElement, y: QuatElement) -> Fraction:
    """The rational part of Trd(xy) for x, y in D' tensor L, read from the
    coefficients without forming xy: Trd(xy) = 2(t t' + a x x' + b y y' -
    ab z z'), because 1, i, j, ij are orthogonal for the norm form."""
    if x.alg != y.alg:
        raise ValueError("mixed quaternion algebras")
    a, b = x.alg.a, x.alg.b
    return 2 * (
        _re_mul(x.t, y.t)
        + a * _re_mul(x.x, y.x)
        + b * _re_mul(x.y, y.y)
        - a * b * _re_mul(x.z, y.z)
    )


def common_orthogonal_pure(a3: QuatElement, a4: QuatElement) -> QuatElement:
    """A nonzero pure alpha anticommuting with both a3 and a4.

    For pure p, q: pq + qp = 2(a p_x q_x + b p_y q_y - ab p_z q_z), so
    anticommutation is orthogonality in the 3-dimensional pure part; a
    nonzero solution of the two linear conditions always exists.  The
    deterministic first kernel basis vector is chosen: 1 at the first free
    column of the reduced echelon form, scaled to a primitive vector.
    """
    if not (a3.is_pure() and a4.is_pure()) or a3.is_zero() or a4.is_zero():
        raise ValueError("arguments must be nonzero pure quaternions")
    alg = a3.alg
    a, b = alg.a, alg.b
    rows, pivots = rref([[a * p.x, b * p.y, -a * b * p.z] for p in (a3, a4)])
    free = next(c for c in range(3) if c not in pivots)
    sol = [Fraction(c == free) for c in range(3)]
    for row, c in zip(rows, pivots):
        sol[c] = -row[free]
    alpha = QuatElement(alg, Fraction(0), *primitive(sol))
    assert (a3 * alpha + alpha * a3).is_zero() and (a4 * alpha + alpha * a4).is_zero()
    return alpha


def b2_realization(d: QuaternionAlgebra, h: QuatForm) -> QuadForm:
    """The 5-dimensional rational quadratic form q(m) = Trd(m^2) on the
    h-symmetric trace-zero endomorphisms of D^2; SO(q) is isogenous to
    SU_2(D, h) (the identification B2 = C2).

    For h = <h1, h2> the symmetric endomorphisms m satisfy
    m12 = r conj(m21) with r = h2/h1, so the trace-zero ones have the
    basis m0 = diag(1, -1) and m_g = [[0, r conj(g)], [g, 0]] for
    g in {1, i, j, ij}.  Then m0^2 = 1 and m_g^2 = r Nrd(g) 1, so
    q(m0) = 4 and q(m_g) = 4 r Nrd(g), with Nrd = 1, -a, -b, ab on the four
    g.  Cross terms vanish: m0 m_g + m_g m0 = 0, and the polar form of
    m_g -> Nrd(g) is zero between distinct g because 1, i, j, ij are
    orthogonal for the norm form.  Hence q = <4, 4r, -4ra, -4rb, 4rab>,
    nondegenerate because a, b, h1, h2 are nonzero."""
    if h.kind != "hermitian" or len(h.diagonal) != 2 or h.hyperbolic_count:
        raise ValueError("need a diagonal hermitian form of rank 2")
    h1, h2 = (Fraction(e.t) for e in h.diagonal)
    if h1 == 0 or h2 == 0:
        raise Degenerate("degenerate hermitian form")
    r = h2 / h1
    a, b = d.a, d.b
    return QuadForm.diagonal([4, 4 * r, -4 * r * a, -4 * r * b, 4 * r * a * b])


class SkewRestriction(Value):
    alpha: QuatElement
    fprime: QuadraticField
    c: QuadElement  # a3^{-1} a4 expressed inside F'
    k_cert: NumberFieldCert
    k_is_biquadratic: bool


def skew_restriction(form: QuatForm, i3: int, i4: int) -> SkewRestriction:
    """From two anisotropic diagonal entries a3, a4 of a skew-hermitian form,
    build the tower: alpha pure anticommuting with both, F' = Q(alpha),
    c = a3^{-1} a4 in F', and the degree-4 certificate for K = F'(sqrt(-c)).
    """
    a3 = form.diagonal[i3]
    a4 = form.diagonal[i4]
    alpha = common_orthogonal_pure(a3, a4)
    alpha_sq = alpha.nrd()
    alpha_sq = -Fraction(alpha_sq)  # alpha^2 = -Nrd(alpha) for pure alpha
    if is_rational_square(alpha_sq):
        raise Degenerate(
            "alpha generates no quadratic field; the algebra is not division"
        )
    dprime = squarefree_part(alpha_sq)
    fprime = QuadraticField(dprime)
    w = rational_sqrt(alpha_sq / dprime)
    # c = a3^{-1} a4 commutes with alpha, hence c = u + v*alpha with u, v in Q
    cq = a3.inverse() * a4
    u = Fraction(cq.t)
    v = _pure_ratio(cq, alpha)
    if v is None:
        raise NotInFprime("a3^{-1} a4 does not centralize alpha")
    c = fprime.element(u, v * w)  # u + (v w) sqrt(d')
    if is_square_in_quadfield(-c):
        raise DegenerateTower("-c is a square in F'; no quadratic tower over F'")
    vprime = v * w
    if vprime == 0:
        # c rational: K is the biquadratic compositum Q(sqrt(d'), sqrt(-c))
        e = squarefree_part(-u)
        k_cert = numfield.compositum_quadratic(fprime, QuadraticField(e))
        return SkewRestriction(alpha, fprime, c, k_cert, True)
    # minimal polynomial of sqrt(-c): x^4 + 2u x^2 + (u^2 - v'^2 d')
    raw = polys.poly([u * u - vprime * vprime * dprime, 0, 2 * u, 0, 1])
    k_cert = _integral_quartic_cert(raw)
    return SkewRestriction(alpha, fprime, c, k_cert, False)


def _pure_ratio(cq: QuatElement, alpha: QuatElement) -> Optional[Fraction]:
    """v with pure(cq) = v * alpha, or None."""
    pure = cq - cq.alg.element(cq.t)
    for comp in ("x", "y", "z"):
        av = Fraction(getattr(alpha, comp))
        if av != 0:
            v = Fraction(getattr(pure, comp)) / av
            scaled = QuatElement(
                alpha.alg, Fraction(0), v * alpha.x, v * alpha.y, v * alpha.z
            )
            return v if (pure - scaled).is_zero() else None
    return None


def _integral_quartic_cert(raw: polys.Poly) -> NumberFieldCert:
    """Rescale the generator by the least m that makes the monic quartic
    x^4 + c2 x^2 + c0 integral (c2 m^2 and c0 m^4 in Z: v_p(m) is
    max(ceil(v_p(den c2) / 2), ceil(v_p(den c0) / 4)) at each p), then
    certify the field (signature and the quadratic subfields of its
    resolvent cubic)."""
    c0, c2 = Fraction(raw[0]), Fraction(raw[2])
    v2, v0 = factorize(c2.denominator), factorize(c0.denominator)
    m = 1
    for p in v2.keys() | v0.keys():
        m *= p ** max(-(-v2.get(p, 0) // 2), -(-v0.get(p, 0) // 4))
    return numfield.field_cert([int(c0 * m**4), 0, int(c2 * m**2), 0, 1])
