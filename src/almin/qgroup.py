"""Group specifications over Q and their rank arithmetic.

A GroupSpec is one of the tagged variants below (special linear groups over
Q or a quaternion algebra, orthogonal, symplectic, unitary of first or
second kind, and restrictions of scalars of SL2 / quasisplit SU3).  The
operations compute the Q-rank and the real rank exactly, and decide
absolute almost-simplicity (converting the four-dimensional orthogonal and
rank-2 skew cases into restrictions of scalars).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Union

from . import algebra as alg
from . import numfield, polys, quadform
from .algebra import (
    HermForm,
    QuatElement,
    QuatForm,
    QuatSecondKindForm,
    QuaternionAlgebra,
    is_ramified_at_infinity,
    re_trd_pairing,
)
from .arith import is_rational_square, rational_sqrt, squarefree_part
from .numfield import NumberFieldCert, QuadElement, QuadraticField
from .quadform import QuadForm, witt_index
from .value import Value


class NotAlmostSimple(ValueError):
    """Semisimple but not almost simple over Q; analysis refuses the input."""


class Unsupported(RuntimeError):
    pass


class InvalidSpec(ValueError):
    pass


# --------------------------------------------------------------------------
# GroupSpec variants


class SpecialLinear(Value):
    """SL_m over Q (algebra None) or SL_m(D) for a quaternion algebra D."""

    m: int
    algebra: Optional[QuaternionAlgebra] = None

    def __post_init__(self):
        if self.m < 2:
            raise InvalidSpec("m must be at least 2")


class Orthogonal(Value):
    form: QuadForm

    def __post_init__(self):
        if self.form.dim < 3:
            raise InvalidSpec("orthogonal groups need dimension at least 3")
        quadform.diagonalize(self.form)  # raises Degenerate


class Symplectic(Value):
    """Sp_{2n}."""

    n: int

    def __post_init__(self):
        if self.n < 1:
            raise InvalidSpec("n must be positive")


class Unitary2(Value):
    """SU_n(L, f, conjugation) for a quadratic field L."""

    form: HermForm

    def __post_init__(self):
        if self.form.dim < 1:
            raise InvalidSpec("empty hermitian form")


class Unitary2Quat(Value):
    """SU_n(D, f, tau) for D = D' tensor L with a second-kind involution."""

    form: QuatSecondKindForm

    def __post_init__(self):
        if self.form.rank < 1:
            raise InvalidSpec("empty second-kind quaternionic form")


class Unitary1(Value):
    """SU_n(D, f) for a first-kind (hermitian or skew-hermitian) form."""

    form: QuatForm

    def __post_init__(self):
        if self.form.rank < 1:
            raise InvalidSpec("empty quaternionic form")


class ResSL2(Value):
    """Restriction of scalars of SL2 from the field of the certificate."""

    field: NumberFieldCert


class ResSU3(Value):
    """Restriction of scalars, from the quadratic field k_field, of the
    quasisplit special unitary group of the standard form
    x1*conj(x1) - x2*conj(x2) - x3*conj(x3) on the quadratic extension
    described by l_quartic (a degree-4 certificate over Q containing k_field).

    Analysis inputs require k_field imaginary; internally constructed
    witnesses may carry a real k_field (flagged by witness_context, which
    serde accepts only inside a witness)."""

    k_field: QuadraticField
    l_quartic: NumberFieldCert
    std_form: bool = True
    witness_context: bool = False

    def __post_init__(self):
        if not self.std_form:
            raise Unsupported(
                "only the standard form x1 conj(x1) - x2 conj(x2) - x3 conj(x3)"
                " is supported"
            )
        if self.l_quartic.degree != 4:
            raise InvalidSpec("l_quartic must be a degree-4 certificate")
        if self.k_field.is_real and not self.witness_context:
            raise InvalidSpec("analysis inputs need an imaginary k_field")
        sub = numfield.SubfieldCert(
            polys.poly([-self.k_field.d, 0, 1]), polys.poly([0, 1])
        )
        if not any(
            sc.sub_poly == sub.sub_poly and numfield.verify_subfield(self.l_quartic, sc)
            for sc in self.l_quartic.subfields
        ):
            raise InvalidSpec("l_quartic must certify k_field as a subfield")


GroupSpec = Union[
    SpecialLinear,
    Orthogonal,
    Symplectic,
    Unitary2,
    Unitary2Quat,
    Unitary1,
    ResSL2,
    ResSU3,
]


class RankProfile(Value):
    q_rank: int
    real_rank: int

    @property
    def s_g_nonempty(self) -> bool:
        # Q has a single archimedean place, so S_G is {infinity} or empty
        return self.real_rank >= 2

    def __post_init__(self):
        if self.q_rank > self.real_rank:
            raise InvalidSpec("q_rank cannot exceed real_rank")


def rank_profile(g: GroupSpec) -> RankProfile:
    return RankProfile(q_rank(g), real_rank(g))


# --------------------------------------------------------------------------
# Hermitian linear algebra over quadratic fields


def diagonalize_hermitian(
    form: HermForm,
) -> tuple[tuple[Fraction, ...], tuple[tuple[QuadElement, ...], ...]]:
    """Rational diagonal entries c_k and an L-basis b_k with h(b_k, b_l) equal
    to c_k when k = l and 0 otherwise, returned as (coeffs, basis).

    Conjugation-symmetric Gaussian elimination; a vanishing diagonal is
    repaired by substituting x_i + lam*x_j with lam in {1, sqrt(d)}, one of
    which always yields a nonzero value when the off-diagonal entry is
    nonzero.  Each row operation on the matrix is applied to the basis."""
    L = form.field
    n = form.dim
    m = [list(row) for row in form.matrix]
    b = [[L.element(1 if i == j else 0) for j in range(n)] for i in range(n)]

    def add_row_col(dst: int, src: int, lam: QuadElement):
        # b_dst <- b_dst + lam b_src
        for c in range(n):
            m[dst][c] = m[dst][c] + lam.conj() * m[src][c]
        for r in range(n):
            m[r][dst] = m[r][dst] + lam * m[r][src]
        b[dst] = [x + lam * y for x, y in zip(b[dst], b[src])]

    def swap(i: int, j: int):
        m[i], m[j] = m[j], m[i]
        for r in range(n):
            m[r][i], m[r][j] = m[r][j], m[r][i]
        b[i], b[j] = b[j], b[i]

    out: list[Fraction] = []
    for k in range(n):
        if m[k][k].is_zero():
            piv = next((i for i in range(k + 1, n) if not m[i][i].is_zero()), None)
            if piv is not None:
                swap(k, piv)
            else:
                pair = next(
                    (
                        (i, j)
                        for i in range(k, n)
                        for j in range(i + 1, n)
                        if not m[i][j].is_zero()
                    ),
                    None,
                )
                if pair is None:
                    raise quadform.Degenerate("hermitian form is degenerate")
                i, j = pair
                for lam in (L.element(1), L.sqrt_gen()):
                    probe = m[i][j] * lam
                    if probe.trace() != 0:
                        add_row_col(i, j, lam)
                        break
                if i != k:
                    swap(k, i)
        for i in range(k + 1, n):
            if not m[i][k].is_zero():
                # e_i <- e_i + lam e_k with f(e_k, e_i + lam e_k) = 0
                lam = -(m[k][i] / m[k][k])
                add_row_col(i, k, lam)
        entry = m[k][k]
        if not entry.is_rational():
            raise quadform.NotSymmetric("diagonal entry escaped the fixed field")
        out.append(entry.x)
    if any(c == 0 for c in out):
        raise quadform.Degenerate("hermitian form is degenerate")
    return tuple(out), tuple(tuple(row) for row in b)


def hermitian_trace_form(form: HermForm) -> QuadForm:
    """The rational quadratic form <c1, -c1 d, c2, -c2 d, ...> representing
    the hermitian form on the 2n-dimensional Q-space underneath."""
    cs, _ = diagonalize_hermitian(form)
    d = form.field.d
    coeffs: list[Fraction] = []
    for c in cs:
        coeffs.extend([c, -c * d])
    return QuadForm.diagonal(coeffs)


def hermitian_witt_index(form: HermForm) -> int:
    """Witt index of a hermitian form over a quadratic field: half the Witt
    index of its rational trace form."""
    w = witt_index(hermitian_trace_form(form))
    assert w % 2 == 0, "trace form of a hermitian form has even Witt index"
    return w // 2


def hermitian_signature(form: HermForm) -> tuple[int, int]:
    cs, _ = diagonalize_hermitian(form)
    pos = sum(1 for c in cs if c > 0)
    return pos, len(cs) - pos


# --------------------------------------------------------------------------
# Quaternionic tails


def quat_hermitian_witt_index(f: QuatForm) -> int:
    """Witt index of a hermitian form over a quaternion division algebra
    (a, b) with its canonical involution: one per hyperbolic plane, plus
    that of the tail.  The tail entries c_i are rational and
    conj(x) c x = c nrd(x), so the tail is the rational form
    <c_i> tensor <1, -a, -b, ab> on the 4k-dimensional Q-space underneath,
    and its Witt index is a quarter of that form's (Jacobson's transfer;
    Scharlau, Quadratic and Hermitian Forms, Ch. 10 Sec. 1)."""
    d = f.algebra
    coeffs: list[Fraction] = []
    for e in f.diagonal:
        c = Fraction(e.t)
        coeffs.extend([c, -c * d.a, -c * d.b, c * d.a * d.b])
    w = witt_index(QuadForm.diagonal(coeffs)) if coeffs else 0
    assert w % 4 == 0, "transfer of a hermitian form has Witt index 0 mod 4"
    return f.hyperbolic_count + w // 4


def certify_skew_tail_anisotropic(form: QuatForm) -> Optional[bool]:
    """True: certified anisotropic.  False: refuted (the tail is isotropic).
    None: undecided.

    An empty tail is anisotropic.  Over a division algebra a single entry
    is anisotropic and a pair is decided exactly by skew_pair_isotropy.
    Longer tails, and every tail over a split algebra, are undecided.
    """
    entries = form.diagonal
    if len(entries) == 0:
        return True
    if not alg.is_division(form.algebra):
        return None
    if len(entries) == 1:
        return True
    if len(entries) == 2:
        return skew_pair_isotropy(*entries) is None
    return None


def skew_pair_isotropy(
    e1: QuatElement, e2: QuatElement
) -> Optional[tuple[int, Fraction]]:
    """Is the skew-hermitian form <e1, e2> over a quaternion division algebra
    D isotropic?  None if not; otherwise (s, t) such that t = s c / nrd(y) is
    a norm from Q(e1), in the notation below.

    An isotropic vector (x1, x2) has x1 != 0 (x1 = 0 forces x2 = 0) and
    scales to (1, x), so the form is isotropic iff conj(x) e2 x = -e1 for
    some x in D.  Reduced norms give nrd(x)^2 = nrd(e1) / nrd(e2); unless
    that ratio is a square c^2 (c > 0) there is no such x.  Otherwise
    nrd(x) = s c for a sign s, and as conj(x) = nrd(x) x^-1 the equation
    reads x^-1 e2 x = w with w = -e1 / (s c).  The pure quaternions e2 and w
    have the same reduced norm, so (Skolem-Noether) the linear equation
    e2 y = y w has a plane of solutions, all invertible in D.  As
    e2^2 = w^2, y = e2 q + q w solves it for every q, and q -> y has rank 2,
    so one of q = 1, i, j, ij gives y != 0.  All solutions are x = y z with
    z in the centralizer Q(e1) of w, and nrd(x) = s c iff nrd(z) = t with
    t = s c / nrd(y).  With e1^2 = delta, t is a norm from Q(sqrt(delta))
    iff <1, -delta, -t> is isotropic over Q, which its local invariants
    decide (Hasse norm theorem; the extension is cyclic).  The
    skew-hermitian form itself is never decided by a local-global
    principle, which can fail for it."""
    ratio = Fraction(e1.nrd()) / Fraction(e2.nrd())
    if not is_rational_square(ratio):
        return None
    c = rational_sqrt(ratio)
    d = e1.alg
    delta = -Fraction(e1.nrd())
    basis = (d.one(), d.gen_i(), d.gen_j(), d.gen_k())
    for s in (1, -1):
        w = e1 * (Fraction(-s) / c)
        y = next(y for y in (e2 * q + q * w for q in basis) if not y.is_zero())
        t = s * c / Fraction(y.nrd())
        if quadform.is_isotropic(QuadForm.diagonal([1, -delta, -t]), "global"):
            return s, t
    return None


# --------------------------------------------------------------------------
# Ranks


def q_rank(g: GroupSpec) -> int:
    """The Q-rank.  For orthogonal groups it is the Witt index of the form,
    for unitary groups over a quadratic field that of the hermitian form
    (half the Witt index of its trace form); both come from the
    discriminant, the signature and the Hasse invariants, with no search.
    A first-kind quaternionic hermitian form is ranked by Jacobson's
    transfer, and over a split algebra its group is Sp_2n of rank n.  A
    skew-hermitian tail is ranked as far as certify_skew_tail_anisotropic
    decides it: a refuted pair is a hyperbolic plane."""
    if isinstance(g, SpecialLinear):
        if g.algebra is None:
            return g.m - 1
        if not alg.is_division(g.algebra):
            return 2 * g.m - 1  # SL_m over M_2(Q) is SL_{2m} over Q
        return g.m - 1
    if isinstance(g, Orthogonal):
        return witt_index(g.form)
    if isinstance(g, Symplectic):
        return g.n
    if isinstance(g, Unitary2):
        return hermitian_witt_index(g.form)
    if isinstance(g, Unitary2Quat):
        f = g.form
        if _second_kind_is_division(f):
            if len(f.diagonal) <= 1:
                # a single invertible entry over a division algebra is
                # anisotropic; an empty tail trivially so
                return f.hyperbolic_count
            raise Unsupported(
                "anisotropy of a second-kind quaternionic tail of rank >= 2 is"
                " not decided"
            )
        raise Unsupported(
            "D' splits over L; the Morita reduction to a hermitian form over"
            " L is not implemented"
        )
    if isinstance(g, Unitary1):
        f = g.form
        if f.kind == "hermitian":
            if not alg.is_division(f.algebra):
                return f.rank  # over M_2(Q) the group is Sp_2n
            return quat_hermitian_witt_index(f)
        cert = certify_skew_tail_anisotropic(f)
        if cert is None:
            raise Unsupported("skew tail anisotropy undecided")
        # a pair refuted over a division algebra is a hyperbolic plane
        return f.hyperbolic_count + (0 if cert else 1)
    if isinstance(g, (ResSL2, ResSU3)):
        return 1
    raise TypeError(f"unknown spec {type(g)!r}")


def real_rank(g: GroupSpec) -> int:
    if isinstance(g, SpecialLinear):
        if g.algebra is None:
            return g.m - 1
        if is_ramified_at_infinity(g.algebra):
            return g.m - 1
        return 2 * g.m - 1
    if isinstance(g, Orthogonal):
        p, q = quadform.signature(g.form)
        return min(p, q)
    if isinstance(g, Symplectic):
        return g.n
    if isinstance(g, Unitary2):
        if g.form.field.is_real:
            return g.form.dim - 1
        p, q = hermitian_signature(g.form)
        return min(p, q)
    if isinstance(g, Unitary2Quat):
        return _second_kind_real_rank(g.form)
    if isinstance(g, Unitary1):
        f = g.form
        n = f.rank
        ramified = is_ramified_at_infinity(f.algebra)
        if f.kind == "hermitian":
            if not ramified:
                return n
            pos = f.hyperbolic_count
            neg = f.hyperbolic_count
            for e in f.diagonal:
                if Fraction(e.t) > 0:
                    pos += 1
                else:
                    neg += 1
            return min(pos, neg)
        if ramified:
            return n // 2
        p, q = _skew_split_real_signature(f)
        return min(p, q)
    if isinstance(g, ResSL2):
        r1, r2 = g.field.signature
        return r1 + r2
    if isinstance(g, ResSU3):
        if not g.k_field.is_real:
            return 2  # one complex place; SU3 over C is SL3 of rank 2
        r1k = g.l_quartic.signature[0]
        # each real place of k_field contributes rank 2 if the quadratic
        # extension stays real there (SL3(R)), rank 1 otherwise (SU(2,1))
        real_split = r1k // 2
        return 2 * real_split + (2 - real_split)
    raise TypeError(f"unknown spec {type(g)!r}")


def _second_kind_is_division(f: QuatSecondKindForm) -> bool:
    """D' tensor L is division iff D' is division and L does not split D'."""
    dp = f.inner_algebra
    if not alg.is_division(dp):
        return False
    d = f.l_field.d
    probe = QuadForm.diagonal([dp.a, dp.b, -dp.a * dp.b, -Fraction(d)])
    return not quadform.is_isotropic(probe, "global")


def _second_kind_real_rank(f: QuatSecondKindForm) -> int:
    """The real rank of SU(f).  For L real, L tensor R = R + R and the group
    is SL_n over D' tensor R.

    For L imaginary, D tensor R = M_2(C), where conj_D' tensor conj_L is
    X -> H^-1 X* H with H = 1 if D' is ramified at infinity (X -> X* on
    H tensor C) and H = iJ of determinant -1 if not (the adjugate of M_2(R)
    is X -> J X^T J^-1).  Then tau_u is adjoint to the hermitian H u^-1, and
    by Morita an entry e becomes the hermitian matrix H u^-1 e on C^2; a
    hyperbolic plane adds (2, 2).  That matrix has determinant
    det(H) Nrd(e) / Nrd(u), both norms rational as u and e are symmetric, so
    the entry adds (1, 1) exactly when eps Nrd(e) Nrd(u) < 0, eps = det(H).
    A definite entry's sign is read under a positive involution tau_w: w = 1
    if D' is ramified at infinity, else w = sqrt(d) g for a pure g in
    (i, j, ij) with nrd(g) > 0, which tau_1 fixes and for which H w^-1 has
    determinant det(H) / (d nrd(g)) > 0.  Then e' = m e with m = w u^-1 is
    tau_w-symmetric with H w^-1 e' = H u^-1 e, and
    Trd(e') = tr((H w^-1)^-1 (H u^-1 e)) has the entry's sign times that of
    the definite H w^-1, which all entries share.  Trd(e') is rational and
    nonzero, and re_trd_pairing reads it from m and e without their product.
    (The 8-dimensional trace form x -> Trd(tau_u(x) e x) carries the
    signature of H u^-1 e times that of H u^-1: it is hyperbolic whenever
    tau_u is not positive.)"""
    L, dp = f.l_field, f.inner_algebra
    ramified = is_ramified_at_infinity(dp)
    if L.is_real:
        return f.rank - 1 if ramified else 2 * f.rank - 1
    m = f.unit_inverse
    eps_unit_norm = _rational_part(f.unit.nrd())
    if not ramified:
        slot = next(k for k, norm in enumerate((-dp.a, -dp.b, dp.a * dp.b), 1) if norm > 0)
        coeffs = [L.element(0)] * 4
        coeffs[slot] = L.sqrt_gen()
        m = QuatElement(dp, *coeffs) * m
        eps_unit_norm = -eps_unit_norm
    pos = neg = 2 * f.hyperbolic_count
    for e in f.diagonal:
        if eps_unit_norm * _rational_part(e.nrd()) < 0:
            pos += 1
            neg += 1
        elif re_trd_pairing(m, e) > 0:
            pos += 2
        else:
            neg += 2
    return min(pos, neg)


def _rational_part(s) -> Fraction:
    """x for x + y sqrt(d) in L, or s itself when s is rational."""
    return s.x if isinstance(s, QuadElement) else s


def _skew_split_real_signature(f: QuatForm) -> tuple[int, int]:
    """Signature over R, up to order, of the 2n-dimensional quadratic form
    that Morita-transfers a skew-hermitian form over D split at infinity.

    A hyperbolic plane contributes (2, 2).  A pure entry p becomes a binary
    block of determinant Nrd(p): indefinite, (1, 1), when Nrd(p) < 0.  On
    pure quaternions Nrd has signature (1, 2) when D splits at infinity, so
    the entries with Nrd(p) > 0 lie on the two sheets of a cone, and the
    blocks of one sheet are all positive or all negative definite.  Pure p
    and q share a sheet iff B(p, q) > 0 for the polar form B of Nrd, and
    Trd(pq) = pq + qp = -2 B(p, q).  The sheet of the first such entry counts
    as positive."""
    pos = neg = 2 * f.hyperbolic_count
    first = None
    for p in f.diagonal:
        if Fraction(p.nrd()) < 0:
            pos += 1
            neg += 1
            continue
        if first is None:
            first = p
        if Fraction((first * p).trd()) < 0:
            pos += 2
        else:
            neg += 2
    return pos, neg


# --------------------------------------------------------------------------
# Absolute almost-simplicity


class ConvertibleTo(Value):
    spec: GroupSpec
    reason: str


def is_absolutely_almost_simple(g: GroupSpec) -> Union[bool, ConvertibleTo]:
    """True, or a conversion to the restriction of scalars the input is
    isogenous to.  Raises NotAlmostSimple for the square-discriminant
    four-dimensional cases (inner type D2 = A1 x A1 over Q)."""
    if isinstance(g, Orthogonal) and g.form.dim == 4:
        disc = squarefree_part(g.form.determinant())
        if disc == 1:
            raise NotAlmostSimple(
                "four-dimensional orthogonal group with square discriminant is"
                " a product of two SL2 factors over Q"
            )
        if not quadform.is_isotropic(g.form, "global"):
            raise Unsupported(
                "anisotropic four-dimensional orthogonal group is the"
                " restriction of scalars of the unit group of a quaternion"
                " algebra over the discriminant field, which this model does"
                " not represent"
            )
        return ConvertibleTo(
            ResSL2(numfield.quadratic_field_cert(disc)),
            f"isotropic SO4 of discriminant {disc} is isogenous to the"
            f" restriction of scalars of SL2 from Q(sqrt({disc}))",
        )
    if isinstance(g, Unitary1) and g.form.kind == "skew_hermitian" and g.form.rank == 2:
        f = g.form
        if f.hyperbolic_count == 1:
            raise NotAlmostSimple(
                "hyperbolic rank-2 skew form yields a split inner D2"
            )
        n1 = Fraction(f.diagonal[0].nrd())
        n2 = Fraction(f.diagonal[1].nrd())
        disc = squarefree_part(n1 * n2)
        if disc == 1:
            raise NotAlmostSimple(
                "rank-2 skew-hermitian form with square discriminant is inner D2"
            )
        conv = ResSL2(numfield.quadratic_field_cert(disc))
        # anisotropic outer D2: restriction of scalars of the unit group of
        # a nonsplit quaternion algebra over the discriminant field.  Over a
        # division algebra that is every case: the norm ratio nrd(e1)/nrd(e2)
        # is in the nonsquare class of disc, so the form is anisotropic.
        anisotropic = certify_skew_tail_anisotropic(f) is True
        if anisotropic or real_rank(g) != real_rank(conv):
            raise Unsupported(
                "rank-2 skew-hermitian form is an outer D2 twisted by a"
                " nonsplit quaternion algebra over the discriminant field;"
                " this model does not represent it"
            )
        return ConvertibleTo(
            conv,
            f"rank-2 skew-hermitian unitary group of discriminant {disc} is"
            f" isogenous to the restriction of scalars of SL2 from"
            f" Q(sqrt({disc}))",
        )
    if isinstance(g, (ResSL2, ResSU3)):
        return ConvertibleTo(g, "already a restriction of scalars")
    return True

