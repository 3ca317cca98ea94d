"""Verdict engine: decides minimality of an isotropic almost-simple group
over Q and constructs independently verifiable witness subgroups.

A NotMinimal verdict always carries a Witness: a proper isotropic almost
simple subgroup with real rank at least 2, plus embedding data that
re-validates by exact arithmetic inside the parent.  verify_witness runs
that re-validation from the witness data alone, sharing no intermediate
state with the construction.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional, Union

from . import algebra as alg
from . import numfield, polys, qgroup, quadform
from .algebra import HermForm, QuatForm, QuaternionAlgebra, is_ramified_at_infinity
from .arith import is_rational_square, rational_sqrt, squarefree_part
from .numfield import (
    NumberFieldCert,
    QuadElement,
    QuadraticField,
    SubfieldCert,
    quadratic_field_cert,
    verify_subfield,
)
from .qgroup import (
    ConvertibleTo,
    GroupSpec,
    NotAlmostSimple,
    Orthogonal,
    ResSL2,
    ResSU3,
    SpecialLinear,
    Symplectic,
    Unitary1,
    Unitary2,
    Unitary2Quat,
    Unsupported,
    is_absolutely_almost_simple,
    q_rank,
    real_rank,
)
from .quadform import QuadForm, represent_constrained, witt_index


class InternalSoundnessError(AssertionError):
    """A constructed witness failed its own verification."""


# --------------------------------------------------------------------------
# Embedding data


@dataclass(frozen=True)
class TraceRealizationContext:
    """Subform vectors live in the 5-dimensional trace realization of the
    hyperbolic quaternion-hermitian plane of the parent (recomputed fresh
    during verification)."""


@dataclass(frozen=True)
class SubformIndices:
    """Four pairwise-orthogonal vectors spanning a quaternary subform whose
    special orthogonal group is the restriction of scalars of SL2 named by
    the witness; a_value is the represented value produced by the witness
    vector on the tail coefficients."""

    basis: tuple[tuple, ...]
    tail_coeffs: tuple[Fraction, ...]
    a_value: Fraction
    witness_vector: tuple[Fraction, ...]
    context: Optional[TraceRealizationContext] = None


@dataclass(frozen=True)
class SubfieldElement:
    """c = a c1^2 + b c2^2 - a b c3^2: a square inside the quaternion algebra
    generating the quadratic field of the witness."""

    c_value: Fraction
    coords: tuple[Fraction, Fraction, Fraction]


@dataclass(frozen=True)
class BlockEmbedding:
    """A 3x3 coordinate block of a special linear group."""

    offset: int = 0


@dataclass(frozen=True)
class SplitSO5:
    """The split five-dimensional form <1,-1,-1,1,a> inside a group of
    rational rank at least 2, with the chosen positive nonsquare a."""

    form_coeffs: tuple[Fraction, ...]
    a_value: Fraction


@dataclass(frozen=True)
class CompositumTower:
    """K = E.L with K0 the fixed field of the product conjugation; E is a
    splitting field of the inner quaternion algebra, certified by the
    represented value e_value of its pure norm form."""

    e_value: Fraction
    e_class: int
    e_coords: tuple[Fraction, Fraction, Fraction]
    l_class: int
    k0_class: int
    k_cert: NumberFieldCert


@dataclass(frozen=True)
class PureQuaternionTower:
    """alpha anticommutes with the two chosen skew diagonal entries; F' is
    the quadratic field it generates, c = a3^{-1} a4 in F', and k_cert
    certifies K = F'(sqrt(-c)) of degree 4."""

    entry_indices: tuple[int, int]
    alpha_coords: tuple[Fraction, Fraction, Fraction]
    fprime_class: int
    c_x: Fraction
    c_y: Fraction
    k_cert: NumberFieldCert
    k_is_biquadratic: bool


@dataclass(frozen=True)
class SubfieldRestriction:
    """Descent to a certified proper subfield."""

    cert: SubfieldCert


EmbeddingData = Union[
    SubformIndices,
    SubfieldElement,
    BlockEmbedding,
    SplitSO5,
    CompositumTower,
    PureQuaternionTower,
    SubfieldRestriction,
]


# --------------------------------------------------------------------------
# Verdicts


@dataclass(frozen=True)
class DerivationStep:
    rule: str
    detail: str


@dataclass(frozen=True)
class Witness:
    subgroup: GroupSpec
    embedding: EmbeddingData
    derivation: tuple[DerivationStep, ...]


@dataclass(frozen=True)
class Minimal:
    matched_case: str  # one of "i", "ii", "iii", "iv"
    derivation: tuple[DerivationStep, ...]


@dataclass(frozen=True)
class NotMinimal:
    witness: Witness
    report: VerifyReport  # verify_witness of the witness inside the parent


@dataclass(frozen=True)
class NotApplicable:
    reason: str


@dataclass(frozen=True)
class UnsupportedVerdict:
    reason: str


Verdict = Union[Minimal, NotMinimal, NotApplicable, UnsupportedVerdict]


@dataclass(frozen=True)
class VerifyCheck:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class VerifyReport:
    ok: bool
    checks: tuple[VerifyCheck, ...]

    @property
    def failures(self) -> tuple[VerifyCheck, ...]:
        return tuple(c for c in self.checks if not c.passed)


def _step(rule: str, detail: str) -> DerivationStep:
    return DerivationStep(rule, detail)


# --------------------------------------------------------------------------
# Small helpers


def _cls(x) -> int:
    return squarefree_part(Fraction(x))


def _herm_eval(m, u, v) -> QuadElement:
    """Sesquilinear value sum conj(u_k) m[k][l] v_l."""
    n = len(m)
    total = None
    for k in range(n):
        if u[k].is_zero():
            continue
        ck = u[k].conj()
        for l in range(n):
            if v[l].is_zero():
                continue
            term = ck * m[k][l] * v[l]
            total = term if total is None else total + term
    if total is None:
        total = u[0].fld.element(0)
    return total


def _lvec_scale(v, s: QuadElement):
    return tuple(x * s for x in v)


def _lvec_add(u, v):
    return tuple(a + b for a, b in zip(u, v))


def _lvec_sub(u, v):
    return tuple(a - b for a, b in zip(u, v))


def _lvec_combine(coeffs, vectors):
    """The L-vector sum of coeffs_i * vectors_i over the nonzero coeffs_i
    (at least one)."""
    return functools.reduce(
        _lvec_add,
        (_lvec_scale(v, c) for c, v in zip(coeffs, vectors) if not c.is_zero()),
    )


def _so4_conversion_field(g4: QuadForm):
    """The quadratic field certificate of the restriction of scalars that an
    isotropic nonsquare-discriminant quaternary form converts to, or an
    error string."""
    try:
        res = is_absolutely_almost_simple(Orthogonal(g4))
    except NotAlmostSimple:
        return None, "a is a rational square => subgroup not almost simple"
    except (Unsupported, qgroup.InvalidSpec, quadform.Degenerate) as exc:
        return None, f"quaternary subform does not convert: {exc}"
    if not isinstance(res, ConvertibleTo) or not isinstance(res.spec, ResSL2):
        return None, "quaternary subform did not convert to a restriction of scalars"
    return res.spec.field, ""


# --------------------------------------------------------------------------
# Witness constructions


def _orthogonal_subform_witness(form: QuadForm) -> Witness:
    """Normalize to <1,-1,-1,...> and represent a positive nonsquare a on the
    tail, giving the restriction of scalars of SL2 from Q(sqrt(a)) on the
    quaternary subform."""
    deriv: list[DerivationStep] = []
    d = quadform.diagonalize(form)
    coeffs = list(d.coeffs)
    n = len(coeffs)
    cols = [tuple(row[j] for row in d.basis_change) for j in range(n)]

    pair = None
    for i, j in itertools.combinations(range(n), 2):
        if _cls(coeffs[i] * coeffs[j]) == -1:
            pair = (i, j)
            break
    if pair is not None:
        i, j = pair
        w1, w2 = cols[i], cols[j]
        rest = [(cols[k], coeffs[k]) for k in range(n) if k not in pair]
        deriv.append(
            _step(
                "hyperbolic-pair",
                f"diagonal entries {i},{j} have square-class product -1",
            )
        )
    else:
        split = quadform.split_hyperbolic_plane(form, cols)
        assert split is not None, "q_rank >= 1 guarantees a hyperbolic plane"
        u, v, comp = split
        w1 = tuple(a + b for a, b in zip(u, v))
        w2 = tuple(a - b for a, b in zip(u, v))
        # an orthogonal basis of the complement, mapped back to the ambient
        # coordinates
        sub = quadform.diagonalize(quadform.restrict(form, comp))
        rest = [
            (quadform.combine([row[j] for row in sub.basis_change], comp), c)
            for j, c in enumerate(sub.coeffs)
        ]
        deriv.append(
            _step(
                "hyperbolic-pair",
                "split one certified hyperbolic plane from a constructed"
                " isotropic vector",
            )
        )
    kpos = next((t for t, (_, c) in enumerate(rest) if c < 0), None)
    assert kpos is not None, "real rank >= 2 guarantees a negative tail entry"
    w3, ck = rest[kpos]
    tail = [rest[t] for t in range(len(rest)) if t != kpos]
    assert tail, "dimension >= 5 guarantees a nonempty tail"
    tail_coeffs = tuple(-c / ck for _, c in tail)
    deriv.append(
        _step(
            "normalize-scale",
            f"scale the form by -1/({ck}) so the chosen slot is -1;"
            f" scaled tail {tail_coeffs}",
        )
    )
    rep = represent_constrained(tail_coeffs)
    a = rep.value
    w4 = [Fraction(0)] * form.dim
    for m, (vec, _) in enumerate(tail):
        for t in range(form.dim):
            w4[t] += rep.vector[m] * Fraction(vec[t])
    w4 = tuple(w4)
    s = _cls(a)
    deriv.append(
        _step(
            "represent-positive-nonsquare",
            f"a = {a} (class {s}) at tail vector {rep.vector}",
        )
    )
    sub = ResSL2(quadratic_field_cert(s))
    emb = SubformIndices(
        basis=(w1, w2, w3, w4),
        tail_coeffs=tail_coeffs,
        a_value=a,
        witness_vector=tuple(rep.vector),
    )
    deriv.append(
        _step(
            "orthogonal-quaternary-descent",
            f"the quaternary subform has discriminant class {s}; its special"
            f" orthogonal group is the restriction of scalars of SL2 from"
            f" Q(sqrt({s}))",
        )
    )
    return Witness(sub, emb, tuple(deriv))


def _hermitian_subform_witness(form: HermForm) -> Witness:
    """The quadratic-field hermitian construction: split a hyperbolic plane,
    scale a slot to -1, represent a positive nonsquare a as a sum of tail
    entries times norms, descend to the rational quaternary subform.

    The work happens in the basis of qgroup.diagonalize_hermitian, where
    h(x, y) = sum conj(x_i) c_i y_i; the four vectors are mapped back at the
    end.  They are h-orthogonal with rational values <2, -2, c, -c a>, so h
    is a rational quaternary form q0 on their Q-span V0, of discriminant
    class a.  SO(q0) embeds in SU(h): extend g in SO(q0) L-linearly to
    V0 (x) L, where it keeps h and has determinant 1, and let it act as the
    identity on the orthogonal complement (Scharlau, Quadratic and
    Hermitian Forms, Ch. 10 §1).  SO(q0) is the restriction of scalars of
    SL2 from Q(sqrt(a)).  The slot c needs no norm condition, only a scaled
    tail trace form that takes a positive value."""
    L = form.field
    d = L.d
    n = form.dim
    cs, basis = qgroup.diagonalize_hermitian(form)
    zero = L.element(0)
    deriv: list[DerivationStep] = []

    def h(x, y):
        return sum(
            (
                a.conj() * (b * c)
                for a, c, b in zip(x, cs, y)
                if not (a.is_zero() or b.is_zero())
            ),
            zero,
        )

    def unit(j):
        return tuple(L.element(1 if k == j else 0) for k in range(n))

    # an isotropic vector of the rational trace form <c_i, -d c_i> on the
    # coordinates y_i = s_i + t_i sqrt(d)
    trace = [x for c in cs for x in (c, -d * c)]
    iso = quadform.find_isotropic_vector(QuadForm.diagonal(trace))
    if iso is None:
        raise qgroup.InvalidSpec("hermitian form is anisotropic")
    v = tuple(L.element(iso[2 * j], iso[2 * j + 1]) for j in range(n))
    assert h(v, v).is_zero()
    j0, i1 = [j for j in range(n) if not v[j].is_zero()][:2]
    u1 = _lvec_scale(unit(j0), h(v, unit(j0)).inverse())
    r = h(u1, u1)
    assert r.is_rational()
    u = _lvec_add(u1, _lvec_scale(v, L.element(-r.x / 2)))
    p1 = _lvec_add(v, u)
    p2 = _lvec_sub(v, u)
    deriv.append(
        _step(
            "hermitian-hyperbolic-pair",
            "split one hyperbolic plane from an isotropic vector of the"
            " rational trace form",
        )
    )
    # the plane is span(v, e_j0) and v_i1 != 0, so the unit vectors off
    # {j0, i1} project onto a basis of its orthogonal complement
    proj = [
        _lvec_sub(
            _lvec_sub(e, _lvec_scale(u, h(v, e))), _lvec_scale(v, h(u, e))
        )
        for e in (unit(j) for j in range(n) if j not in (j0, i1))
    ]
    o_vals, o_basis = qgroup.diagonalize_hermitian(
        HermForm(L, tuple(tuple(h(x, y) for y in proj) for x in proj))
    )
    o_vecs = [_lvec_combine(row, proj) for row in o_basis]
    # slot 0 needs no norm condition, only a scaled tail t_i = -c_i/c whose
    # trace form <t_i, -d t_i> takes a positive value: it is indefinite when
    # d > 0, and when d < 0 real rank >= 2 leaves both signs off the plane
    w3, ck = o_vecs[0], o_vals[0]
    tail = list(zip(o_vecs[1:], o_vals[1:]))
    assert tail, "dimension >= 4 guarantees a nonempty hermitian tail"
    tail_t = [-c / ck for _, c in tail]
    assert d > 0 or max(tail_t) > 0, "real rank >= 2 leaves both signs"
    trace_coeffs = []
    for t in tail_t:
        trace_coeffs.extend([t, -t * d])
    deriv.append(
        _step(
            "normalize-scale",
            f"scale the form by -1/({ck}) so the chosen slot is -1;"
            f" scaled tail {tuple(tail_t)}",
        )
    )
    rep = represent_constrained(trace_coeffs)
    a = rep.value
    s = _cls(a)
    w4 = _lvec_combine(
        [
            L.element(rep.vector[2 * t], rep.vector[2 * t + 1])
            for t in range(len(tail))
        ],
        [vec for vec, _ in tail],
    )
    assert h(w4, w4).is_rational() and h(w4, w4).x == -ck * a
    deriv.append(
        _step(
            "represent-positive-nonsquare",
            f"a = {a} (class {s}) as a sum of tail entries times norms, at"
            f" coefficient vector {rep.vector}",
        )
    )
    p1, p2, w3, w4 = (_lvec_combine(y, basis) for y in (p1, p2, w3, w4))
    sub = ResSL2(quadratic_field_cert(s))
    emb = SubformIndices(
        basis=(p1, p2, w3, w4),
        tail_coeffs=tuple(trace_coeffs),
        a_value=a,
        witness_vector=tuple(rep.vector),
    )
    deriv.append(
        _step(
            "orthogonal-quaternary-descent",
            f"the rational quaternary subform on the orthogonal basis has"
            f" discriminant class {s}",
        )
    )
    return Witness(sub, emb, tuple(deriv))


def _sl2_quaternion_witness(d: QuaternionAlgebra, m: int) -> Witness:
    sp = alg.find_splitting_quadratic(d, "positive")
    s = sp.field.d
    deriv = [
        _step(
            "quaternion-subfield",
            f"c = a c1^2 + b c2^2 - a b c3^2 = {sp.value} at {sp.witness} is"
            f" positive, so Q(sqrt({s})) embeds in the algebra and its"
            f" restriction of scalars of SL2 embeds in the group",
        )
    ]
    if m > 2:
        deriv.append(
            _step(
                "block-restriction",
                f"the subgroup sits inside the leading 2x2 block of the"
                f" m = {m} special linear group",
            )
        )
    return Witness(
        ResSL2(quadratic_field_cert(s)),
        SubfieldElement(sp.value, sp.witness),
        tuple(deriv),
    )


def _split_so5_witness(detail: str) -> Witness:
    a = Fraction(2)  # the least squarefree integer > 1
    coeffs = (Fraction(1), Fraction(-1), Fraction(-1), Fraction(1), a)
    deriv = (
        _step("split-rank-2-reduction", detail),
        _step(
            "split-so5",
            f"the split five-dimensional form <1,-1,-1,1,{a}> realizes the"
            f" split rank-2 subgroup; its quaternary subform <1,-1,-1,{a}>"
            f" carries the restriction of scalars of SL2 from Q(sqrt({a}))",
        ),
    )
    return Witness(
        ResSL2(quadratic_field_cert(int(a))), SplitSO5(coeffs, a), deriv
    )


def _second_kind_witness(g: Unitary2Quat) -> Witness:
    f = g.form
    d = f.l_field.d
    dp = f.inner_algebra
    if f.rank == 2:
        constraint = "positive" if d > 0 else "negative"
    else:
        constraint = "negative" if d < 0 else "any"
    # E differs from L: q_rank proved D' tensor L division before this
    # witness is built, so L does not split D', and no pure quaternion of D'
    # squares into the class d of L
    sp = alg.find_splitting_quadratic(dp, constraint)
    e = sp.field.d
    kc = numfield.compositum_quadratic(sp.field, f.l_field)
    k0 = squarefree_part(e * d)
    emb = CompositumTower(
        e_value=sp.value,
        e_class=e,
        e_coords=sp.witness,
        l_class=d,
        k0_class=k0,
        k_cert=kc,
    )
    deriv = [
        _step(
            "splitting-field-compositum",
            f"E = Q(sqrt({e})) splits the inner quaternion algebra (pure norm"
            f" value {sp.value} at {sp.witness}, sign constraint"
            f" {constraint}); K = E.L is biquadratic with fixed field"
            f" K0 = Q(sqrt({k0}))",
        )
    ]
    if f.rank == 2:
        deriv.append(
            _step(
                "compositum-sl2-descent",
                f"rank 2: the restriction of scalars of SL2 from the real"
                f" field K0 = Q(sqrt({k0})) embeds via the hyperbolic plane"
                f" over K",
            )
        )
        return Witness(ResSL2(quadratic_field_cert(k0)), emb, tuple(deriv))
    deriv.append(
        _step(
            "normalize-unit",
            "replace the involution by its twist making the third diagonal"
            " entry 1; the unitary group is unchanged",
        )
    )
    deriv.append(
        _step(
            "su3-restriction",
            f"the restriction of scalars from K0 of the quasisplit special"
            f" unitary group of <1,-1,1> over K embeds; both real-place"
            f" rank bullets re-verified by the generic rank checks",
        )
    )
    sub = ResSU3(QuadraticField(k0), kc, witness_context=True)
    return Witness(sub, emb, tuple(deriv))


def _skew_witness(g: Unitary1) -> Witness:
    f = g.form
    entries = f.diagonal
    last_err: Optional[Exception] = None
    for i, j in itertools.combinations(range(len(entries)), 2):
        try:
            sr = alg.skew_restriction(f, i, j)
        except (alg.DegenerateTower, alg.NotInFprime, alg.Degenerate) as exc:
            last_err = exc
            continue
        emb = PureQuaternionTower(
            entry_indices=(i, j),
            alpha_coords=(
                Fraction(sr.alpha.x),
                Fraction(sr.alpha.y),
                Fraction(sr.alpha.z),
            ),
            fprime_class=sr.fprime.d,
            c_x=sr.c.x,
            c_y=sr.c.y,
            k_cert=sr.k_cert,
            k_is_biquadratic=sr.k_is_biquadratic,
        )
        deriv = (
            _step(
                "pure-quaternion-tower",
                f"alpha = {sr.alpha} anticommutes with skew entries {i},{j};"
                f" F' = Q(sqrt({sr.fprime.d})); c = {sr.c} with -c nonsquare"
                f" in F', so K = F'(sqrt(-c)) has degree 4",
            ),
            _step(
                "skew-orthogonal-descent",
                "the restriction of scalars from F' of the special orthogonal"
                " group of the transferred quaternary form contains the"
                " restriction of scalars of SL2 from K",
            ),
        )
        return Witness(ResSL2(sr.k_cert), emb, deriv)
    raise Unsupported(
        f"no admissible pair of skew entries yields a quartic tower:"
        f" {last_err}"
    )


def _b2_witness(g: Unitary1) -> Witness:
    d = g.form.algebra
    h2 = QuatForm(d, "hermitian", (d.element(1), d.element(-1)), 0)
    q5 = alg.b2_realization(d, h2)
    inner = _orthogonal_subform_witness(q5)
    assert isinstance(inner.embedding, SubformIndices)
    emb = replace(inner.embedding, context=TraceRealizationContext())
    deriv = (
        _step(
            "b2-trace-realization",
            "the rank-2 hyperbolic quaternion-hermitian subgroup is realized"
            " as the special orthogonal group of the 5-dimensional trace"
            " form on symmetric trace-zero endomorphisms",
        ),
    ) + inner.derivation
    return Witness(inner.subgroup, emb, deriv)


# --------------------------------------------------------------------------
# analyze


def analyze(g: GroupSpec) -> Verdict:
    deriv: list[DerivationStep] = []
    try:
        aas = is_absolutely_almost_simple(g)
    except NotAlmostSimple as exc:
        return NotApplicable(f"not almost simple over Q: {exc}")
    except Unsupported as exc:
        return UnsupportedVerdict(str(exc))
    if isinstance(aas, ConvertibleTo) and aas.spec is not g:
        deriv.append(_step("absolute-type-conversion", aas.reason))
        g = aas.spec
    try:
        rr = real_rank(g)
    except Unsupported as exc:
        return UnsupportedVerdict(str(exc))
    if rr < 2:
        return NotApplicable(f"real_rank = {rr}")
    try:
        qr = q_rank(g)
    except Unsupported as exc:
        return UnsupportedVerdict(str(exc))
    if qr == 0:
        return NotApplicable("anisotropic over Q (q_rank = 0)")
    deriv.append(
        _step("rank-computation", f"q_rank = {qr}, real_rank = {rr}")
    )
    try:
        return _dispatch(g, qr, tuple(deriv))
    except Unsupported as exc:
        return UnsupportedVerdict(str(exc))


def _dispatch(
    g: GroupSpec, qr: int, deriv: tuple[DerivationStep, ...]
) -> Verdict:
    if isinstance(g, SpecialLinear):
        if g.algebra is None and g.m == 3:
            return Minimal(
                "i",
                deriv + (_step("standard-sl3", "the split rank-2 special"
                               " linear group of degree 3"),),
            )
        if g.algebra is None:
            steps = (
                _step(
                    "sl3-block",
                    f"the leading 3x3 block of the degree-{g.m} special"
                    f" linear group is a proper isotropic almost simple"
                    f" subgroup of rank 2",
                ),
            )
        elif not alg.is_division(g.algebra):
            steps = (
                _step(
                    "matrix-algebra-reduction",
                    f"the algebra is split, so the group is the degree-"
                    f"{2 * g.m} special linear group over Q",
                ),
                _step("sl3-block", "leading 3x3 block"),
            )
        elif is_ramified_at_infinity(g.algebra):
            # definite algebra: only reachable with m >= 3 (rank >= 2)
            steps = (
                _step(
                    "rational-sl3-block",
                    f"the leading 3x3 block of the degree-{g.m} special"
                    f" linear group over Q, a proper subgroup of the one"
                    f" over the definite algebra",
                ),
            )
        else:
            w = _sl2_quaternion_witness(g.algebra, g.m)
            return _not_minimal(g, _prefix(w, deriv))
        w = Witness(SpecialLinear(3), BlockEmbedding(0), deriv + steps)
        return _not_minimal(g, w)

    if isinstance(g, Symplectic):
        w = _split_so5_witness(
            f"the split symplectic group of rank {g.n} >= 2 contains a split"
            f" rank-2 subgroup"
        )
        return _not_minimal(g, _prefix(w, deriv))

    if isinstance(g, Orthogonal):
        w = _orthogonal_subform_witness(g.form)
        return _not_minimal(g, _prefix(w, deriv))

    if isinstance(g, Unitary2):
        if g.form.dim == 3:
            assert g.form.field.is_real
            return Minimal(
                "ii",
                deriv
                + (
                    _step(
                        "ternary-hermitian-minimal",
                        "isotropic ternary hermitian form over a real"
                        " quadratic field; any such form is accepted, since"
                        " the criterion depends only on the absolute type",
                    ),
                ),
            )
        w = _hermitian_subform_witness(g.form)
        return _not_minimal(g, _prefix(w, deriv))

    if isinstance(g, Unitary2Quat):
        w = _second_kind_witness(g)
        return _not_minimal(g, _prefix(w, deriv))

    if isinstance(g, Unitary1):
        if qr >= 2:
            w = _split_so5_witness(
                f"the quaternionic form has rational rank {qr} >= 2, so the"
                f" group contains a split rank-2 subgroup"
            )
        elif g.form.kind == "hermitian":
            w = _b2_witness(g)
        elif g.form.rank == 3:
            return UnsupportedVerdict(
                "rank-3 skew-hermitian unitary groups need a realization"
                " transfer that is not provided"
            )
        else:
            w = _skew_witness(g)
        return _not_minimal(g, _prefix(w, deriv))

    if isinstance(g, ResSL2):
        return _analyze_res_sl2(g, deriv)

    if isinstance(g, ResSU3):
        return _analyze_res_su3(g, deriv)

    raise TypeError(f"unknown spec {type(g)!r}")


def _prefix(w: Witness, deriv: tuple[DerivationStep, ...]) -> Witness:
    return Witness(w.subgroup, w.embedding, deriv + w.derivation)


def _quadratic_disc(sub_poly) -> Fraction:
    # monic integer quadratic x^2 + b x + c
    b, c = sub_poly[1], sub_poly[0]
    return b * b - 4 * c


def _analyze_res_sl2(g: ResSL2, deriv: tuple[DerivationStep, ...]) -> Verdict:
    K = g.field
    w = _subfield_descent(K, K.subfields, deriv)
    if w is None and not K.subfields_complete:
        if K.degree != 4:
            return UnsupportedVerdict(
                f"no listed subfield of the degree-{K.degree} field is real"
                f" quadratic or of degree >= 3, and the proper subfields are"
                f" computed only at prime degree and for quartics"
            )
        # the resolvent cubic gives every proper subfield of a quartic
        quadratics = numfield.quadratic_subfields_of_quartic(K.defining_poly)
        w = _subfield_descent(K, quadratics.values(), deriv)
    if w is not None:
        return _not_minimal(g, w)
    return Minimal(
        "iv",
        deriv
        + (
            _step(
                "res-sl2-field-criterion",
                "every certified proper subfield is Q or imaginary quadratic"
                " and the field has at least two archimedean places",
            ),
        ),
    )


def _subfield_descent(
    K: NumberFieldCert, certs, deriv: tuple[DerivationStep, ...]
) -> Optional[Witness]:
    """The restriction of scalars from the first certified subfield that is
    neither Q nor imaginary quadratic, or None."""
    for cert in sorted(certs, key=lambda c: (polys.degree(c.sub_poly), c.sub_poly)):
        if not verify_subfield(K, cert):
            raise qgroup.InvalidSpec("subfield certificate fails verification")
        deg = polys.degree(cert.sub_poly)
        if deg <= 1 or deg >= K.degree:
            raise qgroup.InvalidSpec("subfield certificate must be proper")
        if deg == 2 and _quadratic_disc(cert.sub_poly) < 0:
            continue  # imaginary quadratic subfields are admissible
        return Witness(
            ResSL2(numfield.field_cert(cert.sub_poly)),
            SubfieldRestriction(cert),
            deriv
            + (
                _step(
                    "subfield-descent",
                    f"the certified proper subfield of degree {deg} is"
                    f" neither Q nor imaginary quadratic; the restriction of"
                    f" scalars of SL2 from it is a proper isotropic almost"
                    f" simple subgroup of real rank >= 2",
                ),
            ),
        )
    return None


def _analyze_res_su3(g: ResSU3, deriv: tuple[DerivationStep, ...]) -> Verdict:
    subs = numfield.quadratic_subfields_of_quartic(g.l_quartic.defining_poly)
    deriv = deriv + (
        _step(
            "quartic-subfield-scan",
            f"quadratic subfields of the quartic (by cubic resolvent):"
            f" classes {sorted(subs)}",
        ),
    )
    real_ds = sorted(dd for dd in subs if dd > 1)
    if real_ds:
        d0 = real_ds[0]
        fld = QuadraticField(d0)
        w = Witness(
            Unitary2(HermForm.diagonal(fld, [1, -1, -1])),
            SubfieldRestriction(subs[d0]),
            deriv
            + (
                _step(
                    "real-quadratic-descent",
                    f"the quartic contains the real quadratic field"
                    f" Q(sqrt({d0})); the quasisplit special unitary group of"
                    f" <1,-1,-1> over it is a proper isotropic almost simple"
                    f" subgroup of real rank 2",
                ),
            ),
        )
        return _not_minimal(g, w)
    return Minimal(
        "iii",
        deriv
        + (
            _step(
                "res-su3-field-criterion",
                "the quartic extension contains no real quadratic subfield",
            ),
        ),
    )


def _not_minimal(parent: GroupSpec, w: Witness) -> NotMinimal:
    rep = verify_witness(parent, w)
    if not rep.ok:
        raise InternalSoundnessError(
            f"constructed witness failed verification: {rep.failures}"
        )
    return NotMinimal(w, rep)


# --------------------------------------------------------------------------
# verify_witness


def _check(name: str, passed: bool, detail: str = "") -> VerifyCheck:
    return VerifyCheck(name, bool(passed), detail)


def _coerce_lelem(fld: QuadraticField, x) -> QuadElement:
    if isinstance(x, QuadElement):
        return x
    if isinstance(x, (tuple, list)):
        return fld.element(*x)
    return fld.element(x)


def _verify_quaternary(
    g4_diag: list[Fraction], emb: SubformIndices, w: Witness
) -> list[VerifyCheck]:
    """Checks shared by all quaternary-subform descents, given the diagonal
    rational Gram of the restricted subform."""
    out: list[VerifyCheck] = []
    a = emb.a_value
    s = _cls(a) if a != 0 else 0
    out.append(_check("represented value positive", a > 0, f"a = {a}"))
    out.append(
        _check(
            "represented value is not a rational square",
            a > 0 and s != 1,
            "a is a rational square => subgroup not almost simple"
            if a > 0 and s == 1
            else f"square class {s}",
        )
    )
    recomputed = sum(
        c * x * x for c, x in zip(emb.tail_coeffs, emb.witness_vector)
    )
    out.append(
        _check(
            "witness vector reproduces the represented value",
            recomputed == a and len(emb.tail_coeffs) == len(emb.witness_vector),
            f"recomputed {recomputed}",
        )
    )
    if any(c == 0 for c in g4_diag):
        out.append(_check("restricted subform nondegenerate", False, str(g4_diag)))
        return out
    out.append(_check("restricted subform nondegenerate", True, str(g4_diag)))
    det_cls = _cls(g4_diag[0] * g4_diag[1] * g4_diag[2] * g4_diag[3])
    out.append(
        _check(
            "subform discriminant matches the represented value",
            s != 0 and det_cls == s,
            f"discriminant class {det_cls} vs {s}",
        )
    )
    g4 = QuadForm.diagonal(g4_diag)
    out.append(
        _check(
            "restricted subform isotropic over Q",
            quadform.is_isotropic(g4, "global"),
            "",
        )
    )
    p, q = quadform.signature(g4)
    out.append(
        _check("restricted subform has signature (2,2)", (p, q) == (2, 2), f"({p},{q})")
    )
    fld, err = _so4_conversion_field(g4)
    if fld is None:
        out.append(_check("subform converts to a restriction of scalars", False, err))
    else:
        match = (
            isinstance(w.subgroup, ResSL2)
            and w.subgroup.field.defining_poly == fld.defining_poly
        )
        out.append(
            _check(
                "conversion field matches the witness field",
                match,
                f"conversion gives {fld.defining_poly}",
            )
        )
    return out


def _restricted_rational_diag(
    form: QuadForm, basis
) -> tuple[Optional[list[Fraction]], str]:
    if len(basis) != 4 or any(len(v) != form.dim for v in basis):
        return None, "basis must be four vectors of the ambient dimension"
    for i, j in itertools.combinations(range(4), 2):
        if form.bilinear(basis[i], basis[j]) != 0:
            return None, f"basis vectors {i},{j} are not orthogonal"
    return [form.value(v) for v in basis], ""


def _restricted_hermitian_diag(
    hform: HermForm, basis
) -> tuple[Optional[list[Fraction]], str]:
    if len(basis) != 4 or any(len(v) != hform.dim for v in basis):
        return None, "basis must be four vectors of the ambient dimension"
    m = hform.matrix
    for i, j in itertools.combinations(range(4), 2):
        if not _herm_eval(m, basis[i], basis[j]).is_zero():
            return None, f"basis vectors {i},{j} are not orthogonal"
    diag = []
    for v in basis:
        val = _herm_eval(m, v, v)
        if not val.is_rational():
            return None, "restricted value escaped the fixed field"
        diag.append(val.x)
    return diag, ""


def _verify_subform(parent, emb: SubformIndices, w: Witness) -> list[VerifyCheck]:
    ctx = emb.context
    if ctx is None and isinstance(parent, Orthogonal):
        diag, err = _restricted_rational_diag(parent.form, emb.basis)
        if diag is None:
            return [_check("embedding basis valid", False, err)]
        return [_check("embedding basis valid", True, "")] + _verify_quaternary(
            diag, emb, w
        )
    if ctx is None and isinstance(parent, Unitary2):
        basis = tuple(
            tuple(_coerce_lelem(parent.form.field, x) for x in v)
            for v in emb.basis
        )
        diag, err = _restricted_hermitian_diag(parent.form, basis)
        if diag is None:
            return [_check("embedding basis valid", False, err)]
        return [_check("embedding basis valid", True, "")] + _verify_quaternary(
            diag, emb, w
        )
    if isinstance(ctx, TraceRealizationContext) and isinstance(parent, Unitary1):
        if parent.form.kind != "hermitian" or q_rank(parent) < 1:
            return [
                _check(
                    "trace realization applicable",
                    False,
                    "parent has no hyperbolic quaternion-hermitian plane",
                )
            ]
        d = parent.form.algebra
        q5 = alg.b2_realization(
            d, QuatForm(d, "hermitian", (d.element(1), d.element(-1)), 0)
        )
        diag, err = _restricted_rational_diag(q5, emb.basis)
        if diag is None:
            return [_check("embedding basis valid", False, err)]
        return [
            _check("trace realization applicable", True, ""),
            _check("embedding basis valid", True, ""),
        ] + _verify_quaternary(diag, emb, w)
    return [
        _check(
            "embedding applies to the parent",
            False,
            f"subform data does not apply to {type(parent).__name__}",
        )
    ]


def _verify_subfield_element(
    parent, emb: SubfieldElement, w: Witness
) -> list[VerifyCheck]:
    if not isinstance(parent, SpecialLinear) or parent.algebra is None:
        return [
            _check(
                "embedding applies to the parent",
                False,
                "subfield-element data needs a special linear group over a"
                " quaternion algebra",
            )
        ]
    d = parent.algebra
    a_, b_ = Fraction(d.a), Fraction(d.b)
    c1, c2, c3 = emb.coords
    val = a_ * c1 * c1 + b_ * c2 * c2 - a_ * b_ * c3 * c3
    out = [
        _check("c recomputes", val == emb.c_value, f"recomputed {val}"),
        _check("c positive", val > 0, f"c = {val}"),
    ]
    s = _cls(val) if val != 0 else 0
    out.append(
        _check(
            "c is not a rational square",
            val != 0 and s != 1,
            "a is a rational square => subgroup not almost simple"
            if s == 1
            else f"class {s}",
        )
    )
    xi = d.element(0, c1, c2, c3)
    out.append(
        _check(
            "pure element squares to c",
            (xi * xi - d.element(emb.c_value)).is_zero(),
            "",
        )
    )
    out.append(
        _check(
            "witness field matches",
            isinstance(w.subgroup, ResSL2)
            and s != 0
            and w.subgroup.field.defining_poly == polys.poly([-s, 0, 1]),
            "",
        )
    )
    return out


def _verify_block(parent, emb: BlockEmbedding, w: Witness) -> list[VerifyCheck]:
    if not isinstance(parent, SpecialLinear):
        return [_check("embedding applies to the parent", False, "")]
    # SL_m over M_2(Q) is SL_2m over Q; over a division algebra D the block
    # lies in SL_m(Q), a proper subgroup of SL_m(D)
    if parent.algebra is not None and not alg.is_division(parent.algebra):
        m_eff = 2 * parent.m
    else:
        m_eff = parent.m
    proper = parent.algebra is not None or parent.m > 3
    return [
        _check(
            "block fits",
            0 <= emb.offset and emb.offset + 3 <= m_eff and proper,
            f"offset {emb.offset} in degree {m_eff}"
            + ("" if proper else "; the block is the whole group"),
        ),
        _check(
            "witness is the degree-3 special linear group",
            w.subgroup == SpecialLinear(3),
            "",
        ),
    ]


def _verify_split_so5(parent, emb: SplitSO5, w: Witness) -> list[VerifyCheck]:
    out: list[VerifyCheck] = []
    a = emb.a_value
    expected = (Fraction(1), Fraction(-1), Fraction(-1), Fraction(1), a)
    out.append(
        _check(
            "form is <1,-1,-1,1,a>",
            tuple(emb.form_coeffs) == expected,
            str(emb.form_coeffs),
        )
    )
    out.append(_check("a positive", a > 0, f"a = {a}"))
    s = _cls(a) if a != 0 else 0
    out.append(
        _check(
            "a is not a rational square",
            a > 0 and s != 1,
            "a is a rational square => subgroup not almost simple"
            if a > 0 and s == 1
            else f"class {s}",
        )
    )
    if a > 0:
        out.append(
            _check(
                "five-dimensional form is split",
                witt_index(QuadForm.diagonal(list(expected))) == 2,
                "",
            )
        )
        fld, err = _so4_conversion_field(QuadForm.diagonal([1, -1, -1, a]))
        if fld is None:
            out.append(_check("quaternary subform converts", False, err))
        else:
            out.append(
                _check(
                    "conversion field matches the witness field",
                    isinstance(w.subgroup, ResSL2)
                    and w.subgroup.field.defining_poly == fld.defining_poly,
                    "",
                )
            )
    try:
        qr = q_rank(parent)
        special_linear = isinstance(parent, SpecialLinear)
        out.append(
            _check(
                "parent has rational rank >= 2",
                qr >= 2 and not special_linear,
                f"q_rank = {qr}"
                + ("; a special linear parent takes the block witness"
                   if special_linear else ""),
            )
        )
    except (Unsupported, qgroup.InvalidSpec) as exc:
        out.append(_check("parent has rational rank >= 2", False, str(exc)))
    return out


def _verify_compositum(parent, emb: CompositumTower, w: Witness) -> list[VerifyCheck]:
    if not isinstance(parent, Unitary2Quat):
        return [_check("embedding applies to the parent", False, "")]
    out: list[VerifyCheck] = []
    f = parent.form
    d = f.l_field.d
    dp = f.inner_algebra
    a_, b_ = Fraction(dp.a), Fraction(dp.b)
    c1, c2, c3 = emb.e_coords
    val = a_ * c1 * c1 + b_ * c2 * c2 - a_ * b_ * c3 * c3
    out.append(
        _check(
            "splitting value recomputes",
            val == emb.e_value and val != 0 and _cls(val) == emb.e_class,
            f"recomputed {val}",
        )
    )
    xi = dp.element(0, c1, c2, c3)
    out.append(
        _check(
            "splitting element squares to its value",
            (xi * xi - dp.element(emb.e_value)).is_zero(),
            "",
        )
    )
    out.append(
        _check(
            "base quadratic class matches the parent",
            emb.l_class == d,
            f"{emb.l_class} vs {d}",
        )
    )
    out.append(
        _check(
            "compositum is biquadratic",
            emb.e_class not in (1, d),
            f"e class {emb.e_class}",
        )
    )
    out.append(
        _check(
            "fixed-field class recomputes",
            emb.k0_class == squarefree_part(emb.e_class * d) and emb.k0_class != 1,
            f"k0 class {emb.k0_class}",
        )
    )
    if f.rank == 2:
        sign_ok = (emb.e_class > 0) == (d > 0)
        out.append(
            _check(
                "splitting field sign matches the base field",
                sign_ok,
                f"e class {emb.e_class}, l class {d}",
            )
        )
        out.append(
            _check(
                "fixed field real",
                emb.k0_class > 0,
                f"k0 class {emb.k0_class}",
            )
        )
    else:
        out.append(
            _check(
                "splitting field imaginary when the base field is",
                d > 0 or emb.e_class < 0,
                f"e class {emb.e_class}, l class {d}",
            )
        )
    kc = emb.k_cert
    out.append(_check("compositum certificate has degree 4", kc.degree == 4, ""))
    for cls_ in (emb.e_class, d, emb.k0_class):
        target = polys.poly([-cls_, 0, 1])
        cert = next((c for c in kc.subfields if c.sub_poly == target), None)
        ok = cert is not None and verify_subfield(kc, cert)
        out.append(
            _check(
                f"compositum contains Q(sqrt({cls_}))",
                ok,
                "" if ok else "missing or invalid subfield certificate",
            )
        )
    if f.rank == 2:
        out.append(
            _check(
                "witness is the restriction of scalars of SL2 from the fixed"
                " field",
                isinstance(w.subgroup, ResSL2)
                and emb.k0_class != 1
                and w.subgroup.field.defining_poly
                == polys.poly([-emb.k0_class, 0, 1]),
                "",
            )
        )
    else:
        out.append(
            _check(
                "witness is the restriction from the fixed field of the"
                " quasisplit unitary group over the compositum",
                isinstance(w.subgroup, ResSU3)
                and w.subgroup.k_field.d == emb.k0_class
                and w.subgroup.l_quartic == kc,
                "",
            )
        )
    return out


def _verify_quartic_tower(
    parent, emb: PureQuaternionTower, w: Witness
) -> list[VerifyCheck]:
    if not isinstance(parent, Unitary1) or parent.form.kind != "skew_hermitian":
        return [_check("embedding applies to the parent", False, "")]
    out: list[VerifyCheck] = []
    f = parent.form
    i, j = emb.entry_indices
    if not (0 <= i < j < len(f.diagonal)):
        return [_check("entry indices valid", False, f"{emb.entry_indices}")]
    a3, a4 = f.diagonal[i], f.diagonal[j]
    d = f.algebra
    alpha = d.element(0, *emb.alpha_coords)
    out.append(_check("alpha nonzero and pure", not alpha.is_zero(), ""))
    anti = (a3 * alpha + alpha * a3).is_zero() and (
        a4 * alpha + alpha * a4
    ).is_zero()
    out.append(_check("alpha anticommutes with both entries", anti, ""))
    alpha_sq = -Fraction(alpha.nrd())
    dprime = emb.fprime_class
    ok_sq = (
        alpha_sq != 0
        and not is_rational_square(alpha_sq)
        and squarefree_part(alpha_sq) == dprime
    )
    out.append(
        _check(
            "alpha generates the claimed quadratic field",
            ok_sq,
            f"alpha^2 = {alpha_sq}",
        )
    )
    if not ok_sq:
        return out
    fprime = QuadraticField(dprime)
    wr = rational_sqrt(alpha_sq / dprime)
    c = fprime.element(emb.c_x, emb.c_y)
    # a3 * (c_x + c_y * alpha / wr) should equal a4
    c_in_d = d.element(emb.c_x) + (emb.c_y / wr) * alpha
    out.append(
        _check(
            "c equals the ratio of the two entries inside F'",
            (a3 * c_in_d - a4).is_zero(),
            "",
        )
    )
    minus_c = fprime.element(-c.x, -c.y)
    out.append(
        _check(
            "-c is not a square in F'",
            not numfield.is_square_in_quadfield(minus_c),
            "",
        )
    )
    kc = emb.k_cert
    out.append(_check("tower certificate has degree 4", kc.degree == 4, ""))
    if emb.k_is_biquadratic:
        ok_rational = c.y == 0
        out.append(
            _check("biquadratic tower has rational c", ok_rational, f"c = {c}")
        )
        if ok_rational:
            d2 = squarefree_part(-c.x)
            wanted = {dprime, d2, squarefree_part(Fraction(dprime * d2))}
            have = set()
            for cert in kc.subfields:
                if polys.degree(cert.sub_poly) == 2 and verify_subfield(kc, cert):
                    have.add(int(-cert.sub_poly[0]))
            out.append(
                _check(
                    "biquadratic certificate has the three expected subfields",
                    wanted <= have,
                    f"wanted {sorted(wanted)}, certified {sorted(have)}",
                )
            )
    else:
        g4 = kc.defining_poly
        even = all(
            g4[k] == 0 for k in range(1, 4, 2)
        )
        out.append(_check("tower polynomial is even", even, str(g4)))
        if even:
            B, C = g4[2], g4[0]
            delta = B * B - 4 * C
            ok_delta = delta != 0 and squarefree_part(delta) == dprime
            out.append(
                _check(
                    "tower discriminant lies in F'",
                    ok_delta,
                    f"delta = {delta}",
                )
            )
            if ok_delta:
                sdelta = fprime.element(0, rational_sqrt(delta / dprime))
                two_c = c + c
                found = False
                for sgn in (1, -1):
                    r2 = (fprime.element(-B) + sgn * sdelta) / (-two_c)
                    if r2.is_rational() and r2.x > 0 and is_rational_square(r2.x):
                        found = True
                out.append(
                    _check(
                        "tower polynomial has the root sqrt(-c) up to a"
                        " rational scale",
                        found,
                        "",
                    )
                )
    out.append(
        _check(
            "witness field is the tower certificate",
            isinstance(w.subgroup, ResSL2) and w.subgroup.field == kc,
            "",
        )
    )
    return out


def _verify_subfield_restriction(
    parent, emb: SubfieldRestriction, w: Witness
) -> list[VerifyCheck]:
    out: list[VerifyCheck] = []
    cert = emb.cert
    deg = polys.degree(cert.sub_poly)
    if isinstance(parent, ResSL2):
        out.append(
            _check(
                "subfield certificate verifies in the parent field",
                verify_subfield(parent.field, cert),
                "",
            )
        )
        out.append(
            _check(
                "subfield proper",
                1 < deg < parent.field.degree,
                f"degree {deg} in degree {parent.field.degree}",
            )
        )
        inadmissible = deg > 2 or (deg == 2 and _quadratic_disc(cert.sub_poly) > 0)
        out.append(
            _check(
                "subfield is neither Q nor imaginary quadratic",
                inadmissible,
                f"degree {deg}",
            )
        )
        out.append(
            _check(
                "witness field matches the certificate",
                isinstance(w.subgroup, ResSL2)
                and w.subgroup.field.defining_poly == cert.sub_poly,
                "",
            )
        )
        return out
    if isinstance(parent, ResSU3):
        out.append(
            _check(
                "subfield certificate verifies in the quartic",
                verify_subfield(parent.l_quartic, cert),
                "",
            )
        )
        is_quad = deg == 2 and cert.sub_poly[1] == 0
        d0 = int(-cert.sub_poly[0]) if is_quad else 0
        out.append(
            _check(
                "subfield is real quadratic",
                is_quad and d0 > 1,
                str(cert.sub_poly),
            )
        )
        ok_w = (
            isinstance(w.subgroup, Unitary2)
            and w.subgroup.form.field.d == d0
            and qgroup.diagonalize_hermitian(w.subgroup.form)[0]
            == (Fraction(1), Fraction(-1), Fraction(-1))
        )
        out.append(
            _check(
                "witness is the quasisplit ternary unitary group over the"
                " subfield",
                ok_w,
                "",
            )
        )
        return out
    return [_check("embedding applies to the parent", False, "")]


def verify_witness(parent: GroupSpec, w: Witness) -> VerifyReport:
    """Re-validate a witness with fresh computations: the embedding data
    evaluates inside the parent, and the witness subgroup is isotropic,
    almost simple, and of real rank at least 2."""
    checks: list[VerifyCheck] = []
    emb = w.embedding
    if isinstance(emb, SubformIndices):
        checks.extend(_verify_subform(parent, emb, w))
    elif isinstance(emb, SubfieldElement):
        checks.extend(_verify_subfield_element(parent, emb, w))
    elif isinstance(emb, BlockEmbedding):
        checks.extend(_verify_block(parent, emb, w))
    elif isinstance(emb, SplitSO5):
        checks.extend(_verify_split_so5(parent, emb, w))
    elif isinstance(emb, CompositumTower):
        checks.extend(_verify_compositum(parent, emb, w))
    elif isinstance(emb, PureQuaternionTower):
        checks.extend(_verify_quartic_tower(parent, emb, w))
    elif isinstance(emb, SubfieldRestriction):
        checks.extend(_verify_subfield_restriction(parent, emb, w))
    else:
        checks.append(_check("embedding kind known", False, str(type(emb))))

    try:
        qr = q_rank(w.subgroup)
        checks.append(_check("witness q_rank >= 1", qr >= 1, f"q_rank = {qr}"))
    except (Unsupported, qgroup.InvalidSpec) as exc:
        checks.append(_check("witness q_rank >= 1", False, str(exc)))
    try:
        rr = real_rank(w.subgroup)
        checks.append(
            _check("witness real_rank >= 2", rr >= 2, f"real_rank = {rr}")
        )
    except Unsupported as exc:
        checks.append(_check("witness real_rank >= 2", False, str(exc)))
    try:
        is_absolutely_almost_simple(w.subgroup)
        checks.append(_check("witness almost simple", True, ""))
    except (NotAlmostSimple, Unsupported) as exc:
        checks.append(_check("witness almost simple", False, str(exc)))
    ok = all(c.passed for c in checks)
    return VerifyReport(ok, tuple(checks))
