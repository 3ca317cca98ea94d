"""Verdict engine: decides minimality of an isotropic almost-simple group
over Q and constructs witness subgroups.

A NotMinimal verdict always carries a Witness: a proper isotropic almost
simple subgroup with real rank at least 2, plus embedding data that
re-validates by exact arithmetic inside the parent.  The certificate types
and verify_witness live in almin.verify, which shares no code with the
builders here; each built witness is verified there before it is returned.
A quaternary descent puts its hyperbolic pair first in the embedding basis,
which is where the verifier reads isotropy from.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction
from typing import Optional, Union

from . import algebra as alg
from . import numfield, polys, qgroup, quadform
from .algebra import HermForm, QuatForm, QuaternionAlgebra, is_ramified_at_infinity
from .arith import is_rational_square, rats_to_str, squarefree_part
from .numfield import (
    NumberFieldCert,
    QuadElement,
    QuadraticField,
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
from .quadform import QuadForm, represent_constrained
from .value import Value

# the certificate types, also read as almin.minimal.X by callers
from .verify import (
    BlockEmbedding,
    CompositumTower,
    DerivationStep,
    PureQuaternionTower,
    SplitSO5,
    SubfieldElement,
    SubfieldRestriction,
    SubformIndices,
    VerifyCheck,
    VerifyReport,
    Witness,
    verify_witness,
)


class InternalSoundnessError(AssertionError):
    """A constructed witness failed its own verification."""


# --------------------------------------------------------------------------
# Verdicts


class Minimal(Value):
    matched_case: str  # one of "i", "ii", "iii", "iv"
    derivation: tuple[DerivationStep, ...]


class NotMinimal(Value):
    witness: Witness
    report: VerifyReport  # verify_witness of the witness inside the parent


class NotApplicable(Value):
    reason: str


class UnsupportedVerdict(Value):
    reason: str


Verdict = Union[Minimal, NotMinimal, NotApplicable, UnsupportedVerdict]


def _step(rule: str, detail: str) -> DerivationStep:
    return DerivationStep(rule, detail)


# --------------------------------------------------------------------------
# Small helpers


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
        if is_rational_square(-coeffs[i] * coeffs[j]):
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
            f" scaled tail {rats_to_str(tail_coeffs)}",
        )
    )
    rep = represent_constrained(tail_coeffs)
    a = rep.value
    w4 = quadform.combine(rep.vector, [vec for vec, _ in tail])
    s = a.numerator * a.denominator  # a times den^2: the class of a, unfactored
    deriv.append(
        _step(
            "represent-positive-nonsquare",
            f"a = {a} (class {s}) at tail vector {rats_to_str(rep.vector)}",
        )
    )
    sub = ResSL2(quadratic_field_cert(s))
    emb = SubformIndices((w1, w2, w3, w4))
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
            f" scaled tail {rats_to_str(tail_t)}",
        )
    )
    rep = represent_constrained(trace_coeffs)
    a = rep.value
    s = a.numerator * a.denominator  # a times den^2: the class of a, unfactored
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
            f" coefficient vector {rats_to_str(rep.vector)}",
        )
    )
    p1, p2, w3, w4 = (_lvec_combine(y, basis) for y in (p1, p2, w3, w4))
    sub = ResSL2(quadratic_field_cert(s))
    emb = SubformIndices((p1, p2, w3, w4))
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
            f"c = a c1^2 + b c2^2 - a b c3^2 = {sp.value} at"
            f" {rats_to_str(sp.witness)} is positive, so Q(sqrt({s})) embeds in the algebra and its"
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
        SubfieldElement(sp.witness),
        tuple(deriv),
    )


def _split_so5_witness(detail: str) -> Witness:
    a = 2  # the least squarefree integer > 1
    deriv = (
        _step("split-rank-2-reduction", detail),
        _step(
            "split-so5",
            f"the split five-dimensional form <1,-1,-1,1,{a}> realizes the"
            f" split rank-2 subgroup; its quaternary subform <1,-1,-1,{a}>"
            f" carries the restriction of scalars of SL2 from Q(sqrt({a}))",
        ),
    )
    return Witness(ResSL2(quadratic_field_cert(a)), SplitSO5(), deriv)


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
    emb = CompositumTower(e_class=e, e_coords=sp.witness, k0_class=k0, k_cert=kc)
    deriv = [
        _step(
            "splitting-field-compositum",
            f"E = Q(sqrt({e})) splits the inner quaternion algebra (pure norm"
            f" value {sp.value} at {rats_to_str(sp.witness)}, sign constraint"
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
        alpha = sr.alpha
        emb = PureQuaternionTower(
            entry_indices=(i, j),
            alpha_coords=(Fraction(alpha.x), Fraction(alpha.y), Fraction(alpha.z)),
            fprime_class=sr.fprime.d,
            c_x=sr.c.x,
            c_y=sr.c.y,
            k_cert=sr.k_cert,
        )
        deriv = (
            _step(
                "pure-quaternion-tower",
                f"alpha = {rats_to_str((alpha.t, alpha.x, alpha.y, alpha.z))}"
                f" anticommutes with skew entries {i},{j};"
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
    deriv = (
        _step(
            "b2-trace-realization",
            "the rank-2 hyperbolic quaternion-hermitian subgroup is realized"
            " as the special orthogonal group of the 5-dimensional trace"
            " form on symmetric trace-zero endomorphisms",
        ),
    ) + inner.derivation
    return Witness(inner.subgroup, inner.embedding, deriv)


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
