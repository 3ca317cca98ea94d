"""Witness verifier: re-checks a NotMinimal witness inside its parent from
the witness data alone.

The certificate types live here: the seven embedding kinds, the Witness with
its derivation steps, and the VerifyReport of named checks.  serde writes
each from its fields: a record's document keys are its field names, and
each field's annotation, as written here, names its codec.  minimal builds
witnesses of these types; this module imports nothing from it, and no
function that verify_witness reaches names a witness builder, an isotropy
test or a Witt-index computation.  A quaternary descent is read off its
basis: the first two vectors are a hyperbolic pair, the restriction is
diagonal, and its discriminant class is the class of the represented value
a, read off num * den = a den^2, so the conversion field is Q(sqrt(a)):
classes are compared by testing products for squares, and nothing on this
path is factored.  The witness subgroup is never re-ranked: one check of
each kind pins it to a named group (see verify_witness).  The rank engine
runs only on the parent, for a split-so5 witness and a trace realization.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Optional, Union

from . import algebra as alg
from . import numfield, polys, qgroup
from .algebra import HermForm, QuatForm, QuaternionAlgebra
from .arith import is_rational_square, rational_sqrt, rats_to_str, squarefree_part
from .numfield import (
    NumberFieldCert,
    QuadElement,
    QuadraticField,
    SubfieldCert,
    verify_subfield,
)
from .qgroup import (
    GroupSpec,
    Orthogonal,
    ResSL2,
    ResSU3,
    SpecialLinear,
    Unitary1,
    Unitary2,
    Unitary2Quat,
    Unsupported,
    q_rank,
)
from .quadform import QuadForm
from .value import Value


# --------------------------------------------------------------------------
# Embedding data


class TraceRealizationContext(Value):
    """Subform vectors live in the 5-dimensional trace realization of the
    hyperbolic quaternion-hermitian plane of the parent (recomputed fresh
    during verification)."""


class SubformIndices(Value):
    """Four pairwise-orthogonal vectors spanning a quaternary subform whose
    special orthogonal group is the restriction of scalars of SL2 named by
    the witness; a_value is the represented value produced by the witness
    vector on the tail coefficients.  The first two vectors are a hyperbolic
    pair (-q(w1) q(w2) is a nonzero square): the verifier reads isotropy
    from them, and the discriminant class from a."""

    basis: tuple[tuple, ...]
    tail_coeffs: tuple[Fraction, ...]
    a_value: Fraction
    witness_vector: tuple[Fraction, ...]
    context: Optional[TraceRealizationContext] = None


class SubfieldElement(Value):
    """c = a c1^2 + b c2^2 - a b c3^2: a square inside the quaternion algebra
    generating the quadratic field of the witness."""

    c_value: Fraction
    coords: tuple[Fraction, Fraction, Fraction]


class BlockEmbedding(Value):
    """A 3x3 coordinate block of a special linear group."""

    offset: int = 0


class SplitSO5(Value):
    """The split five-dimensional form <1,-1,-1,1,a> inside a group of
    rational rank at least 2, with the chosen positive nonsquare a; the
    pairs (c0, c1) and (c2, c3) of form_coeffs are its two hyperbolic
    planes."""

    form_coeffs: tuple[Fraction, ...]
    a_value: Fraction


class CompositumTower(Value):
    """K = E.L with K0 the fixed field of the product conjugation; E is a
    splitting field of the inner quaternion algebra, certified by the
    represented value e_value of its pure norm form."""

    e_value: Fraction
    e_class: int
    e_coords: tuple[Fraction, Fraction, Fraction]
    l_class: int
    k0_class: int
    k_cert: NumberFieldCert


class PureQuaternionTower(Value):
    """alpha anticommutes with the two chosen skew diagonal entries; F' is
    the quadratic field it generates, c = a3^{-1} a4 in F', and k_cert
    certifies K = F'(sqrt(-c)) of degree 4."""

    entry_indices: tuple[int, int]
    alpha_coords: tuple[Fraction, Fraction, Fraction]
    fprime_class: int
    c_x: Fraction
    c_y: Fraction
    k_cert: NumberFieldCert
    k_is_biquadratic: bool = False


class SubfieldRestriction(Value):
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
# Witnesses and reports


class DerivationStep(Value):
    rule: str
    detail: str


class Witness(Value):
    subgroup: GroupSpec
    embedding: EmbeddingData
    derivation: tuple[DerivationStep, ...] = ()


class VerifyCheck(Value):
    name: str
    passed: bool
    detail: str


class VerifyReport(Value):
    ok: bool
    checks: tuple[VerifyCheck, ...]

    @property
    def failures(self) -> tuple[VerifyCheck, ...]:
        return tuple(c for c in self.checks if not c.passed)


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


_SQUARE_VALUE = "a is a rational square => subgroup not almost simple"


def _res_sl2_from(w: Witness, d: int) -> bool:
    """The witness is the restriction of scalars of SL2 from Q(sqrt(d)): its
    field is x^2 - c for any c with c d a nonzero rational square."""
    f = w.subgroup.field.defining_poly if isinstance(w.subgroup, ResSL2) else ()
    return len(f) == 3 and f[1] == 0 and f[0] * d != 0 and is_rational_square(-f[0] * d)


def _pure_square(d: QuaternionAlgebra, coords: tuple[Fraction, Fraction, Fraction]):
    """The value a c1^2 + b c2^2 - a b c3^2 that xi = c1 i + c2 j + c3 ij
    squares to in the quaternion algebra d = (a, b): the cross terms cancel,
    since i, j and ij anticommute pairwise."""
    a_, b_ = Fraction(d.a), Fraction(d.b)
    c1, c2, c3 = coords
    return a_ * c1 * c1 + b_ * c2 * c2 - a_ * b_ * c3 * c3


def _verify_quaternary(
    g4_diag: list[Fraction], emb: SubformIndices, w: Witness
) -> list[VerifyCheck]:
    """Checks shared by all quaternary-subform descents, given the diagonal
    rational Gram of the restricted subform.  Its first two vectors must be
    a hyperbolic pair.  Its discriminant class c is read off num * den of
    det, or of a when det * a is a square, and the conversion field is
    Q(sqrt(c)); nothing here is factored."""
    a = emb.a_value
    s = a.numerator * a.denominator
    square = a > 0 and is_rational_square(a)
    recomputed = sum(c * x * x for c, x in zip(emb.tail_coeffs, emb.witness_vector))
    out = [
        _check(
            "represented value is not a rational square",
            a > 0 and not square,
            _SQUARE_VALUE if square else f"square class {s}",
        ),
        _check(
            "witness vector reproduces the represented value",
            recomputed == a and len(emb.tail_coeffs) == len(emb.witness_vector),
            f"recomputed {recomputed}",
        ),
        _check(
            "restricted subform nondegenerate", 0 not in g4_diag, rats_to_str(g4_diag)
        ),
    ]
    if 0 in g4_diag:
        return out
    det = g4_diag[0] * g4_diag[1] * g4_diag[2] * g4_diag[3]
    disc_ok = a != 0 and is_rational_square(det * a)
    c = s if disc_ok else det.numerator * det.denominator
    # <g0, g1> is a hyperbolic plane: -g0 g1 is a square, and neither is 0
    isotropic = is_rational_square(-g4_diag[0] * g4_diag[1])
    out += [
        _check(
            "subform discriminant matches the represented value",
            disc_ok,
            f"discriminant class {c} vs {s}",
        ),
        _check("restricted subform isotropic over Q", isotropic),
    ]
    # a square c fails the class or discriminant check, and a pair that is
    # not hyperbolic the isotropy check, so the conversion is read past both
    if isotropic and not is_rational_square(c):
        out.append(
            _check(
                "conversion field matches the witness field",
                _res_sl2_from(w, c),
                f"conversion gives {rats_to_str((-c, 0, 1))}",
            )
        )
    return out


def _restricted_rational_diag(
    form: QuadForm, basis
) -> tuple[Optional[list[Fraction]], str]:
    if len(basis) != 4 or any(len(v) != form.dim for v in basis):
        return None, "basis must be four vectors of the ambient dimension"
    if any(isinstance(x, tuple) for v in basis for x in v):
        return None, "a basis entry is a field pair, not a rational"
    for i, j in itertools.combinations(range(4), 2):
        if form.bilinear(basis[i], basis[j]) != 0:
            return None, f"basis vectors {i},{j} are not orthogonal"
    return [form.value(v) for v in basis], ""


def _restricted_hermitian_diag(
    hform: HermForm, basis
) -> tuple[Optional[list[Fraction]], str]:
    if len(basis) != 4 or any(len(v) != hform.dim for v in basis):
        return None, "basis must be four vectors of the ambient dimension"
    zero = hform.field.element(0)

    def dot(xs, ys):
        return sum(
            (x * y for x, y in zip(xs, ys) if not (x.is_zero() or y.is_zero())), zero
        )

    # h(u, v) = sum conj(u_k) (m v)_k, with m v formed once per vector
    images = [tuple(dot(row, v) for row in hform.matrix) for v in basis]

    def h(u, mv):
        return dot((x.conj() for x in u), mv)

    for i, j in itertools.combinations(range(4), 2):
        if not h(basis[i], images[j]).is_zero():
            return None, f"basis vectors {i},{j} are not orthogonal"
    diag = []
    for v, mv in zip(basis, images):
        val = h(v, mv)
        if not val.is_rational():
            return None, "restricted value escaped the fixed field"
        diag.append(val.x)
    return diag, ""


def _verify_subform(parent, emb: SubformIndices, w: Witness) -> list[VerifyCheck]:
    ctx = emb.context
    out: list[VerifyCheck] = []
    if ctx is None and isinstance(parent, Orthogonal):
        diag, err = _restricted_rational_diag(parent.form, emb.basis)
    elif ctx is None and isinstance(parent, Unitary2):
        fld = parent.form.field
        basis = tuple(tuple(_coerce_lelem(fld, x) for x in v) for v in emb.basis)
        diag, err = _restricted_hermitian_diag(parent.form, basis)
    elif isinstance(ctx, TraceRealizationContext) and isinstance(parent, Unitary1):
        if parent.form.kind != "hermitian" or q_rank(parent) < 1:
            no_plane = "parent has no hyperbolic quaternion-hermitian plane"
            return [_check("trace realization applicable", False, no_plane)]
        out.append(_check("trace realization applicable", True))
        d = parent.form.algebra
        h2 = QuatForm(d, "hermitian", (d.element(1), d.element(-1)), 0)
        diag, err = _restricted_rational_diag(alg.b2_realization(d, h2), emb.basis)
    else:
        other = f"subform data does not apply to {type(parent).__name__}"
        return [_check("embedding applies to the parent", False, other)]
    out.append(_check("embedding basis valid", diag is not None, err))
    return out if diag is None else out + _verify_quaternary(diag, emb, w)


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
    val = _pure_square(parent.algebra, emb.coords)
    s = val.numerator * val.denominator
    square = val != 0 and is_rational_square(val)
    return [
        _check("c recomputes", val == emb.c_value, f"recomputed {val}"),
        _check("c positive", val > 0, f"c = {val}"),
        _check(
            "c is not a rational square",
            val != 0 and not square,
            _SQUARE_VALUE if square else f"class {s}",
        ),
        _check("witness field matches", s != 0 and _res_sl2_from(w, s)),
    ]


def _verify_block(parent, emb: BlockEmbedding, w: Witness) -> list[VerifyCheck]:
    if not isinstance(parent, SpecialLinear):
        return [_check("embedding applies to the parent", False)]
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
        ),
    ]


def _verify_split_so5(parent, emb: SplitSO5, w: Witness) -> list[VerifyCheck]:
    """The witness's own form is <1,-1,-1,1,a> with a > 0, so split: <1,-1>
    and <-1,1> are hyperbolic pairs.  Its quaternary subform <1,-1,-1,a>
    has discriminant class a, printed as num * den, and converts to the
    restriction of scalars of SL2 from Q(sqrt(a))."""
    a = emb.a_value
    coeffs = tuple(emb.form_coeffs)
    s = a.numerator * a.denominator
    square = a > 0 and is_rational_square(a)
    out = [
        _check(
            "form is <1,-1,-1,1,a>",
            coeffs == (1, -1, -1, 1, a),
            rats_to_str(coeffs),
        ),
        _check(
            "a is not a rational square",
            a > 0 and not square,
            _SQUARE_VALUE if square else f"class {s}",
        ),
    ]
    if a > 0 and not square:
        field_ok = _res_sl2_from(w, s)
        out.append(_check("conversion field matches the witness field", field_ok))
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
        return [_check("embedding applies to the parent", False)]
    f = parent.form
    d = f.l_field.d
    dp = f.inner_algebra
    e, k0 = emb.e_class, emb.k0_class
    val = _pure_square(dp, emb.e_coords)
    out = [
        _check(
            "splitting value recomputes",
            val == emb.e_value and val != 0 and squarefree_part(val) == e,
            f"recomputed {val}",
        ),
        _check(
            "base quadratic class matches the parent",
            emb.l_class == d,
            f"{emb.l_class} vs {d}",
        ),
        _check("compositum is biquadratic", e not in (1, d), f"e class {e}"),
        _check(
            "fixed-field class recomputes",
            k0 == squarefree_part(e * d) and k0 != 1,
            f"k0 class {k0}",
        ),
    ]
    signs = f"e class {e}, l class {d}"
    if f.rank == 2:
        out += [
            _check(
                "splitting field sign matches the base field",
                (e > 0) == (d > 0),
                signs,
            ),
            _check("fixed field real", k0 > 0, f"k0 class {k0}"),
        ]
    else:
        out.append(
            _check(
                "splitting field imaginary when the base field is",
                d > 0 or e < 0,
                signs,
            )
        )
    kc = emb.k_cert
    out.append(_check("compositum certificate has degree 4", kc.degree == 4))
    for cls_ in (e, d, k0):
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
                "witness is the restriction of scalars of SL2 from the fixed field",
                k0 != 1 and _res_sl2_from(w, k0),
            )
        )
    else:
        out.append(
            _check(
                "witness is the restriction from the fixed field of the"
                " quasisplit unitary group over the compositum",
                isinstance(w.subgroup, ResSU3)
                and w.subgroup.k_field.d == k0
                and w.subgroup.l_quartic == kc,
            )
        )
    return out


def _verify_quartic_tower(
    parent, emb: PureQuaternionTower, w: Witness
) -> list[VerifyCheck]:
    if not isinstance(parent, Unitary1) or parent.form.kind != "skew_hermitian":
        return [_check("embedding applies to the parent", False)]
    f = parent.form
    i, j = emb.entry_indices
    if not (0 <= i < j < len(f.diagonal)):
        return [_check("entry indices valid", False, f"{emb.entry_indices}")]
    a3, a4 = f.diagonal[i], f.diagonal[j]
    d = f.algebra
    alpha = d.element(0, *emb.alpha_coords)
    anti = (a3 * alpha + alpha * a3).is_zero() and (a4 * alpha + alpha * a4).is_zero()
    alpha_sq = -Fraction(alpha.nrd())
    dprime = emb.fprime_class
    ok_sq = (
        alpha_sq != 0
        and not is_rational_square(alpha_sq)
        and squarefree_part(alpha_sq) == dprime
    )
    out = [
        _check("alpha anticommutes with both entries", anti),
        _check(
            "alpha generates the claimed quadratic field",
            ok_sq,
            f"alpha^2 = {alpha_sq}",
        ),
    ]
    if not ok_sq:
        return out
    fprime = QuadraticField(dprime)
    wr = rational_sqrt(alpha_sq / dprime)
    c = fprime.element(emb.c_x, emb.c_y)
    # a3 * (c_x + c_y * alpha / wr) should equal a4
    c_in_d = d.element(emb.c_x) + (emb.c_y / wr) * alpha
    ratio_ok = (a3 * c_in_d - a4).is_zero()
    minus_c = fprime.element(-c.x, -c.y)
    kc = emb.k_cert
    out += [
        _check("c equals the ratio of the two entries inside F'", ratio_ok),
        _check(
            "-c is not a square in F'", not numfield.is_square_in_quadfield(minus_c)
        ),
        _check("tower certificate has degree 4", kc.degree == 4),
    ]
    if emb.k_is_biquadratic:
        ok_rational = c.y == 0
        out.append(_check("biquadratic tower has rational c", ok_rational, f"c = {c}"))
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
        even = all(c == 0 for c in g4[1::2])
        out.append(_check("tower polynomial is even", even, rats_to_str(g4)))
        if even:
            B, C = g4[2], g4[0]
            delta = B * B - 4 * C
            ok_delta = delta != 0 and squarefree_part(delta) == dprime
            out.append(
                _check("tower discriminant lies in F'", ok_delta, f"delta = {delta}")
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
                    )
                )
    out.append(
        _check(
            "witness field is the tower certificate",
            isinstance(w.subgroup, ResSL2) and w.subgroup.field == kc,
        )
    )
    return out


def _verify_subfield_restriction(
    parent, emb: SubfieldRestriction, w: Witness
) -> list[VerifyCheck]:
    cert = emb.cert
    deg = polys.degree(cert.sub_poly)
    if isinstance(parent, ResSL2):
        # the monic x^2 + b x + c is real quadratic when b^2 - 4c > 0
        inadmissible = deg > 2 or (
            deg == 2 and cert.sub_poly[1] ** 2 - 4 * cert.sub_poly[0] > 0
        )
        return [
            _check(
                "subfield certificate verifies in the parent field",
                verify_subfield(parent.field, cert),
            ),
            _check(
                "subfield proper",
                1 < deg < parent.field.degree,
                f"degree {deg} in degree {parent.field.degree}",
            ),
            _check(
                "subfield is neither Q nor imaginary quadratic",
                inadmissible,
                f"degree {deg}",
            ),
            _check(
                "witness field matches the certificate",
                isinstance(w.subgroup, ResSL2)
                and w.subgroup.field.defining_poly == cert.sub_poly,
            ),
        ]
    if isinstance(parent, ResSU3):
        is_quad = deg == 2 and cert.sub_poly[1] == 0
        d0 = int(-cert.sub_poly[0]) if is_quad else 0
        ok_w = (
            isinstance(w.subgroup, Unitary2)
            and w.subgroup.form.field.d == d0
            and qgroup.diagonalize_hermitian(w.subgroup.form)[0]
            == (Fraction(1), Fraction(-1), Fraction(-1))
        )
        return [
            _check(
                "subfield certificate verifies in the quartic",
                verify_subfield(parent.l_quartic, cert),
            ),
            _check(
                "subfield is real quadratic",
                is_quad and d0 > 1,
                rats_to_str(cert.sub_poly),
            ),
            _check(
                "witness is the quasisplit ternary unitary group over the subfield",
                ok_w,
            ),
        ]
    return [_check("embedding applies to the parent", False)]


def verify_witness(parent: GroupSpec, w: Witness) -> VerifyReport:
    """Re-validate a witness with fresh computations: the embedding data
    evaluates inside the parent, and one check of each kind pins the witness
    subgroup to an isotropic, almost simple group of real rank >= 2, so the
    subgroup is not re-ranked.  The field check (_res_sl2_from, with k > 0 a
    nonsquare by the checks before it) names ResSL2 over a real quadratic
    field for a subform, split-so5, subfield element or rank-2 compositum;
    a block names SL3; a compositum of other rank ResSU3 over its certified
    quartic; a tower ResSL2 over its quartic, with r1 + r2 >= 2; a subfield
    restriction ResSL2 over a real quadratic or higher-degree subfield, or
    SU of <1,-1,-1> over a real quadratic field.  Every kind reports a
    check, so ok is never vacuous."""
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
    ok = all(c.passed for c in checks)
    return VerifyReport(ok, tuple(checks))
