"""Witness verifier: re-checks a NotMinimal witness inside its parent from
the witness data alone.

The certificate types live here: the seven embedding kinds, the Witness with
its derivation steps, and the VerifyReport of named checks.  serde writes
each from its fields: a record's document keys are its field names, and
each field's annotation, as written here, names its codec.  minimal builds
witnesses of these types; this module imports nothing from it, and no
function that verify_witness reaches names a witness builder, an isotropy
test or a Witt-index computation.  An embedding record holds only the
choices that built the witness (vectors, coordinates, square classes and
field certificates); every value that follows from them and the parent is
computed here, not read.  A quaternary descent is read off its basis: the
first two vectors are a hyperbolic pair, the restriction is diagonal, and
its discriminant class is read off num * den = det den^2 of its
determinant, so the conversion field is Q(sqrt(det)): classes are compared
by testing products for squares, and nothing on this path is factored.
The witness subgroup is never re-ranked: one check of each kind pins it to
a named group (see verify_witness).  The rank engine runs only on the
parent, for a split-so5 witness and a trace realization.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Optional, Union

from . import algebra as alg
from . import polys, qgroup
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
from .quadform import QuadForm, restrict
from .value import Value


# --------------------------------------------------------------------------
# Embedding data


class SubformIndices(Value):
    """Four pairwise-orthogonal vectors spanning a quaternary subform whose
    special orthogonal group is the restriction of scalars of SL2 named by
    the witness.  They live in the parent's own form, in the hermitian form
    of a Unitary2 parent, or in the 5-dimensional trace realization of the
    hyperbolic quaternion-hermitian plane of a Unitary1 parent.  The first
    two vectors are a hyperbolic pair (-q(w1) q(w2) is a nonzero square):
    the verifier reads isotropy from them, and the discriminant class from
    the determinant of the restriction."""

    basis: tuple[tuple, ...]


class SubfieldElement(Value):
    """xi = c1 i + c2 j + c3 ij squares to c = a c1^2 + b c2^2 - a b c3^2 in
    the quaternion algebra, so generates the quadratic field of the
    witness."""

    coords: tuple[Fraction, Fraction, Fraction]


class BlockEmbedding(Value):
    """A 3x3 coordinate block of a special linear group."""

    offset: int = 0


class SplitSO5(Value):
    """The split five-dimensional form <1,-1,-1,1,a> inside a group of
    rational rank at least 2, where Q(sqrt(a)) is the witness's real
    quadratic field: <1,-1> and <-1,1> are its two hyperbolic planes."""


class CompositumTower(Value):
    """K = E.L with K0 the fixed field of the product conjugation; E is a
    splitting field of the inner quaternion algebra, certified by the value
    of its pure norm form at e_coords."""

    e_class: int
    e_coords: tuple[Fraction, Fraction, Fraction]
    k0_class: int
    k_cert: NumberFieldCert


class PureQuaternionTower(Value):
    """alpha anticommutes with the two chosen skew diagonal entries; F' is
    the quadratic field it generates, c = a3^{-1} a4 in F', and k_cert
    certifies K = F'(sqrt(-c)) of degree 4, biquadratic when c is
    rational."""

    entry_indices: tuple[int, int]
    alpha_coords: tuple[Fraction, Fraction, Fraction]
    fprime_class: int
    c_x: Fraction
    c_y: Fraction
    k_cert: NumberFieldCert


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


def _res_sl2_constant(w: Witness) -> Optional[Fraction]:
    """k when the witness is the restriction of scalars of SL2 from
    Q[x]/(x^2 - k), else None."""
    f = w.subgroup.field.defining_poly if isinstance(w.subgroup, ResSL2) else ()
    return -f[0] if len(f) == 3 and f[1] == 0 else None


def _res_sl2_from(w: Witness, d: int) -> bool:
    """The witness is the restriction of scalars of SL2 from Q(sqrt(d)): its
    field is x^2 - k for any k with k d a nonzero rational square."""
    k = _res_sl2_constant(w)
    return k is not None and k * d != 0 and is_rational_square(k * d)


def _pure_square(d: QuaternionAlgebra, coords: tuple[Fraction, Fraction, Fraction]):
    """The value a c1^2 + b c2^2 - a b c3^2 that xi = c1 i + c2 j + c3 ij
    squares to in the quaternion algebra d = (a, b): the cross terms cancel,
    since i, j and ij anticommute pairwise."""
    a_, b_ = Fraction(d.a), Fraction(d.b)
    c1, c2, c3 = coords
    return a_ * c1 * c1 + b_ * c2 * c2 - a_ * b_ * c3 * c3


def _verify_quaternary(g4_diag: list[Fraction], w: Witness) -> list[VerifyCheck]:
    """Checks shared by all quaternary-subform descents, given the diagonal
    rational Gram of the restricted subform.  Its first two vectors must be
    a hyperbolic pair, and its determinant det a positive nonsquare: then
    its discriminant class c is read off num * den of det, and the
    conversion field is Q(sqrt(c)); nothing here is factored."""
    out = [
        _check(
            "restricted subform nondegenerate", 0 not in g4_diag, rats_to_str(g4_diag)
        ),
    ]
    if 0 in g4_diag:
        return out
    det = g4_diag[0] * g4_diag[1] * g4_diag[2] * g4_diag[3]
    c = det.numerator * det.denominator
    disc_ok = det > 0 and not is_rational_square(det)
    # <g0, g1> is a hyperbolic plane: -g0 g1 is a square, and neither is 0
    isotropic = is_rational_square(-g4_diag[0] * g4_diag[1])
    out += [
        _check(
            "subform discriminant is a positive nonsquare",
            disc_ok,
            f"discriminant class {c}",
        ),
        _check("restricted subform isotropic over Q", isotropic),
    ]
    # a bad discriminant or a pair that is not hyperbolic has already failed,
    # so the conversion is read past both
    if isotropic and disc_ok:
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
    g = restrict(form, basis).gram
    for i, j in itertools.combinations(range(4), 2):
        if g[i][j] != 0:
            return None, f"basis vectors {i},{j} are not orthogonal"
    return [g[i][i] for i in range(4)], ""


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
    out: list[VerifyCheck] = []
    if isinstance(parent, Orthogonal):
        diag, err = _restricted_rational_diag(parent.form, emb.basis)
    elif isinstance(parent, Unitary2):
        fld = parent.form.field
        basis = tuple(tuple(_coerce_lelem(fld, x) for x in v) for v in emb.basis)
        diag, err = _restricted_hermitian_diag(parent.form, basis)
    elif isinstance(parent, Unitary1):
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
    return out if diag is None else out + _verify_quaternary(diag, w)


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
    return [
        _check("c positive", val > 0, f"c = {val}"),
        _check("witness field matches", _res_sl2_from(w, val.numerator * val.denominator)),
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
    """For the witness's field Q(sqrt(a)) with a > 0, the form <1,-1,-1,1,a>
    is split: <1,-1> and <-1,1> are hyperbolic pairs.  Its quaternary
    subform <1,-1,-1,a> has discriminant class a and converts to the
    restriction of scalars of SL2 from Q(sqrt(a)); a is not a square, since
    the witness's field certificate proves x^2 - a irreducible."""
    k = _res_sl2_constant(w)
    out = [
        _check(
            "witness is the restriction of scalars of SL2 from a real quadratic"
            " field",
            k is not None and k > 0,
        )
    ]
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
            "splitting value has the claimed class",
            val != 0 and squarefree_part(val) == e,
            f"recomputed {val}",
        ),
        _check(
            "fixed-field class recomputes",
            e != 0 and k0 == squarefree_part(e * d) and k0 != 1,
            f"k0 class {k0}",
        ),
    ]
    if f.rank == 2:
        out.append(_check("fixed field real", k0 > 0, f"k0 class {k0}"))
    else:
        out.append(
            _check(
                "splitting field imaginary when the base field is",
                d > 0 or e < 0,
                f"e class {e}, l class {d}",
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
    kc = emb.k_cert
    out += [
        _check("c equals the ratio of the two entries inside F'", ratio_ok),
        _check("tower certificate has degree 4", kc.degree == 4),
    ]
    # -c needs no test for being a square in F': a square root there would
    # put 1 among the wanted classes below (rational c), or a root of
    # degree 2 into the irreducible certified quartic
    if c.y == 0:
        have = set()
        for cert in kc.subfields:
            if polys.degree(cert.sub_poly) == 2 and verify_subfield(kc, cert):
                have.add(int(-cert.sub_poly[0]))
        if c.x == 0:  # no square class; the ratio check has failed (a4 != 0)
            ok, detail = False, "c = 0"
        else:
            d2 = squarefree_part(-c.x)
            wanted = {dprime, d2, squarefree_part(dprime * d2)}
            ok = wanted <= have
            detail = f"wanted {sorted(wanted)}, certified {sorted(have)}"
        out.append(
            _check("biquadratic certificate has the three expected subfields", ok, detail)
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
        # a certificate that verifies has 1 < degree < the parent's degree
        return [
            _check(
                "subfield certificate verifies in the parent field",
                verify_subfield(parent.field, cert),
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
            and w.subgroup.form == HermForm.diagonal(w.subgroup.form.field, [1, -1, -1])
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
    subgroup is not re-ranked.  The field check names ResSL2 over
    Q[x]/(x^2 - k), with k > 0 by that check or the ones before it, and k
    not a square since the witness's certificate proves x^2 - k
    irreducible: a real quadratic field, for a subform, split-so5, subfield
    element or rank-2 compositum;
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
