"""JSON serialization for group specifications, verdicts, and witnesses.

All rationals serialize as exact strings ("p/q" or "n"); nothing is ever a
float.  Every document round-trips: parse(serialize(x)) reconstructs x, and
a serialized not-minimal verdict carries enough data to re-run witness
verification with no shared in-memory state.
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING, Any, Optional

from . import arith, polys
from .algebra import (
    HermForm,
    QuatElement,
    QuatForm,
    QuatSecondKindForm,
    QuaternionAlgebra,
)
from .arith import rat_to_str
from .numfield import (
    NumberFieldCert,
    QuadElement as LElement,
    QuadraticField,
    SubfieldCert,
    field_cert,
)
from .qgroup import (
    GroupSpec,
    Orthogonal,
    ResSL2,
    ResSU3,
    SpecialLinear,
    Symplectic,
    Unitary1,
    Unitary2,
    Unitary2Quat,
)
from .quadform import QuadForm
from .verify import (
    BlockEmbedding,
    CompositumTower,
    DerivationStep,
    PureQuaternionTower,
    SplitSO5,
    SubfieldElement,
    SubfieldRestriction,
    SubformIndices,
    TraceRealizationContext,
    VerifyReport,
    Witness,
)

if TYPE_CHECKING:
    from .minimal import Verdict

SCHEMA = "almin/1"


class ParseError(ValueError):
    """A structured document error carrying the offending field path."""

    def __init__(self, path: str, message: str):
        self.path = path
        self.message = message
        super().__init__(f"{path}: {message}")


# --------------------------------------------------------------------------
# Scalars


def rat_from(obj: Any, path: str) -> Fraction:
    if isinstance(obj, bool):
        raise ParseError(path, "expected a rational, got a boolean")
    if isinstance(obj, int):
        return Fraction(obj)
    if isinstance(obj, str):
        try:
            return Fraction(obj)
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(path, f"not a rational: {obj!r} ({exc})") from None
    raise ParseError(path, f"expected a rational string, got {type(obj).__name__}")


def _int_from(obj: Any, path: str) -> int:
    if isinstance(obj, bool) or not isinstance(obj, int):
        raise ParseError(path, f"expected an integer, got {type(obj).__name__}")
    return obj


def _flag_from(doc: dict, key: str, default: bool, path: str) -> bool:
    value = doc.get(key, default)
    if not isinstance(value, bool):
        raise ParseError(
            f"{path}.{key}", f"expected a boolean, got {type(value).__name__}"
        )
    return value


def _require(doc: dict, key: str, path: str) -> Any:
    if not isinstance(doc, dict):
        raise ParseError(path, "expected an object")
    if key not in doc:
        raise ParseError(f"{path}.{key}", "missing required field")
    return doc[key]


def _rat_list(obj: Any, path: str) -> tuple[Fraction, ...]:
    if not isinstance(obj, list):
        raise ParseError(path, "expected a list")
    return tuple(rat_from(v, f"{path}[{i}]") for i, v in enumerate(obj))


# entry of an L-vector: rational string or pair [x, y] meaning x + y*sqrt(d);
# lentry_from reads the pair back as a tuple (x, y), written here the same way
def lentry_to_doc(x) -> Any:
    if isinstance(x, LElement):
        x = (x.x, x.y)
    if isinstance(x, tuple):
        if x[1] == 0:
            return rat_to_str(x[0])
        return [rat_to_str(x[0]), rat_to_str(x[1])]
    return rat_to_str(x)


def lentry_from(obj: Any, path: str):
    if isinstance(obj, list):
        if len(obj) != 2:
            raise ParseError(path, "field element pair must have two entries")
        return (rat_from(obj[0], f"{path}[0]"), rat_from(obj[1], f"{path}[1]"))
    return rat_from(obj, path)


def quat_to_doc(e: QuatElement) -> list:
    return [lentry_to_doc(c) for c in (e.t, e.x, e.y, e.z)]


def quat_from(
    alg: QuaternionAlgebra, obj: Any, path: str, l_field: Optional[QuadraticField] = None
) -> QuatElement:
    if not isinstance(obj, list) or len(obj) != 4:
        raise ParseError(path, "quaternion element must be a 4-entry list")
    coeffs = []
    for i, c in enumerate(obj):
        v = lentry_from(c, f"{path}[{i}]")
        if isinstance(v, tuple):
            if l_field is None:
                raise ParseError(
                    f"{path}[{i}]", "field-element coefficient needs a base field"
                )
            v = l_field.element(*v)
        coeffs.append(v)
    return QuatElement(alg, *coeffs)


# --------------------------------------------------------------------------
# Number field certificates


def cert_to_doc(c: NumberFieldCert) -> dict:
    return {
        "poly": [int(x) for x in c.defining_poly],
        "signature": list(c.signature),
        "subfields": [subcert_to_doc(s) for s in c.subfields],
        "subfields_complete": c.subfields_complete,
    }


def subcert_to_doc(s: SubfieldCert) -> dict:
    return {
        "poly": [rat_to_str(x) for x in s.sub_poly],
        "embedding": [rat_to_str(x) for x in s.embedding],
    }


def subcert_from(obj: Any, path: str) -> SubfieldCert:
    sub = _rat_list(_require(obj, "poly", path), f"{path}.poly")
    if any(c.denominator != 1 for c in sub):
        raise ParseError(f"{path}.poly", "a subfield polynomial needs integer coefficients")
    embedding = _rat_list(_require(obj, "embedding", path), f"{path}.embedding")
    return SubfieldCert(polys.poly(sub), polys.poly(embedding))


# Errors that parsing passes on unchanged: a malformed document, and a
# certificate that could not be checked within an effort budget (the CLI
# reports the latter as exit 3, not as a parse error).
_PASS_THROUGH = (ParseError, polys.IrreducibilityUnproven, arith.FactorizationExceeded)


def cert_from(obj: Any, path: str) -> NumberFieldCert:
    """Parse a field certificate.  The signature is always counted by Sturm:
    a declared one must agree.  A declared subfields_complete is not read
    (completeness is a property of the certificate)."""
    raw_poly = _require(obj, "poly", path)
    if not isinstance(raw_poly, list):
        raise ParseError(f"{path}.poly", "expected a coefficient list")
    coeffs = [
        _int_from(c, f"{path}.poly[{i}]") for i, c in enumerate(raw_poly)
    ]
    subs = tuple(
        subcert_from(s, f"{path}.subfields[{i}]")
        for i, s in enumerate(obj.get("subfields", []))
    )
    try:
        cert = field_cert(coeffs, subfields=subs)
    except _PASS_THROUGH:
        raise
    except Exception as exc:
        raise ParseError(path, f"invalid field certificate: {exc}") from None
    counted = list(cert.signature)
    declared = obj.get("signature", counted)
    if declared != counted or any(isinstance(v, bool) for v in declared):
        raise ParseError(
            f"{path}.signature",
            f"declared {declared!r}, but the Sturm count is {counted}",
        )
    return cert


# --------------------------------------------------------------------------
# Group specifications


def _algebra_to_doc(d: QuaternionAlgebra) -> dict:
    return {"a": rat_to_str(d.a), "b": rat_to_str(d.b)}


def _algebra_from(obj: Any, path: str) -> QuaternionAlgebra:
    a = rat_from(_require(obj, "a", path), f"{path}.a")
    b = rat_from(_require(obj, "b", path), f"{path}.b")
    try:
        return QuaternionAlgebra(a, b)
    except Exception as exc:
        raise ParseError(path, f"invalid quaternion algebra: {exc}") from None


def group_to_doc(g: GroupSpec) -> dict:
    if isinstance(g, SpecialLinear):
        doc: dict = {"kind": "sl", "m": g.m}
        if g.algebra is not None:
            doc["algebra"] = _algebra_to_doc(g.algebra)
        return doc
    if isinstance(g, Orthogonal):
        rows = g.form.gram
        if all(rows[i][j] == 0 for i in range(g.form.dim) for j in range(g.form.dim) if i != j):
            return {
                "kind": "so",
                "diagonal": [rat_to_str(rows[i][i]) for i in range(g.form.dim)],
            }
        return {
            "kind": "so",
            "gram": [[rat_to_str(v) for v in row] for row in rows],
        }
    if isinstance(g, Symplectic):
        return {"kind": "sp", "n": g.n}
    if isinstance(g, Unitary2):
        m = g.form.matrix
        n = g.form.dim
        if all(
            m[i][j].is_zero() for i in range(n) for j in range(n) if i != j
        ) and all(m[i][i].y == 0 for i in range(n)):
            return {
                "kind": "su2",
                "d": g.form.field.d,
                "diagonal": [rat_to_str(m[i][i].x) for i in range(n)],
            }
        return {
            "kind": "su2",
            "d": g.form.field.d,
            "matrix": [[lentry_to_doc(v) for v in row] for row in m],
        }
    if isinstance(g, Unitary2Quat):
        f = g.form
        return {
            "kind": "su2quat",
            "l_d": f.l_field.d,
            "algebra": _algebra_to_doc(f.inner_algebra),
            "unit": quat_to_doc(f.unit),
            "diagonal": [quat_to_doc(e) for e in f.diagonal],
            "hyperbolic_count": f.hyperbolic_count,
        }
    if isinstance(g, Unitary1):
        f = g.form
        return {
            "kind": "su1",
            "algebra": _algebra_to_doc(f.algebra),
            "form_kind": f.kind,
            "diagonal": [quat_to_doc(e) for e in f.diagonal],
            "hyperbolic_count": f.hyperbolic_count,
        }
    if isinstance(g, ResSL2):
        return {"kind": "res_sl2", "field": cert_to_doc(g.field)}
    if isinstance(g, ResSU3):
        return {
            "kind": "res_su3",
            "k_d": g.k_field.d,
            "l_quartic": cert_to_doc(g.l_quartic),
            "std_form": g.std_form,
            "witness_context": g.witness_context,
        }
    raise TypeError(f"unknown group spec {type(g)!r}")


def group_from_doc(doc: Any, path: str = "$", in_witness: bool = False) -> GroupSpec:
    """Parse a group specification.  Only a witness subgroup (in_witness)
    may set witness_context, which admits a real k_field in res_su3."""
    kind = _require(doc, "kind", path)
    try:
        if kind == "sl":
            m = _int_from(_require(doc, "m", path), f"{path}.m")
            algebra = None
            if doc.get("algebra") is not None:
                algebra = _algebra_from(doc["algebra"], f"{path}.algebra")
            return SpecialLinear(m, algebra)
        if kind == "so":
            if "diagonal" in doc:
                coeffs = _rat_list(doc["diagonal"], f"{path}.diagonal")
                return Orthogonal(QuadForm.diagonal(list(coeffs)))
            rows = _require(doc, "gram", path)
            if not isinstance(rows, list):
                raise ParseError(f"{path}.gram", "expected a matrix")
            gram = [
                list(_rat_list(row, f"{path}.gram[{i}]"))
                for i, row in enumerate(rows)
            ]
            return Orthogonal(QuadForm.from_rows(gram))
        if kind == "sp":
            return Symplectic(_int_from(_require(doc, "n", path), f"{path}.n"))
        if kind == "su2":
            d = _int_from(_require(doc, "d", path), f"{path}.d")
            fld = QuadraticField(d)
            if "diagonal" in doc:
                coeffs = _rat_list(doc["diagonal"], f"{path}.diagonal")
                return Unitary2(HermForm.diagonal(fld, list(coeffs)))
            rows = _require(doc, "matrix", path)
            if not isinstance(rows, list):
                raise ParseError(f"{path}.matrix", "expected a matrix")
            matrix = []
            for i, row in enumerate(rows):
                if not isinstance(row, list):
                    raise ParseError(f"{path}.matrix[{i}]", "expected a row")
                out_row = []
                for j, v in enumerate(row):
                    e = lentry_from(v, f"{path}.matrix[{i}][{j}]")
                    out_row.append(
                        fld.element(*e) if isinstance(e, tuple) else fld.element(e)
                    )
                matrix.append(tuple(out_row))
            return Unitary2(HermForm(fld, tuple(matrix)))
        if kind == "su2quat":
            l_d = _int_from(_require(doc, "l_d", path), f"{path}.l_d")
            l_field = QuadraticField(l_d)
            alg = _algebra_from(_require(doc, "algebra", path), f"{path}.algebra")
            unit_doc = doc.get("unit", ["1", "0", "0", "0"])
            unit = quat_from(alg, unit_doc, f"{path}.unit", l_field)
            diag = tuple(
                quat_from(alg, e, f"{path}.diagonal[{i}]", l_field)
                for i, e in enumerate(doc.get("diagonal", []))
            )
            hyp = _int_from(
                doc.get("hyperbolic_count", 0), f"{path}.hyperbolic_count"
            )
            return Unitary2Quat(QuatSecondKindForm(l_field, alg, unit, diag, hyp))
        if kind == "su1":
            alg = _algebra_from(_require(doc, "algebra", path), f"{path}.algebra")
            form_kind = _require(doc, "form_kind", path)
            if form_kind not in ("hermitian", "skew_hermitian"):
                raise ParseError(
                    f"{path}.form_kind",
                    "expected 'hermitian' or 'skew_hermitian'",
                )
            diag = tuple(
                quat_from(alg, e, f"{path}.diagonal[{i}]")
                for i, e in enumerate(doc.get("diagonal", []))
            )
            hyp = _int_from(
                doc.get("hyperbolic_count", 0), f"{path}.hyperbolic_count"
            )
            return Unitary1(QuatForm(alg, form_kind, diag, hyp))
        if kind == "res_sl2":
            return ResSL2(cert_from(_require(doc, "field", path), f"{path}.field"))
        if kind == "res_su3":
            k_d = _int_from(_require(doc, "k_d", path), f"{path}.k_d")
            witness_context = _flag_from(doc, "witness_context", False, path)
            if witness_context and not in_witness:
                raise ParseError(
                    f"{path}.witness_context",
                    "only a witness subgroup may set witness_context",
                )
            return ResSU3(
                QuadraticField(k_d),
                cert_from(_require(doc, "l_quartic", path), f"{path}.l_quartic"),
                std_form=_flag_from(doc, "std_form", True, path),
                witness_context=witness_context,
            )
    except _PASS_THROUGH:
        raise
    except Exception as exc:
        raise ParseError(path, f"invalid specification: {exc}") from None
    raise ParseError(f"{path}.kind", f"unknown kind {kind!r}")


# --------------------------------------------------------------------------
# Embedding data


def _vec_to_doc(v) -> list:
    return [lentry_to_doc(x) for x in v]


def _vec_from(obj: Any, path: str) -> tuple:
    if not isinstance(obj, list):
        raise ParseError(path, "expected a vector")
    return tuple(lentry_from(x, f"{path}[{i}]") for i, x in enumerate(obj))


def embedding_to_doc(emb) -> dict:
    if isinstance(emb, SubformIndices):
        ctx: Any = None
        if isinstance(emb.context, TraceRealizationContext):
            ctx = {"type": "trace-realization"}
        return {
            "type": "subform",
            "basis": [_vec_to_doc(v) for v in emb.basis],
            "tail_coeffs": _vec_to_doc(emb.tail_coeffs),
            "a_value": rat_to_str(emb.a_value),
            "witness_vector": _vec_to_doc(emb.witness_vector),
            "context": ctx,
        }
    if isinstance(emb, SubfieldElement):
        return {
            "type": "subfield-element",
            "c_value": rat_to_str(emb.c_value),
            "coords": _vec_to_doc(emb.coords),
        }
    if isinstance(emb, BlockEmbedding):
        return {"type": "block", "offset": emb.offset}
    if isinstance(emb, SplitSO5):
        return {
            "type": "split-so5",
            "form_coeffs": _vec_to_doc(emb.form_coeffs),
            "a_value": rat_to_str(emb.a_value),
        }
    if isinstance(emb, CompositumTower):
        return {
            "type": "compositum-tower",
            "e_value": rat_to_str(emb.e_value),
            "e_class": emb.e_class,
            "e_coords": _vec_to_doc(emb.e_coords),
            "l_class": emb.l_class,
            "k0_class": emb.k0_class,
            "k_cert": cert_to_doc(emb.k_cert),
        }
    if isinstance(emb, PureQuaternionTower):
        return {
            "type": "pure-quaternion-tower",
            "entry_indices": list(emb.entry_indices),
            "alpha_coords": _vec_to_doc(emb.alpha_coords),
            "fprime_class": emb.fprime_class,
            "c_x": rat_to_str(emb.c_x),
            "c_y": rat_to_str(emb.c_y),
            "k_cert": cert_to_doc(emb.k_cert),
            "k_is_biquadratic": emb.k_is_biquadratic,
        }
    if isinstance(emb, SubfieldRestriction):
        return {"type": "subfield-restriction", "cert": subcert_to_doc(emb.cert)}
    raise TypeError(f"unknown embedding {type(emb)!r}")


def embedding_from_doc(doc: Any, path: str):
    t = _require(doc, "type", path)
    if t == "subform":
        ctx_doc = doc.get("context")
        ctx = None
        if ctx_doc is not None:
            ct = _require(ctx_doc, "type", f"{path}.context")
            if ct == "trace-realization":
                ctx = TraceRealizationContext()
            else:
                raise ParseError(f"{path}.context.type", f"unknown context {ct!r}")
        basis_doc = _require(doc, "basis", path)
        if not isinstance(basis_doc, list):
            raise ParseError(f"{path}.basis", "expected a list of vectors")
        return SubformIndices(
            basis=tuple(
                _vec_from(v, f"{path}.basis[{i}]") for i, v in enumerate(basis_doc)
            ),
            tail_coeffs=_rat_list(
                _require(doc, "tail_coeffs", path), f"{path}.tail_coeffs"
            ),
            a_value=rat_from(_require(doc, "a_value", path), f"{path}.a_value"),
            witness_vector=_rat_list(
                _require(doc, "witness_vector", path), f"{path}.witness_vector"
            ),
            context=ctx,
        )
    if t == "subfield-element":
        coords = _rat_list(_require(doc, "coords", path), f"{path}.coords")
        if len(coords) != 3:
            raise ParseError(f"{path}.coords", "expected three coordinates")
        return SubfieldElement(
            c_value=rat_from(_require(doc, "c_value", path), f"{path}.c_value"),
            coords=coords,
        )
    if t == "block":
        return BlockEmbedding(
            _int_from(doc.get("offset", 0), f"{path}.offset")
        )
    if t == "split-so5":
        return SplitSO5(
            form_coeffs=_rat_list(
                _require(doc, "form_coeffs", path), f"{path}.form_coeffs"
            ),
            a_value=rat_from(_require(doc, "a_value", path), f"{path}.a_value"),
        )
    if t == "compositum-tower":
        coords = _rat_list(_require(doc, "e_coords", path), f"{path}.e_coords")
        if len(coords) != 3:
            raise ParseError(f"{path}.e_coords", "expected three coordinates")
        return CompositumTower(
            e_value=rat_from(_require(doc, "e_value", path), f"{path}.e_value"),
            e_class=_int_from(_require(doc, "e_class", path), f"{path}.e_class"),
            e_coords=coords,
            l_class=_int_from(_require(doc, "l_class", path), f"{path}.l_class"),
            k0_class=_int_from(_require(doc, "k0_class", path), f"{path}.k0_class"),
            k_cert=cert_from(_require(doc, "k_cert", path), f"{path}.k_cert"),
        )
    if t == "pure-quaternion-tower":
        idx = _require(doc, "entry_indices", path)
        if (
            not isinstance(idx, list)
            or len(idx) != 2
            or any(isinstance(v, bool) or not isinstance(v, int) for v in idx)
        ):
            raise ParseError(f"{path}.entry_indices", "expected two indices")
        coords = _rat_list(
            _require(doc, "alpha_coords", path), f"{path}.alpha_coords"
        )
        if len(coords) != 3:
            raise ParseError(f"{path}.alpha_coords", "expected three coordinates")
        return PureQuaternionTower(
            entry_indices=(idx[0], idx[1]),
            alpha_coords=coords,
            fprime_class=_int_from(
                _require(doc, "fprime_class", path), f"{path}.fprime_class"
            ),
            c_x=rat_from(_require(doc, "c_x", path), f"{path}.c_x"),
            c_y=rat_from(_require(doc, "c_y", path), f"{path}.c_y"),
            k_cert=cert_from(_require(doc, "k_cert", path), f"{path}.k_cert"),
            k_is_biquadratic=_flag_from(doc, "k_is_biquadratic", False, path),
        )
    if t == "subfield-restriction":
        return SubfieldRestriction(
            subcert_from(_require(doc, "cert", path), f"{path}.cert")
        )
    raise ParseError(f"{path}.type", f"unknown embedding type {t!r}")


# --------------------------------------------------------------------------
# Witnesses, reports, verdicts


def witness_to_doc(w: Witness) -> dict:
    return {
        "subgroup": group_to_doc(w.subgroup),
        "embedding": embedding_to_doc(w.embedding),
        "derivation": [
            {"rule": s.rule, "detail": s.detail} for s in w.derivation
        ],
    }


def witness_from_doc(doc: Any, path: str = "$.witness") -> Witness:
    sub = group_from_doc(
        _require(doc, "subgroup", path), f"{path}.subgroup", in_witness=True
    )
    emb = embedding_from_doc(
        _require(doc, "embedding", path), f"{path}.embedding"
    )
    steps = tuple(
        DerivationStep(str(s.get("rule", "")), str(s.get("detail", "")))
        for s in doc.get("derivation", [])
    )
    return Witness(sub, emb, steps)


def report_to_doc(r: VerifyReport) -> dict:
    return {
        "ok": r.ok,
        "checks": [
            {"name": c.name, "passed": c.passed, "detail": c.detail}
            for c in r.checks
        ],
    }


def verdict_to_doc(input_doc: Any, verdict: Verdict) -> dict:
    from .minimal import Minimal, NotApplicable, NotMinimal, UnsupportedVerdict

    doc: dict = {"schema": SCHEMA, "input": input_doc}
    if isinstance(verdict, Minimal):
        doc["verdict"] = "minimal"
        doc["matched_case"] = verdict.matched_case
        doc["conditions"] = []  # almin/1 keeps the field; nothing is assumed
        doc["derivation"] = [
            {"rule": s.rule, "detail": s.detail} for s in verdict.derivation
        ]
    elif isinstance(verdict, NotMinimal):
        doc["verdict"] = "not_minimal"
        doc["witness"] = witness_to_doc(verdict.witness)
        doc["verification"] = report_to_doc(verdict.report)
    elif isinstance(verdict, NotApplicable):
        doc["verdict"] = "not_applicable"
        doc["reason"] = verdict.reason
    elif isinstance(verdict, UnsupportedVerdict):
        doc["verdict"] = "unsupported"
        doc["reason"] = verdict.reason
    else:
        raise TypeError(f"unknown verdict {type(verdict)!r}")
    return doc


def exit_code_for(verdict: Verdict) -> int:
    from .minimal import Minimal, NotApplicable, NotMinimal

    if isinstance(verdict, (Minimal, NotMinimal)):
        return 0
    if isinstance(verdict, NotApplicable):
        return 2
    return 3
