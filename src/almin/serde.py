"""JSON serialization for group specifications, verdicts, and witnesses.

All rationals serialize as exact strings ("p/q" or "n"); nothing is ever a
float.  Every document round-trips: parse(serialize(x)) reconstructs x, and
a serialized not-minimal verdict carries enough data to re-run witness
verification with no shared in-memory state.

Group specifications and field certificates are written by hand.  The
records of verify (a witness, its embedding and derivation steps, a
verification report) are written from their own fields: a record's document
keys are its field names, and each field's annotation picks its codec.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from typing import TYPE_CHECKING, Any, Optional, get_args

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
    EmbeddingData,
    PureQuaternionTower,
    SplitSO5,
    SubfieldElement,
    SubfieldRestriction,
    SubformIndices,
    TraceRealizationContext,
    VerifyCheck,
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


def _list(obj: Any, path: str) -> list:
    if not isinstance(obj, list):
        raise ParseError(path, "expected a list")
    return obj


def _bool_from(obj: Any, path: str) -> bool:
    if not isinstance(obj, bool):
        raise ParseError(path, f"expected a boolean, got {type(obj).__name__}")
    return obj


def _str_from(obj: Any, path: str) -> str:
    if not isinstance(obj, str):
        raise ParseError(path, f"expected a string, got {type(obj).__name__}")
    return obj


def _require(doc: dict, key: str, path: str) -> Any:
    if not isinstance(doc, dict):
        raise ParseError(path, "expected an object")
    if key not in doc:
        raise ParseError(f"{path}.{key}", "missing required field")
    return doc[key]


def _rat_list(obj: Any, path: str) -> tuple[Fraction, ...]:
    return tuple(rat_from(v, f"{path}[{i}]") for i, v in enumerate(_list(obj, path)))


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


def _vectors_from(obj: Any, path: str) -> tuple:
    """A list of L-vectors, each entry read by lentry_from."""
    return tuple(
        tuple(lentry_from(x, f"{path}[{i}][{j}]") for j, x in enumerate(_list(v, f"{path}[{i}]")))
        for i, v in enumerate(_list(obj, path))
    )


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
        for i, s in enumerate(_list(obj.get("subfields", []), f"{path}.subfields"))
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
            rows = _list(_require(doc, "gram", path), f"{path}.gram")
            gram = [list(_rat_list(row, f"{path}.gram[{i}]")) for i, row in enumerate(rows)]
            return Orthogonal(QuadForm.from_rows(gram))
        if kind == "sp":
            return Symplectic(_int_from(_require(doc, "n", path), f"{path}.n"))
        if kind == "su2":
            d = _int_from(_require(doc, "d", path), f"{path}.d")
            fld = QuadraticField(d)
            if "diagonal" in doc:
                coeffs = _rat_list(doc["diagonal"], f"{path}.diagonal")
                return Unitary2(HermForm.diagonal(fld, list(coeffs)))
            rows = _vectors_from(_require(doc, "matrix", path), f"{path}.matrix")
            matrix = tuple(
                tuple(fld.element(*e) if isinstance(e, tuple) else fld.element(e) for e in row)
                for row in rows
            )
            return Unitary2(HermForm(fld, matrix))
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
            context_path = f"{path}.witness_context"
            witness_context = _bool_from(doc.get("witness_context", False), context_path)
            if witness_context and not in_witness:
                raise ParseError(context_path, "only a witness subgroup may set witness_context")
            return ResSU3(
                QuadraticField(k_d),
                cert_from(_require(doc, "l_quartic", path), f"{path}.l_quartic"),
                std_form=_bool_from(doc.get("std_form", True), f"{path}.std_form"),
                witness_context=witness_context,
            )
    except _PASS_THROUGH:
        raise
    except Exception as exc:
        raise ParseError(path, f"invalid specification: {exc}") from None
    raise ParseError(f"{path}.kind", f"unknown kind {kind!r}")


# --------------------------------------------------------------------------
# Witness records, field by field; a tagged record opens with "type"


def _coords_from(obj: Any, path: str) -> tuple[Fraction, ...]:
    coords = _rat_list(obj, path)
    if len(coords) != 3:
        raise ParseError(path, "expected three coordinates")
    return coords


def _indices_from(obj: Any, path: str) -> tuple[int, int]:
    if not isinstance(obj, list) or len(obj) != 2:
        raise ParseError(path, "expected two indices")
    return (_int_from(obj[0], f"{path}[0]"), _int_from(obj[1], f"{path}[1]"))


_TAGS = {
    "subform": SubformIndices,
    "subfield-element": SubfieldElement,
    "block": BlockEmbedding,
    "split-so5": SplitSO5,
    "compositum-tower": CompositumTower,
    "pure-quaternion-tower": PureQuaternionTower,
    "subfield-restriction": SubfieldRestriction,
    "trace-realization": TraceRealizationContext,
}
_TAG_OF = {cls: tag for tag, cls in _TAGS.items()}


@functools.cache
def _plan(cls) -> tuple:
    """(name, writer, reader) of each field of cls, the codec picked by the
    field's annotation."""
    return tuple((name, *_CODECS[cls.__annotations__[name]]) for name in cls._fields)


def record_to_doc(rec) -> dict:
    return {name: write(getattr(rec, name)) for name, write, _ in _plan(type(rec))}


def record_from(cls, obj: Any, path: str):
    """A cls read from the keys named by its fields; a missing key takes the
    field's default, and a field without one is required."""
    if not isinstance(obj, dict):
        raise ParseError(path, "expected an object")
    first_default = len(cls._fields) - len(cls._defaults)
    values = []
    for i, (name, _, read) in enumerate(_plan(cls)):
        if name in obj:
            values.append(read(obj[name], f"{path}.{name}"))
        elif i < first_default:
            raise ParseError(f"{path}.{name}", "missing required field")
        else:
            values.append(cls._defaults[i - first_default])
    return cls(*values)


def _tagged(*kinds) -> tuple:
    """The codec of a record of one of kinds, named by its "type"."""

    def read(obj: Any, path: str):
        tag = _require(obj, "type", path)
        cls = _TAGS.get(tag) if isinstance(tag, str) else None
        if cls not in kinds:
            expected = ", ".join(_TAG_OF[k] for k in kinds)
            raise ParseError(f"{path}.type", f"expected one of {expected}, got {tag!r}")
        return record_from(cls, obj, path)

    return (lambda rec: {"type": _TAG_OF[type(rec)], **record_to_doc(rec)}, read)


def _optional(codec: tuple) -> tuple:
    """The codec of Optional[...], with None as null."""
    write, read = codec
    return (
        lambda x: None if x is None else write(x),
        lambda obj, path: None if obj is None else read(obj, path),
    )


def _records(cls) -> tuple:
    """The codec of tuple[cls, ...]."""
    return (
        lambda recs: [record_to_doc(r) for r in recs],
        lambda obj, path: tuple(
            record_from(cls, x, f"{path}[{i}]") for i, x in enumerate(_list(obj, path))
        ),
    )


def _rats_to_doc(xs) -> list:
    return [rat_to_str(x) for x in xs]


# (writer, reader) by field annotation
_CODECS = {
    "Fraction": (rat_to_str, rat_from),
    "int": (int, _int_from),
    "bool": (bool, _bool_from),
    "str": (str, _str_from),
    "tuple[Fraction, ...]": (_rats_to_doc, _rat_list),
    "tuple[Fraction, Fraction, Fraction]": (_rats_to_doc, _coords_from),
    "tuple[tuple, ...]": (lambda vs: [[lentry_to_doc(x) for x in v] for v in vs], _vectors_from),
    "tuple[int, int]": (list, _indices_from),
    "NumberFieldCert": (cert_to_doc, cert_from),
    "SubfieldCert": (subcert_to_doc, subcert_from),
    "Optional[TraceRealizationContext]": _optional(_tagged(TraceRealizationContext)),
    "GroupSpec": (group_to_doc, lambda obj, path: group_from_doc(obj, path, in_witness=True)),
    "EmbeddingData": _tagged(*get_args(EmbeddingData)),
    "tuple[DerivationStep, ...]": _records(DerivationStep),
    "tuple[VerifyCheck, ...]": _records(VerifyCheck),
}


# --------------------------------------------------------------------------
# Witnesses, reports, verdicts


witness_to_doc = report_to_doc = record_to_doc


def witness_from_doc(doc: Any, path: str = "$.witness") -> Witness:
    return record_from(Witness, doc, path)


def verdict_to_doc(input_doc: Any, verdict: Verdict) -> dict:
    from .minimal import Minimal, NotApplicable, NotMinimal, UnsupportedVerdict

    doc: dict = {"schema": SCHEMA, "input": input_doc}
    if isinstance(verdict, Minimal):
        doc["verdict"] = "minimal"
        doc["matched_case"] = verdict.matched_case
        doc["conditions"] = []  # almin/1 keeps the field; nothing is assumed
        doc["derivation"] = [record_to_doc(s) for s in verdict.derivation]
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
