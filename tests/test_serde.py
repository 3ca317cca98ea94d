import contextlib
import copy
import functools
import io
import json
import operator
import pathlib
import re
import sys
from fractions import Fraction
from typing import get_args
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from almin import arith, cli, polys, serde, verify
from almin.algebra import HermForm, QuatForm, QuaternionAlgebra
from almin.minimal import NotMinimal, analyze
from almin.numfield import QuadraticField, field_cert, quadratic_field_cert
from almin.quadform import QuadForm
from almin.qgroup import (
    GroupSpec,
    Orthogonal,
    ResSL2,
    SpecialLinear,
    Symplectic,
    Unitary1,
    Unitary2,
)
from almin.serde import ParseError, rat_from, rat_to_str
from almin.value import Value

CORPUS = pathlib.Path(__file__).resolve().parent.parent / "corpus"


def test_rational_strings():
    assert rat_to_str(Fraction(-3, 7)) == "-3/7"
    assert rat_to_str(Fraction(5)) == "5"
    assert rat_from("-3/7", "$") == Fraction(-3, 7)
    assert rat_from("5", "$") == Fraction(5)
    assert rat_from(5, "$") == Fraction(5)
    with pytest.raises(ParseError) as e:
        rat_from("1/0", "$.x")
    assert e.value.path == "$.x"
    with pytest.raises(ParseError):
        rat_from("abc", "$")
    with pytest.raises(ParseError):
        rat_from(1.5, "$")


GROUPS = [
    SpecialLinear(3),
    SpecialLinear(2, QuaternionAlgebra(2, 3)),
    Symplectic(2),
    Orthogonal(QuadForm.diagonal([1, -1, -1, 3, 5])),
    Unitary2(HermForm.diagonal(QuadraticField(2), [1, -1, -1])),
    Unitary1(
        QuatForm(
            QuaternionAlgebra(-1, -1),
            "hermitian",
            (QuaternionAlgebra(-1, -1).element(1),),
            hyperbolic_count=2,
        )
    ),
    ResSL2(quadratic_field_cert(2)),
    ResSL2(field_cert([-2, 0, 0, 0, 1])),
]


@pytest.mark.parametrize("g", GROUPS, ids=lambda g: type(g).__name__)
def test_group_roundtrip(g):
    doc = serde.group_to_doc(g)
    json.dumps(doc)  # must be JSON-serializable as-is
    assert serde.group_from_doc(doc) == g


def test_corpus_docs_parse(corpus_docs):
    parsed = 0
    for name, doc in corpus_docs.items():
        if doc is None or name == "malformed":
            continue
        serde.group_from_doc(doc)
        parsed += 1
    assert parsed >= 35


def test_malformed_corpus_path(corpus_docs):
    with pytest.raises(ParseError) as e:
        serde.group_from_doc(corpus_docs["malformed"])
    assert e.value.path == "$.diagonal[1]"


def test_witness_roundtrip():
    for g in [
        SpecialLinear(4),
        Symplectic(2),
        Orthogonal(QuadForm.diagonal([1, -1, -1, 3, 5])),
        ResSL2(field_cert([-2, 0, 0, 0, 1])),
    ]:
        v = analyze(g)
        assert isinstance(v, NotMinimal)
        doc = serde.witness_to_doc(v.witness)
        json.dumps(doc)
        back = serde.witness_from_doc(doc)
        assert back == v.witness


def test_verdict_documents():
    g = SpecialLinear(3)
    doc = serde.verdict_to_doc(serde.group_to_doc(g), analyze(g))
    assert doc["schema"] == serde.SCHEMA
    assert doc["verdict"] == "minimal" and doc["matched_case"] == "i"
    g2 = Symplectic(2)
    v2 = analyze(g2)
    doc2 = serde.verdict_to_doc(serde.group_to_doc(g2), v2)
    assert doc2["verdict"] == "not_minimal"
    assert serde.witness_from_doc(doc2["witness"]) == v2.witness
    assert serde.exit_code_for(v2) == 0
    g3 = SpecialLinear(2)
    assert serde.exit_code_for(analyze(g3)) == 2


def test_parse_errors_carry_paths():
    with pytest.raises(ParseError) as e:
        serde.group_from_doc({"kind": "so"})
    assert "$." in e.value.path or e.value.path == "$"
    with pytest.raises(ParseError) as e2:
        serde.group_from_doc({"kind": "frobnicate"})
    assert e2.value.path == "$.kind"
    with pytest.raises(ParseError):
        serde.group_from_doc([1, 2, 3])
    with pytest.raises(ParseError) as e3:
        serde.group_from_doc(
            {"kind": "su2", "d": 2, "diagonal": [["1", "0"], "oops"]}
        )
    assert "diagonal" in e3.value.path


@pytest.mark.parametrize(
    "name,flag",
    [
        ("res_su3_minimal", "std_form"),
        ("res_su3_minimal", "witness_context"),
    ],
)
def test_spec_flags_must_be_booleans(corpus_docs, name, flag):
    doc = dict(corpus_docs[name])
    for value in ("false", 0, 1, None, []):
        doc[flag] = value
        with pytest.raises(ParseError) as e:
            serde.group_from_doc(doc)
        assert e.value.path == f"$.{flag}"
        assert "expected a boolean" in str(e.value)
    doc[flag] = flag == "std_form"  # the default, spelled out
    assert serde.group_from_doc(doc) == serde.group_from_doc(corpus_docs[name])


def test_declared_signature_must_match_the_sturm_count():
    cert = serde.cert_from({"poly": [-2, 0, 0, 1], "signature": [1, 1]}, "$.field")
    assert cert.signature == (1, 1)
    for forged in ([3, 0], [1, 2], [0, 0], [1], [True, True], "1,1", None):
        with pytest.raises(ParseError) as e:
            serde.cert_from({"poly": [-2, 0, 0, 1], "signature": forged}, "$.field")
        assert e.value.path == "$.field.signature"
        assert e.value.message == f"declared {forged!r}, but the Sturm count is [1, 1]"


def test_subfield_polynomial_must_be_integral():
    # x^2 - 1/2 has the root sqrt(2)/2 in Q(2^(1/4)); a non-integral
    # subfield polynomial is refused where it is read
    doc = {
        "kind": "res_sl2",
        "field": {
            "poly": [-2, 0, 0, 0, 1],
            "subfields": [{"poly": ["-1/2", "0", "1"], "embedding": ["0", "0", "1/2"]}],
        },
    }
    with pytest.raises(ParseError) as e:
        serde.group_from_doc(doc)
    assert e.value.path == "$.field.subfields[0].poly"
    doc["field"]["subfields"][0] = {"poly": ["-2", "0", "1"], "embedding": ["0", "0", "1"]}
    v = analyze(serde.group_from_doc(doc))
    assert isinstance(v, NotMinimal)
    assert v.witness.subgroup.field.defining_poly == polys.poly([-2, 0, 1])


def test_declared_subfields_complete_is_not_read():
    x4p2 = {"poly": [2, 0, 0, 0, 1]}
    plain = serde.cert_from(x4p2, "$.field")
    for declared in (True, False, "yes"):
        cert = serde.cert_from({**x4p2, "subfields_complete": declared}, "$.field")
        assert cert == plain and not cert.subfields_complete
    assert serde.cert_to_doc(plain)["subfields_complete"] is False


def test_witness_flag_must_be_a_boolean():
    golden = json.loads((CORPUS / "expected" / "su1_skew_tower.json").read_text())
    doc = golden["witness"]
    assert serde.witness_from_doc(doc).embedding.k_is_biquadratic is False
    doc["embedding"]["k_is_biquadratic"] = "false"
    with pytest.raises(ParseError) as e:
        serde.witness_from_doc(doc)
    assert e.value.path == "$.witness.embedding.k_is_biquadratic"


# JSON-like documents shaped like specs: each kind with its fields, holding
# rational strings, small integers and a few certified fields; one value in
# eight is replaced by a wrong scalar, one document in ten is arbitrary JSON
JUNK = st.recursive(
    st.one_of(st.none(), st.booleans(), st.floats(allow_nan=False, width=32), st.text(max_size=3)),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3), st.dictionaries(st.text(max_size=3), inner, max_size=3)
    ),
    max_leaves=6,
)
BAD = st.sampled_from(["1/0", "x", "", 1.5, True, None, [], {}])


def _mostly(strategy):
    return st.integers(0, 7).flatmap(lambda k: BAD if k == 0 else strategy)


INT = _mostly(st.integers(-6, 6))
RAT = _mostly(st.one_of(st.integers(-6, 6), st.sampled_from(["1/2", "-3/4", "5/2"])))
LENTRY = _mostly(st.one_of(RAT, st.lists(RAT, min_size=2, max_size=2)))
QUAT = _mostly(st.lists(LENTRY, min_size=4, max_size=4))
ALGEBRA = _mostly(st.fixed_dictionaries({"a": RAT, "b": RAT}))
POLYS = [
    [-2, 0, 1], [1, 0, 1], [-3, 0, 1], [-2, 0, 0, 1], [1, 0, 0, 0, 1], [-2, 0, 0, 0, 1],
    [2, 0, -2, 0, 1], [576, 0, -960, 0, 352, 0, -40, 0, 1],  # the last is unproven
]
FIELD = _mostly(
    st.fixed_dictionaries(
        {"poly": _mostly(st.one_of(st.sampled_from(POLYS), st.lists(INT, max_size=6)))},
        optional={"signature": _mostly(st.lists(INT, max_size=3)), "subfields_complete": BAD},
    )
)
SPECS = {
    "sl": ({"m": INT}, {"algebra": ALGEBRA}),
    "so": ({}, {"diagonal": _mostly(st.lists(RAT, max_size=6)),
                "gram": _mostly(st.lists(st.lists(RAT, max_size=4), max_size=4))}),
    "sp": ({"n": INT}, {}),
    "su2": ({"d": INT}, {"diagonal": _mostly(st.lists(LENTRY, max_size=5)),
                         "matrix": _mostly(st.lists(st.lists(LENTRY, max_size=3), max_size=3))}),
    "su2quat": ({"l_d": INT, "algebra": ALGEBRA},
                {"unit": QUAT, "diagonal": _mostly(st.lists(QUAT, max_size=3)),
                 "hyperbolic_count": INT, "assume_tail_anisotropic": BAD}),
    "su1": ({"algebra": ALGEBRA, "form_kind": _mostly(st.sampled_from(["hermitian", "skew_hermitian"]))},
            {"diagonal": _mostly(st.lists(QUAT, max_size=3)), "hyperbolic_count": INT}),
    "res_sl2": ({"field": FIELD}, {}),
    "res_su3": ({"k_d": INT, "l_quartic": FIELD}, {"std_form": BAD}),
    "other": ({}, {}),
}
SHAPED = st.one_of(
    *(
        st.fixed_dictionaries({"kind": st.just(kind), **required}, optional=optional)
        for kind, (required, optional) in SPECS.items()
    )
)
SPEC_LIKE = st.integers(0, 9).flatmap(lambda k: JUNK if k == 0 else SHAPED)


@settings(max_examples=400, deadline=None)
@given(SPEC_LIKE)
def test_group_from_doc_fuzz(doc):
    # a spec, a ParseError naming a path, or a typed effort limit: nothing else
    try:
        g = serde.group_from_doc(doc)
    except ParseError as exc:
        assert exc.path.startswith("$")
    except (polys.IrreducibilityUnproven, arith.FactorizationExceeded):
        pass
    else:
        assert isinstance(g, GroupSpec)


# --------------------------------------------------------------------------
# Witness documents: every record is written and read by its own fields

NOT_MINIMAL = {
    path.stem: doc
    for path in sorted((CORPUS / "expected").glob("*.json"))
    if (doc := json.loads(path.read_text())).get("verdict") == "not_minimal"
}


def test_every_witness_field_has_a_codec():
    # walk the records reachable from Witness through their annotations; a
    # record of verify is written field by field, any other type whole
    seen, todo = set(), [verify.Witness, verify.VerifyReport]
    while todo:
        cls = todo.pop()
        if cls in seen:
            continue
        seen.add(cls)
        for name in cls._fields:
            annotation = cls.__annotations__[name]
            assert annotation in serde._CODECS, f"{cls.__name__}.{name}: {annotation}"
            for word in re.findall(r"\w+", annotation):
                named = getattr(verify, word, None)
                todo += [
                    c for c in get_args(named) or (named,)
                    if isinstance(c, type) and issubclass(c, Value) and c.__module__ == verify.__name__
                ]
    assert set(serde._TAGS.values()) | {verify.DerivationStep, verify.VerifyCheck} <= seen


def _witness(name: str) -> dict:
    return copy.deepcopy(NOT_MINIMAL[name]["witness"])


@pytest.mark.parametrize("derivation,path", [
    ([1], "$.witness.derivation[0]"),
    (5, "$.witness.derivation"),
    ([{"rule": "r"}], "$.witness.derivation[0].detail"),
    ([{"rule": 1, "detail": "d"}], "$.witness.derivation[0].rule"),
])
def test_malformed_derivation_is_a_parse_error(derivation, path):
    doc = _witness("sp4")
    doc["derivation"] = derivation
    with pytest.raises(ParseError) as e:
        serde.witness_from_doc(doc)
    assert e.value.path == path


def test_missing_keys_take_the_field_defaults():
    doc = _witness("su1_skew_tower")
    del doc["embedding"]["k_is_biquadratic"], doc["derivation"]
    w = serde.witness_from_doc(doc)
    assert w.embedding.k_is_biquadratic is False and w.derivation == ()
    del doc["embedding"]["c_x"]
    with pytest.raises(ParseError) as e:
        serde.witness_from_doc(doc)
    assert (e.value.path, e.value.message) == ("$.witness.embedding.c_x", "missing required field")


@pytest.mark.parametrize("tag", ["trace-realization", "frobnicate", ["subform"], None])
def test_embedding_type_names_an_embedding_kind(tag):
    doc = _witness("so6")
    doc["embedding"]["type"] = tag
    with pytest.raises(ParseError) as e:
        serde.witness_from_doc(doc)
    assert e.value.path == "$.witness.embedding.type"


def test_cert_subfields_must_be_a_list():
    for subfields in (5, None, "x", {}):
        with pytest.raises(ParseError) as e:
            serde.cert_from({"poly": [-2, 0, 0, 0, 1], "subfields": subfields}, "$.field")
        assert e.value.path == "$.field.subfields"


# One slot of one golden witness (a key or a list entry, at any depth) is
# dropped or replaced by a wrong scalar or list; `almin verify` must end in
# a document and an exit code whatever the witness then holds
def _slots(node, path):
    """path, and the path of every key or list entry below node."""
    yield path
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        yield from _slots(value, path + (key,))


WITNESS_SLOTS = [
    slot for name, doc in NOT_MINIMAL.items() for slot in _slots(doc["witness"], (name, "witness"))
]
DROP = "<drop>"
WRONG = st.sampled_from([DROP, None, True, 1.5, "x", "1/0", "", 0, 7, "2", [], ["1", "2"], [1], {}])


def _verify_exit_code(doc) -> int:
    out = io.StringIO()
    with mock.patch.object(sys, "stdin", io.StringIO(json.dumps(doc))), contextlib.redirect_stdout(out):
        code = cli.main(["verify", "-"])
    json.loads(out.getvalue())
    return code


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(WITNESS_SLOTS), WRONG)
def test_witness_document_fuzz(slot, value):
    name, *path, last = slot
    doc = copy.deepcopy(NOT_MINIMAL[name])
    parent = functools.reduce(operator.getitem, path, doc)
    if value == DROP:
        del parent[last]
    else:
        parent[last] = value
    # a witness, a ParseError naming a path, or a typed effort limit
    try:
        w = serde.witness_from_doc(doc.get("witness"))
    except ParseError as exc:
        assert exc.path.startswith("$")
    except (polys.IrreducibilityUnproven, arith.FactorizationExceeded):
        pass
    else:
        assert isinstance(w, verify.Witness)
    assert _verify_exit_code(doc) in (0, 1, 2, 3)
