"""Every verifier check can fail: one forged witness document per `_check`
call site of almin/verify.py.

A row takes a golden verdict document, sets JSON paths of its input and its
witness to new values, and names the check that the forgery must fail.
`verify_witness` must fail exactly that check and the ones the row lists in
`also` (only where no forgery fails the check alone), and `almin verify`
must exit 3 on the document.  A second test reads the call sites from the
ast of verify.py and fails on any site that no row covers."""

from __future__ import annotations

import ast
import collections
import copy
import json
import pathlib
import re
from typing import NamedTuple, Optional

import pytest

from almin import qgroup, serde, verify
from almin.value import replace

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = {
    **{p.stem: p for p in (ROOT / "corpus" / "expected").glob("*.json")},
    "biquadratic_tower": ROOT / "tests" / "golden" / "biquadratic_tower.json",
}

# the functions whose checks a witness of each embedding type reaches
SITES = {
    "subform": ("_verify_subform", "_verify_quaternary"),
    "subfield-element": ("_verify_subfield_element",),
    "block": ("_verify_block",),
    "split-so5": ("_verify_split_so5",),
    "compositum-tower": ("_verify_compositum",),
    "pure-quaternion-tower": ("_verify_quartic_tower",),
    "subfield-restriction": ("_verify_subfield_restriction",),
}


class Row(NamedTuple):
    name: str
    base: str
    mutations: dict
    also: tuple = ()
    detail: Optional[str] = None  # a substring of the failed check's detail


def _field(poly, subfields=()):
    """A field certificate; its signature is counted on reading."""
    return {"poly": poly, "subfields": list(subfields)}


def _sub(poly, embedding):
    return {"poly": poly, "embedding": embedding}


# Q(sqrt 2, sqrt -17) with its three quadratic subfields certified
Q_SQRT2_SQRT_M17 = _field(
    [361, 0, 30, 0, 1],
    [
        _sub(["-2", "0", "1"], ["0", "-11/38", "0", "-1/38"]),
        _sub(["17", "0", "1"], ["0", "49/38", "0", "1/38"]),
        _sub(["34", "0", "1"], ["15/2", "0", "1/2"]),
    ],
)
SL4 = {"kind": "sl", "m": 4}
W = "witness.embedding."
WF = "witness.subgroup.field"
IMAGINARY_K0 = {
    "input.diagonal": [],
    "witness.subgroup": {"kind": "res_sl2", "field": _field([102, 0, 1])},
}

ROWS = [
    # ---- subform: an orthogonal parent, so6 = <1,-1,-1,3,5,7>, a = 3
    Row(
        "represented value is not a rational square",
        "so6",
        {"input.diagonal.3": "4", W + "tail_coeffs.0": "4", W + "a_value": "4"},
    ),
    Row(
        "witness vector reproduces the represented value",
        "so6",
        {W + "witness_vector": ["0", "1", "0"]},
    ),
    Row("restricted subform nondegenerate", "so6", {W + "basis.3": ["0"] * 6}),
    Row(
        "subform discriminant matches the represented value",
        "so6",
        {W + "a_value": "5", W + "witness_vector": ["0", "1", "0"]},
    ),
    Row(
        "restricted subform isotropic over Q",
        "so6",
        {W + "basis": [["1", "0", "0", "0", "0", "0"], ["0", "0", "0", "1", "0", "0"],
                       ["0", "1", "0", "0", "0", "0"], ["0", "0", "1", "0", "0", "0"]]},
    ),
    Row(
        "conversion field matches the witness field",
        "so6",
        {WF: _field([-2, 0, 1])},
    ),
    Row("embedding basis valid", "so6", {W + "basis.1.0": "1"}),
    Row("embedding applies to the parent", "so6", {"input": SL4}),
    Row(
        "trace realization applicable",
        "su1_herm_b2_n2",
        {"input.diagonal": [["5", "0", "0", "0"]], "input.hyperbolic_count": 0},
    ),
    # ---- subfield element: SL2 over (2, 3), c = 2 at i
    Row("c recomputes", "sl2_quat_23", {W + "c_value": "3"}),
    Row(
        "c positive",
        "sl2_quat_23",
        {W + "c_value": "-6", W + "coords": ["0", "0", "1"], WF: _field([6, 0, 1])},
    ),
    # a witness field is irreducible, so no field matches a square c
    Row(
        "c is not a rational square",
        "sl2_quat_23",
        {"input.algebra": {"a": "1", "b": "3"}, W + "c_value": "1"},
        also=("witness field matches",),
    ),
    Row("witness field matches", "sl2_quat_23", {WF: _field([-3, 0, 1])}),
    Row("embedding applies to the parent", "sl2_quat_23", {"input": SL4}),
    # ---- block: SL3 in SL4
    Row("block fits", "sl4", {W + "offset": 2}),
    Row(
        "witness is the degree-3 special linear group",
        "sl4",
        {"witness.subgroup": {"kind": "sl", "m": 2}},
    ),
    Row("embedding applies to the parent", "sl4", {"input": {"kind": "sp", "n": 2}}),
    # ---- split-so5: <1,-1,-1,1,2> in Sp4
    Row("form is <1,-1,-1,1,a>", "sp4", {W + "form_coeffs": ["1", "1", "-1", "-1", "2"]}),
    Row(
        "a is not a rational square",
        "sp4",
        {W + "form_coeffs.4": "4", W + "a_value": "4"},
    ),
    Row(
        "conversion field matches the witness field",
        "sp4",
        {WF: _field([-3, 0, 1])},
    ),
    Row(
        "parent has rational rank >= 2",
        "sp4",
        {"input": {"kind": "sp", "n": 1}},
        detail="q_rank = 1",
    ),
    # the Morita case of su2quat is outside the rank engine
    Row(
        "parent has rational rank >= 2",
        "sp4",
        {"input": json.loads((ROOT / "corpus" / "su2quat_morita.json").read_text())},
        detail="Morita",
    ),
    # ---- compositum, rank 2: L = Q(sqrt 17), E = Q(sqrt 2), K0 = Q(sqrt 34)
    Row("splitting value recomputes", "su2quat_rank2", {W + "e_value": "3"}),
    Row("base quadratic class matches the parent", "su2quat_rank2", {W + "l_class": 5}),
    Row(
        "compositum is biquadratic",
        "su2quat_rank2",
        {"input.l_d": 2, W + "l_class": 2},
        also=("fixed-field class recomputes",),
    ),
    Row(
        "fixed-field class recomputes",
        "su2quat_rank2",
        {W + "k0_class": 2, WF: _field([-2, 0, 1])},
    ),
    # any other certificate holding the three subfields has degree 8 or
    # more, whose irreducibility a document's parser cannot prove
    Row(
        "compositum certificate has degree 4",
        "su2quat_rank2",
        {W + "k_cert": _field([-34, 0, 1])},
        also=(
            "compositum contains Q(sqrt(2))",
            "compositum contains Q(sqrt(17))",
            "compositum contains Q(sqrt(34))",
        ),
    ),
    Row("compositum contains Q(sqrt(2))", "su2quat_rank2", {W + "k_cert.subfields.0.embedding.1": "0"}),
    Row("compositum contains Q(sqrt(17))", "su2quat_rank2", {W + "k_cert.subfields.1.embedding.1": "0"}),
    Row("compositum contains Q(sqrt(34))", "su2quat_rank2", {W + "k_cert.subfields.2.embedding.0": "0"}),
    # the rank-3 witness in a rank-2 parent: e and L of opposite signs make
    # K0 imaginary, so the two checks fail together
    Row(
        "splitting field sign matches the base field",
        "su2quat_rank3",
        IMAGINARY_K0,
        also=("fixed field real",),
    ),
    Row(
        "fixed field real",
        "su2quat_rank3",
        IMAGINARY_K0,
        also=("splitting field sign matches the base field",),
    ),
    Row(
        "witness is the restriction of scalars of SL2 from the fixed field",
        "su2quat_rank2",
        {WF: _field([-2, 0, 1])},
    ),
    Row("embedding applies to the parent", "su2quat_rank2", {"input": SL4}),
    # ---- compositum, rank 3: L = Q(sqrt 17), E = Q(sqrt -6), K0 = Q(sqrt -102)
    # a consistent tower with L = Q(sqrt -17) imaginary and E = Q(sqrt 2) real
    Row(
        "splitting field imaginary when the base field is",
        "su2quat_rank3",
        {
            "input.l_d": -17,
            W + "e_value": "2",
            W + "e_class": 2,
            W + "e_coords": ["1", "0", "0"],
            W + "l_class": -17,
            W + "k0_class": -34,
            W + "k_cert": Q_SQRT2_SQRT_M17,
            "witness.subgroup.k_d": -34,
            "witness.subgroup.l_quartic": Q_SQRT2_SQRT_M17,
        },
    ),
    Row(
        "witness is the restriction from the fixed field of the quasisplit"
        " unitary group over the compositum",
        "su2quat_rank3",
        {"witness.subgroup.k_d": -6},
    ),
    # ---- pure-quaternion tower: <i, j + k> over (-1, -1), alpha = j - k,
    # F' = Q(sqrt -2), c = sqrt -2, K = Q[x]/(x^4 + 2)
    # alpha = i + j is not orthogonal to the entries <i, 3i>; their ratio
    # c = 3 is rational, and K = Q(sqrt -2, sqrt -3) is biquadratic
    Row(
        "alpha anticommutes with both entries",
        "su1_skew_tower",
        {
            "input.diagonal": [["0", "1", "0", "0"], ["0", "3", "0", "0"]],
            W + "alpha_coords": ["1", "1", "0"],
            W + "c_x": "3",
            W + "c_y": "0",
            W + "k_is_biquadratic": True,
            W + "k_cert": _field([1, 0, 10, 0, 1]),
            WF: _field([1, 0, 10, 0, 1]),
        },
    ),
    Row("alpha generates the claimed quadratic field", "su1_skew_tower", {W + "fprime_class": -1}),
    # c = 4 sqrt -2 still gives x^4 + 2 the root sqrt(-c) / 2
    Row("c equals the ratio of the two entries inside F'", "su1_skew_tower", {W + "c_y": "4"}),
    # <i, 2i>: a root of the tower polynomial would lie in F', so no
    # irreducible quartic passes the root check
    Row(
        "-c is not a square in F'",
        "su1_skew_tower",
        {"input.diagonal.1": ["0", "2", "0", "0"], W + "c_x": "2", W + "c_y": "0"},
        also=("tower polynomial has the root sqrt(-c) up to a rational scale",),
    ),
    Row(
        "tower certificate has degree 4",
        "su1_skew_tower",
        {W + "k_cert": _field([2, 0, 0, 0, 0, 0, 1]), WF: _field([2, 0, 0, 0, 0, 0, 1])},
    ),
    Row(
        "tower polynomial is even",
        "su1_skew_tower",
        {W + "k_cert": _field([1, 1, 0, 0, 1]), WF: _field([1, 1, 0, 0, 1])},
    ),
    Row(
        "tower discriminant lies in F'",
        "su1_skew_tower",
        {W + "k_cert": _field([3, 0, 0, 0, 1]), WF: _field([3, 0, 0, 0, 1])},
    ),
    Row(
        "tower polynomial has the root sqrt(-c) up to a rational scale",
        "su1_skew_tower",
        {W + "k_cert": _field([18, 0, 0, 0, 1]), WF: _field([18, 0, 0, 0, 1])},
    ),
    Row("witness field is the tower certificate", "su1_skew_tower", {WF: _field([3, 0, 0, 0, 1])}),
    Row("entry indices valid", "su1_skew_tower", {W + "entry_indices": [1, 0]}),
    Row(
        "embedding applies to the parent",
        "su1_skew_tower",
        {"input.form_kind": "hermitian", "input.diagonal": [["1", "0", "0", "0"]]},
    ),
    # ---- biquadratic tower: <2j, j> over (-1, -3), alpha = i, c = 1/2,
    # K = Q(i, sqrt 2)
    Row(
        "biquadratic tower has rational c",
        "biquadratic_tower",
        {"input.diagonal.1": ["0", "0", "1", "-2"], W + "c_y": "1"},
    ),
    Row(
        "biquadratic certificate has the three expected subfields",
        "biquadratic_tower",
        {"input.diagonal.1": ["0", "0", "3", "0"], W + "c_x": "3/2"},
    ),
    # ---- subfield restriction under ResSL2: Q(sqrt 2) in Q(2^(1/4))
    Row(
        "subfield certificate verifies in the parent field",
        "res_sl2_x4m2",
        {W + "cert.embedding": ["0", "0", "2"]},
    ),
    # a certificate that verifies has 1 < degree < the parent's degree
    Row(
        "subfield proper",
        "res_sl2_x4m2",
        {W + "cert": {"poly": ["-2", "0", "0", "0", "1"], "embedding": ["0", "1"]},
         WF: _field([-2, 0, 0, 0, 1])},
        also=("subfield certificate verifies in the parent field",),
    ),
    # Q(i), at theta^2, in Q(zeta_8)
    Row(
        "subfield is neither Q nor imaginary quadratic",
        "res_sl2_x4m2",
        {"input.field.poly": [1, 0, 0, 0, 1], W + "cert.poly": ["1", "0", "1"],
         WF: _field([1, 0, 1])},
    ),
    Row("witness field matches the certificate", "res_sl2_x4m2", {WF: _field([-3, 0, 1])}),
    Row("embedding applies to the parent", "res_sl2_x4m2", {"input": SL4}),
    # ---- subfield restriction under ResSU3: Q(sqrt 2) in Q(zeta_8)
    Row(
        "subfield certificate verifies in the quartic",
        "res_su3_zeta8",
        {W + "cert.embedding": ["0", "1", "0", "1"]},
    ),
    Row(
        "subfield is real quadratic",
        "res_su3_zeta8",
        {W + "cert.poly": ["2", "0", "1"], W + "cert.embedding": ["0", "1", "0", "1"],
         "witness.subgroup.d": -2},
    ),
    Row(
        "witness is the quasisplit ternary unitary group over the subfield",
        "res_su3_zeta8",
        {"witness.subgroup.diagonal": ["1", "1", "-1"]},
    ),
]


def _set(doc: dict, path: str, value) -> None:
    *head, last = [int(k) if k.isdigit() else k for k in path.split(".")]
    for key in head:
        doc = doc[key]
    doc[last] = copy.deepcopy(value)


def _forge(row: Row) -> dict:
    doc = json.loads(GOLDEN[row.base].read_text(encoding="utf-8"))
    for path, value in row.mutations.items():
        _set(doc, path, value)
    return doc


def _report(doc: dict) -> verify.VerifyReport:
    """verify_witness of the document's witness in its parent, converted to
    a restriction of scalars as `almin verify` converts it."""
    parent = serde.group_from_doc(doc["input"], "$.input")
    witness = serde.witness_from_doc(doc["witness"], "$.witness")
    converted = qgroup.is_absolutely_almost_simple(parent)
    if isinstance(converted, qgroup.ConvertibleTo):
        parent = converted.spec
    return verify.verify_witness(parent, witness)


@pytest.mark.parametrize("row", ROWS, ids=[f"{r.base}: {r.name}" for r in ROWS])
def test_forgery_fails_its_check(row, run_cli, tmp_path):
    doc = _forge(row)
    failed = {c.name: c.detail for c in _report(doc).failures}
    assert sorted(failed) == sorted({row.name, *row.also})
    if row.detail is not None:
        assert row.detail in failed[row.name]
    path = tmp_path / "forged.json"
    path.write_text(json.dumps(doc))
    r = run_cli("verify", str(path))
    assert r.code == 3
    checks = r.json["verification"]["checks"]
    assert sorted(c["name"] for c in checks if not c["passed"]) == sorted(failed)


def test_quadratic_tower_certificate_fails_its_checks():
    """x^2 + 2 has no x^3 coefficient: the even-polynomial test reads the
    odd coefficients it has instead of indexing past them."""
    row = Row("", "su1_skew_tower", {W + "k_cert": _field([2, 0, 1]), WF: _field([2, 0, 1])})
    failed = [c.name for c in _report(_forge(row)).failures]
    assert failed == ["tower certificate has degree 4", "tower discriminant lies in F'"]


def test_unknown_embedding_kind_fails():
    doc = json.loads(GOLDEN["sl4"].read_text(encoding="utf-8"))
    parent = serde.group_from_doc(doc["input"], "$.input")
    witness = replace(serde.witness_from_doc(doc["witness"]), embedding=None)
    report = verify.verify_witness(parent, witness)
    assert [c.name for c in report.failures] == ["embedding kind known"]


def _call_sites() -> dict:
    """(function, name pattern) of each `_check` call in verify.py whose
    `passed` is not the constant True, with the number of forgeries it
    needs: one, or one per value of an enclosing loop over a tuple, whose
    names must then differ.  An f-string name becomes a pattern."""
    tree = ast.parse(pathlib.Path(verify.__file__).read_text(encoding="utf-8"))
    sites: dict = collections.defaultdict(list)

    def pattern(node) -> str:
        if isinstance(node, ast.Constant):
            return re.escape(node.value)
        assert isinstance(node, ast.JoinedStr), ast.dump(node)
        return "".join(
            re.escape(part.value) if isinstance(part, ast.Constant) else ".+"
            for part in node.values
        )

    def visit(node, fn: str, times: int) -> None:
        if isinstance(node, ast.For) and isinstance(node.iter, ast.Tuple):
            times *= len(node.iter.elts)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_check":
            passed = node.args[1]
            if not (isinstance(passed, ast.Constant) and passed.value is True):
                sites[fn, pattern(node.args[0])].append(times)
        for child in ast.iter_child_nodes(node):
            visit(child, fn, times)

    for fn in tree.body:
        if isinstance(fn, ast.FunctionDef):
            visit(fn, fn.name, 1)
    return sites


def test_every_check_call_site_has_a_forgery():
    sites = _call_sites()
    assert sum(map(len, sites.values())) > 50  # the parse found the checks
    covered = collections.defaultdict(list)
    # test_unknown_embedding_kind_fails: no document reaches this check
    covered["verify_witness", re.escape("embedding kind known")].append("in process")
    for row in ROWS:
        kind = _forge(row)["witness"]["embedding"]["type"]
        for fn, pat in sites:
            if fn in SITES[kind] and re.fullmatch(pat, row.name):
                covered[fn, pat].append(row.name)
    missing = {
        site: covered[site]
        for site, needs in sites.items()
        if len(covered[site]) < sum(needs) or len(set(covered[site])) < max(needs)
    }
    assert not missing, missing
