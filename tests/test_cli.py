import json
import os
import pathlib
import subprocess
import sys
import time

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus"
GOLDEN = ROOT / "tests" / "golden"


def corpus(name: str) -> str:
    return str(CORPUS / f"{name}.json")


def test_analyze_minimal_exit_zero(run_cli):
    r = run_cli("analyze", corpus("sl3"))
    assert r.code == 0
    doc = r.json
    assert doc["verdict"] == "minimal" and doc["matched_case"] == "i"


def test_analyze_not_minimal_embeds_verification(run_cli):
    r = run_cli("analyze", corpus("sp4"))
    assert r.code == 0
    doc = r.json
    assert doc["verdict"] == "not_minimal"
    assert doc["verification"]["ok"] is True
    assert all(c["passed"] for c in doc["verification"]["checks"])


def test_biquadratic_tower_matches_golden(run_cli, tmp_path):
    """The one witness of the biquadratic branch of the tower check: analyzing
    the golden's input reproduces it byte for byte."""
    text = (GOLDEN / "biquadratic_tower.json").read_text(encoding="utf-8")
    doc = json.loads(text)
    assert doc["witness"]["embedding"]["k_is_biquadratic"] is True
    r = run_cli("analyze", _write(tmp_path, doc["input"]))
    assert (r.code, r.stdout) == (0, text)


def test_golden_documents_carry_no_python_reprs():
    """A detail writes rationals as documents do ("n" or "n/d"), and a
    quaternion as its four coordinates, never as a Python repr."""
    paths = sorted((CORPUS / "expected").glob("*.json")) + sorted(GOLDEN.glob("*.json"))
    assert len(paths) == 44
    for path in paths:
        text = path.read_text(encoding="utf-8")
        assert "Fraction(" not in text and "QuatElement(" not in text, path.name


def test_analyze_not_applicable_exit_two(run_cli):
    r = run_cli("analyze", corpus("sl2"))
    assert r.code == 2
    assert r.json["verdict"] == "not_applicable"


def test_analyze_unsupported_exit_three(run_cli):
    r = run_cli("analyze", corpus("so4_anisotropic"))
    assert r.code == 3
    assert r.json["verdict"] == "unsupported"


def test_analyze_malformed_exit_one(run_cli):
    r = run_cli("analyze", corpus("malformed"))
    assert r.code == 1
    doc = r.json
    assert doc["error"] == "parse_error"
    assert doc["path"] == "$.diagonal[1]"


def test_rank_gauss(run_cli):
    r = run_cli("rank", corpus("res_sl2_gauss"))
    assert r.code == 0
    assert r.json == {"q_rank": 1, "real_rank": 1, "s_g_nonempty": False}


def test_rank_sl3(run_cli):
    r = run_cli("rank", corpus("sl3"))
    assert r.json == {"q_rank": 2, "real_rank": 2, "s_g_nonempty": True}


def test_witness_command(run_cli):
    r = run_cli("witness", corpus("so_1m1m135"))
    assert r.code == 0
    assert "witness" in r.json


def test_verify_roundtrip(run_cli, tmp_path):
    r = run_cli("analyze", corpus("sp4"))
    verdict_path = tmp_path / "verdict.json"
    verdict_path.write_text(r.stdout)
    r2 = run_cli("verify", str(verdict_path))
    assert r2.code == 0
    assert r2.json["verification"]["ok"] is True


def test_verify_rejects_corrupted_witness(run_cli, tmp_path):
    r = run_cli("analyze", corpus("sp4"))
    doc = r.json
    # corrupt the claimed nonsquare into a square
    emb = doc["witness"]["embedding"]
    emb["a_value"] = "4"
    emb["form_coeffs"] = emb["form_coeffs"][:4] + ["4"]
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(doc))
    r2 = run_cli("verify", str(p))
    assert r2.code == 3
    assert r2.json["verification"]["ok"] is False


def test_verify_requires_witness_document(run_cli, tmp_path):
    p = tmp_path / "min.json"
    r = run_cli("analyze", corpus("sl3"))
    p.write_text(r.stdout)
    r2 = run_cli("verify", str(p))
    assert r2.code == 2
    assert r2.json["error"] == "nothing_to_verify"


def test_form_hilbert(run_cli):
    r = run_cli("form", "hilbert", "--", "-1", "-1", "2")
    assert r.code == 0 and r.stdout.strip() == "-1"
    r2 = run_cli("form", "hilbert", "2", "3", "real")
    assert r2.stdout.strip() == "1"


def test_form_ramify(run_cli):
    r = run_cli("form", "ramify", "--", "-1", "-1")
    assert r.json == {"finite": [2], "infinite": True}
    r2 = run_cli("form", "ramify", "2", "3")
    assert r2.json == {"finite": [2, 3], "infinite": False}


# A malformed number is a parse_error at $ in every form subcommand; a zero
# is well formed, and the symbol or the algebra refuses it
@pytest.mark.parametrize(
    "argv,want",
    [
        (("form", "hilbert", "1/0", "3", "2"), (1, "parse_error", "$")),
        (("form", "hilbert", "abc", "3", "2"), (1, "parse_error", "$")),
        (("form", "hilbert", "2", "3", "x"), (1, "parse_error", "$")),
        (("form", "hilbert", "0", "3", "2"), (1, "invalid_input", None)),
        (("form", "ramify", "2", "1/0"), (1, "parse_error", "$")),
        (("form", "ramify", "abc", "3"), (1, "parse_error", "$")),
        (("form", "ramify", "0", "3"), (1, "invalid_input", None)),
        (("form", "witt", "1/0"), (1, "parse_error", "$")),
    ],
)
def test_form_argument_errors(run_cli, argv, want):
    r = run_cli(*argv)
    assert (r.code, r.json["error"], r.json.get("path")) == want


def test_form_witt_and_diag(run_cli):
    r = run_cli("form", "witt", "1,-1,-1,3,5")
    assert r.json["witt_index"] == 1
    assert r.json["anisotropic_dimension"] == 3
    r2 = run_cli("form", "diag", "[[0,1],[1,0]]")
    assert r2.code == 0 and len(r2.json["diagonal"]) == 2


def test_form_witt_with_a_ten_digit_prime(run_cli, monkeypatch):
    # the isotropic vector comes from Legendre descent; a height-bounded
    # search ended this in search_exhausted (exit 3).  cmd_form imports
    # witt_decompose from quadform when it runs, so it is patched there
    from almin import quadform

    made = []

    def recording(f):
        made.append(real_witt(f))
        return made[-1]

    real_witt = quadform.witt_decompose
    monkeypatch.setattr(quadform, "witt_decompose", recording)
    r = run_cli("form", "witt", "1,1,-1000000009")
    assert r.code == 0
    assert r.json["witt_index"] == 1 and r.json["anisotropic_dimension"] == 1
    assert len(made) == 1 and made[0].check()


def test_form_isotropic(run_cli):
    r = run_cli("form", "isotropic", "1,-1,-1,3,5")
    assert r.json == {"isotropic": True}
    r2 = run_cli("form", "isotropic", "--place", "3", "--", "-1,3,5")
    assert r2.json == {"isotropic": False}


def test_roots_command(run_cli):
    r = run_cli("roots")
    assert r.code == 0
    lines = r.stdout.strip().splitlines()
    assert len(lines) == 44
    assert all(line.startswith("ok ") for line in lines)
    assert r.stdout == (GOLDEN / "roots.txt").read_text(encoding="utf-8")


def test_form_witt_matches_golden(run_cli):
    # the anisotropic coefficients depend on the basis witt_decompose keeps,
    # so they pin its choice of independent vectors
    golden = json.loads((GOLDEN / "form_witt.json").read_text(encoding="utf-8"))
    for coeffs, want in golden.items():
        r = run_cli("form", "witt", coeffs)
        assert r.code == 0 and r.stdout == want, coeffs


def test_selftest_line_and_determinism(run_cli):
    r = run_cli("selftest")
    assert r.code == 0
    assert r.stdout == (
        "triality 24/24, E6 identities 4/4, F4 C3 ok, hilbert oracle ok\n"
    )
    r2 = run_cli("selftest")
    assert r2.stdout == r.stdout


def test_hilbert_selftest_builds_no_fraction():
    # the table and the product formula hand ints to hilbert_symbol and
    # relevant_places, which read them as they are
    from fractions import Fraction

    from almin import cli

    new, built = Fraction.__dict__["__new__"], []

    def counting_new(cls, *args, **kwargs):
        built.append(args)
        return new.__func__(cls, *args, **kwargs)

    Fraction.__new__ = staticmethod(counting_new)
    try:
        ok = cli._hilbert_selftest()
    finally:
        Fraction.__new__ = new
    assert ok and built == []


def test_analyze_deterministic_output(run_cli):
    a = run_cli("analyze", corpus("so_1m1m135")).stdout
    b = run_cli("analyze", corpus("so_1m1m135")).stdout
    assert a == b


def test_missing_file_is_read_error(run_cli):
    r = run_cli("analyze", "/nonexistent/nope.json")
    assert r.code == 1
    assert r.json["error"] == "read_error"


def test_unproven_irreducibility_is_unsupported(run_cli, tmp_path):
    # Q(sqrt 2, sqrt 3, sqrt 5): degree 8, beyond the degree-pattern proof
    spec = {"kind": "res_sl2", "field": {"poly": [576, 0, -960, 0, 352, 0, -40, 0, 1]}}
    p = tmp_path / "octic.json"
    p.write_text(json.dumps(spec))
    r = run_cli("analyze", str(p))
    assert r.code == 3
    assert r.json["error"] == "unsupported"
    assert "degree-8" in r.json["detail"]


def test_factorization_budget_exit_three(run_cli, monkeypatch, tmp_path):
    # 2^128 + 1 = 59649589127497217 * 5704689200685129054721: rho would need
    # about 2^28 iterations for the smaller factor
    t0 = time.perf_counter()
    r = run_cli("form", "witt", "1,1,-340282366920938463463374607431768211457")
    assert time.perf_counter() - t0 < 15
    assert r.code == 3
    assert r.json["error"] == "factorization_exceeded"
    assert "RHO_ITERATION_BUDGET" in r.json["detail"]
    # a budget tripped while parsing a field certificate is not a parse error:
    # the rational-root test of the cubic factors its constant term
    from almin import algebra, arith, quadform

    monkeypatch.setattr(arith, "RHO_ITERATION_BUDGET", 10)
    p = tmp_path / "big.json"
    p.write_text(json.dumps(BIG_FIELD))
    r = run_cli("analyze", str(p))
    assert r.code == 3
    assert r.json["error"] == "factorization_exceeded"
    # the quadratic x^2 - n is proven irreducible by its discriminant, and
    # nothing on its way to a verdict is factored
    calls = []
    for mod in (arith, quadform, algebra):
        monkeypatch.setattr(mod, "factorize", lambda m: calls.append(m) or {})
    p.write_text(json.dumps({"kind": "res_sl2", "field": {"poly": [-BIG_N, 0, 1]}}))
    r = run_cli("analyze", str(p))
    assert (r.code, r.json["matched_case"], calls) == (0, "iv", [])


@pytest.mark.parametrize("name", ["so33_split", "so6", "so_1m1m135", "sp4", "sp6"])
def test_verify_of_quaternary_witnesses_factors_nothing(run_cli, monkeypatch, name):
    # subform and split-so5 witnesses name their field by num * den of a and
    # compare square classes by products, so no check of theirs factors
    from almin import algebra, arith, quadform

    def refuse(n):
        raise AssertionError(f"factorize({n}) called")

    for mod in (arith, quadform, algebra):
        monkeypatch.setattr(mod, "factorize", refuse)
    r = run_cli("verify", str(CORPUS / "expected" / f"{name}.json"))
    assert r.code == 0 and r.json["verification"]["ok"] is True


def _fresh_python(code: str) -> str:
    """The stdout of `code` run in a new interpreter that imports almin from src/."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    p = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert p.returncode == 0, p.stderr
    return p.stdout


def _modules_after(*argv) -> list[str]:
    """The almin modules a fresh interpreter holds after one cli.main(argv)."""
    code = f"""
import contextlib, io, json, sys
from almin import cli
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main({list(argv)!r}) == 0
print(json.dumps(sorted(m for m in sys.modules if m == "almin" or m.startswith("almin."))))
"""
    return json.loads(_fresh_python(code))


@pytest.mark.parametrize("command", ["selftest", "roots"])
def test_root_system_commands_load_no_rank_engine(command):
    assert _modules_after(command) == [
        "almin",
        "almin.arith",
        "almin.cli",
        "almin.linalg",
        "almin.roots",
        "almin.value",
    ]


@pytest.mark.parametrize(
    "argv", [("form", "diag", "1,2,3"), ("form", "witt", "1,-1,2"), ("form", "isotropic", "1,1,-2")]
)
def test_quadratic_form_commands_load_no_document_schema(argv):
    # the rationals are written by arith.rat_to_str, so serde and the rank
    # engine stay unloaded
    assert _modules_after(*argv) == [
        "almin",
        "almin.arith",
        "almin.cli",
        "almin.linalg",
        "almin.quadform",
        "almin.value",
    ]


def test_verify_loads_neither_minimal_nor_roots():
    loaded = _modules_after("verify", str(CORPUS / "expected" / "sp4.json"))
    assert "almin.verify" in loaded
    assert "almin.minimal" not in loaded and "almin.roots" not in loaded


def test_analyze_loads_no_roots():
    loaded = _modules_after("analyze", corpus("sp4"))
    assert "almin.minimal" in loaded and "almin.roots" not in loaded


def test_import_almin_loads_no_submodule():
    code = "import json, sys, almin; print(json.dumps([m for m in sys.modules if m.startswith('almin.')]))"
    assert json.loads(_fresh_python(code)) == []


def test_lazy_names_are_their_home_modules_attributes():
    import importlib

    import almin

    assert len(almin.__all__) == len(set(almin.__all__)) == 61
    for name in almin.__all__:
        home = importlib.import_module(f"almin.{almin._HOME[name]}")
        assert getattr(almin, name) is getattr(home, name), name
    namespace = {}
    exec("from almin import *", namespace)
    assert all(namespace[name] is getattr(almin, name) for name in almin.__all__)
    with pytest.raises(AttributeError):
        almin.no_such_name


def test_analyze_and_verify_do_not_import_sympy(tmp_path):
    verdict = tmp_path / "verdict.json"
    code = f"""
import contextlib, io, sys
from almin import cli
buf = io.StringIO()
with contextlib.redirect_stdout(buf):
    assert cli.main(["analyze", {corpus("res_sl2_x4m2")!r}]) == 0
open({str(verdict)!r}, "w").write(buf.getvalue())
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["verify", {str(verdict)!r}]) == 0
print("sympy" in sys.modules)
"""
    assert _fresh_python(code).strip() == "False"
    assert json.loads(verdict.read_text())["verdict"] == "not_minimal"


def test_package_source_does_not_mention_sympy():
    hits = [
        str(path)
        for path in (ROOT / "src" / "almin").rglob("*.py")
        if "sympy" in path.read_text(encoding="utf-8")
    ]
    assert hits == []


# Error documents, each with a reproducer: (exit code, error tag, JSON path
# or None) per command.  `verify` reads the spec as the input of a
# not_minimal document, which it parses before the witness.
# Refused at parse: an empty form (the row "isotropic tail" keeps the id of
# the refusal it replaced; an isotropic tail is ranked, see test_qgroup.py),
# and a skew tail with an isotropic entry, i + k of reduced norm 0 over
# M_2(Q) = (1, 1)
EMPTY_FORM = {
    "kind": "su1",
    "algebra": {"a": "-1", "b": "-1"},
    "form_kind": "hermitian",
    "diagonal": [],
}
ISOTROPIC_SKEW_TAIL = {
    "kind": "su1",
    "algebra": {"a": "1", "b": "1"},
    "form_kind": "skew_hermitian",
    "diagonal": [["0", "1", "0", "1"], ["0", "1", "0", "0"]],
}
# an empty second-kind form over a real L, where f.rank - 1 would read -1
EMPTY_SECOND_KIND = {"kind": "su2quat", "l_d": 2, "algebra": {"a": "-1", "b": "-1"}, "diagonal": []}
# the listed subfield Q(sqrt 3) does not embed by x -> x^2 in Q(2^(1/4))
FORGED_SUBFIELD = {
    "kind": "res_sl2",
    "field": {"poly": [-2, 0, 0, 0, 1], "subfields": [{"poly": [-3, 0, 1], "embedding": [0, 0, 1]}]},
}
# witness_context admits a real k_field (here Q(sqrt 2)); only a witness
# subgroup may set it
WITNESS_CONTEXT = {
    "kind": "res_su3",
    "k_d": 2,
    "l_quartic": {"poly": [1, 0, -10, 0, 1]},
    "witness_context": True,
}
OCTIC = {"kind": "res_sl2", "field": {"poly": [576, 0, -960, 0, 352, 0, -40, 0, 1]}}
# Q(i) has one complex place, not two real ones
FORGED_SIGNATURE = {"kind": "res_sl2", "field": {"poly": [1, 0, 1], "signature": [2, 0]}}
# parsing the cubic x^3 - n factors n = 1000003 * 1000033, past a small rho budget
BIG_N = 1000003 * 1000033
BIG_FIELD = {"kind": "res_sl2", "field": {"poly": [-BIG_N, 0, 0, 1]}}
MALFORMED = json.loads((CORPUS / "malformed.json").read_text())
ERROR_TABLE = [
    # (reproducer, spec or raw text, {command: (code, error, path)})
    ("missing file", None, dict.fromkeys(
        ("analyze", "rank", "witness", "verify"), (1, "read_error", None))),
    ("bad json", "{not json", dict.fromkeys(
        ("analyze", "rank", "witness", "verify"), (1, "read_error", None))),
    ("malformed", MALFORMED, {
        **dict.fromkeys(("analyze", "rank", "witness"), (1, "parse_error", "$.diagonal[1]")),
        "verify": (1, "parse_error", "$.input.diagonal[1]"),
    }),
    ("isotropic tail", EMPTY_FORM, dict.fromkeys(
        ("analyze", "rank", "witness"), (1, "parse_error", "$"))),
    ("octic", OCTIC, dict.fromkeys(
        ("analyze", "rank", "witness", "verify"), (3, "unsupported", None))),
    ("rho budget", BIG_FIELD, dict.fromkeys(
        ("analyze", "rank", "witness", "verify"), (3, "factorization_exceeded", None))),
    ("isotropic skew tail", ISOTROPIC_SKEW_TAIL, dict.fromkeys(
        ("analyze", "rank", "witness"), (1, "parse_error", "$"))),
    ("witness context", WITNESS_CONTEXT, {
        **dict.fromkeys(("analyze", "rank", "witness"), (1, "parse_error", "$.witness_context")),
        "verify": (1, "parse_error", "$.input.witness_context"),
    }),
    ("forged signature", FORGED_SIGNATURE, {
        **dict.fromkeys(("analyze", "rank", "witness"), (1, "parse_error", "$.field.signature")),
        "verify": (1, "parse_error", "$.input.field.signature"),
    }),
    ("empty second kind", EMPTY_SECOND_KIND, {
        **dict.fromkeys(("analyze", "rank", "witness"), (1, "parse_error", "$")),
        "verify": (1, "parse_error", "$.input"),
    }),
    ("forged subfield", FORGED_SUBFIELD, dict.fromkeys(
        ("analyze", "witness"), (1, "invalid_spec", None))),
]


@pytest.mark.parametrize(
    "name,spec,command,want",
    [(n, s, c, w) for n, s, table in ERROR_TABLE for c, w in table.items()],
)
def test_error_table(run_cli, monkeypatch, tmp_path, name, spec, command, want):
    from almin import arith

    monkeypatch.setattr(arith, "RHO_ITERATION_BUDGET", 10)
    path = tmp_path / "doc.json"
    if isinstance(spec, str):
        path.write_text(spec)
    elif spec is not None:
        if command == "verify":
            spec = {"schema": "almin/1", "input": spec, "verdict": "not_minimal", "witness": {}}
        path.write_text(json.dumps(spec))
    r = run_cli(command, str(path))
    doc = r.json
    assert (r.code, doc["error"], doc.get("path")) == want
    assert sorted(doc) == sorted(["schema", "error", "detail"] + (["path"] if want[2] else []))


def test_witness_subgroup_keeps_its_witness_context(run_cli, tmp_path):
    doc = json.loads((CORPUS / "expected" / "su2quat_rank3.json").read_text())
    assert doc["witness"]["subgroup"]["witness_context"] is True
    path = tmp_path / "verdict.json"
    path.write_text(json.dumps(doc))
    r = run_cli("verify", str(path))
    assert r.code == 0 and r.json["verification"]["ok"] is True


def test_undecided_long_skew_tail_is_unsupported_at_once(tmp_path):
    # a rank-3 skew tail over a division algebra is undecided; this one,
    # <i, j, 3k> over (-1, -3), is reached with real rank 2
    spec = {
        "kind": "su1",
        "algebra": {"a": "-1", "b": "-3"},
        "form_kind": "skew_hermitian",
        "diagonal": [["0", "1", "0", "0"], ["0", "0", "1", "0"], ["0", "0", "0", "3"]],
        "hyperbolic_count": 1,
    }
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(spec))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    p = subprocess.run(
        [sys.executable, "-m", "almin.cli", "analyze", str(path)],
        capture_output=True, text=True, env=env, timeout=5,
    )
    assert p.returncode == 3, p.stderr
    assert json.loads(p.stdout)["verdict"] == "unsupported"


def test_verify_rejects_a_document_of_another_schema(run_cli):
    r = run_cli("verify", corpus("sl3"))
    assert (r.code, r.json["error"], r.json["path"]) == (1, "parse_error", "$.schema")


def test_commands_take_no_bound_options(capsys):
    from almin import cli

    with pytest.raises(SystemExit) as exc:
        cli.main(["analyze", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: almin analyze [-h] path\n")
    for argv in (["analyze"], ["rank"], ["witness"], ["form", "diag"], ["form", "witt"]):
        for flag in ("--height-bound", "--factor-bound"):
            with pytest.raises(SystemExit) as exc:
                cli.main(argv + [flag, "10", "1,-1,1"])
            assert exc.value.code == 2
    capsys.readouterr()


def test_analyze_leaves_the_trial_division_bound_alone(run_cli):
    from almin import arith

    before = arith.TRIAL_DIVISION_BOUND
    assert run_cli("analyze", corpus("res_sl2_x4m2")).code == 0
    assert arith.TRIAL_DIVISION_BOUND == before == 10**6


def test_closed_stdout_is_not_a_read_error(monkeypatch):
    from almin import cli

    class ClosedPipe:
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    with pytest.raises(BrokenPipeError) as exc:
        cli.main(["rank", corpus("sl3")])
    assert exc.value.__context__ is None  # no error document was attempted


def test_closed_pipe_ends_with_exit_one_and_no_traceback():
    # the read end closes before the child has imported almin, so its one
    # write of the verification document meets a closed pipe
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    p = subprocess.Popen(
        [sys.executable, "-m", "almin.cli", "verify", str(CORPUS / "expected" / "sp4.json")],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    p.stdout.close()
    err = p.stderr.read()
    p.stderr.close()
    assert p.wait(timeout=10) == 1
    assert err == b""


def test_witness_failing_its_own_verification_is_an_internal_error(run_cli, monkeypatch):
    from almin import minimal

    def failing(parent, w):
        return minimal.VerifyReport(False, (minimal.VerifyCheck("forced", False, "x"),))

    monkeypatch.setattr(minimal, "verify_witness", failing)
    r = run_cli("analyze", corpus("sp4"))
    doc = r.json
    assert (r.code, doc["error"]) == (1, "internal_error")
    assert sorted(doc) == ["detail", "error", "schema"]
    assert "forced" in doc["detail"]


def _write(tmp_path, doc, name="doc.json") -> str:
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_declared_certificate_claims_decide_nothing(run_cli, tmp_path):
    # x^4 - 2 contains Q(sqrt 2), whatever its document declares
    spec = {"kind": "res_sl2", "field": {"poly": [-2, 0, 0, 0, 1], "subfields": [],
                                         "subfields_complete": True}}
    r = run_cli("analyze", _write(tmp_path, spec))
    assert (r.code, r.json["verdict"]) == (0, "not_minimal")
    assert r.json["witness"]["subgroup"]["field"]["poly"] == [-2, 0, 1]
    r2 = run_cli("verify", _write(tmp_path, r.json, "verdict.json"))
    assert r2.code == 0 and r2.json["verification"]["ok"] is True
    # a declared signature that agrees with the Sturm count is accepted
    spec["field"]["signature"] = [2, 1]
    assert run_cli("analyze", _write(tmp_path, spec)).code == 0
    # x^6 + 108 contains the real cubic Q(2^(1/3)); a sextic's subfields are
    # not computed, so the verdict is unsupported, not a conditional minimal
    r3 = run_cli("analyze", _write(tmp_path, {"kind": "res_sl2", "field": {"poly": [108, 0, 0, 0, 0, 0, 1]}}))
    assert (r3.code, r3.json["verdict"]) == (3, "unsupported")


def test_assumed_tail_anisotropy_is_not_read(run_cli, tmp_path):
    # <i, j, k> over (-1, -1) is isotropic; with the old flag this gave a
    # not_minimal verdict stating q_rank = 1
    spec = {
        "kind": "su1",
        "algebra": {"a": "-1", "b": "-1"},
        "form_kind": "skew_hermitian",
        "diagonal": [["0", "1", "0", "0"], ["0", "0", "1", "0"], ["0", "0", "0", "1"]],
        "hyperbolic_count": 1,
        "assume_tail_anisotropic": True,
    }
    r = run_cli("analyze", _write(tmp_path, spec))
    assert (r.code, r.json["verdict"]) == (3, "unsupported")
    r2 = run_cli("rank", _write(tmp_path, spec))
    assert (r2.code, r2.json["error"]) == (3, "unsupported")


def test_forged_witness_signature_is_a_parse_error(run_cli, tmp_path):
    doc = json.loads((CORPUS / "expected" / "res_sl2_x4m2.json").read_text())
    doc["witness"]["subgroup"]["field"]["signature"] = [0, 1]
    r = run_cli("verify", _write(tmp_path, doc))
    assert (r.code, r.json["error"], r.json["path"]) == (
        1, "parse_error", "$.witness.subgroup.field.signature")


def _failed_checks(r) -> list:
    return [c["name"] for c in r.json["verification"]["checks"] if not c["passed"]]


def test_forged_sl3_documents_fail_verification(run_cli, tmp_path):
    """SL3 over Q is minimal (case i): neither a split-so5 nor a 3x3 block
    witness may verify inside it."""
    sl3 = {"kind": "sl", "m": 3}
    for golden, failed in (("sp4", "parent has rational rank >= 2"), ("sl4", "block fits")):
        doc = json.loads((CORPUS / "expected" / f"{golden}.json").read_text())
        doc["input"] = sl3
        r = run_cli("verify", _write(tmp_path, doc))
        assert r.code == 3 and _failed_checks(r) == [failed], golden
    # the former sl3_quat_definite golden: a split-so5 witness inside SL3 over
    # a definite algebra, whose relative root system is A2
    from almin import minimal, serde

    definite = json.loads((CORPUS / "sl3_quat_definite.json").read_text())
    witness = minimal._split_so5_witness(
        "special linear group over a definite quaternion algebra with rational rank at least 2"
    )
    doc = {"schema": "almin/1", "input": definite, "verdict": "not_minimal",
           "witness": serde.witness_to_doc(witness)}
    r = run_cli("verify", _write(tmp_path, doc))
    assert r.code == 3 and _failed_checks(r) == ["parent has rational rank >= 2"]
    # its golden now carries the block SL3(Q) in SL3(Q) in SL3(D), which verifies
    r2 = run_cli("verify", corpus("expected/sl3_quat_definite"))
    assert r2.code == 0 and r2.json["verification"]["ok"] is True


def test_skew_tower_with_impure_ratio_verifies(run_cli, tmp_path):
    spec = {"kind": "su1", "algebra": {"a": "2", "b": "3"}, "form_kind": "skew_hermitian",
            "diagonal": [["0", "-2", "1", "1"], ["0", "-2", "-1", "1"]], "hyperbolic_count": 1}
    r = run_cli("analyze", _write(tmp_path, spec, "spec.json"))
    assert r.code == 0 and r.json["verdict"] == "not_minimal"
    assert r.json["verification"]["ok"] is True
    r2 = run_cli("verify", _write(tmp_path, r.json, "verdict.json"))
    assert r2.code == 0 and r2.json["verification"]["ok"] is True


def test_b2_trace_realization_reads_the_plane_from_the_parent_rank(run_cli, tmp_path):
    """The B2 witness of su1_herm_b2_n2 (one plane over (2, 3)) lives in a
    hyperbolic plane of its parent, which the verifier reads from the
    parent's Q-rank: the tail <1, -1> is such a plane, <5> has none."""
    doc = json.loads((CORPUS / "expected" / "su1_herm_b2_n2.json").read_text())
    for entries, failed in (([1, -1], []), ([5], ["trace realization applicable"])):
        doc["input"] = {"kind": "su1", "algebra": {"a": "2", "b": "3"}, "form_kind": "hermitian",
                        "diagonal": [[str(c), "0", "0", "0"] for c in entries]}
        r = run_cli("verify", _write(tmp_path, doc))
        assert (r.code, _failed_checks(r)) == (3 if failed else 0, failed), entries


def test_altered_b2_trace_realization_basis_fails_verification(run_cli, tmp_path):
    """The closed-form B2 = C2 Gram still decides the subform: one altered
    embedding basis vector of su1_herm_b2_n2 is rejected."""
    doc = json.loads((CORPUS / "expected" / "su1_herm_b2_n2.json").read_text())
    emb = doc["witness"]["embedding"]
    assert emb["context"] == {"type": "trace-realization"}
    emb["basis"][3] = ["0", "0", "1", "1", "0"]
    r = run_cli("verify", _write(tmp_path, doc))
    assert r.code != 0 and r.json["verification"]["ok"] is False
    assert "subform discriminant matches the represented value" in _failed_checks(r)


@pytest.mark.parametrize("name", ["so6", "su1_herm_b2_n2"])
def test_field_pair_in_a_rational_subform_basis_fails_verification(run_cli, tmp_path, name):
    """A rational subform basis (an orthogonal parent, or the trace
    realization) holding an entry [x, y] of a quadratic field fails
    "embedding basis valid" instead of reaching the bilinear form."""
    doc = json.loads((CORPUS / "expected" / f"{name}.json").read_text())
    doc["witness"]["embedding"]["basis"][1][0] = ["1", "2"]
    r = run_cli("verify", _write(tmp_path, doc))
    assert r.code == 3 and "embedding basis valid" in _failed_checks(r)
