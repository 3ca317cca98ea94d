"""Acceptance suite: each test covers one top-level acceptance criterion and
prints a single PASS line when it holds (run with -v or -s to see them)."""

import contextlib
import io
import json
import pathlib
import random
from fractions import Fraction

from almin.arith import REAL, FinitePrime, hilbert_symbol, relevant_places
from almin.algebra import (
    HermForm,
    QuatForm,
    QuaternionAlgebra,
    b2_realization,
)
from almin.minimal import (
    Minimal,
    NotApplicable,
    NotMinimal,
    analyze,
    verify_witness,
)
from almin.numfield import QuadraticField, field_cert, quadratic_field_cert
from almin.quadform import QuadForm, is_isotropic, witt_decompose, witt_index
from almin.qgroup import (
    Orthogonal,
    ResSL2,
    ResSU3,
    SpecialLinear,
    Symplectic,
    Unitary1,
    Unitary2,
    q_rank,
    real_rank,
)
from almin.value import replace
from almin import cli, minimal, roots, serde, verify
from oracles import PRIMES_LE_50, oracle_solvable

ROOT = pathlib.Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus"


def _ok(msg: str):
    print(f"PASS {msg}")


def _field_disc(sub) -> int:
    assert isinstance(sub, ResSL2)
    return int(-sub.field.defining_poly[0])


def test_criterion_1_theorem_list_reproduction():
    # the four minimal shapes, with the exact verdict tags
    v = analyze(SpecialLinear(3))
    assert isinstance(v, Minimal) and v.matched_case == "i"

    v = analyze(Unitary2(HermForm.diagonal(QuadraticField(2), [1, -1, -1])))
    assert isinstance(v, Minimal) and v.matched_case == "ii"

    # K = Q(i) with L = Q(zeta_8): the quartic HAS the real subfield Q(sqrt 2),
    # so the restriction is NOT minimal; an L with only imaginary quadratic
    # structure IS minimal
    zeta8 = field_cert([1, 0, 0, 0, 1])
    v = analyze(ResSU3(QuadraticField(-1), zeta8))
    assert isinstance(v, NotMinimal)
    only_imag = field_cert([2, 0, -2, 0, 1])  # x^4 - 2x^2 + 2
    v = analyze(ResSU3(QuadraticField(-1), only_imag))
    assert isinstance(v, Minimal) and v.matched_case == "iii"

    # restrictions of SL2
    v = analyze(ResSL2(quadratic_field_cert(2)))  # x^2 - 2
    assert isinstance(v, Minimal) and v.matched_case == "iv"
    v = analyze(ResSL2(field_cert([-2, 0, 0, 1])))  # x^3 - 2
    assert isinstance(v, Minimal) and v.matched_case == "iv"
    v = analyze(ResSL2(field_cert([-2, 0, 0, 0, 1])))  # x^4 - 2
    assert isinstance(v, NotMinimal)
    assert _field_disc(v.witness.subgroup) == 2  # descends to Q(sqrt 2)
    v = analyze(ResSL2(quadratic_field_cert(-1)))  # x^2 + 1
    assert isinstance(v, NotApplicable)
    _ok("criterion 1: theorem-list verdicts reproduced exactly")


def test_criterion_2_verified_witnesses_and_fault_rejection():
    cases = [
        (Symplectic(2), None),
        (Orthogonal(QuadForm.diagonal([1, -1, -1, 3, 5])), 3),
        (SpecialLinear(2, QuaternionAlgebra(2, 3)), 2),
        (Unitary2(HermForm.diagonal(QuadraticField(-1), [1, -1, -1, 3])), 3),
    ]
    witnesses = []
    for g, want_disc in cases:
        v = analyze(g)
        assert isinstance(v, NotMinimal), (g, v)
        report = verify_witness(g, v.witness)
        assert report.ok, (g, report.failures)
        sub = v.witness.subgroup
        assert isinstance(sub, ResSL2)
        disc = _field_disc(sub)
        assert disc > 1  # real quadratic
        if want_disc is not None:
            assert disc == want_disc
        witnesses.append((g, v.witness))

    # fault 1: a square value of `a` makes the claimed subgroup split apart
    g = Symplectic(2)
    w = analyze(g).witness
    bad_emb = replace(
        w.embedding,
        a_value=Fraction(4),
        form_coeffs=w.embedding.form_coeffs[:4] + (Fraction(4),),
    )
    report = verify_witness(g, replace(w, embedding=bad_emb))
    assert not report.ok
    assert any(
        "a is a rational square => subgroup not almost simple" in (c.name + c.detail)
        for c in report.failures
    )

    # fault 2: an imaginary field (real rank 1) is not the conversion field
    g2, w2 = witnesses[1]
    bad = replace(w2, subgroup=ResSL2(quadratic_field_cert(-1)))
    report2 = verify_witness(g2, bad)
    assert not report2.ok
    assert [c.name for c in report2.failures] == [
        "conversion field matches the witness field"
    ]
    _ok("criterion 2: all witnesses verified; fault injections rejected")


def test_criterion_3_hilbert_symbol_vs_independent_oracle():
    places = [0] + PRIMES_LE_50
    checked = 0
    for a in range(-30, 31):
        for b in range(-30, 31):
            if a == 0 or b == 0:
                continue
            for p in places:
                v = REAL if p == 0 else FinitePrime(p)
                got = hilbert_symbol(a, b, v)
                want = 1 if oracle_solvable(a, b, p) else -1
                assert got == want, (a, b, p)
                checked += 1
    rng = random.Random(20240823)
    for _ in range(1000):
        a = rng.choice([n for n in range(-500, 501) if n != 0])
        b = rng.choice([n for n in range(-500, 501) if n != 0])
        prod = 1
        for v in relevant_places([a, b]):
            prod *= hilbert_symbol(a, b, v)
        assert prod == 1, (a, b)
    _ok(
        f"criterion 3: hilbert symbol agrees with the residue oracle on"
        f" {checked} evaluations; product formula holds on 1000 random pairs"
    )


def test_criterion_4_witt_machinery():
    rng = random.Random(1234)
    count = 0
    while count < 500:
        n = rng.randint(2, 6)
        coeffs = [rng.choice([c for c in range(-10, 11) if c != 0]) for _ in range(n)]
        f = QuadForm.diagonal(coeffs)
        w = witt_decompose(f)
        assert w.check(), coeffs
        assert witt_index(f) == w.witt_index, coeffs
        iso = is_isotropic(f, "global")
        assert (w.witt_index >= 1) == iso, coeffs
        if w.anisotropic_coeffs:
            tail = QuadForm.diagonal(w.anisotropic_coeffs)
            assert not is_isotropic(tail, "global"), coeffs
        count += 1

    # the frozen rank example, reproduced through the p = 3 local descent
    g = Orthogonal(QuadForm.diagonal([1, -1, -1, 3, 5]))
    assert q_rank(g) == 1
    assert not oracle_solvable(Fraction(1, 5), Fraction(-3, 5), 3)
    assert not is_isotropic(QuadForm.diagonal([-1, 3, 5]), FinitePrime(3))
    _ok("criterion 4: 500 random Witt decompositions consistent; rank-1 descent at p = 3")


def test_criterion_5_root_system_suite():
    report = roots.full_report()
    failures = [c for c in report if not c.passed]
    assert not failures, failures
    assert len(report) == 44
    by_name = {c.name: c for c in report}
    assert by_name["F4 subsystem type"].passed
    assert by_name["F4 subsystem simply connected"].passed
    assert by_name["A5 subsystem simply connected"].passed
    assert by_name["beta subsystem type"].passed
    assert by_name[
        "triality-fixed rank-4 subgroup is not simply connected"
    ].passed
    cases = [c for c in report if c.name.startswith("case ")]
    assert len(cases) == 24 and all(c.passed for c in cases)
    _ok("criterion 5: all 44 root-system checks pass (triality 24/24)")


def test_criterion_6_b2_realization_rank_consistency():
    algebras = [
        QuaternionAlgebra(1, 1),  # split
        QuaternionAlgebra(2, 3),  # division, split at infinity
        QuaternionAlgebra(-1, -1),  # definite
        QuaternionAlgebra(-1, -3),
        QuaternionAlgebra(-2, -5),
        QuaternionAlgebra(3, 5),
        QuaternionAlgebra(13, 2),
    ]
    diagonals = [(1, 1), (1, -1), (1, 3), (-1, -2)]
    instances = 0
    split_checked = 0
    for d in algebras:
        for c1, c2 in diagonals:
            h = QuatForm(d, "hermitian", (d.element(c1), d.element(c2)))
            q5 = b2_realization(d, h)
            assert q5.dim == 5
            rr_so = real_rank(Orthogonal(q5))
            rr_su = real_rank(Unitary1(h))
            assert rr_so == rr_su, (d.a, d.b, c1, c2, rr_so, rr_su)
            if d.a == 1 and d.b == 1:
                assert witt_index(q5) == 2
                split_checked += 1
            instances += 1
    assert instances >= 20 and split_checked >= 1
    _ok(
        f"criterion 6: {instances} quadratic/hermitian instances agree in"
        " real rank; split inputs give Witt index 2"
    )


def _analyze_stdout(path) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        cli.main(["analyze", str(path)])
    return buf.getvalue()


def test_criterion_7_byte_identical_verdict_documents(monkeypatch):
    # the first run also counts witness verifications: one per not_minimal
    # verdict, made by the analysis itself.  minimal binds verify_witness at
    # import, and cli's verify command imports it from verify when it runs
    calls = []
    real_verify = minimal.verify_witness

    def counting_verify(parent, w):
        calls.append(w)
        return real_verify(parent, w)

    for module in (minimal, verify):
        monkeypatch.setattr(module, "verify_witness", counting_verify)
    paths = sorted(CORPUS.glob("*.json"))
    outputs = []
    for _ in range(2):
        outputs.append([(path.stem, _analyze_stdout(path)) for path in paths])
        monkeypatch.undo()
    assert outputs[0] == outputs[1]
    assert len(outputs[0]) == 41
    not_minimal = sum('"verdict": "not_minimal"' in text for _, text in outputs[0])
    assert not_minimal == 23 and len(calls) == not_minimal
    # golden copies of `almin analyze` stdout, malformed.json's error included
    expected = CORPUS / "expected"
    assert sorted(p.name for p in expected.glob("*.json")) == [p.name for p in paths]
    for stem, text in outputs[0]:
        assert text == (expected / f"{stem}.json").read_text(encoding="utf-8"), stem
    _ok(
        f"criterion 7: {len(outputs[0])} verdict documents byte-identical"
        " across two full runs and to their golden copies; one witness"
        f" verification for each of {not_minimal} not_minimal verdicts"
    )
