"""Command-line frontend: analyze group specifications, compute ranks,
verify serialized witnesses, and run the built-in verification suites.

    almin analyze|rank|witness PATH     (PATH may be - for stdin)
    almin verify PATH                   a not_minimal verdict document
    almin form diag|witt|isotropic|hilbert|ramify ...
    almin roots | selftest

A command takes no tuning options: every search runs to a fixed bound kept
beside it (quadform.SPLIT_VALUE_BUDGET, the number of splitting values t
tried when an isotropic vector of a form of dimension >= 4 is constructed,
arith.TRIAL_DIVISION_BOUND, arith.RHO_ITERATION_BUDGET).
A failure is reported as a JSON document {"schema", "error", "detail"[,
"path"]} whose error tag is read_error, parse_error, invalid_spec,
invalid_input, internal_error (a constructed witness failed its own
verification) (exit 1), nothing_to_verify (exit 2), search_exhausted,
unsupported or factorization_exceeded (exit 3).  A specification refused
while it is parsed (an empty form, m < 2, a dimension below 3) is a
parse_error at its path; invalid_spec covers only refusals made during
analysis, such as a listed subfield that fails its embedding check.

A command imports the engine modules it runs when it runs, so a cold
`selftest` or `roots` loads only arith, linalg, roots and value, a cold
`form diag|witt|isotropic` only arith, linalg, quadform and value, and the
error ladder in main is imported only when an exception reaches it.

Exit codes: 0 decided (minimal or not minimal, or requested data printed);
1 parse/internal error; 2 not applicable; 3 search exhausted, effort budget
exceeded, or unsupported.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from . import arith
from .arith import REAL, FinitePrime, hilbert_symbol, rat_to_str, relevant_places

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NOT_APPLICABLE = 2
EXIT_EXHAUSTED = 3


def _emit(doc, out) -> None:
    json.dump(doc, out, indent=2)
    out.write("\n")


def _fail(out, code: int, error: str, detail: str, path: str = "") -> int:
    from .serde import SCHEMA

    doc = {"schema": SCHEMA, "error": error, "detail": detail}
    if path:
        doc["path"] = path
    _emit(doc, out)
    return code


def _load_json(source: str):
    if source == "-":
        return json.load(sys.stdin)
    with open(source, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _bad_argument(message: str):
    """The parse_error at $ of a malformed command-line argument."""
    from .serde import ParseError

    return ParseError("$", message)


def _parse_coeff(text: str) -> Fraction:
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise _bad_argument(f"bad coefficient {text!r}: {exc}") from None


def _parse_coeff_list(text: str) -> list[Fraction]:
    return [_parse_coeff(part) for part in text.split(",") if part.strip()]


def _parse_place(text: str):
    if text in ("inf", "oo", "real"):
        return REAL
    try:
        return FinitePrime(int(text))
    except Exception as exc:
        raise _bad_argument(f"bad place {text!r}: {exc}") from None


# --------------------------------------------------------------------------
# Commands


def cmd_analyze(args, out) -> int:
    from . import serde
    from .minimal import analyze

    raw = _load_json(args.path)
    verdict = analyze(serde.group_from_doc(raw))
    _emit(serde.verdict_to_doc(raw, verdict), out)
    return serde.exit_code_for(verdict)


def cmd_rank(args, out) -> int:
    from . import qgroup, serde

    profile = qgroup.rank_profile(serde.group_from_doc(_load_json(args.path)))
    _emit(
        {
            "q_rank": profile.q_rank,
            "real_rank": profile.real_rank,
            "s_g_nonempty": profile.s_g_nonempty,
        },
        out,
    )
    return EXIT_OK


def cmd_witness(args, out) -> int:
    from . import serde
    from .minimal import NotMinimal, analyze

    raw = _load_json(args.path)
    verdict = analyze(serde.group_from_doc(raw))
    if not isinstance(verdict, NotMinimal):
        _emit(serde.verdict_to_doc(raw, verdict), out)
        return serde.exit_code_for(verdict)
    _emit(
        {"schema": serde.SCHEMA, "witness": serde.witness_to_doc(verdict.witness)},
        out,
    )
    return EXIT_OK


def cmd_verify(args, out) -> int:
    from . import qgroup, serde
    from .verify import verify_witness

    raw = _load_json(args.path)
    if not isinstance(raw, dict) or raw.get("schema") != serde.SCHEMA:
        raise serde.ParseError("$.schema", f"expected schema {serde.SCHEMA}")
    if raw.get("verdict") != "not_minimal":
        return _fail(
            out,
            EXIT_NOT_APPLICABLE,
            "nothing_to_verify",
            "document does not carry a witness",
            "$.verdict",
        )
    parent = serde.group_from_doc(raw.get("input"), "$.input")
    witness = serde.witness_from_doc(raw.get("witness"), "$.witness")
    converted = qgroup.is_absolutely_almost_simple(parent)
    if isinstance(converted, qgroup.ConvertibleTo):
        parent = converted.spec
    report = verify_witness(parent, witness)
    _emit({"schema": serde.SCHEMA, "verification": serde.report_to_doc(report)}, out)
    return EXIT_OK if report.ok else EXIT_EXHAUSTED


def cmd_form(args, out) -> int:
    sub = args.form_command
    if sub == "hilbert":
        a, b = _parse_coeff(args.a), _parse_coeff(args.b)
        v = _parse_place(args.place)
        out.write(f"{hilbert_symbol(a, b, v)}\n")
        return EXIT_OK
    if sub == "ramify":
        from .algebra import QuaternionAlgebra, ramification_set

        d = QuaternionAlgebra(_parse_coeff(args.a), _parse_coeff(args.b))
        places = ramification_set(d)
        doc = sorted(p.p for p in places if isinstance(p, FinitePrime))
        if any(not isinstance(p, FinitePrime) for p in places):
            _emit({"finite": doc, "infinite": True}, out)
        else:
            _emit({"finite": doc, "infinite": False}, out)
        return EXIT_OK
    from .quadform import QuadForm, diagonalize, is_isotropic, witt_decompose

    text = args.coeffs.strip()
    if text.startswith("["):
        try:
            rows = json.loads(text)
            f = QuadForm.from_rows(
                [[Fraction(v) for v in row] for row in rows]
            )
        except (ValueError, TypeError, json.JSONDecodeError) as exc:
            raise _bad_argument(f"bad gram matrix: {exc}") from None
    else:
        f = QuadForm.diagonal(_parse_coeff_list(text))
    if sub == "diag":
        d = diagonalize(f)
        _emit({"diagonal": [rat_to_str(c) for c in d.coeffs]}, out)
        return EXIT_OK
    if sub == "witt":
        w = witt_decompose(f)
        _emit(
            {
                "witt_index": len(w.hyperbolic_pairs),
                "anisotropic_dimension": len(w.anisotropic_coeffs),
                "anisotropic_coeffs": [
                    rat_to_str(c) for c in w.anisotropic_coeffs
                ],
            },
            out,
        )
        return EXIT_OK
    if sub == "isotropic":
        if args.place == "global":
            res = is_isotropic(f, "global")
        else:
            res = is_isotropic(f, _parse_place(args.place))
        _emit({"isotropic": res}, out)
        return EXIT_OK
    return _fail(out, EXIT_ERROR, "usage", f"unknown form subcommand {sub!r}")


def cmd_roots(args, out) -> int:
    from . import roots

    report = roots.full_report()
    ok = True
    for c in report:
        mark = "ok" if c.passed else "FAIL"
        detail = f" ({c.detail})" if (not c.passed and c.detail) else ""
        out.write(f"{mark} {c.name}{detail}\n")
        ok = ok and c.passed
    return EXIT_OK if ok else EXIT_ERROR


# A small frozen table of Hilbert symbol values with independently known
# answers, plus the product formula, used as the self-test oracle.
_HILBERT_TABLE = [
    (-1, -1, FinitePrime(2), -1),
    (-1, -1, REAL, -1),
    (-1, -1, FinitePrime(3), 1),
    (2, 3, FinitePrime(2), -1),
    (2, 3, FinitePrime(3), -1),
    (2, 3, FinitePrime(5), 1),
    (2, 3, REAL, 1),
    (-1, 3, FinitePrime(3), -1),
    (-1, 7, FinitePrime(7), -1),
    (5, 5, FinitePrime(5), 1),
    (2, 2, FinitePrime(2), 1),
    (3, 3, FinitePrime(3), -1),
    (-2, -5, REAL, -1),
    (1, -17, FinitePrime(17), 1),
    (-1, 2, FinitePrime(2), 1),
]


def _hilbert_selftest() -> bool:
    for a, b, v, want in _HILBERT_TABLE:
        if hilbert_symbol(a, b, v) != want:
            return False
    for a in range(-10, 11):
        for b in range(-10, 11):
            if a == 0 or b == 0:
                continue
            prod = 1
            for v in relevant_places([a, b]):
                prod *= hilbert_symbol(a, b, v)
            if prod != 1:
                return False
    return True


_E6_GROUPS = {
    "minimal-root identity": ("E6 minimal root", "-mu = 2a2 + b1 + b3 + b4"),
    "triple subsystem": (
        "beta subsystem type",
        "beta subsystem size",
        "beta subsystem contains the minimal root",
    ),
    "A5 subsystem": ("A5 subsystem type", "A5 subsystem size"),
    "A5 simply connected": ("A5 subsystem simply connected",),
}


def cmd_selftest(args, out) -> int:
    from . import roots

    ok = True

    tri = roots.triality_orbit_check()
    cases = [c for c in tri if c.name.startswith("case ")]
    cases_ok = sum(1 for c in cases if c.passed)
    side_ok = all(c.passed for c in tri if not c.name.startswith("case "))
    fixed = roots.triality_fixed_subgroup_not_simply_connected()
    ok = ok and cases_ok == len(cases) and side_ok and fixed.passed
    for c in tri + [fixed]:
        if not c.passed:
            out.write(f"FAIL {c.name}: {c.detail}\n")

    e6 = {c.name: c for c in roots.verify_e6_identities()}
    e6_ok = 0
    for label, names in _E6_GROUPS.items():
        group_ok = all(e6[n].passed for n in names if n in e6) and all(
            n in e6 for n in names
        )
        if group_ok:
            e6_ok += 1
        else:
            for n in names:
                c = e6.get(n)
                if c is None:
                    out.write(f"FAIL {label}: missing check {n}\n")
                elif not c.passed:
                    out.write(f"FAIL {c.name}: {c.detail}\n")
    ok = ok and e6_ok == len(_E6_GROUPS)

    f4 = roots.f4_c3_check()
    f4_ok = all(c.passed for c in f4)
    for c in f4:
        if not c.passed:
            out.write(f"FAIL {c.name}: {c.detail}\n")
    ok = ok and f4_ok

    hil_ok = _hilbert_selftest()
    if not hil_ok:
        out.write("FAIL hilbert oracle\n")
    ok = ok and hil_ok

    out.write(
        f"triality {cases_ok}/{len(cases)},"
        f" E6 identities {e6_ok}/{len(_E6_GROUPS)},"
        f" F4 C3 {'ok' if f4_ok else 'FAIL'},"
        f" hilbert oracle {'ok' if hil_ok else 'FAIL'}\n"
    )
    return EXIT_OK if ok else EXIT_ERROR


# --------------------------------------------------------------------------
# Argument parsing


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="almin",
        description=(
            "Decide minimality of isotropic almost-simple groups over Q and"
            " produce independently verifiable witness certificates."
        ),
    )
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("analyze", help="decide minimality; emit a verdict document")
    sp.add_argument("path", help="specification JSON file, or - for stdin")

    sp = sub.add_parser("rank", help="print the rational/real rank profile")
    sp.add_argument("path")

    sp = sub.add_parser("witness", help="print only the witness of a non-minimal group")
    sp.add_argument("path")

    sp = sub.add_parser(
        "verify", help="re-verify a serialized not-minimal verdict document"
    )
    sp.add_argument("path")

    sp = sub.add_parser("form", help="quadratic form and symbol utilities")
    fsub = sp.add_subparsers(dest="form_command", required=True)
    fp = fsub.add_parser("diag", help="diagonal coefficients of a form")
    fp.add_argument("coeffs")
    fp = fsub.add_parser("witt", help="Witt decomposition of a diagonal form")
    fp.add_argument("coeffs")
    fp = fsub.add_parser("isotropic", help="isotropy at a place or globally")
    fp.add_argument("coeffs")
    fp.add_argument("--place", default="global")
    fp = fsub.add_parser("hilbert", help="Hilbert symbol (a,b)_v")
    fp.add_argument("a")
    fp.add_argument("b")
    fp.add_argument("place")
    fp = fsub.add_parser("ramify", help="ramification set of (a,b)")
    fp.add_argument("a")
    fp.add_argument("b")

    sub.add_parser("roots", help="run the root-system verification report")
    sub.add_parser("selftest", help="run every built-in identity check")
    return p


_COMMANDS = {
    "analyze": cmd_analyze,
    "rank": cmd_rank,
    "witness": cmd_witness,
    "verify": cmd_verify,
    "form": cmd_form,
    "roots": cmd_roots,
    "selftest": cmd_selftest,
}


def _error_ladder():
    """(exception types, exit code, error tag) for each error document, in
    the order main tries them: JSONDecodeError, ParseError and InvalidSpec
    are ValueErrors, so they precede the catch-all."""
    from . import polys, qgroup
    from .minimal import InternalSoundnessError
    from .quadform import SearchExhausted
    from .serde import ParseError

    return (
        ((OSError, json.JSONDecodeError), EXIT_ERROR, "read_error"),
        (ParseError, EXIT_ERROR, "parse_error"),
        (qgroup.InvalidSpec, EXIT_ERROR, "invalid_spec"),
        (SearchExhausted, EXIT_EXHAUSTED, "search_exhausted"),
        ((qgroup.Unsupported, polys.IrreducibilityUnproven), EXIT_EXHAUSTED, "unsupported"),
        (arith.FactorizationExceeded, EXIT_EXHAUSTED, "factorization_exceeded"),
        (InternalSoundnessError, EXIT_ERROR, "internal_error"),
        ((ValueError, ZeroDivisionError), EXIT_ERROR, "invalid_input"),
    )


def main(argv=None) -> int:
    """Run one command.  Every error document comes from _error_ladder; an
    exception it does not name propagates."""
    args = build_parser().parse_args(argv)
    out = sys.stdout
    try:
        return _COMMANDS[args.command](args, out)
    except BrokenPipeError:
        raise  # stdout was closed: no document can be written
    except Exception as exc:
        for types, code, error in _error_ladder():
            if isinstance(exc, types):
                if error == "parse_error":
                    return _fail(out, code, error, exc.message, exc.path)
                return _fail(out, code, error, str(exc))
        raise


def run(argv=None) -> int:
    """Entry point of the almin script and of python -m almin.cli: main,
    with its output flushed here, so that a reader that closes the pipe
    early (almin verify doc.json | head -3) ends the run with exit 1 instead
    of a BrokenPipeError traceback.  stdout then points at os.devnull, so
    the interpreter's own flush at exit finds nothing to fail on."""
    try:
        code = main(argv)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(run())
