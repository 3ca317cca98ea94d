#!/usr/bin/env python3
"""Run `almin analyze` over every specification in corpus/ and print a
verdict table; with --check, also compare each output with its golden copy
in corpus/expected/ (printing the first differing lines of a mismatch),
re-verify each emitted witness from its serialized form, and confirm the
output is byte-stable across two runs."""

from __future__ import annotations

import argparse
import contextlib
import difflib
import io
import json
import pathlib
import sys

from almin import cli


def analyze_text(path: pathlib.Path) -> str:
    """The stdout of `almin analyze PATH`: a verdict or an error document."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli.main(["analyze", str(path)])
    return out.getvalue()


def reverify(doc) -> int:
    """The exit code of `almin verify -` on the serialized document."""
    saved, sys.stdin = sys.stdin, io.StringIO(json.dumps(doc))
    try:
        return cli.cmd_verify(argparse.Namespace(path="-"), io.StringIO())
    finally:
        sys.stdin = saved


def first_diff(golden: str, text: str, path: pathlib.Path, limit: int = 12) -> str:
    """The first lines of a unified diff from the golden to the output."""
    lines = list(
        difflib.unified_diff(
            golden.splitlines(), text.splitlines(),
            f"expected/{path.name}", f"analyze {path.name}", lineterm="",
        )
    )
    more = [f"... ({len(lines) - limit} more diff lines)"] if len(lines) > limit else []
    return "\n".join("    " + line for line in lines[:limit] + more)


def summarize(doc) -> str:
    if "error" in doc:
        where = f" at {doc['path']}" if "path" in doc else ""
        return f"{doc['error']}{where}: {doc['detail']}"
    tag = doc["verdict"]
    if tag == "minimal":
        return f"minimal (case {doc['matched_case']})"
    if tag == "not_minimal":
        sub = doc["witness"]["subgroup"]
        ok = doc["verification"]["ok"]
        return f"not_minimal -> {sub['kind']} (verified={ok})"
    return f"{tag}: {doc.get('reason', '')}"


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--corpus", default="corpus")
    ap.add_argument("--check", action="store_true",
                    help="compare with corpus/expected/, re-verify witnesses"
                         " and check determinism")
    args = ap.parse_args()

    expected = pathlib.Path(args.corpus) / "expected"
    failures = 0
    for path in sorted(pathlib.Path(args.corpus).glob("*.json")):
        text = analyze_text(path)
        doc = json.loads(text)
        line = summarize(doc)
        diff = ""
        if args.check:
            golden = expected / path.name
            want = golden.read_text(encoding="utf-8") if golden.exists() else ""
            if want != text:
                failures += 1
                line += "  GOLDEN MISMATCH"
                diff = first_diff(want, text, path)
            if doc.get("verdict") == "not_minimal":
                if not doc["verification"]["ok"]:
                    failures += 1
                    line += "  VERIFICATION FAILED"
                if reverify(doc) != 0:
                    failures += 1
                    line += "  RE-VERIFY-FROM-SERIALIZED FAILED"
            if analyze_text(path) != text:
                failures += 1
                line += "  NONDETERMINISTIC"
        print(f"{path.name:28s} {line}")
        if diff:
            print(diff)
    if failures:
        print(f"{failures} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
