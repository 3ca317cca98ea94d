#!/usr/bin/env python3
"""The almin benchmark: three workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload corpus|forms|cli --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports almin from `src/`.  A run
sets up its workload, then repeats whole rounds of the same operations, one
at a time (a closed loop with one client), until S seconds have passed.
Every output is checked against a computation made apart from almin or
against a property the method must have.  The last stdout line is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
metrics are the end-to-end ones; with --trace 1 they are the per-layer call
counts and self times of a traced run.  Results and traces are also written
to bench/out/.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import random
import re
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import oracle  # bench/ is sys.path[0] when run as a script
import tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
CORPUS = ROOT / "corpus"
OUT = BENCH / "out"

SELFTESTS = 3  # `selftest` runs per warm round
SETUP_PROBES = 3  # fresh-interpreter set-ups per run, besides the run's own
IMPORT_PROBES = 3

# forms: seeded random `so` specs in strata of (dimension, verdict the
# classification predicts, count); None admits every verdict
FORM_STRATA = ((3, None, 20), (4, None, 20), (5, "not_minimal", 25), (6, "not_minimal", 35))
FORM_COEFF = 10  # diagonal entries and pivot square classes lie in [-10, 10]
GRAM_SHARE = 0.3  # share of draws given as a sheared Gram matrix
SHEARS = 2  # unimodular column operations x_i += c x_j, c in {+-1, +-2}
# reproducers of the witness faults of `minimal._orthogonal_subform_witness`,
# run in every forms round whatever the seed; each fails every time today
FAULT_SPECS = [
    {"kind": "so", "diagonal": ["9", "9", "-5", "-5", "-11"]},
    {"kind": "so", "diagonal": ["2", "10", "-7", "-1", "6", "11"]},
    {"kind": "so", "diagonal": ["2", "5", "10", "-6", "-3", "-3", "7"]},
]

# cli: corpus specs that end not_minimal well under a second
CLI_SPECS = ("sl4", "sp4", "so_1m1m135", "res_sl2_x4m2")

# the case of the paper's list a minimal group of each kind can match
MINIMAL_CASES = {"sl": "i", "su2": "ii", "res_su3": "iii", "res_sl2": "iv", "so": "iv", "su1": "iv"}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def emit(doc) -> str:
    """The text `almin` prints for a document."""
    return json.dumps(doc, indent=2) + "\n"


class Checks:
    def __init__(self):
        self.errors: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        if not ok:
            self.errors.append(what)
            print(f"check failed: {what}", file=sys.stderr)


def record(rec: dict, kind: str, name: str, t0: float) -> None:
    rec.setdefault(kind, {}).setdefault(name, []).append(time.perf_counter() - t0)


def check_selftest(code: int, out: str, checks: Checks) -> None:
    checks.expect(
        code == 0 and out.startswith("triality 24/24, E6 identities 4/4, F4 C3 ok, hilbert oracle ok"),
        f"selftest: exit {code}, {out.strip()!r}",
    )


def check_roots(code: int, out: str, checks: Checks) -> None:
    lines = out.splitlines()
    checks.expect(
        code == 0 and len(lines) == 44 and all(line.startswith("ok ") for line in lines),
        f"roots: exit {code}, not all 44 root-system checks pass",
    )


# --------------------------------------------------------------------------
# The warm workloads: one process, almin's API


def warm_almin() -> None:
    """Import the package and pay the lazy sympy import once."""
    from almin import cli, polys  # noqa: F401

    polys.is_irreducible(polys.poly([-2, 0, 1]))


def analyze_doc(raw) -> dict:
    """parse -> minimal.analyze -> serde.verdict_to_doc."""
    from almin import minimal, serde

    verdict = minimal.analyze(serde.group_from_doc(raw))
    return serde.verdict_to_doc(raw, verdict)


def verify_text(text: str) -> tuple[int, str]:
    """`almin verify -` on a serialized verdict: exit code and output text."""
    from almin import cli

    out = io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        code = cli.cmd_verify(argparse.Namespace(path="-"), out)
    finally:
        sys.stdin = saved
    return code, out.getvalue()


class Spec:
    """One input document and what the checks expect of it."""

    def __init__(self, name: str, raw, expect_failure: bool = False, parse_error: str | None = None):
        self.name = name
        self.raw = raw
        self.expect_failure = expect_failure  # a reproducer of a known fault
        self.parse_error = parse_error  # the JSON path a ParseError must name
        self.prediction = None
        if raw.get("kind") == "so" and not expect_failure and parse_error is None:
            self.prediction = oracle.predict_so(oracle.gram_of(raw))


def stated_ranks(doc) -> list:
    """[q_rank, real_rank] as the verdict document first states them (in its
    derivation or reason), None where it stops before stating one."""
    steps = doc.get("derivation", []) + doc.get("witness", {}).get("derivation", [])
    text = " ".join([s["detail"] for s in steps] + [doc.get("reason", "")])
    found = [re.search(rf"\b{name} = (\d+)", text) for name in ("q_rank", "real_rank")]
    return [int(m.group(1)) if m else None for m in found]


def check_doc(spec: Spec, doc: dict, checks: Checks) -> None:
    """Checks of one verdict document that need no second run."""
    from almin import qgroup, serde

    tag = doc["verdict"]
    if tag == "minimal":
        kind = spec.raw["kind"]
        checks.expect(
            MINIMAL_CASES.get(kind) == doc["matched_case"],
            f"{spec.name}: minimal case {doc['matched_case']!r} does not fit kind {kind!r}",
        )
    if tag == "not_minimal":
        ok = doc.get("verification", {}).get("ok") is True
        checks.expect(ok, f"{spec.name}: witness does not re-verify from its JSON")
    p = spec.prediction
    if p is None:
        return
    checks.expect(tag == p.verdict, f"{spec.name}: verdict {tag}, classification gives {p.verdict}")
    q, r = stated_ranks(doc)
    if q is None or r is None:  # the verdict stops before stating both ranks
        g = serde.group_from_doc(spec.raw)
        q = qgroup.q_rank(g) if q is None else q
        r = qgroup.real_rank(g) if r is None else r
    checks.expect(
        (q, r) == (p.q_rank, p.real_rank),
        f"{spec.name}: ranks {(q, r)}, oracle gives {(p.q_rank, p.real_rank)}",
    )


def warm_op(spec: Spec, rec: dict, checks: Checks | None) -> str | None:
    """Analyze a spec, then re-verify a witness from its JSON text alone.
    Returns the verdict text with its verification, or None on a fault."""
    from almin import serde

    t0 = time.perf_counter()
    try:
        doc = analyze_doc(spec.raw)
    except serde.ParseError as exc:
        record(rec, "analyze", spec.name, t0)
        if checks is not None:
            checks.expect(exc.path == spec.parse_error, f"{spec.name}: parse error at {exc.path}")
        return f"parse_error {exc.path}"
    except Exception as exc:  # a fault of the program: count it, keep running
        record(rec, "analyze", spec.name, t0)
        if not spec.expect_failure:
            print(f"{spec.name}: {type(exc).__name__}: {exc}", file=sys.stderr)
            traceback.print_exc()
        return None
    record(rec, "analyze", spec.name, t0)
    if doc["verdict"] == "not_minimal":
        t0 = time.perf_counter()
        code, out = verify_text(json.dumps(doc))
        record(rec, "verify", spec.name, t0)
        if checks is not None:
            checks.expect(code == 0, f"{spec.name}: almin verify exited {code}")
        doc["verification"] = json.loads(out)["verification"]
    if checks is not None:
        checks.expect(spec.parse_error is None, f"{spec.name}: parsed without error")
        check_doc(spec, doc, checks)
    return emit(doc)


def warm_selftest(rec: dict, checks: Checks | None) -> str | None:
    """`almin selftest`, in this process."""
    from almin import cli

    out = io.StringIO()
    t0 = time.perf_counter()
    code = cli.cmd_selftest(None, out)
    record(rec, "selftest", "selftest", t0)
    if checks is not None:
        check_selftest(code, out.getvalue(), checks)
    return out.getvalue() if code == 0 else None


class WarmWorkload:
    """A fixed list of specs in one process, cut into SELFTESTS equal parts,
    each followed by `selftest`: its repetitions spread over the run."""

    specs: list[Spec]
    # the quantile of an operation's repetitions that a run reports: in-process
    # operations run faster in the host's fast spells, which can cover most of
    # a run, and rarely slower (README.md)
    rep_quantile = 0.9

    def round(self, rec: dict, checks: Checks | None) -> list:
        texts = []
        for k in range(SELFTESTS):
            part = self.specs[k * len(self.specs) // SELFTESTS : (k + 1) * len(self.specs) // SELFTESTS]
            texts += [warm_op(spec, rec, checks) for spec in part]
            texts.append(warm_selftest(rec, checks))
        return texts


class Corpus(WarmWorkload):
    def __init__(self, seed: int):
        warm_almin()
        self.specs = [
            Spec(
                p.name,
                json.loads(p.read_text(encoding="utf-8")),
                parse_error="$.diagonal[1]" if p.name == "malformed.json" else None,
            )
            for p in sorted(CORPUS.glob("*.json"))
        ]


def _sheared_gram(rng: random.Random, d: list[int]) -> list[list[int]]:
    n = len(d)
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(SHEARS):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-2, -1, 1, 2))
        for row in u:
            row[i] += c * row[j]
    return [[sum(u[k][i] * d[k] * u[k][j] for k in range(n)) for j in range(n)] for i in range(n)]


def draw_form(rng: random.Random, n: int, verdict: str | None) -> Spec:
    """A seeded `so` spec of dimension n, redrawn until it is admissible.

    LDL^T must run without pivot repair, so its pivots are the ratios of
    leading minors (almin's elimination then finds the same pivots), and
    their square classes stay within FORM_COEFF.  From dimension 5 on, the
    Witt index must be 1 and two pivots must have opposite square classes:
    the witness then splits its hyperbolic plane from the diagonal, and one
    isotropic-vector search settles the rank.  Draws outside this set fail,
    or search for seconds, on some seeds and not others (see FAULT_SPECS and
    bench/README.md)."""
    while True:
        d = [rng.choice((-1, 1)) * rng.randint(1, FORM_COEFF) for _ in range(n)]
        if rng.random() < GRAM_SHARE:
            gram = _sheared_gram(rng, d)
            raw = {"kind": "so", "gram": [[str(x) for x in row] for row in gram]}
        else:
            gram = [[d[i] if i == j else 0 for j in range(n)] for i in range(n)]
            raw = {"kind": "so", "diagonal": [str(x) for x in d]}
        if not oracle.leading_minors_nonzero(gram):
            continue
        classes = [oracle.square_class(p) for p in oracle.pivots(gram)]
        if max(abs(c) for c in classes) > FORM_COEFF:
            continue
        spec = Spec("", raw)
        if verdict is not None and spec.prediction.verdict != verdict:
            continue
        if n < 5 or (spec.prediction.q_rank == 1 and any(-c in classes for c in classes)):
            return spec


class Forms(WarmWorkload):
    def __init__(self, seed: int):
        warm_almin()
        rng = random.Random(seed)
        self.specs = [draw_form(rng, n, v) for n, v, count in FORM_STRATA for _ in range(count)]
        rng.shuffle(self.specs)
        for k, spec in enumerate(self.specs):
            spec.name = f"form{k}"
        self.specs += [Spec(f"fault{k}", raw, expect_failure=True) for k, raw in enumerate(FAULT_SPECS)]


# --------------------------------------------------------------------------
# The cold workload: `python -m almin.cli` subprocesses


class Cli:
    # the median: cold subprocesses also run slower than usual now and then,
    # in start-up and imports (README.md)
    rep_quantile = 0.5

    def __init__(self, seed: int):
        warm_almin()
        self.reference = {}  # in-process verdict and verification texts
        for name in CLI_SPECS:
            raw = json.loads((CORPUS / f"{name}.json").read_text(encoding="utf-8"))
            doc = analyze_doc(raw)
            _, out = verify_text(json.dumps(doc))
            doc["verification"] = json.loads(out)["verification"]
            self.reference[name] = (emit(doc), out)
        self.totals = None  # per-function [calls, self_s] when tracing

    def run(self, kind: str, name: str, args: list[str], stdin, rec: dict):
        if self.totals is None:
            cmd = [sys.executable, "-m", "almin.cli", *args]
        else:
            cmd = [sys.executable, str(BENCH / "tracer.py"), *args]
        t0 = time.perf_counter()
        p = subprocess.run(cmd, input=stdin, capture_output=True, text=True, cwd=ROOT, env=child_env(), timeout=120)
        record(rec, kind, name, t0)
        if self.totals is not None:
            line = p.stderr.rstrip("\n").rsplit("\n", 1)[-1]
            for fn, (calls, self_s) in json.loads(line[len("TRACE "):]).items():
                self.totals[fn][0] += calls
                self.totals[fn][1] += self_s
        return p.returncode, p.stdout

    def round(self, rec: dict, checks: Checks | None) -> list:
        texts = []
        for name in CLI_SPECS:
            want_doc, want_verify = self.reference[name]
            code, out = self.run("analyze", name, ["analyze", f"corpus/{name}.json"], None, rec)
            texts.append(out if code == 0 else None)
            if checks is not None:
                checks.expect(out == want_doc, f"cold analyze {name}: exit {code} or output differs from in-process")
            code, out = self.run("verify", name, ["verify", "-"], want_doc, rec)
            texts.append(out if code == 0 else None)
            if checks is not None:
                checks.expect(code == 0 and out == want_verify, f"cold verify {name}: exit {code} or output differs")
        for kind, check in (("selftest", check_selftest), ("roots", check_roots)):
            code, out = self.run(kind, kind, [kind], None, rec)
            texts.append(out if code == 0 else None)
            if checks is not None:
                check(code, out, checks)
        return texts


WORKLOADS = {"corpus": Corpus, "forms": Forms, "cli": Cli}


# --------------------------------------------------------------------------
# Measurement


def per_op(samples: dict, p: float) -> list[float]:
    """One time per operation: the p-quantile of its repetitions in the run."""
    k = round(p * 100) - 1
    return [
        statistics.quantiles(ts, n=100, method="inclusive")[k] if len(ts) > 1 else ts[0]
        for ts in samples.values()
    ]


def quantile(xs: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: a Beta-weighted mean of all
    order statistics.  One order statistic jumps when the values form
    clusters with gaps between them, as the corpus specs do; this does not."""
    from mpmath import betainc  # ships with sympy, which almin needs

    xs = sorted(xs)
    n = len(xs)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    cdf = [float(betainc(a, b, 0, i / n, regularized=True)) for i in range(n + 1)]
    return sum((cdf[i + 1] - cdf[i]) * x for i, x in enumerate(xs))


def setup_probe(workload: str, seed: int) -> float:
    p = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed), "--setup-probe"],
        capture_output=True, text=True, cwd=ROOT, env=child_env(), timeout=120, check=True,
    )
    return float(p.stdout.strip().splitlines()[-1])


def import_probe(module: str) -> float:
    code = f"import time; t = time.perf_counter(); import {module}; print(time.perf_counter() - t)"
    p = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        cwd=ROOT, env=child_env(), timeout=120, check=True,
    )
    return float(p.stdout.strip())


def run_rounds(w, seconds: float, checks: Checks, first=None):
    """Whole rounds until `seconds` have passed (at least one).  The first
    round's outputs are checked; later rounds must reproduce them byte for
    byte.  Returns the times, the round count and the failed operations."""
    rec: dict = {}
    rounds, failed, round_s = 0, 0, []
    start = time.perf_counter()
    while rounds == 0 or time.perf_counter() - start < seconds:
        t0 = time.perf_counter()
        texts = w.round(rec, checks if first is None else None)
        round_s.append(time.perf_counter() - t0)
        if first is None:
            first = texts
        else:
            checks.expect(texts == first, f"round {rounds + 1}: outputs differ from the reference round")
        rounds += 1
        failed += sum(t is None for t in texts)
    return rec, rounds, failed, round_s, first


def metric(value, unit):
    return {"value": value, "unit": unit}


def untraced(args, w, setup_s: float) -> dict:
    checks = Checks()
    rec, rounds, failed, round_s, first = run_rounds(w, args.seconds, checks)
    who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
    rss_kb = resource.getrusage(who).ru_maxrss
    probes = [setup_probe(args.workload, args.seed) for _ in range(SETUP_PROBES)]
    analyze, verify = per_op(rec["analyze"], w.rep_quantile), per_op(rec["verify"], w.rep_quantile)
    m = {
        "setup_s": metric(statistics.median(probes + [setup_s]), "s"),
        "peak_rss_mb": metric(rss_kb / 1024, "MB"),
        "analyze_s": metric(sum(analyze), "s"),
        "verify_s": metric(sum(verify), "s"),
        "analyze_p50_ms": metric(quantile(analyze, 0.5) * 1e3, "ms"),
        "analyze_p90_ms": metric(quantile(analyze, 0.9) * 1e3, "ms"),
        "verify_p50_ms": metric(quantile(verify, 0.5) * 1e3, "ms"),
        "selftest_ms": metric(per_op(rec["selftest"], w.rep_quantile)[0] * 1e3, "ms"),
    }
    print(
        f"{args.workload}: {rounds} rounds of {len(first)} operations,"
        f" round times {', '.join(f'{t:.2f}' for t in round_s)} s",
        file=sys.stderr,
    )
    OUT.mkdir(exist_ok=True)
    (OUT / f"samples-{args.workload}-{args.seed}.json").write_text(json.dumps({"round_s": round_s, "ops": rec}))
    attempted = rounds * len(first)
    return {"correct": not checks.errors, "attempted": attempted, "failed": failed, "metrics": m}


def traced(args, w) -> dict:
    checks = Checks()
    # an untraced round gives the reference outputs and the untraced time
    _, _, failed, base_s, first = run_rounds(w, 0, checks)
    t = tracer.Tracer()
    if args.workload == "cli":
        w.totals = {name: [0, 0.0] for name in tracer.function_names()}
    else:
        t.install()
    try:
        _, rounds, traced_failed, round_s, _ = run_rounds(w, args.seconds - base_s[0], checks, first=first)
    finally:
        t.uninstall()
    totals = w.totals if args.workload == "cli" else t.totals()
    m = {}
    for name in tracer.function_names():
        calls, self_s = totals[name]
        m[f"{name}.calls"] = metric(calls / rounds, "count")
        if name not in tracer.COUNT_ONLY_NAMES:
            m[f"{name}.self_s"] = metric(self_s / rounds, "s")
    m["cli.import_almin_s"] = metric(statistics.median(import_probe("almin.cli") for _ in range(IMPORT_PROBES)), "s")
    m["cli.import_sympy_s"] = metric(statistics.median(import_probe("sympy") for _ in range(IMPORT_PROBES)), "s")
    m["trace.overhead_pct"] = metric((statistics.median(round_s) / base_s[0] - 1) * 100, "%")
    OUT.mkdir(exist_ok=True)
    (OUT / f"trace-{args.workload}-{args.seed}.json").write_text(
        json.dumps({"rounds": rounds, "functions": totals, "spans": t.spans})
    )
    print(
        f"{args.workload}: untraced round {base_s[0]:.2f} s, traced rounds"
        f" {', '.join(f'{x:.2f}' for x in round_s)} s, outputs identical: {not checks.errors}",
        file=sys.stderr,
    )
    attempted = (1 + rounds) * len(first)
    return {"correct": not checks.errors, "attempted": attempted, "failed": failed + traced_failed, "metrics": m}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not (SRC / "almin" / "__init__.py").is_file():
        print(f"error: no almin package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    w = WORKLOADS[args.workload](args.seed)
    setup_s = time.perf_counter() - t0
    if args.setup_probe:
        print(setup_s)
        return 0
    result = traced(args, w) if args.trace else untraced(args, w, setup_s)
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(json.dumps(result) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
