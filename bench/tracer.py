"""Per-layer tracing of almin from outside the package.

`Tracer.install()` replaces each traced function by a wrapper at every place
it is bound: the defining module and every almin module that imported the
name (for example `quadform.witt_index` is also `qgroup.witt_index`).  A
wrapper counts calls and accumulates self time, its duration minus the time
spent in traced callees.  Methods listed in COUNT_ONLY are counted but not
timed, because they run millions of times.  Spans up to SPAN_DEPTH deep are
kept in memory with their parent's index and written out at the end.

Run as a script, it traces one `almin` command in this process:
    python3 bench/tracer.py analyze corpus/sl4.json
The command's stdout is unchanged; the last stderr line is
`TRACE <json of per-function calls and self seconds>`.
"""

from __future__ import annotations

import importlib
import json
import sys
import time

TRACED = {
    "arith": ["hilbert_symbol", "factorize"],
    "polys": ["is_irreducible"],
    "numfield": ["field_cert", "verify_subfield"],
    "quadform": [
        "diagonalize",
        "is_isotropic",
        "find_isotropic_vector",
        "witt_decompose",
        "represent_constrained",
    ],
    "algebra": ["ramification_set", "find_splitting_quadratic"],
    "qgroup": [
        "q_rank",
        "real_rank",
        "is_absolutely_almost_simple",
        "certify_skew_tail_anisotropic",
    ],
    "minimal": ["analyze", "verify_witness"],
    "serde": ["group_from_doc", "verdict_to_doc", "witness_from_doc"],
    "roots": ["full_report", "triality_orbit_check"],
}
COUNT_ONLY = {"algebra": [("QuatElement", "__mul__")]}
COUNT_ONLY_NAMES = [f"{m}.{c}.{a}" for m, cs in COUNT_ONLY.items() for c, a in cs]
SPAN_DEPTH = 3


def function_names() -> list[str]:
    return [f"{m}.{f}" for m, fs in TRACED.items() for f in fs] + COUNT_ONLY_NAMES


class Tracer:
    def __init__(self):
        self.calls = {name: 0 for name in function_names()}
        self.self_s = {name: 0.0 for name in function_names()}
        self.spans: list[tuple] = []  # (name, start, end, parent index)
        self._stack: list[list] = []  # [child seconds, span index] per open call
        self._patches: list[tuple] = []

    def _wrap(self, name, fn):
        calls, self_s, stack, spans = self.calls, self.self_s, self._stack, self.spans
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            calls[name] += 1
            span = -1
            if len(stack) < SPAN_DEPTH:
                span = len(spans)
                spans.append([name, 0.0, 0.0, stack[-1][1] if stack else -1])
            frame = [0.0, span]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dt = t1 - t0
                self_s[name] += dt - frame[0]
                if stack:
                    stack[-1][0] += dt
                if span >= 0:
                    spans[span][1:3] = [t0, t1]

        return wrapper

    def _count(self, name, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        modules = [
            m for n, m in sys.modules.items()
            if m is not None and (n == "almin" or n.startswith("almin."))
        ]
        for mod_name, fns in TRACED.items():
            mod = importlib.import_module(f"almin.{mod_name}")
            for fn_name in fns:
                orig = getattr(mod, fn_name)
                wrapper = self._wrap(f"{mod_name}.{fn_name}", orig)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is orig:
                            self._patches.append((m, attr, orig))
                            setattr(m, attr, wrapper)
        for mod_name, methods in COUNT_ONLY.items():
            mod = importlib.import_module(f"almin.{mod_name}")
            for cls_name, attr in methods:
                cls = getattr(mod, cls_name)
                orig = cls.__dict__[attr]
                self._patches.append((cls, attr, orig))
                setattr(cls, attr, self._count(f"{mod_name}.{cls_name}.{attr}", orig))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    def totals(self) -> dict:
        return {name: [self.calls[name], self.self_s[name]] for name in self.calls}


def main(argv: list[str]) -> int:
    from almin import cli  # imports every almin module

    tracer = Tracer()
    tracer.install()
    try:
        code = cli.main(argv)
    finally:
        tracer.uninstall()
        sys.stdout.flush()
        sys.stderr.write("TRACE " + json.dumps(tracer.totals()) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
