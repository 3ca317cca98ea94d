import importlib
import importlib.util
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", ROOT / "bench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    # a renamed or deleted function breaks `bench/run.py --trace 1` with an
    # AttributeError that untraced runs never show
    tracer = _tracer()
    missing = []
    for mod_name, fns in tracer.TRACED.items():
        mod = importlib.import_module(f"almin.{mod_name}")
        missing += [f"{mod_name}.{fn}" for fn in fns if not callable(getattr(mod, fn, None))]
    for mod_name, methods in tracer.COUNT_ONLY.items():
        mod = importlib.import_module(f"almin.{mod_name}")
        for cls_name, attr in methods:
            if attr not in vars(getattr(mod, cls_name, object)):
                missing.append(f"{mod_name}.{cls_name}.{attr}")
    assert missing == []
