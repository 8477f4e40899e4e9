"""The benchmark's per-layer tracer looks up library functions by name.

`bench/run.py --trace 1` wraps every (module, function) pair listed in
`bench/tracing.py`'s TRACED with getattr, so renaming or deleting one of
those functions breaks tracing without failing any other test.
"""

import importlib
import importlib.util
from pathlib import Path

import compident

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_resolves():
    tracing = load_tracing()
    assert tracing.TRACED
    for module_name, func_name in tracing.TRACED:
        module = importlib.import_module(f"compident.{module_name}")
        assert callable(getattr(module, func_name)), f"{module_name}.{func_name}"


def test_install_and_uninstall_round_trip():
    tracing = load_tracing()
    from compident import charpoly

    original = charpoly.jacobian
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert charpoly.jacobian is not original
        assert compident.jacobian is not original
    finally:
        tracer.uninstall()
    assert charpoly.jacobian is original and compident.jacobian is original
