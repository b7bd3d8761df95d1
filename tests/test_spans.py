"""The benchmark's span table names functions that exist.

perfbench/spans.py wraps quadpencil functions by (module, name) for traced
benchmark runs; a renamed or deleted function would make a traced run fail
with AttributeError, so every name is resolved here.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _modules(spans):
    mods = {m: importlib.import_module(f"quadpencil.{m}")
            for m in spans.MODULES}
    mods["__init__"] = importlib.import_module("quadpencil")
    return mods


def test_every_traced_name_resolves(spans):
    mods = _modules(spans)
    for home, attr in list(spans.TRACED) + list(spans.COUNTED):
        assert callable(getattr(mods[home], attr, None)), f"{home}.{attr}"


def test_install_and_uninstall_restore_the_originals(spans):
    mods = _modules(spans)
    before = {name: dict(vars(mod)) for name, mod in mods.items()}
    tracer = spans.Tracer()
    tracer.install()
    try:
        for home, attr in spans.TRACED:
            assert getattr(mods[home], attr) is not before[home][attr]
    finally:
        tracer.uninstall()
    for name, mod in mods.items():
        after = vars(mod)
        changed = [k for k, v in before[name].items() if after.get(k) is not v]
        assert not changed, f"{name}: {changed}"
