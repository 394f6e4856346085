"""Every name the benchmark's traced run patches must stay bound.

bench/tracing.py wraps library names in the modules that look them up,
reading each through vars(owner)[leaf]; a refactor that unbinds one breaks
`bench/run.py --trace 1`. This test finds that in the suite instead.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = load_tracing()


@pytest.mark.parametrize("module, attr, span", tracing.TIMED + tracing.COUNTED)
def test_patched_name_is_bound(module, attr, span):
    owner = importlib.import_module(module)
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    assert leaf in vars(owner), f"{module}.{attr} ({span}) is not bound where the tracer patches it"
    assert callable(vars(owner)[leaf])
