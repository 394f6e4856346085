"""Every name the benchmark's traced run patches must stay bound.

bench/tracing.py wraps library names in the modules that look them up,
reading each through vars(owner)[leaf]; a refactor that unbinds one breaks
`bench/run.py --trace 1`. This test finds that in the suite instead. It also
finds a module-level import that its module never uses, unless the tracer
patches that name there.
"""

import ast
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


SOURCES = sorted((TRACING.parents[1] / "src" / "rkhslab").glob("*.py"))


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "__init__.py"], ids=lambda p: p.name)
def test_every_module_level_import_is_used(path):
    # an import that no line of its module reads is dead, unless the tracer patches it
    # there: reconstruct imports cnp_sample_check only for that
    tree = ast.parse(path.read_text())
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    patched = {attr.split(".")[0] for module, attr, _ in tracing.TIMED + tracing.COUNTED
               if module == f"rkhslab.{path.stem}"}
    imported = [
        (alias.asname or alias.name).split(".")[0]
        for node in tree.body
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
        for alias in node.names
    ]
    unused = [name for name in imported if name not in used | patched]
    assert not unused, f"{path.name} imports {unused} and never uses them"
