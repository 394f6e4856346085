"""One default tolerance: wherever a public callable of rkhslab (a function,
a class, or a public method of an exported class) gives its tol parameter a
default, that default is linalg.DEFAULT_TOL."""

import inspect

import pytest

import rkhslab
from rkhslab.linalg import DEFAULT_TOL


def public_callables():
    for name in sorted(dir(rkhslab)):
        obj = getattr(rkhslab, name)
        if name.startswith("_") or not callable(obj):
            continue
        yield name, obj
        if inspect.isclass(obj):
            for attr, member in vars(obj).items():
                if not attr.startswith("_") and callable(member):
                    yield f"{name}.{attr}", member


def tol_defaults() -> dict:
    found = {}
    for name, obj in public_callables():
        try:
            tol = inspect.signature(obj).parameters.get("tol")
        except (TypeError, ValueError):  # no signature to read
            continue
        if tol is not None and tol.default is not inspect.Parameter.empty:
            found[name] = tol.default
    return found


TOL_DEFAULTS = tol_defaults()


def test_scan_sees_the_verdicts():
    assert {"psd_check", "classify", "in_closure", "SampledGramKernel"} <= set(TOL_DEFAULTS)


@pytest.mark.parametrize("name", sorted(TOL_DEFAULTS))
def test_default_is_default_tol(name):
    assert TOL_DEFAULTS[name] == DEFAULT_TOL
