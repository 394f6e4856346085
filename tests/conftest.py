"""Shared fixtures and independent numerical oracles for the test suite."""

import ast
from pathlib import Path

import numpy as np
import pytest

SEED = 20250811
SRC = Path(__file__).resolve().parents[1] / "src" / "rkhslab"

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    def seeded_by(examples):
        """Decorator running test(seed) on seeds that hypothesis draws,
        reproducibly; on fixed seeds when hypothesis is not installed."""
        return lambda test: settings(
            max_examples=examples, deadline=None, derandomize=True, database=None
        )(given(seed=st.integers(0, 2**32 - 1))(test))

except ImportError:  # hypothesis is optional

    def seeded_by(examples):
        return pytest.mark.parametrize("seed", range(examples))


def sites(test, kind=ast.Call) -> set:
    """(module, innermost function or class) of each node of this kind, a call by default, in
    src/rkhslab that test accepts."""
    found = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        defs = [n for n in ast.walk(tree) if isinstance(n, (ast.FunctionDef, ast.ClassDef))]
        for node in ast.walk(tree):
            if isinstance(node, kind) and test(node):
                around = [d for d in defs if d.lineno <= node.lineno <= d.end_lineno]
                found.add((path.name, max(around, key=lambda d: d.lineno).name if around else "<module>"))
    return found


@pytest.fixture
def rng():
    return np.random.default_rng(SEED)


def random_unitary(rng, n):
    x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(x)
    d = np.diagonal(r)
    return q * (d / np.abs(d))[None, :]


def random_psd_entries(rng, n, rank=None):
    rank = n if rank is None else rank
    b = rng.standard_normal((n, rank)) + 1j * rng.standard_normal((n, rank))
    return b @ b.conj().T


def random_ball_points(rng, n, dim, radius=0.7):
    x = rng.standard_normal((n, dim)) + 1j * rng.standard_normal((n, dim))
    norms = np.linalg.norm(x, axis=1, keepdims=True)
    scales = radius * rng.uniform(0.2, 1.0, size=(n, 1))
    return x / norms * scales


def blaschke(z, zeros):
    """Finite Blaschke product with the given zeros, evaluated at z."""
    z = np.asarray(z, dtype=complex)
    out = np.ones_like(z)
    for a in zeros:
        out = out * (z - a) / (1.0 - np.conj(a) * z)
    return out


def cholesky_bisect_min_eig(entries, iters=70):
    """Smallest eigenvalue oracle, independent of eigvalsh.

    A - t I is positive definite exactly for t below the smallest
    eigenvalue, and Cholesky success is the positive-definiteness test
    (equivalently, positivity of all leading determinant minors). Bisect
    on that predicate inside a Gershgorin bracket.
    """
    a = np.asarray(entries, dtype=np.complex128)
    n = a.shape[0]
    radius = float(np.max(np.sum(np.abs(a), axis=1))) + 1.0
    lo, hi = -radius, radius
    eye = np.eye(n)

    def is_pd(t):
        try:
            np.linalg.cholesky(a - t * eye)
            return True
        except np.linalg.LinAlgError:
            return False

    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if is_pd(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
