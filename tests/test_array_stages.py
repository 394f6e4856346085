"""The array stages of the sample pipeline against the per-pair loops they
replace.

Each reference below is the loop form written out: Gram assembly through
evaluate() pair by pair, pairwise distinctness with np.array_equal, and the
explicit 2x2-minor test on every pair of rows. Random cases are drawn by
hypothesis when it is installed and from fixed seeds otherwise.
"""

from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from conftest import random_ball_points, seeded_by

from rkhslab import cli, cnp, linalg
from rkhslab.errors import DomainError, InputError
from rkhslab.kernels import (
    DruryArvesonKernel,
    PointSet,
    PowerSeriesKernel,
    check_irreducible_sample,
    first_coincident_pair,
)
from rkhslab.linalg import HermitianMatrix

seeded = seeded_by(30)

TOL = 1e-9


def loop_gram(kernel, points) -> np.ndarray:
    n = len(points)
    g = np.empty((n, n), dtype=np.complex128)
    for i in range(n):
        for j in range(i, n):
            g[i, j] = kernel.evaluate(points[i], points[j])
            g[j, i] = np.conjugate(g[i, j])
    return g


def loop_pair_refusal(kernel, points) -> None:
    """Refuse the first pair (i, j), i <= j in loop order, whose pairing z conj(w) or <z, w>
    is not below 1 in modulus, with the text of evaluate's guard on it."""
    name = "|z conj(w)|" if isinstance(kernel, PowerSeriesKernel) else "|<z, w>|"
    for i in range(len(points)):
        for j in range(i, len(points)):
            x = complex(np.dot(points[i], np.conjugate(points[j])))
            if abs(x) >= 1.0:
                raise DomainError(f"{name} = {abs(x):.6f} is not below 1")


def loop_coincident_pair(points):
    pts = np.asarray(points, dtype=np.complex128).reshape(len(points), -1)
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            if np.array_equal(pts[i], pts[j]):
                return i, j
    return None


def max_minor(a: np.ndarray, i: int, j: int) -> float:
    return float(np.max(np.abs(np.outer(a[i], a[j]) - np.outer(a[j], a[i]))))


def loop_irreducible(g: HermitianMatrix, tol: float) -> bool:
    a = g.entries
    if np.min(np.abs(a)) <= tol:
        return False
    return all(max_minor(a, i, j) > tol for i in range(g.n) for j in range(i + 1, g.n))


def assert_gram_matches(kernel, pts: PointSet) -> None:
    ref = loop_gram(kernel, pts.points)
    got = kernel.gram(pts).entries
    assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))


class TestGram:
    @seeded
    def test_power_series_float_coefficients(self, seed):
        rng = np.random.default_rng(seed)
        c = rng.uniform(0.3, 1.0)
        coeffs = [1.0] + list(c ** np.arange(1, 80) * rng.uniform(0.5, 2.0, 79))
        pts = PointSet(1, random_ball_points(rng, int(rng.integers(1, 25)), 1, radius=0.9))
        assert_gram_matches(PowerSeriesKernel(coeffs), pts)

    @seeded
    def test_power_series_fraction_coefficients(self, seed):
        rng = np.random.default_rng(seed)
        coeffs = [Fraction(1)] + [
            Fraction(int(rng.integers(1, 50)), int(rng.integers(1, 50))) for _ in range(40)
        ]
        pts = PointSet(1, random_ball_points(rng, int(rng.integers(1, 25)), 1, radius=0.8))
        assert_gram_matches(PowerSeriesKernel(coeffs), pts)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @seeded
    def test_drury_arveson(self, dim, seed):
        rng = np.random.default_rng(seed)
        pts = PointSet(dim, random_ball_points(rng, int(rng.integers(1, 30)), dim, radius=0.95))
        assert_gram_matches(DruryArvesonKernel(dim), pts)

    @pytest.mark.parametrize(
        "kernel, points",
        [
            (PowerSeriesKernel([1, 1, 1]), [[0.5], [0.9], [1.5], [2.0]]),
            (PowerSeriesKernel([1, 2]), [[0.5j], [-3.0], [0.1]]),
            (DruryArvesonKernel(2), [[0.1, 0.2], [0.6, 0.6], [0.9, 0.9j], [0.9, 0.9]]),
        ],
    )
    def test_domain_error_names_first_pair_in_loop_order(self, kernel, points):
        # PointSet and evaluate keep every point inside the ball, so no real sample
        # gets here; a stand-in with the same two attributes reaches the check.
        stand_in = SimpleNamespace(dim=kernel.dim, points=np.asarray(points, dtype=complex))
        with pytest.raises(DomainError) as expected:
            loop_pair_refusal(kernel, stand_in.points)
        with pytest.raises(DomainError) as got:
            kernel.gram(stand_in)
        assert str(got.value) == str(expected.value)


class TestDistinctness:
    @seeded
    def test_duplicates_reported_as_the_loop_reports_them(self, seed):
        rng = np.random.default_rng(seed)
        n, dim = int(rng.integers(2, 40)), int(rng.integers(1, 4))
        pts = random_ball_points(rng, n, dim)
        for _ in range(int(rng.integers(0, 4))):
            pts[rng.integers(n)] = pts[rng.integers(n)]
        expected = loop_coincident_pair(pts)
        assert first_coincident_pair(pts) == expected
        if expected is None:
            assert len(PointSet(dim, pts)) == n
        else:
            with pytest.raises(InputError, match=f"^points {expected[0]} and {expected[1]} coincide$"):
                PointSet(dim, pts)

    def test_signed_zeros_compare_equal(self):
        pts = np.array(
            [
                [complex(0.1, 0.2), complex(-0.0, 0.3)],
                [complex(0.3, -0.0), complex(0.0, 0.0)],
                [complex(0.1, 0.2), complex(0.0, 0.3)],
                [complex(0.3, 0.0), complex(-0.0, -0.0)],
            ]
        )
        assert loop_coincident_pair(pts) == (0, 2)
        assert first_coincident_pair(pts) == (0, 2)
        with pytest.raises(InputError, match="^points 0 and 2 coincide$"):
            PointSet(2, pts)
        assert first_coincident_pair(pts[[1, 3]]) == (0, 1)

    def test_smallest_i_then_smallest_j(self):
        # Rows 4 = 1 = 6 and 2 = 3: the loop meets (1, 4) first.
        z = [0.1, 0.2, 0.3, 0.3, 0.2, 0.5, 0.2]
        assert first_coincident_pair(z) == loop_coincident_pair(z) == (1, 4)
        assert first_coincident_pair([0.5]) is None


def proportional_features(rng, n: int, rank: int, i: int, j: int, eps: float):
    """Feature rows with row j = lam * row i + eps * w, so Gram rows i and j
    are proportional up to O(eps) and all Gram entries are far from zero."""
    f = 1.0 + 0.3 * (rng.standard_normal((n, rank)) + 1j * rng.standard_normal((n, rank)))
    lam = rng.uniform(0.5, 2.0) * np.exp(1j * rng.uniform(0, 2 * np.pi))
    w = rng.standard_normal(rank) + 1j * rng.standard_normal(rank)
    f[j] = lam * f[i] + eps * w
    return HermitianMatrix(f @ f.conj().T)


class TestIrreducibilityScreen:
    @seeded
    def test_random_samples(self, seed):
        rng = np.random.default_rng(seed)
        n, dim = int(rng.integers(1, 20)), int(rng.integers(1, 4))
        g = DruryArvesonKernel(dim).gram(PointSet(dim, random_ball_points(rng, n, dim)))
        assert check_irreducible_sample(g, TOL) == loop_irreducible(g, TOL)
        scaled = HermitianMatrix(g.entries * 10.0 ** rng.uniform(-12, 3))
        assert check_irreducible_sample(scaled, TOL) == loop_irreducible(scaled, TOL)

    @seeded
    def test_low_rank_and_proportional_rows(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 12))
        i, j = sorted(rng.choice(n, size=2, replace=False))
        g = proportional_features(rng, n, int(rng.integers(1, 4)), i, j, eps=0.0)
        assert loop_irreducible(g, TOL) is False
        assert check_irreducible_sample(g, TOL) is False

    def test_zero_entry(self, rng):
        g = DruryArvesonKernel(2).gram(PointSet(2, random_ball_points(rng, 5, 2)))
        a = g.entries.copy()
        a[1, 3] = a[3, 1] = 0.0
        zeroed = HermitianMatrix(a)
        assert loop_irreducible(zeroed, TOL) is False
        assert check_irreducible_sample(zeroed, TOL) is False

    @pytest.mark.parametrize("factor", [0.5, 1.0, 2.0])
    @seeded
    def test_max_minor_near_tol(self, factor, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 10))
        i, j = sorted(rng.choice(n, size=2, replace=False))
        state = rng.bit_generator.state
        eps = 1e-6
        for _ in range(4):  # the largest minor is close to linear in eps
            rng.bit_generator.state = state
            g = proportional_features(rng, n, 3, i, j, eps)
            eps *= factor * TOL / max_minor(g.entries, i, j)
        a = g.entries
        assert max_minor(a, i, j) == pytest.approx(factor * TOL, rel=1e-3)
        if factor <= 1.0:
            # The squared minors of rows i and j sum to at most m tol^2, so
            # the screen cannot clear the pair and the explicit test runs.
            m = n * (n - 1) / 2
            minors = np.outer(a[i], a[j]) - np.outer(a[j], a[i])
            assert np.sum(np.abs(minors) ** 2) / 2 <= m * (1 + 1e-2) * TOL**2
        assert check_irreducible_sample(g, TOL) == loop_irreducible(g, TOL)


class TestOneCoefficientValidator:
    @pytest.mark.parametrize(
        "coeffs, message",
        [
            ([1, True, 1], "coefficient 1: expected a number, got a boolean"),
            ([1, 2, "3"], "coefficient 2: expected a number, got '3'"),
            ([1, 0.0, -1], "coefficient 1 must be positive, got 0.0"),
            ([2, -1, 1], "coefficient 1 must be positive, got -1"),
            ([2, 1, 1], "a_0 must equal 1"),
        ],
    )
    def test_kernel_and_ratio_tests_agree(self, coeffs, message):
        with pytest.raises(InputError, match=f"^{message}$"):
            PowerSeriesKernel(coeffs)
        with pytest.raises(InputError, match=f"^{message}$"):
            cnp.ratio_report(coeffs)

    def test_length_rules(self):
        with pytest.raises(InputError, match="non-empty"):
            PowerSeriesKernel([])
        with pytest.raises(InputError, match="at least 3"):
            cnp.ratio_report([1, 0.5])
        with pytest.raises(InputError, match="a_0 must equal 1"):  # the entries come first
            cnp.ratio_report([2, 1])

    def test_cli_tolerance_is_the_library_default(self):
        assert cli.DEFAULT_TOL is linalg.DEFAULT_TOL
