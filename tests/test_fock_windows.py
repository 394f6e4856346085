"""The shift-table Fock engine against the dict-path code it replaces.

Each reference below is the dict-based computation written out: the
compressed matrix assembled from k^2 inner products of Polynomial products,
the kernel vector built monomial by monomial, and the tail balance through
truncated_kernel_fn, mult_adjoint_apply and norm_sq. Random cases are drawn
by hypothesis when it is installed and from fixed seeds otherwise.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from conftest import random_ball_points, seeded_by

from rkhslab.errors import InputError, WindowOverflowError
from rkhslab.fock import (
    FockSubspace,
    Polynomial,
    TruncatedSpace,
    arveson_example,
    compression_defect,
    inner_product,
    mult_adjoint_apply,
    norm_sq,
    pairing,
    pairing_power_norms,
    span_of_polynomials,
    tail_balance,
    truncated_kernel_fn,
    vanishing_subspace,
)
from rkhslab.kernels import PointSet
from rkhslab.linalg import HermitianMatrix, Subspace, min_eigenvalue

seeded = seeded_by(25)


# the tail-balance input whose tail bound (5.6e-25) lies below rounding
FAULT_Z = [0.5 + 0.1j, 0.3 - 0.2j]
FAULT_DEGREE = 60


def dict_defect(phi: Polynomial, subspace: FockSubspace) -> float:
    cols = subspace.polynomials()
    products = [phi * c for c in cols]
    k = len(cols)
    t = np.empty((k, k), dtype=np.complex128)
    for l in range(k):
        for i in range(k):
            t[i, l] = complex(inner_product(products[l], cols[i]))
    return min_eigenvalue(HermitianMatrix(t.conj().T @ t - t @ t.conj().T))


def dict_kernel_vector(space: TruncatedSpace, z) -> np.ndarray:
    zc = np.conjugate(np.asarray(z, dtype=np.complex128))
    sqrt_w = np.sqrt([float(w) for w in space.norms_sq])
    u = np.empty(len(space), dtype=np.complex128)
    for i, alpha in enumerate(space.basis):
        val = 1.0 + 0j
        for x, e in zip(zc, alpha):
            if e:
                val *= x**e
        u[i] = val / sqrt_w[i]
    return u


def dict_tail_norms(z, degree: int) -> tuple:
    f = truncated_kernel_fn(z, degree).poly - 1
    step = pairing(z)
    return (
        float(norm_sq(mult_adjoint_apply(step, f, degree))),
        float(norm_sq(step * f)),
    )


def closed_form(nz: float, degree: int) -> float:
    """sum_{n=2}^{N+1} ||z||^(2n), both squared norms of the tail balance."""
    return math.fsum(nz**n for n in range(2, degree + 2))


def random_poly(rng, dim: int, max_degree: int, terms: int) -> Polynomial:
    coeffs = {}
    for _ in range(terms):
        alpha = rng.multinomial(int(rng.integers(0, max_degree + 1)), [1 / dim] * dim)
        coeffs[tuple(int(e) for e in alpha)] = complex(rng.standard_normal(), rng.standard_normal())
    return Polynomial(dim, coeffs)


def random_z(rng, dim: int, lo: float, hi: float) -> np.ndarray:
    z = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return z / np.linalg.norm(z) * math.sqrt(rng.uniform(lo, hi))


WINDOWS = {1: 9, 2: 6, 3: 4}


def assert_defect_matches(phi: Polynomial, subspace: FockSubspace) -> None:
    scale = max(1.0, sum(abs(complex(c)) for c in phi.coeffs.values())) ** 2
    assert abs(compression_defect(phi, subspace) - dict_defect(phi, subspace)) <= 1e-12 * scale


class TestCompressionDefect:
    @pytest.mark.parametrize("dim", [1, 2, 3])
    @seeded
    def test_full_span(self, dim, seed):
        rng = np.random.default_rng(seed)
        space = TruncatedSpace(dim, WINDOWS[dim])
        phi = random_poly(rng, dim, 2, 3)
        assert_defect_matches(phi, FockSubspace(space, np.eye(len(space))))

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @seeded
    def test_powers_span(self, dim, seed):
        rng = np.random.default_rng(seed)
        degree = WINDOWS[dim]
        phi = random_poly(rng, dim, 2, 2)
        count = degree // max(phi.degree, 1)
        span = span_of_polynomials(TruncatedSpace(dim, degree), [phi**k for k in range(count + 1)])
        assert_defect_matches(phi, span)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @seeded
    def test_kernel_span(self, dim, seed):
        rng = np.random.default_rng(seed)
        degree = WINDOWS[dim]
        pts = PointSet(dim, random_ball_points(rng, int(rng.integers(1, 6)), dim))
        phi = random_poly(rng, dim, 2, 3)
        assert_defect_matches(phi, vanishing_subspace(pts, degree).complement)

    def test_multiplier_beyond_the_window_drops_out(self):
        space = TruncatedSpace(2, 3)
        full = FockSubspace(space, np.eye(len(space)))
        assert compression_defect(Polynomial.monomial(2, (2, 2), 0.5j), full) == 0.0


class TestKernelVector:
    @pytest.mark.parametrize("dim", [1, 2, 3])
    @seeded
    def test_matches_monomial_loop(self, dim, seed):
        rng = np.random.default_rng(seed)
        space = TruncatedSpace(dim, int(rng.integers(0, 12)))
        zs = random_ball_points(rng, 5, dim, radius=0.95)
        for z in zs:
            assert np.array_equal(space.kernel_vector(z), dict_kernel_vector(space, z))
        cols = space.kernel_vector(zs)
        assert cols.shape == (len(space), 5)
        for j, z in enumerate(zs):
            assert np.array_equal(cols[:, j], space.kernel_vector(z))


class TestShiftTables:
    @pytest.mark.parametrize("dim", [1, 2, 3])
    @seeded
    def test_adjoint_matches_mult_adjoint_apply(self, dim, seed):
        rng = np.random.default_rng(seed)
        window = int(rng.integers(1, WINDOWS[dim] + 1))
        space = TruncatedSpace(dim, window)
        phi = random_poly(rng, dim, 2, 3)
        f = random_poly(rng, dim, window, 6)
        got = space.multiply(phi, space.iso_vector(f), adjoint=True)
        want = space.iso_vector(mult_adjoint_apply(phi, f, window))
        assert np.max(np.abs(got - want), initial=0.0) <= 1e-12 * max(1.0, np.max(np.abs(want)))

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @seeded
    def test_forward_matches_product(self, dim, seed):
        rng = np.random.default_rng(seed)
        space = TruncatedSpace(dim, WINDOWS[dim])
        phi = random_poly(rng, dim, 2, 3)
        f = random_poly(rng, dim, space.degree, 6)
        prod = phi * f
        kept = Polynomial(dim, {a: c for a, c in prod.coeffs.items() if sum(a) <= space.degree})
        want = space.iso_vector(kept)
        got = space.multiply(phi, np.column_stack([space.iso_vector(f)] * 2))
        assert np.max(np.abs(got - want[:, None])) <= 1e-12 * max(1.0, np.max(np.abs(want)))

    def test_input_beyond_the_window_is_refused(self):
        # f of degree 5 on a degree-4 window: both paths raise, the table
        # path when f is given coordinates, since it has none there
        f = Polynomial.monomial(2, (3, 2))
        with pytest.raises(WindowOverflowError):
            mult_adjoint_apply(pairing((0.5, 0.5)), f, 4)
        with pytest.raises(WindowOverflowError):
            TruncatedSpace(2, 4).iso_vector(f)
        with pytest.raises(InputError, match="rows"):
            TruncatedSpace(2, 4).multiply(pairing((0.5, 0.5)), np.zeros(21), adjoint=True)

    def test_table_covers_exactly_the_fitting_monomials(self):
        space = TruncatedSpace(3, 5)
        src, dst, weight = space.shift((1, 0, 1))
        alphas = space.basis[src]
        assert all(sum(a) <= 3 for a in alphas) and len(alphas) == space.size_at_most(3)
        assert [space.basis[j] for j in dst] == [(a[0] + 1, a[1], a[2] + 1) for a in alphas]
        want = [math.sqrt(space.norms_sq[j] / space.norms_sq[i]) for i, j in enumerate(dst)]
        assert np.allclose(weight, want, rtol=1e-15, atol=0.0)


class TestTailBalance:
    @seeded
    def test_float_z_against_dict_path_and_closed_form(self, seed):
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(1, 4))
        degree = int(rng.integers(1, 25))
        z = random_z(rng, dim, 0.05, 0.9)
        balance = tail_balance(z, degree)
        want = closed_form(float(np.vdot(z, z).real), degree)
        for got, old in zip(balance[:2], dict_tail_norms(z, degree)):
            assert abs(got - want) <= balance.rounding_bound
            assert abs(got - old) <= 1e-13 * want
        assert balance.within_bound

    def test_exact_z_stays_exact(self):
        z = (Fraction(1, 3), Fraction(1, 4), Fraction(-1, 6))
        nz = Fraction(1, 9) + Fraction(1, 16) + Fraction(1, 36)
        balance = tail_balance(z, 15)
        exact = sum(nz**n for n in range(2, 17))
        assert balance.adjoint_norm_sq == balance.forward_norm_sq == float(exact)
        assert balance.rounding_bound == 0.0

    def test_fault_input_balances_within_rounding(self):
        balance = tail_balance(FAULT_Z, FAULT_DEGREE)
        assert balance.tail_bound < 1e-24
        assert balance.within_bound
        want = closed_form(float(np.vdot(FAULT_Z, FAULT_Z).real), FAULT_DEGREE)
        assert abs(balance.adjoint_norm_sq - want) <= balance.rounding_bound
        assert abs(balance.forward_norm_sq - want) <= balance.rounding_bound

    @pytest.mark.parametrize("field", ["adjoint_norm_sq", "forward_norm_sq"])
    def test_perturbed_norm_fails(self, field):
        balance = tail_balance(FAULT_Z, FAULT_DEGREE)
        moved = balance._replace(**{field: getattr(balance, field) * (1 + 1e-10)})
        assert not moved.within_bound


class TestPairingPowerNorms:
    @seeded
    def test_float_z(self, seed):
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(1, 4))
        n = int(rng.integers(2, 12))
        z = random_z(rng, dim, 0.05, 0.9)
        norms = pairing_power_norms(z, n, n + int(rng.integers(0, 3)))
        want = float(np.vdot(z, z).real) ** (n / 2)
        assert norms.adjoint_norm == pytest.approx(want, rel=1e-13)
        assert norms.forward_norm == pytest.approx(want, rel=1e-13)

    def test_exact_z(self):
        z = (Fraction(1, 2), Fraction(1, 3))  # ||z||^2 = 13/36
        for n in range(2, 9):
            norms = pairing_power_norms(z, n, 10)
            want = (13 / 36) ** (n / 2)
            assert norms.adjoint_norm == pytest.approx(want, rel=1e-14)
            assert norms.forward_norm == pytest.approx(want, rel=1e-14)


class TestFockSubspace:
    def test_is_a_linalg_subspace(self):
        space = TruncatedSpace(2, 2)
        sub = FockSubspace(space, np.eye(len(space))[:, :2])
        assert isinstance(sub, Subspace) and sub.dim == 2 and sub.space is space
        u = np.arange(len(space), dtype=complex)
        assert np.array_equal(sub.project(u), Subspace(sub.basis).project(u))

    def test_error_texts(self):
        space = TruncatedSpace(2, 2)
        with pytest.raises(InputError, match="basis shape does not match the space"):
            FockSubspace(space, np.eye(3))
        with pytest.raises(InputError, match="basis columns not orthonormal"):
            FockSubspace(space, np.ones((len(space), 1)))


def test_arveson_witness_stays_exact():
    w = arveson_example()
    assert type(w.forward_norm_sq) is Fraction and w.forward_norm_sq == Fraction(1, 6)
    assert type(w.adjoint_norm_sq) is Fraction and w.adjoint_norm_sq == Fraction(1, 4)
