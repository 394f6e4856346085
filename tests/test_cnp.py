import math
from fractions import Fraction

import numpy as np
import pytest
from conftest import random_ball_points

from rkhslab.cnp import (
    CERTIFIED_NOT_CNP,
    CONSISTENT,
    FiniteRadii,
    GeometricTail,
    PolynomialTail,
    agler_mccarthy_embed,
    blaschke_classify,
    cnp_sample_check,
    one_minus_inverse,
    ratio_hyponormal,
    ratio_np,
    ratio_report,
)
from rkhslab.errors import InputError, IrreducibilityError, NotCnpError
from rkhslab.kernels import DruryArvesonKernel, PointSet, PowerSeriesKernel, normalize
from rkhslab.linalg import HermitianMatrix

SZEGO = PowerSeriesKernel([1] * 60)


def bergman_gram(zs):
    # exact closed form (1 - z conj(w))^(-2) on the disk
    z = np.asarray(zs, dtype=complex)
    return HermitianMatrix(1.0 / (1.0 - np.outer(z, z.conj())) ** 2)


class TestOneMinusInverse:
    def test_szego_two_points(self):
        g = SZEGO.gram(PointSet(1, [[0.0], [0.5]]))
        f = one_minus_inverse(normalize(g, 0))
        assert np.allclose(f.entries, [[0.0, 0.0], [0.0, 0.25]], atol=1e-12)

    def test_base_row_exactly_zero(self, rng):
        pts = PointSet(2, random_ball_points(rng, 5, 2))
        f = one_minus_inverse(normalize(DruryArvesonKernel(2).gram(pts), 1))
        assert np.array_equal(f.entries[1, :], np.zeros(5))
        assert np.array_equal(f.entries[:, 1], np.zeros(5))

    def test_bergman_algebraic_identity(self):
        # 1 - (1 - x)^2 = 2x - x^2 with x = z_i conj(z_j)
        zs = [0.0, 0.5, 0.8]
        f = one_minus_inverse(normalize(bergman_gram(zs), 0))
        x = np.outer(zs, np.conjugate(zs))
        assert np.max(np.abs(f.entries - (2 * x - x**2))) < 1e-12

    def test_zero_entry_rejected(self):
        ng = normalize(HermitianMatrix([[1.0, 1.0], [1.0, 1.0 + 1e-12]]), 0)
        gt = ng.gram_tilde.entries.copy()
        gt[1, 1] = 0.0
        bad = type(ng)(HermitianMatrix(gt), ng.delta, 0)
        with pytest.raises(IrreducibilityError):
            one_minus_inverse(bad)


class TestSampleCheck:
    def test_szego_sample_consistent(self):
        g = SZEGO.gram(PointSet(1, [[0.0], [0.3], [0.5], [0.7]]))
        v = cnp_sample_check(g, 0, 1e-9)
        assert v.status == CONSISTENT
        # F is the rank-one matrix z_i conj(z_j); PSD on the nose
        assert v.min_eig > -1e-12

    def test_bergman_sample_certified(self):
        v = cnp_sample_check(bergman_gram([0.0, 0.5, 0.8]), 0, 1e-9)
        assert v.status == CERTIFIED_NOT_CNP
        # independent 3x3 oracle: the base row of F vanishes, so the
        # eigenvalues are 0 and those of the exact-rational 2x2 block
        a, b, c = 7.0 / 16.0, 16.0 / 25.0, 544.0 / 625.0
        oracle = 0.5 * ((a + c) - math.sqrt((a - c) ** 2 + 4 * b * b))
        assert v.min_eig == pytest.approx(oracle, abs=1e-12)
        assert v.min_eig < -1e-6

    def test_single_point_consistent(self):
        v = cnp_sample_check(HermitianMatrix([[2.5]]), 0, 1e-9)
        assert v.status == CONSISTENT

    def test_monotone_under_subsampling(self, rng):
        # a refuted subset forces refutation of every superset containing it
        for _ in range(20):
            zs = np.concatenate([[0.0], rng.uniform(0.2, 0.9, 4)])
            sub = cnp_sample_check(bergman_gram(zs[:3]), 0, 1e-9)
            if sub.status == CERTIFIED_NOT_CNP:
                sup = cnp_sample_check(bergman_gram(zs), 0, 1e-9)
                assert sup.status == CERTIFIED_NOT_CNP
                assert sup.min_eig <= sub.min_eig + 1e-12


class TestEmbedding:
    def test_szego_sample_rank_one(self):
        g = SZEGO.gram(PointSet(1, [[0.0], [0.3], [0.5]]))
        emb = agler_mccarthy_embed(g, 0, 1e-9)
        assert emb.rank == 1
        assert np.allclose(emb.b_points[:, 0], [0.0, 0.3, 0.5], atol=1e-9)

    def test_base_point_exactly_zero(self, rng):
        pts = PointSet(3, random_ball_points(rng, 6, 3))
        emb = agler_mccarthy_embed(DruryArvesonKernel(3).gram(pts), 4, 1e-9)
        assert np.array_equal(emb.b_points[4], np.zeros(emb.rank))

    def test_ball_sample_recovers_euclidean_gram(self):
        pts = PointSet(2, [[0.0, 0.0], [0.4, 0.0], [0.0, 0.4], [0.3, 0.3]])
        emb = agler_mccarthy_embed(DruryArvesonKernel(2).gram(pts), 0, 1e-9)
        assert emb.rank == 2
        recovered = emb.b_points @ emb.b_points.conj().T
        target = pts.points @ pts.points.conj().T
        assert np.max(np.abs(recovered - target)) < 1e-9

    def test_round_trip_reproduces_normalized_gram(self, rng):
        tol = 1e-9
        for _ in range(100):
            d = int(rng.integers(1, 4))
            n = int(rng.integers(2, 8))
            pts = PointSet(d, random_ball_points(rng, n, d))
            g = DruryArvesonKernel(d).gram(pts)
            base = int(rng.integers(0, n))
            emb = agler_mccarthy_embed(g, base, tol)
            rebuilt = 1.0 / (1.0 - emb.b_points @ emb.b_points.conj().T)
            gt = normalize(g, base).gram_tilde.entries
            assert np.max(np.abs(rebuilt - gt)) < 10 * tol

    def test_refuted_sample_raises(self):
        with pytest.raises(NotCnpError) as exc:
            agler_mccarthy_embed(bergman_gram([0.0, 0.5, 0.8]), 0, 1e-9)
        assert exc.value.min_eig < -1e-6


class TestRatioTests:
    def test_hardy_passes_both(self):
        coeffs = [1] * 100
        assert ratio_hyponormal(coeffs).ok
        assert ratio_np(coeffs).ok
        report = ratio_report(coeffs)
        assert report.geometric and report.first_violation is None

    def test_bergman_weights_hyponormal_only(self):
        coeffs = [n + 1 for n in range(100)]
        assert ratio_hyponormal(coeffs) == (True, None)
        # (n+1)^2 >= n (n+2) always; reversed fails right away: 4 > 3
        assert ratio_np(coeffs) == (False, 1)

    def test_reciprocal_weights_np_only(self):
        coeffs = [Fraction(1, n + 1) for n in range(100)]
        # 1/4 < 1/3 = a_0 a_2, so the hyponormal direction dies at n = 1
        assert ratio_hyponormal(coeffs) == (False, 1)
        assert ratio_np(coeffs) == (True, None)

    def test_exact_comparison_no_division(self):
        report = ratio_report([1, 2, 5, 8])
        assert report.hyponormal_ok is False
        assert report.np_ok is False
        assert report.first_violation == 1

    def test_float_path_tolerates_roundoff_ties(self):
        coeffs = [1.0, 2.0, 4.0 * (1.0 + 5e-14), 8.0]
        report = ratio_report(coeffs)
        assert report.geometric

    def test_validation(self):
        with pytest.raises(InputError):
            ratio_hyponormal([1, 2])
        with pytest.raises(InputError):
            ratio_hyponormal([2, 2, 2])
        with pytest.raises(InputError):
            ratio_np([1, -1, 1])


class TestBlaschke:
    def test_geometric_tail_dyadic(self):
        v = blaschke_classify(GeometricTail(c=0.5, q=0.5))
        assert not v.divergent and not v.is_uniqueness_set
        assert v.total == pytest.approx(1.0, abs=1e-14)

    def test_harmonic_tail_diverges(self):
        v = blaschke_classify(PolynomialTail(c=1.0, p=1.0))
        assert v.divergent and v.is_uniqueness_set and v.total is None

    def test_finite_list(self):
        v = blaschke_classify(FiniteRadii((0.1, 0.5, 0.9, 0.99, 0.3)))
        assert not v.is_uniqueness_set
        assert v.total == pytest.approx(5 - (0.1 + 0.5 + 0.9 + 0.99 + 0.3), abs=1e-12)

    def test_quadratic_tail_against_closed_form(self):
        # sum_{k >= 2} 1/k^2 = pi^2/6 - 1
        v = blaschke_classify(PolynomialTail(c=1.0, p=2.0))
        assert v.total == pytest.approx(math.pi**2 / 6.0 - 1.0, abs=1e-10)

    def test_slowly_convergent_tail_accuracy(self):
        # p = 1.5: sum_{k >= 2} k^(-1.5) = zeta(3/2) - 1
        zeta_3_2 = 2.6123753486854883
        v = blaschke_classify(PolynomialTail(c=1.0, p=1.5))
        assert v.total == pytest.approx(zeta_3_2 - 1.0, abs=1e-9)

    def test_prefix_added(self):
        v = blaschke_classify(GeometricTail(c=0.5, q=0.5, prefix=(0.5,)))
        assert v.total == pytest.approx(1.5, abs=1e-14)

    def test_invalid_radii_rejected(self):
        with pytest.raises(InputError):
            FiniteRadii((0.5, 1.0))
        with pytest.raises(InputError):
            GeometricTail(c=1.5, q=0.5)
        with pytest.raises(InputError):
            PolynomialTail(c=5.0, p=1.0)

    def test_tail_radii_closed_form(self):
        # Geometric gaps c q^k are all below 1 iff c < 1; polynomial gaps
        # c k^(-p), k >= 2, iff p >= 0 and c 2^(-p) < 1.
        msg = r"some implied radius falls outside \(0, 1\)"
        with pytest.raises(InputError, match=msg):
            GeometricTail(c=1.0, q=0.5)
        assert GeometricTail(c=0.999, q=0.999).c == 0.999
        with pytest.raises(InputError, match=msg):
            PolynomialTail(c=0.5, p=-1e-6)  # gaps grow without bound
        with pytest.raises(InputError, match=msg):
            PolynomialTail(c=2.0, p=1.0)  # first gap is exactly 1
        assert blaschke_classify(PolynomialTail(c=0.5, p=0.0)).divergent
        assert blaschke_classify(PolynomialTail(c=1.99, p=1.0)).divergent
