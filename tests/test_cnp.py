import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from conftest import random_ball_points, seeded_by

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
        bad = type(ng)(HermitianMatrix(gt), ng.delta)
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

    @staticmethod
    def clustered_szego(r):
        z = r * np.array([0, 1, -1, 2j, 1 + 1j, -1.5j])
        return DruryArvesonKernel(1).gram(PointSet(1, z[:, None]))

    @pytest.mark.parametrize("r", [1e-6, 1e-4])
    def test_sample_clustered_at_the_base_consistent(self, r):
        assert cnp_sample_check(self.clustered_szego(r), 0, 1e-9).status == CONSISTENT

    def test_floor_of_psd_check_is_needed(self):
        # 1 - 1/K~ carries rounding of order eps while its spectrum is of
        # order r^2: a test relative to the largest eigenvalue alone would
        # refute this Szego sample
        f = one_minus_inverse(normalize(self.clustered_szego(1e-6), 0))
        eigs = np.linalg.eigvalsh(f.entries)
        assert eigs[0] < -1e-9 * eigs[-1]

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
        report = ratio_report(coeffs)
        assert report.hyponormal_ok
        assert report.np_ok
        assert report.geometric and report.first_violation is None

    def test_bergman_weights_hyponormal_only(self):
        coeffs = [n + 1 for n in range(100)]
        report = ratio_report(coeffs)
        assert (report.hyponormal_ok, report.first_hyponormal_violation) == (True, None)
        # (n+1)^2 >= n (n+2) always; reversed fails right away: 4 > 3
        assert (report.np_ok, report.first_np_violation) == (False, 1)

    def test_reciprocal_weights_np_only(self):
        coeffs = [Fraction(1, n + 1) for n in range(100)]
        report = ratio_report(coeffs)
        # 1/4 < 1/3 = a_0 a_2, so the hyponormal direction dies at n = 1
        assert (report.hyponormal_ok, report.first_hyponormal_violation) == (False, 1)
        assert (report.np_ok, report.first_np_violation) == (True, None)

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
            ratio_report([1, 2])
        with pytest.raises(InputError):
            ratio_report([2, 2, 2])
        with pytest.raises(InputError):
            ratio_report([1, -1, 1])

    def test_rational_below_the_float_range_beside_a_float(self):
        # a_1^2 = 1e-400 (to rounding) < a_0 a_2 = 2e-400: hyponormality fails at n = 1,
        # though a_2 as a float would be 0.0
        report = ratio_report([1, 1e-200, Fraction(2, 10**400)])
        assert report.first_hyponormal_violation == 1
        assert report.np_ok

    def test_numpy_integers_do_not_wrap(self):
        # a_1^2 = 2^80 > a_0 a_2 = 2^62; np.int64 products wrapped past 2^63
        report = ratio_report([1, np.int64(2**40), np.int64(2**62)])
        assert (report.first_hyponormal_violation, report.first_np_violation) == (None, 1)

    @pytest.mark.parametrize("q", [0.7, 0.1, 0.999, 1.3, 3.0, 1e-10, 2.0**-30])
    def test_float_geometric_lists_tie(self, q):
        assert ratio_report([(3 * q**n) / 3 for n in range(30)]).geometric
        running = [1.0]
        for _ in range(29):
            running.append(running[-1] * q)
        assert ratio_report(running).geometric

    def test_geometric_across_the_float_range(self):
        # a float ratio, then its powers exactly: q^2 = 1e-320 would be a subnormal
        # float with 11 significant bits, and q^3 on are below 2^-1074
        q = 1e-160
        report = ratio_report([1, q] + [Fraction(q) ** n for n in range(2, 8)])
        assert report.geometric


def mixed_coefficient(rng, value: Fraction):
    """value, or something near it, as one of the coefficient types validated_coeffs
    accepts: a float (subnormal when value is that small), an np.float32, an np.int64,
    or a Fraction, whose numerator and denominator may both exceed 2^1024."""
    kind = rng.integers(5)
    if kind == 0 and 2.0**-1074 <= value:
        return float(value)
    if kind == 1 and 2.0**-149 <= value <= 2.0**127:
        return np.float32(float(value))
    if kind == 2 and 1 <= value < 2**63:
        return np.int64(round(value))
    if kind == 3:
        big = 3 ** int(rng.integers(650, 900))
        return value * Fraction(big + 1, big)
    return value


def mixed_coefficient_list(rng) -> list:
    """a_0 = 1 and a_1.. near a geometric sequence: ratios 2^x for x in [-400, 1000/(N-1)],
    so terms reach far below 2^-1074, each perturbed by 0, a relative amount from 1e-17
    to 1e-8, or at random, so that ties, near ties and plain violations all occur."""
    n = int(rng.integers(3, 9))
    q = Fraction(2.0 ** rng.uniform(-400, 1000 / (n - 1)))
    values = [Fraction(1)]
    for _ in range(n - 1):
        wobble = rng.choice([0.0, 10.0 ** -rng.uniform(8, 17), rng.uniform(0.0, 1.0)])
        values.append(values[-1] * q * (1 + Fraction(wobble) * int(rng.choice([-1, 1]))))
    return [rng.choice([1, 1.0, np.int64(1), np.float32(1.0), Fraction(1)])] + [
        mixed_coefficient(rng, v) for v in values[1:]
    ]


def exact_value(c) -> Fraction:
    if isinstance(c, np.integer):  # a Fraction of an np.int64 keeps it, and its products wrap
        return Fraction(int(c))
    return Fraction(c) if isinstance(c, (int, Fraction)) else Fraction(float(c))


def reference_ratio_report(coeffs):
    """The documented comparison in Fraction arithmetic: a_n^2 against a_{n-1} a_{n+1}
    with slack 1e-12 times the larger side when any coefficient is not rational."""
    rational = all(isinstance(c, (int, np.integer, Fraction)) for c in coeffs)
    tie = Fraction(0) if rational else Fraction(1e-12)
    a = [exact_value(c) for c in coeffs]
    down = up = None
    for n in range(1, len(a) - 1):
        square, product = a[n] ** 2, a[n - 1] * a[n + 1]
        slack = tie * max(square, product)
        if down is None and product - square > slack:
            down = n
        if up is None and square - product > slack:
            up = n
    return down, up


class TestRatioReportAgainstFractions:
    @seeded_by(100)
    def test_mixed_types_and_scales(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(20):
            coeffs = mixed_coefficient_list(rng)
            report = ratio_report(coeffs)
            got = (report.first_hyponormal_violation, report.first_np_violation)
            assert got == reference_ratio_report(coeffs), coeffs


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

    # zeta(p) - 1 at the double p, rounded to the nearest double from a 200-bit
    # evaluation (mpmath.zeta, computed once and written out here)
    ZETA_MINUS_ONE = {
        1.1: 9.584448464950801,
        1.5: 1.6123753486854884,
        2.0: 0.6449340668482264,
        3.0: 0.2020569031595943,
        4.0: 0.08232323371113819,
    }

    @pytest.mark.parametrize("p", ZETA_MINUS_ONE)
    def test_polynomial_tail_against_zeta(self, p):
        # a 200,000-term partial sum with an integral bracket was off by 1.8e-14 at p = 1.1
        want = self.ZETA_MINUS_ONE[p]
        assert abs(blaschke_classify(PolynomialTail(c=1.0, p=p)).total - want) <= 4e-16 * want

    @pytest.mark.parametrize("c, p", [(2.0**900, 1060.25), (2.0**1000, 1030.5), (2.0**1022, 1022.5)])
    def test_tail_with_subnormal_terms(self, c, p):
        # k^-p is subnormal past p = 1022, and summing it before c multiplies lost
        # accuracy: 1.8e-5 relative at (2^900, 1060.25); 2^-p = 2^-frac(p) 2^-floor(p)
        w = math.floor(p)
        want = math.ldexp(c * 2.0 ** (w - p), -w) * math.fsum((2 / k) ** p for k in range(2, 100))
        assert abs(blaschke_classify(PolynomialTail(c=c, p=p)).total - want) <= 4e-16 * want

    @pytest.mark.parametrize("p", [1100.0, 1e300])
    def test_underflowing_tail_leaves_the_prefix(self, p):
        # every k^-p and every Euler-Maclaurin correction underflows to 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            v = blaschke_classify(PolynomialTail(c=1.0, p=p, prefix=(0.5, 0.75)))
        assert not v.divergent and v.total == 0.75

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
