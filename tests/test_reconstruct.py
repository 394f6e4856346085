import numpy as np
import pytest
from conftest import random_ball_points

from rkhslab.errors import (
    ClassificationError,
    HypothesisError,
    InputError,
    IrreducibilityError,
)
from rkhslab.kernels import DruryArvesonKernel, PointSet, PowerSeriesKernel
from rkhslab.linalg import HermitianMatrix
from rkhslab.reconstruct import (
    HARDY_EQUIVALENT,
    HIGHER_RANK,
    SINGLETON,
    classify,
    j_from_formula,
    reconstruct_j_delta,
    verify_factorization,
)

SZEGO = PowerSeriesKernel([1] * 60)


def synth_disk_gram(delta, points):
    """Gram of delta(i) conj(delta(j)) / (1 - a_i conj(a_j)); the ground truth."""
    d = np.asarray(delta, dtype=complex)
    a = np.asarray(points, dtype=complex)
    return HermitianMatrix(np.outer(d, d.conj()) / (1.0 - np.outer(a, a.conj())))


def random_disk_sample(rng, n, base=0):
    a = (rng.uniform(0.1, 0.8, n) * np.exp(2j * np.pi * rng.uniform(size=n))).astype(complex)
    a[base] = 0.0
    while len({complex(x) for x in a}) < n:
        a = (rng.uniform(0.1, 0.8, n) * np.exp(2j * np.pi * rng.uniform(size=n))).astype(complex)
        a[base] = 0.0
    delta = rng.uniform(0.5, 1.5, n) * np.exp(2j * np.pi * rng.uniform(size=n))
    return delta, a


class TestClassify:
    def test_singleton(self):
        res = classify(HermitianMatrix([[2.0]]), 0, 1e-9)
        assert res.classification == SINGLETON
        assert res.rank == 0
        assert res.delta[0] == pytest.approx(np.sqrt(2.0))
        assert res.factorization_residual == pytest.approx(0.0, abs=1e-14)

    def test_szego_sample_is_disk_realizable(self):
        g = SZEGO.gram(PointSet(1, [[0.0], [0.3], [0.5]]))
        res = classify(g, 0, 1e-9)
        assert res.classification == HARDY_EQUIVALENT
        assert np.allclose(res.j_values, [0.0, 0.3, 0.5], atol=1e-9)
        assert np.allclose(res.delta, 1.0, atol=1e-12)
        assert res.factorization_residual < 1e-10

    def test_ball_sample_needs_two_coordinates(self, rng):
        pts = PointSet(2, np.vstack([[[0.0, 0.0]], random_ball_points(rng, 3, 2)]))
        res = classify(DruryArvesonKernel(2).gram(pts), 0, 1e-9)
        assert res.classification == HIGHER_RANK
        assert res.rank == 2
        assert res.j_values is None and res.factorization_residual is None
        assert "arveson" in res.note

    @pytest.mark.parametrize("scale", [1e-12, 1e-5, 1.0, 1e5, 1e12])
    def test_classification_invariant_under_kernel_scale(self, scale):
        # the absolute minor test once refused this sample at scale 1e-5
        zs = np.array([0.0, 0.3, 0.5j, -0.4])
        g = synth_disk_gram(np.full(4, np.sqrt(scale)), zs)
        res = classify(g, 0, 1e-9)
        assert res.classification == HARDY_EQUIVALENT
        assert res.rank == 1
        assert np.allclose(np.abs(res.j_values), np.abs(zs), atol=1e-9)
        assert np.allclose(res.delta, np.sqrt(scale), rtol=1e-12, atol=0)

    @pytest.mark.parametrize("scale", [1e-12, 1e-5, 1.0, 1e5, 1e12])
    def test_one_point_near_the_boundary(self, scale):
        # G_22 = 5e4 once shrank every other minor below tol when the
        # irreducibility test divided G by its largest entry
        zs = np.array([0.0, 0.1, 0.99999])
        res = classify(synth_disk_gram(np.full(3, np.sqrt(scale)), zs), 0, 1e-9)
        assert (res.classification, res.rank) == (HARDY_EQUIVALENT, 1)
        assert np.allclose(np.abs(res.j_values), zs, atol=1e-6)

    @pytest.mark.parametrize("scale", [1e-12, 1.0, 1e12])
    def test_bergman_near_the_boundary_is_refuted_not_reducible(self, scale):
        zs = np.array([0.0, 0.1, 0.999])
        g = HermitianMatrix(scale / (1.0 - np.outer(zs, zs)) ** 2)
        with pytest.raises(HypothesisError) as exc:
            classify(g, 0, 1e-9)
        assert exc.value.hypothesis == "cnp_consistency"

    @pytest.mark.parametrize("corner", [0.0, -1.0])
    def test_rejects_nonpositive_diagonal(self, corner):
        g = HermitianMatrix([[1.0, 0.5], [0.5, corner]])
        with pytest.raises(HypothesisError) as exc:
            classify(g, 0, 1e-9)
        assert exc.value.hypothesis == "irreducibility"

    def test_rejects_reducible_sample(self):
        g = HermitianMatrix([[1.0, 1.0], [1.0, 1.0]])
        with pytest.raises(HypothesisError) as exc:
            classify(g, 0, 1e-9)
        assert exc.value.hypothesis == "irreducibility"

    def test_rejects_refuted_sample(self):
        zs = np.array([0.0, 0.5, 0.8])
        g = HermitianMatrix(1.0 / (1.0 - np.outer(zs, zs)) ** 2)
        with pytest.raises(HypothesisError) as exc:
            classify(g, 0, 1e-9)
        assert exc.value.hypothesis == "cnp_consistency"


class TestReconstructJDelta:
    def test_round_trip_with_nontrivial_delta(self):
        points = np.array([0.0, 0.4, 0.6])
        delta = 1.0 + points
        g = synth_disk_gram(delta, points)
        rec_delta, rec_j = reconstruct_j_delta(g, 0, 1e-9)
        assert np.max(np.abs(rec_j - points)) < 1e-9
        assert np.max(np.abs(rec_delta - delta)) < 1e-9

    def test_base_entries(self, rng):
        delta, points = random_disk_sample(rng, 5, base=2)
        g = synth_disk_gram(delta, points)
        rec_delta, rec_j = reconstruct_j_delta(g, 2, 1e-9)
        assert rec_j[2] == 0.0
        assert rec_delta[2] == pytest.approx(np.sqrt(g[2, 2].real), abs=1e-12)

    def test_round_trip_many(self, rng):
        for _ in range(100):
            n = int(rng.integers(2, 13))
            base = int(rng.integers(0, n))
            delta, points = random_disk_sample(rng, n, base=base)
            g = synth_disk_gram(delta, points)
            res = classify(g, base, 1e-9)
            assert res.classification == HARDY_EQUIVALENT
            assert res.factorization_residual < 1e-9

    def test_higher_rank_refused(self, rng):
        pts = PointSet(2, np.vstack([[[0.0, 0.0]], random_ball_points(rng, 3, 2)]))
        g = DruryArvesonKernel(2).gram(pts)
        with pytest.raises(ClassificationError):
            reconstruct_j_delta(g, 0, 1e-9)

    def test_gauge_covariance(self, rng):
        # conjugating by a nonvanishing diagonal changes delta but not the
        # phase-invariant products of the recovered disk points
        delta, points = random_disk_sample(rng, 6)
        g = synth_disk_gram(delta, points)
        _, j1 = reconstruct_j_delta(g, 0, 1e-9)
        scale = rng.uniform(0.5, 2.0, 6) * np.exp(2j * np.pi * rng.uniform(size=6))
        g2 = HermitianMatrix(g.entries * np.outer(scale, scale.conj()))
        _, j2 = reconstruct_j_delta(g2, 0, 1e-9)
        prod1 = np.outer(j1, j1.conj())
        prod2 = np.outer(j2, j2.conj())
        assert np.max(np.abs(prod1 - prod2)) < 1e-10


class TestJFromFormula:
    def test_szego_linear_in_lambda(self):
        # with reference point 1/2 and its disk value 1/2, the formula
        # collapses to j(lambda) = lambda
        pts = [0.0, 0.2, 0.5, 0.7]
        g = SZEGO.gram(PointSet(1, [[z] for z in pts]))
        j = j_from_formula(g, 0, 2, 0.5)
        assert np.max(np.abs(j - np.array(pts))) < 1e-10

    def test_base_maps_to_zero(self, rng):
        delta, points = random_disk_sample(rng, 5)
        g = synth_disk_gram(delta, points)
        _, j = reconstruct_j_delta(g, 0, 1e-9)
        out = j_from_formula(g, 0, 3, j[3])
        assert abs(out[0]) < 1e-12

    def test_agrees_with_embedding_for_every_reference(self, rng):
        for _ in range(25):
            n = int(rng.integers(3, 9))
            delta, points = random_disk_sample(rng, n)
            g = synth_disk_gram(delta, points)
            _, j = reconstruct_j_delta(g, 0, 1e-9)
            for mu in range(1, n):
                out = j_from_formula(g, 0, mu, j[mu])
                assert np.max(np.abs(out - j)) < 1e-9

    def test_zero_reference_rejected(self):
        g = SZEGO.gram(PointSet(1, [[0.0], [0.5]]))
        with pytest.raises(InputError):
            j_from_formula(g, 0, 1, 0.0)
        with pytest.raises(InputError):
            j_from_formula(g, 0, 0, 0.5)

    def test_zero_kernel_entry_rejected(self):
        g = HermitianMatrix([[1.0, 1.0, 0.0], [1.0, 2.0, 1.0], [0.0, 1.0, 2.0]])
        with pytest.raises(IrreducibilityError):
            j_from_formula(g, 1, 2, 0.5)


class TestVerifyFactorization:
    def test_classify_output_self_consistent(self):
        g = SZEGO.gram(PointSet(1, [[0.0], [0.3], [0.5]]))
        res = classify(g, 0, 1e-9)
        assert verify_factorization(g, res.delta, res.j_values) < 1e-10

    def test_sensitive_to_perturbation(self):
        g = SZEGO.gram(PointSet(1, [[0.0], [0.3], [0.5]]))
        res = classify(g, 0, 1e-9)
        bad = np.array(res.j_values)
        bad[1] += 0.1
        assert verify_factorization(g, res.delta, bad) > 1e-3

    def test_single_point(self):
        g = HermitianMatrix([[3.0]])
        assert verify_factorization(g, [np.sqrt(3.0)], [0.0]) == pytest.approx(0.0, abs=1e-15)

    def test_rejects_j_outside_disk(self):
        g = HermitianMatrix([[1.0]])
        with pytest.raises(InputError):
            verify_factorization(g, [1.0], [1.0])
