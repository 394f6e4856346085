import math
from fractions import Fraction

import numpy as np
import pytest
from conftest import random_ball_points

from rkhslab.errors import DomainError, InputError, IrreducibilityError
from rkhslab.kernels import (
    DruryArvesonKernel,
    PointSet,
    PowerSeriesKernel,
    SampledGramKernel,
    check_irreducible_sample,
    irreducible_partition,
    normalize,
)
from rkhslab.linalg import HermitianMatrix, psd_check

SZEGO_60 = PowerSeriesKernel([1] * 60)
BERGMAN_200 = PowerSeriesKernel([n + 1 for n in range(200)])


class TestPointSet:
    def test_rejects_norm_one(self):
        with pytest.raises(DomainError):
            PointSet(2, [[1.0, 0.0]])

    def test_rejects_duplicates(self):
        with pytest.raises(InputError):
            PointSet(1, [[0.3], [0.3]])

    def test_rejects_dim_mismatch(self):
        with pytest.raises(InputError):
            PointSet(2, [[0.3]])

    def test_repr_names_the_shape(self):
        assert repr(PointSet(1, [[0.1], [0.5]])) == "PointSet(dim=1, n=2)"

    def test_a_flat_list_is_one_coordinate_per_point(self):
        assert np.array_equal(PointSet(1, [0.0, 0.5j]).points, [[0.0], [0.5j]])
        with pytest.raises(InputError, match=r"points must form an \(n, 2\) array, got shape \(2, 1\)"):
            PointSet(2, [0.1, 0.2])


class TestEvaluate:
    def test_ball_kernel_closed_form(self):
        k = DruryArvesonKernel(2)
        assert k.evaluate([0.5, 0.5], [0.5, 0.5]) == pytest.approx(2.0, abs=1e-14)

    def test_szego_geometric_series(self):
        # sum of (1/4)^n over 60 terms against 1/(1 - 1/4)
        assert SZEGO_60.evaluate([0.5], [0.5]) == pytest.approx(4.0 / 3.0, abs=1e-12)

    def test_bergman_closed_form(self):
        # oracle: (1 - x)^(-2) at x = 1/4
        assert BERGMAN_200.evaluate([0.5], [0.5]) == pytest.approx(16.0 / 9.0, abs=1e-10)

    def test_rejects_a0_not_one(self):
        with pytest.raises(InputError, match="a_0 must equal 1"):
            PowerSeriesKernel([2, 1, 1])

    def test_rejects_nonpositive_coefficient(self):
        with pytest.raises(InputError):
            PowerSeriesKernel([1, 0.0, 1])

    def test_rejects_infinite_coefficient(self):
        with pytest.raises(InputError, match="coefficient 1 must be finite, got inf"):
            PowerSeriesKernel([1, math.inf, 1])

    def test_rejects_float32_infinity(self):
        # it passed: the bound float_info.max was cast to a float32 inf to compare
        with pytest.raises(InputError, match="coefficient 1 must be finite, got inf"):
            PowerSeriesKernel([1, np.float32(math.inf), 1])

    @pytest.mark.parametrize("big", [Fraction(10**400), 10**400, Fraction(10**400, 3)], ids=["fraction", "int", "ratio"])
    def test_rejects_rational_beyond_the_float_range(self, big):
        # float(big) overflows; it raised OverflowError from gram() before
        with pytest.raises(InputError, match="^coefficient 1: number beyond the float range$"):
            PowerSeriesKernel([1, big, 1]).gram(PointSet(1, [[0.1], [0.2]]))


class TestGram:
    def test_szego_two_points(self):
        g = SZEGO_60.gram(PointSet(1, [[0.0], [0.5]]))
        assert np.allclose(g.entries, [[1.0, 1.0], [1.0, 4.0 / 3.0]], atol=1e-12)

    def test_single_point(self):
        g = DruryArvesonKernel(3).gram(PointSet(3, [[0.2, 0.1, 0.0]]))
        assert g.n == 1
        assert g[0, 0] == pytest.approx(1.0 / (1.0 - 0.05), abs=1e-14)

    def test_ball_kernel_gram_is_psd(self, rng):
        pts = PointSet(2, random_ball_points(rng, 4, 2))
        g = DruryArvesonKernel(2).gram(pts)
        assert psd_check(g, 1e-9).is_psd

    def test_builtin_kernels_psd_on_random_samples(self, rng):
        for _ in range(20):
            pts1 = PointSet(1, random_ball_points(rng, 5, 1))
            for k in (SZEGO_60, BERGMAN_200):
                assert psd_check(k.gram(pts1), 1e-9).is_psd
            d = int(rng.integers(1, 4))
            ptsd = PointSet(d, random_ball_points(rng, 5, d))
            assert psd_check(DruryArvesonKernel(d).gram(ptsd), 1e-9).is_psd


class TestSampledGram:
    def test_lookup_and_submatrix(self):
        g = [[1.0, 0.5], [0.5, 2.0]]
        k = SampledGramKernel(["a", "b"], g)
        assert k.evaluate("a", "b") == pytest.approx(0.5)
        assert k.gram(["b"]).entries[0, 0] == pytest.approx(2.0)

    def test_repr_names_the_size(self):
        assert repr(SampledGramKernel(["a", "b"], [[1.0, 0.5], [0.5, 2.0]])) == "SampledGramKernel(n=2)"

    def test_unknown_label(self):
        k = SampledGramKernel(["a"], [[1.0]])
        with pytest.raises(InputError, match="unknown label"):
            k.evaluate("a", "zz")

    def test_rejects_non_psd(self):
        with pytest.raises(InputError):
            SampledGramKernel(["a", "b"], [[1.0, 2.0], [2.0, 1.0]])

    def test_rejects_a_stack_of_blocks(self):
        # the blocks [1] and [-1] are not a 1x1 Gram matrix, nor a PSD one
        with pytest.raises(InputError, match=r"must be square, got shape \(2, 1, 1\)"):
            SampledGramKernel(["a"], [[[1.0]], [[-1.0]]])


class TestNormalize:
    def test_szego_already_normalized_at_origin(self):
        g = SZEGO_60.gram(PointSet(1, [[0.0], [0.3], [0.5]]))
        ng = normalize(g, 0)
        assert np.allclose(ng.delta, 1.0, atol=1e-14)
        assert np.allclose(ng.gram_tilde.entries, g.entries, atol=1e-14)

    def test_scalar_rescaling_absorbed(self):
        g = SZEGO_60.gram(PointSet(1, [[0.0], [0.4]]))
        doubled = HermitianMatrix(2.0 * g.entries)
        assert np.allclose(
            normalize(doubled, 0).gram_tilde.entries,
            normalize(g, 0).gram_tilde.entries,
            atol=1e-14,
        )

    def test_hand_checked_two_by_two(self):
        ng = normalize(HermitianMatrix([[4.0, 2.0], [2.0, 2.0]]), 0)
        assert np.allclose(ng.delta, [2.0, 1.0], atol=1e-14)
        assert np.allclose(ng.gram_tilde.entries, [[1.0, 1.0], [1.0, 2.0]], atol=1e-14)

    def test_idempotent(self, rng):
        pts = PointSet(2, random_ball_points(rng, 5, 2))
        g = DruryArvesonKernel(2).gram(pts)
        ng = normalize(g, 2)
        again = normalize(ng.gram_tilde, 2)
        assert np.max(np.abs(again.gram_tilde.entries - ng.gram_tilde.entries)) < 1e-12
        assert np.max(np.abs(again.delta - 1.0)) < 1e-12

    def test_reconstruction_identity(self, rng):
        for _ in range(20):
            d = int(rng.integers(1, 4))
            pts = PointSet(d, random_ball_points(rng, 6, d))
            g = DruryArvesonKernel(d).gram(pts)
            base = int(rng.integers(0, 6))
            ng = normalize(g, base)
            rebuilt = ng.gram_tilde.entries * np.outer(ng.delta, ng.delta.conj())
            assert np.max(np.abs(rebuilt - g.entries)) < 1e-12

    def test_base_row_exactly_one(self, rng):
        pts = PointSet(2, random_ball_points(rng, 5, 2))
        ng = normalize(DruryArvesonKernel(2).gram(pts), 3)
        assert np.array_equal(ng.gram_tilde.entries[3, :], np.ones(5))

    def test_zero_base_column_rejected(self):
        g = HermitianMatrix([[1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(IrreducibilityError):
            normalize(g, 0)


BAD_TOLS = [float("nan"), -1.0, 0.0, float("inf")]


class TestPartition:
    def test_block_diagonal_splits(self):
        g = HermitianMatrix([[1.0, 0.0], [0.0, 1.0]])
        assert irreducible_partition(g, 1e-9) == [[0], [1]]

    def test_all_nonzero_single_class(self, rng):
        g = SZEGO_60.gram(PointSet(1, [[0.0], [0.2], [0.5]]))
        assert irreducible_partition(g, 1e-9) == [[0, 1, 2]]

    def test_chain_connects_through_middle(self):
        # entry (0,2) vanishes but both are linked through index 1
        g = HermitianMatrix(
            [[1.0, 0.5, 0.0], [0.5, 1.0, 0.5], [0.0, 0.5, 1.0]]
        )
        assert irreducible_partition(g, 1e-9) == [[0, 1, 2]]

    def test_diagonal_gives_singletons(self):
        g = HermitianMatrix(np.diag([1.0, 2.0, 3.0, 4.0]))
        assert irreducible_partition(g, 1e-9) == [[0], [1], [2], [3]]

    @pytest.mark.parametrize("tol", BAD_TOLS)
    def test_refuses_tol_not_finite_and_positive(self, tol):
        # NaN would split every sample into singletons, a negative tol join
        # the blocks of a diagonal matrix
        with pytest.raises(InputError, match="tol must be positive"):
            irreducible_partition(HermitianMatrix(np.eye(3)), tol)


class TestIrreducibleSample:
    def test_szego_distinct_points(self):
        g = SZEGO_60.gram(PointSet(1, [[0.0], [0.3], [0.6]]))
        assert check_irreducible_sample(g, 1e-9)

    def test_proportional_rows(self):
        assert not check_irreducible_sample(HermitianMatrix([[1.0, 1.0], [1.0, 1.0]]), 1e-9)

    def test_zero_entry(self):
        assert not check_irreducible_sample(HermitianMatrix(np.eye(2)), 1e-9)

    @pytest.mark.parametrize("tol", BAD_TOLS)
    def test_refuses_tol_not_finite_and_positive(self, tol):
        # NaN or a negative tol would call proportional rows irreducible
        with pytest.raises(InputError, match="tol must be positive"):
            check_irreducible_sample(HermitianMatrix(np.ones((3, 3))), tol)
