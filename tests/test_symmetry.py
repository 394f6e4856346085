"""Verdicts under the symmetries of the mathematics.

Each verdict-producing entry point -- minimal_interpolation_norm,
pick_feasible, cnp_sample_check, the rank of agler_mccarthy_embed and
classify -- is checked under positive rescaling of the kernel from 1e-12 to
1e12, permutation of the sample and unitary rotation of Drury-Arveson
points; the CNP verdict also under change of base point, and classify
under rescaling of single points. Random cases are
drawn by hypothesis when it is installed and from fixed seeds otherwise.
"""

import numpy as np
import pytest
from conftest import blaschke, random_ball_points, random_unitary, seeded_by

from rkhslab.cnp import agler_mccarthy_embed, cnp_sample_check
from rkhslab.errors import PreconditionError
from rkhslab.kernels import (
    DruryArvesonKernel,
    PointSet,
    PowerSeriesKernel,
    SampledGramKernel,
)
from rkhslab.linalg import HermitianMatrix
from rkhslab.pick import PickProblem, minimal_interpolation_norm, pick_feasible
from rkhslab.reconstruct import HARDY_EQUIVALENT, HIGHER_RANK, classify

TOL = 1e-9
SCALES = (1e-12, 1e-6, 1.0, 1e6, 1e12)

seeded = seeded_by(25)

SZEGO = PowerSeriesKernel([1] * 60)
BERGMAN = PowerSeriesKernel([n + 1 for n in range(120)])
DIRICHLET = PowerSeriesKernel([1.0 / (n + 1) for n in range(120)])


def disk_points(rng, n, radius=0.7):
    return radius * np.sqrt(rng.uniform(size=n)) * np.exp(2j * np.pi * rng.uniform(size=n))


def szego_gram(z):
    return 1.0 / (1.0 - np.outer(z, np.conj(z)))


def sampled_problem(g, targets, scale=1.0, order=None):
    order = np.arange(len(targets)) if order is None else order
    labels = [str(i) for i in order]
    kernel = SampledGramKernel(labels, scale * g[np.ix_(order, order)])
    return PickProblem(kernel=kernel, nodes=labels, targets=np.asarray(targets)[order])


def ball_problem(points, targets):
    pts = PointSet(points.shape[1], points)
    return PickProblem(kernel=DruryArvesonKernel(points.shape[1]), nodes=pts, targets=targets)


def minimal_norm_or_refused(problem):
    try:
        return minimal_interpolation_norm(problem, TOL)
    except PreconditionError:
        return None


def assert_same_norm(got, want, g):
    """Equal answers, or both refused. The closed form's rounding grows with
    the condition number of G; 16 eps cond(G) relative is 8 times the largest
    deviation seen on 400 random problems."""
    if want is None:
        assert got is None
    else:
        rtol = 16 * np.finfo(float).eps * np.linalg.cond(g)
        assert got is not None and abs(got - want) <= rtol * want


# ---------------------------------------------------------------------------
# Pick


class TestPickSymmetries:
    @seeded
    def test_minimal_norm_under_scaling_and_permutation(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 9))
        z = disk_points(rng, n)
        w = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        g = szego_gram(z)
        want = minimal_norm_or_refused(sampled_problem(g, w))
        for scale in SCALES:
            assert_same_norm(minimal_norm_or_refused(sampled_problem(g, w, scale)), want, g)
        order = rng.permutation(n)
        assert_same_norm(minimal_norm_or_refused(sampled_problem(g, w, order=order)), want, g)

    @seeded
    def test_minimal_norm_under_ball_rotation(self, seed):
        rng = np.random.default_rng(seed)
        n, d = int(rng.integers(1, 7)), int(rng.integers(2, 4))
        pts = random_ball_points(rng, n, d)
        w = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        rotated = pts @ random_unitary(rng, d).T
        problem = ball_problem(pts, w)
        want = minimal_norm_or_refused(problem)
        assert_same_norm(minimal_norm_or_refused(ball_problem(rotated, w)), want, problem.gram().entries)

    @seeded
    def test_feasibility_under_symmetries(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 7))
        z = disk_points(rng, n)
        w = 2.0 * blaschke(z, disk_points(rng, int(rng.integers(1, n)), 0.9))
        g = szego_gram(z)
        t_star = minimal_interpolation_norm(sampled_problem(g, w), TOL)
        order = rng.permutation(n)
        for factor, feasible in ((1.01, True), (0.99, False)):
            t = factor * t_star
            for scale in SCALES:
                assert pick_feasible(sampled_problem(g, w, scale), t, TOL).is_psd is feasible
            assert pick_feasible(sampled_problem(g, w, order=order), t, TOL).is_psd is feasible

    @seeded
    def test_feasibility_under_ball_rotation(self, seed):
        rng = np.random.default_rng(seed)
        n, d = int(rng.integers(2, 7)), int(rng.integers(2, 4))
        pts = random_ball_points(rng, n, d)
        w = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        rotated = pts @ random_unitary(rng, d).T
        t_star = minimal_norm_or_refused(ball_problem(pts, w))
        if t_star is None:
            return
        for factor, feasible in ((1.01, True), (0.99, False)):
            assert pick_feasible(ball_problem(rotated, w), factor * t_star, TOL).is_psd is feasible

    @pytest.mark.parametrize("scale", SCALES)
    def test_exact_answer_one_at_every_scale(self, scale):
        # Szego nodes 0, 0.1, 0.2, 0.3, targets B(z) with zeros 0.5, 0.6, 0.7:
        # the minimal norm is exactly 1
        z = np.array([0.0, 0.1, 0.2, 0.3], dtype=complex)
        w = blaschke(z, [0.5, 0.6, 0.7])
        g = szego_gram(z)
        assert abs(minimal_interpolation_norm(sampled_problem(g, w, scale), TOL) - 1.0) <= 1e-11
        reversed_problem = sampled_problem(g, w, scale, order=np.arange(4)[::-1])
        assert_same_norm(minimal_interpolation_norm(reversed_problem, TOL), 1.0, g)

    @pytest.mark.parametrize("scale", SCALES)
    def test_four_point_problem_at_every_scale(self, scale):
        # bisection returned 1.3407 here at scale 1e-6, and the absolute
        # slack of psd_check called half the minimal norm feasible at 1e-9
        z = np.array([0.0, 0.3, 0.5j, -0.4])
        w = np.array([0.0, 0.1, 0.2, 0.1j])
        problem = sampled_problem(szego_gram(z), w, scale)
        got = minimal_interpolation_norm(problem, TOL)
        assert abs(got - 1.4724734492586) <= 1e-12
        assert pick_feasible(problem, 1.01 * got, TOL).is_psd
        assert not pick_feasible(problem, 0.5 * got, TOL).is_psd


# ---------------------------------------------------------------------------
# CNP verdict, embedding rank, classification


def permuted(g: HermitianMatrix, order) -> HermitianMatrix:
    return HermitianMatrix(g.entries[np.ix_(order, order)])


def scaled(g: HermitianMatrix, scale) -> HermitianMatrix:
    return HermitianMatrix(scale * g.entries)


def disk_sample(rng, kernel, n):
    z = disk_points(rng, n, 0.8)
    z[0] = 0.0
    return kernel.gram(PointSet(1, z[:, None]))


CNP_KERNELS = {"szego": SZEGO, "bergman": BERGMAN, "dirichlet": DIRICHLET}


class TestCnpSymmetries:
    @pytest.mark.parametrize("name", sorted(CNP_KERNELS))
    @seeded
    def test_cnp_check_on_disk_samples(self, name, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 9))
        g = disk_sample(rng, CNP_KERNELS[name], n)
        base = int(rng.integers(n))
        want = cnp_sample_check(g, base, TOL)
        variants = [(scaled(g, s), base) for s in SCALES]
        order = rng.permutation(n)
        variants.append((permuted(g, order), int(np.flatnonzero(order == base)[0])))
        for h, b in variants:
            got = cnp_sample_check(h, b, TOL)
            assert got.status == want.status
            assert abs(got.min_eig - want.min_eig) <= 1e-12 * max(1.0, abs(want.min_eig))
        for b in range(n):
            assert cnp_sample_check(g, b, TOL).status == want.status

    @seeded
    def test_ball_samples(self, seed):
        rng = np.random.default_rng(seed)
        n, d = int(rng.integers(2, 9)), int(rng.integers(2, 4))
        pts = random_ball_points(rng, n, d)
        kernel = DruryArvesonKernel(d)
        g = kernel.gram(PointSet(d, pts))
        rotated = kernel.gram(PointSet(d, pts @ random_unitary(rng, d).T))
        base = int(rng.integers(n))
        order = rng.permutation(n)
        variants = [(scaled(g, s), base) for s in SCALES]
        variants.append((permuted(g, order), int(np.flatnonzero(order == base)[0])))
        variants.append((rotated, base))
        rank = min(d, n - 1)
        for h, b in variants:
            assert cnp_sample_check(h, b, TOL).status == "consistent"
            assert agler_mccarthy_embed(h, b, TOL).rank == rank
            res = classify(h, b, TOL)
            assert res.rank == rank
            assert res.classification == (HARDY_EQUIVALENT if rank == 1 else HIGHER_RANK)

    @seeded
    def test_classify_disk_samples(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 9))
        z = disk_points(rng, n, 0.8)
        delta = rng.uniform(0.5, 2.0, n) * np.exp(2j * np.pi * rng.uniform(size=n))
        g = HermitianMatrix(np.outer(delta, delta.conj()) * szego_gram(z))
        base = int(rng.integers(n))
        want = classify(g, base, TOL)
        assert want.classification == HARDY_EQUIVALENT
        order = rng.permutation(n)
        variants = [(scaled(g, s), base, np.arange(n), np.sqrt(s)) for s in SCALES]
        variants.append((permuted(g, order), int(np.flatnonzero(order == base)[0]), order, 1.0))
        # rescaling single points far apart (a positive diagonal congruence)
        d = 10.0 ** rng.uniform(-6, 6, n)
        variants.append((HermitianMatrix(np.outer(d, d) * g.entries), base, np.arange(n), d))
        for h, b, idx, factor in variants:
            got = classify(h, b, TOL)
            assert (got.classification, got.rank) == (HARDY_EQUIVALENT, 1)
            assert agler_mccarthy_embed(h, b, TOL).rank == 1
            assert np.allclose(np.abs(got.j_values), np.abs(want.j_values[idx]), atol=1e-9)
            assert np.allclose(got.delta, factor * want.delta[idx], rtol=1e-12, atol=0)
