import numpy as np
import pytest
from conftest import blaschke, seeded_by

from rkhslab.errors import InputError, PreconditionError
from rkhslab.kernels import PointSet, PowerSeriesKernel
from rkhslab.linalg import psd_check
from rkhslab.pick import (
    PickProblem,
    minimal_interpolation_norm,
    pick_feasible,
    pick_matrix,
)

SZEGO = PowerSeriesKernel([1] * 60)

seeded = seeded_by(40)


def szego_problem(nodes, targets):
    return PickProblem(kernel=SZEGO, nodes=PointSet(1, [[z] for z in nodes]), targets=targets)


def reduced_lambda_max_norm(g, w):
    """sqrt(lambda_max(L^-1 D G D^* L^-*)) with G = L L^*, D = diag(w): the
    largest eigenvalue of the pencil (D G D^*, G) after Cholesky reduction."""
    linv = np.linalg.inv(np.linalg.cholesky(g))
    d = np.diag(w)
    m = linv @ d @ g @ d.conj().T @ linv.conj().T
    return float(np.sqrt(max(np.linalg.eigvalsh((m + m.conj().T) / 2.0)[-1], 0.0)))


class TestPickMatrix:
    def test_single_node_half_target(self):
        p = szego_problem([0.0], [0.5])
        m = pick_matrix(p, 1.0)
        assert m.entries[0, 0] == pytest.approx(0.75, abs=1e-14)

    def test_single_node_large_target_not_psd(self):
        p = szego_problem([0.0], [2.0])
        m = pick_matrix(p, 1.0)
        assert m.entries[0, 0] == pytest.approx(-3.0, abs=1e-12)
        assert not psd_check(m, 1e-9).is_psd

    def test_contraction_data_is_feasible(self):
        # two-point Schwarz-Pick data
        p = szego_problem([0.0, 0.5], [0.0, 0.25])
        assert pick_feasible(p, 1.0, 1e-9).is_psd

    def test_rejects_nonpositive_level(self):
        with pytest.raises(InputError):
            pick_matrix(szego_problem([0.0], [0.5]), 0.0)


class TestFeasibility:
    def test_boundary_level_single_node(self):
        c = 0.3 - 0.4j
        p = szego_problem([0.0], [c])
        v = pick_feasible(p, abs(c), 1e-9)
        assert v.is_psd
        assert v.min_eig == pytest.approx(0.0, abs=1e-12)

    def test_below_boundary_infeasible(self):
        c = 0.3 - 0.4j
        p = szego_problem([0.0], [c])
        assert not pick_feasible(p, abs(c) - 1e-3, 1e-9).is_psd

    def test_constant_targets_feasible_at_modulus(self, rng):
        c = 0.2 + 0.3j
        nodes = [0.0, 0.3, -0.4]
        p = szego_problem(nodes, [c, c, c])
        assert pick_feasible(p, abs(c), 1e-9).is_psd


class TestMinimalNorm:
    def test_one_point_schwarz(self):
        for c in (0.5, 0.3 - 0.4j, 0.9j):
            p = szego_problem([0.0], [c])
            t = minimal_interpolation_norm(p, 1e-11)
            assert abs(t - abs(c)) < 1e-10

    def test_two_point_schwarz_pick(self):
        # closed form |w2| / |z2| = 0.5 for data (0 -> 0, 1/2 -> 1/4)
        p = szego_problem([0.0, 0.5], [0.0, 0.25])
        t = minimal_interpolation_norm(p, 1e-9)
        assert abs(t - 0.5) < 1e-8

    def test_two_point_against_dense_sweep(self):
        # independent check: scan norm levels on a grid and take the first
        # feasible one
        p = szego_problem([0.0, 0.5], [0.0, 0.25])
        grid = np.linspace(0.0, 1.0, 2001)[1:]
        first = next(t for t in grid if pick_feasible(p, t, 1e-9).is_psd)
        assert abs(first - minimal_interpolation_norm(p, 1e-9)) < 1e-3

    def test_all_zero_targets(self):
        p = szego_problem([0.0, 0.4], [0.0, 0.0])
        assert minimal_interpolation_norm(p, 1e-9) == 0.0

    def test_upward_closure(self, rng):
        for _ in range(100):
            n = int(rng.integers(1, 5))
            nodes = rng.uniform(-0.8, 0.8, n) + 1j * rng.uniform(-0.5, 0.5, n)
            while len({complex(z) for z in nodes}) < n:
                nodes = rng.uniform(-0.8, 0.8, n) + 1j * rng.uniform(-0.5, 0.5, n)
            targets = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            p = szego_problem(list(nodes), targets)
            t = float(rng.uniform(0.05, 2.0))
            t_bigger = t * float(rng.uniform(1.0, 3.0))
            if pick_feasible(p, t, 1e-9).is_psd:
                assert pick_feasible(p, t_bigger, 1e-9).is_psd

    def test_target_scaling(self, rng):
        tol = 1e-9
        p = szego_problem([0.0, 0.3, -0.2], [0.1, 0.2 + 0.1j, -0.05])
        base = minimal_interpolation_norm(p, tol)
        for c in (2.0, 0.5, 1.5j):
            scaled = szego_problem([0.0, 0.3, -0.2], [c * 0.1, c * (0.2 + 0.1j), c * -0.05])
            assert abs(minimal_interpolation_norm(scaled, tol) - abs(c) * base) < 2e-9 * max(
                1.0, abs(c)
            )

    def test_lower_bound_from_diagonal(self, rng):
        tol = 1e-9
        for _ in range(20):
            n = int(rng.integers(1, 5))
            nodes = list(rng.uniform(-0.7, 0.7, n))
            while len(set(nodes)) < n:
                nodes = list(rng.uniform(-0.7, 0.7, n))
            targets = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            targets = targets / np.max(np.abs(targets))
            p = szego_problem(nodes, targets)
            t = minimal_interpolation_norm(p, tol)
            assert t >= 1.0 - 5 * tol

    def test_near_singular_gram_rejected(self):
        p = szego_problem([0.3, 0.3 + 1e-13], [0.1, 0.1])
        with pytest.raises(PreconditionError):
            minimal_interpolation_norm(p, 1e-9)


class TestClosedForm:
    @seeded
    def test_agrees_with_reduced_eigenproblem(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 11))
        nodes = 0.7 * np.sqrt(rng.uniform(size=n)) * np.exp(2j * np.pi * rng.uniform(size=n))
        targets = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        p = szego_problem(list(nodes), targets)
        g = p.gram().entries
        if np.linalg.eigvalsh(g)[0] <= 1e-9 * np.max(g.diagonal().real):
            with pytest.raises(PreconditionError):
                minimal_interpolation_norm(p, 1e-9)
            return
        want = reduced_lambda_max_norm(g, targets)
        assert abs(minimal_interpolation_norm(p, 1e-9) - want) <= 1e-12 * want

    def test_exact_answer_one(self):
        # Szego data w = B(z) with B of three zeros at four nodes: the minimal
        # norm is exactly 1 (bisection returned 0.99974 here)
        nodes = np.array([0.0, 0.1, 0.2, 0.3])
        p = szego_problem(list(nodes), blaschke(nodes, [0.5, 0.6, 0.7]))
        assert abs(minimal_interpolation_norm(p, 1e-9) - 1.0) <= 1e-11

    def test_feasible_exactly_above_the_minimal_norm(self):
        nodes = np.array([0.0, 0.3, 0.5j, -0.4])
        p = szego_problem(list(nodes), 1.5 * blaschke(nodes, [0.2 - 0.1j]))
        t = minimal_interpolation_norm(p, 1e-9)
        assert pick_feasible(p, t * (1 + 1e-6), 1e-9).is_psd
        assert not pick_feasible(p, t * (1 - 1e-6), 1e-9).is_psd

    def test_refuses_twelve_close_real_nodes(self):
        """Twelve equispaced real Szego nodes in [-0.6, 0.6], targets 0.5 z.

        The exact answer is 0.5, but the least Gram eigenvalue is 1.6e-12,
        1.0e-12 of the largest diagonal entry: below the guard tol = 1e-9,
        so the problem is refused on purpose. The closed form there would
        be off by 4.8e-6, far outside the accuracy the solver claims.
        """
        nodes = np.linspace(-0.6, 0.6, 12)
        with pytest.raises(PreconditionError):
            minimal_interpolation_norm(szego_problem(list(nodes), 0.5 * nodes), 1e-9)

    def test_rejects_nonpositive_tol(self):
        with pytest.raises(InputError):
            minimal_interpolation_norm(szego_problem([0.0], [0.5]), 0.0)


class TestProblemValidation:
    def test_length_mismatch(self):
        with pytest.raises(InputError):
            szego_problem([0.0, 0.5], [0.1])

    def test_duplicate_nodes(self):
        with pytest.raises(InputError):
            szego_problem([0.2, 0.2], [0.1, 0.1])
