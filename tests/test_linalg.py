import numpy as np
import pytest
from conftest import cholesky_bisect_min_eig, random_psd_entries, random_unitary, seeded_by

from rkhslab.errors import InputError, NotPsdError, PreconditionError
from rkhslab.linalg import (
    HermitianMatrix,
    connected_components,
    Subspace,
    min_eigenvalue,
    psd_check,
    psd_factor,
    verify_hyponormal_closure,
)


class TestHermitianMatrix:
    def test_enforces_hermitian_exactly(self):
        a = HermitianMatrix([[1.0, 2.0 + 1j], [2.5 - 0.5j, 3.0]])
        assert np.array_equal(a.entries, a.entries.conj().T)

    def test_rejects_non_square(self):
        with pytest.raises(InputError):
            HermitianMatrix([[1.0, 2.0]])

    def test_rejects_non_finite(self):
        with pytest.raises(InputError):
            HermitianMatrix([[np.nan, 0.0], [0.0, 1.0]])

    def test_entries_read_only(self):
        a = HermitianMatrix(np.eye(2))
        with pytest.raises(ValueError):
            a.entries[0, 0] = 5.0

    def test_refusal_texts(self):
        cases = [
            ([[1.0, 2.0]], r"matrix must be square, got shape \(1, 2\)"),
            ([1.0, 2.0], r"matrix must be square, got shape \(2,\)"),
            (np.zeros((0, 0)), "matrix must be non-empty"),
            ([[np.inf]], r"^matrix: expected a finite number, got \(inf\+0j\)$"),
            (np.zeros((2, 2, 2)), r"matrix must be square, got shape \(2, 2, 2\)"),
            ([[[1.0]], [[-1.0]]], r"matrix must be square, got shape \(2, 1, 1\)"),
        ]
        for entries, text in cases:
            with pytest.raises(InputError, match=text):
                HermitianMatrix(entries)

    def test_stack_stands_for_its_block_diagonal_sum(self, rng):
        blocks = rng.standard_normal((3, 4, 4)) + 1j * rng.standard_normal((3, 4, 4))
        stack = np.array([HermitianMatrix(b).entries for b in blocks])
        whole = np.zeros((12, 12), dtype=complex)
        for i, b in enumerate(stack):
            whole[4 * i : 4 * i + 4, 4 * i : 4 * i + 4] = b
        assert min_eigenvalue(stack) == min(min_eigenvalue(HermitianMatrix(b)) for b in blocks)
        assert min_eigenvalue(stack) == pytest.approx(np.linalg.eigvalsh(whole)[0], abs=1e-12)

    def test_stack_of_real_blocks_agrees_with_the_complex_solve(self, rng):
        blocks = rng.standard_normal((2, 5, 5))
        stack = blocks + blocks.swapaxes(-1, -2)  # real symmetric, solved in real arithmetic
        want = min(min_eigenvalue(HermitianMatrix(b)) for b in stack)
        assert min_eigenvalue(stack) == pytest.approx(want, abs=1e-12)


class TestPsdCheck:
    def test_identity(self):
        v = psd_check(HermitianMatrix(np.eye(3)), 1e-9)
        assert v.is_psd
        assert v.min_eig == pytest.approx(1.0, abs=1e-12)

    def test_indefinite_two_by_two(self):
        # eigenvalues of [[1,2],[2,1]] are 3 and -1
        v = psd_check(HermitianMatrix([[1.0, 2.0], [2.0, 1.0]]), 1e-9)
        assert not v.is_psd
        assert v.min_eig == pytest.approx(-1.0, abs=1e-12)

    def test_gram_construction_is_psd(self, rng):
        b = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
        v = psd_check(HermitianMatrix(b @ b.conj().T), 1e-9)
        assert v.is_psd

    def test_verdict_matches_its_own_rule(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 8))
            a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            m = HermitianMatrix(a)
            v = psd_check(m, 1e-9)
            eigs = np.linalg.eigvalsh(m.entries)
            assert v.is_psd == (v.min_eig >= -1e-9 * max(1.0, eigs[-1]))

    def test_closed_under_sum(self, rng):
        for _ in range(100):
            n = int(rng.integers(2, 7))
            a = random_psd_entries(rng, n, int(rng.integers(1, n + 1)))
            b = random_psd_entries(rng, n, int(rng.integers(1, n + 1)))
            assert psd_check(HermitianMatrix(a), 1e-9).is_psd
            assert psd_check(HermitianMatrix(b), 1e-9).is_psd
            assert psd_check(HermitianMatrix(a + b), 1e-9).is_psd

    def test_rejects_bad_tol(self):
        with pytest.raises(InputError):
            psd_check(HermitianMatrix(np.eye(2)), 0.0)

    def test_rejects_nan_tol(self):
        with pytest.raises(InputError, match="tol must be positive"):
            psd_check(HermitianMatrix(np.eye(2)), float("nan"))


class TestMinEigenvalue:
    def test_diagonal(self):
        assert min_eigenvalue(HermitianMatrix(np.diag([3.0, -1.0]))) == pytest.approx(-1.0)
        assert min_eigenvalue(HermitianMatrix(np.eye(4))) == pytest.approx(1.0)

    def test_against_cholesky_bisection_oracle(self, rng):
        for _ in range(10):
            a = HermitianMatrix(
                rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
            )
            assert min_eigenvalue(a) == pytest.approx(
                cholesky_bisect_min_eig(a.entries), abs=1e-10
            )

    def test_unitary_invariance(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 9))
            a = HermitianMatrix(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
            u = random_unitary(rng, n)
            rotated = HermitianMatrix(u @ a.entries @ u.conj().T)
            assert min_eigenvalue(rotated) == pytest.approx(min_eigenvalue(a), abs=1e-10)


class TestPsdFactor:
    def test_zero_matrix(self):
        rows, rank = psd_factor(HermitianMatrix(np.zeros((3, 3))), 1e-9)
        assert rank == 0
        assert rows.shape == (3, 0)

    def test_rank_one_outer_product(self):
        v = np.array([0.0, 0.3, 0.5], dtype=complex)
        rows, rank = psd_factor(HermitianMatrix(np.outer(v, v.conj())), 1e-9)
        assert rank == 1
        gram = rows @ rows.conj().T
        assert np.max(np.abs(gram - np.outer(v, v.conj()))) < 1e-12
        # phase convention: largest-modulus entry real positive
        assert rows[2, 0].real > 0 and abs(rows[2, 0].imag) < 1e-14

    def test_diagonal(self):
        rows, rank = psd_factor(HermitianMatrix(np.diag([2.0, 1.0])), 1e-9)
        assert rank == 2
        assert np.allclose(rows, [[np.sqrt(2), 0.0], [0.0, 1.0]], atol=1e-12)

    def test_reconstruction_error_bound(self, rng):
        tol = 1e-9
        for _ in range(100):
            n = int(rng.integers(1, 13))
            a = HermitianMatrix(random_psd_entries(rng, n, int(rng.integers(1, n + 1))))
            rows, rank = psd_factor(a, tol)
            err = np.max(np.abs(rows @ rows.conj().T - a.entries)) if rank else np.max(np.abs(a.entries))
            max_eig = float(np.linalg.eigvalsh(a.entries)[-1])
            assert err <= 10 * tol * max(max_eig, 1e-30)

    def test_deterministic_rows(self, rng):
        a = HermitianMatrix(random_psd_entries(rng, 6, 3))
        first = psd_factor(a, 1e-9)
        second = psd_factor(a, 1e-9)
        assert np.array_equal(first.rows, second.rows)

    def test_not_psd_raises_with_witness(self):
        with pytest.raises(NotPsdError) as exc:
            psd_factor(HermitianMatrix([[1.0, 2.0], [2.0, 1.0]]), 1e-9)
        assert exc.value.min_eig == pytest.approx(-1.0, abs=1e-12)


class TestSubspace:
    def test_rejects_non_orthonormal(self):
        with pytest.raises(InputError):
            Subspace(np.array([[1.0], [1.0]]))

    def test_repr_names_the_dimensions(self):
        assert repr(Subspace(np.eye(3)[:, :1])) == "Subspace(ambient_dim=3, dim=1)"

    def test_projection(self, rng):
        q = random_unitary(rng, 5)[:, :2]
        s = Subspace(q)
        v = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        p = s.project(v)
        assert np.allclose(s.project(p), p, atol=1e-12)
        assert abs(np.vdot(v - p, p)) < 1e-12


class TestHyponormalClosure:
    def test_normal_operator_reducing_subspace(self, rng):
        # for normal T, ||T* f|| = ||T f|| always, and a reducing subspace
        # keeps T f inside
        for _ in range(20):
            n = int(rng.integers(2, 9))
            u = random_unitary(rng, n)
            lam = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            t = u @ np.diag(lam) @ u.conj().T
            k = int(rng.integers(1, n))
            sub = Subspace(u[:, :k])
            f = u[:, :k] @ (rng.standard_normal(k) + 1j * rng.standard_normal(k))
            check = verify_hyponormal_closure(t, sub, f, 1e-9)
            assert check.norms_equal and check.image_in_subspace

    def test_zero_operator(self, rng):
        sub = Subspace(np.eye(3)[:, :2])
        check = verify_hyponormal_closure(np.zeros((3, 3)), sub, np.array([1.0, 1.0, 0.0]), 1e-9)
        assert check == (True, True)

    def test_unitary_on_full_space(self, rng):
        u = random_unitary(rng, 4)
        sub = Subspace(np.eye(4))
        f = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        check = verify_hyponormal_closure(u, sub, f, 1e-9)
        assert check == (True, True)

    def test_rejects_nan_tol(self):
        sub = Subspace(np.eye(2))
        with pytest.raises(InputError, match="tol must be positive"):
            verify_hyponormal_closure(np.eye(2), sub, np.ones(2), float("nan"))

    def test_vector_outside_subspace_rejected(self):
        sub = Subspace(np.eye(3)[:, :1])
        with pytest.raises(PreconditionError):
            verify_hyponormal_closure(np.eye(3), sub, np.array([0.0, 1.0, 0.0]), 1e-9)

    def test_never_norms_equal_without_closure_when_hyponormal(self, rng):
        # random co-invariant subspaces with hyponormal (here: normal)
        # compressions never produce (True, False)
        for _ in range(50):
            n = int(rng.integers(2, 7))
            u = random_unitary(rng, n)
            lam = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            t = u @ np.diag(lam) @ u.conj().T
            k = int(rng.integers(1, n + 1))
            sub = Subspace(u[:, :k])
            f = u[:, :k] @ (rng.standard_normal(k) + 1j * rng.standard_normal(k))
            check = verify_hyponormal_closure(t, sub, f, 1e-9)
            assert not (check.norms_equal and not check.image_in_subspace)


def search_components(k, a, b):
    """Class numbers by depth-first search from each unseen index in turn."""
    joined = [set() for _ in range(k)]
    for i, j in zip(a.tolist(), b.tolist()):
        joined[i].add(j)
        joined[j].add(i)
    comp = [-1] * k
    count = 0
    for start in range(k):
        if comp[start] < 0:
            comp[start], stack = count, [start]
            while stack:
                for j in joined[stack.pop()]:
                    if comp[j] < 0:
                        comp[j] = count
                        stack.append(j)
            count += 1
    return comp


@seeded_by(200)
def test_connected_components_match_a_search(seed):
    # from no pairs to more pairs than indices, self-pairs and repeats included
    rng = np.random.default_rng(seed)
    k = int(rng.integers(1, 40))
    a, b = rng.integers(0, k, size=(2, int(rng.integers(0, 2 * k))))
    assert connected_components(k, a, b).tolist() == search_components(k, a, b)
