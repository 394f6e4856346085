"""The shift-table Fock engine against the dict-path code it replaces.

Each reference below is the dict-based computation written out: the
window's basis enumerated with itertools, its weights from the exact
monomial norms and its positions from a dict, the compressed matrix
assembled from k^2 inner products of Polynomial products, the kernel vector
built monomial by monomial, and the tail balance through
truncated_kernel_fn, mult_adjoint_apply and norm_sq, the dict arithmetic of
fock_reference. Random cases are drawn
by hypothesis when it is installed and from fixed seeds otherwise.
"""

import ast
import itertools
import math
import sys
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from conftest import SRC, random_ball_points, seeded_by, sites
from fock_reference import (
    QQi,
    Polynomial,
    inner_product,
    monomial_norm_sq,
    mult_adjoint_apply,
    norm_sq,
    pairing,
    reference,
    truncated_kernel_fn,
)

from rkhslab import fock
from rkhslab.errors import DomainError, InputError, WindowOverflowError
from rkhslab.fock import (
    FockSubspace,
    TruncatedSpace,
    arveson_example,
    compression_defect,
    defect_scale,
    pairing_power_norms,
    powers_span,
    powers_that_fit,
    span_of_polynomials,
    tail_balance,
    vanishing_subspace,
)
from rkhslab.fock import _blocks, _gauged, _normalized, _rank, _window_pairs
from rkhslab.kernels import PointSet
from rkhslab.linalg import HermitianMatrix, Subspace, connected_components, min_eigenvalue

seeded = seeded_by(25)


# the tail-balance input whose tail bound (5.6e-25) lies below rounding
FAULT_Z = [0.5 + 0.1j, 0.3 - 0.2j]
FAULT_DEGREE = 60


def graded_basis(dim: int, degree: int) -> tuple:
    """Exponent tuples by total degree, each degree in tuple order (stars and bars)."""
    out = []
    for total in range(degree + 1):
        stars = []
        for cuts in itertools.combinations(range(total + dim - 1), dim - 1):
            bounds = (-1, *cuts, total + dim - 1)
            stars.append(tuple(b - a - 1 for a, b in zip(bounds, bounds[1:])))
        out.extend(sorted(stars))
    return tuple(out)


def monomials(space: TruncatedSpace) -> list:
    return [tuple(a) for a in space.exponents.tolist()]


def dict_defect(phi: Polynomial, subspace: FockSubspace) -> float:
    cols = [reference(c) for c in subspace.polynomials()]
    products = [phi * c for c in cols]
    k = len(cols)
    t = np.empty((k, k), dtype=np.complex128)
    for l in range(k):
        for i in range(k):
            t[i, l] = complex(inner_product(products[l], cols[i]))
    return min_eigenvalue(HermitianMatrix(t.conj().T @ t - t @ t.conj().T))


def dict_kernel_vector(space: TruncatedSpace, z) -> np.ndarray:
    zc = np.conjugate(np.asarray(z, dtype=np.complex128))
    sqrt_w = np.sqrt([float(monomial_norm_sq(a)) for a in monomials(space)])
    u = np.empty(len(space), dtype=np.complex128)
    for i, alpha in enumerate(monomials(space)):
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


def two_degrees(rng, dim: int, draw) -> dict:
    """A term of degree 1 and one of degree 2, each coefficient draw()."""
    return {tuple(int(e) for e in rng.multinomial(n, [1 / dim] * dim)): draw() for n in (1, 2)}


def non_homogeneous_poly(rng, dim: int) -> Polynomial:
    """random_poly with two_degrees added: complex, of two degrees at least."""
    extra = two_degrees(rng, dim, lambda: complex(*rng.standard_normal(2)))
    return random_poly(rng, dim, 2, 3) + Polynomial(dim, extra)


def assert_refused(kind: type, text: str, call, *args) -> None:
    """call(*args) raises exactly kind, not a subclass of it, with exactly this text."""
    with pytest.raises(kind) as refusal:
        call(*args)
    assert type(refusal.value) is kind and str(refusal.value) == text


def random_z(rng, dim: int, lo: float, hi: float) -> np.ndarray:
    z = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return z / np.linalg.norm(z) * math.sqrt(rng.uniform(lo, hi))


WINDOWS = {1: 9, 2: 6, 3: 4}


def assert_defect_matches(phi: Polynomial, subspace: FockSubspace) -> None:
    scale = max(1.0, defect_scale(phi))
    assert abs(compression_defect(phi, subspace) - dict_defect(phi, subspace)) <= 1e-12 * scale


# (2, 61) and (2, 70) hold multinomials |alpha|!/alpha! past 2^53, (2, 70) past 2^63 too
BUILT_WINDOWS = [(1, 0), (1, 40), (2, 0), (2, 12), (3, 8), (4, 6), (5, 5), (6, 4)]
BUILT_WINDOWS += [(2, 61), (2, 70), (3, 30)]


class TestWindowConstruction:
    """The array-built window against the enumeration, the exact weights and
    the position dict it replaces."""

    @pytest.mark.parametrize("dim, degree", BUILT_WINDOWS)
    def test_exponents_in_graded_lex_order(self, dim, degree):
        space = TruncatedSpace(dim, degree)
        want = graded_basis(dim, degree)
        assert monomials(space) == list(want) and len(space) == space.size_at_most(degree)
        assert space.exponents.dtype == np.int64
        assert np.array_equal(space.exponents, np.array(want, dtype=np.int64))

    @pytest.mark.parametrize("dim, degree", BUILT_WINDOWS)
    def test_weights_are_the_rounded_exact_norms(self, dim, degree):
        space = TruncatedSpace(dim, degree)
        want = np.sqrt([float(monomial_norm_sq(a)) for a in monomials(space)])
        assert np.array_equal(space._sqrt_norms, want)

    @pytest.mark.parametrize("dim, degree", BUILT_WINDOWS)
    def test_every_position_is_the_dict_lookup(self, dim, degree):
        space = TruncatedSpace(dim, degree)
        pos = {a: i for i, a in enumerate(graded_basis(dim, degree))}
        assert np.array_equal(space.index(space.exponents), np.arange(len(space)))
        rng = np.random.default_rng([dim, degree])
        picked = rng.choice(len(space), size=min(len(space), 6), replace=False)
        basis = monomials(space)
        gammas = graded_basis(dim, 2)[1:] + tuple(basis[i] for i in picked)
        for gamma in gammas:
            src, dst, _ = space.shift(gamma)
            targets = [tuple(a + g for a, g in zip(alpha, gamma)) for alpha in basis[src]]
            assert dst.tolist() == [pos[t] for t in targets]

    @pytest.mark.parametrize("dim, degree", [(2, 301), (3, 150)])
    def test_weights_past_2_to_the_53_are_the_rounded_exact_norms(self, dim, degree):
        # rows whose M = |alpha|!/alpha! reaches 2^53 read their binomials from the
        # streamed Pascal triangle; sampled rows against math.comb, bit for bit
        space = TruncatedSpace(dim, degree)
        rng = np.random.default_rng([dim, degree])
        picked = rng.choice(len(space), size=400, replace=False)
        big = 0
        for i in picked.tolist():
            alpha = space.exponents[i].tolist()
            s = [sum(alpha[j:]) for j in range(dim)]
            m = math.prod(math.comb(s[j], alpha[j]) for j in range(dim - 1))
            big += m >= 2**53
            assert space._sqrt_norms[i] == math.sqrt(1 / m)
        assert big >= 300

    @pytest.mark.parametrize("dim, degree, multiple", [(3, 120, 4.2), (4, 40, 2.45), (2, 500, 6.0)])
    def test_the_build_peaks_at_a_few_times_the_exponent_table(self, dim, degree, multiple):
        # the class docstring states 4.0, 2.3 and 5.8 times: the suffix sums turn into the
        # exponents in place, so the two are not held at once (5.4 and 3.6 when they were),
        # the least Pascal row of each exponent row stays an int64 array (7.7 at (2, 500)
        # as a list of Python ints), and the weights are formed in the array of M (4.4,
        # 2.6 and 6.3 with two more float arrays)
        tracemalloc.start()
        try:
            space = TruncatedSpace(dim, degree)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= multiple * space.exponents.nbytes

    @pytest.mark.parametrize("dim, degree", [(2, 1028), (3, 651), (2, 1100)])
    def test_weights_below_the_normal_range_are_refused(self, dim, degree):
        # (2, 1028) is the first 2-variable window with a multinomial past 2^1022
        assert math.comb(1027, 513) <= 2**1022 < math.comb(1028, 514)
        with pytest.raises(InputError, match="below the normal float range"):
            TruncatedSpace(dim, degree)

    @pytest.mark.parametrize("dim", [2, 3, 4, 5, 6])
    def test_the_range_test_refuses_from_the_first_degree_past_2_to_the_1022(self, dim):
        # the oracle: M at the most even alpha, rem parts q + 1 and the rest q, as a
        # product of binomials; it is the largest M of the window
        def largest_multinomial(degree):
            q, rem = divmod(degree, dim)
            parts, m, rest = [q + 1] * rem + [q] * (dim - rem), 1, degree
            for part in parts[:-1]:
                m, rest = m * math.comb(rest, part), rest - part
            return m

        first = next(n for n in itertools.count() if largest_multinomial(n) > 2**1022)
        assert first == {2: 1028, 3: 651, 4: 518, 5: 448, 6: 404}[dim]
        with pytest.raises(InputError, match="below the normal float range") as refused:
            TruncatedSpace(dim, first)
        assert refused.type is InputError
        if dim == 2:  # 528,906 monomials, the smallest norm still normal
            assert min(TruncatedSpace(dim, first - 1)._sqrt_norms) ** 2 >= sys.float_info.min
        else:  # past the range test, and then past the array budget
            with pytest.raises(WindowOverflowError) as refused:
                TruncatedSpace(dim, first - 1)
            assert refused.type is WindowOverflowError

    @pytest.mark.parametrize("dim, degree, error", [(2, 2**63, InputError), (10**9, 7, WindowOverflowError)])
    def test_the_range_of_a_huge_window_is_decided_at_once(self, dim, degree, error):
        # no factorial of the degree, and no loop over the variables
        start = time.perf_counter()
        with pytest.raises(error) as refused:
            TruncatedSpace(dim, degree)
        assert refused.type is error and time.perf_counter() - start < 0.1

    # Sizes are computed, never allocated: each test sets the budget just at or
    # just below a small window's array, so a missing check builds nothing large.
    def test_a_window_past_the_array_budget_is_refused(self, monkeypatch):
        monkeypatch.setattr(fock, "_ARRAY_BYTES", math.comb(10 + 3, 3) * 3 * 8)
        assert len(TruncatedSpace(3, 10)) == math.comb(10 + 3, 3)  # its exponent table fits
        with pytest.raises(WindowOverflowError, match="degree-11 window in 3 variables"):
            TruncatedSpace(3, 11)

    def test_a_full_window_matrix_past_the_array_budget_is_refused(self, monkeypatch):
        # S as one complex k x k block: the worst case of its blocks
        space = TruncatedSpace(2, 7)  # 36 monomials
        monkeypatch.setattr(fock, "_ARRAY_BYTES", 36 * 36 * 16 - 1)
        with pytest.raises(WindowOverflowError, match="36 x 36 self-commutator"):
            compression_defect(Polynomial.monomial(2, (1, 0)), space)

    def test_pairs_of_many_terms_past_the_array_budget_are_refused(self, monkeypatch):
        # 9 terms act on the window, so each index has at most 81 pairs of terms; a
        # term past the window acts on nothing and is not counted
        space = TruncatedSpace(2, 7)  # 36 monomials
        phi = Polynomial(2, {g: 0.1 for g in graded_basis(2, 3)[1:]})
        phi += Polynomial.monomial(2, (8, 0), 0.5)
        monkeypatch.setattr(fock, "_ARRAY_BYTES", 81 * 36 * 16)
        assert compression_defect(phi, space) < 0
        monkeypatch.setattr(fock, "_ARRAY_BYTES", 81 * 36 * 16 - 1)
        with pytest.raises(WindowOverflowError, match="pairs of 9 terms on 36 indices"):
            compression_defect(phi, space)

    def test_the_ideal_past_the_array_budget_is_refused(self, monkeypatch):
        # its full SVD forms a k x k unitary, 854 kB at k = 231, while the window's exponent
        # table and the kernel vector take 3.7 kB each
        spaces = vanishing_subspace(PointSet(2, [[0.1, 0]]), 20)
        monkeypatch.setattr(fock, "_ARRAY_BYTES", 231 * 231 * 16)
        assert spaces.ideal.dim == 230
        monkeypatch.setattr(fock, "_ARRAY_BYTES", 2**16)
        spaces = vanishing_subspace(PointSet(2, [[0.1, 0]]), 20)
        with pytest.raises(WindowOverflowError, match="^the 231 x 231 singular vectors would take 0 MiB"):
            spaces.ideal

    def test_the_window_that_ran_out_of_memory_is_past_the_budget(self):
        # fock defect --span full --degree 500 in 4 variables: C(504, 4) exponent rows
        # of 4 int64s, 81 GB, which numpy failed to allocate
        assert math.comb(500 + 4, 4) * 4 * 8 > 300 * fock._ARRAY_BYTES


def dense_self_commutator(space: TruncatedSpace, phi: Polynomial) -> np.ndarray:
    """S = t* t - t t* by two dense products, t = M_phi on the window."""
    t = space.multiply(phi, np.eye(len(space)))
    return t.conj().T @ t - t @ t.conj().T


def summed(k: int, i, j, term) -> np.ndarray:
    s = np.zeros((k, k), term.dtype)
    np.add.at(s, (i, j), term)
    return s


class TestWindowPairs:
    """The whole window's self-commutator summed from the shift tables against the two
    dense products of the window's matrix, which multiply forms with the identity."""

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @seeded
    def test_sum_to_the_dense_self_commutator(self, dim, seed):
        # 1-12 terms of degree up to 2 past the window, so more than d + 1 of them
        # have dependent exponents, with real or complex coefficients; at times only
        # the constant, which compression_defect passes on as the zero polynomial.
        # S[i, j] and S[j, i] sum their terms in one order, so a real S is symmetric
        rng = np.random.default_rng(seed)
        space = TruncatedSpace(dim, {1: 40, 2: 9, 3: 5}[dim])
        exps = graded_basis(dim, space.degree + 2)
        picked = rng.choice(len(exps), size=int(rng.integers(1, 13)), replace=False)
        if rng.random() < 0.125:
            picked = [0]
        real = rng.random() < 0.5
        draw = (lambda: rng.standard_normal()) if real else (lambda: complex(*rng.standard_normal(2)))
        phi = Polynomial(dim, {exps[i]: draw() for i in picked})
        psi = _normalized(phi, phi.degree)[0]  # not cut: the terms past the window stay
        i, j, term = _window_pairs(space, psi)
        assert term.dtype == (np.float64 if real or psi.is_zero else np.complex128)
        got, want = summed(len(space), i, j, term), dense_self_commutator(space, psi)
        bound = 4 * len(space) * np.finfo(float).eps * defect_scale(psi)
        assert np.max(np.abs(got - want)) <= bound
        assert np.iscomplexobj(got) or np.array_equal(got, got.T)


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
        assert_defect_matches(phi, powers_span(TruncatedSpace(dim, degree), phi, count))

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @seeded
    def test_kernel_span(self, dim, seed):
        rng = np.random.default_rng(seed)
        degree = WINDOWS[dim]
        pts = PointSet(dim, random_ball_points(rng, int(rng.integers(1, 6)), dim))
        phi = random_poly(rng, dim, 2, 3)
        assert_defect_matches(phi, vanishing_subspace(pts, degree).complement)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @seeded
    def test_whole_window_is_the_identity_basis(self, dim, seed):
        rng = np.random.default_rng(seed)
        space = TruncatedSpace(dim, WINDOWS[dim])
        phi = random_poly(rng, dim, 2, 3)
        full = FockSubspace(space, np.eye(len(space), dtype=complex))
        assert compression_defect(phi, space) == compression_defect(phi, full)

    def test_multiplier_beyond_the_window_drops_out(self):
        space = TruncatedSpace(2, 3)
        full = FockSubspace(space, np.eye(len(space)))
        assert compression_defect(Polynomial.monomial(2, (2, 2), 0.5j), full) == 0.0


def block_poly(rng, dim: int, kind: str) -> Polynomial:
    """1-4 terms of degree 1-3: of one degree, of several (a constant among them at
    times), or z_1, ..., z_d and z_1^2, whose differences span the whole lattice."""
    if kind == "spanning":
        exps = [tuple(np.eye(dim, dtype=int)[i]) for i in range(dim)] + [(2,) + (0,) * (dim - 1)]
    else:
        degree = int(rng.integers(1, 4))
        exps = []
        for _ in range(int(rng.integers(1, 5))):
            n = degree if kind == "homogeneous" else int(rng.integers(0, 4))
            exps.append(tuple(int(e) for e in rng.multinomial(n, [1 / dim] * dim)))
    return Polynomial(dim, {a: complex(*rng.standard_normal(2)) for a in exps})


BLOCK_WINDOWS = {1: 80, 2: 11, 3: 6}
KINDS = ["homogeneous", "mixed", "spanning"]


def dense_commutator(phi: Polynomial, space: TruncatedSpace) -> tuple:
    """S = t* t - t t* for the full window by two dense products, t the window's matrix
    of phi as compression_defect normalizes it, the class number of each index (joined
    by the pairs of _window_pairs) and the exponent e of the normalization."""
    psi, e, _ = _normalized(phi, phi.degree)  # not cut
    i, j, _ = _window_pairs(space, psi)
    return dense_self_commutator(space, psi), connected_components(len(space), i, j), e


def brute_force_pairs(t: np.ndarray) -> tuple:
    """(i, j, term) of S = t* t - t t*: each ordered pair of nonzeros of t in a common row,
    then each in a common column, found one row and one column at a time."""
    parts = []
    for r in range(len(t)):
        c = np.flatnonzero(t[r])
        a, b = np.repeat(c, len(c)), np.tile(c, len(c))
        parts.append((a, b, t[r, a].conj() * t[r, b]))
    for c in range(len(t)):
        r = np.flatnonzero(t[:, c])
        a, b = np.repeat(r, len(r)), np.tile(r, len(r))
        parts.append((a, b, -(t[a, c] * t[b, c].conj())))
    return tuple(np.concatenate(x) for x in zip(*parts))


class TestSelfCommutatorBlocks:
    """The full-window self-commutator split along the zero pattern of t."""

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("dim", [1, 2, 3])
    @seeded
    def test_entries_between_classes_are_zero(self, kind, dim, seed):
        phi = block_poly(np.random.default_rng(seed), dim, kind)
        s, comp, _ = dense_commutator(phi, TruncatedSpace(dim, BLOCK_WINDOWS[dim]))
        assert np.all(s[comp[:, None] != comp[None, :]] == 0.0)

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("dim", [1, 2, 3])
    @seeded
    def test_defect_is_the_dense_least_eigenvalue(self, kind, dim, seed):
        # Weyl: both S are the same matrix summed in another order
        phi = block_poly(np.random.default_rng(seed), dim, kind)
        space = TruncatedSpace(dim, BLOCK_WINDOWS[dim])
        s, _, e = dense_commutator(phi, space)
        want = math.ldexp(np.linalg.eigvalsh(s)[0], 2 * e)
        bound = 4 * len(space) * np.finfo(float).eps * defect_scale(phi)
        assert abs(compression_defect(phi, space) - want) <= bound

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @seeded
    def test_homogeneous_classes_lie_in_degree_slices(self, dim, seed):
        phi = block_poly(np.random.default_rng(seed), dim, "homogeneous")
        space = TruncatedSpace(dim, BLOCK_WINDOWS[dim])
        _, comp, _ = dense_commutator(phi, space)
        degree = space.exponents.sum(axis=1)
        for n in np.unique(comp):
            assert len(set(degree[comp == n].tolist())) == 1
        # so the defect is solved by blocks
        assert 2 * np.bincount(comp).max() <= len(space)

    @seeded
    def test_stacks_hold_the_spectrum_of_any_sparse_matrix(self, seed):
        # any zero pattern, not only a window's: rows and columns of every count per
        # block, and a dense t, which is one class
        rng = np.random.default_rng(seed)
        k = int(rng.integers(65, 128))
        t = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
        t *= rng.random((k, k)) < rng.choice([0.004, 0.008, 0.015, 1.0])
        s = t.conj().T @ t - t @ t.conj().T
        stacks = _blocks(k, *brute_force_pairs(t))
        got = np.sort(np.concatenate([np.linalg.eigvalsh(h).ravel() for h in stacks]))
        assert np.allclose(got, np.linalg.eigvalsh(s), rtol=0, atol=1e-12 * np.abs(s).max())

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @seeded
    def test_split_window_is_the_identity_basis(self, dim, seed):
        phi = block_poly(np.random.default_rng(seed), dim, "homogeneous")
        space = TruncatedSpace(dim, BLOCK_WINDOWS[dim])
        full = FockSubspace(space, np.eye(len(space), dtype=complex))
        assert compression_defect(phi, space) == compression_defect(phi, full)


GAUGE_WINDOWS = [(1, 40), (1, 80), (2, 9), (2, 11), (3, 5), (3, 6)]


def solved_stacks(phi, space: TruncatedSpace) -> tuple:
    """compression_defect on the whole window, and the stacks of S it solved."""
    seen = []

    def recorded(*args):
        seen.extend(stacks := _blocks(*args))
        return stacks

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fock, "_blocks", recorded)
        defect = compression_defect(phi, space)
    return defect, seen


def assert_dense_complex_defect(phi, space: TruncatedSpace, defect: float) -> None:
    """defect within 4 k eps defect_scale(phi) of the complex eigvalsh of S = t* t - t t*,
    t the window's matrix of phi itself, phases and all."""
    psi, e, _ = _normalized(phi, phi.degree)  # not cut
    want = math.ldexp(np.linalg.eigvalsh(dense_self_commutator(space, psi))[0], 2 * e)
    assert abs(defect - want) <= 4 * len(space) * np.finfo(float).eps * defect_scale(phi)


class TestPhaseGauge:
    """The whole window solved for sum |c_g| z^g when the rows (1, g) are independent."""

    @pytest.mark.parametrize("dim, degree", GAUGE_WINDOWS)
    @seeded
    def test_agrees_with_the_dense_complex_solve(self, dim, degree, seed):
        # 1 to d + 1 terms of degree 1-3 with random phases, independent or not
        rng = np.random.default_rng(seed)
        exps = [tuple(a) for a in TruncatedSpace(dim, 3).exponents.tolist() if any(a)]
        picked = [exps[i] for i in rng.choice(len(exps), size=int(rng.integers(1, dim + 2)), replace=False)]
        phi = Polynomial(dim, {g: complex(*rng.standard_normal(2)) for g in picked})
        space = TruncatedSpace(dim, degree)
        defect, stacks = solved_stacks(phi, space)
        assert_dense_complex_defect(phi, space, defect)
        independent = np.linalg.matrix_rank(np.array([(1, *g) for g in picked])) == len(picked)
        assert [np.isrealobj(h) for h in stacks] == [independent] * len(stacks)

    @pytest.mark.parametrize("degree", [9, 11])
    @pytest.mark.parametrize("exps", [((1, 0), (0, 1), (1, 1), (2, 0)), ((2, 0), (1, 1), (0, 2))])
    def test_dependent_exponents_keep_complex_arithmetic(self, exps, degree):
        # four rows (1, g) in Z^3; and (1, 2, 0) + (1, 0, 2) = 2 (1, 1, 1)
        rng = np.random.default_rng(degree)
        phi = Polynomial(2, {g: complex(*rng.standard_normal(2)) for g in exps})
        space = TruncatedSpace(2, degree)
        defect, stacks = solved_stacks(phi, space)
        assert stacks and all(h.dtype == np.complex128 for h in stacks)
        assert_dense_complex_defect(phi, space, defect)

    @pytest.mark.parametrize("degree", [9, 11])
    def test_real_multiplier_with_dependent_exponents_is_real(self, degree):
        phi = Polynomial(2, {(2, 0): 0.7, (1, 1): -0.4, (0, 2): 0.3, (1, 0): -0.2})
        space = TruncatedSpace(2, degree)
        defect, stacks = solved_stacks(phi, space)
        assert stacks and all(h.dtype == np.float64 for h in stacks)
        assert_dense_complex_defect(phi, space, defect)

    def test_terms_past_the_window_are_left_out_of_the_rank_test(self):
        # the rows (1, 1), (1, 2), (1, 10^20) are dependent, but z^(10^20) has an empty
        # table on the window and adds nothing to its matrix, so it is dropped first
        phi = fock.Polynomial(1, {(1,): 0.6 + 0.3j, (2,): -0.2j, (10**20,): 0.5 + 0.5j})
        window_phi = fock.truncated(phi, 80)
        assert _gauged(window_phi).coeffs == {g: abs(c) for g, c in window_phi.coeffs.items()}
        assert _gauged(phi) is phi and fock.truncated(phi, 10**20) is phi
        space = TruncatedSpace(1, 80)
        defect, stacks = solved_stacks(phi, space)
        assert stacks and all(h.dtype == np.float64 for h in stacks)
        assert_dense_complex_defect(phi, space, defect)


def fraction_rank(rows) -> int:
    """Rank by Gauss-Jordan elimination over Fractions."""
    m = [[Fraction(x) for x in r] for r in rows]
    rank = 0
    for col in range(len(m[0]) if m else 0):
        pivot = next((i for i in range(rank, len(m)) if m[i][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for i in range(len(m)):
            if i != rank and m[i][col]:
                f = m[i][col] / m[rank][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


class TestExactRank:
    def test_small_cases(self):
        assert _rank([]) == 0
        assert _rank([(0, 0, 0)]) == 0
        assert _rank([(1, 2, 0), (1, 1, 1), (1, 0, 2)]) == 2
        assert _rank([(1, 1, 0), (1, 2, 0)]) == 2  # the last column has no pivot
        assert _rank([(1, 1, 0), (1, 0, 1), (1, 1, 1), (1, 2, 2)]) == 3

    def test_exponents_past_two_to_the_53(self):
        big = 2**60
        rows = [(1, big, big + 1), (1, big + 1, big + 2)]
        assert np.linalg.matrix_rank(np.array(rows, dtype=float)) == 1  # floats merge the rows
        assert _rank(rows) == 2
        assert _rank(rows + [(1, big + 2, big + 3)]) == 2  # twice the second less the first
        assert _rank(rows + [(1, big + 2, big + 4)]) == 3

    @seeded
    def test_agrees_with_fraction_elimination(self, seed):
        rng = np.random.default_rng(seed)
        r, c = (int(x) for x in rng.integers(1, 7, 2))
        a = rng.integers(-3, 4, (r, c)) * (rng.random((r, c)) < rng.random())
        if r > 2:  # a combination of two rows
            a[-1] = 2 * a[0] - 3 * a[1]
        rows = [[int(x) * 2 ** int(rng.choice([0, 70])) for x in row] for row in a]
        assert _rank(rows) == fraction_rank(rows)


class TestDefectScale:
    """The bound (sum |c_gamma|)^2 that fock defect scales its threshold by."""

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_every_shift_weight_in_zero_one(self, dim):
        space = TruncatedSpace(dim, WINDOWS[dim])
        for gamma in monomials(space):
            weight = space.shift(gamma)[2]
            assert np.all(weight > 0) and np.all(weight <= 1)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @seeded
    def test_defect_within_scale(self, dim, seed):
        rng = np.random.default_rng(seed)
        degree = WINDOWS[dim]
        space = TruncatedSpace(dim, degree)
        phi = random_poly(rng, dim, 2, 3)
        pts = PointSet(dim, random_ball_points(rng, int(rng.integers(1, 6)), dim))
        count = degree // max(phi.degree, 1)
        spans = {
            "full": FockSubspace(space, np.eye(len(space))),
            "powers": powers_span(space, phi, count),
            "kernel": vanishing_subspace(pts, degree).complement,
        }
        # c z^gamma in one variable attains the bound, so allow its rounding
        for name, span in spans.items():
            assert -compression_defect(phi, span) <= defect_scale(phi) * (1 + 1e-12), name


class TestPowersSpan:
    """powers_span against the dict powers phi**k, orthonormalized."""

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @seeded
    def test_spans_the_dict_powers(self, dim, seed):
        rng = np.random.default_rng(seed)
        degree = WINDOWS[dim]
        space = TruncatedSpace(dim, degree)
        phi = random_poly(rng, dim, 2, 3)
        count = degree // max(phi.degree, 1)
        powers = [phi**k for k in range(count + 1)]
        span = powers_span(space, phi, count)
        assert span.dim == span_of_polynomials(space, powers).dim
        for p in powers:
            v = space.iso_vector(p)
            assert np.linalg.norm(v - span.project(v)) <= 1e-12 * np.linalg.norm(v)

    def test_overflow_refused_before_any_product(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("multiplied before the window check")

        monkeypatch.setattr(TruncatedSpace, "multiply", refuse)
        phi = Polynomial(2, {(1, 1): 1, (1, 0): 0.5})
        with pytest.raises(WindowOverflowError):
            powers_span(TruncatedSpace(2, 6), phi, 4)
        assert powers_span(TruncatedSpace(2, 6), phi, 0).dim == 1

    @pytest.mark.parametrize("far", [{(0, 9): 2.0}, {(0, 9): 2.0, (10**20, 0): 1e300}])
    def test_terms_past_the_window_change_no_power(self, far):
        # z1 + 0.5 z2 is of degree 1, so its six powers fit degree 6; z2^9 and
        # z1^(10^20), whose exponent passes 2^63, act on nothing there
        space = TruncatedSpace(2, 6)
        phi = Polynomial(2, {(1, 0): 1.0, (0, 1): 0.5})
        with_far = Polynomial(2, {**phi.coeffs, **far})
        assert powers_that_fit(space, with_far) == powers_that_fit(space, phi) == 6
        for count in range(7):
            want, got = powers_span(space, phi, count), powers_span(space, with_far, count)
            assert np.array_equal(got.basis, want.basis), count
        assert powers_span(space, with_far, 6).dim == 7  # 1, psi, ..., psi^6
        with pytest.raises(WindowOverflowError, match="count 7: more powers than degree 6 holds"):
            powers_span(space, with_far, 7)

    def test_powers_are_counted_on_the_cut_multiplier_not_on_psi(self):
        # 5e-324 z^5 acts on degree 6 but rounds to 0 in psi = phi / 2, so psi is 0.5 z;
        # phi^2 is of degree 10, so only the first power fits
        space = TruncatedSpace(1, 6)
        phi = Polynomial(1, {(1,): 1.0, (5,): 5e-324})
        psi, e, n = _normalized(phi, space.degree)
        assert (psi.coeffs, e, n) == ({(1,): 0.5}, 1, 5)
        assert powers_that_fit(space, phi) == 1 and powers_span(space, phi, 1).dim == 2  # 1, psi
        with pytest.raises(WindowOverflowError, match="count 2: more powers than degree 6 holds"):
            powers_span(space, phi, 2)


def cuts(node) -> bool:
    return "truncated" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))


def test_a_multiplier_is_cut_to_its_window_once_per_layer():
    # fock cuts phi in _normalized, and the command line cuts --phi as it reads it
    assert sites(cuts) == {("fock.py", "_normalized"), ("cli.py", "_cmd_fock_defect")}
    tree = ast.parse((SRC / "cli.py").read_text())
    read = [n for n in ast.walk(tree) if isinstance(n, ast.Call) and cuts(n)]
    assert [ast.unparse(n.args[0]) for n in read] == ["_parse_poly_obj(_parse_json_arg(args.phi, '--phi'), '--phi')"]
    # and counts no powers: the one degree it reads is that of the window, args.degree
    degrees = {ast.unparse(n.value) for n in ast.walk(tree) if isinstance(n, ast.Attribute) and n.attr == "degree"}
    assert degrees == {"args"}


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
    def test_adjoint_is_the_conjugate_transpose(self, dim, seed):
        # M_phi* maps the window into itself, so the gather is its matrix exactly,
        # also for phi of several degrees
        rng = np.random.default_rng(seed)
        space = TruncatedSpace(dim, int(rng.integers(1, WINDOWS[dim] + 1)))
        phi = non_homogeneous_poly(rng, dim)
        eye = np.eye(len(space))
        assert np.array_equal(space.multiply(phi, eye, adjoint=True), space.multiply(phi, eye).conj().T)

    def test_adjoint_of_a_multiplier_of_several_degrees(self):
        # a cut adjoint moved the operator defect of this phi at degree 4 from
        # -0.09972085 to -0.09972080
        phi = Polynomial(2, {(1, 0): 0.6, (0, 2): 0.5j, (1, 1): 0.2})
        space, eye = TruncatedSpace(2, 4), np.eye(15)
        assert np.array_equal(space.multiply(phi, eye, adjoint=True), space.multiply(phi, eye).conj().T)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @seeded
    def test_mult_adjoint_apply_is_the_gather_cut_to_its_window(self, dim, seed):
        rng = np.random.default_rng(seed)
        window = int(rng.integers(1, WINDOWS[dim] + 1))
        space = TruncatedSpace(dim, window)
        phi = fock.Polynomial(dim, non_homogeneous_poly(rng, dim).coeffs)
        f = fock.Polynomial(dim, random_poly(rng, dim, window, 6).coeffs)
        gather = space.multiply(phi, space.iso_vector(f), adjoint=True)
        gather[space.size_at_most(window - phi.degree) :] = 0
        assert fock.mult_adjoint_apply(phi, f, window) == space.polynomial(gather)

    def test_mult_adjoint_apply_keeps_what_the_window_vouches_for(self):
        # M_phi* z^2 = z + 1 for phi = z + z^2, and the degree-2 window vouches for degree 0
        z, z2 = fock.Polynomial.monomial(1, (1,)), fock.Polynomial.monomial(1, (2,))
        assert fock.mult_adjoint_apply(z + z2, z2, 2) == fock.Polynomial.constant(1, 1)
        space = TruncatedSpace(1, 2)
        assert space.polynomial(space.multiply(z + z2, space.iso_vector(z2), adjoint=True)) == z + 1

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

    def test_exponent_of_another_dimension_is_refused(self):
        # (1,) would broadcast over both coordinates of the window's rows
        space = TruncatedSpace(2, 4)
        for gamma in ((1,), (1, 0, 0)):
            with pytest.raises(InputError, match="dimension mismatch"):
                space.shift(gamma)
        with pytest.raises(InputError, match="dimension mismatch"):
            compression_defect(Polynomial.monomial(3, (1, 0, 0)), space)

    def test_table_covers_exactly_the_fitting_monomials(self):
        space = TruncatedSpace(3, 5)
        src, dst, weight = space.shift((1, 0, 1))
        basis = monomials(space)
        alphas = basis[src]
        assert all(sum(a) <= 3 for a in alphas) and len(alphas) == space.size_at_most(3)
        assert [basis[j] for j in dst] == [(a[0] + 1, a[1], a[2] + 1) for a in alphas]
        norm_sq_of = [monomial_norm_sq(a) for a in basis]
        want = [math.sqrt(norm_sq_of[j] / norm_sq_of[i]) for i, j in enumerate(dst)]
        assert np.allclose(weight, want, rtol=1e-15, atol=0.0)

    def test_the_degree_cut_of_the_adjoint_lives_in_mult_adjoint_apply(self):
        # size_at_most(degree - m), m > 0, counts the monomials that gain m degrees in the
        # window: shift counts those z^gamma keeps there, and mult_adjoint_apply cuts
        # M_phi* f there, the one place the cut is made
        def degree_less(node):
            return (getattr(node.func, "attr", None) == "size_at_most"
                    and isinstance(node.args[0], ast.BinOp) and isinstance(node.args[0].op, ast.Sub)
                    and "degree" in ast.unparse(node.args[0].left))

        assert sites(degree_less) == {("fock.py", "shift"), ("fock.py", "mult_adjoint_apply")}

    def test_coordinates_of_another_dimension_or_length_are_refused(self):
        space = TruncatedSpace(2, 3)
        assert_refused(InputError, "dimension mismatch", space.iso_vector, fock.Polynomial.monomial(3, (1, 0, 0)))
        assert_refused(InputError, "coordinate vector must have length 10", space.polynomial, np.zeros(3))


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

    def test_a_point_with_no_coordinates_is_refused(self):
        assert_refused(InputError, "point must have at least one coordinate", tail_balance, [], 3)


class TestPairingPowerNorms:
    def test_the_origin_is_refused(self):
        assert_refused(InputError, "z must be nonzero; the tail vanishes at z = 0", pairing_power_norms, [0.0], 2, 3)

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


def gaussian_rational(rng, bound: Fraction, nonzero_im: bool = False) -> QQi:
    """A Gaussian rational with parts of size at most bound, on small denominators."""
    q = int(rng.integers(1, 8))
    re, im = (int(rng.integers(-q, q + 1)) for _ in range(2))
    if nonzero_im:
        im = int(rng.integers(1, q + 1)) * int(rng.choice([-1, 1]))
    return QQi(bound * Fraction(re, q), bound * Fraction(im, q))


def dual_numerators(f: Polynomial, space: TruncatedSpace) -> tuple:
    """The dual coordinates <f, z^alpha> = f_alpha ||z^alpha||^2 of f on the window, as
    object arrays of integer numerators over one common denominator."""
    duals = {alpha: c * monomial_norm_sq(alpha) for alpha, c in f.coeffs.items()}
    den = math.lcm(*(x.denominator for c in duals.values() for x in (c.re, c.im)))
    y_re, y_im = np.zeros(len(space), dtype=object), np.zeros(len(space), dtype=object)
    for alpha, c in duals.items():
        at = int(space.index(alpha)[0])
        y_re[at], y_im[at] = int(c.re * den), int(c.im * den)
    return y_re, y_im, den


class TestExactNorms:
    """TruncatedSpace.exact_norms_sq against the dict arithmetic, Fraction for Fraction."""

    @seeded
    def test_kernel_tails_at_gaussian_rational_points(self, seed):
        rng = np.random.default_rng(seed)
        dim, degree = int(rng.integers(1, 4)), int(rng.integers(1, 13))
        bound = Fraction(1, 2 * dim)  # each part of z at most 1/(2 dim), so ||z||^2 <= 1/(2 dim)
        z = [gaussian_rational(rng, bound, nonzero_im=True) for _ in range(dim)]
        coeffs = {}
        for _ in range(int(rng.integers(1, 4))):
            gamma = tuple(int(e) for e in rng.multinomial(int(rng.integers(0, 3)), [1 / dim] * dim))
            coeffs[gamma] = gaussian_rational(rng, Fraction(2))
        phi = Polynomial(dim, coeffs)
        f = truncated_kernel_fn(z, degree).poly - 1
        window = degree + max(phi.degree, 0)  # holds phi f whole
        space = TruncatedSpace(dim, window)
        terms = list(phi.coeffs.items())
        adjoint, forward = space.exact_norms_sq(terms, *dual_numerators(f, space))
        assert type(adjoint) is Fraction and adjoint == norm_sq(mult_adjoint_apply(phi, f, window))
        assert type(forward) is Fraction and forward == norm_sq(phi * f)

    @seeded
    def test_adjoint_of_a_multiplier_of_several_degrees_is_whole(self, seed):
        # f reaches the top degree of the window, where M_phi* f stays whole: the
        # reference, which cuts to degrees <= window - deg(phi), is given that much room
        rng = np.random.default_rng(seed)
        dim, window = int(rng.integers(1, 4)), int(rng.integers(2, 9))
        z = [gaussian_rational(rng, Fraction(1, 2 * dim), nonzero_im=True) for _ in range(dim)]
        phi = Polynomial(dim, two_degrees(rng, dim, lambda: gaussian_rational(rng, Fraction(2), nonzero_im=True)))
        f = truncated_kernel_fn(z, window).poly - 1
        space = TruncatedSpace(dim, window)
        adjoint, forward = space.exact_norms_sq(list(phi.coeffs.items()), *dual_numerators(f, space))
        assert adjoint == norm_sq(mult_adjoint_apply(phi, f, window + phi.degree))
        kept = Polynomial(dim, {a: c for a, c in (phi * f).coeffs.items() if sum(a) <= window})
        assert forward == norm_sq(kept)

    def test_adjoint_of_z_plus_z_squared_at_the_top_degree(self):
        # M_phi* z^2 = z + 1 for phi = z + z^2, of squared norm 2; M_phi z^2 leaves the window
        y = np.array([0, 0, 1], dtype=object)  # <z^2, z^alpha>: f = z^2
        terms = [((1,), 1), ((2,), 1)]
        assert TruncatedSpace(1, 2).exact_norms_sq(terms, y, np.zeros_like(y), 1) == (2, 0)

    @seeded
    def test_tail_balance_at_gaussian_rational_points(self, seed):
        rng = np.random.default_rng(seed)
        dim, degree = int(rng.integers(1, 4)), int(rng.integers(1, 13))
        z = [gaussian_rational(rng, Fraction(1, 2 * dim), nonzero_im=True) for _ in range(dim)]
        balance = tail_balance([fock.QQi(x.re, x.im) for x in z], degree)
        assert balance[:2] == dict_tail_norms(z, degree)
        assert balance.rounding_bound == 0.0

    def test_arveson_witness_is_exactly_one_sixth_below_one_quarter(self):
        w = arveson_example()
        assert type(w.forward_norm_sq) is Fraction and type(w.adjoint_norm_sq) is Fraction
        assert w.forward_norm_sq == Fraction(1, 6) < Fraction(1, 4) == w.adjoint_norm_sq

    def test_terms_with_a_zero_coefficient_do_not_count(self):
        # a zero term adds 0 to both images, whatever its degree, and none at all adds nothing
        space = TruncatedSpace(1, 3)
        y = np.array([0, 1, 0, 0], dtype=object)  # <z, z^alpha>: f = z
        zeros = np.zeros_like(y)
        want = space.exact_norms_sq([((1,), 1)], y, zeros, 1)
        assert space.exact_norms_sq([((1,), 1), ((3,), QQi(0))], y, zeros, 1) == want
        assert want == (Fraction(1), Fraction(1))
        assert space.exact_norms_sq([], y, zeros, 1) == (Fraction(0), Fraction(0))

    @pytest.mark.parametrize("dim, degree", [(1, 0), (1, 30), (2, 12), (3, 8), (2, 61)])
    def test_multinomials_are_the_exact_inverse_norms(self, dim, degree):
        space = TruncatedSpace(dim, degree)
        m = space.multinomials()
        assert all(type(x) is int for x in m)
        assert [Fraction(1, x) for x in m] == [monomial_norm_sq(a) for a in monomials(space)]


class TestPolynomialOnTheTables:
    """The library Polynomial's products and powers, inner_product and
    mult_adjoint_apply, each a short call onto the shift tables, against the
    dict arithmetic."""

    @staticmethod
    def assert_close(got: fock.Polynomial, want: Polynomial) -> None:
        scale = max([1.0] + [abs(complex(c)) for c in want.coeffs.values()])
        for alpha in set(got.coeffs) | set(want.coeffs):
            gap = abs(got.coeffs.get(alpha, 0j) - complex(want.coeffs.get(alpha, 0j)))
            assert gap <= 1e-12 * scale, alpha

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @seeded
    def test_agree_with_the_dict_arithmetic(self, dim, seed):
        rng = np.random.default_rng(seed)
        p, q = random_poly(rng, dim, 2, 3), random_poly(rng, dim, WINDOWS[dim], 6)
        lib_p, lib_q = fock.Polynomial(dim, p.coeffs), fock.Polynomial(dim, q.coeffs)
        self.assert_close(lib_p * lib_q, p * q)
        self.assert_close(2 * lib_p, 2 * p)
        self.assert_close(lib_p**3, p**3)
        self.assert_close(lib_p**0, p**0)
        window = max(q.degree, 0) + int(rng.integers(0, 3))
        want = mult_adjoint_apply(p, q, window)
        self.assert_close(fock.mult_adjoint_apply(lib_p, lib_q, window), want)
        want = complex(inner_product(p, q))
        assert abs(fock.inner_product(lib_p, lib_q) - want) <= 1e-12 * max(1.0, abs(want))

    def test_guards(self):
        z1, w1 = fock.Polynomial.monomial(2, (1, 0)), fock.Polynomial.monomial(1, (1,))
        with pytest.raises(WindowOverflowError, match="degree 3 does not fit the degree-2 window"):
            fock.mult_adjoint_apply(z1, fock.Polynomial.monomial(2, (2, 1)), 2)
        with pytest.raises(InputError, match="^degree: expected an integer >= 0, got -1$"):
            fock.mult_adjoint_apply(z1, z1, -1)
        for mismatched in (lambda: z1 * w1, lambda: fock.inner_product(z1, w1),
                           lambda: fock.mult_adjoint_apply(z1, w1, 2)):
            with pytest.raises(InputError, match="dimension mismatch"):
                mismatched()
        with pytest.raises(InputError, match="^exponent: expected an integer >= 0, got -1$"):
            z1 ** -1
        assert (z1 * 0).is_zero and (fock.Polynomial.zero(2) * z1).is_zero
        assert fock.Polynomial.zero(2) ** 0 == fock.Polynomial.constant(2, 1)
        assert (fock.Polynomial.zero(2) ** 2).is_zero

    def test_sums(self):
        z1 = fock.Polynomial.monomial(2, (1, 0))
        assert z1 + 2 == 2 + z1 == fock.Polynomial(2, {(1, 0): 1, (0, 0): 2})
        assert_refused(InputError, "dimension mismatch", z1.__add__, fock.Polynomial.monomial(1, (1,)))

    def test_coefficients_are_finite_complex(self):
        p = fock.Polynomial(2, {(1, 0): Fraction(1, 3), (0, 1): fock.QQi(1, -2), (0, 0): 0})
        assert p.coeffs == {(1, 0): complex(1 / 3), (0, 1): complex(1, -2)}
        with pytest.raises(InputError, match="finite"):
            fock.Polynomial(1, {(0,): complex(0, math.inf)})
        with pytest.raises(AttributeError, match="immutable"):
            p.dim = 3

    @pytest.mark.parametrize("e", [1.5, 0.5, 2.0, "2", True, False, np.float64(1.0), np.bool_(True), Fraction(2)])
    def test_exponents_that_are_not_integers_are_refused(self, e):
        # int() would read 1.5 as 1 and "2" as 2, and a half power of z as the constant
        text = f"exponent: expected an integer >= 0, got {e!r}"
        for alpha, dim in [((e,), 1), ((1, e), 2)]:
            with pytest.raises(InputError) as refusal:
                fock.Polynomial(dim, {alpha: 1})
            assert str(refusal.value) == text

    def test_integer_exponents_of_numpy_are_kept(self):
        p = fock.Polynomial(2, {(np.int64(2), np.uint8(1)): 0.5})
        assert p.coeffs == {(2, 1): 0.5} and all(type(e) is int for e in next(iter(p.coeffs)))
