import json
import math
from fractions import Fraction

import numpy as np
import pytest
from conftest import random_ball_points, seeded_by
from fock_reference import (
    Polynomial,
    QQi,
    inner_product,
    monomial_norm_sq,
    mult_adjoint_apply,
    norm_sq,
    pairing,
    reference,
    truncated_kernel_fn,
)

from rkhslab.cli import main
from rkhslab.errors import DomainError, InputError, WindowOverflowError
from rkhslab.fock import (
    FockSubspace,
    TruncatedSpace,
    arveson_example,
    compression_defect,
    in_closure,
    pairing_power_norms,
    powers_span,
    span_of_polynomials,
    tail_balance,
    vanishing_subspace,
)
from rkhslab.kernels import PointSet
from rkhslab.linalg import DEFAULT_TOL

HALF_NORM_POINT = (Fraction(3, 10), Fraction(4, 10))  # ||z||^2 = 1/4 exactly


class TestMonomialNorms:
    def test_one_variable_is_hardy(self):
        for n in range(6):
            assert monomial_norm_sq((n,)) == 1

    def test_mixed_degree_two(self):
        assert monomial_norm_sq((1, 1)) == Fraction(1, 2)

    def test_product_square(self):
        assert monomial_norm_sq((2, 2)) == Fraction(1, 6)

    def test_rejects_negative(self):
        with pytest.raises(InputError):
            monomial_norm_sq((1, -1))


class TestInnerProduct:
    def test_product_monomial(self):
        p = Polynomial.monomial(2, (1, 1))
        assert inner_product(p, p) == QQi(Fraction(1, 2))

    def test_distinct_monomials_orthogonal(self):
        p = Polynomial.monomial(2, (2, 0))
        q = Polynomial.monomial(2, (1, 1))
        assert inner_product(p, q) == QQi(0)

    def test_pairing_powers_orthogonal(self):
        z = pairing(HALF_NORM_POINT)
        for n in range(4):
            for m in range(4):
                ip = inner_product(z**n, z**m)
                if n != m:
                    assert ip == QQi(0)
                else:
                    assert ip == QQi(Fraction(1, 4) ** n)

    def test_parseval(self, rng):
        for _ in range(10):
            coeffs = {
                (int(a), int(b)): complex(rng.standard_normal(), rng.standard_normal())
                for a, b in rng.integers(0, 4, size=(5, 2))
            }
            p = Polynomial(2, coeffs)
            direct = sum(
                abs(c) ** 2 * float(monomial_norm_sq(a)) for a, c in p.coeffs.items()
            )
            assert float(norm_sq(p)) == pytest.approx(direct, rel=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(InputError):
            inner_product(Polynomial.monomial(1, (1,)), Polynomial.monomial(2, (1, 0)))


class TestPairing:
    def test_first_coordinate(self):
        assert pairing((1, 0)) == Polynomial.monomial(2, (1, 0))

    def test_power_norm_matches_vector_norm(self):
        # ||<., z>^n||^2 = ||z||^(2n), here (1/4)^3 = 1/64
        z = pairing(HALF_NORM_POINT)
        assert norm_sq(z**3) == Fraction(1, 64)

    def test_zero_vector(self):
        assert pairing((0, 0)).is_zero

    def test_conjugates_coefficients(self):
        p = pairing((1j,))
        assert p.coeffs[(1,)] == QQi(0, -1)


class TestTruncatedKernel:
    def test_at_origin(self):
        k = truncated_kernel_fn((0, 0), 5)
        assert k.poly == Polynomial.constant(2, 1)
        assert k.tail_norm_sq == 0.0

    def test_pointwise_convergence(self):
        z = np.array([0.4, 0.2 + 0.1j])
        w = np.array([0.3, -0.2j])
        x = complex(np.dot(w, z.conj()))
        target = 1.0 / (1.0 - x)
        for degree in (3, 8, 15):
            val = truncated_kernel_fn(z, degree).poly.evaluate(w)
            pointwise_bound = abs(x) ** (degree + 1) / (1.0 - abs(x))
            assert abs(val - target) <= pointwise_bound + 1e-15

    def test_norm_is_truncated_geometric_series(self):
        degree = 12
        k = truncated_kernel_fn(HALF_NORM_POINT, degree)
        expected = sum(Fraction(1, 4) ** n for n in range(degree + 1))
        assert norm_sq(k.poly) == expected
        assert k.tail_norm_sq == pytest.approx(0.25 ** (degree + 1) / 0.75, rel=1e-12)

    def test_rejects_boundary(self):
        with pytest.raises(DomainError):
            truncated_kernel_fn((1, 0), 4)


class TestMultiply:
    def test_identity_element(self, rng):
        p = Polynomial(2, {(1, 0): 0.5 + 1j, (0, 2): -2.0})
        assert p * Polynomial.constant(2, 1) == p

    def test_monomials_multiply(self):
        z1 = Polynomial.monomial(2, (1, 0))
        z2 = Polynomial.monomial(2, (0, 1))
        assert z1 * z2 == Polynomial.monomial(2, (1, 1))

    def test_iterated_product_matches_binary_power(self):
        z = pairing(HALF_NORM_POINT)
        acc = Polynomial.constant(2, 1)
        for n in range(1, 7):
            acc = acc * z
            assert acc == z**n  # __pow__ squares; the loop multiplies


class TestMultAdjoint:
    def test_kills_constants(self):
        z1 = Polynomial.monomial(2, (1, 0))
        assert mult_adjoint_apply(z1, Polynomial.constant(2, 1), 4).is_zero

    def test_degree_one_step(self):
        z1 = Polynomial.monomial(1, (1,))
        assert mult_adjoint_apply(z1, z1, 3) == Polynomial.constant(1, 1)

    def test_kernel_tail_identity_exact(self):
        # the adjoint of the pairing multiplier maps K_N(., z) - 1 to
        # ||z||^2 K_{N-1}(., z), exactly on the window
        degree = 10
        f = truncated_kernel_fn(HALF_NORM_POINT, degree).poly - 1
        lhs = mult_adjoint_apply(pairing(HALF_NORM_POINT), f, degree)
        shorter = truncated_kernel_fn(HALF_NORM_POINT, degree - 1).poly
        rhs = Polynomial.constant(2, Fraction(1, 4)) * shorter
        assert lhs == rhs

    def test_defining_relation_exact_path(self):
        phi = Polynomial(2, {(1, 0): Fraction(1, 3), (1, 1): QQi(1, 1)})
        f = Polynomial(2, {(2, 1): 1, (1, 0): Fraction(2, 5), (0, 0): 3})
        degree = 3
        g = mult_adjoint_apply(phi, f, degree)
        for alpha in [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]:
            if sum(alpha) > degree - phi.degree:
                continue
            h = Polynomial.monomial(2, alpha)
            assert inner_product(g, h) == inner_product(f, phi * h)

    def test_defining_relation_numeric_path(self, rng):
        for _ in range(10):
            phi = Polynomial(
                2,
                {
                    (1, 0): complex(rng.standard_normal(), rng.standard_normal()),
                    (0, 1): complex(rng.standard_normal(), rng.standard_normal()),
                },
            )
            f = Polynomial(
                2,
                {
                    tuple(int(x) for x in rng.integers(0, 3, 2)): complex(
                        rng.standard_normal(), rng.standard_normal()
                    )
                    for _ in range(4)
                },
            )
            degree = 5
            g = mult_adjoint_apply(phi, f, degree)
            for alpha in [(0, 0), (1, 0), (2, 1), (0, 3)]:
                h = Polynomial.monomial(2, alpha)
                lhs = complex(inner_product(g, h))
                rhs = complex(inner_product(f, phi * h))
                assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))

    def test_adjoint_of_kernel_at_another_point(self):
        # M*_{<., z>} K_N(., y) = <z, y> K_{N-1}(., y), exactly on the window
        z = (Fraction(1, 2), Fraction(1, 3))
        y = (Fraction(2, 5), Fraction(-1, 4))
        degree = 7
        lhs = mult_adjoint_apply(pairing(z), truncated_kernel_fn(y, degree).poly, degree)
        ip = Fraction(1, 2) * Fraction(2, 5) + Fraction(1, 3) * Fraction(-1, 4)
        rhs = Polynomial.constant(2, ip) * truncated_kernel_fn(y, degree - 1).poly
        assert lhs == rhs

    def test_window_overflow(self):
        z1 = Polynomial.monomial(1, (1,))
        with pytest.raises(WindowOverflowError):
            mult_adjoint_apply(z1, Polynomial.monomial(1, (5,)), 4)

    def test_numeric_path_agrees_with_exact(self):
        exact = mult_adjoint_apply(
            pairing(HALF_NORM_POINT),
            truncated_kernel_fn(HALF_NORM_POINT, 8).poly - 1,
            8,
        )
        zf = (0.3, 0.4)
        numeric = mult_adjoint_apply(
            pairing(zf), truncated_kernel_fn(zf, 8).poly - 1, 8
        )
        for alpha, c in exact.coeffs.items():
            assert abs(complex(c) - numeric.coeffs[alpha]) < 1e-12


class TestTruncatedSpace:
    def test_graded_lex_order(self):
        space = TruncatedSpace(2, 2)
        assert space.exponents.tolist() == [[0, 0], [0, 1], [1, 0], [0, 2], [1, 1], [2, 0]]

    def test_iso_round_trip(self, rng):
        space = TruncatedSpace(2, 4)
        u = rng.standard_normal(len(space)) + 1j * rng.standard_normal(len(space))
        p = space.polynomial(u)
        assert np.max(np.abs(space.iso_vector(p) - u)) < 1e-12

    def test_iso_norm_is_weighted_norm(self, rng):
        space = TruncatedSpace(3, 3)
        u = rng.standard_normal(len(space)) + 1j * rng.standard_normal(len(space))
        p = reference(space.polynomial(u))
        assert float(norm_sq(p)) == pytest.approx(float(np.linalg.norm(u) ** 2), rel=1e-12)

    def test_kernel_vector_norm(self):
        space = TruncatedSpace(2, 9)
        z = np.array([0.3, 0.4])
        u = space.kernel_vector(z)
        expected = sum(0.25**n for n in range(10))
        assert np.linalg.norm(u) ** 2 == pytest.approx(expected, rel=1e-12)


class TestVanishingSubspace:
    def test_origin_dim_one(self):
        spaces = vanishing_subspace(PointSet(1, [[0.0]]), 1)
        # complement is the constants, ideal is the span of z
        assert spaces.complement.dim == 1 and spaces.ideal.dim == 1
        assert abs(abs(spaces.complement.basis[0, 0]) - 1.0) < 1e-12
        assert abs(spaces.complement.basis[1, 0]) < 1e-12
        assert abs(spaces.ideal.basis[0, 0]) < 1e-12

    def test_origin_any_dim_gives_constants(self):
        for d in (1, 2, 3):
            spaces = vanishing_subspace(PointSet(d, [[0.0] * d]), 3)
            assert spaces.complement.dim == 1
            u = spaces.complement.basis[:, 0]
            assert abs(abs(u[0]) - 1.0) < 1e-12
            assert np.max(np.abs(u[1:])) < 1e-12

    def test_generic_points_full_rank(self, rng):
        for _ in range(10):
            d = int(rng.integers(1, 3))
            m = int(rng.integers(1, 6))
            pts = PointSet(d, random_ball_points(rng, m, d))
            spaces = vanishing_subspace(pts, 6)
            assert spaces.complement.dim == m
            assert spaces.ideal.dim == len(spaces.ideal.space) - m

    def test_cross_check_against_evaluation_nullspace(self, rng):
        # independent construction: the nullspace of the point-evaluation
        # map in isometric coordinates, via SVD row-space splitting
        pts = PointSet(2, random_ball_points(rng, 3, 2))
        degree = 5
        spaces = vanishing_subspace(pts, degree)
        space = spaces.complement.space
        rows = [
            np.array(
                [np.prod(y**alpha) for alpha in space.exponents], dtype=complex
            )
            for y in pts.points
        ]
        norms_sq = [monomial_norm_sq(tuple(a)) for a in space.exponents.tolist()]
        sqrt_w = np.array([math.sqrt(float(w)) for w in norms_sq])
        e = np.vstack(rows) / sqrt_w
        _, s, vh = np.linalg.svd(e, full_matrices=True)
        rank = int(np.sum(s > s[0] * max(e.shape) * np.finfo(float).eps))
        complement = vh[:rank].conj().T
        p_mine = spaces.complement.basis @ spaces.complement.basis.conj().T
        p_other = complement @ complement.conj().T
        assert np.max(np.abs(p_mine - p_other)) < 1e-10

    def test_ideal_vanishes_on_points(self, rng):
        pts = PointSet(2, random_ball_points(rng, 4, 2))
        spaces = vanishing_subspace(pts, 5)
        for k in range(spaces.ideal.dim):
            p = reference(spaces.ideal.space.polynomial(spaces.ideal.basis[:, k]))
            for y in pts.points:
                assert abs(p.evaluate(y)) < 1e-10

    def test_too_many_points_rejected(self, rng):
        pts = PointSet(1, random_ball_points(rng, 4, 1))
        with pytest.raises(InputError):
            vanishing_subspace(pts, 2)


class TestFockSubspaceSpan:
    """FockSubspace.span builds every subspace of the module; the ideal is
    formed from the complement only when read."""

    def test_every_built_basis_is_orthonormal(self, rng, monkeypatch):
        built = []
        span = FockSubspace.span.__func__

        def recording(cls, space, columns):
            built.append(span(cls, space, columns))
            return built[-1]

        monkeypatch.setattr(FockSubspace, "span", classmethod(recording))
        space = TruncatedSpace(2, 6)
        phi = Polynomial(2, {(1, 0): 0.5, (0, 2): 0.25j})
        one = Polynomial.constant(2, 1)
        cols = np.column_stack([space.iso_vector(p) for p in (one, phi, phi * phi)])
        span_of_polynomials(space, [one, phi, phi + one, phi * phi])
        span_of_polynomials(space, [])
        powers_span(space, phi, 3)
        FockSubspace.span(space, np.column_stack([cols, cols @ [1.0, 2.0, -1j], 1e-3 * cols]))
        FockSubspace.span(space, np.zeros((len(space), 2)))
        pts = random_ball_points(rng, 5, 2)
        vanishing_subspace(PointSet(2, pts), 6)
        in_closure(0.5 * pts[0], PointSet(2, pts[1:]), 6)  # a distance from a triangle: no basis
        assert [sub.dim for sub in built] == [3, 0, 4, 3, 0, 5]
        for sub in built:
            gram = sub.basis.conj().T @ sub.basis
            assert np.max(np.abs(gram - np.eye(sub.dim)), initial=0.0) <= 1e-12

    @pytest.mark.parametrize("dim, m, degree", [(1, 3, 4), (2, 5, 5), (3, 4, 3)])
    def test_ideal_is_the_orthocomplement(self, rng, dim, m, degree):
        spaces = vanishing_subspace(PointSet(dim, random_ball_points(rng, m, dim)), degree)
        ideal, complement = spaces.ideal, spaces.complement
        assert ideal.space is complement.space
        assert ideal.dim + complement.dim == len(complement.space)
        assert np.max(np.abs(ideal.basis.conj().T @ complement.basis)) <= 1e-12

    def test_closure_and_kernel_defect_build_no_ideal(self, rng, monkeypatch, tmp_path, capsys):
        # k = 120 monomials at d = 3, degree 7; only the kernel defect's m-column complement
        # is built, and the closure builds no subspace at all
        shapes = []
        init = FockSubspace.__init__

        def recording(self, space, basis):
            shapes.append(np.shape(basis))
            init(self, space, basis)

        monkeypatch.setattr(FockSubspace, "__init__", recording)
        m, pts = 6, random_ball_points(rng, 6, 3)
        in_closure(0.5 * pts[0], PointSet(3, pts), 7)
        path = tmp_path / "points.json"
        path.write_text(json.dumps({"dim": 3, "points": [[[c.real, c.imag] for c in p] for p in pts]}))
        phi = '{"dim":3,"terms":[{"exp":[1,1,0],"coeff":1}]}'
        argv = ["fock", "defect", "--phi", phi, "--span", "kernel", "--points", str(path), "--degree", "7"]
        assert main(argv) in (0, 1)
        assert json.loads(capsys.readouterr().out)["results"]["span_dim"] == m
        assert shapes == [(120, m)]

    @pytest.mark.parametrize("phi", [Polynomial.constant(1, 2), Polynomial(1, {})])
    def test_powers_of_a_constant_get_the_window_degree(self, phi):
        # count * deg(phi) is 0 or negative here, so only the degree bounds count
        space = TruncatedSpace(1, 12)
        assert powers_span(space, phi, 12).dim == 1
        with pytest.raises(WindowOverflowError, match="count 13: more powers than degree 12"):
            powers_span(space, phi, 13)

    @pytest.mark.parametrize("count", [-1, -3, 1.0, "2"])
    def test_powers_span_refuses_a_bad_count(self, count):
        # before any array is formed: -1 and -3 used to reach numpy as column counts
        z1 = Polynomial(2, {(1, 0): 1})
        with pytest.raises(InputError, match=f"^count: expected an integer >= 0, got {count!r}$"):
            powers_span(TruncatedSpace(2, 4), z1, count)


class TestInClosure:
    def test_members_of_y(self, rng):
        pts = PointSet(2, random_ball_points(rng, 3, 2))
        for y in pts.points:
            member, residual = in_closure(y, pts, 8, tol=1e-8)
            assert member and residual < 1e-10

    def test_origin_pair_excludes_between_point(self):
        pts = PointSet(2, [[0.0, 0.0], [0.5, 0.0]])
        member, residual = in_closure(np.array([0.3, 0.0]), pts, 8, tol=1e-8)
        assert not member and residual > 0.01

    @pytest.mark.parametrize("coordinate", [float("nan"), complex(0.0, float("nan"))])
    def test_rejects_a_nan_point(self, coordinate):
        # a NaN norm fails every comparison, so a test for norm >= 1 would let it by; the
        # array rule refuses it first
        with pytest.raises(InputError) as refusal:
            in_closure(np.array([coordinate, 0.0]), PointSet(2, [[0.0, 0.0]]), 4)
        assert type(refusal.value) is InputError
        assert str(refusal.value) == f"point: expected a finite number, got {complex(coordinate)!r}"

    def test_rejects_the_degree_zero_window(self):
        # its only kernel function is the constant 1, so every z would be a member
        pts = PointSet(2, [[0.0, 0.0]])
        for degree in (0, -1):
            with pytest.raises(InputError, match=f"^degree: expected an integer >= 1, got {degree}$"):
                in_closure(np.array([0.9, 0.3j]), pts, degree)
            with pytest.raises(InputError, match=f"^degree: expected an integer >= 1, got {degree}$"):
                vanishing_subspace(pts, degree)
        assert not in_closure(np.array([0.9, 0.3j]), pts, 1).member

    @pytest.mark.parametrize("tol", [0.0, float("nan")])
    def test_rejects_nonpositive_or_nan_tol(self, tol):
        with pytest.raises(InputError, match="tol must be positive"):
            in_closure(np.array([0.2]), PointSet(1, [[0.0]]), 8, tol=tol)

    def test_single_origin_excludes_disk_point(self):
        pts = PointSet(1, [[0.0]])
        member, residual = in_closure(np.array([0.2]), pts, 8, tol=1e-8)
        assert not member and residual > 0.01

    def test_line_of_generators_captures_its_whole_line(self):
        # N+1 distinct collinear points span every pairing power along the
        # line (Vandermonde in the scalar parameter), so any further point
        # of the line inside the ball joins the span; off-line points do not
        degree = 6
        w = np.array([0.6, 0.8j])
        ts = np.array([0.0, 0.55, -0.5, 0.3 + 0.3j, -0.2 - 0.4j, 0.15 - 0.5j, 0.45j])
        pts = PointSet(2, np.outer(ts, w))
        for s in (0.25, -0.35 + 0.2j, 0.5j):
            member, residual = in_closure(s * w, pts, degree, tol=1e-8)
            assert member and residual < 1e-12
        member, residual = in_closure(np.array([0.3, 0.1]), pts, degree, tol=1e-8)
        assert not member and residual > 0.01


EPS = np.finfo(float).eps

# nine points on the line z2 = 0: at degree 5 their kernel vectors span only the six
# monomials 1, z1, ..., z1^5, so the 21 x 9 matrix of them has rank 6
LINE = PointSet(2, [[0.09 * (t - 4) + 0.04j * (t % 3), 0.0] for t in range(9)])


def svd_projection(z, points: PointSet, degree: int) -> tuple:
    """The closure residual by the dense route: the kernel vector at z less its projection
    on the leading left singular vectors of those at Y, cut at s[0] k eps. Returns the
    residual and 4 k eps (1 + ||K_Y||_F / s_rank), the bound in_closure states, or None
    when a singular value lies within a factor 8 of the cut, where rounding may move the
    rank."""
    space = TruncatedSpace(points.dim, degree)
    k_y, u = space.kernel_vector(points.points), space.kernel_vector(z)
    w, s, _ = np.linalg.svd(k_y, full_matrices=False)
    cut = s[0] * len(space) * EPS
    rank = int(np.sum(s > cut))
    keep = w[:, :rank]
    residual = np.linalg.norm(u - keep @ (keep.conj().T @ u)) / np.linalg.norm(u)
    near = np.any((s > cut / 8) & (s < 8 * cut))
    return residual, None if near else 4 * len(space) * EPS * (1 + np.linalg.norm(k_y) / s[rank - 1])


class TestTrianglePaths:
    """The span and the closure residual come from the triangle of one Householder QR;
    these reach the branches where the kernel vectors lose rank."""

    def test_rank_deficient_span_is_the_line(self):
        spaces = vanishing_subspace(LINE, 5)
        space, basis = spaces.complement.space, spaces.complement.basis
        assert spaces.complement.dim == 6 and spaces.ideal.dim == len(space) - 6
        on_line = space.exponents[:, 1] == 0  # 1, z1, ..., z1^5
        assert np.max(np.abs(basis[~on_line])) <= 1e-12
        assert np.max(np.abs(basis[on_line].conj().T @ basis[on_line] - np.eye(6))) <= 1e-13

    @pytest.mark.parametrize("z", [[0.33 + 0.1j, 0.0], [-0.7j, 0.0], [0.2, 0.1], [0.0, 0.5], [0.3, 1e-5]])
    def test_rank_deficient_closure_matches_the_svd_projection(self, z):
        # every point of the line z2 = 0 is a member at degree 5; the rest are not
        member, residual = in_closure(z, LINE, 5)
        want, bound = svd_projection(z, LINE, 5)
        assert bound is not None and abs(residual - want) <= 2 * bound
        assert member == (z[1] == 0.0)
        assert residual <= 1e-14 if member else residual >= 1e-6

    @seeded_by(60)
    def test_residual_is_within_the_stated_bound(self, seed):
        rng = np.random.default_rng(seed)
        dim, degree = int(rng.integers(1, 4)), int(rng.integers(1, 8))
        k = math.comb(degree + dim, dim)
        m = int(rng.integers(1, k + 1))
        ys = random_ball_points(rng, m, dim, radius=float(rng.uniform(0.1, 0.95)))
        shape = rng.integers(3)
        if shape == 1:  # on a coordinate line, where the kernel vectors lose rank
            ys[:, 1:] = 0.0
        elif shape == 2:  # a cluster, where they are ill-conditioned
            ys = ys[:1] + 1e-3 * random_ball_points(rng, m, dim, radius=1.0)
        if len({tuple(y) for y in ys.tolist()}) < m or np.max(np.linalg.norm(ys, axis=1)) >= 1:
            return
        points = PointSet(dim, ys)
        z = [ys[rng.integers(m)], random_ball_points(rng, 1, dim)[0]][int(rng.integers(2))]
        z = z + [0.0, 1e-6][int(rng.integers(2))] * random_ball_points(rng, 1, dim)[0]
        member, residual = in_closure(z, points, degree)
        want, bound = svd_projection(z, points, degree)
        if bound is None:
            return
        # each of the two residuals lies within bound of the exact distance
        assert abs(residual - want) <= 2 * bound
        if abs(want - DEFAULT_TOL) > 2 * bound:
            assert member == (want <= DEFAULT_TOL)

    def test_a_span_of_more_columns_than_the_window_has(self, rng):
        space = TruncatedSpace(1, 3)  # four monomials
        cols = rng.standard_normal((4, 6)) + 1j * rng.standard_normal((4, 6))
        assert FockSubspace.span(space, cols).dim == 4
        low = cols[:, :2] @ rng.standard_normal((2, 6))  # six columns of rank 2
        sub = FockSubspace.span(space, low)
        assert sub.dim == 2
        assert np.max(np.abs(low - sub.project(low))) <= 1e-13 * np.max(np.abs(low))


class TestCompressionDefect:
    def test_truncated_shift(self):
        # compressing multiplication by the coordinate to the full window in
        # one variable gives the truncated shift; its self-commutator is
        # diag(1, 0, ..., 0, -1)
        space = TruncatedSpace(1, 6)
        full = FockSubspace(space, np.eye(len(space), dtype=complex))
        d = compression_defect(Polynomial.monomial(1, (1,)), full)
        assert d == pytest.approx(-1.0, abs=1e-12)

    def test_constant_multiplier_is_normal(self, rng):
        pts = PointSet(2, random_ball_points(rng, 3, 2))
        f = vanishing_subspace(pts, 5).complement
        d = compression_defect(Polynomial.constant(2, 0.7 - 0.2j), f)
        assert abs(d) < 1e-12

    def test_product_coordinate_weighted_shift(self):
        # on span{(z1 z2)^k : k <= K} multiplication by z1 z2 is a weighted
        # shift with weights (k+1)/sqrt((2k+1)(2k+2)); the self-commutator
        # is diagonal with final entry -w_{K-1}^2
        kmax = 4
        phi = Polynomial.monomial(2, (1, 1))
        space = TruncatedSpace(2, 2 * (kmax + 1))
        span = span_of_polynomials(space, [phi**k for k in range(kmax + 1)])
        assert span.dim == kmax + 1
        d = compression_defect(phi, span)
        weights = [
            (k + 1) / math.sqrt((2 * k + 1) * (2 * k + 2)) for k in range(kmax)
        ]
        diffs = [weights[0] ** 2]
        diffs += [weights[k] ** 2 - weights[k - 1] ** 2 for k in range(1, kmax)]
        diffs.append(-weights[kmax - 1] ** 2)
        assert d == pytest.approx(min(diffs), abs=1e-12)
        assert d < 0

    def test_violation_on_coinvariant_window_forces_negative_defect(self, rng):
        # the full window is co-invariant under every multiplication
        # adjoint, so a failure of ||M* f|| <= ||P M f|| there must come
        # with a negative self-commutator defect; the truncated shift is
        # the concrete witness (violation 1 at the top monomial, defect -1)
        space = TruncatedSpace(1, 5)
        full = FockSubspace(space, np.eye(len(space), dtype=complex))
        monomials = [Polynomial.monomial(1, (k,)) for k in range(6)]
        for _ in range(10):
            phi = Polynomial(
                1,
                {
                    (int(e),): complex(rng.standard_normal(), rng.standard_normal())
                    for e in rng.integers(0, 3, 3)
                },
            )
            defect = compression_defect(phi, full)
            worst = 0.0
            for _ in range(10):
                c = rng.standard_normal(6) + 1j * rng.standard_normal(6)
                vec = sum(
                    (Polynomial.constant(1, ci) * m for ci, m in zip(c, monomials)),
                    Polynomial.zero(1),
                )
                adj = mult_adjoint_apply(phi, vec, 5 + max(phi.degree, 0))
                prod_coords = space.iso_vector(
                    Polynomial(1, {a: v for a, v in (phi * vec).coeffs.items() if sum(a) <= 5})
                )
                worst = max(
                    worst,
                    math.sqrt(float(norm_sq(adj))) - float(np.linalg.norm(prod_coords)),
                )
            if defect >= -1e-12:
                assert worst <= 1e-10
            if worst > 1e-10:
                assert defect < -1e-12

        shift = Polynomial.monomial(1, (1,))
        assert compression_defect(shift, full) == pytest.approx(-1.0, abs=1e-12)
        top = Polynomial.monomial(1, (5,))
        adj_norm = math.sqrt(float(norm_sq(mult_adjoint_apply(shift, top, 6))))
        assert adj_norm == pytest.approx(1.0, abs=1e-14)  # projected forward norm is 0

    def test_hyponormal_compression_bounds_adjoint(self, rng):
        # whenever the compressed self-commutator is PSD, the adjoint norm
        # is dominated by the projected forward norm for members of F
        pts = PointSet(2, random_ball_points(rng, 2, 2))
        f = vanishing_subspace(pts, 6).complement
        phi = Polynomial.constant(2, 1.3 + 0.4j)
        assert compression_defect(phi, f) >= -1e-12
        cols = [reference(p) for p in f.polynomials()]
        for _ in range(20):
            c = rng.standard_normal(f.dim) + 1j * rng.standard_normal(f.dim)
            vec = sum((Polynomial.constant(2, ci) * p for ci, p in zip(c, cols)),
                      Polynomial.zero(2))
            adj = mult_adjoint_apply(phi, vec, vec.degree + max(phi.degree, 0))
            adj_norm = math.sqrt(float(norm_sq(adj)))
            prod = phi * vec
            proj_sq = sum(abs(complex(inner_product(prod, p))) ** 2 for p in cols)
            assert adj_norm <= math.sqrt(proj_sq) + 1e-10


class TestArvesonExample:
    def test_exact_values(self):
        w = arveson_example()
        assert w.forward_norm_sq == Fraction(1, 6)
        assert w.adjoint_norm_sq == Fraction(1, 4)

    def test_two_dimensional_compression_defect(self):
        # on span{1, z1 z2} the compression is a single weighted shift step
        # of weight 1/sqrt(2); the self-commutator is diag(1/2, -1/2)
        phi = Polynomial.monomial(2, (1, 1))
        space = TruncatedSpace(2, 4)
        span = span_of_polynomials(space, [Polynomial.constant(2, 1), phi])
        d = compression_defect(phi, span)
        assert d == pytest.approx(-0.5, abs=1e-12)


class TestTailBalance:
    def test_quarter_norm_exact_agreement(self):
        degree = 20
        balance = tail_balance(HALF_NORM_POINT, degree)
        # both sides re-sum the same truncated geometric series
        expected = sum(0.25 ** (n + 2) for n in range(degree))
        assert balance.adjoint_norm_sq == pytest.approx(expected, rel=1e-12)
        assert balance.forward_norm_sq == pytest.approx(expected, rel=1e-12)
        assert abs(balance.adjoint_norm_sq - balance.forward_norm_sq) <= balance.tail_bound

    def test_converges_to_closed_form(self):
        # ||z||^4 / (1 - ||z||^2) is the infinite-series value
        z = (Fraction(1, 2), Fraction(1, 2))  # ||z||^2 = 1/2
        target = 0.25 / 0.5
        for degree in (10, 20, 40):
            balance = tail_balance(z, degree)
            assert abs(balance.adjoint_norm_sq - target) <= balance.tail_bound
            assert abs(balance.forward_norm_sq - target) <= balance.tail_bound

    def test_rejects_origin(self):
        with pytest.raises(InputError):
            tail_balance((0, 0), 10)


class TestPairingPowerNorms:
    def test_quarter_norm_square(self):
        norms = pairing_power_norms(HALF_NORM_POINT, 2, 10)
        assert norms.adjoint_norm == pytest.approx(0.25, abs=1e-15)
        assert norms.forward_norm == pytest.approx(0.25, abs=1e-15)

    def test_one_variable_reduces_to_hardy(self):
        norms = pairing_power_norms((Fraction(1, 2),), 4, 10)
        assert norms.adjoint_norm == pytest.approx(1.0 / 16.0, abs=1e-15)
        assert norms.forward_norm == pytest.approx(1.0 / 16.0, abs=1e-15)

    def test_unit_direction_identity_exact(self):
        # for a unit vector w the adjoint drops one power exactly
        w = (Fraction(3, 5), Fraction(4, 5))
        p = pairing(w)
        assert mult_adjoint_apply(p, p**2, 10) == p
        assert mult_adjoint_apply(p, p**5, 10) == p**4

    def test_window_overflow(self):
        with pytest.raises(WindowOverflowError):
            pairing_power_norms(HALF_NORM_POINT, 8, 5)


class TestPolynomialBasics:
    def test_no_zero_coefficients_stored(self):
        p = Polynomial(1, {(0,): 1, (1,): -1}) + Polynomial(1, {(1,): 1})
        assert (1,) not in p.coeffs

    def test_mixed_input_demotes_to_numeric(self):
        p = Polynomial(1, {(0,): Fraction(1, 3), (1,): 0.5})
        assert not p.is_exact
        assert isinstance(p.coeffs[(0,)], complex)

    def test_rejects_non_finite(self):
        with pytest.raises(InputError):
            Polynomial(1, {(0,): float("inf")})

    def test_evaluate(self):
        p = Polynomial(2, {(1, 1): 2, (0, 0): 1})
        assert p.evaluate([0.5, 0.25j]) == pytest.approx(1 + 2 * 0.5 * 0.25j)

    def test_immutable(self):
        p = Polynomial.constant(1, 1)
        with pytest.raises(AttributeError):
            p.dim = 2
