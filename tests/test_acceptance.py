"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion. Tolerances are pinned in the assertions.
"""

import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest
import fock_reference as ref
from conftest import random_ball_points, random_unitary

import rkhslab as rl
from rkhslab.cli import main as cli_main


def _report(capsys, argv):
    code = cli_main(argv)
    return code, json.loads(capsys.readouterr().out)


def _passed(num, label):
    print(f"ACCEPTANCE {num:2d} PASS  {label}")


def test_criterion_01_arveson_witness_exact(capsys):
    start = time.perf_counter()
    code, report = _report(capsys, ["fock", "arveson"])
    assert code == 0
    assert report["results"]["forward_norm_sq"] == {"num": "1", "den": "6"}
    assert report["results"]["adjoint_norm_sq"] == {"num": "1", "den": "4"}

    witness = rl.arveson_example()
    assert witness.forward_norm_sq == Fraction(1, 6)
    assert witness.adjoint_norm_sq == Fraction(1, 4)

    phi = rl.Polynomial.monomial(2, (1, 1))
    space = rl.TruncatedSpace(2, 6)
    span = rl.span_of_polynomials(space, [phi**k for k in range(3)])
    defect = rl.compression_defect(phi, span)
    assert defect <= -0.05

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _passed(1, f"exact 1/6 < 1/4 witness, defect {defect:.4f}, {elapsed:.2f}s")


def test_criterion_02_ratio_trichotomy():
    start = time.perf_counter()
    hardy = [1] * 100
    bergman = [n + 1 for n in range(100)]
    reciprocal = [Fraction(1, n + 1) for n in range(100)]

    r = rl.ratio_report(hardy)
    assert r.hyponormal_ok and r.np_ok and r.geometric

    r = rl.ratio_report(bergman)
    assert r.hyponormal_ok and not r.np_ok and r.first_violation == 1

    r = rl.ratio_report(reciprocal)
    assert not r.hyponormal_ok and r.np_ok and r.first_violation == 1

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _passed(2, f"Hardy both, Bergman hyponormal-only, reciprocal NP-only, {elapsed:.2f}s")


def test_criterion_03_geometric_echo(rng):
    length = 50
    sequences = []
    for _ in range(100):
        ratio = Fraction(int(rng.integers(1, 7)), int(rng.integers(1, 5)))
        sequences.append([ratio**n for n in range(length)])
    for _ in range(100):
        ratio = Fraction(int(rng.integers(1, 7)), int(rng.integers(1, 5)))
        seq = [ratio**n for n in range(length)]
        k = int(rng.integers(1, length))
        seq[k] *= Fraction(10**6 + 1, 10**6)
        sequences.append(seq)
    assert len(sequences) == 200

    geometric_seqs = []
    for seq in sequences:
        report = rl.ratio_report(seq)
        both = report.hyponormal_ok and report.np_ok
        # independent geometric oracle by exact cross-multiplication
        is_geometric = all(seq[n + 1] * seq[0] == seq[n] * seq[1] for n in range(length - 1))
        assert both == is_geometric == report.geometric
        if is_geometric:
            geometric_seqs.append(seq)
    assert len(geometric_seqs) == 100

    for seq in geometric_seqs:
        ratio = float(seq[1])
        coeffs = [1.0] + [ratio ** n for n in range(1, 300)]
        kernel = rl.PowerSeriesKernel(coeffs)
        radius = 0.45 / max(1.0, math.sqrt(ratio))
        zs = rng.uniform(0.15, 1.0, 6) * radius * np.exp(2j * np.pi * rng.uniform(size=6))
        g = kernel.gram(rl.PointSet(1, zs.reshape(-1, 1)))
        result = rl.classify(g, 0, 1e-9)
        assert result.classification == rl.HARDY_EQUIVALENT
        assert result.factorization_residual < 1e-9
    _passed(3, "both ratio tests pass iff exactly geometric; all 100 geometric "
               "samples reconstruct with residual < 1e-9")


def test_criterion_04_embedding_round_trip(rng):
    start = time.perf_counter()
    for _ in range(100):
        d = int(rng.integers(1, 4))
        n = int(rng.integers(d + 1, 11))
        pts = np.vstack([np.zeros((1, d)), random_ball_points(rng, n - 1, d)])
        point_set = rl.PointSet(d, pts)
        g = rl.DruryArvesonKernel(d).gram(point_set)
        emb = rl.agler_mccarthy_embed(g, 0, 1e-9)
        assert emb.rank == d
        assert np.array_equal(emb.b_points[0], np.zeros(d))
        recovered = emb.b_points @ emb.b_points.conj().T
        target = pts @ pts.conj().T
        assert np.max(np.abs(recovered - target)) < 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _passed(4, f"100 ball samples: rank d, Euclidean products to 1e-9, base at 0, {elapsed:.2f}s")


def test_criterion_05_bergman_refutation():
    kernel = rl.PowerSeriesKernel([n + 1 for n in range(200)])
    g = kernel.gram(rl.PointSet(1, [[0.0], [0.5], [0.8]]))
    verdict = rl.cnp_sample_check(g, 0, 1e-9)
    assert verdict.status == rl.CERTIFIED_NOT_CNP
    assert verdict.min_eig < -1e-6

    # independent 3x3 eigen oracle: the base row of 1 - 1/K vanishes, so the
    # spectrum is {0} plus the exact-rational 2x2 block
    # [[7/16, 16/25], [16/25, 544/625]]
    a, b, c = 7.0 / 16.0, 16.0 / 25.0, 544.0 / 625.0
    oracle = 0.5 * ((a + c) - math.sqrt((a - c) ** 2 + 4 * b * b))
    assert verdict.min_eig == pytest.approx(oracle, abs=1e-12)
    _passed(5, f"certified_not_cnp with min_eig {verdict.min_eig:.6f} matching the oracle")


def test_criterion_06_pick_vs_schwarz_pick():
    szego = rl.PowerSeriesKernel([1] * 60)
    two_point = rl.PickProblem(
        kernel=szego, nodes=rl.PointSet(1, [[0.0], [0.5]]), targets=[0.0, 0.25]
    )
    t = rl.minimal_interpolation_norm(two_point, 1e-9)
    assert abs(t - 0.5) <= 1e-8  # closed form |w2| / |z2|

    for c in (0.5, 0.3 - 0.4j, 0.9j, 0.05):
        one_point = rl.PickProblem(kernel=szego, nodes=rl.PointSet(1, [[0.0]]), targets=[c])
        t1 = rl.minimal_interpolation_norm(one_point, 1e-12)
        assert abs(t1 - abs(c)) <= 1e-10
    _passed(6, f"two-point norm {t:.9f} vs 0.5; one-point norms within 1e-10")


def test_criterion_07_tail_identities():
    degree = 30
    for z, t in (
        ((Fraction(3, 10), Fraction(4, 10)), 0.25),
        ((Fraction(1, 2), Fraction(1, 2)), 0.5),
    ):
        balance = rl.tail_balance(z, degree)
        assert abs(balance.adjoint_norm_sq - balance.forward_norm_sq) <= balance.tail_bound
        truncated_closed_form = sum(t ** (n + 2) for n in range(degree))
        assert abs(balance.adjoint_norm_sq - truncated_closed_form) <= 1e-10
        assert abs(balance.forward_norm_sq - truncated_closed_form) <= 1e-10

        for n in range(2, 11):
            norms = rl.pairing_power_norms(z, n, degree)
            expected = t ** (n / 2.0)
            assert abs(norms.adjoint_norm - expected) <= 1e-12
            assert abs(norms.forward_norm - expected) <= 1e-12
    _passed(7, "norm balance within tail bound and power norms ||z||^n to 1e-12")


def test_criterion_08_closure_step_embodiment(rng):
    # normal operators with reducing subspaces
    for _ in range(100):
        n = int(rng.integers(2, 11))
        u = random_unitary(rng, n)
        lam = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        t = u @ np.diag(lam) @ u.conj().T
        k = int(rng.integers(1, n))
        sub = rl.Subspace(u[:, :k])
        f = u[:, :k] @ (rng.standard_normal(k) + 1j * rng.standard_normal(k))
        check = rl.verify_hyponormal_closure(t, sub, f, 1e-9)
        assert check.norms_equal and check.image_in_subspace

    # hyponormal compressions on the truncated ball model dominate the
    # adjoint norm by the projected forward norm; the hypotheses need F
    # co-invariant under the adjoint inside the window, which holds exactly
    # for constant multipliers on any kernel span and for arbitrary
    # multipliers on the kernel span at the origin (the constants)
    worst = 0.0
    for trial in range(100):
        if trial % 2 == 0:
            pts = rl.PointSet(2, random_ball_points(rng, int(rng.integers(1, 4)), 2))
            phi = ref.Polynomial.constant(
                2, complex(rng.standard_normal(), rng.standard_normal())
            )
        else:
            pts = rl.PointSet(2, np.zeros((1, 2)))
            phi = ref.Polynomial(
                2,
                {
                    tuple(int(x) for x in rng.integers(0, 2, 2)): complex(
                        rng.standard_normal(), rng.standard_normal()
                    )
                    for _ in range(3)
                },
            )
        subspace = rl.vanishing_subspace(pts, 6).complement
        assert rl.compression_defect(phi, subspace) >= -1e-10
        cols = [ref.reference(p) for p in subspace.polynomials()]
        coeff = rng.standard_normal(subspace.dim) + 1j * rng.standard_normal(subspace.dim)
        f_poly = ref.Polynomial.zero(2)
        for ci, p in zip(coeff, cols):
            f_poly = f_poly + ref.Polynomial.constant(2, ci) * p
        window = f_poly.degree + max(phi.degree, 0)
        adj_norm = math.sqrt(float(ref.norm_sq(ref.mult_adjoint_apply(phi, f_poly, window))))
        product = phi * f_poly
        projected = math.sqrt(
            sum(abs(complex(ref.inner_product(product, p))) ** 2 for p in cols)
        )
        worst = max(worst, adj_norm - projected)
    assert worst < 1e-10
    _passed(8, f"100 normal/reducing closures pass; max adjoint-norm violation {worst:.2e}")


def test_criterion_09_closure_membership(rng):
    degree = 8
    for d in (1, 2):
        pts = rl.PointSet(d, random_ball_points(rng, 3, d, radius=0.7))
        for y in pts.points:
            member, residual = rl.in_closure(y, pts, degree, tol=1e-8)
            assert member and residual < 1e-8
        checked = 0
        while checked < 50:
            z = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            z = z / np.linalg.norm(z) * rng.uniform(0.0, 0.8)
            if min(np.linalg.norm(z - y) for y in pts.points) < 0.15:
                continue
            member, residual = rl.in_closure(z, pts, degree, tol=1e-8)
            assert not member and residual > 0.01
            checked += 1
    _passed(9, "membership exactly on Y: residual < 1e-8 on Y, > 0.01 off Y")


def test_criterion_10_formula_consistency(rng):
    for _ in range(50):
        n = int(rng.integers(3, 11))
        points = (rng.uniform(0.1, 0.8, n) * np.exp(2j * np.pi * rng.uniform(size=n))).astype(
            complex
        )
        points[0] = 0.0
        while len({complex(x) for x in points}) < n:
            points = (
                rng.uniform(0.1, 0.8, n) * np.exp(2j * np.pi * rng.uniform(size=n))
            ).astype(complex)
            points[0] = 0.0
        delta = rng.uniform(0.5, 1.5, n) * np.exp(2j * np.pi * rng.uniform(size=n))
        g = rl.HermitianMatrix(
            np.outer(delta, delta.conj()) / (1.0 - np.outer(points, points.conj()))
        )
        rec_delta, rec_j = rl.reconstruct_j_delta(g, 0, 1e-9)
        assert rl.verify_factorization(g, rec_delta, rec_j) < 1e-9
        for mu in range(1, n):
            formula_j = rl.j_from_formula(g, 0, mu, rec_j[mu])
            assert np.max(np.abs(formula_j - rec_j)) < 1e-9
    _passed(10, "formula j agrees with the embedding across all references; "
                "factorization residual < 1e-9")
