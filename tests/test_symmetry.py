"""Verdicts under the symmetries of the mathematics.

Each verdict-producing entry point -- minimal_interpolation_norm,
pick_feasible, cnp_sample_check, the rank of agler_mccarthy_embed and
classify -- is checked under positive rescaling of the kernel from 1e-12 to
1e12, permutation of the sample and unitary rotation of Drury-Arveson
points; the CNP verdict also under change of base point, and classify
under rescaling of single points. A sampled Gram matrix is refused as
non-PSD at every scale or at none, and partition gives the same classes
at every scale. The Fock defect verdict is checked under rescaling of the
multiplier, under a unitary change of variables and under a change of the
phase of each term (on the kernel span with the points turned too),
in_closure under a unitary rotation of the set and the point together, and
the closure-step verdicts under rescaling of the operator and of the vector.
Disk and ball automorphisms, which change a Szego, Bergman or Drury-Arveson
Gram matrix only by a positive diagonal congruence, keep the CNP status, the
embedding rank and the Gram of the embedded points, classify's verdict,
level-1 Pick feasibility and the Pick minimal norm.
Sampled Grams (Pick included), power-series coefficients, Pick targets with
the norm level, and Fock multipliers are also scaled by 2^k over the whole
float range: that scaling is exact, so no verdict may change at all. Random
cases are drawn by hypothesis when it is installed and from fixed seeds
otherwise.
"""

import contextlib
import io
import json
import math
import os
import tempfile
import warnings

import numpy as np
import pytest
from conftest import blaschke, random_ball_points, random_unitary, seeded_by

from rkhslab.cli import main
from rkhslab.cnp import agler_mccarthy_embed, cnp_sample_check
from rkhslab.errors import InputError, PreconditionError
from rkhslab.fock import (
    FockSubspace,
    Polynomial,
    TruncatedSpace,
    compression_defect,
    defect_scale,
    in_closure,
)
from rkhslab.kernels import (
    DruryArvesonKernel,
    PointSet,
    PowerSeriesKernel,
    SampledGramKernel,
)
from rkhslab.linalg import HermitianMatrix, Subspace, threshold, verify_hyponormal_closure
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


class TestSampledGramScaling:
    @pytest.mark.parametrize("scale", SCALES)
    def test_indefinite_gram_refused_at_every_scale(self, scale):
        # least eigenvalue -5e-7 of the largest entry; the absolute floor of
        # psd_check accepted it at scales below about 1e-3
        with pytest.raises(InputError, match="not PSD") as exc:
            SampledGramKernel(["a", "b"], scale * np.array([[1.0, 1.0], [1.0, 1.0 - 1e-6]]))
        reported = float(str(exc.value).rsplit(" ", 1)[1].rstrip(")"))
        assert reported == pytest.approx(-5e-7 * scale, rel=1e-5)  # in the kernel's units


def partition_classes(g, tmp_path, capsys):
    labels = [str(i) for i in range(len(g))]
    gram = [[[v.real, v.imag] for v in row] for row in np.asarray(g, dtype=complex)]
    kernel = tmp_path / "sampled.json"
    kernel.write_text(json.dumps({"type": "sampled", "labels": labels, "gram": gram}))
    code = main(["partition", str(kernel)])
    assert code == 0
    return json.loads(capsys.readouterr().out)["results"]["classes"]


class TestPartitionScaling:
    # an absolute threshold on the raw entries would split the Szego sample
    # into [[0], [1, 2]] at 1e-9 and into singletons at 1e-12
    @pytest.mark.parametrize("scale", (1e-12, 1e-9) + SCALES[1:])
    def test_classes_at_every_scale(self, scale, tmp_path, capsys):
        szego = szego_gram(np.array([0.0, 0.3, 0.6]))
        assert partition_classes(scale * szego, tmp_path, capsys) == [[0, 1, 2]]
        direct_sum = np.zeros((3, 3))
        direct_sum[:2, :2] = szego_gram(np.array([0.0, 0.5]))
        direct_sum[2, 2] = 2.0
        assert partition_classes(scale * direct_sum, tmp_path, capsys) == [[0, 1], [2]]

    def test_zero_row_stays_a_singleton(self, tmp_path, capsys):
        g = np.zeros((3, 3))
        g[:2, :2] = szego_gram(np.array([0.0, 0.5]))
        assert partition_classes(g, tmp_path, capsys) == [[0, 1], [2]]


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


def disk_automorphism(a, z):
    """phi_a(z) = (a - z) / (1 - conj(a) z), which swaps a and 0."""
    return (a - z) / (1.0 - np.conj(a) * z)


def ball_automorphism(a, z):
    """Rudin's phi_a(z) = (a - P_a z - s_a Q_a z) / (1 - <z, a>) on each row of z, with
    P_a the projection onto a, Q_a = I - P_a and s_a = sqrt(1 - |a|^2) (Function
    Theory in the Unit Ball of C^n, 2.2.1); a must be nonzero."""
    za = z @ a.conj()
    aa = float(np.vdot(a, a).real)
    pz = np.outer(za / aa, a)
    return (a - pz - math.sqrt(1.0 - aa) * (z - pz)) / (1.0 - za)[:, None]


def truncated_series(coeff, *samples) -> PowerSeriesKernel:
    """coeff(n) for the N terms with x_max^N < 1e-18, x_max = max |z|^2 over the
    samples, so truncation stays below rounding (as bench/workloads.series_length)."""
    x_max = max(float(np.max(np.abs(z))) for z in samples) ** 2
    terms = int(math.ceil(math.log(1e-18) / math.log(x_max))) + 1
    return PowerSeriesKernel([coeff(n) for n in range(terms)])


def outcome(check, *args):
    """The verdict of check(*args), or the name of the InputError it raised: a sample
    refused on one side of a symmetry must be refused on the other."""
    try:
        return check(*args)
    except InputError as e:
        return type(e).__name__


def cnp_status(g, base):
    return cnp_sample_check(g, base, TOL).status


def classify_verdict(g, base):
    res = classify(g, base, TOL)
    return res.classification, res.rank


def embed_rank(g, base):
    return agler_mccarthy_embed(g, base, TOL).rank


def level_one_feasible(problem):
    return pick_feasible(problem, 1.0, TOL).is_psd


def disk_draw(rng, n_max=11):
    """n = 3..n_max points with |z| <= 0.6, and a with |a| <= 0.5."""
    z = disk_points(rng, int(rng.integers(3, n_max + 1)), 0.6)
    return z, disk_points(rng, 1, 0.5)[0]


class TestAutomorphismInvariance:
    """1 - phi_a(z) conj(phi_a(w)) = (1 - |a|^2)(1 - z conj w) / ((1 - conj(a) z)(1 - a conj w)),
    and Rudin's identity in the ball is the same with <z, w>. So moving a sample by an
    automorphism changes a Szego, Bergman or Drury-Arveson Gram matrix only by a
    positive diagonal congruence (Bergman by its square), and a level-1 Szego Pick
    matrix likewise, whether the nodes or the targets move. No verdict may change.
    Images lie within radius (0.6 + 0.5) / (1 + 0.3) < 0.85."""

    @pytest.mark.parametrize("name", ["szego", "bergman"])
    @seeded_by(50)
    def test_disk_cnp_check_and_classify(self, name, seed):
        rng = np.random.default_rng(seed)
        coeff = {"szego": lambda n: 1, "bergman": lambda n: n + 1}[name]
        checks = [cnp_status] + ([classify_verdict] if name == "szego" else [])
        for _ in range(4):
            z, a = disk_draw(rng)
            moved = disk_automorphism(a, z)
            kernel = truncated_series(coeff, z, moved)
            g, h = (kernel.gram(PointSet(1, x[:, None])) for x in (z, moved))
            base = int(rng.integers(len(z)))
            for check in checks:
                assert outcome(check, h, base) == outcome(check, g, base), (check.__name__, z, a)

    @seeded_by(50)
    def test_recovered_j_of_a_szego_sample(self, seed):
        # phi_b o phi_a with b = phi_a(z_base) sends z_base to 0, so it is phi_{z_base}
        # times a unimodular constant: with the first non-base value turned real positive,
        # the j recovered from the moved sample is the j recovered from the original
        rng = np.random.default_rng(seed)
        for _ in range(4):
            z, a = disk_draw(rng)
            moved = disk_automorphism(a, z)
            kernel = truncated_series(lambda n: 1, z, moved)
            base = int(rng.integers(len(z)))
            got, want = (classify(kernel.gram(PointSet(1, x[:, None])), base, TOL).j_values for x in (moved, z))
            assert np.allclose(got, want, rtol=0, atol=1e-9), (z, a, base)

    @pytest.mark.parametrize("d", [2, 3])
    @seeded_by(50)
    def test_ball_cnp_check_and_embed(self, d, seed):
        rng = np.random.default_rng(seed)
        kernel = DruryArvesonKernel(d)
        for _ in range(4):
            pts = random_ball_points(rng, int(rng.integers(3, 10)), d, 0.6)
            a = random_ball_points(rng, 1, d, 0.5)[0]
            moved = ball_automorphism(a, pts)
            # Rudin's identity, which makes the change a diagonal congruence
            za = 1 - pts @ a.conj()
            want = (1 - np.vdot(a, a)) * (1 - pts @ pts.conj().T) / np.outer(za, za.conj())
            assert np.allclose(1 - moved @ moved.conj().T, want, rtol=0, atol=1e-14)
            g, h = (kernel.gram(PointSet(d, x)) for x in (pts, moved))
            base = int(rng.integers(len(pts)))
            for check in (cnp_status, embed_rank):
                assert outcome(check, h, base) == outcome(check, g, base), (check.__name__, pts, a)

    @pytest.mark.parametrize("d", [2, 3])
    @seeded_by(50)
    def test_embedded_points_keep_their_gram(self, d, seed):
        # normalize divides out the diagonal congruence exactly, so F = 1 - 1/K~, and
        # with it the Gram <b_i, b_j> of the embedded points, is the same for both
        # samples. Each Gram is within its factor's residual of its computed F. Each
        # computed F_ij is within 32 (d + 2) eps of the exact one: 1/K~_ij is a product
        # and quotient of four factors 1 - <z, w>, each within (d / (1 - 0.85^2) + 1) eps
        # < (3.7 d + 1) eps relative for points of radius below 0.85, with a few more
        # roundings and those of phi_a itself, and |1/K~_ij| = |1 - F_ij| < 2. Over 2000
        # random draws the Grams differed by at most 13 eps.
        rng = np.random.default_rng(seed)
        kernel = DruryArvesonKernel(d)
        for _ in range(4):
            pts = random_ball_points(rng, int(rng.integers(3, 10)), d, 0.6)
            moved = ball_automorphism(random_ball_points(rng, 1, d, 0.5)[0], pts)
            base = int(rng.integers(len(pts)))
            got, want = (agler_mccarthy_embed(kernel.gram(PointSet(d, x)), base, TOL) for x in (moved, pts))
            bound = got.residual + want.residual + 64 * (d + 2) * np.finfo(float).eps
            drift = np.abs(got.b_points @ got.b_points.conj().T - want.b_points @ want.b_points.conj().T)
            assert got.rank == want.rank and drift.max() <= bound, (pts, moved, base)

    @seeded_by(50)
    def test_pick_at_level_one(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(4):
            z, a = disk_draw(rng)
            b = disk_points(rng, 1, 0.5)[0]
            if rng.integers(2):  # s B, B a Blaschke product of lower degree: feasible iff s <= 1
                zeros = disk_points(rng, int(rng.integers(1, len(z))), 0.9)
                w = rng.uniform(0.3, 1.3) * blaschke(z, zeros)
            else:
                w = disk_points(rng, len(z), 0.9)
            moved = disk_automorphism(a, z)
            kernel = truncated_series(lambda n: 1, z, moved)
            nodes = PointSet(1, z[:, None])
            want = outcome(level_one_feasible, PickProblem(kernel=kernel, nodes=nodes, targets=w))
            targets_moved = PickProblem(kernel=kernel, nodes=nodes, targets=disk_automorphism(b, w))
            nodes_moved = PickProblem(kernel=kernel, nodes=PointSet(1, moved[:, None]), targets=w)
            assert outcome(level_one_feasible, targets_moved) == want, (z, w, b)
            assert outcome(level_one_feasible, nodes_moved) == want, (z, w, a)

    @seeded_by(50)
    def test_pick_minimal_norm_under_node_automorphisms(self, seed):
        # at every t the moved nodes' Pick matrix is a positive diagonal congruence of
        # the original one, so the least t at which it is PSD does not move. A draw
        # that the positive-definiteness guard refuses on either side, as it may for
        # near-coincident nodes, says nothing of the norm and is not compared
        rng = np.random.default_rng(seed)
        compared = 0
        for _ in range(4):
            z = disk_points(rng, int(rng.integers(3, 10)), 0.6)
            a = 0.7 * np.exp(2j * np.pi * rng.uniform())
            w = rng.standard_normal(len(z)) + 1j * rng.standard_normal(len(z))
            moved = disk_automorphism(a, z)
            kernel = truncated_series(lambda n: 1, z, moved)
            problem, moved_problem = (
                PickProblem(kernel=kernel, nodes=PointSet(1, x[:, None]), targets=w) for x in (z, moved)
            )
            want, got = minimal_norm_or_refused(problem), minimal_norm_or_refused(moved_problem)
            if want is not None and got is not None:
                assert_same_norm(got, want, moved_problem.gram().entries)
                compared += 1
        assert compared


# ---------------------------------------------------------------------------
# Fock defect and the closure step


class TestDefectScaling:
    @pytest.mark.parametrize("s", [1e-5, 1e-3, 1.0, 1e3, 1e5])
    def test_z1z2_refuted_at_every_scale(self, s, capsys):
        # Arveson's multiplier: defect -0.3 s^2 on the full degree-6 window,
        # which an absolute threshold of -tol would accept for s = 1e-5
        phi = Polynomial.monomial(2, (1, 1), s)
        space = TruncatedSpace(2, 6)
        defect = compression_defect(phi, FockSubspace(space, np.eye(len(space))))
        assert defect == pytest.approx(-0.3 * s * s, rel=1e-12)
        assert defect < -threshold(TOL, defect_scale(phi))
        arg = json.dumps({"dim": 2, "terms": [{"exp": [1, 1], "coeff": s}]})
        code = main(["fock", "defect", "--phi", arg, "--span", "full", "--degree", "6"])
        assert json.loads(capsys.readouterr().out)["results"]["hyponormal_on_this_model"] is False
        assert code == 1

    @pytest.mark.parametrize("c", [0.0, 1e2, 1e5])
    def test_constant_term_changes_nothing(self, c, capsys):
        # M_(c + phi) = c I + M_phi has the self-commutator of M_phi, so
        # neither the defect nor its threshold may grow with c
        phi = Polynomial(2, {(0, 0): c, (1, 1): 1.0})
        space = TruncatedSpace(2, 6)
        defect = compression_defect(phi, FockSubspace(space, np.eye(len(space))))
        assert defect == pytest.approx(-0.3, rel=1e-12)
        assert defect_scale(phi) == 1.0
        terms = [{"exp": [0, 0], "coeff": c}, {"exp": [1, 1], "coeff": 1.0}]
        arg = json.dumps({"dim": 2, "terms": terms})
        code = main(["fock", "defect", "--phi", arg, "--span", "full", "--degree", "6"])
        assert json.loads(capsys.readouterr().out)["results"]["hyponormal_on_this_model"] is False
        assert code == 1


def compose_unitary(phi, u):
    """phi(U z): each coordinate z_i becomes sum_j U_ij z_j."""
    d = phi.dim
    rows = [
        Polynomial(d, {tuple(int(k == j) for k in range(d)): complex(u[i, j]) for j in range(d)})
        for i in range(d)
    ]
    out = Polynomial.zero(d)
    for gamma, c in phi.coeffs.items():
        term = Polynomial.constant(d, c)
        for row, e in zip(rows, gamma):
            term = term * row**e
        out = out + term
    return out


class TestUnitaryInvariance:
    # f -> f(U* z) is unitary on the Drury-Arveson space and keeps each
    # degree, so it maps every degree window onto itself (Arveson, Acta
    # Math. 181, 1998). It carries M_phi to M_(phi o U*) and the kernel
    # function at y to the one at U y.

    @seeded
    def test_full_window_defect(self, seed):
        rng = np.random.default_rng(seed)
        d, degree = int(rng.integers(2, 4)), int(rng.integers(1, 3))
        monomials = [tuple(a) for a in TruncatedSpace(d, degree).exponents.tolist()]
        phi = Polynomial(d, {a: complex(*rng.standard_normal(2)) for a in monomials})
        window = TruncatedSpace(d, 5)
        want = compression_defect(phi, window)
        got = compression_defect(compose_unitary(phi, random_unitary(rng, d)), window)
        # rounding of k x k products (k <= 56) stays near k eps times the scale
        assert abs(got - want) <= 1e-12 * defect_scale(phi)

    @seeded
    def test_closure_with_set_and_point_rotated(self, seed):
        rng = np.random.default_rng(seed)
        n, d = int(rng.integers(2, 6)), int(rng.integers(2, 4))
        y = random_ball_points(rng, n, d)
        u = random_unitary(rng, d)
        for z in (random_ball_points(rng, 1, d)[0], y[0]):
            want = in_closure(z, PointSet(d, y), 5, TOL)
            got = in_closure(u @ z, PointSet(d, y @ u.T), 5, TOL)
            assert got.member == want.member
            assert abs(got.residual - want.residual) <= 1e-12
        assert want.member  # the last z is a point of Y


# operator, dim M (M spanned by the first unit vectors), f, verdicts
CLOSURE_CASES = {
    "normal": (np.diag([2.0, 1j, 0.5]), 2, [1.0, 1.0, 0.0], (True, True)),
    "collapse": ([[1.0, 0.0], [1.0, 0.0]], 1, [1.0, 0.0], (False, False)),
    "swap": ([[0.0, 1.0], [1.0, 0.0]], 1, [1.0, 0.0], (True, False)),
    "jordan": ([[1.0, 1.0], [0.0, 1.0]], 1, [1.0, 0.0], (False, True)),
}
CLOSURE_SCALES = (1e-10, 1e-6, 1e-2, 1.0, 1e2, 1e6)


class TestClosureScaling:
    @pytest.mark.parametrize("name", CLOSURE_CASES)
    def test_verdicts_under_operator_and_vector_scaling(self, name):
        # a floor such as max(1, ||T f||) would pass both checks for small T f
        t, k, f, want = CLOSURE_CASES[name]
        sub = Subspace(np.eye(len(f))[:, :k])
        for s in CLOSURE_SCALES:
            for r in CLOSURE_SCALES:
                got = verify_hyponormal_closure(s * np.asarray(t), sub, r * np.asarray(f), TOL)
                assert got == want, (s, r)


# ---------------------------------------------------------------------------
# Scaling by 2^k over the whole float range


def exponent_range(values, powers):
    """Every k for which each nonzero value * 2^(k * power) stays finite
    and normal. With x = m 2^e, m in [0.5, 1), that is
    -1021 <= e + k * power <= 1024 (math.frexp's convention)."""
    values, powers = np.abs(np.asarray(values, dtype=float)), np.asarray(powers)
    live = (values > 0) & (powers > 0)
    e, p = np.frexp(values[live])[1], powers[live]
    return int(np.max(-((1021 + e) // p))), int(np.min((1024 - e) // p))


def times_power_of_two(values, exponents):
    values = np.asarray(values)
    if np.iscomplexobj(values):
        return np.ldexp(values.real, exponents) + 1j * np.ldexp(values.imag, exponents)
    return np.ldexp(values, exponents)


VERDICT_FIELDS = {
    "partition": ("classes",),
    "reconstruct": ("classification", "rank"),
    "cnp-check": ("status",),
    "embed": ("status", "rank"),
    "ratio-check": ("hyponormal_ok", "np_sufficient_ok", "geometric", "first_violation"),
    "pick": ("mode", "feasible"),
    "fock defect": ("hyponormal_on_this_model", "span_dim"),
}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("power_of_two")


def input_file(data, workdir) -> str:
    fd, path = tempfile.mkstemp(suffix=".json", dir=workdir)  # a new file: rewriting one can be slow
    with os.fdopen(fd, "w") as fh:
        json.dump(data, fh)
    return path


def run_verdict(command, argv, fields=None):
    """Exit code and verdict fields (by default VERDICT_FIELDS[command]) of one
    run, which must warn nothing."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = main(command.split() + argv)
    assert not caught, (command, [str(w.message) for w in caught])
    assert err.getvalue() == "", (command, err.getvalue())
    results = json.loads(out.getvalue())["results"]
    if code == 2:
        return code, results["error"]["type"]
    return code, {field: results.get(field) for field in fields or VERDICT_FIELDS[command]}


def verdict(command, kernel, workdir):
    return run_verdict(command, [input_file(kernel, workdir)])


def sampled_kernel(g):
    labels = [str(i) for i in range(len(g))]
    return {"type": "sampled", "labels": labels, "gram": [[[v.real, v.imag] for v in row] for row in g]}


GRAM_COMMANDS = ("partition", "reconstruct", "cnp-check", "embed")
FIVE_POINT_SZEGO = szego_gram(np.array([0, 0.3, 0.5j, -0.4, 0.2 + 0.2j]))


def random_gram(rng, name):
    n = int(rng.integers(2, 7))
    if name == "ball":
        d = int(rng.integers(2, 4))
        return DruryArvesonKernel(d).gram(PointSet(d, random_ball_points(rng, n, d))).entries
    if name == "direct_sum":
        g = np.zeros((n + 2, n + 2), dtype=complex)
        g[:n, :n] = szego_gram(disk_points(rng, n))
        g[n:, n:] = szego_gram(disk_points(rng, 2))
        return g
    return disk_sample(rng, CNP_KERNELS[name], n).entries


def random_coeffs(rng, name):
    n = np.arange(int(rng.integers(3, 13)), dtype=float)
    if name == "geometric":
        return float(rng.uniform(0.1, 10.0)) ** n
    if name == "bergman":
        return n + 1.0
    if name == "dirichlet":
        return 1.0 / (n + 1.0)
    steps = np.exp(rng.normal(0.0, 1.0, len(n) - 1))  # random successive ratios
    return np.concatenate([[1.0], np.cumprod(steps)])


def complex_lists(values):
    """Rows of [re, im] pairs, as the input files spell complex numbers."""
    return [[[v.real, v.imag] for v in row] for row in np.atleast_2d(values)]


def pick_verdict(kernel, targets, options, workdir, points=None, fields=None):
    """pick on a problem file; nodes are the kernel's labels unless points are given."""
    nodes = kernel["labels"] if points is None else complex_lists(points)
    problem = {"kernel": kernel, "nodes": nodes, "targets": complex_lists(targets)[0]}
    return run_verdict("pick", [input_file(problem, workdir)] + options, fields)


def defect_verdict(coeffs, dim, options):
    terms = [{"exp": list(a), "coeff": [c.real, c.imag]} for a, c in coeffs.items()]
    return run_verdict("fock defect", ["--phi", json.dumps({"dim": dim, "terms": terms})] + options)


def repro_multiplier(c):
    """c z1 z2 + (c/2) z1^2: defect -0.6686 c^2 on the degree-6 window, 28 monomials."""
    return {(1, 1): complex(c), (2, 0): complex(c / 2)}


class TestPowerOfTwoScaling:
    """Multiplying by 2^k is exact in binary floating point, barring overflow
    and underflow (Higham, Accuracy and Stability of Numerical Algorithms,
    ch. 2), so each verdict, exit code and the silence of stderr must be
    those of k = 0 at both ends of the normal range and at a k in between."""

    @pytest.mark.parametrize("name", ["szego", "bergman", "dirichlet", "ball", "direct_sum"])
    @seeded
    def test_sampled_grams(self, name, seed, workdir):
        rng = np.random.default_rng(seed)
        g = random_gram(rng, name)
        parts = np.concatenate([g.real.ravel(), g.imag.ravel()])
        lo, hi = exponent_range(parts, np.ones(parts.size))
        for command in GRAM_COMMANDS:
            want = verdict(command, sampled_kernel(g), workdir)
            for k in (lo, int(rng.integers(lo, hi + 1)), hi):
                got = verdict(command, sampled_kernel(times_power_of_two(g, k)), workdir)
                assert got == want, (command, k)

    @pytest.mark.parametrize("name", ["geometric", "bergman", "dirichlet", "random"])
    @seeded
    def test_power_series_coefficients(self, name, seed, workdir):
        rng = np.random.default_rng(seed)
        a = random_coeffs(rng, name)
        n = np.arange(len(a))
        lo, hi = exponent_range(a, n)
        want = verdict("ratio-check", {"type": "power_series", "coeffs": a.tolist()}, workdir)
        for k in (lo, int(rng.integers(lo, hi + 1)), hi):
            scaled_a = times_power_of_two(a, k * n).tolist()
            got = verdict("ratio-check", {"type": "power_series", "coeffs": scaled_a}, workdir)
            assert got == want, k

    # the five-point Szego sample: from 2^512 up, G_ii G_jj is beyond the
    # float range, and from 2^-1000 down it is below it
    @pytest.mark.parametrize("k", [-1020, -1000, 512, 1000])
    def test_five_point_szego_sample(self, k, workdir):
        kernel = sampled_kernel(times_power_of_two(FIVE_POINT_SZEGO, k))
        assert verdict("partition", kernel, workdir) == (0, {"classes": [[0, 1, 2, 3, 4]]})
        want = (0, {"classification": HARDY_EQUIVALENT, "rank": 1})
        assert verdict("reconstruct", kernel, workdir) == want

    @pytest.mark.parametrize(
        "coeffs, code, fields",
        [
            # a_1^2 = 1e400 and a_3^2 = 1e600 are beyond the float range
            ([1, 1e200, 1e250, 1e300], 0, (True, False, False, 1)),
            # a_3^2 = 1e-480 < a_2 a_4 = 2e-480, both below the float range, refutes at 3
            ([1, 1e-80, 1e-160, 1e-240, 2e-320], 1, (False, True, False, 3)),
        ],
    )
    def test_ratio_scan_beyond_the_float_range(self, coeffs, code, fields, workdir):
        got = verdict("ratio-check", {"type": "power_series", "coeffs": coeffs}, workdir)
        assert got == (code, dict(zip(VERDICT_FIELDS["ratio-check"], fields)))

    def test_ratio_scan_under_geometric_weights(self, workdir):
        # a_n -> c^n a_n keeps both ratio monotonicities; at c = 1e70 the
        # squares of a_n = (n + 1) c^n are beyond the float range
        want = (0, dict(zip(VERDICT_FIELDS["ratio-check"], (True, False, False, 1))))
        for c in (1.0, 1e50, 1e70):
            kernel = {"type": "power_series", "coeffs": [(n + 1) * c**n for n in range(5)]}
            assert verdict("ratio-check", kernel, workdir) == want, c

    @pytest.mark.parametrize("name", ["szego", "bergman", "ball"])
    @seeded
    def test_pick_on_sampled_grams(self, name, seed, workdir):
        rng = np.random.default_rng(seed)
        g = random_gram(rng, name)
        w = 0.8 * disk_points(rng, len(g), 1.0)
        norm = ["--norm", repr(float(rng.uniform(0.5, 1.5)))]
        parts = np.concatenate([g.real.ravel(), g.imag.ravel()])
        lo, hi = exponent_range(parts, np.ones(parts.size))
        for options in ([], norm):
            want = pick_verdict(sampled_kernel(g), w, options, workdir)
            for k in (lo, int(rng.integers(lo, hi + 1)), hi):
                got = pick_verdict(sampled_kernel(times_power_of_two(g, k)), w, options, workdir)
                assert got == want, (options, k)

    @pytest.mark.parametrize("name", ["szego", "bergman", "ball"])
    @seeded
    def test_pick_minimal_norm_scales_with_the_targets(self, name, seed, workdir):
        # t* is homogeneous in the targets and computed for w 2^-e, so t*(2^k w)
        # is 2^k t*(w) bit for bit while the parts of 2^k w and 2^k t* are normal
        rng = np.random.default_rng(seed)
        g = random_gram(rng, name)
        w = 0.8 * disk_points(rng, len(g), 1.0)
        code, got = pick_verdict(sampled_kernel(g), w, [], workdir, fields=["minimal_norm"])
        assert code == 0
        t = got["minimal_norm"]
        parts = np.concatenate([w.real, w.imag, [t]])
        lo, hi = exponent_range(parts, np.ones(parts.size))
        for k in (lo, int(rng.integers(lo, hi + 1)), hi):
            scaled = pick_verdict(
                sampled_kernel(g), times_power_of_two(w, k), [], workdir, fields=["minimal_norm"]
            )
            assert scaled == (0, {"minimal_norm": math.ldexp(t, k)}), k

    # the pick-scale problem, a Szego Gram times 1e-6, with target 1 at 1e308:
    # t* = 5.14 * 2^1024, and the product w_i L, unscaled, would overflow
    def test_pick_minimal_norm_beyond_the_float_range_refused(self, workdir):
        g = 1e-6 * szego_gram(np.array([0, 0.3, 0.5j, -0.4]))
        w = np.array([0, 1e308, 0.2, 0.1j])
        assert pick_verdict(sampled_kernel(g), w, [], workdir) == (2, "InputError")

    @seeded
    def test_pick_targets_and_norm_together(self, seed, workdir):
        # feasibility depends on w / t only
        rng = np.random.default_rng(seed)
        n, d = int(rng.integers(1, 6)), int(rng.integers(1, 3))
        kernel = {"type": "drury_arveson", "dim": d}
        points = random_ball_points(rng, n, d)
        w = 0.8 * disk_points(rng, n, 1.0)
        t = float(rng.uniform(0.5, 1.5))
        parts = np.concatenate([w.real, w.imag, [t]])
        lo, hi = exponent_range(np.square(parts), np.full(parts.size, 2))
        want = pick_verdict(kernel, w, ["--norm", repr(t)], workdir, points)
        for k in (lo, int(rng.integers(lo, hi + 1)), hi):
            options = ["--norm", repr(math.ldexp(t, k))]
            got = pick_verdict(kernel, times_power_of_two(w, k), options, workdir, points)
            assert got == want, k

    @pytest.mark.parametrize("span", ["full", "kernel", "powers"])
    @seeded
    def test_fock_defect_multipliers(self, span, seed, workdir):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(1, 4))
        degree = {1: 8, 2: 5, 3: 3}[d]
        monomials = [tuple(a) for a in TruncatedSpace(d, 2).exponents.tolist()]
        picked = rng.choice(len(monomials), size=int(rng.integers(1, 4)), replace=False)
        coeffs = {monomials[i]: complex(*rng.standard_normal(2)) for i in picked}
        phi = Polynomial(d, coeffs)
        options = ["--span", span, "--degree", str(degree)]
        if span == "kernel":
            points = {"dim": d, "points": complex_lists(random_ball_points(rng, 3, d))}
            options += ["--points", input_file(points, workdir)]
        c = np.array(list(coeffs.values()))
        parts = np.concatenate([c.real, c.imag])
        lo, hi = exponent_range(parts, np.ones(parts.size))
        if defect_scale(phi):
            squared = exponent_range([defect_scale(phi)], [2])
            lo, hi = max(lo, squared[0]), min(hi, squared[1])
        want = defect_verdict(coeffs, d, options)
        for k in (lo, int(rng.integers(lo, hi + 1)), hi):
            scaled = {a: complex(*times_power_of_two([v.real, v.imag], k)) for a, v in coeffs.items()}
            assert defect_verdict(scaled, d, options) == want, k

    # the Drury-Arveson problem of the Pick repro: at norm 1.2 it is
    # infeasible with min_eig -2.0e-3; scaled by 1e-4 and below, an absolute
    # floor on t^2 accepted it
    @pytest.mark.parametrize("s", [1.0, 1e-4, 1e-5, 1e-6])
    def test_pick_targets_and_norm_scaled_by_decimals(self, s, workdir):
        kernel = {"type": "drury_arveson", "dim": 1}
        points = np.array([[0], [0.3], [0.5j], [-0.4]])
        w = s * np.array([0, 0.1, 0.2, 0.1j])
        got = pick_verdict(kernel, w, ["--norm", repr(1.2 * s)], workdir, points)
        assert got == (1, {"mode": "feasibility", "feasible": False})

    def test_defect_over_the_range_of_squares(self):
        for k in range(-511, 512):
            got = defect_verdict(repro_multiplier(2.0**k), 2, ["--span", "full", "--degree", "6"])
            assert got == (1, {"hyponormal_on_this_model": False, "span_dim": 28}), k

    @pytest.mark.parametrize("c", [2.0**512, 2.0**600, 2.0**-512, 2.0**-560])
    def test_defect_scale_beyond_the_range_refused(self, c):
        got = defect_verdict(repro_multiplier(c), 2, ["--span", "full", "--degree", "6"])
        assert got == (2, "InputError")

    # the powers of phi grow like s^k, and the rank rule cut them relative to
    # the largest, so the span shrank as the scale of phi moved away from 1
    @pytest.mark.parametrize(
        "s, degree, span_dim",
        [(1e3, 12, 7), (1e-3, 12, 7), (2.0**200, 6, 4), (2.0**-200, 6, 4), (2.0**400, 6, 4)],
    )
    def test_powers_span_at_every_scale(self, s, degree, span_dim):
        got = defect_verdict(repro_multiplier(s), 2, ["--span", "powers", "--degree", str(degree)])
        assert got == (1, {"hyponormal_on_this_model": False, "span_dim": span_dim})



class TestPhaseInvariance:
    # U z^alpha = e^{i <theta, alpha>} z^alpha is a diagonal unitary on every degree
    # window, with U M_{z^g} U* = e^{i <theta, g>} M_{z^g}, and S(e^{i psi} T) = S(T):
    # turning each c_g into c_g e^{i(psi + <theta, g>)} keeps the spectrum of the full
    # window's self-commutator, for any number of terms

    @pytest.mark.parametrize("dim, degree", [(1, 40), (1, 80), (2, 9), (2, 11), (3, 5), (3, 6)])
    @seeded
    def test_full_window_defect(self, dim, degree, seed):
        # span_dim is the window's k
        rng = np.random.default_rng(seed)
        coeffs = self.random_coeffs(rng, dim)
        theta, psi = rng.uniform(0, 2 * np.pi, dim), rng.uniform(0, 2 * np.pi)
        turned = {g: c * np.exp(1j * (psi + np.dot(theta, g))) for g, c in coeffs.items()}
        options = ["--span", "full", "--degree", str(degree)]
        self.assert_same_defect([self.defect_run(c, dim, options) for c in (coeffs, turned)], coeffs, dim)

    # the kernel vector at D y = (e^{i theta_j} y_j) is U* k_y, so the kernel span of D Y is
    # U* F, on which M_phi' for c_g e^{i(psi - <theta, g>)} is e^{i psi} U* (P_F M_phi|_F) U.
    # Wedin: the computed basis of F moves by about eps cond(K), K the kernel vectors
    @pytest.mark.parametrize("dim, degree", [(1, 12), (2, 5), (3, 3)])
    @seeded
    def test_kernel_span_defect(self, dim, degree, seed, workdir):
        rng = np.random.default_rng(seed)
        coeffs = self.random_coeffs(rng, dim)
        theta, psi = rng.uniform(0, 2 * np.pi, dim), rng.uniform(0, 2 * np.pi)
        turned = {g: c * np.exp(1j * (psi - np.dot(theta, g))) for g, c in coeffs.items()}
        points = random_ball_points(rng, int(rng.integers(1, 5)), dim)
        runs = []
        for c, y in ((coeffs, points), (turned, points * np.exp(1j * theta))):
            path = input_file({"dim": dim, "points": complex_lists(y)}, workdir)
            options = ["--span", "kernel", "--points", path, "--degree", str(degree)]
            runs.append(self.defect_run(c, dim, options))
        s = np.linalg.svd(TruncatedSpace(dim, degree).kernel_vector(points), compute_uv=False)
        self.assert_same_defect(runs, coeffs, dim, s[0] / s[-1])

    # U z^alpha = e^{i <theta, alpha>} z^alpha is multiplicative, so the powers of phi'
    # for c_g e^{i(psi + <theta, g>)} are e^{i n psi} U phi^n and span U F
    @pytest.mark.parametrize("dim, degree", [(1, 12), (2, 6), (3, 4)])
    @seeded
    def test_powers_span_defect(self, dim, degree, seed):
        rng = np.random.default_rng(seed)
        coeffs = self.random_coeffs(rng, dim)
        theta, psi = rng.uniform(0, 2 * np.pi, dim), rng.uniform(0, 2 * np.pi)
        turned = {g: c * np.exp(1j * (psi + np.dot(theta, g))) for g, c in coeffs.items()}
        options = ["--span", "powers", "--degree", str(degree)]
        self.assert_same_defect([self.defect_run(c, dim, options) for c in (coeffs, turned)], coeffs, dim)

    @staticmethod
    def random_coeffs(rng, dim):
        exps = [tuple(a) for a in TruncatedSpace(dim, 3).exponents.tolist() if any(a)]
        picked = rng.choice(len(exps), size=min(int(rng.integers(1, 6)), len(exps)), replace=False)
        return {exps[i]: complex(*rng.standard_normal(2)) for i in picked}

    @staticmethod
    def defect_run(coeffs, dim, options):
        terms = [{"exp": list(g), "coeff": [v.real, v.imag]} for g, v in coeffs.items()]
        phi = json.dumps({"dim": dim, "terms": terms})
        fields = ("hyponormal_on_this_model", "span_dim", "defect")
        return run_verdict("fock defect", ["--phi", phi] + options, fields)

    @staticmethod
    def assert_same_defect(runs, coeffs, dim, cond=1.0):
        """Same exit code, verdict and span; defects within 4 k eps cond defect_scale(phi)."""
        (code, want), (got_code, got) = runs
        assert got_code == code
        assert got["hyponormal_on_this_model"] == want["hyponormal_on_this_model"]
        assert got["span_dim"] == want["span_dim"]
        bound = 4 * want["span_dim"] * np.finfo(float).eps * cond * defect_scale(Polynomial(dim, coeffs))
        assert abs(got["defect"] - want["defect"]) <= bound
