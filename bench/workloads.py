"""Seeded workloads: the requests each round sends, and how each report is checked.

build(name, seed, outdir) writes every input file a round needs into outdir
and returns the round as a list of Request. The program sees only those
files and the argument vectors. Sizes and request kinds are fixed per
workload; the seed draws the points, coefficients, scales and targets, so
two seeds cost about the same and check against different numbers.

Requests marked with a fault use fixed inputs that do not depend on the
seed. They reproduce a known defect of the program, fail their check on
every round, and are counted as failed operations. Their fault is a second
check, the defect's signature: a report that fails its check in any other
way is an unexpected failure, and one that passes shows the defect repaired.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

import reference as ref

TOL = 1e-9  # the CLI default --tol, which every request uses


class Mismatch(Exception):
    """A report disagrees with the independent computation."""


@dataclass(frozen=True)
class Request:
    label: str
    argv: list
    check: Callable[[dict], None]
    fault: Optional[Callable[[dict], None]] = None  # the known defect's signature


# ---------------------------------------------------------------------------
# check helpers


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise Mismatch(what)


def close(got: float, want: float, atol: float, what: str) -> None:
    if not abs(got - want) <= atol:
        raise Mismatch(f"{what}: got {got!r}, want {want!r} (atol {atol:.1e})")


def cplx(pair) -> complex:
    return complex(pair[0], pair[1])


def cvec(pairs) -> np.ndarray:
    return np.array([cplx(p) for p in pairs], dtype=np.complex128)


def cmat(rows) -> np.ndarray:
    return np.array([[cplx(p) for p in row] for row in rows], dtype=np.complex128).reshape(
        len(rows), -1
    )


def frac(x) -> float:
    return int(x["num"]) / int(x["den"])


def results(report: dict, exit_code: int) -> dict:
    expect(report["exit_code"] == exit_code, f"exit code {report['exit_code']} != {exit_code}")
    res = report["results"]
    expect("error" not in res, f"unexpected error {res.get('error')}")
    return res


# ---------------------------------------------------------------------------
# input generation


def series_length(x_max: float, decay: float = 1.0) -> int:
    """Terms N with decay * x_max^N below 1e-18, so truncation is below rounding."""
    return int(math.ceil(math.log(1e-18 / decay) / math.log(x_max))) + 1


def disk_points(rng, n: int, radius: float, sep: float) -> np.ndarray:
    """n points with |z| <= radius and pairwise pseudo-hyperbolic distance >= sep."""
    pts: list = []
    while len(pts) < n:
        z = radius * math.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
        if all(abs(z - p) / abs(1 - z * p.conjugate()) >= sep for p in pts):
            pts.append(z)
    return np.array(pts, dtype=np.complex128)


def sphere_point(rng, dim: int) -> np.ndarray:
    x = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return x / np.linalg.norm(x)


def ball_points(rng, n: int, dim: int, radius: float, sep: float) -> np.ndarray:
    """n points in the ball of C^dim, pairwise pseudo-hyperbolic distance >= sep."""
    pts: list = []
    while len(pts) < n:
        z = sphere_point(rng, dim) * radius * rng.uniform() ** (1.0 / (2 * dim))
        ok = True
        for p in pts:
            rho_c = (1 - np.vdot(z, z).real) * (1 - np.vdot(p, p).real) / abs(1 - np.vdot(p, z)) ** 2
            if 1.0 - rho_c < sep * sep:
                ok = False
                break
        if ok:
            pts.append(z)
    return np.array(pts, dtype=np.complex128)


def pair(z: complex) -> list:
    return [float(z.real), float(z.imag)]


class Inputs:
    """Writes input files into one directory under fresh names."""

    def __init__(self, outdir: Path):
        self.outdir = outdir
        self.count = 0

    def write(self, obj) -> str:
        self.count += 1
        path = self.outdir / f"in{self.count:03d}.json"
        path.write_text(json.dumps(obj))
        return str(path)

    def points(self, z: np.ndarray) -> str:
        z2 = z.reshape(len(z), -1)
        return self.write({"dim": z2.shape[1], "points": [[pair(c) for c in p] for p in z2]})

    def sampled(self, g: np.ndarray) -> str:
        n = g.shape[0]
        return self.write(
            {
                "type": "sampled",
                "labels": [f"p{i}" for i in range(n)],
                "gram": [[pair(v) for v in row] for row in g],
            }
        )


def power_series(coeffs) -> dict:
    return {"type": "power_series", "coeffs": [float(c) for c in coeffs]}


def geometric_coeffs(c: float, x_max: float) -> list:
    """a_k = c^k for c <= 1, as many terms as c = 1 needs, so cost does not
    depend on c."""
    return [c**k for k in range(series_length(x_max))]


def bergman_coeffs(x_max: float) -> list:
    return [k + 1 for k in range(series_length(x_max, 200.0))]


def dirichlet_coeffs(x_max: float) -> list:
    return [1.0 / (k + 1) for k in range(series_length(x_max))]


def poly_json(phi: dict) -> str:
    dim = len(next(iter(phi)))
    return json.dumps(
        {"dim": dim, "terms": [{"exp": list(a), "coeff": pair(c)} for a, c in phi.items()]}
    )


def random_phi(rng, dim: int) -> dict:
    """Two or three terms of degree 1 or 2 with complex float coefficients."""
    alphas = [a for a in ref.monomials(dim, 2) if sum(a) >= 1]
    picks = rng.choice(len(alphas), size=int(rng.integers(2, 4)), replace=False)
    return {
        alphas[i]: complex(rng.uniform(0.2, 1.0), rng.uniform(-1.0, 1.0)) for i in sorted(picks)
    }


# ---------------------------------------------------------------------------
# checks shared by the workloads


def check_hardy(w: np.ndarray, g_ref: np.ndarray):
    """Reconstruction of a kernel delta_i conj(delta_j) / (1 - w_i conj(w_j)).

    The disk points j are the Moebius image of w moving w_0 to 0, up to a
    rotation: |j_i| = rho(w_i, w_0) and rho(j_i, j_k) = rho(w_i, w_k).
    """
    rho = ref.pseudo_hyperbolic(w, w)
    delta_ref = ref.base_delta(g_ref, 0)

    def check(report):
        res = results(report, 0)
        expect(res["classification"] == "hardy_equivalent", f"classified {res['classification']}")
        expect(res["rank"] == 1, f"rank {res['rank']}")
        delta = cvec(res["delta"])
        close(float(np.max(np.abs(delta - delta_ref))), 0.0, 1e-9 * np.max(np.abs(delta_ref)), "delta")
        j = cvec(res["j_values"])
        expect(j[0] == 0, "j at the base is not 0")
        expect(abs(j[1].imag) <= 1e-12 * abs(j[1]) and j[1].real > 0, "first non-base j is not real positive")
        close(float(np.max(np.abs(np.abs(j) - rho[:, 0]))), 0.0, 1e-7, "|j| against rho(w, w_0)")
        close(float(np.max(np.abs(ref.pseudo_hyperbolic(j, j) - rho))), 0.0, 1e-7, "rho(j) against rho(w)")
        expect(res["factorization_residual"] <= 1e-8, "factorization residual")
        expect(res["embedding_residual"] <= 1e-8, "embedding residual")

    return check


def check_higher_rank(g_ref: np.ndarray, rank: int):
    delta_ref = ref.base_delta(g_ref, 0)

    def check(report):
        res = results(report, 0)
        expect(res["classification"] == "higher_rank", f"classified {res['classification']}")
        expect(res["rank"] == rank, f"rank {res['rank']} != {rank}")
        expect(res["j_values"] is None, "higher rank must not report j")
        delta = cvec(res["delta"])
        close(float(np.max(np.abs(delta - delta_ref))), 0.0, 1e-9 * np.max(np.abs(delta_ref)), "delta")
        expect(res["embedding_residual"] <= 1e-8, "embedding residual")

    return check


def check_embed(g_ref: np.ndarray, rank: int):
    f = ref.one_minus_inverse(g_ref, 0)
    scale = max(1.0, float(np.max(np.abs(f))))

    def check(report):
        res = results(report, 0)
        expect(res["status"] == "embedded", res["status"])
        expect(res["rank"] == rank, f"rank {res['rank']} != {rank}")
        b = cmat(res["b_points"])
        expect(b.shape == (f.shape[0], rank), f"b_points shape {b.shape}")
        expect(not np.any(b[0]), "base point is not the origin")
        expect(bool(np.all(np.linalg.norm(b, axis=1) < 1.0)), "b point outside the ball")
        close(float(np.max(np.abs(b @ b.conj().T - f))), 0.0, 1e-9 * scale, "<b_i, b_j> against 1 - 1/K~")
        expect(res["residual"] <= 1e-9 * scale, f"reported residual {res['residual']:.3e}")

    return check


MARGIN = 1e-6  # least eigenvalue of F below -MARGIN * scale: a clear refutation


def check_cnp(g_ref: np.ndarray, consistent: bool):
    lo, hi = ref.eig_extremes(ref.one_minus_inverse(g_ref, 0))
    scale = max(1.0, hi)
    if consistent:
        expect(lo >= -1e-12 * scale, f"reference F has least eigenvalue {lo:.3e}")
    else:
        expect(lo <= -MARGIN * scale, f"reference F refutes only by {lo:.3e}")

    def check(report):
        res = results(report, 0 if consistent else 1)
        want = "consistent" if consistent else "certified_not_cnp"
        expect(res["status"] == want, f"status {res['status']} != {want}")
        close(res["min_eig"], lo, 1e-9 * scale, "min_eig")

    return check


def check_partition(classes: list):
    def check(report):
        res = results(report, 0)
        expect(res["classes"] == classes, f"classes {res['classes']}")
        expect(res["count"] == len(classes), "class count")

    return check


def check_pick_norm(s: float, atol: float = TOL):
    """Minimal norm s to the documented absolute accuracy tol."""

    def check(report):
        res = results(report, 0)
        expect(res["mode"] == "minimal_norm", res["mode"])
        close(res["minimal_norm"], s, atol, "minimal norm")

    return check


def check_pick_short(s: float):
    """Signature of the pick-accuracy fault: an answer below s by more than
    tol, but by no more than the largest miss seen."""

    def check(report):
        res = results(report, 0)
        expect(res["mode"] == "minimal_norm", res["mode"])
        got = res["minimal_norm"]
        expect(s - FAULT_PICK_WORST <= got <= s - TOL, f"minimal norm {got!r} not just below {s!r}")

    return check


def check_pick_feasible(g_ref: np.ndarray, w: np.ndarray, t: float, feasible: bool):
    lo, hi = ref.eig_extremes(ref.pick_matrix(g_ref, w, t))

    def check(report):
        res = results(report, 0 if feasible else 1)
        expect(res["mode"] == "feasibility" and res["norm_level"] == t, "mode or norm level")
        expect(res["feasible"] is feasible, f"feasible {res['feasible']} at t = {t}")
        close(res["min_eig"], lo, 1e-9 * max(1.0, abs(hi), abs(lo)), "Pick min_eig")

    return check


def check_defect(m: np.ndarray, q: np.ndarray):
    want = ref.compressed_defect(m, q)
    scale = max(1.0, float(np.linalg.norm(m, 2)) ** 2)

    def check(report):
        res = report["results"]
        expect(report["exit_code"] == (0 if res.get("hyponormal_on_this_model") else 1), "exit code")
        expect(res["span_dim"] == q.shape[1], f"span_dim {res['span_dim']} != {q.shape[1]}")
        close(res["defect"], want, 1e-8 * scale, "compression defect")
        expect(res["hyponormal_on_this_model"] is (res["defect"] >= -TOL), "hyponormal flag")

    return check


def check_balance(z: np.ndarray, degree: int, within: bool = True):
    """Both norms equal sum_{n=2}^{N+1} ||z||^(2n); on the truncated model they
    agree exactly, so the balance must hold within the reported bound.

    within=False is the signature of the tail-balance fault: the same norms,
    reported outside a tail bound that has dropped below rounding (exit 1).
    """
    want = ref.tail_norms(float(np.vdot(z, z).real), degree)

    def check(report):
        res = report["results"]
        close(res["adjoint_norm_sq"], want, 1e-12 * want, "adjoint norm^2")
        close(res["forward_norm_sq"], want, 1e-12 * want, "forward norm^2")
        expect(res["within_bound"] is within, f"within_bound {res['within_bound']}")
        expect(report["exit_code"] == (0 if within else 1), f"exit code {report['exit_code']}")

    return check


# ---------------------------------------------------------------------------
# workloads


def sample_verdicts(rng, inputs: Inputs) -> list:
    """Verdicts on samples of a few dozen points: O(n^2) Gram assembly and
    distinctness loops, the O(n^4) irreducibility test, eigensolves."""
    reqs = []
    r = 0.8

    c = rng.uniform(0.6, 1.0)
    z = disk_points(rng, 48, r, 0.05)
    reqs.append(
        Request(
            "reconstruct/geometric48",
            ["reconstruct", inputs.write(power_series(geometric_coeffs(c, r * r))), "--points", inputs.points(z)],
            check_hardy(math.sqrt(c) * z, ref.szego_gram(z, c)),
        )
    )
    z = disk_points(rng, 48, r, 0.05)
    reqs.append(
        Request(
            "cnp-check/bergman48",
            ["cnp-check", inputs.write(power_series(bergman_coeffs(r * r))), "--points", inputs.points(z)],
            check_cnp(ref.bergman_gram(z), consistent=False),
        )
    )
    z = disk_points(rng, 48, r, 0.05)
    reqs.append(
        Request(
            "cnp-check/dirichlet48",
            ["cnp-check", inputs.write(power_series(dirichlet_coeffs(r * r))), "--points", inputs.points(z)],
            check_cnp(ref.dirichlet_gram(z), consistent=True),
        )
    )
    for dim in (2, 3):
        da = inputs.write({"type": "drury_arveson", "dim": dim})
        z = ball_points(rng, 40, dim, r, 0.05)
        reqs.append(
            Request(f"embed/ball{dim}-40", ["embed", da, "--points", inputs.points(z)], check_embed(ref.ball_gram(z), dim))
        )
        z = ball_points(rng, 40, dim, r, 0.05)
        reqs.append(
            Request(
                f"reconstruct/ball{dim}-40",
                ["reconstruct", da, "--points", inputs.points(z)],
                check_higher_rank(ref.ball_gram(z), dim),
            )
        )
    z = disk_points(rng, 40, r, 0.05)
    delta = rng.uniform(0.5, 2.0, 40) * np.exp(2j * np.pi * rng.uniform(size=40))
    g = np.outer(delta, delta.conj()) * ref.szego_gram(z)
    reqs.append(Request("reconstruct/sampled-szego40", ["reconstruct", inputs.sampled(g)], check_hardy(z, g)))
    z = ball_points(rng, 40, 3, r, 0.05)
    reqs.append(
        Request(
            "cnp-check/ball3-40",
            ["cnp-check", inputs.write({"type": "drury_arveson", "dim": 3}), "--points", inputs.points(z)],
            check_cnp(ref.ball_gram(z), consistent=True),
        )
    )
    reqs.append(direct_sum_partition(rng, inputs, 30, 30, "partition/direct-sum60"))
    z = ball_points(rng, 40, 2, r, 0.05)
    reqs.append(
        Request(
            "partition/ball2-40",
            ["partition", inputs.write({"type": "drury_arveson", "dim": 2}), "--points", inputs.points(z)],
            check_partition([list(range(40))]),
        )
    )
    return reqs


def direct_sum_partition(rng, inputs: Inputs, n1: int, n2: int, label: str) -> Request:
    """Szego Grams of two samples as an orthogonal sum, rows shuffled."""
    n = n1 + n2
    g = np.zeros((n, n), dtype=np.complex128)
    g[:n1, :n1] = ref.szego_gram(disk_points(rng, n1, 0.8, 0.05))
    g[n1:, n1:] = ref.szego_gram(disk_points(rng, n2, 0.8, 0.05))
    perm = rng.permutation(n)
    inv = np.argsort(perm)
    g = g[np.ix_(perm, perm)]
    classes = sorted([sorted(int(inv[i]) for i in range(n1)), sorted(int(inv[i]) for i in range(n1, n))])
    return Request(label, ["partition", inputs.sampled(g)], check_partition(classes))


def pick_problem(kernel: dict, z: np.ndarray, w: np.ndarray) -> dict:
    return {"kernel": kernel, "nodes": [[pair(x)] for x in z], "targets": [pair(x) for x in w]}


def sampled_pick_problem(g: np.ndarray, w: np.ndarray) -> dict:
    labels = [f"p{i}" for i in range(g.shape[0])]
    kernel = {"type": "sampled", "labels": labels, "gram": [[pair(v) for v in row] for row in g]}
    return {"kernel": kernel, "nodes": labels, "targets": [pair(x) for x in w]}


# Fixed inputs of the known faults; none depends on the seed.
FAULT_PICK_NODES = np.array([0, 0.1, 0.2, 0.3], dtype=np.complex128)
FAULT_PICK_ZEROS = (0.5, 0.6, 0.7)
FAULT_PICK_S = 1.0
FAULT_PICK_WORST = 6e-2  # largest miss seen on random 3-8 node problems
FAULT_SCALE_NODES = np.array([0, 0.3, 0.5j, -0.4])
FAULT_SCALE_TARGETS = np.array([0, 0.1, 0.2, 0.1j])
FAULT_SCALE = 1e-6
FAULT_SCALE_ANSWER = 1.3407  # what the program answers, against 1.47247
FAULT_TAIL = {"type": "polynomial_tail", "c": 0.5, "p": -1e-6}
FAULT_BALANCE_Z = np.array([0.5 + 0.1j, 0.3 - 0.2j])
FAULT_BALANCE_DEGREE = 60


# Pick nodes this far apart keep the least Gram eigenvalue above 1e-6, clear
# of the absolute positive-definiteness guard of minimal_interpolation_norm.
PICK_SEP = 0.35


def pick_targets(rng, z: np.ndarray):
    """Targets s B(z) for a Blaschke factor B with one zero near the circle,
    and their minimal norm s.

    With fewer zeros than nodes the minimal norm is s (the unique extremal
    is s B), while max |w_i| is at least 1.7e-4 below s. The Pick matrix at
    t = s has rank one, so just below s it is negative on the n - 1
    dimensional null space and its largest eigenvalue stays small: the
    relative slack of psd_check moves the bisection's threshold by well
    under tol here (at most 0.67 tol in 2100 random problems), unlike
    targets whose Pick matrix has rank n - 1 (fault/pick-accuracy).
    """
    s = rng.uniform(2.0, 4.0)
    a = rng.uniform(0.995, 0.9995) * np.exp(2j * np.pi * rng.uniform())
    return s * ref.blaschke(z, [a]), s


def small_requests(rng, inputs: Inputs) -> list:
    """Many requests on a few points or terms: per-request fixed costs
    (argument parsing, JSON, validation, tiny eigensolves) and the Pick
    bisection dominate."""
    reqs = []
    r = 0.7
    szego = power_series([1.0] * series_length(r * r))

    # Minimal norm with targets s * B(z), one zero: the answer is s.
    for n in (3, 5, 7, 10):
        z = disk_points(rng, n, r, PICK_SEP)
        w, s = pick_targets(rng, z)
        close(ref.pick_norm_closed_form(ref.szego_gram(z), w), s, 1e-9, "reference Pick norm")
        reqs.append(Request(f"pick/min-norm{n}", ["pick", inputs.write(pick_problem(szego, z, w))], check_pick_norm(s)))
    # The same kind of problem as a sampled kernel at scales above 1.
    for n, scale in ((4, 1e3), (6, 1e6)):
        z = disk_points(rng, n, r, PICK_SEP)
        w, s = pick_targets(rng, z)
        g = scale * ref.szego_gram(z)
        close(ref.pick_norm_closed_form(g, w), s, 1e-9, "reference Pick norm")
        reqs.append(
            Request(f"pick/sampled{n}-x{scale:g}", ["pick", inputs.write(sampled_pick_problem(g, w))], check_pick_norm(s))
        )
    # Feasibility at norm levels on either side of s for s * B(z), deg B < n.
    for n in (4, 8):
        z = disk_points(rng, n, r, PICK_SEP)
        zeros = disk_points(rng, int(rng.integers(1, n)), r, 0.1)
        s = rng.uniform(0.5, 2.0)
        w = s * ref.blaschke(z, zeros)
        path = inputs.write(pick_problem(szego, z, w))
        for t, ok in ((1.25 * s, True), (0.8 * s, False)):
            reqs.append(
                Request(
                    f"pick/norm{n}-{'above' if ok else 'below'}",
                    ["pick", path, "--norm", repr(t)],
                    check_pick_feasible(ref.szego_gram(z), w, t, ok),
                )
            )

    c = rng.uniform(0.6, 1.0)
    z = disk_points(rng, 5, r, 0.1)
    reqs.append(
        Request(
            "reconstruct/geometric5",
            ["reconstruct", inputs.write(power_series(geometric_coeffs(c, r * r))), "--points", inputs.points(z)],
            check_hardy(math.sqrt(c) * z, ref.szego_gram(z, c)),
        )
    )
    da2 = inputs.write({"type": "drury_arveson", "dim": 2})
    z = ball_points(rng, 6, 2, r, 0.1)
    reqs.append(
        Request("reconstruct/ball2-6", ["reconstruct", da2, "--points", inputs.points(z)], check_higher_rank(ref.ball_gram(z), 2))
    )
    z = ball_points(rng, 5, 2, r, 0.1)
    reqs.append(Request("embed/ball2-5", ["embed", da2, "--points", inputs.points(z)], check_embed(ref.ball_gram(z), 2)))
    z = disk_points(rng, 8, r, 0.1)
    reqs.append(
        Request(
            "cnp-check/bergman8",
            ["cnp-check", inputs.write(power_series(bergman_coeffs(r * r))), "--points", inputs.points(z)],
            check_cnp(ref.bergman_gram(z), consistent=False),
        )
    )
    z = disk_points(rng, 6, r, 0.1)
    reqs.append(
        Request(
            "cnp-check/dirichlet6",
            ["cnp-check", inputs.write(power_series(dirichlet_coeffs(r * r))), "--points", inputs.points(z)],
            check_cnp(ref.dirichlet_gram(z), consistent=True),
        )
    )
    z = ball_points(rng, 4, 3, r, 0.1)
    reqs.append(
        Request(
            "cnp-check/ball3-4",
            ["cnp-check", inputs.write({"type": "drury_arveson", "dim": 3}), "--points", inputs.points(z)],
            check_cnp(ref.ball_gram(z), consistent=True),
        )
    )
    reqs.append(direct_sum_partition(rng, inputs, 3, 4, "partition/direct-sum7"))

    reqs.extend(ratio_requests(rng, inputs))
    reqs.extend(blaschke_requests(rng, inputs))

    reqs.append(Request("fock/arveson", ["fock", "arveson"], check_arveson()))
    phi = random_phi(rng, 2)
    degree = 6
    count = degree // max(sum(a) for a in phi)
    window = ref.Window(2, degree)
    reqs.append(
        Request(
            "fock/defect-powers",
            ["fock", "defect", "--phi", poly_json(phi), "--span", "powers", "--degree", str(degree)],
            check_defect(window.mult_matrix(phi), ref.power_span(window, phi, count)),
        )
    )
    for degree in (6, 10):
        z = sphere_point(rng, 2) * math.sqrt(rng.uniform(0.2, 0.6))
        reqs.append(
            Request(
                f"fock/balance{degree}",
                ["fock", "balance", "--z", json.dumps([pair(x) for x in z]), "--degree", str(degree)],
                check_balance(z, degree),
            )
        )

    # Known faults, on fixed inputs.
    w = FAULT_PICK_S * ref.blaschke(FAULT_PICK_NODES, FAULT_PICK_ZEROS)
    reqs.append(
        Request(
            "fault/pick-accuracy",
            ["pick", inputs.write(pick_problem(szego, FAULT_PICK_NODES, w))],
            check_pick_norm(FAULT_PICK_S),
            fault=check_pick_short(FAULT_PICK_S),
        )
    )
    g = FAULT_SCALE * ref.szego_gram(FAULT_SCALE_NODES)
    want = ref.pick_norm_closed_form(g, FAULT_SCALE_TARGETS)
    reqs.append(
        Request(
            "fault/pick-scale",
            ["pick", inputs.write(sampled_pick_problem(g, FAULT_SCALE_TARGETS))],
            check_pick_norm(want),
            fault=check_pick_norm(FAULT_SCALE_ANSWER, 1e-4),
        )
    )
    reqs.append(
        Request(
            "fault/polynomial-tail",
            ["blaschke", inputs.write(FAULT_TAIL)],
            check_refused(),
            fault=check_divergent_accepted(),
        )
    )
    return reqs


def ratio_requests(rng, inputs: Inputs) -> list:
    """Geometric: both tests hold. Increasing ratios ((n+1)/n)^p fall, so
    hyponormality holds and the CNP condition fails at n = 1; falling
    coefficients 1/(n+1)^p the other way round (exit 1)."""
    q = rng.uniform(0.3, 0.95)
    p = rng.uniform(0.5, 2.0)
    k = int(rng.integers(2, 5))
    cases = [
        ("geometric", power_series([q**n for n in range(30)]), (True, True, None)),
        ("bergman-power", power_series([(n + 1) ** p for n in range(30)]), (True, False, 1)),
        # weighted Bergman a_n = binom(n + k - 1, k - 1), integers: exact path
        ("bergman-exact", {"type": "power_series", "coeffs": [math.comb(n + k - 1, k - 1) for n in range(30)]}, (True, False, 1)),
        ("dirichlet-power", power_series([(n + 1) ** -p for n in range(30)]), (False, True, 1)),
        ("dirichlet-exact", {"type": "power_series", "coeffs": [{"num": "1", "den": str(n + 1)} for n in range(30)]}, (False, True, 1)),
    ]
    reqs = []
    for label, kernel, (hypo, npok, first) in cases:

        def check(report, hypo=hypo, npok=npok, first=first):
            res = results(report, 0 if hypo else 1)
            expect(res["hyponormal_ok"] is hypo, "hyponormal_ok")
            expect(res["np_sufficient_ok"] is npok, "np_sufficient_ok")
            expect(res["geometric"] is (hypo and npok), "geometric")
            expect(res["first_violation"] == first, f"first_violation {res['first_violation']}")

        reqs.append(Request(f"ratio-check/{label}", ["ratio-check", inputs.write(kernel)], check))
    return reqs


def blaschke_requests(rng, inputs: Inputs) -> list:
    """Gap sums in closed form: sum (1 - r), c / (1 - q), c (zeta(p) - 1)."""
    reqs = []

    def gap_check(total: Optional[float], rtol: float):
        def check(report):
            res = results(report, 0)
            if total is None:
                expect(res["divergent"] is True and res["gap_sum"] == "DIVERGENT", "divergence")
                expect(res["is_uniqueness_set"] is True, "uniqueness")
            else:
                expect(res["divergent"] is False and res["is_uniqueness_set"] is False, "convergence")
                close(res["gap_sum"], total, rtol * total, "gap sum")

        return check

    radii = rng.uniform(0.05, 0.95, int(rng.integers(3, 10)))
    reqs.append(
        Request(
            "blaschke/finite",
            ["blaschke", inputs.write({"type": "finite_list", "radii": radii.tolist()})],
            gap_check(math.fsum(1 - radii), 1e-12),
        )
    )
    prefix = rng.uniform(0.1, 0.9, int(rng.integers(0, 4)))
    c, q = rng.uniform(0.05, 0.9), rng.uniform(0.2, 0.9)
    reqs.append(
        Request(
            "blaschke/geometric",
            ["blaschke", inputs.write({"type": "geometric_tail", "c": c, "q": q, "prefix": prefix.tolist()})],
            gap_check(math.fsum(1 - prefix) + c / (1 - q), 1e-12),
        )
    )
    c, p = rng.uniform(0.1, 0.9), rng.uniform(1.5, 3.0)
    reqs.append(
        Request(
            "blaschke/polynomial",
            ["blaschke", inputs.write({"type": "polynomial_tail", "c": c, "p": p, "prefix": prefix.tolist()})],
            gap_check(math.fsum(1 - prefix) + c * (ref.zeta(p) - 1.0), 1e-8),
        )
    )
    p = rng.uniform(0.3, 1.0)
    c = rng.uniform(0.1, 0.9) * 2.0**p
    reqs.append(
        Request(
            "blaschke/polynomial-divergent",
            ["blaschke", inputs.write({"type": "polynomial_tail", "c": c, "p": p})],
            gap_check(None, 0.0),
        )
    )
    return reqs


def check_refused():
    """Gaps c / k^-p grow without bound for p < 0: radii leave (0, 1)."""

    def check(report):
        expect(report["exit_code"] == 2, f"accepted with exit code {report['exit_code']}")

    return check


def check_divergent_accepted():
    """Signature of the polynomial-tail fault: classified as a divergent
    uniqueness set (exit 0) instead of refused."""

    def check(report):
        res = results(report, 0)
        expect(res["divergent"] is True and res["gap_sum"] == "DIVERGENT", "divergence")
        expect(res["is_uniqueness_set"] is True, "uniqueness")

    return check


def check_arveson():
    window = ref.Window(2, 6)
    phi = {(1, 1): 1.0}
    want_defect = ref.compressed_defect(window.mult_matrix(phi), ref.power_span(window, phi, 2))

    def check(report):
        res = results(report, 0)
        expect(frac(res["forward_norm_sq"]) == 1 / 6, "||M (z1 z2)||^2 != 1/6")
        expect(res["forward_norm_sq"] == {"num": "1", "den": "6"}, "forward norm not exact")
        expect(res["adjoint_norm_sq"] == {"num": "1", "den": "4"}, "adjoint norm not exact 1/4")
        expect(res["strictly_smaller"] is True, "1/6 < 1/4")
        close(res["compression_defect_on_three_powers"], want_defect, 1e-12, "defect on three powers")

    return check


def fock_engine(rng, inputs: Inputs) -> list:
    """The dict-based Polynomial arithmetic and the k^2 inner products of the
    Fock engine on windows of tens to a few hundred monomials."""
    reqs = []
    for dim, degree in ((2, 18), (3, 8)):
        phi = random_phi(rng, dim)
        window = ref.Window(dim, degree)
        reqs.append(
            Request(
                f"fock/defect-full-d{dim}n{degree}",
                ["fock", "defect", "--phi", poly_json(phi), "--span", "full", "--degree", str(degree)],
                check_defect(window.mult_matrix(phi), np.eye(len(window.alphas))),
            )
        )
    for dim, degree, n in ((2, 12, 24), (3, 6, 24)):
        phi = random_phi(rng, dim)
        window = ref.Window(dim, degree)
        ys = ball_points(rng, n, dim, 0.8, 0.05)
        q = ref.orthonormal_span(np.column_stack([window.kernel_vector(y) for y in ys]))
        reqs.append(
            Request(
                f"fock/defect-kernel-d{dim}n{degree}",
                ["fock", "defect", "--phi", poly_json(phi), "--span", "kernel", "--points", inputs.points(ys), "--degree", str(degree)],
                check_defect(window.mult_matrix(phi), q),
            )
        )
    for degree in (30, 40, 50, 60):
        z = sphere_point(rng, 2) * math.sqrt(rng.uniform(0.6, 0.75))
        reqs.append(
            Request(
                f"fock/balance{degree}",
                ["fock", "balance", "--z", json.dumps([pair(x) for x in z]), "--degree", str(degree)],
                check_balance(z, degree),
            )
        )
    degree = 8
    window = ref.Window(3, degree)
    ys = ball_points(rng, 40, 3, 0.8, 0.05)
    ypath = inputs.points(ys)
    member = ys[int(rng.integers(40))]
    outside = ball_points(rng, 1, 3, 0.8, 0.0)[0]
    for label, z in (("member", member), ("outside", outside)):
        reqs.append(
            Request(
                f"closure/{label}",
                ["closure", "--points", ypath, "--z", json.dumps([pair(x) for x in z]), "--degree", str(degree)],
                check_closure(window, ys, z, label == "member"),
            )
        )
    reqs.append(
        Request(
            "fault/tail-balance",
            ["fock", "balance", "--z", json.dumps([pair(x) for x in FAULT_BALANCE_Z]), "--degree", str(FAULT_BALANCE_DEGREE)],
            check_balance(FAULT_BALANCE_Z, FAULT_BALANCE_DEGREE),
            fault=check_balance(FAULT_BALANCE_Z, FAULT_BALANCE_DEGREE, within=False),
        )
    )
    return reqs


def check_closure(window, ys: np.ndarray, z: np.ndarray, member: bool):
    want = ref.closure_residual(window, ys, z)
    if member:
        expect(want <= 1e-10, f"reference residual {want:.3e} for a point of Y")
    else:
        expect(want >= 1e-4, f"reference residual {want:.3e} for a point off Y")

    def check(report):
        res = results(report, 0 if member else 1)
        expect(res["member"] is member, f"member {res['member']}")
        close(res["residual"], want, 1e-9 + 1e-6 * want, "closure residual")

    return check


WORKLOADS = {
    "sample_verdicts": sample_verdicts,
    "small_requests": small_requests,
    "fock_engine": fock_engine,
}


def build(name: str, seed: int, outdir: Path) -> list:
    """Write the inputs of one round of workload name into outdir."""
    rng = np.random.default_rng([seed, list(WORKLOADS).index(name)])
    return WORKLOADS[name](rng, Inputs(outdir))
