"""Pick matrices, interpolation feasibility, minimal norm in closed form.

The Pick matrix of an interpolation problem at norm level t has entries
(t^2 - w_i conj(w_j)) K(z_i, z_j). Its positive semidefiniteness is always
necessary for a multiplier of norm at most t through the data; for
Nevanlinna-Pick kernels it is also sufficient. Verdicts here are about the
matrix condition only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Sequence, Union

import numpy as np

from .errors import InputError, PreconditionError
from .kernels import KernelSpec, PointSet, SampledGramKernel
from .linalg import DEFAULT_TOL, HermitianMatrix, PsdVerdict, gram_scale, min_eigenvalue, psd_check
from .linalg import complex_array, distinct_labels, real_number, threshold

Nodes = Union[PointSet, Sequence[str]]


@dataclass(frozen=True)
class PickProblem:
    """Interpolation data: nodes z_i in the kernel's domain, targets w_i.

    Nodes are a PointSet of the kernel's dim for an analytic kernel or labels for a sampled one
    (linalg.distinct_labels), refused here otherwise. Scalar targets only, read by complex_array.
    """

    kernel: KernelSpec
    nodes: Nodes
    targets: np.ndarray = field(repr=False)

    def __post_init__(self):
        w = np.atleast_1d(complex_array(self.targets, "targets"))
        if w.ndim != 1:
            raise InputError("targets must be a flat list of scalars")
        sampled = isinstance(self.kernel, SampledGramKernel)
        if sampled == isinstance(self.nodes, PointSet):
            raise InputError("nodes must be labels for a sampled kernel and a PointSet for an analytic one")
        if sampled:
            object.__setattr__(self, "nodes", distinct_labels(self.nodes, "node"))
        elif self.nodes.dim != self.kernel.dim:
            raise InputError(f"nodes have dim {self.nodes.dim}, kernel has dim {self.kernel.dim}")
        n = len(self.nodes)
        if n < 1 or w.shape[0] != n:
            raise InputError(f"{n} nodes but {w.shape[0]} targets")
        w = w.copy()
        w.setflags(write=False)
        object.__setattr__(self, "targets", w)

    def gram(self) -> HermitianMatrix:
        return self.kernel.gram(self.nodes)


def _norm_level(t) -> float:
    t = float(real_number(t, "norm level t"))  # a numpy scalar would warn on overflow in t * t
    if not (t > 0 and 0 < t * t < math.inf):
        raise InputError("norm level t must be positive with t^2 finite")
    return t


def _pick_from_gram(g: np.ndarray, targets: np.ndarray, t: float) -> HermitianMatrix:
    t = _norm_level(t)
    w = targets
    return HermitianMatrix((t * t - np.outer(w, w.conj())) * g)


def pick_matrix(problem: PickProblem, t: float) -> HermitianMatrix:
    """Pick matrix ((t^2 - w_i conj(w_j)) K(z_i, z_j)); t = 1 is the classical one."""
    return _pick_from_gram(problem.gram().entries, problem.targets, t)


def pick_feasible(problem: PickProblem, t: float, tol: float = DEFAULT_TOL) -> PsdVerdict:
    """PSD verdict for the Pick matrix at norm level t.

    For Nevanlinna-Pick kernels this decides existence of an interpolant of
    multiplier norm at most t; for other kernels it is necessary only. The
    verdict is taken on the Gram matrix divided by its gram_scale (largest
    diagonal entry), and on t and the targets divided by 2^e, the power of two
    with max(t, max |w_i|) = m 2^e, m in [0.5, 1) (math.frexp). That division
    is exact, so neither rescaling the kernel nor rescaling t and the targets
    together changes the verdict; min_eig is reported in the units of the data.
    Raises InputError when the square of t or of a target is not finite.
    """
    g = problem.gram().entries
    scale = gram_scale(g)
    t, w = _norm_level(t), problem.targets
    top = max(t, float(np.max(np.abs(w))))
    if not top * top < math.inf:
        raise InputError("a target's squared modulus is beyond the float range")
    e = math.frexp(top)[1]
    verdict = psd_check(_pick_from_gram(g / scale, w * 2.0**-e, math.ldexp(t, -e)), tol)
    # times 4^e in two exact steps: 4.0 ** e itself overflows from e = 512
    return replace(verdict, min_eig=verdict.min_eig * scale * 2.0**e * 2.0**e)


def minimal_interpolation_norm(problem: PickProblem, tol: float = DEFAULT_TOL) -> float:
    """Smallest t with a PSD Pick matrix, in closed form.

    The Pick matrix is t^2 G - D G D* with D = diag(w), so t*^2 is the
    largest eigenvalue of the pencil (D G D*, G) (Golub & Van Loan, Matrix
    Computations, 8.7). With G = L L*, D G D* = (D L)(D L)*, hence
    t* = ||L^-1 D L||_2, which rescaling the kernel does not change. On
    random 1-10 node Szego problems in radius 0.7 it agrees with the
    Cholesky-reduced eigenvalue to 1e-12 relative, and gives an exact
    answer 1 within 1e-11 (tests/test_pick.py); the error grows with the
    condition number of G.

    t* is homogeneous in the targets, so it is computed for w 2^-e, 2^e the
    power of two of the largest part of any target (math.frexp), and
    multiplied back by 2^e. Both steps are exact while the parts stay normal
    floats, and no product of the targets' scale passes the float range.

    Raises PreconditionError unless min eig(G) > tol * gram_scale(G), the
    largest diagonal entry. Nearly coincident nodes are refused on purpose:
    at a ratio of 1e-12 (12 equispaced real Szego nodes in [-0.6, 0.6]) t*
    is off by about 5e-6. Raises InputError when t* itself is beyond the
    float range.
    """
    g = problem.gram()
    gram_min = min_eigenvalue(g)
    scale = gram_scale(g.entries)
    if not gram_min > threshold(tol, scale):
        raise PreconditionError(
            f"Gram matrix is not positive definite relative to its scale "
            f"{scale:.3e} (min eigenvalue {gram_min:.3e})"
        )
    parts = problem.targets.view(np.float64)
    if not np.any(parts):
        return 0.0
    e = math.frexp(float(np.max(np.abs(parts))))[1]
    w = np.ldexp(parts, -e).view(np.complex128)  # 2.0 ** -e would overflow for e < -1023
    lower = np.linalg.cholesky(g.entries)
    t = float(np.linalg.norm(np.linalg.solve(lower, w[:, None] * lower), 2))
    try:
        return math.ldexp(t, e)
    except OverflowError:
        raise InputError(f"the minimal norm {t!r} * 2^{e} is beyond the float range") from None
