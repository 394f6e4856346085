"""Pick matrices, interpolation feasibility, minimal norm in closed form.

The Pick matrix of an interpolation problem at norm level t has entries
(t^2 - w_i conj(w_j)) K(z_i, z_j). Its positive semidefiniteness is always
necessary for a multiplier of norm at most t through the data; for
Nevanlinna-Pick kernels it is also sufficient. Verdicts here are about the
matrix condition only.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Sequence, Union

import numpy as np

from .errors import InputError, PreconditionError
from .kernels import KernelSpec, PointSet
from .linalg import DEFAULT_TOL, HermitianMatrix, PsdVerdict, gram_scale, min_eigenvalue, psd_check

Nodes = Union[PointSet, Sequence[str]]


@dataclass(frozen=True)
class PickProblem:
    """Interpolation data: nodes z_i in the kernel's domain, targets w_i.

    Nodes are a PointSet for analytic kernels or a label sequence for a
    sampled kernel. Scalar targets only.
    """

    kernel: KernelSpec
    nodes: Nodes
    targets: np.ndarray = field(repr=False)

    def __post_init__(self):
        w = np.atleast_1d(np.asarray(self.targets, dtype=np.complex128))
        if w.ndim != 1:
            raise InputError("targets must be a flat list of scalars")
        if not np.all(np.isfinite(w)):
            raise InputError("targets contain non-finite values")
        n = len(self.nodes)
        if n < 1 or w.shape[0] != n:
            raise InputError(f"{n} nodes but {w.shape[0]} targets")
        if not isinstance(self.nodes, PointSet):
            labels = tuple(self.nodes)
            if len(set(labels)) != len(labels):
                raise InputError("nodes must be pairwise distinct")
            object.__setattr__(self, "nodes", labels)
        w = w.copy()
        w.setflags(write=False)
        object.__setattr__(self, "targets", w)

    def gram(self) -> HermitianMatrix:
        return self.kernel.gram(self.nodes)


def _pick_from_gram(g: np.ndarray, targets: np.ndarray, t: float) -> HermitianMatrix:
    if not t > 0:
        raise InputError("norm level t must be positive")
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
    diagonal entry), so rescaling the kernel does not change it; min_eig is
    reported in the kernel's own units.
    """
    g = problem.gram().entries
    scale = gram_scale(g)
    verdict = psd_check(_pick_from_gram(g / scale, problem.targets, t), tol)
    return replace(verdict, min_eig=verdict.min_eig * scale)


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

    Raises PreconditionError unless min eig(G) > tol * gram_scale(G), the
    largest diagonal entry. Nearly coincident nodes are refused on purpose:
    at a ratio of 1e-12 (12 equispaced real Szego nodes in [-0.6, 0.6]) t*
    is off by about 5e-6.
    """
    if tol <= 0:
        raise InputError("tol must be positive")
    g = problem.gram()
    gram_min = min_eigenvalue(g)
    scale = gram_scale(g.entries)
    if not gram_min > tol * scale:
        raise PreconditionError(
            f"Gram matrix is not positive definite relative to its scale "
            f"{scale:.3e} (min eigenvalue {gram_min:.3e})"
        )
    w = problem.targets
    if not np.any(w):
        return 0.0
    lower = np.linalg.cholesky(g.entries)
    return float(np.linalg.norm(np.linalg.solve(lower, w[:, None] * lower), 2))
