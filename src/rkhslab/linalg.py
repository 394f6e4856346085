"""Dense complex Hermitian numerics.

Everything downstream (Gram matrices, Pick matrices, feature factorizations)
reduces to a handful of primitives on small dense Hermitian matrices. They
live here, together with the subspace membership check used to exercise the
closure argument for hyponormal compressions on finite-dimensional models.

All operations are pure functions on immutable values and are safe to call
concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import InputError, NotPsdError, PreconditionError

DEFAULT_TOL = 1e-9

_ORTHONORMAL_TOL = 1e-12


def _square_complex(entries, name: str = "matrix") -> np.ndarray:
    a = np.asarray(entries, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InputError(f"{name} must be square, got shape {a.shape}")
    if a.shape[0] == 0:
        raise InputError(f"{name} must be non-empty")
    if not np.all(np.isfinite(a)):
        raise InputError(f"{name} contains non-finite entries")
    return a


class HermitianMatrix:
    """Square complex matrix forced to satisfy A = A* at construction.

    The input is averaged with its conjugate transpose, so sampled kernels
    carrying rounding asymmetry become exactly Hermitian. The stored array
    is read-only.
    """

    __slots__ = ("_entries",)

    def __init__(self, entries):
        a = _square_complex(entries)
        h = (a + a.conj().T) / 2.0
        h.setflags(write=False)
        self._entries = h

    @property
    def n(self) -> int:
        return self._entries.shape[0]

    @property
    def entries(self) -> np.ndarray:
        """Read-only (n, n) complex array."""
        return self._entries

    def __getitem__(self, key):
        return self._entries[key]

    def __array__(self, dtype=None, copy=None):
        return np.array(self._entries, dtype=dtype)

    def __repr__(self) -> str:
        return f"HermitianMatrix(n={self.n})"


@dataclass(frozen=True)
class PsdVerdict:
    """Outcome of a positive-semidefiniteness check.

    is_psd holds exactly when min_eig >= -tol_used * max(1, max_eig).
    """

    is_psd: bool
    min_eig: float
    tol_used: float


class Subspace:
    """Column span with an orthonormal basis, stored read-only.

    basis has shape (ambient_dim, k) with columns orthonormal to 1e-12;
    k may be zero (the trivial subspace).
    """

    __slots__ = ("_basis",)

    def __init__(self, basis):
        b = np.asarray(basis, dtype=np.complex128)
        if b.ndim != 2:
            raise InputError("subspace basis must be a 2-d array of columns")
        n, k = b.shape
        if k > n:
            raise InputError("more basis columns than ambient dimensions")
        if not np.all(np.isfinite(b)):
            raise InputError("subspace basis contains non-finite entries")
        if k:
            g = b.conj().T @ b
            defect = np.max(np.abs(g - np.eye(k)))
            if defect > _ORTHONORMAL_TOL:
                raise InputError(
                    f"basis columns not orthonormal (defect {defect:.3e})"
                )
        b = b.copy()
        b.setflags(write=False)
        self._basis = b

    @property
    def ambient_dim(self) -> int:
        return self._basis.shape[0]

    @property
    def dim(self) -> int:
        return self._basis.shape[1]

    @property
    def basis(self) -> np.ndarray:
        return self._basis

    def project(self, v: np.ndarray) -> np.ndarray:
        """Orthogonal projection of a vector onto the span."""
        b = self._basis
        return b @ (b.conj().T @ np.asarray(v, dtype=np.complex128))

    def __repr__(self) -> str:
        return f"Subspace(ambient_dim={self.ambient_dim}, dim={self.dim})"


def _psd_accepts(min_eig: float, max_eig: float, tol: float) -> bool:
    if tol <= 0:
        raise InputError("tol must be positive")
    return min_eig >= -tol * max(1.0, max_eig)


def psd_check(a: HermitianMatrix, tol: float = DEFAULT_TOL) -> PsdVerdict:
    """Certify positive semidefiniteness by full eigendecomposition.

    Passes when the smallest eigenvalue is at least -tol * max(1, largest
    eigenvalue). The floor of 1 keeps a slack of tol where all eigenvalues
    (nearly) vanish, as for 1 - 1/K~ of one point, which a relative test
    would fail on rounding alone; for a scale-free verdict on small matrices
    divide by their scale (for a Gram matrix, gram_scale) first.
    Deterministic for a fixed input.
    """
    eigs = np.linalg.eigvalsh(a.entries)
    min_eig = float(eigs[0])
    max_eig = float(eigs[-1])
    return PsdVerdict(
        is_psd=_psd_accepts(min_eig, max_eig, tol),
        min_eig=min_eig,
        tol_used=tol,
    )


def gram_scale(g: np.ndarray) -> float:
    """Largest diagonal entry of a Gram matrix, the size of its entries.

    1.0 when no diagonal entry is positive: such a matrix has no scale.
    """
    scale = float(np.max(g.diagonal().real))
    return scale if scale > 0 else 1.0


def min_eigenvalue(a: HermitianMatrix) -> float:
    """Smallest eigenvalue of a Hermitian matrix."""
    return float(np.linalg.eigvalsh(a.entries)[0])


class PsdFactor(NamedTuple):
    rows: np.ndarray  # (n, rank); row i is the feature vector of index i
    rank: int


def psd_factor(a: HermitianMatrix, tol: float = DEFAULT_TOL) -> PsdFactor:
    """Factor a PSD matrix as the Gram matrix of feature vectors.

    Eigendecomposition-based, so rank-deficient input needs no pivoting.
    Eigenvalues above tol * max_eig are kept, sorted descending, and each
    kept eigenvector is rotated so that its first entry of largest modulus
    is real positive. This pins the rows bit-for-bit across runs.

    Returns rows with <rows[i], rows[j]> = A[i][j] up to 10 * tol * max_eig.

    Raises NotPsdError when psd_check fails at the same tolerance; the
    verdict is read off the same eigendecomposition.
    """
    vals, vecs = np.linalg.eigh(a.entries)
    min_eig = float(vals[0])
    max_eig = float(vals[-1])
    if not _psd_accepts(min_eig, max_eig, tol):
        raise NotPsdError(
            f"matrix is not PSD within tolerance (min eigenvalue {min_eig:.6e})",
            min_eig,
        )
    # eigh sorts ascending; reversing gives the descending order.
    vals = vals[::-1]
    vecs = vecs[:, ::-1]
    cutoff = tol * max(max_eig, 0.0)
    keep = vals > cutoff
    vals = vals[keep]
    vecs = vecs[:, keep]
    for k in range(vecs.shape[1]):
        col = vecs[:, k]
        idx = int(np.argmax(np.abs(col)))
        pivot = col[idx]
        if pivot != 0:
            vecs[:, k] = col * (pivot.conjugate() / abs(pivot))
    rows = vecs * np.sqrt(vals)[None, :]
    return PsdFactor(rows=rows, rank=int(rows.shape[1]))


class ClosureCheck(NamedTuple):
    norms_equal: bool
    image_in_subspace: bool


def verify_hyponormal_closure(
    t: np.ndarray,
    subspace: Subspace,
    f: np.ndarray,
    tol: float = DEFAULT_TOL,
) -> ClosureCheck:
    """Measure the norm-balance closure step on a finite-dimensional model.

    Setting: M is co-invariant for T and the compression P_M T|_M is
    hyponormal (both are the caller's responsibility to certify, for
    instance via min_eigenvalue of the compressed self-commutator). Under
    those hypotheses, any f in M with ||T* f|| = ||T f|| must satisfy
    T f in M. This function returns the two measured facts:

    norms_equal        | ||T* f|| - ||T f|| |  <=  tol * max(1, ||T f||)
    image_in_subspace  ||T f - P_M T f||      <=  tol * max(1, ||T f||)

    Raises PreconditionError when f is not in M to within tol.
    """
    if tol <= 0:
        raise InputError("tol must be positive")
    a = _square_complex(t, "operator")
    v = np.asarray(f, dtype=np.complex128)
    if v.ndim != 1 or v.shape[0] != a.shape[0]:
        raise InputError("vector shape does not match the operator")
    if not np.all(np.isfinite(v)):
        raise InputError("vector contains non-finite entries")
    if subspace.ambient_dim != a.shape[0]:
        raise InputError("subspace ambient dimension does not match the operator")

    dist_f = float(np.linalg.norm(v - subspace.project(v)))
    if dist_f > tol * max(1.0, float(np.linalg.norm(v))):
        raise PreconditionError(
            f"f is not in the subspace (distance {dist_f:.3e})"
        )

    tf = a @ v
    t_adj_f = a.conj().T @ v
    norm_tf = float(np.linalg.norm(tf))
    scale = tol * max(1.0, norm_tf)
    norms_equal = abs(float(np.linalg.norm(t_adj_f)) - norm_tf) <= scale
    image_in = float(np.linalg.norm(tf - subspace.project(tf))) <= scale
    return ClosureCheck(norms_equal=norms_equal, image_in_subspace=image_in)
