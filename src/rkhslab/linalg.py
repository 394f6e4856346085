"""Dense Hermitian numerics, and the rules for data from outside.

Everything downstream (Gram matrices, Pick matrices, feature factorizations)
reduces to a handful of primitives on small dense Hermitian matrices. They
live here, together with the subspace membership check used to exercise the
closure argument for hyponormal compressions on finite-dimensional models.

Each value from outside is read by one rule (real_number, complex_number, complex_array or
whole_number, then ball_point for a point) that refuses it with InputError naming the field.

All operations are pure functions on immutable values and are safe to call
concurrently.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from numbers import Rational, Real
from typing import NamedTuple

import numpy as np

from .errors import DomainError, InputError, NotPsdError, PreconditionError

DEFAULT_TOL = 1e-9

_ORTHONORMAL_TOL = 1e-12


def _square(entries, name: str = "matrix") -> np.ndarray:
    """entries as a non-empty, square complex_array."""
    a = complex_array(entries, name)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InputError(f"{name} must be square, got shape {a.shape}")
    if a.size == 0:
        raise InputError(f"{name} must be non-empty")
    return a


def _hermitian(a: np.ndarray) -> np.ndarray:
    h = a * 0.5  # halved first: a + a* overflows above half the float range
    h = h + h.T.conj()
    h.setflags(write=False)
    return h


class HermitianMatrix:
    """Square complex matrix forced to satisfy A = A* at construction.

    The input is averaged with its conjugate transpose, so sampled kernels
    carrying rounding asymmetry become exactly Hermitian. The stored array
    is read-only, (n, n) and complex whatever the input's dtype. name is the
    step that formed the entries, which a refusal of them names.
    """

    __slots__ = ("_entries",)

    def __init__(self, entries, name: str = "matrix"):
        self._entries = _hermitian(_square(entries, name))

    @property
    def n(self) -> int:
        return self._entries.shape[0]

    @property
    def entries(self) -> np.ndarray:
        """Read-only (n, n) complex128 array."""
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

    is_psd holds exactly when min_eig >= -threshold(tol, max(1, max_eig)), for
    the tol the check was given.
    """

    is_psd: bool
    min_eig: float


class Subspace:
    """Column span with an orthonormal basis, stored read-only.

    basis has shape (ambient_dim, k) with columns orthonormal to 1e-12;
    k may be zero (the trivial subspace). It is read by complex_array.
    """

    __slots__ = ("_basis",)

    def __init__(self, basis):
        b = complex_array(basis, "subspace basis")
        if b.ndim != 2:
            raise InputError("subspace basis must be a 2-d array of columns")
        n, k = b.shape
        if k > n:
            raise InputError("more basis columns than ambient dimensions")
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


_FLOAT_MAX = int(np.finfo(np.float64).max)  # the largest float, exactly


def real_number(x, what: str):
    """x itself if it is a real number to compute with, else InputError naming what: the
    one rule for a number from outside. A float returns first, NaN and inf too, for each
    caller's range rule. A bool, a non-number and an int or Fraction past the largest
    float (float() would overflow) are refused; the range test compares integers."""
    if type(x) is float:
        return x
    if isinstance(x, (bool, np.bool_)):
        raise InputError(f"{what}: expected a number, got a boolean")
    if not isinstance(x, Real):
        raise InputError(f"{what}: expected a number, got {x!r:.60}")
    if isinstance(x, Rational) and abs(int(x.numerator)) > _FLOAT_MAX * int(x.denominator):
        raise InputError(f"{what}: number beyond the float range")
    return x


def complex_number(x, what: str) -> complex:
    """x as a finite complex, else InputError naming what; a non-complex goes through real_number."""
    c = complex(x if isinstance(x, (complex, np.complexfloating)) else real_number(x, what))
    if not cmath.isfinite(c):
        raise InputError(f"{what}: expected a finite number, got {c!r}")
    return c


def complex_array(x, what: str) -> np.ndarray:
    """x as a complex128 array of finite entries, else InputError naming what. A numeric
    ndarray converts in one call (a complex128 one is not copied); anything else, nested lists,
    bool, str or object arrays, goes entry by entry through complex_number, so a ragged row,
    which numpy keeps as a list, is refused. The shape is the caller's to check."""
    if isinstance(x, np.ndarray) and x.dtype.kind in "iufc":
        a = np.asarray(x, dtype=np.complex128)
        if not np.isfinite(a).all():
            complex_number(a[~np.isfinite(a)][0], what)  # refuses it
        return a
    try:
        entries = np.asarray(x, dtype=object)
    except ValueError:  # ndarrays of unequal shapes in one list: each is an entry
        entries = np.fromiter(x, dtype=object)
    return np.array([complex_number(e, what) for e in entries.flat], np.complex128).reshape(entries.shape)


def whole_number(x, what: str, least: int) -> int:
    """x as an int if it is an int or numpy integer, no boolean, >= least; else InputError."""
    if isinstance(x, bool) or not isinstance(x, (int, np.integer)) or x < least:
        raise InputError(f"{what}: expected an integer >= {least}, got {x!r:.60}")
    return int(x)


def ball_point(x: np.ndarray, what: str) -> np.ndarray:
    """x, a complex_array of one point or one point per row, if each has Euclidean norm below 1;
    else DomainError naming what, the row of largest norm and that norm (inf past the float range)."""
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(x, axis=-1)
    if not np.all(norms < 1.0):
        worst = int(np.argmax(norms))
        raise DomainError(f"{what} {worst} has norm {norms.flat[worst]:.6f}, outside the open unit ball")
    return x


def threshold(tol: float, scale: float) -> float:
    """tol * scale: every verdict's threshold, for the scale of the data it
    judges. Raises InputError unless tol is a real_number, finite and positive."""
    tol = real_number(tol, "tol")
    if not 0 < tol < np.inf:
        raise InputError(f"tol must be positive and finite, got {tol}")
    return tol * scale


def _psd_accepts(min_eig: float, max_eig: float, tol: float) -> bool:
    return min_eig >= -threshold(tol, max(1.0, max_eig))


def psd_check(a: HermitianMatrix, tol: float = DEFAULT_TOL) -> PsdVerdict:
    """Certify positive semidefiniteness by full eigendecomposition.

    Passes when the smallest eigenvalue is at least -threshold(tol, max(1,
    largest eigenvalue)). The floor of 1 is needed for F = 1 - 1/K~: its
    entries are differences of numbers near 1 and carry rounding errors of
    order eps whatever the size of F. Szego points within 1e-6 of the base
    give a least eigenvalue of -5.9e-17 against a largest of 1.0e-11, a
    ratio far above tol that a purely relative test would refuse. For a
    scale-free verdict on a matrix of small entries, divide by its scale
    (for a Gram matrix, gram_scale) first. Deterministic for a fixed input.
    """
    eigs = np.linalg.eigvalsh(a.entries)
    min_eig = float(eigs[0])
    max_eig = float(eigs[-1])
    return PsdVerdict(is_psd=_psd_accepts(min_eig, max_eig, tol), min_eig=min_eig)


def gram_scale(g: np.ndarray) -> float:
    """Largest diagonal entry of a Gram matrix, the size of its entries.

    1.0 when no diagonal entry is positive: such a matrix has no scale.
    """
    scale = float(np.max(g.diagonal().real))
    return scale if scale > 0 else 1.0


def min_eigenvalue(a: HermitianMatrix | np.ndarray) -> float:
    """Smallest eigenvalue of a HermitianMatrix, or of every block of a (b, n, n) array of
    Hermitian blocks, which stands for their block-diagonal sum. eigvalsh reads the lower
    triangle of each block only, in real arithmetic for a real array."""
    return float(np.linalg.eigvalsh(np.asarray(a))[..., 0].min())


def connected_components(k: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The class number of each of k indices, a[i] and b[i] joined for each i; classes
    are numbered in the order of their least index. Each round hooks the larger root of
    every joined pair that crosses under the smaller, then jumps pointers to the roots,
    until no pair crosses: as every pointer goes to a smaller index there is no cycle,
    each round hooks a root, and the root of a class is its least index."""
    root = np.arange(k)
    while True:
        ra, rb = root[a], root[b]
        cross = ra != rb
        if not cross.any():
            break
        root[np.maximum(ra, rb)[cross]] = np.minimum(ra, rb)[cross]  # any smaller root will do
        while ((jumped := root[root]) != root).any():
            root = jumped
    return (np.cumsum(root == np.arange(k)) - 1)[root]


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
    cutoff = threshold(tol, max(max_eig, 0.0))
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

    norms_equal        | ||T* f|| - ||T f|| |  <=  tol ||T||_2 ||f||
    image_in_subspace  ||T f - P_M T f||      <=  tol ||T||_2 ||f||

    Neither verdict changes under T -> sT or f -> rf for s, r > 0.
    Raises PreconditionError when f is farther than tol ||f|| from M.
    """
    a = _square(t, "operator")
    v = complex_array(f, "vector")
    if v.ndim != 1 or v.shape[0] != a.shape[0]:
        raise InputError("vector shape does not match the operator")
    if subspace.ambient_dim != a.shape[0]:
        raise InputError("subspace ambient dimension does not match the operator")

    norm_f = float(np.linalg.norm(v))
    dist_f = float(np.linalg.norm(v - subspace.project(v)))
    if dist_f > threshold(tol, norm_f):
        raise PreconditionError(
            f"f is not in the subspace (distance {dist_f:.3e})"
        )

    tf = a @ v
    t_adj_f = a.conj().T @ v
    norm_tf = float(np.linalg.norm(tf))
    bound = threshold(tol, float(np.linalg.norm(a, 2)) * norm_f)
    norms_equal = abs(float(np.linalg.norm(t_adj_f)) - norm_tf) <= bound
    image_in = float(np.linalg.norm(tf - subspace.project(tf))) <= bound
    return ClosureCheck(norms_equal=norms_equal, image_in_subspace=image_in)
