"""Kernel specifications, Gram assembly, normalization, irreducibility.

Three ways to present a kernel: a power-series kernel on the unit disk given
by its coefficient list, the unit-ball kernel 1/(1 - <z, w>) in d complex
variables, and a kernel known only through a sampled Gram matrix. All three
expose evaluate() and gram().
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from numbers import Rational
from typing import Optional, Sequence, Union

import numpy as np

from .errors import DomainError, InputError, IrreducibilityError
from .linalg import DEFAULT_TOL, HermitianMatrix, ball_point, complex_array, connected_components, gram_scale
from .linalg import psd_check, real_number, threshold, whole_number


def _as_point(p, dim: int) -> np.ndarray:
    v = np.atleast_1d(complex_array(p, "point"))
    if v.ndim != 1 or v.shape[0] != dim:
        raise InputError(f"expected a point with {dim} coordinates, got shape {v.shape}")
    return ball_point(v, "point")


class PointSet:
    """Finite set of points in the open unit ball of C^dim.

    Read by whole_number, complex_array and ball_point; points are pairwise distinct, compared exactly.
    """

    __slots__ = ("_dim", "_points")

    def __init__(self, dim: int, points):
        dim = whole_number(dim, "dim", 1)
        pts = complex_array(points, "points")
        if pts.ndim == 1:
            pts = pts.reshape(-1, 1)
        if pts.ndim != 2 or pts.shape[1] != dim:
            raise InputError(f"points must form an (n, {dim}) array, got shape {pts.shape}")
        if pts.shape[0] == 0:
            raise InputError("point set must be non-empty")
        pair = first_coincident_pair(ball_point(pts, "point"))
        if pair is not None:
            raise InputError(f"points {pair[0]} and {pair[1]} coincide")
        pts = pts.copy()
        pts.setflags(write=False)
        self._dim = dim
        self._points = pts

    @property
    def dim(self) -> int:
        return self._dim

    @property
    def points(self) -> np.ndarray:
        return self._points

    def __len__(self) -> int:
        return self._points.shape[0]

    def __getitem__(self, i) -> np.ndarray:
        return self._points[i]

    def __repr__(self) -> str:
        return f"PointSet(dim={self._dim}, n={len(self)})"


def first_coincident_pair(points) -> Optional[tuple[int, int]]:
    """The first pair (i, j), i < j, of exactly equal rows, or None.

    "First" is the smallest i that has a later duplicate, then the smallest
    such j. Rows compare as np.array_equal does (so -0.0 equals 0.0): a
    stable lexsort on the real and imaginary parts puts equal rows next to
    each other in index order, and neighbours are compared with ==.
    """
    pts = np.asarray(points, dtype=np.complex128)
    pts = pts.reshape(pts.shape[0], -1)
    # Adding 0.0 turns -0.0 into 0.0, so no sort order can part rows that
    # compare equal.
    order = np.lexsort(np.concatenate([pts.real.T, pts.imag.T]) + 0.0)
    ranked = pts[order]
    same = np.all(ranked[1:] == ranked[:-1], axis=1)
    if not same.any():
        return None
    firsts, seconds = order[:-1][same], order[1:][same]
    k = int(np.argmin(firsts))
    return int(firsts[k]), int(seconds[k])


def _first_outside_disk(x: np.ndarray) -> Optional[float]:
    """|x[i, j]| of the first entry with i <= j (row-major) that is not below
    1, or None: the pair a per-pair loop over the upper triangle would meet
    first."""
    outside = np.abs(x) >= 1.0
    if outside.any():
        hits = np.argwhere(np.triu(outside))
        if hits.size:
            return abs(complex(x[tuple(hits[0])]))
    return None


def validated_coeffs(coeffs: Sequence) -> tuple:
    """Power-series coefficients as a tuple: non-empty, each a real number by
    linalg.real_number, positive and finite, with a_0 = 1.

    A list of plain floats is checked as one float64 array. Any other list, or
    a float list that fails that check, is checked entry by entry, so a refusal
    names the first bad entry, by its index, with the same message either way.
    """
    coeffs = tuple(coeffs)
    if not coeffs:
        raise InputError("coefficient list must be non-empty")
    if set(map(type, coeffs)) == {float}:
        a = np.array(coeffs)
        if a[0] == 1.0 and (a > 0.0).all() and (a <= sys.float_info.max).all():  # NaN fails both
            return coeffs
    for i, c in enumerate(coeffs):
        c = real_number(c, f"coefficient {i}")
        if not c > 0:
            raise InputError(f"coefficient {i} must be positive, got {c}")
        if not isinstance(c, Rational) and (f := float(c)) > sys.float_info.max:  # the rule bounds exact ones
            raise InputError(f"coefficient {i} must be finite, got {f}")
    if coeffs[0] != 1:
        raise InputError("a_0 must equal 1")
    return coeffs


class PowerSeriesKernel:
    """K(z, w) = sum_n a_n (z conj(w))^n on the unit disk.

    The coefficient list is finite; the caller chooses the truncation
    length. Coefficients must be positive with a_0 = 1.
    """

    dim = 1

    def __init__(self, coeffs: Sequence):
        self.coeffs = validated_coeffs(coeffs)
        self._horner = [float(c) for c in reversed(self.coeffs)]  # highest degree first

    def evaluate(self, z, w) -> complex:
        """K(z, w) for z, w read by linalg.ball_point; a |z conj(w)| rounded up to 1 is refused."""
        zv = _as_point(z, 1)
        wv = _as_point(w, 1)
        x = complex(zv[0] * np.conjugate(wv[0]))
        if abs(x) >= 1.0:
            raise DomainError(f"|z conj(w)| = {abs(x):.6f} is not below 1")
        acc = 0j
        for c in self._horner:
            acc = acc * x + c
        return acc

    def gram(self, pts: PointSet) -> HermitianMatrix:
        if pts.dim != 1:
            raise InputError("power-series kernels live on the unit disk (dim 1)")
        z = pts.points[:, 0]
        x = np.outer(z, z.conj())
        bad = _first_outside_disk(x)
        if bad is not None:
            raise DomainError(f"|z conj(w)| = {bad:.6f} is not below 1")
        # Horner on the whole matrix: one multiply-add per coefficient. A value past the
        # float range is refused by HermitianMatrix, so numpy need not warn of it.
        acc = np.zeros_like(x)
        with np.errstate(all="ignore"):
            for c in self._horner:
                acc *= x
                acc += c
        return HermitianMatrix(acc, "the power-series kernel's value")

    def __repr__(self) -> str:
        return f"PowerSeriesKernel(terms={len(self.coeffs)})"


class DruryArvesonKernel:
    """K(z, w) = 1 / (1 - <z, w>) on the open unit ball of C^dim."""

    def __init__(self, dim: int):
        self.dim = whole_number(dim, "dim", 1)

    def evaluate(self, z, w) -> complex:
        """K(z, w) for z, w read by linalg.ball_point; a |<z, w>| rounded up to 1 is refused."""
        zv = _as_point(z, self.dim)
        wv = _as_point(w, self.dim)
        ip = complex(np.dot(zv, np.conjugate(wv)))
        if abs(ip) >= 1.0:
            raise DomainError(f"|<z, w>| = {abs(ip):.6f} is not below 1")
        return 1.0 / (1.0 - ip)

    def gram(self, pts: PointSet) -> HermitianMatrix:
        if pts.dim != self.dim:
            raise InputError(f"points have dim {pts.dim}, kernel has dim {self.dim}")
        z = pts.points
        ip = z @ z.conj().T
        bad = _first_outside_disk(ip)
        if bad is not None:
            raise DomainError(f"|<z, w>| = {bad:.6f} is not below 1")
        return HermitianMatrix(1.0 / (1.0 - ip))

    def __repr__(self) -> str:
        return f"DruryArvesonKernel(dim={self.dim})"


class SampledGramKernel:
    """Kernel known only through its Gram matrix on labelled points.

    The Gram matrix must be PSD. That verdict is taken on G / gram_scale(G),
    so rescaling the kernel does not change it; a refusal reports the least
    eigenvalue in the kernel's own units.
    """

    def __init__(self, labels: Sequence[str], gram, tol: float = DEFAULT_TOL):
        labels = tuple(str(x) for x in labels)
        if len(set(labels)) != len(labels):
            raise InputError("labels must be distinct")
        g = gram if isinstance(gram, HermitianMatrix) else HermitianMatrix(gram)
        if g.n != len(labels):
            raise InputError(f"{len(labels)} labels for a {g.n}x{g.n} Gram matrix")
        scale = gram_scale(g.entries)
        verdict = psd_check(HermitianMatrix(g.entries / scale), tol)
        if not verdict.is_psd:
            raise InputError(
                f"sampled Gram matrix is not PSD (min eigenvalue {verdict.min_eig * scale:.6e})"
            )
        self.labels = labels
        self._index = {lab: i for i, lab in enumerate(labels)}
        self._gram = g

    def _resolve(self, label) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise InputError(f"unknown label {label!r}") from None

    def evaluate(self, z, w) -> complex:
        return complex(self._gram[self._resolve(z), self._resolve(w)])

    def gram(self, labels=None) -> HermitianMatrix:
        if labels is None:
            return self._gram
        idx = [self._resolve(lab) for lab in labels]
        if len(set(idx)) != len(idx):
            raise InputError("requested labels must be distinct")
        return HermitianMatrix(self._gram.entries[np.ix_(idx, idx)])

    def __repr__(self) -> str:
        return f"SampledGramKernel(n={len(self.labels)})"


KernelSpec = Union[PowerSeriesKernel, DruryArvesonKernel, SampledGramKernel]


@dataclass(frozen=True)
class NormalizedGram:
    """Gram matrix rescaled so the base row is identically one.

    gram_tilde[i][j] * delta[i] * conj(delta[j]) reproduces the original
    matrix entrywise.
    """

    gram_tilde: HermitianMatrix
    delta: np.ndarray


def normalize(g: HermitianMatrix, base: int) -> NormalizedGram:
    """Rescale a Gram matrix by delta(i) = G[i][base] / sqrt(G[base][base]).

    Requires a strictly positive base diagonal entry and a nowhere-zero base
    column (the sample-level irreducibility needed for the rescaling). An
    entry rescaled past the float range is refused with InputError naming
    this step.
    """
    if not whole_number(base, "base index", 0) < g.n:
        raise InputError(f"base index {base} out of range for n={g.n}")
    gbb = g[base, base].real
    if not gbb > 0:
        raise InputError(f"G[base][base] must be positive, got {gbb}")
    col = g.entries[:, base]
    zero = np.flatnonzero(col == 0)
    if zero.size:
        raise IrreducibilityError(
            f"kernel entry K(point {zero[0]}, base) is zero; cannot normalize"
        )
    delta = col / np.sqrt(gbb)
    with np.errstate(all="ignore"):  # an entry past the float range is refused below
        gt = g.entries / np.outer(delta, delta.conj())
    # Base row and column are exactly one by construction; pin them to kill
    # rounding dust so the downstream 1 - 1/K matrix gets an exact zero row.
    gt[base, :] = 1.0
    gt[:, base] = 1.0
    delta = delta.copy()
    delta.setflags(write=False)
    return NormalizedGram(gram_tilde=HermitianMatrix(gt, "the normalization by the base column"), delta=delta)


def unit_diagonal(g: HermitianMatrix) -> HermitianMatrix:
    """G_ij / (sqrt(G_ii) sqrt(G_jj)), the Gram matrix of the normalized kernel functions.

    Zero entries and proportional rows survive this positive diagonal
    congruence, so irreducibility judged on it ignores the kernel's scale and
    one point's large diagonal; the product G_ii G_jj, which overflows from a
    scale of about 2^512, is never formed. A row whose diagonal entry is not
    positive (in a PSD Gram matrix, a zero row) is divided by inf, so zero.
    """
    diag = g.entries.diagonal().real
    root = np.sqrt(np.where(diag > 0, diag, np.inf))
    return HermitianMatrix(g.entries / np.outer(root, root))


def irreducible_partition(g: HermitianMatrix, tol: float = DEFAULT_TOL) -> list[list[int]]:
    """Partition indices into connected components of |G[i][j]| > tol.

    Nonvanishing of individual entries is not transitive; the orthogonal-sum
    decomposition of the space follows the transitive closure, so connected
    components are the right classes. Across distinct classes every entry is
    at most tol: the absolute threshold(tol, 1), as that bound is the
    guarantee. For scale-free classes pass unit_diagonal(g), as partition does.
    """
    comp = connected_components(g.n, *np.nonzero(np.abs(g.entries) > threshold(tol, 1.0)))
    by_class = np.argsort(comp, kind="stable")  # each class in index order
    return [c.tolist() for c in np.split(by_class, np.cumsum(np.bincount(comp))[:-1])]


_EPS = float(np.finfo(np.float64).eps)


def check_irreducible_sample(g: HermitianMatrix, tol: float = DEFAULT_TOL) -> bool:
    """Sample-level irreducibility: no zero entries, no proportional rows.

    Proportionality of rows i and j means every 2x2 minor built from them
    vanishes; the test declares rows proportional when all such minors have
    modulus at most tol (the absolute threshold(tol, 1)). A verdict of True
    certifies nothing about points outside the sample.

    All pairs are screened at once with Lagrange's identity: for rows a_i,
    a_j of length n,

        S_ij = ||a_i||^2 ||a_j||^2 - |<a_i, a_j>|^2

    is the sum of the squared moduli of the m = n(n-1)/2 distinct 2x2 minors
    of the two rows, so max^2 <= S_ij <= m max^2 for their largest minor
    modulus max. S is read off one Gram product A A^*. A pair with
    S_ij > m (tol + e_ij)^2 + 8 n eps ||a_i||^2 ||a_j||^2 has max > tol and
    is not proportional; there

    - 8 n eps ||a_i||^2 ||a_j||^2 is the rounding band of S_ij: each Gram
      entry is a complex dot product of length n, off by at most about
      n eps ||a_i|| ||a_j|| in any summation order, which moves S_ij by at
      most about (4n + 3) eps ||a_i||^2 ||a_j||^2;
    - e_ij = 4 eps (tol + ||a_i|| ||a_j||) covers the rounding of the
      explicit test below, so that it would not read a minor just above
      tol as at most tol.

    Every other pair, including any pair whose S is not finite, gets the
    explicit max-minor test, so the verdict equals that of testing every
    pair explicitly.
    """
    tol = threshold(tol, 1.0)
    a = g.entries
    if np.min(np.abs(a)) <= tol:
        return False
    n = g.n
    gram = a @ a.conj().T
    sq = gram.diagonal().real
    norms2 = np.outer(sq, sq)
    lagrange = norms2 - np.abs(gram) ** 2
    e = 4 * _EPS * (tol + np.sqrt(norms2))
    bound = n * (n - 1) / 2 * (tol + e) ** 2 + 8 * n * _EPS * norms2
    undecided = np.triu(~(lagrange > bound), 1)
    for i, j in zip(*np.nonzero(undecided)):
        minors = np.outer(a[i], a[j]) - np.outer(a[j], a[i])
        if np.max(np.abs(minors)) <= tol:
            return False
    return True
