"""Complete Nevanlinna-Pick sample tests, ball embeddings, ratio tests.

A normalized irreducible kernel K~ has the complete Nevanlinna-Pick (CNP)
property exactly when F = 1 - 1/K~ is positive semidefinite; F then factors
as a Gram matrix of points b_i in the open unit ball, realizing the kernel
as 1/(1 - <b_i, b_j>). On a finite sample, PSD-ness of F is necessary but
not sufficient for the full-space property, so verdicts here are two-valued:
consistent, or certified_not_cnp with an eigenvalue witness. "Is CNP" is
never claimed from a sample.

For power-series kernels on the disk with coefficients a_n, two ratio tests
apply: a_n/a_{n-1} >= a_{n+1}/a_n for all n is equivalent to hyponormality
of multiplication by the coordinate, and the reversed inequalities are a
sufficient (not necessary) condition for the CNP property. Both hold at once
exactly for geometric sequences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational
from typing import NamedTuple, Optional, Sequence, Union

import numpy as np

from .errors import (
    InconsistentSampleError,
    InputError,
    IrreducibilityError,
    NotCnpError,
    NotPsdError,
)
from .kernels import NormalizedGram, normalize, validated_coeffs
from .linalg import DEFAULT_TOL, HermitianMatrix, psd_check, psd_factor

CONSISTENT = "consistent"
CERTIFIED_NOT_CNP = "certified_not_cnp"

_FLOAT_RATIO_RTOL = 1e-12


def one_minus_inverse(ng: NormalizedGram) -> HermitianMatrix:
    """Entrywise 1 - 1/K~ of a normalized Gram matrix.

    The base row and column come out exactly zero because the normalized
    matrix is exactly one there.
    """
    gt = ng.gram_tilde.entries
    zeros = np.argwhere(gt == 0)
    if zeros.size:
        i, j = zeros[0]
        raise IrreducibilityError(f"normalized kernel entry ({i}, {j}) is zero")
    return HermitianMatrix(1.0 - 1.0 / gt)


@dataclass(frozen=True)
class CnpVerdict:
    """Sample-level CNP verdict; never a positive full-space certificate."""

    status: str  # CONSISTENT or CERTIFIED_NOT_CNP
    min_eig: float
    tol: float


def cnp_sample_check(g: HermitianMatrix, base: int, tol: float = DEFAULT_TOL) -> CnpVerdict:
    """Check PSD-ness of 1 - 1/K~ on the sample.

    A failure certifies that no CNP kernel restricts to this sample; a pass
    is consistency only.
    """
    f = one_minus_inverse(normalize(g, base))
    verdict = psd_check(f, tol)
    status = CONSISTENT if verdict.is_psd else CERTIFIED_NOT_CNP
    return CnpVerdict(status=status, min_eig=verdict.min_eig, tol=tol)


@dataclass(frozen=True)
class EmbeddingResult:
    """Points b_i in the open unit ball realizing the normalized kernel.

    b_points[base_index] is exactly zero, every row has norm below 1, and
    residual is the largest deviation |<b_i, b_j> - F[i][j]|.
    """

    rank: int
    b_points: np.ndarray
    base_index: int
    residual: float


def agler_mccarthy_embed(
    g: HermitianMatrix, base: int, tol: float = DEFAULT_TOL
) -> EmbeddingResult:
    """Realize a sample as 1/(1 - <b_i, b_j>) with b_base = 0.

    Factors F = 1 - 1/K~ into feature vectors. Raises NotCnpError when F is
    not PSD within tol (the sample refutes the CNP property) and
    InconsistentSampleError if a recovered point falls outside the open
    unit ball.
    """
    f = one_minus_inverse(normalize(g, base))
    try:
        rows, rank = psd_factor(f, tol)
    except NotPsdError as e:
        raise NotCnpError(
            f"sample refutes the CNP property (min eigenvalue {e.min_eig:.6e})",
            e.min_eig,
        ) from None
    rows = rows.copy()
    rows[base, :] = 0.0  # exact: the base row of F is identically zero
    residual = 0.0
    if rank:
        residual = float(np.max(np.abs(rows @ rows.conj().T - f.entries)))
    norms = np.linalg.norm(rows, axis=1)
    if np.any(norms >= 1.0):
        worst = int(np.argmax(norms))
        raise InconsistentSampleError(
            f"embedded point {worst} has norm {norms[worst]:.6f}, not inside the open ball"
        )
    rows.setflags(write=False)
    return EmbeddingResult(rank=rank, b_points=rows, base_index=base, residual=residual)


class RatioCheck(NamedTuple):
    ok: bool
    first_violation: Optional[int]


def _validated_coeffs(coeffs: Sequence) -> tuple:
    coeffs = tuple(coeffs)
    if len(coeffs) < 3:
        raise InputError("need at least 3 coefficients")
    return validated_coeffs(coeffs)


def _ratio_scan(coeffs: Sequence, reverse: bool) -> RatioCheck:
    # Cross-multiplied form of a_n/a_{n-1} >= a_{n+1}/a_n (or <= when
    # reverse): compare a_n^2 against a_{n-1} a_{n+1}, no division. Exact
    # for rational input, relative tolerance 1e-12 otherwise, so geometric
    # ties count as satisfying both directions.
    exact = all(isinstance(c, Rational) for c in coeffs)
    if exact:
        vals = [Fraction(c) for c in coeffs]
    else:
        vals = [float(c) for c in coeffs]
    for n in range(1, len(vals) - 1):
        lhs = vals[n] * vals[n]
        rhs = vals[n - 1] * vals[n + 1]
        if exact:
            ok = (lhs <= rhs) if reverse else (lhs >= rhs)
        else:
            slack = _FLOAT_RATIO_RTOL * max(lhs, rhs)
            ok = (lhs <= rhs + slack) if reverse else (lhs >= rhs - slack)
        if not ok:
            return RatioCheck(ok=False, first_violation=n)
    return RatioCheck(ok=True, first_violation=None)


def ratio_hyponormal(coeffs: Sequence) -> RatioCheck:
    """Non-increasing successive ratios: a_n/a_{n-1} >= a_{n+1}/a_n for n >= 1.

    Equivalent to hyponormality of multiplication by the coordinate function
    on the power-series space with these weights, so a violation is a
    refutation, not just a failed sufficient condition.
    """
    return _ratio_scan(_validated_coeffs(coeffs), reverse=False)


def ratio_np(coeffs: Sequence) -> RatioCheck:
    """Non-decreasing successive ratios: a_n/a_{n-1} <= a_{n+1}/a_n for n >= 1.

    A sufficient condition for the CNP property. Failure is inconclusive and
    must not be reported as "not CNP".
    """
    return _ratio_scan(_validated_coeffs(coeffs), reverse=True)


@dataclass(frozen=True)
class RatioReport:
    """Joint outcome of both ratio tests.

    geometric means both directions hold, which forces constant successive
    ratios, i.e. a_n = a_1^n. first_violation is the smallest index at which
    either direction fails (None when both pass).
    """

    hyponormal_ok: bool
    np_ok: bool
    geometric: bool
    first_violation: Optional[int]


def ratio_report(coeffs: Sequence) -> RatioReport:
    hypo = ratio_hyponormal(coeffs)
    np_check = ratio_np(coeffs)
    firsts = [v for v in (hypo.first_violation, np_check.first_violation) if v is not None]
    return RatioReport(
        hyponormal_ok=hypo.ok,
        np_ok=np_check.ok,
        geometric=hypo.ok and np_check.ok,
        first_violation=min(firsts) if firsts else None,
    )


def _validated_radii(radii: Sequence, what: str) -> tuple[float, ...]:
    out = []
    for i, r in enumerate(radii):
        r = float(r)
        if not (0.0 < r < 1.0) or not math.isfinite(r):
            raise InputError(f"{what} radius {i} is {r}, not in (0, 1)")
        out.append(r)
    return tuple(out)


@dataclass(frozen=True)
class FiniteRadii:
    """Finitely many radii; the gap sum is finite by definition."""

    radii: tuple

    def __post_init__(self):
        object.__setattr__(self, "radii", _validated_radii(self.radii, "finite-list"))


@dataclass(frozen=True)
class GeometricTail:
    """Radii 1 - c q^k for k >= 0 (optionally after a finite prefix)."""

    c: float
    q: float
    prefix: tuple = ()

    def __post_init__(self):
        if not (self.c > 0):
            raise InputError("c must be positive")
        if not (0.0 < self.q < 1.0):
            raise InputError("q must lie in (0, 1)")
        object.__setattr__(self, "prefix", _validated_radii(self.prefix, "prefix"))
        # The gaps c q^k decrease from c, so all radii lie in (0, 1) iff c < 1.
        if not self.c < 1.0:
            raise InputError("some implied radius falls outside (0, 1)")


@dataclass(frozen=True)
class PolynomialTail:
    """Radii 1 - c / k^p for k >= 2 (optionally after a finite prefix).

    Indexing starts at k = 2 so the harmonic family c = 1, p = 1 keeps all
    radii inside (0, 1).
    """

    c: float
    p: float
    prefix: tuple = ()

    def __post_init__(self):
        if not (self.c > 0):
            raise InputError("c must be positive")
        if not math.isfinite(self.p):
            raise InputError("p must be finite")
        object.__setattr__(self, "prefix", _validated_radii(self.prefix, "prefix"))
        # For p < 0 the gaps c k^(-p) grow without bound; for p >= 0 the
        # largest is the first, c 2^(-p).
        if not (self.p >= 0 and self.c * 2.0 ** -self.p < 1.0):
            raise InputError("some implied radius falls outside (0, 1)")


BlaschkeFamily = Union[FiniteRadii, GeometricTail, PolynomialTail]


@dataclass(frozen=True)
class BlaschkeVerdict:
    """Gap-sum classification: sum_a (1 - |a|) diverges iff the radii form
    a set of uniqueness for the Hardy space."""

    divergent: bool
    total: Optional[float]  # None exactly when divergent
    is_uniqueness_set: bool


def _power_tail_sum(c: float, p: float) -> float:
    # sum_{k >= 2} c k^{-p} for p > 1, to about 1e-10: partial sum plus an
    # integral bracket for the tail (midpoint rule above, trapezoid below;
    # the integrand is convex decreasing).
    cut = 200_000
    ks = np.arange(2.0, cut + 1.0)
    partial = float(c * np.sum(ks ** (-p)))
    hi = c * (cut + 0.5) ** (1.0 - p) / (p - 1.0)
    lo = c * (cut + 1.0) ** (1.0 - p) / (p - 1.0) + 0.5 * c * (cut + 1.0) ** (-p)
    return partial + 0.5 * (lo + hi)


def blaschke_classify(family: BlaschkeFamily) -> BlaschkeVerdict:
    """Classify the gap sum of a radii family.

    Closed-form families only: a finite list always sums; a geometric tail
    sums to c / (1 - q) plus its prefix; a polynomial tail diverges exactly
    when p <= 1. Divergence cannot be decided from finitely many terms of an
    arbitrary sequence, hence the restriction.
    """
    if isinstance(family, FiniteRadii):
        return BlaschkeVerdict(
            divergent=False,
            total=float(sum(1.0 - r for r in family.radii)),
            is_uniqueness_set=False,
        )
    if isinstance(family, GeometricTail):
        total = sum(1.0 - r for r in family.prefix) + family.c / (1.0 - family.q)
        return BlaschkeVerdict(divergent=False, total=float(total), is_uniqueness_set=False)
    if isinstance(family, PolynomialTail):
        if family.p <= 1.0:
            return BlaschkeVerdict(divergent=True, total=None, is_uniqueness_set=True)
        total = sum(1.0 - r for r in family.prefix) + _power_tail_sum(family.c, family.p)
        return BlaschkeVerdict(divergent=False, total=float(total), is_uniqueness_set=False)
    raise InputError(f"unknown radii family {type(family).__name__}")
