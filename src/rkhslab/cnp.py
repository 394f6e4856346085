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
from numbers import Rational
from typing import Optional, Sequence, Union

import numpy as np

from .errors import (
    InconsistentSampleError,
    InputError,
    IrreducibilityError,
    NotCnpError,
    NotPsdError,
)
from .kernels import NormalizedGram, normalize, validated_coeffs
from .linalg import DEFAULT_TOL, HermitianMatrix, psd_check, psd_factor, real_number, threshold

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


def cnp_sample_check(g: HermitianMatrix, base: int, tol: float = DEFAULT_TOL) -> CnpVerdict:
    """Check PSD-ness of 1 - 1/K~ on the sample.

    A failure certifies that no CNP kernel restricts to this sample; a pass
    is consistency only.
    """
    f = one_minus_inverse(normalize(g, base))
    verdict = psd_check(f, tol)
    status = CONSISTENT if verdict.is_psd else CERTIFIED_NOT_CNP
    return CnpVerdict(status=status, min_eig=verdict.min_eig)


@dataclass(frozen=True)
class EmbeddingResult:
    """Points b_i in the open unit ball realizing the normalized kernel.

    b_points[base_index] is exactly zero, every row has norm below 1, and
    residual is the largest deviation |<b_i, b_j> - F[i][j]|. delta is that of
    the normalization at base_index (kernels.normalize).
    """

    rank: int
    b_points: np.ndarray
    base_index: int
    residual: float
    delta: np.ndarray


def agler_mccarthy_embed(
    g: HermitianMatrix, base: int, tol: float = DEFAULT_TOL
) -> EmbeddingResult:
    """Realize a sample as 1/(1 - <b_i, b_j>) with b_base = 0.

    Factors F = 1 - 1/K~ into feature vectors. Raises NotCnpError when F is
    not PSD within tol (the sample refutes the CNP property) and
    InconsistentSampleError if a recovered point falls outside the open
    unit ball.
    """
    ng = normalize(g, base)
    f = one_minus_inverse(ng)
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
    return EmbeddingResult(
        rank=rank, b_points=rows, base_index=int(base), residual=residual, delta=ng.delta
    )


@dataclass(frozen=True)
class RatioReport:
    """Both ratio tests of the coefficients a_n of a disk kernel, from one scan.

    first_hyponormal_violation is the first n >= 1 at which the successive ratios
    fail to be non-increasing, a_n/a_{n-1} >= a_{n+1}/a_n. That direction is
    equivalent to hyponormality of multiplication by the coordinate function on the
    power-series space with these weights, so a violation is a refutation, not just
    a failed sufficient condition. first_np_violation is the first n at which they
    fail to be non-decreasing, a_n/a_{n-1} <= a_{n+1}/a_n: Kaluza's condition,
    sufficient for the CNP property but not necessary, so its failure is
    inconclusive and must not be reported as "not CNP". Each is None where its
    direction holds throughout. Both come from exact integer products (ratio_report).
    """

    first_hyponormal_violation: Optional[int]
    first_np_violation: Optional[int]

    @property
    def hyponormal_ok(self) -> bool:
        return self.first_hyponormal_violation is None

    @property
    def np_ok(self) -> bool:
        return self.first_np_violation is None

    @property
    def geometric(self) -> bool:
        """Both directions hold, which forces constant successive ratios: a_n = a_1^n."""
        return self.hyponormal_ok and self.np_ok

    @property
    def first_violation(self) -> Optional[int]:
        """The smallest index at which either direction fails (None when both pass)."""
        found = (self.first_hyponormal_violation, self.first_np_violation)
        return min((n for n in found if n is not None), default=None)


def ratio_report(coeffs: Sequence) -> RatioReport:
    """Both ratio tests of a disk kernel's coefficients, in one scan.

    The entries are validated (validated_coeffs) before the length of at least 3 is
    checked. Each test compares a_n^2 with a_{n-1} a_{n+1} as exact integer products,
    so no scale overflows, underflows or rounds: the sides tie within threshold(1e-12,
    the larger side) when a coefficient is a float, so geometric float lists pass,
    else exactly."""
    coeffs = validated_coeffs(coeffs)
    if len(coeffs) < 3:
        raise InputError("need at least 3 coefficients")
    exact = all(isinstance(c, Rational) for c in coeffs)
    tie, unit = (0, 1) if exact else threshold(_FLOAT_RATIO_RTOL, 1.0).as_integer_ratio()
    vals = [(int(c.numerator), int(c.denominator)) if isinstance(c, Rational)
            else float(c).as_integer_ratio() for c in coeffs]  # a = p/q exactly, q > 0
    down = up = None
    for n, ((p0, q0), (p1, q1), (p2, q2)) in enumerate(zip(vals, vals[1:], vals[2:]), 1):
        lhs, rhs = p1 * p1 * q0 * q2, p0 * p2 * q1 * q1  # a_n^2, a_{n-1} a_{n+1} times q0 q1^2 q2
        gap, slack = (rhs - lhs) * unit, tie * max(lhs, rhs)
        if down is None and gap > slack:
            down = n
        if up is None and -gap > slack:
            up = n
    return RatioReport(first_hyponormal_violation=down, first_np_violation=up)


def _validated_radii(radii: Sequence, what: str) -> tuple[float, ...]:
    out = []
    for i, r in enumerate(radii):
        r = float(real_number(r, f"{what} radius {i}"))
        if not 0.0 < r < 1.0:
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
        if not real_number(self.c, "c") > 0:
            raise InputError("c must be positive")
        if not 0.0 < real_number(self.q, "q") < 1.0:
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
        if not real_number(self.c, "c") > 0:
            raise InputError("c must be positive")
        if not math.isfinite(real_number(self.p, "p")):
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
    """c sum_{k >= 2} k^-p, p > 1, by Euler-Maclaurin at n = 16 (Abramowitz & Stegun 23.1.30): the
    math.fsum of k^-p for k < n, n^(1-p) / (p - 1), n^-p / 2 and the B_2..B_10 corrections, each 0
    once it underflows. Within 4e-16 relative of c (zeta(p) - 1) at p = 1.1, 1.5, 2, 3 and 4.
    Past p = 1022, where 2^-p is subnormal, the sum is c 2^-p sum_k (2/k)^p with 2^-p applied
    exactly, last: sum_k (2/k)^p = 1 + (2/3)^p + ... rounds to 1, as (2/3)^1022 < 2^-597."""
    if p > 1022:
        w = math.floor(p)
        return math.ldexp(c * 2.0 ** (w - p), -w)
    n = 16.0
    f = n**-p
    parts = [k**-p for k in range(2, 16)] + [n * f / (p - 1.0), 0.5 * f]
    d = p * f / n  # |f^(2j+1)(n)| for f(x) = x^-p, from j = 0
    for j, b in enumerate((1 / 12, -1 / 720, 1 / 30240, -1 / 1209600, 1 / 47900160)):
        parts.append(b * d)  # b = B_2(j+1) / (2(j+1))!
        d = d * (p + 2 * j + 1) / n * (p + 2 * j + 2) / n  # factor by factor: 0 stays 0, never NaN
    return c * math.fsum(parts)


def blaschke_classify(family: BlaschkeFamily) -> BlaschkeVerdict:
    """Classify the gap sum of a radii family.

    Closed-form families only: a finite list always sums; a geometric tail
    sums to c / (1 - q) plus its prefix; a polynomial tail diverges exactly
    when p <= 1. Divergence cannot be decided from finitely many terms of an
    arbitrary sequence, hence the restriction.
    """
    if isinstance(family, PolynomialTail) and family.p <= 1.0:
        return BlaschkeVerdict(divergent=True, total=None, is_uniqueness_set=True)
    if isinstance(family, FiniteRadii):
        radii, tail = family.radii, 0.0
    elif isinstance(family, GeometricTail):
        radii, tail = family.prefix, family.c / (1.0 - family.q)
    elif isinstance(family, PolynomialTail):
        radii, tail = family.prefix, _power_tail_sum(family.c, family.p)
    else:
        raise InputError(f"unknown radii family {type(family).__name__}")
    total = float(sum(1.0 - r for r in radii) + tail)
    return BlaschkeVerdict(divergent=False, total=total, is_uniqueness_set=False)
