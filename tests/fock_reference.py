"""The dict-based Fock arithmetic, kept as the tests' independent reference.

Polynomials with Gaussian-rational (QQi) or complex coefficients in a dict,
exact monomial norms alpha!/|alpha|! as Fractions, inner products summed
term by term, the truncated kernel function built by repeated products, and
the adjoint of multiplication coefficient by coefficient. The library
computes all of this on the shift tables of rkhslab.fock.TruncatedSpace;
the tests compare it against this code, which shares none of its tables.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from fractions import Fraction
from functools import lru_cache
from numbers import Rational
from typing import Iterable, NamedTuple, Union

import numpy as np

from rkhslab.errors import DomainError, InputError, WindowOverflowError
from rkhslab.kernels import PointSet


class QQi:
    """Gaussian rational: complex number with exact Fraction parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    def conjugate(self) -> "QQi":
        return QQi(self.re, -self.im)

    def abs_sq(self) -> Fraction:
        return self.re * self.re + self.im * self.im

    @property
    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def _coerce(self, other):
        if isinstance(other, QQi):
            return other
        if isinstance(other, Rational):
            return QQi(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return complex(self) + other
        return QQi(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __neg__(self):
        return QQi(-self.re, -self.im)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return complex(self) * other
        return QQi(self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __eq__(self, other):
        if isinstance(other, QQi):
            return self.re == other.re and self.im == other.im
        if isinstance(other, Rational):
            return self.im == 0 and self.re == other
        if isinstance(other, (float, complex)):
            return complex(self) == complex(other)
        return NotImplemented

    def __bool__(self):
        return not self.is_zero

    def __repr__(self):
        return f"QQi({self.re!r}, {self.im!r})"


Coefficient = Union[QQi, complex]


def _coerce_coeff(x) -> Coefficient:
    """Exact types (QQi, any Rational: int, bool, Fraction, numpy integers)
    stay exact; everything else is complex."""
    if isinstance(x, QQi):
        return x
    if isinstance(x, Rational):
        return QQi(x)
    c = complex(x)
    if not (math.isfinite(c.real) and math.isfinite(c.imag)):
        raise InputError("coefficients must be finite")
    return c


@lru_cache(maxsize=None)
def monomial_norm_sq(alpha: tuple) -> Fraction:
    """Exact ||z^alpha||^2 = alpha! / |alpha|!.

    Follows from expanding 1/(1 - <z, w>) as a geometric series: the
    degree-n part <z, w>^n spreads the multinomial weight n!/alpha! over
    the monomials, and the reproducing property inverts that weight.
    """
    total = 0
    num = 1
    for e in alpha:
        if e < 0:
            raise InputError("multi-index entries must be non-negative")
        num *= math.factorial(e)
        total += e
    return Fraction(num, math.factorial(total))


class Polynomial:
    """Multivariate polynomial over multi-indexed monomials.

    Coefficients are Gaussian rationals (exact path) or complex floats
    (numeric path), never mixed within one polynomial. Zero coefficients
    are not stored. QQi turns complex when it meets a float, so exact and
    numeric polynomials combine by plain operators into numeric ones.
    """

    __slots__ = ("dim", "coeffs")

    def __init__(self, dim: int, coeffs: Union[Mapping, Iterable[tuple]] = ()):
        if not isinstance(dim, int) or dim < 1:
            raise InputError("dim must be a positive integer")
        items = coeffs.items() if isinstance(coeffs, Mapping) else coeffs
        clean: dict = {}
        for alpha, c in items:
            key = tuple(int(e) for e in alpha)
            if len(key) != dim or any(e < 0 for e in key):
                raise InputError(f"bad multi-index {alpha} for dim {dim}")
            cc = _coerce_coeff(c)
            clean[key] = clean[key] + cc if key in clean else cc
        if not all(isinstance(v, QQi) for v in clean.values()):
            clean = {k: complex(v) for k, v in clean.items()}
        object.__setattr__(self, "dim", dim)
        object.__setattr__(
            self, "coeffs", {k: v for k, v in clean.items() if v}
        )

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    @classmethod
    def zero(cls, dim: int) -> "Polynomial":
        return cls(dim)

    @classmethod
    def constant(cls, dim: int, value=1) -> "Polynomial":
        return cls(dim, {(0,) * dim: value})

    @classmethod
    def monomial(cls, dim: int, alpha, value=1) -> "Polynomial":
        return cls(dim, {tuple(alpha): value})

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def is_exact(self) -> bool:
        return all(isinstance(c, QQi) for c in self.coeffs.values())

    @property
    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.coeffs:
            return -1
        return max(sum(a) for a in self.coeffs)

    def _wrap_scalar(self, other) -> "Polynomial":
        return Polynomial.constant(self.dim, other)

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            other = self._wrap_scalar(other)
        if other.dim != self.dim:
            raise InputError("dimension mismatch")
        merged = dict(self.coeffs)
        for a, c in other.coeffs.items():
            merged[a] = merged[a] + c if a in merged else c
        return Polynomial(self.dim, merged)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial(self.dim, {a: -c for a, c in self.coeffs.items()})

    def __sub__(self, other):
        if not isinstance(other, Polynomial):
            other = self._wrap_scalar(other)
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            other = self._wrap_scalar(other)
        if other.dim != self.dim:
            raise InputError("dimension mismatch")
        out: dict = {}
        for a, ca in self.coeffs.items():
            for b, cb in other.coeffs.items():
                key = tuple(x + y for x, y in zip(a, b))
                term = ca * cb
                out[key] = out[key] + term if key in out else term
        return Polynomial(self.dim, out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise InputError("exponent must be a non-negative integer")
        result = Polynomial.constant(self.dim, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.dim == other.dim and self.coeffs == other.coeffs

    def evaluate(self, point) -> complex:
        z = np.atleast_1d(np.asarray(point, dtype=np.complex128))
        if z.shape != (self.dim,):
            raise InputError(f"point must have {self.dim} coordinates")
        total = 0j
        for alpha, c in self.coeffs.items():
            term = complex(c)
            for zi, e in zip(z, alpha):
                if e:
                    term *= zi**e
            total += term
        return total

    def __repr__(self):
        return f"Polynomial(dim={self.dim}, terms={len(self.coeffs)})"


def inner_product(p: Polynomial, q: Polynomial) -> Coefficient:
    """Weighted pairing sum_alpha p_alpha conj(q_alpha) ||z^alpha||^2.

    Linear in the first argument, conjugate-linear in the second. Exact when
    both polynomials are on the exact path.
    """
    if p.dim != q.dim:
        raise InputError("dimension mismatch")
    small, big, conj_small = (p, q, False) if len(p.coeffs) <= len(q.coeffs) else (q, p, True)
    exact = p.is_exact and q.is_exact
    total: Coefficient = QQi() if exact else 0j
    for alpha, c in small.coeffs.items():
        d = big.coeffs.get(alpha)
        if d is None:
            continue
        pc, qc = (d, c) if conj_small else (c, d)
        total = total + pc * qc.conjugate() * monomial_norm_sq(alpha)
    return total


def norm_sq(p: Polynomial) -> Union[Fraction, float]:
    """||p||^2; a Fraction on the exact path, a float otherwise."""
    ip = inner_product(p, p)
    if isinstance(ip, QQi):
        return ip.re
    return ip.real


def _coerce_vector(w) -> list:
    if isinstance(w, PointSet):
        raise InputError("expected a single point, not a point set")
    if isinstance(w, np.ndarray):
        arr = list(np.atleast_1d(w))
    elif isinstance(w, (list, tuple)):
        arr = list(w)
    else:
        arr = [w]
    if not arr:
        raise InputError("point must have at least one coordinate")
    return [_coerce_coeff(x) for x in arr]


def _vector_norm_sq(entries: list) -> Union[Fraction, float]:
    """||z||^2, exact for Gaussian rationals; inf when it passes the float range."""
    if all(isinstance(e, QQi) for e in entries):
        return sum((e.abs_sq() for e in entries), Fraction(0))
    try:
        return float(sum(abs(complex(e)) ** 2 for e in entries))
    except OverflowError:  # such a z lies far outside the ball, which the callers refuse
        return math.inf


def pairing(w) -> Polynomial:
    """Degree-one polynomial z -> <z, w>, i.e. sum_i conj(w_i) z_i.

    These are the coordinate-function analogues among multipliers of the
    ball kernel; w is any finite vector, not necessarily inside the ball.
    """
    entries = _coerce_vector(w)
    d = len(entries)
    coeffs = {}
    for i, wi in enumerate(entries):
        alpha = tuple(1 if k == i else 0 for k in range(d))
        coeffs[alpha] = wi.conjugate()
    return Polynomial(d, coeffs)


class TruncatedKernel(NamedTuple):
    poly: Polynomial
    tail_norm_sq: float  # ||z||^(2(N+1)) / (1 - ||z||^2), the dropped mass


def truncated_kernel_fn(z, degree: int) -> TruncatedKernel:
    """Partial sum sum_{n <= degree} <., z>^n of the kernel function at z.

    Requires ||z|| < 1 and attaches the exact geometric bound on the squared
    norm of the dropped tail.
    """
    if degree < 0:
        raise InputError("degree must be non-negative")
    entries = _coerce_vector(z)
    nz = _vector_norm_sq(entries)
    if not float(nz) < 1.0:
        raise DomainError(f"||z||^2 = {float(nz):.6f} is not below 1")
    d = len(entries)
    result = Polynomial.constant(d, 1)
    step = pairing(entries)
    term = Polynomial.constant(d, 1)
    for _ in range(degree):
        term = term * step
        result = result + term
    t = float(nz)
    tail = t ** (degree + 1) / (1.0 - t)
    return TruncatedKernel(poly=result, tail_norm_sq=tail)


def mult_adjoint_apply(phi: Polynomial, f: Polynomial, degree: int) -> Polynomial:
    """Adjoint of multiplication by phi applied to f, on a degree window.

    Returns the polynomial g supported in degrees <= degree - deg(phi) with
    <g, h> = <f, phi h> for every h of degree <= degree - deg(phi). When f
    is an honest polynomial (not the truncation of a series) and phi is
    homogeneous, g is the complete adjoint image. f must fit the window;
    the engine raises rather than truncate.
    """
    if phi.dim != f.dim:
        raise InputError("dimension mismatch")
    if degree < 0:
        raise InputError("degree must be non-negative")
    if f.degree > degree:
        raise WindowOverflowError(
            f"input of degree {f.degree} does not fit the degree-{degree} window"
        )
    if phi.is_zero or f.is_zero:
        return Polynomial.zero(f.dim)
    out_cap = degree - phi.degree
    acc: dict = {}
    for gamma, pc in phi.coeffs.items():
        pcc = pc.conjugate()
        for mu, fc in f.coeffs.items():
            beta = tuple(m - g for m, g in zip(mu, gamma))
            if any(b < 0 for b in beta) or sum(beta) > out_cap:
                continue
            ratio = monomial_norm_sq(mu) / monomial_norm_sq(beta)
            term = pcc * fc * ratio
            acc[beta] = acc[beta] + term if beta in acc else term
    return Polynomial(f.dim, acc)


def reference(p) -> Polynomial:
    """The same polynomial on the dict path, from a library Polynomial."""
    return Polynomial(p.dim, p.coeffs)
