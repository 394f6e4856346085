"""Computations in the truncated Drury-Arveson space (symmetric Fock).

The ambient space is the d-variable reproducing kernel Hilbert space on the
unit ball with kernel 1/(1 - <z, w>), cut off at a chosen total degree.
Monomials z^alpha are orthogonal with norm squared 1/M_alpha, where
M_alpha = |alpha|!/alpha! is the multinomial coefficient.

One representation. Every computation runs on the shift tables of a
TruncatedSpace: in its isometric coordinates multiplication by c z^gamma is
a scatter-add over the table of gamma, and its adjoint is the gather over
the same table. A Polynomial is the value type of a multiplier, with complex
coefficients; its products, powers and inner products are short calls onto
the tables. No operator matrix of a window is formed: the self-commutator of
the whole window is summed from the tables too, pair by pair. Every
orthonormal subspace of a window comes from FockSubspace.span: one thin
Householder QR and an SVD of its small triangle, cut at one numerical-rank
rule. The closure residual needs only such a triangle, and no basis.

One exact routine. Where exactness is the result (Arveson's witness
1/6 < 1/4 in arveson_example, and tail_balance at a point with exact
coordinates, QQi), TruncatedSpace.exact_norms_sq runs on the same tables
with Python integers over one common denominator. Multiplication runs in
monomial coordinates and its adjoint in dual coordinates <f, z^alpha>, both
unweighted; the integer multinomials convert between the two and weight
the norms, which come out as Fractions.

Degree windows. M_phi* maps a window into itself (M_{z^g}* z^alpha is a multiple
of z^(alpha - g)), so the gather is the conjugate transpose of the window's matrix
of M_phi, exactly. mult_adjoint_apply, whose f may truncate a series, returns only
the coefficients its window vouches for, and raises when f itself does not fit.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Mapping
from fractions import Fraction
from numbers import Rational
from typing import Iterable, NamedTuple, Union

import numpy as np

from .errors import DomainError, InputError, WindowOverflowError
from .kernels import PointSet, _as_point
from .linalg import DEFAULT_TOL, Subspace, complex_array, complex_number, connected_components, min_eigenvalue
from .linalg import real_number, threshold, whole_number


class QQi:
    """Gaussian rational: an exact complex coordinate with Fraction parts.

    A value type only: it converts to complex, and exact arithmetic on it
    happens in TruncatedSpace.exact_norms_sq.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __repr__(self):
        return f"QQi({self.re!r}, {self.im!r})"


def _gaussian(x) -> tuple:
    """(re, im) Fractions of an exact complex number, a Rational or a QQi."""
    return (Fraction(x), Fraction(0)) if isinstance(x, Rational) else (x.re, x.im)


def _coerce_coeff(x, what: str) -> complex:
    """A finite complex: a QQi part by part by real_number, any other value by complex_number."""
    if isinstance(x, QQi):
        x = complex(float(real_number(x.re, what)), float(real_number(x.im, what)))
    return complex_number(x, what)


class Polynomial:
    """A multiplier: complex coefficients on multi-indices, zeros not stored.

    Any complex, QQi or real number (linalg.real_number) is a coefficient, kept as a finite
    complex; exponents are whole_numbers. Products, powers and inner products run on the
    shift tables of the smallest window that holds their result.
    """

    __slots__ = ("dim", "coeffs")

    def __init__(self, dim: int, coeffs: Union[Mapping, Iterable[tuple]] = ()):
        dim = whole_number(dim, "dim", 1)
        items = coeffs.items() if isinstance(coeffs, Mapping) else coeffs
        clean: dict = {}
        for alpha, c in items:
            try:
                key = tuple(whole_number(e, "exponent", 0) for e in alpha)
            except TypeError:  # alpha is not a sequence
                raise InputError(f"bad multi-index {alpha} for dim {dim}") from None
            if len(key) != dim:
                raise InputError(f"bad multi-index {alpha} for dim {dim}")
            cc = _coerce_coeff(c, "coefficient")
            clean[key] = clean[key] + cc if key in clean else cc
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "coeffs", {k: v for k, v in clean.items() if v})

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
    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.coeffs:
            return -1
        return max(sum(a) for a in self.coeffs)

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            other = Polynomial.constant(self.dim, other)
        if other.dim != self.dim:
            raise InputError("dimension mismatch")
        merged = dict(self.coeffs)
        for a, c in other.coeffs.items():
            merged[a] = merged[a] + c if a in merged else c
        return Polynomial(self.dim, merged)

    __radd__ = __add__

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            other = Polynomial.constant(self.dim, other)
        if other.dim != self.dim:
            raise InputError("dimension mismatch")
        if self.is_zero or other.is_zero:
            return Polynomial.zero(self.dim)
        space = TruncatedSpace(self.dim, self.degree + other.degree)
        return space.polynomial(space.multiply(self, space.iso_vector(other)))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        n = whole_number(n, "exponent", 0)
        space = TruncatedSpace(self.dim, n * max(self.degree, 0))
        u = np.zeros(len(space), dtype=np.complex128)
        u[0] = 1.0  # the constant 1, of norm 1
        for _ in range(n):
            u = space.multiply(self, u)
        return space.polynomial(u)

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.dim == other.dim and self.coeffs == other.coeffs

    def __repr__(self):
        return f"Polynomial(dim={self.dim}, terms={len(self.coeffs)})"


def inner_product(p: Polynomial, q: Polynomial) -> complex:
    """Weighted pairing sum_alpha p_alpha conj(q_alpha) ||z^alpha||^2, linear in the
    first argument and conjugate-linear in the second: the standard pairing of the
    isometric coordinates of p and q."""
    if p.dim != q.dim:
        raise InputError("dimension mismatch")
    space = TruncatedSpace(p.dim, max(p.degree, q.degree, 0))
    return complex(np.vdot(space.iso_vector(q), space.iso_vector(p)))


def mult_adjoint_apply(phi: Polynomial, f: Polynomial, degree: int) -> Polynomial:
    """Adjoint of multiplication by phi applied to f, on a degree window.

    Returns the polynomial g supported in degrees <= degree - deg(phi) with
    <g, h> = <f, phi h> for every h of degree <= degree - deg(phi): M_phi* f on the
    window with the higher degrees zeroed, as terms of f past it would add to them (the
    one place this cut is made). When f is an honest polynomial (not the truncation of
    a series) and phi is homogeneous, g is the complete adjoint image. f must fit the
    window; the engine raises rather than truncate.
    """
    if f.degree > whole_number(degree, "degree", 0):
        raise WindowOverflowError(
            f"input of degree {f.degree} does not fit the degree-{degree} window"
        )
    space = TruncatedSpace(f.dim, degree)
    g = space.multiply(phi, space.iso_vector(f), adjoint=True)
    g[space.size_at_most(degree - phi.degree) :] = 0
    return space.polynomial(g)


def _is_real(phi) -> bool:
    """Every coefficient of phi has imaginary part 0, of either sign."""
    return all(complex(c).imag == 0 for c in phi.coeffs.values())


_ARRAY_BYTES = 2**28  # the most one array of a window may take: 256 MiB


def _check_array_size(entries: int, item_bytes: int, what: str) -> None:
    """Refuse an array of this many entries past _ARRAY_BYTES before it is allocated."""
    if entries * item_bytes > _ARRAY_BYTES:
        raise WindowOverflowError(
            f"{what} would take {entries * item_bytes >> 20} MiB, past the "
            f"{_ARRAY_BYTES >> 20} MiB one array of a window may take"
        )


def _inverse_multinomials(s: np.ndarray, alpha: np.ndarray) -> np.ndarray:
    """1 / prod_j C(s_j, alpha_j) over the columns j, correctly rounded, for exponent rows
    in graded order (s_0, the total degree, ascending): the binomials are read from one
    exact Pascal triangle of Python ints, from the least row any exponent row reads, then
    grown a row at a time with s_0. A row of the triangle is dropped once no later
    exponent row reads it (in two variables, where s_0 is the only column, as soon as the
    next degree begins), so the triangle held at once stays small."""
    out = np.empty(len(s))
    starts = [0, *(np.flatnonzero(np.diff(s[:, 0])) + 1).tolist(), len(s)]  # of each degree
    least = np.minimum.accumulate(s.min(axis=1)[::-1])[::-1]  # read from this row on
    first = int(least[0])
    pascal = {first: [math.comb(first, a) for a in range(first + 1)]}
    for start, end in zip(starts, starts[1:]):
        for r in range(max(pascal) + 1, int(s[start, 0]) + 1):
            prev = pascal[r - 1]
            pascal[r] = [1, *map(int.__add__, prev, prev[1:]), 1]
        for r in [r for r in pascal if r < least[start]]:
            del pascal[r]
        exact = [1] * (end - start)
        for rs, alphas in zip(s[start:end].T.tolist(), alpha[start:end].T.tolist()):  # by column
            exact = [x * pascal[r][a] for x, r, a in zip(exact, rs, alphas)]
        out[start:end] = [1 / x for x in exact]
    return out


class TruncatedSpace:
    """Ordered monomial basis of the degree-bounded polynomial space.

    Basis order is graded lexicographic (total degree first, then tuple
    order), fixed at construction, so every matrix built over it is
    reproducible. Coordinates are isometric: the coefficient of z^alpha is
    scaled by ||z^alpha||, making the standard inner product of coordinate
    vectors equal to the space's weighted inner product. Multiplication
    acts through per-monomial shift tables kept on the instance, and no
    operator matrix is formed: compression_defect sums the whole window's
    self-commutator from the same tables.
    A window is built by array arithmetic, with no Python work per monomial:
    exponent rows in order, one coordinate at a time; weights sqrt(1/M),
    M = |alpha|!/alpha! and 1/M correctly rounded, in floats where M < 2^53
    and by Python ints past it (_inverse_multinomials); positions by one
    ranking formula (index).
    A window with some M > 2^1022, whose 1/M falls below the normal float
    range, is refused with InputError before any of this runs. M is largest at
    the most even alpha, so the test is one comparison of factorials, and every
    window in two or more variables from degree 1028 on holds (514, 514, 0, ...)
    with M = C(1028, 514) > 2^1022; the first refused degree is 1028, 651, 518,
    448 and 404 in 2-6 variables. Then a window whose k = C(degree + dim, dim)
    exponent rows of dim int64s pass _ARRAY_BYTES is refused with
    WindowOverflowError. The weights are formed in the array of M, so the build's
    traced peak is a few times that table: 4.0 times at (dim, degree) = (3, 120),
    2.3 at (4, 40), 5.8 at (2, 500) and 5.9 at (2, 1000), where most weights need
    Python ints.
    """

    __slots__ = ("dim", "degree", "exponents", "_choose", "_sqrt_norms", "_shifts")

    def __init__(self, dim: int, degree: int):
        dim, degree = whole_number(dim, "dim", 1), whole_number(degree, "degree", 0)
        window = f"the degree-{degree} window in {dim} variables"
        q, rem = divmod(degree, dim)  # the most even alpha: rem parts q + 1, the rest q
        f = math.factorial  # not formed from degree 1028 on, where M(514, 514) > 2^1022
        if dim > 1 and (degree >= 1028 or f(degree) > 2**1022 * f(q) ** (dim - rem) * f(q + 1) ** rem):
            raise InputError(  # 1/M < sys.float_info.min
                f"{window} has monomial norms below the normal float range: "
                f"|alpha|!/alpha! exceeds 2^1022"
            )
        _check_array_size(math.comb(degree + dim, dim) * dim, 8, window)
        self.dim = dim
        self.degree = degree
        s = np.arange(degree + 1)[:, None]  # suffix sums s_j = alpha_j + ... + alpha_{d-1}
        for _ in range(dim - 1):  # each row spawns s_{j+1} = s_j, s_j - 1, ..., 0
            counts = s[:, -1] + 1
            ends = np.cumsum(counts)
            nxt = np.repeat(ends - 1, counts) - np.arange(ends[-1])
            s = np.column_stack((np.repeat(s, counts, axis=0), nxt))
        # b[k, r] = C(r - 1 + k, k), each row the running sum of the one before: sums of
        # integers round monotonically, so b is exact below 2^53 and >= 2^53 (or inf) above.
        # index reads k <= d; M = prod_{j < d-1} C(s_j, alpha_j) reads k = alpha_j <= degree.
        b = self._choose = np.zeros((max(dim, degree if dim > 1 else 0) + 1, degree + 2))
        b[0, 1:] = 1.0
        m = np.ones(len(s))
        with np.errstate(over="ignore"):
            for k in range(1, len(b)):
                np.add.accumulate(b[k - 1], out=b[k])
            for j in range(dim - 1):  # C(s_j, alpha_j) = C(s_{j+1} + alpha_j, alpha_j)
                m *= b[s[:, j] - s[:, j + 1], s[:, j + 1] + 1]
        big = np.flatnonzero(m >= 2.0**53)
        norms_sq = np.divide(1.0, m, out=m)
        if big.size:  # there 1 / M in Python ints, also correctly rounded
            norms_sq[big] = _inverse_multinomials(s[big, :-1], s[big, :-1] - s[big, 1:])
        self._sqrt_norms = np.sqrt(norms_sq, out=norms_sq)
        for j in range(dim - 1):  # alpha_j = s_j - s_{j+1} in place, so s is not copied
            s[:, j] -= s[:, j + 1]
        self.exponents = s
        self._shifts: dict = {}

    def __len__(self) -> int:
        return len(self.exponents)

    def size_at_most(self, degree: int) -> int:
        """Number of basis monomials of total degree <= degree; the graded
        order puts them first."""
        return math.comb(degree + self.dim, self.dim) if degree >= 0 else 0

    def index(self, exps) -> np.ndarray:
        """Basis positions of exponent rows of degree <= self.degree: C(n + d, d) - 1 for
        alpha of degree n, less the degree-n monomials after it, which for each j >= 1 are
        the C(s_j - 1 + d - j, d - j) equal to alpha before j - 1 and larger there."""
        s = np.array(np.reshape(exps, (-1, self.dim)), dtype=np.int64)
        for j in range(self.dim - 2, -1, -1):
            s[:, j] += s[:, j + 1]  # suffix sums s_j = alpha_j + ... + alpha_{d-1}
        pos = self._choose[self.dim, s[:, 0] + 1] - 1
        for j in range(1, self.dim):
            pos -= self._choose[self.dim - j, s[:, j]]
        return pos.astype(np.intp)

    def iso_vector(self, p: Polynomial) -> np.ndarray:
        """Isometric coordinates of a polynomial of fitting degree."""
        if p.dim != self.dim:
            raise InputError("dimension mismatch")
        if p.degree > self.degree:
            raise WindowOverflowError(
                f"polynomial of degree {p.degree} does not fit degree {self.degree}"
            )
        u = np.zeros(len(self), dtype=np.complex128)
        at = self.index(list(p.coeffs))
        u[at] = np.fromiter(p.coeffs.values(), np.complex128, len(at)) * self._sqrt_norms[at]
        return u

    def polynomial(self, u: np.ndarray) -> Polynomial:
        """Polynomial (numeric path) with the given isometric coordinates."""
        u = np.asarray(u, dtype=np.complex128)
        if u.shape != (len(self),):
            raise InputError(f"coordinate vector must have length {len(self)}")
        nz = np.flatnonzero(u)
        return Polynomial(self.dim, zip(self.exponents[nz].tolist(), u[nz] / self._sqrt_norms[nz]))

    def kernel_vector(self, z) -> np.ndarray:
        """Isometric coordinates of the truncated kernel function at z.

        Entry alpha is conj(z)^alpha / ||z^alpha||; the squared norm of the
        vector is sum_{n <= degree} ||z||^(2n). Its degree-n block holds the
        coordinates of <., z>^n. A stack of points, shape (m, dim), gives
        one column per point. z is read by linalg.complex_array.

        Each entry multiplies the powers conj(z_j)^alpha_j, gathered one
        coordinate at a time, in the order j = 0, 1, ..., and in real
        arithmetic: re = a.re b.re - a.im b.im, im = a.re b.im + a.im b.re,
        each product and sum rounded once. That is how Python's complex
        product rounds, while numpy's binary complex multiply may round
        differently, so a column holds the same bits as a product taken
        coordinate by coordinate in Python. The products run in place, so
        no temporary is larger than the real or imaginary part of the
        result.
        """
        zv = complex_array(z, "point")
        pts = zv if zv.ndim == 2 else np.atleast_1d(zv)[None, :]
        if pts.ndim != 2 or pts.shape[1] != self.dim:
            raise InputError(f"point must have {self.dim} coordinates")
        with np.errstate(over="ignore"):  # a norm past the float range is inf, and refused
            inside = np.all(np.linalg.norm(pts, axis=1) < 1.0)
        if not inside:
            raise DomainError("point must lie inside the open unit ball")
        # conj(z_j)^e for each coordinate j and e <= degree, each power once
        powers = np.conjugate(pts)[:, :, None] ** np.arange(self.degree + 1)
        re, im, e = powers.real, powers.imag, self.exponents
        u_re, u_im = re[:, 0, e[:, 0]], im[:, 0, e[:, 0]]
        for j in range(1, self.dim):  # times b = conj(z_j)^alpha_j, in place on fresh gathers
            b_re, b_im = re[:, j, e[:, j]], im[:, j, e[:, j]]
            cross = u_re * b_im
            b_im *= u_im
            u_re *= b_re
            u_re -= b_im  # a.re b.re - a.im b.im
            u_im *= b_re
            u_im += cross  # a.im b.re + a.re b.im
        u = np.empty((len(pts), len(self)), dtype=np.complex128)
        u.real, u.imag = u_re, u_im
        u /= self._sqrt_norms
        return u.T if zv.ndim == 2 else u[0]

    def shift(self, gamma) -> tuple:
        """Table (src, dst, weight) of multiplication by z^gamma.

        src is the slice of window monomials alpha with |alpha + gamma| <=
        degree (they come first), dst the index of each alpha + gamma, and
        weight = ||z^(alpha + gamma)|| / ||z^alpha||. In isometric
        coordinates (z^gamma f)[dst] = weight * f[src]; the adjoint is the
        gather over the same table.
        """
        gamma = tuple(gamma)
        table = self._shifts.get(gamma)
        if table is None:
            if len(gamma) != self.dim:
                raise InputError("dimension mismatch")
            count = self.size_at_most(self.degree - sum(gamma))
            dst = np.zeros(0, dtype=np.intp)  # z^gamma past the window: no int64 row holds gamma
            if count:
                dst = self.index(self.exponents[:count] + np.array(gamma, dtype=np.int64))
            table = (slice(0, count), dst, self._sqrt_norms[dst] / self._sqrt_norms[:count])
            self._shifts[gamma] = table
        return table

    def multiply(self, phi: Polynomial, u, adjoint: bool = False) -> np.ndarray:
        """Coordinates of phi f cut to the window, for f with coordinates u
        (a vector, or one column per function), summed over shift tables.

        adjoint=True gives M_phi* f instead, exactly: M_phi* maps the window
        into itself, and the gather is the conjugate transpose of the
        window's matrix of M_phi. An f beyond the window has no coordinates
        here; iso_vector refuses it with WindowOverflowError. The result is
        complex.
        """
        if phi.dim != self.dim:
            raise InputError("dimension mismatch")
        u = np.asarray(u, dtype=np.complex128)
        if u.ndim not in (1, 2) or u.shape[0] != len(self):
            raise InputError(f"coordinates must have {len(self)} rows")
        out = np.zeros(u.shape, dtype=u.dtype)
        for gamma, c in phi.coeffs.items():
            src, dst, weight = self.shift(gamma)
            w = weight if u.ndim == 1 else weight[:, None]
            c = complex(c)
            if adjoint:
                out[src] += c.conjugate() * (w * u[dst])
            else:
                out[dst] += c * (w * u[src])
        return out

    def multinomials(self) -> np.ndarray:
        """The integers M_alpha = |alpha|!/alpha! = 1 / ||z^alpha||^2, exactly, as Python
        ints in an object array."""
        factorial = np.array([math.factorial(n) for n in range(self.degree + 1)], dtype=object)
        return factorial[self.exponents.sum(axis=1)] // np.prod(factorial[self.exponents], axis=1)

    def exact_norms_sq(self, terms, y_re, y_im, den) -> tuple:
        """(||M_phi* f||^2, ||M_phi f||^2) as Fractions, computed exactly on the tables.

        phi = sum c_gamma z^gamma over the (gamma, c_gamma) pairs of terms, each
        c_gamma a Rational or a QQi. f is given by its dual coordinates
        y_alpha = <f, z^alpha> = (y_re + i y_im)_alpha / den, y_re and y_im object
        arrays of Python ints. As in multiply, M_phi f is cut to the window,
        and M_phi* f stays in it and is exact.

        Multiplication runs in monomial coordinates c = M y, where each table
        weight is 1. The adjoint runs on y, where <M_phi* f, z^beta> =
        sum_gamma conj(c_gamma) y_(beta + gamma) is an unweighted gather. The
        norms are sum |y|^2 M and sum |c|^2 / M = sum |c|^2 (L / M) / L, L = degree!.
        """
        parts = [(tuple(g), *_gaussian(c)) for g, c in terms]
        q = math.lcm(*(x.denominator for _, re, im in parts for x in (re, im)))
        m = self.multinomials()
        c_re, c_im = y_re * m, y_im * m
        fwd_re, fwd_im, adj_re, adj_im = (np.zeros(len(self), dtype=object) for _ in range(4))
        for gamma, re, im in parts:
            src, dst, _ = self.shift(gamma)
            a, b = int(re * q), int(im * q)  # c_gamma = (a + i b) / q
            fwd_re[dst] += a * c_re[src] - b * c_im[src]
            fwd_im[dst] += a * c_im[src] + b * c_re[src]
            adj_re[src] += a * y_re[dst] + b * y_im[dst]
            adj_im[src] += a * y_im[dst] - b * y_re[dst]
        scale, whole = q * den, math.factorial(self.degree)
        adjoint = Fraction(int(np.sum((adj_re**2 + adj_im**2) * m)), scale**2)
        forward = Fraction(int(np.sum((fwd_re**2 + fwd_im**2) * (whole // m))), whole * scale**2)
        return adjoint, forward

    def __repr__(self):
        return f"TruncatedSpace(dim={self.dim}, degree={self.degree}, size={len(self)})"


class FockSubspace(Subspace):
    """Subspace of a TruncatedSpace with an orthonormal basis.

    Columns of basis are isometric coordinate vectors, so standard
    orthonormality here means orthonormality of the underlying polynomials
    in the weighted inner product. The orthonormality check and the
    projection are those of linalg.Subspace.
    """

    __slots__ = ("space",)

    def __init__(self, space: TruncatedSpace, basis):
        super().__init__(basis)
        if self.ambient_dim != len(space):
            raise InputError("basis shape does not match the space")
        self.space = space

    def polynomials(self) -> list:
        return [self.space.polynomial(self.basis[:, k]) for k in range(self.dim)]

    @classmethod
    def span(cls, space: TruncatedSpace, columns) -> "FockSubspace":
        """Orthonormal span of the columns of a (len(space), n) array, n >= 0.

        QR first: columns = q r, thin, so r is min(k, n) x n. r has the singular
        values of columns, and the rank counts those above s[0] * max(shape) * eps
        (_numerical_rank). At full rank the basis is q. Below it, the basis is
        q w[:, :rank], w the left singular vectors of r, formed only then: these are
        the leading left singular vectors of columns, as a thin SVD of the tall array
        gives them, for the price of a QR and an SVD of the small r (Chan, ACM TOMS 8,
        1982). No columns (n = 0) span the zero subspace, and n > k columns work.
        """
        q, r = np.linalg.qr(columns)
        rank = _numerical_rank(np.linalg.svd(r, compute_uv=False), np.shape(columns))
        if rank < q.shape[1]:
            q = q @ np.linalg.svd(r)[0][:, :rank]
        return cls(space, q)


def _numerical_rank(s: np.ndarray, shape: tuple) -> int:
    """The number of singular values s (in descending order) of an array of the given shape
    above s[0] * max(shape) * eps: the one rank rule of the module's spans."""
    return int(np.sum(s > s[0] * max(shape) * np.finfo(float).eps)) if s.size else 0


def span_of_polynomials(space: TruncatedSpace, polys: Iterable[Polynomial]) -> FockSubspace:
    """Orthonormalized span (FockSubspace.span, rank-revealing) of given polynomials."""
    rows = np.array([space.iso_vector(p) for p in polys])
    return FockSubspace.span(space, rows.reshape(-1, len(space)).T)  # (len(space), 0) for no polys


def powers_that_fit(space: TruncatedSpace, phi: Polynomial) -> int:
    """The most powers of phi that powers_span takes on the window, counted on the terms
    that act on it: degree // max(n, 1) for n the degree of phi cut to the window (see
    _normalized), so a constant phi gets no more powers than z1 would."""
    return space.degree // max(_normalized(phi, space.degree)[2], 1)


def powers_span(space: TruncatedSpace, phi: Polynomial, count: int) -> FockSubspace:
    """Orthonormalized span of 1, phi, ..., phi^count, built as that of 1, psi,
    ..., psi^count for psi = (phi - phi(0)) 2^-e, phi cut to the window (see
    _normalized), each power the shift-table product of psi with the one before, so
    the rank rule sees no scale of phi. The powers of the cut phi must fit the window:
    count <= powers_that_fit(space, phi). Powers past _ARRAY_BYTES are refused with
    WindowOverflowError before they are formed."""
    count = whole_number(count, "count", 0)
    if count > powers_that_fit(space, phi):
        raise WindowOverflowError(f"count {count}: more powers than degree {space.degree} holds")
    psi = _normalized(phi, space.degree)[0]
    _check_array_size(len(space) * (count + 1), 16, f"the {len(space)} x {count + 1} matrix of powers")
    cols = np.zeros((len(space), count + 1), dtype=np.complex128)
    cols[0, 0] = 1.0  # the constant 1, of norm 1
    for k in range(1, count + 1):
        cols[:, k] = space.multiply(psi, cols[:, k - 1])
    return FockSubspace.span(space, cols)


class VanishingSubspaces(NamedTuple):
    complement: FockSubspace  # spanned by the kernel functions at Y

    @property
    def ideal(self) -> FockSubspace:
        """Polynomials of bounded degree vanishing on Y, formed from complement on each read."""
        u = np.linalg.svd(self.complement.basis, full_matrices=True)[0]
        return FockSubspace(self.complement.space, u[:, self.complement.dim :])


def vanishing_subspace(points: PointSet, degree: int) -> VanishingSubspaces:
    """Split the truncated space into functions vanishing on Y and the rest.

    The complement is the span of the truncated kernel vectors at Y:
    evaluation at y is the pairing with the kernel vector at y, so the
    evaluation nullspace and the kernel span are exact orthocomplements.
    Only the complement is built, by FockSubspace.span (a thin QR of the
    kernel vectors, then an SVD of its m x m triangle); the ideal on read.
    More points than the window has monomials, and kernel vectors past
    _ARRAY_BYTES, are refused before they are formed.
    """
    space, cols = _kernel_vectors(points, degree)
    return VanishingSubspaces(FockSubspace.span(space, cols))


def _kernel_vectors(points: PointSet, degree: int, *extra) -> tuple:
    """The degree window and its kernel vectors at the points of Y and then at the extra
    points, one column each. More points in Y than the window's k monomials are refused
    with InputError, and a matrix past _ARRAY_BYTES with WindowOverflowError, before any
    kernel vector is formed."""
    space = TruncatedSpace(points.dim, whole_number(degree, "degree", 1))  # at degree 0 each is 1
    k, pts = len(space), np.vstack((points.points, *extra))
    if len(points) > k:
        raise InputError(f"{len(points)} points exceed the {k} basis monomials of the window")
    _check_array_size(k * len(pts), 16, f"the {k} x {len(pts)} matrix of kernel vectors")
    return space, space.kernel_vector(pts)


class ClosureMembership(NamedTuple):
    member: bool
    residual: float


def in_closure(z, points: PointSet, degree: int, tol: float = DEFAULT_TOL) -> ClosureMembership:
    """Does the kernel function at z lie in the span of those of Y?

    Membership characterizes the points to which every function vanishing
    on Y keeps vanishing. residual is the relative distance of the
    truncated kernel vector u at z from the span of those at Y; member means
    residual <= threshold(tol, 1), the residual being relative already.

    The distance needs no basis of the span. For the k x (m + 1) matrix
    A = [K_Y, u] of kernel vectors, built in one call, only the triangle r of
    the Householder QR A = Q r is formed, so u = Q r[:, m]. The span is cut at
    the rank of K_Y, whose singular values are those of r[:m, :m]
    (_numerical_rank, as in FockSubspace.span). With w_drop the left singular
    vectors of r[:m, :m] past the rank, formed only when the rank is below m,

        residual = sqrt(|r[m, m]|^2 + ||w_drop* r[:m, m]||^2) / ||r[:, m]||,

    where r[m, m] counts as 0 when k = m. Rounding: Householder QR is backward
    stable column by column (Higham, Accuracy and Stability of Numerical
    Algorithms, 2002, Thm 19.4), so r is the exact triangle of A + E, each column
    of E small against that of A. A change e of u moves the residual by at most
    2 ||e|| / ||u||, and a change E_Y of K_Y turns the kept span by at most
    ||E_Y|| / s_rank, s_rank the least kept singular value of K_Y. With column
    errors of k eps, the residual is within 4 k eps (1 + ||K_Y||_F / s_rank) of
    the relative distance of u from the span of the leading rank left singular
    vectors of K_Y.
    """
    z = _as_point(z, points.dim)  # one point, not a stack
    cut = threshold(tol, 1.0)
    space, cols = _kernel_vectors(points, degree, z)
    m = len(points)
    r = np.linalg.qr(cols, mode="r")
    rank = _numerical_rank(np.linalg.svd(r[:m, :m], compute_uv=False), (len(space), m))
    off = r[m:, m]  # r[m, m], or nothing when k = m
    if rank < m:
        w_drop = np.linalg.svd(r[:m, :m])[0][:, rank:]
        off = np.concatenate((off, w_drop.conj().T @ r[:m, m]))
    residual = float(np.linalg.norm(off) / np.linalg.norm(r[:, m]))
    return ClosureMembership(member=residual <= cut, residual=residual)


def compression_defect(phi: Polynomial, subspace: Union[FockSubspace, TruncatedSpace]) -> float:
    """Smallest eigenvalue of the self-commutator of P_F M_phi |_F.

    The compressed matrix is t = B* (M_phi B) for the orthonormal basis B of F,
    with M_phi B applied through the shift tables, and S = t* t - t t* is formed
    by two dense products. Components of the products beyond the window are
    orthogonal to the window and drop out of the compression exactly, so no
    degree headroom is needed. The terms of phi past the window's degree act on
    nothing in it and are dropped first, by _normalized as for powers_span, so they
    neither count in the scale nor overflow it. The constant term (c I, which
    commutes) is dropped with its rounding. The matrices are formed for
    (phi - phi(0)) 2^-e and the defect is multiplied back by 4^e, both exactly, so
    no scale of phi that defect_scale accepts overflows or underflows. With phi
    truncated to the window's degree, a defect below -tol * defect_scale(phi)
    refutes hyponormality of the compression at every size of phi; a
    non-negative defect certifies this model only.

    A TruncatedSpace stands for its whole window, and a FockSubspace that fills
    its window is unitarily equivalent to it and is solved as the window. There
    no k x k matrix is formed: S is summed from the shift tables (_window_pairs),
    block by block (_blocks). The torus z -> (e^{i theta_j} z_j) acts unitarily
    and turns M_{z^g} into e^{i <theta, g>} M_{z^g}, so S sends z^alpha into the
    span of the z^(alpha + h - g), g and h terms of phi. Every entry of S between
    two blocks is an exact 0.0, so the least eigenvalue over the blocks is that of
    S, up to the order in which the entries are summed.

    The same torus gauges the phases of phi away on the whole window, as U z^alpha =
    e^{i <theta, alpha>} z^alpha is diagonal there and S(e^{i psi} T) = S(T): when the
    rows (1, g) over the terms g of phi in the window are linearly independent, some
    real (psi, theta) turns every c_g into |c_g|, so S has the spectrum it has for
    sum |c_g| z^g (_gauged). Then, as for a real phi whatever its exponents, S and
    its blocks are real and are solved in real arithmetic. Only a complex phi that
    fails the rank test, and the kernel and powers spans, keep complex arithmetic.
    """
    space = subspace if isinstance(subspace, TruncatedSpace) else subspace.space
    if phi.dim != space.dim:
        raise InputError("dimension mismatch")
    phi, e, _ = _normalized(phi, space.degree)
    if space is subspace or subspace.dim == len(space):
        blocks = _blocks(len(space), *_window_pairs(space, _gauged(phi)))
    elif subspace.dim == 0:
        return 0.0
    else:
        t = subspace.basis.conj().T @ space.multiply(phi, subspace.basis)
        blocks = [t.conj().T @ t - t @ t.conj().T]
    return math.ldexp(min(map(min_eigenvalue, blocks)), 2 * e)


def truncated(phi: Polynomial, degree: int) -> Polynomial:
    """The terms of phi of degree at most degree; phi itself when it has no others."""
    if all(sum(g) <= degree for g in phi.coeffs):
        return phi
    return Polynomial(phi.dim, {g: c for g, c in phi.coeffs.items() if sum(g) <= degree})


def _gauged(phi: Polynomial) -> Polynomial:
    """sum |c_g| z^g when the rows (1, g) over the terms of phi are linearly independent
    (over Q, by _rank), else phi. The caller has dropped the terms past the window, which
    add nothing to its self-commutator and would only make the rows dependent."""
    rows = [(1, *g) for g in phi.coeffs]
    if _rank(rows) < len(rows):
        return phi
    return Polynomial(phi.dim, {g: abs(c) for g, c in phi.coeffs.items()})


def _rank(rows: list) -> int:
    """Rank of integer rows, exactly: fraction-free (Bareiss) elimination on Python ints,
    in which every entry is a minor of the rows and so each division is exact."""
    rows = [list(r) for r in rows]
    rank, last = 0, 1
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        top = rows[rank]
        for i in range(rank + 1, len(rows)):
            rows[i] = [(top[col] * x - rows[i][col] * y) // last for x, y in zip(rows[i], top)]
        last = top[col]
        rank += 1
    return rank


def _window_pairs(space: TruncatedSpace, phi: Polynomial) -> tuple:
    """(i, j, term): S = t* t - t t* on the whole window, t the matrix of phi there (phi
    has no term past it), as the sum of term at (i, j). The table of each term g puts
    v = c_g * weight in column a of t at row dst[g, a], and src inverts it: src[g, r] is
    the column that g sends to row r; an index a table leaves out reads k. So t* t adds conj(v_g) v_h at (src[g, r],
    src[h, r]) for each row r that terms g and h both reach, and t t* adds
    -(v_g conj(v_h)) at (dst[g, a], dst[h, a]) for each column a that both move. The
    pairs come by row and then by column, so S[i, j] and S[j, i] sum their terms in one
    order, and S is exactly symmetric when phi is real; its terms are then float64, else
    complex. A window whose S, as one complex block, or whose pairs of terms would pass
    _ARRAY_BYTES is refused with WindowOverflowError before any array is built."""
    k = len(space)
    _check_array_size(k * k, 16, f"the {k} x {k} self-commutator")
    real = _is_real(phi)
    tables = [(space.shift(g)[1:], complex(c)) for g, c in phi.coeffs.items()]
    _check_array_size(len(tables) ** 2 * k, 16, f"the pairs of {len(tables)} terms on {k} indices")
    dst, src = np.full((2, len(tables), k), k)
    v = np.zeros((len(tables), k), np.float64 if real else np.complex128)
    for n, ((rows, weight), c) in enumerate(tables):
        cols = np.arange(len(rows))
        dst[n, cols], src[n, rows] = rows, cols
        v[n, cols] = (c.real if real else c) * weight
    reach, move = (src < k).T, (dst < k).T  # the terms at each row, and at each column
    r, g, h = np.nonzero(reach[:, :, None] & reach[:, None])
    a, b = src[g, r], src[h, r]
    col, gc, hc = np.nonzero(move[:, :, None] & move[:, None])
    term = np.concatenate((v[g, a].conj() * v[h, b], -(v[gc, col] * v[hc, col].conj())))
    return np.concatenate((a, dst[gc, col])), np.concatenate((b, dst[hc, col])), term


def _blocks(k: int, i: np.ndarray, j: np.ndarray, term: np.ndarray) -> list:
    """The diagonal blocks of the k x k matrix that sums term at (i, j), joined into
    classes by the pairs (i, j), as one (b, n, n) array of the dtype of term per block
    size n, each block in index order: the terms summed in one pass into the blocks laid
    end to end by size. Every entry between two classes is an exact 0.0."""
    comp = connected_components(k, i, j)
    size = np.bincount(comp)
    by_size = np.argsort(size, kind="stable")
    area = size[by_size] ** 2
    start = np.empty_like(size)
    start[by_size] = np.cumsum(area) - area
    by_class = np.argsort(comp, kind="stable")
    pos = np.empty_like(comp)  # of each index in its block
    pos[by_class] = np.arange(k) - (np.cumsum(size) - size)[comp[by_class]]
    flat = np.zeros(area.sum(), term.dtype)
    np.add.at(flat, start[comp[i]] + pos[i] * size[comp[i]] + pos[j], term)
    sizes, counts = np.unique(size, return_counts=True)
    parts = np.split(flat, np.cumsum(sizes * sizes * counts)[:-1])
    return [a.reshape(m, b, b) for a, b, m in zip(parts, sizes, counts)]


def _size(phi: Polynomial) -> float:
    return sum(abs(complex(c)) for g, c in phi.coeffs.items() if any(g))


def _normalized(phi: Polynomial, degree: int) -> tuple:
    """(psi, e, n) for phi cut to a window's degree (truncated), n the degree of the cut:
    psi = (phi - phi(0)) 2^-e, where _size(phi) = sum_{gamma != 0} |c_gamma| = m 2^e,
    m in [0.5, 1) (math.frexp; e = 0 for a constant phi). The terms past the window act
    on nothing in it, so they neither count in the scale nor overflow it; this is the one
    place where the module cuts a multiplier to a window. Dividing by 2^e is exact unless
    a coefficient falls below the normal range (defect_scale refuses the sizes that would
    make it round, overflow or underflow), and one that rounds to 0 leaves psi, so the
    degree of psi may be below n."""
    phi = truncated(phi, degree)
    defect_scale(phi)
    e = math.frexp(_size(phi))[1]
    unit = 2.0**-e
    return Polynomial(phi.dim, {g: complex(c) * unit for g, c in phi.coeffs.items() if any(g)}), e, phi.degree


def defect_scale(phi: Polynomial) -> float:
    """(sum_{gamma != 0} |c_gamma|)^2 bounds -compression_defect: shift weights are <= 1.
    Raises InputError unless it is 0 (a constant phi) or a finite normal float."""
    size = _size(phi)
    scale = size * size  # not size ** 2, which raises OverflowError
    if size and not sys.float_info.min <= scale < math.inf:
        raise InputError(f"multiplier size {size:.3e} squared is outside the normal float range")
    return scale


class ArvesonWitness(NamedTuple):
    forward_norm_sq: Fraction  # ||M_{z1 z2} (z1 z2)||^2
    adjoint_norm_sq: Fraction  # ||M_{z1 z2}* (z1 z2)||^2


def arveson_example() -> ArvesonWitness:
    """Arveson's non-hyponormal multiplier witness on the 2-ball, exactly.

    Multiplication by z1 z2 sends z1 z2 to (z1 z2)^2 of squared norm 1/6,
    while its adjoint sends z1 z2 to a constant of squared norm 1/4. Both
    numbers are computed from first principles by the exact routine on the
    shift tables of the degree-4 window, and the strict inequality
    1/6 < 1/4 is asserted.
    """
    space = TruncatedSpace(2, 4)
    at = int(space.index((1, 1))[0])
    y = np.zeros(len(space), dtype=object)
    y[at] = 1  # <z1 z2, z^alpha> is 1 / M_(1,1) at alpha = (1, 1) and 0 elsewhere
    m11 = math.comb(2, 1)  # M_(1,1) = 2!/(1! 1!)
    adj, fwd = space.exact_norms_sq([((1, 1), 1)], y, np.zeros_like(y), m11)
    if not fwd < adj:
        raise AssertionError(f"expected forward {fwd} < adjoint {adj}")
    return ArvesonWitness(forward_norm_sq=fwd, adjoint_norm_sq=adj)


class TailBalance(NamedTuple):
    adjoint_norm_sq: float  # ||M_{<., z>}* f||^2 for f = K_N(., z) - 1
    forward_norm_sq: float  # ||M_{<., z>} f||^2
    tail_bound: float  # 3 ||z||^(2N+2) / (1 - ||z||^2)
    rounding_bound: float  # floating-point allowance, see tail_balance

    @property
    def within_bound(self) -> bool:
        """|adjoint - forward| <= tail_bound + rounding_bound."""
        gap = abs(self.adjoint_norm_sq - self.forward_norm_sq)
        return gap <= self.tail_bound + self.rounding_bound


def _pairing_point(z) -> tuple:
    """(zv, nz, exact) for the point z of the multiplier <., z>, read once for
    tail_balance and pairing_power_norms: z as a complex array, ||z||^2, and the
    (re, im) Fraction pairs of z when every coordinate is exact (a Rational or a QQi),
    else None. For an exact z, ||z||^2 is summed exactly and rounded once; past the
    float range it is inf, and the callers refuse it."""
    entries = list(z) if isinstance(z, (list, tuple)) else list(np.atleast_1d(z))
    if not entries:
        raise InputError("point must have at least one coordinate")
    zv = np.array([_coerce_coeff(x, f"coordinate {i}") for i, x in enumerate(entries)], np.complex128)
    exact = [_gaussian(x) for x in entries] if all(isinstance(x, (Rational, QQi)) for x in entries) else None
    try:
        if exact is not None:
            nz = float(sum(re * re + im * im for re, im in exact))
        else:
            nz = float(sum(abs(complex(e)) ** 2 for e in zv))
    except OverflowError:  # such a z lies far outside the ball, which the callers refuse
        nz = math.inf
    return zv, nz, exact


def _exact_tail_norms_sq(z: list, degree: int) -> tuple:
    """||M* f||^2 and ||M f||^2 as Fractions, for M = <., z> and f = sum_{1 <= n <= degree}
    <., z>^n, z as (re, im) Fraction pairs, by TruncatedSpace.exact_norms_sq on the
    degree + 1 window, which holds M f whole. The dual coordinates of f are the
    conj(z)^alpha, 1 <= |alpha| <= degree: with D the common denominator of the parts of
    z and s_j = D conj(z_j), the numerators prod_j s_j^alpha_j D^(degree - |alpha|) over
    D^degree."""
    space = TruncatedSpace(len(z), degree + 1)
    den = math.lcm(*(x.denominator for part in z for x in part))
    scale = [0] + [den ** (degree - n) for n in range(1, degree + 1)] + [0]  # by |alpha|
    y_re = np.array(scale, dtype=object)[space.exponents.sum(axis=1)]
    y_im = np.zeros(len(space), dtype=object)
    for j, (re, im) in enumerate(z):
        sr, si = int(re * den), -int(im * den)
        powers = [(1, 0)]
        for _ in range(degree + 1):
            r, i = powers[-1]
            powers.append((r * sr - i * si, r * si + i * sr))
        pr, pi = (np.array(p, dtype=object)[space.exponents[:, j]] for p in zip(*powers))
        y_re, y_im = y_re * pr - y_im * pi, y_re * pi + y_im * pr
    step = [(row, QQi(re, -im)) for row, (re, im) in zip(np.eye(len(z), dtype=int).tolist(), z)]
    return space.exact_norms_sq(step, y_re, y_im, den**degree)


def _band_norms_sq(zv: np.ndarray, low: int, high: int) -> tuple:
    """||M* f||^2, ||M f||^2 and the space size for M = <., z> and
    f = sum_{low <= n <= high} <., z>^n, both exact images of f: M f is kept
    whole in degree high + 1, and M* f stays in every window that holds f."""
    step = Polynomial(len(zv), zip(np.eye(len(zv), dtype=int).tolist(), zv.conj()))
    space = TruncatedSpace(len(zv), high + 1)
    f = space.kernel_vector(zv)  # degree-n block: coordinates of <., z>^n
    f[: space.size_at_most(low - 1)] = 0.0
    f[space.size_at_most(high) :] = 0.0
    adj = space.multiply(step, f, adjoint=True)
    fwd = space.multiply(step, f)
    return float(np.vdot(adj, adj).real), float(np.vdot(fwd, fwd).real), len(space)


def tail_balance(z, degree: int) -> TailBalance:
    """Norm balance of multiplication by <., z> on the kernel tail.

    For f the truncated kernel function at z minus the constant term, the
    adjoint image is ||z||^2 times the one-step-shorter truncation, and the
    forward image re-sums the same geometric series; on the truncated model
    both squared norms equal sum_{n=2}^{N+1} ||z||^(2n). Both are computed
    through the engine, not from the closed form: exactly for exact z, where
    their agreement is the result (rounding_bound is then 0), and through
    the shift tables otherwise. z = 0 is rejected as degenerate.

    For float z, rounding_bound is (len + 12 (N + d + 2)) eps (adjoint + forward), len
    the number of monomials of degree <= N + 1: each image coordinate sums
    d terms of one phase, each a product of at most 2N + d + 4 rounded
    factors, so it is off by less than 6 (N + d + 2) eps relative; squaring
    doubles that and summing len non-negative squares adds len eps / 2.
    Each computed norm is thus within half the bound of the exact value.
    """
    zv, nz, exact = _pairing_point(z)
    if nz == 0.0:
        raise InputError("z must be nonzero; the tail vanishes at z = 0")
    degree = whole_number(degree, "degree", 1)
    if not nz < 1.0:
        raise DomainError(f"||z||^2 = {nz:.6f} is not below 1")
    if exact is not None:
        adj, fwd = map(float, _exact_tail_norms_sq(exact, degree))
        rounding = 0.0
    else:
        adj, fwd, size = _band_norms_sq(zv, 1, degree)
        rounding = (size + 12 * (degree + len(zv) + 2)) * math.ulp(1.0) * (adj + fwd)
    bound = 3.0 * nz ** (degree + 1) / (1.0 - nz)
    return TailBalance(adjoint_norm_sq=adj, forward_norm_sq=fwd, tail_bound=bound, rounding_bound=rounding)


class PairingPowerNorms(NamedTuple):
    adjoint_norm: float  # ||M_{<., z>}* <., z>^(n-1)||
    forward_norm: float  # ||M_{<., z>} <., z>^(n-1)||


def pairing_power_norms(z, n: int, degree: int) -> PairingPowerNorms:
    """Both norms around the (n-1)-st power of <., z>; each equals ||z||^n.

    Finite computations with no truncation error, through the shift tables
    in floating point: the power fits the window whenever n <= degree.
    """
    n = whole_number(n, "n", 2)
    zv, nz, _ = _pairing_point(z)
    if not 0.0 < nz < 1.0:
        raise DomainError("need 0 < ||z|| < 1")
    if n > whole_number(degree, "degree", 0):
        raise WindowOverflowError(f"power {n} does not fit the degree-{degree} window")
    adj, fwd, _ = _band_norms_sq(zv, n - 1, n - 1)
    return PairingPowerNorms(adjoint_norm=math.sqrt(adj), forward_norm=math.sqrt(fwd))
