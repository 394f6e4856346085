"""Independent reference computations for checking rkhslab reports.

Nothing here imports rkhslab. Every expected value comes from a closed form
or from plain numpy built from first principles: kernels in closed form
rather than truncated series, Moebius maps for disk reconstructions, the
generalized eigenproblem for Pick norms, Euler-Maclaurin for zeta sums, and
multiplication matrices built from the monomial norms alpha!/|alpha|!.
"""

from __future__ import annotations

import itertools
import math

import numpy as np


# ---------------------------------------------------------------------------
# kernels in closed form


def szego_gram(z: np.ndarray, c: float = 1.0) -> np.ndarray:
    """1 / (1 - c z conj(w)): the power series with a_n = c^n, summed."""
    return 1.0 / (1.0 - c * np.outer(z, z.conj()))


def bergman_gram(z: np.ndarray) -> np.ndarray:
    """1 / (1 - z conj(w))^2: the power series with a_n = n + 1, summed."""
    return 1.0 / (1.0 - np.outer(z, z.conj())) ** 2


def dirichlet_gram(z: np.ndarray) -> np.ndarray:
    """-log(1 - x) / x at x = z conj(w): the series with a_n = 1/(n+1)."""
    x = np.outer(z, z.conj())
    out = np.ones_like(x)
    nz = x != 0
    out[nz] = -np.log(1.0 - x[nz]) / x[nz]
    return out


def ball_gram(z: np.ndarray) -> np.ndarray:
    """Drury-Arveson 1 / (1 - <z, w>) for rows of z."""
    return 1.0 / (1.0 - z @ z.conj().T)


def one_minus_inverse(g: np.ndarray, base: int) -> np.ndarray:
    """F = 1 - 1/K~ with K~ the Gram matrix normalized at base."""
    delta = g[:, base] / np.sqrt(g[base, base].real)
    kt = g / np.outer(delta, delta.conj())
    f = 1.0 - 1.0 / kt
    return (f + f.conj().T) / 2.0


def base_delta(g: np.ndarray, base: int) -> np.ndarray:
    return g[:, base] / np.sqrt(g[base, base].real)


def eig_extremes(a: np.ndarray) -> tuple[float, float]:
    vals = np.linalg.eigvalsh((a + a.conj().T) / 2.0)
    return float(vals[0]), float(vals[-1])


def pseudo_hyperbolic(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise |a_i - b_j| / |1 - a_i conj(b_j)| on the disk."""
    return np.abs(a[:, None] - b[None, :]) / np.abs(1.0 - a[:, None] * b.conj()[None, :])


# ---------------------------------------------------------------------------
# Pick


def pick_matrix(g: np.ndarray, w: np.ndarray, t: float) -> np.ndarray:
    return (t * t - np.outer(w, w.conj())) * g


def pick_norm_closed_form(g: np.ndarray, w: np.ndarray) -> float:
    """Least t with t^2 G - D G D* PSD, from the Cholesky-reduced eigenproblem."""
    lower = np.linalg.cholesky(g)
    linv = np.linalg.inv(lower)
    d = np.diag(w)
    m = linv @ d @ g @ d.conj().T @ linv.conj().T
    return math.sqrt(max(eig_extremes(m)[1], 0.0))


def blaschke(z: np.ndarray, zeros) -> np.ndarray:
    out = np.ones_like(z)
    for a in zeros:
        out = out * (z - a) / (1.0 - np.conj(a) * z)
    return out


# ---------------------------------------------------------------------------
# ratio tests and gap sums


def zeta(p: float, m: int = 64) -> float:
    """Riemann zeta for p > 1 by Euler-Maclaurin at cut-off m."""
    head = math.fsum(k ** (-p) for k in range(1, m))
    tail = m ** (1.0 - p) / (p - 1.0) + 0.5 * m ** (-p)
    # Bernoulli corrections B_2k / (2k)! * (p)_(2k-1) * m^(-p-2k+1)
    bern = (1.0 / 6.0, -1.0 / 30.0, 1.0 / 42.0, -1.0 / 30.0, 5.0 / 66.0)
    rising = p
    for k, b in enumerate(bern, start=1):
        tail += b / math.factorial(2 * k) * rising * m ** (-p - 2 * k + 1)
        rising *= (p + 2 * k - 1) * (p + 2 * k)
    return head + tail


# ---------------------------------------------------------------------------
# truncated Drury-Arveson space as plain matrices


def monomials(dim: int, degree: int) -> list[tuple[int, ...]]:
    return [a for a in itertools.product(range(degree + 1), repeat=dim) if sum(a) <= degree]


def monomial_weights(alphas) -> np.ndarray:
    """||z^alpha||^2 = alpha! / |alpha|! as floats."""
    return np.array(
        [math.prod(math.factorial(e) for e in a) / math.factorial(sum(a)) for a in alphas]
    )


class Window:
    """Isometric coordinates on the monomials of total degree <= degree."""

    def __init__(self, dim: int, degree: int):
        self.dim = dim
        self.degree = degree
        self.alphas = monomials(dim, degree)
        self.index = {a: i for i, a in enumerate(self.alphas)}
        self.sqrt_w = np.sqrt(monomial_weights(self.alphas))
        self.exps = np.array(self.alphas, dtype=np.int64)

    def mult_matrix(self, phi: dict) -> np.ndarray:
        """Matrix of f -> P_window(phi f) in isometric coordinates."""
        k = len(self.alphas)
        m = np.zeros((k, k), dtype=np.complex128)
        for j, beta in enumerate(self.alphas):
            for gamma, c in phi.items():
                alpha = tuple(x + y for x, y in zip(beta, gamma))
                i = self.index.get(alpha)
                if i is not None:
                    m[i, j] += c * self.sqrt_w[i] / self.sqrt_w[j]
        return m

    def kernel_vector(self, z: np.ndarray) -> np.ndarray:
        """Coordinates of sum_{|alpha| <= N} conj(z)^alpha z^alpha / ||z^alpha||^2."""
        zc = np.conj(z)
        return np.prod(zc[None, :] ** self.exps, axis=1) / self.sqrt_w


def orthonormal_span(v: np.ndarray) -> np.ndarray:
    u, s, _ = np.linalg.svd(v, full_matrices=False)
    rank = int(np.sum(s > s[0] * max(v.shape) * np.finfo(float).eps)) if s.size else 0
    return u[:, :rank]


def compressed_defect(m: np.ndarray, q: np.ndarray) -> float:
    """Least eigenvalue of T*T - TT* for T = Q* M Q."""
    t = q.conj().T @ m @ q
    return eig_extremes(t.conj().T @ t - t @ t.conj().T)[0]


def power_span(window: Window, phi: dict, count: int) -> np.ndarray:
    """Orthonormal basis of span{phi^k : k <= count}; phi^k fits the window."""
    m = window.mult_matrix(phi)
    v = np.zeros(len(window.alphas), dtype=np.complex128)
    v[window.index[(0,) * window.dim]] = 1.0
    cols = [v]
    for _ in range(count):
        v = m @ v
        cols.append(v)
    return orthonormal_span(np.column_stack(cols))


def closure_residual(window: Window, ys: np.ndarray, z: np.ndarray) -> float:
    q = orthonormal_span(np.column_stack([window.kernel_vector(y) for y in ys]))
    u = window.kernel_vector(z)
    return float(np.linalg.norm(u - q @ (q.conj().T @ u)) / np.linalg.norm(u))


def tail_norms(nz: float, degree: int) -> float:
    """Both squared norms of the tail balance: sum_{n=2}^{N+1} ||z||^(2n)."""
    return math.fsum(nz**n for n in range(2, degree + 2))
