"""Classification of sampled kernels and the Hardy-space factorization.

An irreducible, CNP-consistent sample either is a single point, realizes
inside the unit disk (embedding rank 1), or needs at least two ball
coordinates. In the rank-1 case the sample factors through the Szego kernel
k(z, w) = 1/(1 - z conj(w)) as

    K(i, j) = delta(i) conj(delta(j)) k(j_i, j_j)

with delta the base-column rescaling and j the recovered disk points. Rank
two or more is incompatible with every multiplication operator being
hyponormal; the coordinate-product witness in fock.arveson_example is the
concrete obstruction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

# cnp_sample_check is not called here; bench/tracing.py patches it by this name.
from .cnp import agler_mccarthy_embed, cnp_sample_check
from .errors import (
    ClassificationError,
    HypothesisError,
    InconsistentSampleError,
    InputError,
    IrreducibilityError,
    NotCnpError,
)
from .kernels import check_irreducible_sample, first_coincident_pair, normalize, unit_diagonal
from .linalg import DEFAULT_TOL, HermitianMatrix, complex_array, complex_number, whole_number

SINGLETON = "singleton"
HARDY_EQUIVALENT = "hardy_equivalent"
HIGHER_RANK = "higher_rank"

_HIGHER_RANK_NOTE = (
    "embedding rank {rank} >= 2: a kernel needing that many ball coordinates "
    "cannot have every multiplication operator hyponormal (coordinate-product "
    "witness: fock.arveson_example). No finite witness is computed here."
)


@dataclass(frozen=True)
class ReconstructionResult:
    """Outcome of classifying a sampled kernel.

    j_values is present exactly for the hardy_equivalent classification; its
    entries lie in the open unit disk, are pairwise distinct, and vanish at
    the base index. factorization_residual is the relative entrywise defect
    of the Szego factorization (None for higher_rank, where no disk
    factorization exists).
    """

    classification: str
    delta: np.ndarray
    j_values: Optional[np.ndarray]
    factorization_residual: Optional[float]
    rank: int
    embedding_residual: Optional[float] = None
    note: Optional[str] = None


def verify_factorization(g: HermitianMatrix, delta, j_values) -> float:
    """Largest relative defect of K = delta conj(delta) / (1 - j conj(j)).

    Entrywise maximum of |G[i][j] - delta_i conj(delta_j)/(1 - j_i conj(j_j))|
    normalized by max |G|, delta and j read by linalg.complex_array.
    """
    d = complex_array(delta, "delta")
    j = complex_array(j_values, "j values")
    if d.shape != (g.n,) or j.shape != (g.n,):
        raise InputError("delta and j must have one entry per sample point")
    if np.any(np.abs(j) >= 1.0):
        raise InputError("j values must lie inside the open unit disk")
    model = np.outer(d, d.conj()) / (1.0 - np.outer(j, j.conj()))
    scale = float(np.max(np.abs(g.entries)))
    return float(np.max(np.abs(g.entries - model)) / scale)


def _phase_fixed_j(b_points: np.ndarray, base: int) -> np.ndarray:
    j = b_points[:, 0].copy()
    pivot = j[1 if base == 0 else 0]  # the first non-base value
    if pivot != 0:
        j *= pivot.conjugate() / abs(pivot)
    return j


def classify(g: HermitianMatrix, base: int, tol: float = DEFAULT_TOL) -> ReconstructionResult:
    """Classify a sampled kernel as singleton, disk-realizable, or higher rank.

    Hypotheses checked up front: the sample must be irreducible (positive
    diagonal, nowhere-zero entries, no proportional rows) and CNP-consistent.
    Violations raise HypothesisError naming the failed hypothesis.
    Irreducibility is judged on unit_diagonal(g), so neither the kernel's
    scale nor one point's large diagonal changes the verdict.

    The recovered j is canonical only up to a unimodular factor; the first
    non-base value is rotated to be real positive, matching the
    deterministic factorization convention.
    """
    if not check_irreducible_sample(unit_diagonal(g), tol):
        raise HypothesisError(
            "sample is not irreducible (zero entry or proportional rows)",
            hypothesis="irreducibility",
        )
    try:
        embedding = agler_mccarthy_embed(g, base, tol)
    except NotCnpError as e:  # message: "sample refutes the CNP property ..."
        raise HypothesisError(str(e), hypothesis="cnp_consistency") from None
    delta = embedding.delta
    j = None
    if g.n == 1:
        classification = SINGLETON
    elif embedding.rank == 1:
        classification = HARDY_EQUIVALENT
        j = _phase_fixed_j(embedding.b_points, base)
        pair = first_coincident_pair(j)
        if pair is not None:
            raise InconsistentSampleError(
                f"recovered disk points {pair[0]} and {pair[1]} coincide"
            )
        j.setflags(write=False)
    else:
        classification = HIGHER_RANK
    disk = classification != HIGHER_RANK
    return ReconstructionResult(
        classification=classification,
        delta=delta,
        j_values=j,
        factorization_residual=(
            verify_factorization(g, delta, np.zeros(1) if j is None else j) if disk else None
        ),
        rank=embedding.rank,  # 0 for one point: F = 1 - 1/K~ is then exactly zero
        embedding_residual=embedding.residual,
        note=None if disk else _HIGHER_RANK_NOTE.format(rank=embedding.rank),
    )


def reconstruct_j_delta(
    g: HermitianMatrix, base: int, tol: float = DEFAULT_TOL
) -> tuple[np.ndarray, np.ndarray]:
    """(delta, j) of a disk-realizable sample; raises otherwise."""
    result = classify(g, base, tol)
    if result.classification != HARDY_EQUIVALENT:
        raise ClassificationError(
            f"sample classifies as {result.classification} (rank {result.rank}), "
            "no disk realization"
        )
    return result.delta, result.j_values


def j_from_formula(g: HermitianMatrix, base: int, mu: int, j_mu: complex) -> np.ndarray:
    """Recover all j values from a single known one.

    Solving the Szego factorization for j gives, for any reference index mu
    with j_mu nonzero,

        j(i) = (1 - delta(i) conj(delta(mu)) / K(i, mu)) / conj(j_mu).

    The base index comes out zero by normalization. Agreement of the result
    across reference indices, and with the embedding-derived j, is how the
    formula is validated. Indices are read by whole_number, j_mu by complex_number.
    """
    if not whole_number(mu, "mu index", 0) < g.n:
        raise InputError(f"mu index {mu} out of range for n={g.n}")
    if mu == whole_number(base, "base index", 0):
        raise InputError("mu must differ from the base index")
    j_mu = complex_number(j_mu, "j_mu")
    if j_mu == 0:
        raise InputError("j_mu must be nonzero")
    delta = normalize(g, base).delta
    col = g.entries[:, mu]
    zero = np.flatnonzero(col == 0)
    if zero.size:
        raise IrreducibilityError(
            f"kernel entry K(point {zero[0]}, mu) is zero; formula undefined"
        )
    return (1.0 - delta * np.conjugate(delta[mu]) / col) / np.conjugate(j_mu)
