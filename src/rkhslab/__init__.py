"""Numerical laboratory for reproducing kernel Hilbert spaces.

Pick matrices and interpolation feasibility, sample-level complete
Nevanlinna-Pick tests with unit-ball embeddings, exact computations in the
truncated Drury-Arveson space, hyponormality defects, and reconstruction of
disk realizations K = delta conj(delta) k(j, j) where they exist.
"""

from .cnp import (
    CERTIFIED_NOT_CNP,
    CONSISTENT,
    BlaschkeFamily,
    BlaschkeVerdict,
    CnpVerdict,
    EmbeddingResult,
    FiniteRadii,
    GeometricTail,
    PolynomialTail,
    RatioReport,
    agler_mccarthy_embed,
    blaschke_classify,
    cnp_sample_check,
    one_minus_inverse,
    ratio_report,
)
from .errors import (
    ClassificationError,
    DomainError,
    HypothesisError,
    InconsistentSampleError,
    InputError,
    IrreducibilityError,
    NotCnpError,
    NotPsdError,
    PreconditionError,
    WindowOverflowError,
)
from .fock import (
    ArvesonWitness,
    ClosureMembership,
    FockSubspace,
    PairingPowerNorms,
    Polynomial,
    QQi,
    TailBalance,
    TruncatedSpace,
    VanishingSubspaces,
    arveson_example,
    compression_defect,
    in_closure,
    inner_product,
    mult_adjoint_apply,
    pairing_power_norms,
    powers_span,
    span_of_polynomials,
    tail_balance,
    vanishing_subspace,
)
from .kernels import (
    DruryArvesonKernel,
    KernelSpec,
    NormalizedGram,
    PointSet,
    PowerSeriesKernel,
    SampledGramKernel,
    check_irreducible_sample,
    irreducible_partition,
    normalize,
    unit_diagonal,
)
from .linalg import (
    DEFAULT_TOL,
    ClosureCheck,
    HermitianMatrix,
    PsdFactor,
    PsdVerdict,
    Subspace,
    min_eigenvalue,
    psd_check,
    psd_factor,
    verify_hyponormal_closure,
)
from .pick import PickProblem, minimal_interpolation_norm, pick_feasible, pick_matrix
from .reconstruct import (
    HARDY_EQUIVALENT,
    HIGHER_RANK,
    SINGLETON,
    ReconstructionResult,
    classify,
    j_from_formula,
    reconstruct_j_delta,
    verify_factorization,
)

__version__ = "0.1.0"
