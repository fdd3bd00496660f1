"""Symplectic spectra of positive definite matrices.

The package computes symplectic eigenvalues and the associated
diagonalizing transforms, builds structured bases and subspace chains
around them, and certifies the eigenvalue inequalities those
constructions imply: two-sided extremal characterizations for sums,
products, and Schur-concave functionals, plus additive and
multiplicative perturbation bounds for sums and geometric means.
"""

from ._version import __version__
from .basis import (
    SymplecticBasis,
    dual_chain_construct,
    prime_coords,
    same_span_trace_check,
)
from .core import (
    WilliamsonDecomposition,
    apply_form,
    as_generator,
    compress,
    condition_number,
    random_pd,
    random_symplectic,
    symplectic_eigenvalues,
    symplectic_form,
    symplectic_gram,
    symplectic_inner,
    tuple_form_defect,
    williamson,
)
from .errors import (
    ConstructionError,
    MatrixFormatError,
    NumericalContractError,
    ValidationError,
)
from .extremal import (
    ExtremalCertificate,
    canonical_chains,
    det_product_check,
    maxmin_check,
    phi_extremal_check,
    poincare_witness,
    tuple_value,
    wielandt_certify,
)
from .functionals import (
    SHIPPED,
    SpectralFunctional,
    elementary_symmetric,
    phi_esym2,
    phi_min,
    phi_product,
    phi_sum,
)
from .harness import SUITE_IDS, SuiteConfig, replay, run_all, run_suite, trial_rng
from .inequalities import (
    InequalityRecord,
    additive_lidskii_trial,
    geometric_mean,
    majorize,
    schur_concave_monotone_check,
    supermajorize,
)
from .matio import load_matrix, matrix_from_obj, matrix_to_obj, save_matrix, save_williamson

__all__ = [
    "ConstructionError",
    "ExtremalCertificate",
    "InequalityRecord",
    "MatrixFormatError",
    "NumericalContractError",
    "SHIPPED",
    "SUITE_IDS",
    "SpectralFunctional",
    "SuiteConfig",
    "SymplecticBasis",
    "ValidationError",
    "WilliamsonDecomposition",
    "__version__",
    "additive_lidskii_trial",
    "apply_form",
    "as_generator",
    "canonical_chains",
    "compress",
    "condition_number",
    "det_product_check",
    "dual_chain_construct",
    "elementary_symmetric",
    "geometric_mean",
    "load_matrix",
    "majorize",
    "matrix_from_obj",
    "matrix_to_obj",
    "maxmin_check",
    "phi_esym2",
    "phi_extremal_check",
    "phi_min",
    "phi_product",
    "phi_sum",
    "poincare_witness",
    "prime_coords",
    "random_pd",
    "random_symplectic",
    "replay",
    "run_all",
    "run_suite",
    "same_span_trace_check",
    "save_matrix",
    "save_williamson",
    "schur_concave_monotone_check",
    "supermajorize",
    "symplectic_eigenvalues",
    "symplectic_form",
    "symplectic_gram",
    "symplectic_inner",
    "trial_rng",
    "tuple_form_defect",
    "tuple_value",
    "wielandt_certify",
    "williamson",
]
