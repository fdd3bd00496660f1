"""Symplectic spectra of positive definite matrices.

The package computes symplectic eigenvalues and the associated
diagonalizing transforms, builds structured bases and subspace chains
around them, and certifies the eigenvalue inequalities those
constructions imply: two-sided extremal characterizations for sums,
products, and Schur-concave functionals, plus additive and
multiplicative perturbation bounds for sums and geometric means.

Each public name is imported from its submodule on first access, so a
command that needs only the spectra does not load the verification
layers.
"""

import importlib

from ._version import __version__

_EXPORTS = {
    "basis": "SymplecticBasis dual_chain_construct prime_coords same_span_trace_check",
    "core": "WilliamsonDecomposition apply_form as_generator compress condition_number"
            " random_pd random_symplectic symplectic_eigenvalues symplectic_form"
            " symplectic_gram symplectic_inner tuple_form_defect williamson",
    "errors": "ConstructionError MatrixFormatError NumericalContractError ValidationError",
    "extremal": "ExtremalCertificate canonical_chains det_product_check maxmin_check"
                " phi_extremal_check poincare_witness tuple_value wielandt_certify",
    "functionals": "SHIPPED SpectralFunctional elementary_symmetric phi_esym2 phi_min"
                   " phi_product phi_sum",
    "harness": "SUITE_IDS SuiteConfig replay run_all run_suite trial_rng",
    "inequalities": "InequalityRecord additive_lidskii_trial geometric_mean majorize"
                    " schur_concave_monotone_check supermajorize",
    "matio": "load_matrix matrix_from_obj matrix_to_obj save_matrix save_williamson",
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = [*_SOURCE, "__version__"]


def __getattr__(name):
    if name in _EXPORTS:
        value = importlib.import_module(f"{__name__}.{name}")
    elif name in _SOURCE:
        value = getattr(importlib.import_module(f"{__name__}.{_SOURCE[name]}"), name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value
