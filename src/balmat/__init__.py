"""Balanced-matrix calculus for small dense real matrices.

Classification of balanced matrices (equal row/column sums of squared
entries), closure-friendly matrix algebra with an elimination trail,
closed-form 2x2 spectra and their entry-sum estimators, discrepancy
fairness analysis, interior search, and a seeded fuzzing harness that
probes the theorems and conjectures behind all of it.
"""

from balmat._kernels import BACKEND as kernel_backend
from balmat.algebra import (
    ElementaryOp,
    RrefResult,
    add,
    det2,
    det_via_trail,
    inverse2,
    mul,
    rref_with_trail,
    scale,
    transpose,
)
from balmat.balance import BalanceReport, balance_defect, classify_balance, square_sums
from balmat.core import (
    DEFAULT_TOL,
    CheckRecord,
    Matrix,
    TolerancePolicy,
    approx_eq,
    constant_matrix,
    identity,
    matrix_from_rows,
)
from balmat.discrepancy import (
    DiscrepancyReport,
    InteriorMatch,
    discrepancy_report,
    fairness_propagation_check,
    fairness_transfer_check,
    find_balanced_interior,
    interior,
    one_fair_row_check,
)
from balmat.errors import (
    BalmatError,
    ConfigurationError,
    DimensionError,
    HypothesisError,
    InvalidInputError,
    ParseError,
    SingularMatrixError,
    SymmetryError,
    UnsupportedDimensionError,
)
from balmat.genfuzz import (
    GENERATOR_KINDS,
    PROPERTIES,
    Counterexample,
    FuzzReport,
    GenSpec,
    fuzz_campaign,
    generate,
    replay_counterexample,
)
from balmat.spectral2 import (
    Spectrum2,
    SpectrumEstimate,
    det_homomorphism_check,
    emax_additivity_check,
    estimate_spectrum2,
    exact_spectrum2,
    quadform_branch_select,
    quadform_eval,
    quadform_predict,
    trace_entry_check,
)

__version__ = "0.1.0"

__all__ = [
    "BalanceReport",
    "BalmatError",
    "CheckRecord",
    "ConfigurationError",
    "Counterexample",
    "DEFAULT_TOL",
    "DimensionError",
    "DiscrepancyReport",
    "ElementaryOp",
    "FuzzReport",
    "GENERATOR_KINDS",
    "GenSpec",
    "HypothesisError",
    "InteriorMatch",
    "InvalidInputError",
    "Matrix",
    "PROPERTIES",
    "ParseError",
    "RrefResult",
    "SingularMatrixError",
    "Spectrum2",
    "SpectrumEstimate",
    "SymmetryError",
    "TolerancePolicy",
    "UnsupportedDimensionError",
    "add",
    "approx_eq",
    "balance_defect",
    "classify_balance",
    "constant_matrix",
    "det2",
    "det_homomorphism_check",
    "det_via_trail",
    "discrepancy_report",
    "emax_additivity_check",
    "estimate_spectrum2",
    "exact_spectrum2",
    "fairness_propagation_check",
    "fairness_transfer_check",
    "find_balanced_interior",
    "fuzz_campaign",
    "generate",
    "identity",
    "interior",
    "inverse2",
    "kernel_backend",
    "matrix_from_rows",
    "mul",
    "one_fair_row_check",
    "quadform_branch_select",
    "quadform_eval",
    "quadform_predict",
    "replay_counterexample",
    "rref_with_trail",
    "scale",
    "square_sums",
    "trace_entry_check",
    "transpose",
]
