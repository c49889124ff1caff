"""Balanced-matrix calculus for small dense real matrices.

Classification of balanced matrices (equal row/column sums of squared
entries), closure-friendly matrix algebra with an elimination trail,
closed-form 2x2 spectra and their entry-sum estimators, discrepancy
fairness analysis, interior search, and a seeded fuzzing harness that
probes the theorems and conjectures behind all of it.

The public names load lazily (PEP 562): `import balmat` imports none of
its submodules, and `balmat.<name>` imports the one submodule that defines
`<name>` on first use.
"""

import importlib

__version__ = "0.1.0"

#: Public name -> (submodule, attribute in it).
_EXPORTS = {
    name: (module, name)
    for module, names in (
        ("algebra", "ElementaryOp RrefResult add det2 det_via_trail inverse2 mul rref_with_trail scale transpose"),
        ("balance", "BalanceReport balance_defect classify_balance square_sums"),
        ("core", "DEFAULT_TOL GENERATOR_KINDS CheckRecord Matrix TolerancePolicy approx_eq constant_matrix "
         "identity matrix_from_rows"),
        ("discrepancy", "DiscrepancyReport InteriorMatch discrepancy_report fairness_propagation_check "
         "fairness_transfer_check find_balanced_interior interior one_fair_row_check"),
        ("errors", "BalmatError ConfigurationError DimensionError HypothesisError InvalidInputError ParseError "
         "SingularMatrixError SymmetryError UnsupportedDimensionError"),
        ("genfuzz", "PROPERTIES Counterexample FuzzContext FuzzReport GenSpec fuzz_campaign generate replay_counterexample"),
        ("spectral2", "Spectrum2 SpectrumEstimate det_homomorphism_check emax_additivity_check estimate_spectrum2 "
         "exact_spectrum2 quadform_branch_select quadform_eval quadform_predict trace_entry_check"),
    )
    for name in names.split()
}  # fmt: skip
_EXPORTS["kernel_backend"] = ("_kernels", "BACKEND")

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    # Not cached in this module's globals: a submodule's current binding
    # (one rebound by a tracer or a test, say) is what `balmat.<name>` gives.
    try:
        module, attr = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(importlib.import_module(f"balmat.{module}"), attr)


def __dir__() -> list[str]:
    return __all__
