"""The public names of the ptosc package, pinned: an export added or lost fails here."""

import types

import ptosc

PUBLIC_NAMES = {
    # errors
    "BrokenPTPhase", "DomainError", "ExceptionalPoint", "NonRealTrace",
    # inner products
    "cpt_conjugate", "cpt_inner", "dirac_dagger", "dirac_inner", "inner", "pt_conjugate",
    "pt_inner",
    # model
    "EXCEPTIONAL_POINT_BAND", "EigenSystem", "ModelParams", "cprime_matrix", "eigensystem",
    "hermitian_eigenvalues", "hermitian_mass_matrix", "make_params", "mass_matrix",
    "params_from_eta", "parity_matrix", "pt_eigenvalues", "tolerance_for_eta",
    # oracle
    "brute_force_dirac_norm", "brute_force_dirac_overlap", "brute_force_flavour_ket",
    "brute_force_operator", "brute_force_probability", "numeric_eigensystem",
    # probabilities
    "ProbabilityRecord", "cardioid_r", "density_operator", "dirac_norm", "dirac_overlap",
    "hermitian_transition_probability", "naive_continuation_value", "probability_closed_form",
    "probability_trace", "projection_operator", "survival_probability",
    "transition_probability",
    # states
    "cprime_ket", "cpt_bra", "dirac_bra", "flavour_ket", "mixed_basis_bra", "mixed_basis_ket",
    "mixed_basis_pair", "pt_bra", "tilde_bra", "xi",
    # validation
    "OracleGrid", "OracleReport", "check_all",
}


def test_the_package_exports_exactly_the_pinned_names():
    exported = {name for name, value in vars(ptosc).items()
                if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert len(PUBLIC_NAMES) == 55
    assert exported == PUBLIC_NAMES
