"""PT-symmetric non-Hermitian two-state oscillations.

Eigensystem and metric operators of the non-Hermitian squared mass matrix,
the three inner products (Dirac, PT, C'PT), time-dependent flavour states,
density-operator transition probabilities with their closed forms, and an
independent brute-force oracle that cross-checks all of it.
"""

from .errors import (
    BrokenPTPhase,
    DomainError,
    ExceptionalPoint,
    NonRealTrace,
)
from .inner import (
    cpt_conjugate,
    cpt_inner,
    dirac_dagger,
    dirac_inner,
    inner,
    pt_conjugate,
    pt_inner,
)
from .model import (
    EXCEPTIONAL_POINT_BAND,
    EigenSystem,
    ModelParams,
    cprime_matrix,
    eigensystem,
    hermitian_eigenvalues,
    hermitian_mass_matrix,
    make_params,
    mass_matrix,
    params_from_eta,
    parity_matrix,
    pt_eigenvalues,
    tolerance_for_eta,
)
from .oracle import (
    OracleReport,
    brute_force_dirac_norm,
    brute_force_dirac_overlap,
    brute_force_flavour_ket,
    brute_force_operator,
    brute_force_probability,
    numeric_eigensystem,
)
from .probabilities import (
    ProbabilityRecord,
    cardioid_r,
    density_operator,
    dirac_norm,
    dirac_overlap,
    hermitian_transition_probability,
    naive_continuation_value,
    probability_closed_form,
    probability_trace,
    projection_operator,
    survival_probability,
    trace_probabilities,
    transition_probability,
)
from .states import (
    cprime_ket,
    cpt_bra,
    dirac_bra,
    flavour_ket,
    mixed_basis_bra,
    mixed_basis_ket,
    mixed_basis_pair,
    pt_bra,
    tilde_bra,
    xi,
)
from .validation import OracleGrid, check_all

__version__ = "0.1.0"
