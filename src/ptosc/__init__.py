"""PT-symmetric non-Hermitian two-state oscillations.

Eigensystem and metric operators of the non-Hermitian squared mass matrix,
the three inner products (Dirac, PT, C'PT), time-dependent flavour states,
density-operator transition probabilities with their closed forms, and an
independent brute-force oracle that cross-checks all of it.

``import ptosc`` loads only the library core (``errors``, ``inner``,
``model``, ``states`` and ``probabilities``).  The oracle's and the
validation suite's exports load on first use.
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

__version__ = "0.1.0"

# the cross-checks, by submodule: loaded on first access (PEP 562)
_LAZY = {
    **dict.fromkeys(("brute_force_dirac_norm", "brute_force_dirac_overlap",
                     "brute_force_flavour_ket", "brute_force_operator",
                     "brute_force_probability", "numeric_eigensystem"), "oracle"),
    **dict.fromkeys(("OracleGrid", "OracleReport", "check_all"), "validation"),
}


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    value = getattr(import_module(f".{_LAZY[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_LAZY})
