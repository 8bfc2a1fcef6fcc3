"""The public names of the ptosc package, pinned: an export added or lost fails here.
Also what ``import ptosc`` loads, checked in a fresh interpreter because other
tests load the oracle and the validation suite first."""

import json
import os
import subprocess
import sys
import types

import pytest

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


# the names that load their submodule on first access
LAZY_NAMES = {
    "brute_force_dirac_norm": "oracle", "brute_force_dirac_overlap": "oracle",
    "brute_force_flavour_ket": "oracle", "brute_force_operator": "oracle",
    "brute_force_probability": "oracle", "numeric_eigensystem": "oracle",
    "OracleGrid": "validation", "OracleReport": "validation", "check_all": "validation",
}


def fresh(code: str):
    """Run ``code`` in a new interpreter that imports this ptosc; returns the
    JSON value it prints."""
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(ptosc.__file__))}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_the_package_exports_exactly_the_pinned_names():
    exported = {name for name in dir(ptosc)
                if not name.startswith("_")
                and not isinstance(getattr(ptosc, name), types.ModuleType)}
    assert len(PUBLIC_NAMES) == 55
    assert exported == PUBLIC_NAMES


def test_import_loads_only_the_library_core():
    loaded = fresh("import json, sys, ptosc; print(json.dumps(sorted("
                   "m for m in sys.modules if m.split('.')[0] == 'ptosc')))")
    assert loaded == ["ptosc", "ptosc.errors", "ptosc.inner", "ptosc.model",
                      "ptosc.probabilities", "ptosc.states"]


def test_a_lazy_name_is_its_submodule_object_once_accessed():
    same = fresh(f"""
import importlib, json, ptosc
lazy = {LAZY_NAMES!r}
got = {{name: getattr(ptosc, name) for name in lazy}}
print(json.dumps({{name: [got[name] is getattr(importlib.import_module("ptosc." + module), name),
                         name in vars(ptosc)] for name, module in lazy.items()}}))
""")
    assert same == {name: [True, True] for name in LAZY_NAMES}


def test_an_unknown_name_raises_the_standard_attribute_error():
    with pytest.raises(AttributeError, match=r"^module 'ptosc' has no attribute 'no_such_name'$"):
        ptosc.no_such_name
    with pytest.raises(ImportError):
        from ptosc import no_such_name  # noqa: F401


def test_the_cli_still_loads_the_suite_and_binds_check_all():
    """The benchmark's tracer wraps ``cli.check_all`` and the ``validation``
    and ``oracle`` sites, so ``import ptosc.cli`` must load both eagerly."""
    loaded = fresh("import json, sys, ptosc.cli; print(json.dumps(["
                   "'ptosc.validation' in sys.modules, 'ptosc.oracle' in sys.modules, "
                   "ptosc.cli.check_all is sys.modules['ptosc.validation'].check_all]))")
    assert loaded == [True, True, True]
