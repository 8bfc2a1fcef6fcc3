"""The check_all invariant suite: green by construction, red when corrupted."""


from ptosc import OracleGrid, OracleReport, check_all, make_params


def small_grid(**overrides):
    defaults = dict(etas=(0.0, 0.3, 0.8), times=(0.0, 1.1), t0s=(0.0, 1.7),
                    n_phases=6, n_random=60)
    defaults.update(overrides)
    return OracleGrid(**defaults)


def test_default_grid_all_pass(params):
    reports = check_all(params)
    failed = [rep for rep in reports if not rep.passed]
    assert not failed, "\n".join(
        f"{rep.check_name}: {rep.max_abs_error:.3e} > {rep.tolerance:.1e}" for rep in failed)


def test_reports_have_consistent_shape(params):
    reports = check_all(params, small_grid())
    assert len(reports) >= 20
    for rep in reports:
        assert rep.grid_size > 0
        assert rep.passed == (rep.max_abs_error <= rep.tolerance)


def test_corrupted_tolerance_forces_failures(params):
    reports = check_all(params, small_grid(tolerance=1e-30))
    assert any(not rep.passed for rep in reports)
    # the override must be visible in the reports
    assert all(rep.tolerance == 1e-30 for rep in reports)


def test_swapped_orientation_passes(swapped_params):
    reports = check_all(swapped_params, small_grid())
    failed = [rep for rep in reports if not rep.passed]
    assert not failed, "\n".join(
        f"{rep.check_name}: {rep.max_abs_error:.3e} > {rep.tolerance:.1e}" for rep in failed)


def test_near_exceptional_grid_passes_with_documented_tolerance(params):
    reports = check_all(params, small_grid(etas=(0.6, 0.999)))
    failed = [rep for rep in reports if not rep.passed]
    assert not failed, "\n".join(
        f"{rep.check_name}: {rep.max_abs_error:.3e} > {rep.tolerance:.1e}" for rep in failed)
    by_name = {rep.check_name: rep for rep in reports}
    assert by_name["trace_vs_closed_form"].tolerance == 1e-8


def test_zero_mixing_limit_passes():
    reports = check_all(make_params(2.0, 1.0, 0.0), small_grid(etas=(0.0,)))
    assert all(rep.passed for rep in reports)


def test_oracle_report_factory():
    good = OracleReport.from_error("x", 1e-12, 1e-10, 5)
    bad = OracleReport.from_error("x", 1e-8, 1e-10, 5)
    assert good.passed and not bad.passed


def test_out_of_domain_reference_params_raise_up_front():
    import pytest

    from ptosc import BrokenPTPhase

    with pytest.raises(BrokenPTPhase):
        check_all(make_params(2.0, 1.0, 0.8), small_grid())


# (check_name, grid_size for check_all(make_params(2, 1, 0.3)), grid_size
# for the raw-params/eta grid of test_report_triples_for_a_raw_params_grid);
# every family passes in both.  grid_size is the item count of `validate`,
# so a family evaluated over arrays must still count every element.
REPORT_TRIPLES = (
    ("eigenvalues_vs_characteristic_polynomial", 1001, 1001),
    ("eigenvector_residuals", 16, 10),
    ("trace_determinant_preservation", 2002, 2002),
    ("parity_pseudo_hermiticity", 9, 6),
    ("cprime_invariance", 35, 25),
    ("theta_parameterisation", 39, 25),
    ("hermitian_limit_eigenvectors", 2, 2),
    ("hermitian_eigenvalues_vs_oracle", 100, 100),
    ("sesquilinearity", 3000, 3000),
    ("cpt_inner_positivity", 2000, 2000),
    ("pt_and_cpt_eigenvector_norms", 48, 30),
    ("cpt_matches_dirac_at_zero_mixing", 1000, 1000),
    ("tilde_biorthonormality", 128, 80),
    ("mixed_basis_orthonormality", 128, 80),
    ("cpt_basis_nonorthogonality", 128, 80),
    ("mode_equation_of_motion", 64, 40),
    ("cprime_section_identity", 300, 300),
    ("trace_vs_closed_form", 1536, 960),
    ("brute_force_vs_closed_form", 512, 320),
    ("unitarity", 256, 160),
    ("probability_symmetry", 384, 240),
    ("time_translation_invariance", 128, 80),
    ("density_projection_operators", 144, 90),
    ("dirac_norm_closed_form", 128, 80),
    ("dirac_overlap_closed_form", 96, 60),
    ("hermitian_gap", 256, 128),
    ("naive_continuation_pathology", 8, 4),
)


def test_report_triples_for_the_default_grid(params):
    got = [(rep.check_name, rep.grid_size, rep.passed) for rep in check_all(params)]
    assert got == [(name, size, True) for name, size, _ in REPORT_TRIPLES]


def test_report_triples_for_a_raw_params_grid(capsys):
    import json

    from ptosc.cli import main

    code = main(["validate", "--raw-params", "1.3,4.2,0.8,0.7",
                 "--eta", "0.1,0.45,0.9,0.97", "--json"])
    reports = json.loads(capsys.readouterr().out)
    assert code == 0
    got = [(rep["check_name"], rep["grid_size"], rep["passed"]) for rep in reports]
    assert got == [(name, size, True) for name, _, size in REPORT_TRIPLES]
