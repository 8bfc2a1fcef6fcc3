"""The check_all invariant suite: green by construction, red when corrupted."""

import numpy as np
import pytest

from helpers import random_params
from ptosc import (
    OracleGrid,
    OracleReport,
    check_all,
    cprime_matrix,
    cpt_conjugate,
    cpt_inner,
    dirac_inner,
    hermitian_eigenvalues,
    inner,
    make_params,
    mass_matrix,
    numeric_eigensystem,
    parity_matrix,
    pt_conjugate,
    pt_eigenvalues,
)
from ptosc.validation import _Family


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


def scalar_reference(params, grid):
    """The seven random-draw families of check_all, one draw and one
    single-point call at a time, drawing from one generator in check_all's
    order.  Returns {check_name: OracleReport}."""
    rng = np.random.default_rng(grid.seed)
    families = []

    def eigenvalue_gap(fam, lam_closed, matrix):
        lam_num = np.sort(numeric_eigensystem(matrix)[0].real)[::-1]
        scale = max(abs(lam_closed[0]), 1.0)
        fam.add(max(abs(lam_closed[0] - lam_num[0]), abs(lam_closed[1] - lam_num[1])) / scale,
                1e-10)

    fam = _Family("eigenvalues_vs_characteristic_polynomial")
    for p in [params] + [random_params(rng) for _ in range(grid.n_random)]:
        eigenvalue_gap(fam, pt_eigenvalues(p), mass_matrix(p))
    families.append(fam)

    fam = _Family("trace_determinant_preservation")
    for p in [params] + [random_params(rng) for _ in range(grid.n_random)]:
        lam = pt_eigenvalues(p)
        tr, det = p.m1_sq + p.m2_sq, p.m1_sq * p.m2_sq + p.mu_sq * p.mu_sq
        fam.add(abs(lam[0] + lam[1] - tr) / abs(tr), 1e-12)
        fam.add(abs(lam[0] * lam[1] - det) / abs(det), 1e-12)
    families.append(fam)

    fam = _Family("hermitian_eigenvalues_vs_oracle")
    for _ in range(grid.n_random // 10):
        p = random_params(rng)
        matrix = np.array([[p.m1_sq, p.mu_sq], [p.mu_sq, p.m2_sq]])
        eigenvalue_gap(fam, hermitian_eigenvalues(p), matrix)
    families.append(fam)

    fam = _Family("sesquilinearity")
    for _ in range(grid.n_random):
        u, v, w = (rng.normal(size=2) + 1j * rng.normal(size=2) for _ in range(3))
        alpha, beta = (complex(rng.normal(), rng.normal()) for _ in range(2))
        eta = rng.uniform(0.0, 0.95)
        for bra in (pt_conjugate(u), cpt_conjugate(eta, u), u.conj()):
            lhs = inner(bra, alpha * v + beta * w)
            fam.add(abs(lhs - (alpha * inner(bra, v) + beta * inner(bra, w))), 1e-12)
    families.append(fam)

    fam = _Family("cpt_inner_positivity")
    for _ in range(grid.n_random):
        v = rng.normal(size=2)
        while np.linalg.norm(v) < 1e-3:
            v = rng.normal(size=2)
        value = cpt_inner(rng.uniform(0.0, 0.95), v, v)
        fam.add(abs(value.imag), 1e-12)
        fam.add(max(0.0, -value.real), 0.0)
    families.append(fam)

    fam = _Family("cpt_matches_dirac_at_zero_mixing")
    for _ in range(grid.n_random):
        v, w = rng.normal(size=2), rng.normal(size=2)
        fam.add(abs(cpt_inner(0.0, v, w) - dirac_inner(v, w)), 1e-14)
    families.append(fam)

    fam = _Family("cprime_section_identity")
    for eta in (0.1, 0.5, 0.9):
        cp_t = cprime_matrix(eta).T
        for _ in range(max(1, grid.n_random // 10)):
            v = rng.normal(size=2) + 1j * rng.normal(size=2)
            lhs = cpt_conjugate(eta, cp_t @ v).components
            fam.add(np.abs(lhs - v.conj() @ parity_matrix()).max(), 1e-12)
    families.append(fam)
    return {fam.name: fam.report(grid.tolerance) for fam in families}


@pytest.mark.parametrize("n_random", [60, 1000])
@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_random_draw_families_equal_a_scalar_reference_loop(params, seed, n_random):
    grid = OracleGrid(etas=(0.3,), times=(0.0,), t0s=(0.0,), n_phases=2,
                      n_random=n_random, seed=seed)
    want = scalar_reference(params, grid)
    got = {rep.check_name: rep for rep in check_all(params, grid)}
    assert {name: got[name] for name in want} == want
