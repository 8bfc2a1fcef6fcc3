"""The check_all invariant suite: green by construction, red when corrupted."""

import math
import warnings

import numpy as np
import pytest

from helpers import random_params
from ptosc import (
    ModelParams,
    OracleGrid,
    OracleReport,
    brute_force_dirac_norm,
    brute_force_dirac_overlap,
    brute_force_probability,
    check_all,
    cprime_matrix,
    cpt_bra,
    cpt_conjugate,
    cpt_inner,
    density_operator,
    dirac_bra,
    dirac_inner,
    dirac_norm,
    dirac_overlap,
    eigensystem,
    flavour_ket,
    hermitian_eigenvalues,
    hermitian_mass_matrix,
    hermitian_transition_probability,
    inner,
    make_params,
    mass_matrix,
    mixed_basis_bra,
    mixed_basis_ket,
    naive_continuation_value,
    numeric_eigensystem,
    parity_matrix,
    probability_closed_form,
    probability_trace,
    projection_operator,
    pt_conjugate,
    pt_eigenvalues,
    pt_inner,
    tilde_bra,
    tolerance_for_eta,
    transition_probability,
    xi,
)
from ptosc.validation import _eigenvalue_errors, _Family, _random_inputs, _with_head


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


class TestFamilyNaN:
    """A NaN error must make the worst error NaN and fail the family, with
    or without a tolerance override (Python's max drops a NaN)."""

    @staticmethod
    def assert_failed_on_nan(fam):
        for override in (None, 1.0, 1e300):
            report = fam.report(override)
            assert np.isnan(report.max_abs_error) and not report.passed, override

    def test_add_all(self):
        fam = _Family("x")
        fam.add_all(np.array([0.5, np.nan]), 1.0)
        self.assert_failed_on_nan(fam)
        fam.add_all(np.array([0.7]), 1.0)  # a later finite error keeps the NaN
        self.assert_failed_on_nan(fam)

    @pytest.mark.parametrize("errors", [[np.nan], [np.nan, 0.5], [0.5, np.nan, 0.7],
                                        [complex(np.nan, 0.0)]])
    def test_zero_d_errors_one_at_a_time(self, errors):
        fam = _Family("x")
        for err in errors:
            fam.add_all(np.asarray(err), 1.0)
        self.assert_failed_on_nan(fam)

    def test_finite_errors_keep_their_worst(self):
        fam = _Family("x")
        fam.add_all(np.asarray(0.25), 1.0)
        fam.add_all(np.array([0.5, 0.125]), 1.0)
        fam.add_all(np.asarray(-0.375), 1.0)
        assert fam.report(None) == OracleReport("x", 0.5, 1.0, True, 4)
        assert fam.report(0.4) == OracleReport("x", 0.5, 0.4, False, 4)

    @pytest.mark.parametrize("error", [0.25, -0.375, np.float64(1e-13), 3 + 4j, math.nan,
                                       complex(math.nan, 0.0)])
    @pytest.mark.parametrize("tol", [0.0, 1e-6])
    def test_a_zero_d_error_is_one_point_with_pythons_abs(self, error, tol):
        """A family may yield a 0-d error: one point, its error Python's abs()."""
        fam = _Family("x")
        fam.add_all(np.asarray(error), tol)
        err = float(abs(error))
        for override in (None, 0.3):  # repr: a NaN error equals itself
            limit = tol if override is None else override
            want = OracleReport("x", err, limit, err <= limit, 1)
            assert repr(fam.report(override)) == repr(want)

    @pytest.mark.parametrize("errors", [np.empty(0), np.asarray(0.25), np.array([0.125, 0.5]),
                                        np.array([0.125, math.inf]), np.array([math.nan, 0.125]),
                                        np.asarray(complex(math.nan, 0.0))],
                             ids=["empty", "0-d", "equal", "inf", "nan", "complex nan"])
    @pytest.mark.parametrize("tol", [0.0, 0.5])
    def test_a_float_tolerance_judges_as_the_same_tolerance_array(self, errors, tol):
        """A float tolerance is judged by the worst error alone; that must
        equal the elementwise test against the same tolerance as an array."""
        reports = []
        for tols in (tol, np.asarray(tol), np.full(errors.shape, tol)):
            fam = _Family("x")
            fam.add_all(errors, tols)
            reports.append([repr(fam.report(override)) for override in (None, 0.3)])
        assert reports[0] == reports[1] == reports[2]


def test_every_family_is_called_once_by_name_and_filled_when_it_returns(params, monkeypatch):
    """A per-family timer wraps each module-level _check_* by name: check_all
    must call each one once, and each call must return its filled _Family,
    named as the report at the same position."""
    from ptosc import validation

    calls = []

    def counted(attr, check):
        def wrapper(*args):
            fam = check(*args)
            calls.append((attr, fam, getattr(fam, "points", 0)))
            return fam
        return wrapper

    names = [attr for attr in vars(validation) if attr.startswith("_check_")]
    for attr in names:  # the timer names its span after the function
        assert (getattr(validation, attr).__module__,
                getattr(validation, attr).__name__) == ("ptosc.validation", attr)
        monkeypatch.setattr(validation, attr, counted(attr, getattr(validation, attr)))
    reports = check_all(params, small_grid())
    assert len(names) == 27
    assert sorted(attr for attr, _, _ in calls) == sorted(names)
    assert all(isinstance(fam, _Family) and points > 0 for _, fam, points in calls)
    assert [fam.name for _, fam, _ in calls] == [rep.check_name for rep in reports]


def test_out_of_domain_reference_params_raise_up_front():
    from ptosc import BrokenPTPhase

    with pytest.raises(BrokenPTPhase):
        check_all(make_params(2.0, 1.0, 0.8), small_grid())


@pytest.mark.parametrize("field, value", [
    ("t0s", ()), ("n_random", -1), ("n_phases", -1),
    ("times", (0.0, math.inf)), ("times", (math.nan,)),
    ("t0s", (1.7, -math.inf)), ("t0s", (math.nan, 0.0))])
def test_a_bad_grid_is_refused_before_any_family_runs(params, monkeypatch, field, value):
    from ptosc import DomainError, validation

    def unreachable(*args):
        raise AssertionError("the suite started on a bad grid")

    monkeypatch.setattr(validation, "_random_inputs", unreachable)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy RuntimeWarning on the way
        with pytest.raises(DomainError, match=f"OracleGrid.{field} "):
            check_all(params, small_grid(**{field: value}))


SEEDED_FAULTS = {
    None: [],
    "probabilities.transition_probability": [
        "brute_force_vs_closed_form", "hermitian_gap", "trace_vs_closed_form"],
    "delta_omega": ["brute_force_vs_closed_form", "dirac_norm_closed_form",
                    "dirac_overlap_closed_form", "trace_vs_closed_form"],
    "omega_plus": ["dirac_norm_closed_form", "dirac_overlap_closed_form", "trace_vs_closed_form"],
    "mixed_basis_norm": ["density_projection_operators", "mixed_basis_orthonormality",
                         "trace_vs_closed_form", "unitarity"],
    "cosh_theta": ["cpt_basis_nonorthogonality", "density_projection_operators",
                   "dirac_norm_closed_form", "dirac_overlap_closed_form",
                   "mixed_basis_orthonormality", "theta_parameterisation",
                   "tilde_biorthonormality", "trace_vs_closed_form", "unitarity"],
}


@pytest.mark.parametrize("fault", SEEDED_FAULTS)
def test_a_seeded_fault_fails_exactly_its_families(params, monkeypatch, fault):
    """One quantity scaled by 1 + 1e-7 (a closed form, or an EigenSystem
    field of every system the suite builds) fails exactly the families
    that can see it, on the default grid; with no fault none fails."""
    from dataclasses import replace

    from ptosc import probabilities as prob
    from ptosc import validation

    scale = 1.0 + 1e-7
    if fault == "probabilities.transition_probability":
        exact = prob.transition_probability
        monkeypatch.setattr(prob, "transition_probability",
                            lambda eta, phase: exact(eta, phase) * scale)
    elif fault is not None:
        def faulty(ps):
            es = eigensystem(ps)
            return replace(es, **{fault: getattr(es, fault) * scale})
        monkeypatch.setattr(validation, "eigensystem", faulty)
    failed = [rep.check_name for rep in check_all(params) if not rep.passed]
    assert sorted(failed) == SEEDED_FAULTS[fault]


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


def add(fam, err, tol):
    """One error of a reference loop, taken in as a 0-d array."""
    fam.add_all(np.asarray(err), tol)


def scalar_reference(params, grid):
    """The seven random-draw families of check_all, one draw and one
    single-point call at a time, drawing from one generator in check_all's
    order.  Returns {check_name: OracleReport}."""
    rng = np.random.default_rng(grid.seed)
    families = []

    def eigenvalue_gap(fam, lam_closed, matrix):
        lam_num = np.sort(numeric_eigensystem(matrix)[0].real)[::-1]
        scale = max(abs(lam_closed[0]), 1.0)
        add(fam, max(abs(lam_closed[0] - lam_num[0]), abs(lam_closed[1] - lam_num[1])) / scale,
            1e-10)

    fam = _Family("eigenvalues_vs_characteristic_polynomial")
    for p in [params] + [random_params(rng) for _ in range(grid.n_random)]:
        eigenvalue_gap(fam, pt_eigenvalues(p), mass_matrix(p))
    families.append(fam)

    fam = _Family("trace_determinant_preservation")
    for p in [params] + [random_params(rng) for _ in range(grid.n_random)]:
        lam = pt_eigenvalues(p)
        tr, det = p.m1_sq + p.m2_sq, p.m1_sq * p.m2_sq + p.mu_sq * p.mu_sq
        add(fam, abs(lam[0] + lam[1] - tr) / abs(tr), 1e-12)
        add(fam, abs(lam[0] * lam[1] - det) / abs(det), 1e-12)
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
            add(fam, abs(lhs - (alpha * inner(bra, v) + beta * inner(bra, w))), 1e-12)
    families.append(fam)

    fam = _Family("cpt_inner_positivity")
    for _ in range(grid.n_random):
        v = rng.normal(size=2)
        while np.linalg.norm(v) < 1e-3:
            v = rng.normal(size=2)
        value = cpt_inner(rng.uniform(0.0, 0.95), v, v)
        add(fam, abs(value.imag), 1e-12)
        add(fam, max(0.0, -value.real), 0.0)
    families.append(fam)

    fam = _Family("cpt_matches_dirac_at_zero_mixing")
    for _ in range(grid.n_random):
        v, w = rng.normal(size=2), rng.normal(size=2)
        add(fam, abs(cpt_inner(0.0, v, w) - dirac_inner(v, w)), 1e-14)
    families.append(fam)

    fam = _Family("cprime_section_identity")
    for eta in (0.1, 0.5, 0.9):
        cp_t = cprime_matrix(eta).T
        for _ in range(max(1, grid.n_random // 10)):
            v = rng.normal(size=2) + 1j * rng.normal(size=2)
            lhs = cpt_conjugate(eta, cp_t @ v)
            add(fam, np.abs(lhs - v.conj() @ parity_matrix()).max(), 1e-12)
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


def test_eigenvalue_errors_equal_the_sort_and_reverse_form(params):
    """On the default draws of both eigenvalue families, the errors from the
    root core's larger and smaller root have the bits of the former errors
    from numeric_eigensystem's eigenvalues, sorted and reversed."""
    grid = OracleGrid()
    draws = _random_inputs(grid.seed, grid.n_random)
    pt, herm = _with_head(params, draws.eigenvalues), ModelParams(*draws.hermitian_masses)
    for lam_closed, matrices in ((pt_eigenvalues(pt), mass_matrix(pt)),
                                 (hermitian_eigenvalues(herm), hermitian_mass_matrix(herm))):
        lam_num = np.sort(numeric_eigensystem(matrices)[0].real, axis=-1)[..., ::-1]
        scale = np.maximum(abs(lam_closed[0]), 1.0)
        former = np.maximum(abs(lam_closed[0] - lam_num[..., 0]),
                            abs(lam_closed[1] - lam_num[..., 1])) / scale
        assert _eigenvalue_errors(lam_closed, matrices).tobytes() == former.tobytes()


def reference_systems(params, grid):
    """One (params, eigensystem) per distinct grid eta below 1, then the
    reference eta, from single-point calls."""
    out, seen = [], set()
    for eta in (*grid.etas, params.eta):
        if eta in seen or eta >= 1.0:
            continue
        seen.add(eta)
        p = make_params(params.m1_sq, params.m2_sq,
                        0.5 * eta * abs(params.m1_sq - params.m2_sq), params.p)
        out.append((p, eigensystem(p)))
    return out


def per_point_reference(params, grid):
    """The per-system families of check_all, one system, one time, one
    flavour pair and one single-point call at a time.  Returns {check_name: OracleReport}."""
    systems = reference_systems(params, grid)
    phases = np.linspace(0.0, 2.0 * math.pi, grid.n_phases).tolist()
    families = []

    def state_tolerance(es):
        return 1e-12 if es.eta <= 0.95 else tolerance_for_eta(es.eta)

    fam = _Family("eigenvector_residuals")
    for _, es in systems:
        m2 = es.oriented_mass_matrix()
        scale = np.linalg.norm(m2)
        for vec, lam in ((es.e_plus, es.m_plus_sq), (es.e_minus, es.m_minus_sq)):
            add(fam, np.linalg.norm(m2 @ vec - lam * vec) / scale, tolerance_for_eta(es.eta))
    families.append(fam)

    fam = _Family("parity_pseudo_hermiticity")
    par = parity_matrix()
    for p, _ in systems:
        m2 = mass_matrix(p)
        add(fam, np.abs(par @ m2 @ par - m2.conj().T).max(), 1e-14)
    add(fam, np.abs(par @ par - np.eye(2)).max(), 0.0)
    families.append(fam)

    fam = _Family("cprime_invariance")
    for _, es in systems:
        if es.eta > 0.99:
            continue
        cp = cprime_matrix(es.eta)
        m2 = es.oriented_mass_matrix()
        add(fam, np.abs(cp.T @ m2 @ cp.T - m2).max(), 1e-10)
        add(fam, np.abs(cp @ cp - np.eye(2)).max(), 1e-12)
        add(fam, np.abs((cp @ par).T - cp @ par).max(), 0.0)
        add(fam, np.abs(cp.T @ es.e_plus - es.e_plus).max(), 1e-12)
        add(fam, np.abs(cp.T @ es.e_minus + es.e_minus).max(), 1e-12)
    families.append(fam)

    fam = _Family("theta_parameterisation")
    for _, es in systems:
        add(fam, math.tanh(2.0 * es.theta) - es.eta, 1e-12)
        add(fam, es.cosh_theta - math.cosh(es.theta), 1e-12)
        add(fam, es.sinh_theta - math.sinh(es.theta), 1e-12)
        add(fam, es.cosh_theta ** 2 - es.sinh_theta ** 2 - 1.0, 1e-12)
        if es.eta > 0.0:
            add(fam, es.n_factor * es.eta - es.cosh_theta, 1e-12)
    families.append(fam)

    fam = _Family("pt_and_cpt_eigenvector_norms")
    for _, es in systems:
        add(fam, pt_inner(es.e_plus, es.e_plus) - 1.0, 1e-12)
        add(fam, pt_inner(es.e_minus, es.e_minus) + 1.0, 1e-12)
        add(fam, pt_inner(es.e_plus, es.e_minus), 1e-12)
        add(fam, cpt_inner(es.eta, es.e_plus, es.e_plus) - 1.0, 1e-12)
        add(fam, cpt_inner(es.eta, es.e_minus, es.e_minus) - 1.0, 1e-12)
        add(fam, cpt_inner(es.eta, es.e_plus, es.e_minus), 1e-12)
    families.append(fam)

    for name, bra, ket in (("tilde_biorthonormality", tilde_bra, flavour_ket),
                           ("mixed_basis_orthonormality", mixed_basis_bra, mixed_basis_ket)):
        fam = _Family(name)
        for _, es in systems:
            for t in grid.times:
                for i in (1, 2):
                    for j in (1, 2):
                        value = inner(bra(i, t, es), ket(j, t, es))
                        add(fam, abs(value - (1.0 if i == j else 0.0)), 1e-12)
        families.append(fam)

    fam = _Family("cpt_basis_nonorthogonality")
    for _, es in systems:
        for t in grid.times:
            for i in (1, 2):
                for j in (1, 2):
                    value = inner(cpt_bra(i, t, es), flavour_ket(j, t, es))
                    want = es.cosh_two_theta if i == j else es.sinh_two_theta
                    add(fam, abs(value - want),
                        tolerance_for_eta(es.eta) if es.eta > 0.95 else 1e-12)
    families.append(fam)

    fam = _Family("mode_equation_of_motion")
    h = 1e-4
    for _, es in systems:
        for branch in ("plus", "minus"):
            omega_sq = es.omega(branch) ** 2
            for t in grid.times:
                second = (xi(branch, t + h, es) - 2.0 * xi(branch, t, es)
                          + xi(branch, t - h, es)) / (h * h)
                add(fam, abs(second + omega_sq * xi(branch, t, es)) / omega_sq, 1e-6)
    families.append(fam)

    fam = _Family("brute_force_vs_closed_form")
    t0 = grid.t0s[0]
    for p, es in systems:
        for i, j in ((1, 1), (1, 2), (2, 1), (2, 2)):
            for phase in phases:
                dt = 2.0 * phase / es.delta_omega
                brute = brute_force_probability(p, i, j, t0, t0 + dt)
                add(fam, brute - probability_closed_form(i, j, dt, es).value,
                    tolerance_for_eta(es.eta))
    families.append(fam)

    def closed(i, j, dt, es):
        return probability_closed_form(i, j, dt, es).value

    def trace(i, j, t0, t, es):
        return probability_trace(i, j, t0, t, es).value

    fam = _Family("trace_vs_closed_form")
    for _, es in systems:
        for i, j in ((1, 1), (1, 2), (2, 1), (2, 2)):
            for phase in phases:
                dt = 2.0 * phase / es.delta_omega
                for t0 in grid.t0s:
                    add(fam, trace(i, j, t0, t0 + dt, es) - closed(i, j, dt, es),
                        tolerance_for_eta(es.eta))
    families.append(fam)

    fam = _Family("unitarity")
    for _, es in systems:
        for phase in phases:
            dt = 2.0 * phase / es.delta_omega
            add(fam, closed(1, 1, dt, es) + closed(1, 2, dt, es) - 1.0, 1e-12)
            add(fam, trace(1, 1, 0.0, dt, es) + trace(1, 2, 0.0, dt, es) - 1.0,
                max(1e-10, tolerance_for_eta(es.eta)))
    families.append(fam)

    fam = _Family("probability_symmetry")
    for _, es in systems:
        for phase in phases:
            dt = 2.0 * phase / es.delta_omega
            add(fam, closed(1, 2, dt, es) - closed(2, 1, dt, es), 0.0)
            add(fam, trace(1, 2, 0.0, dt, es) - trace(2, 1, 0.0, dt, es), state_tolerance(es))
            add(fam, trace(1, 1, 0.0, dt, es) - trace(2, 2, 0.0, dt, es), state_tolerance(es))
    families.append(fam)

    fam = _Family("time_translation_invariance")
    for _, es in systems:
        for phase in phases:
            dt = 2.0 * phase / es.delta_omega
            values = [trace(1, 2, shift, shift + dt, es) for shift in (*grid.t0s, 100.0)]
            add(fam, max(values) - min(values), tolerance_for_eta(es.eta))
    families.append(fam)

    fam = _Family("density_projection_operators")
    for _, es in systems:
        for i in (1, 2):
            for t0 in grid.t0s:
                rho = density_operator(i, t0, es)
                pi = projection_operator(i, t0, es)
                add(fam, rho[0, 0] + rho[1, 1] - 1.0, state_tolerance(es))
                add(fam, np.abs(rho @ rho - rho).max(), state_tolerance(es))
                add(fam, np.abs(pi - rho).max(), 0.0)
    families.append(fam)

    fam = _Family("dirac_norm_closed_form")
    for p, es in systems:
        for t in grid.times:
            for i in (1, 2):
                closed = dirac_norm(i, t, es)
                contracted = inner(dirac_bra(i, t, es), flavour_ket(i, t, es))
                add(fam, abs(contracted - closed), state_tolerance(es))
                add(fam, abs(brute_force_dirac_norm(p, i, t) - closed), state_tolerance(es))
    families.append(fam)

    fam = _Family("dirac_overlap_closed_form")
    for p, es in systems:
        for t in grid.times:
            closed = dirac_overlap(t, es)
            brute = brute_force_dirac_overlap(p, t)
            add(fam, abs(inner(dirac_bra(1, t, es), flavour_ket(2, t, es)) - closed),
                state_tolerance(es))
            add(fam, abs(inner(dirac_bra(2, t, es), flavour_ket(1, t, es)) - closed.conjugate()),
                state_tolerance(es))
            add(fam, abs(brute - (-closed if es.swapped else closed)), state_tolerance(es))
    families.append(fam)

    fam = _Family("hermitian_gap")
    for eta in grid.etas:
        if eta > 1.0:
            continue
        for phase in phases:
            gap = transition_probability(eta, phase) - hermitian_transition_probability(eta, phase)
            add(fam, gap - eta ** 4 / (1.0 + eta * eta) * math.sin(phase) ** 2, 1e-12)
            add(fam, max(0.0, gap - eta ** 4), 0.0)
    families.append(fam)

    fam = _Family("naive_continuation_pathology")
    for eta in grid.etas:
        if eta >= 1.0:
            continue
        worst = max(abs(naive_continuation_value(eta, phase)) for phase in phases + [0.5 * math.pi])
        if eta <= 1.0 / math.sqrt(2.0):
            add(fam, max(0.0, worst - 1.0), 0.0)
        else:
            add(fam, 0.0 if worst > 1.0 else 1.0, 0.0)
    families.append(fam)
    return {fam.name: fam.report(grid.tolerance) for fam in families}


CUSTOM_GRID = OracleGrid(etas=(0.0, 0.3, 0.8, 0.96, 0.999), times=(-2.0, 0.0, 1.1, 40.0),
                         t0s=(0.5, -1.0), n_phases=7, n_random=60)


# t0s that the shared trace stack (one column per distinct t0 and 0.0)
# must slice back into grid order: duplicates, 100.0 (the shift of
# time_translation_invariance), -0.0 (equal to 0.0) and no 0.0 at all
T0_GRIDS = {"t0_duplicates_100_negative_zero": (100.0, -0.0, -0.0, 2.5),
            "t0_zero_and_negative_zero": (0.0, 1.7, -0.0, 1.7),
            "t0_without_zero": (2.5, -1.0, 100.0)}


@pytest.mark.parametrize("grid", [OracleGrid(), CUSTOM_GRID,
                                  OracleGrid(etas=CUSTOM_GRID.etas, n_random=60, tolerance=1e-20),
                                  *(OracleGrid(etas=CUSTOM_GRID.etas, times=CUSTOM_GRID.times,
                                               t0s=t0s, n_phases=7, n_random=60)
                                    for t0s in T0_GRIDS.values())],
                         ids=["default", "custom", "tolerance_override", *T0_GRIDS])
@pytest.mark.parametrize("raw", [(2.0, 1.0, 0.3, 0.0), (1.0, 2.0, 0.3, 0.0),
                                 (4.2, 1.3, 0.8, 0.7), (1.3, 4.2, 0.8, 0.7)],
                         ids=["heavy_first", "swapped", "heavy_first_p", "swapped_p"])
def test_stacked_families_equal_a_per_point_reference_loop(raw, grid):
    params = make_params(*raw)
    want = per_point_reference(params, grid)
    got = {rep.check_name: rep for rep in check_all(params, grid)}
    assert len(want) == 19
    assert {name: got[name] for name in want} == want


def test_one_stacked_eigensystem_one_spectral_solve_and_two_trace_calls_per_pass(
        params, monkeypatch):
    from ptosc import oracle, validation
    from ptosc import probabilities as prob

    calls = {"eigensystem": 0, "spectral": 0, "trace": 0, "numeric_eigensystem": 0, "roots": 0}

    def counted(key, fn):
        def wrapper(*args):
            calls[key] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(validation, "eigensystem", counted("eigensystem", eigensystem))
    monkeypatch.setattr(oracle, "_spectral_data", counted("spectral", oracle._spectral_data))
    monkeypatch.setattr(prob, "trace_probabilities",
                        counted("trace", prob.trace_probabilities))
    monkeypatch.setattr(oracle, "numeric_eigensystem",
                        counted("numeric_eigensystem", oracle.numeric_eigensystem))
    monkeypatch.setattr(oracle, "_eigenvalues", counted("roots", oracle._eigenvalues))
    grid = small_grid(etas=(0.0, 0.3, 0.8, 0.999))
    check_all(params, grid)
    # the reference point checked up front, then every grid system and the
    # Hermitian-limit point in one stack; one oracle solve whose slices feed
    # the three oracle families; one trace stack over the t0s and 0.0, and
    # the P(1 -> 2) column from t0 = 100.  The solve builds no eigenvectors,
    # so numeric_eigensystem is not called; the two eigenvalue families call
    # the root core once each
    assert calls == {"eigensystem": 2, "spectral": 1, "trace": 2,
                     "numeric_eigensystem": 0, "roots": 2}


def test_the_grid_stack_builds_cprime_once_per_pass(params, monkeypatch):
    from ptosc import model

    shapes = []
    build = model._cprime_matrix

    def counted(eta, s):
        shapes.append(np.shape(eta))
        return build(eta, s)

    monkeypatch.setattr(model, "_cprime_matrix", counted)
    check_all(params, small_grid(etas=(0.0, 0.3, 0.8, 0.999)))
    # the reference point's up-front eigensystem builds C' once, and so does
    # the stack of the five grid systems and the Hermitian-limit point, whose
    # slices slice its C' (tilde_bra reads it there); the other eleven builds
    # are cprime_matrix calls on the etas of the inner-product families (seven
    # single etas, two 60-draw batches, one (5, 1, 1) grid for cpt_inner, and
    # the four etas <= 0.99 of cprime_invariance)
    assert sorted(shapes) == sorted([(6,)] + [()] * 8 + [(60,)] * 2 + [(5, 1, 1)] + [(4,)])


def test_a_default_grid_pass_builds_each_state_quantity_once(params, monkeypatch):
    """check_all slices the eigensystem stack and evaluates the flavour kets
    once per shape it needs, and the oracle builds one ket per operator and
    one set of flavour kets for both Dirac families."""
    from ptosc import model, oracle, states

    calls = {"slice": 0, "kets": 0, "oracle_ket": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(model.EigenSystem, "__getitem__",
                        counted("slice", model.EigenSystem.__getitem__))
    monkeypatch.setattr(states, "_ket_components", counted("kets", states._ket_components))
    monkeypatch.setattr(oracle, "_ket", counted("oracle_ket", oracle._ket))
    assert all(rep.passed for rep in check_all(params))
    assert calls["slice"] <= 12 and calls["kets"] <= 12 and calls["oracle_ket"] <= 3, calls


def per_eta_reference(grid):
    """hermitian_gap and naive_continuation_pathology with one array closed-form
    call per grid eta.  Returns {check_name: OracleReport}."""
    phases = np.linspace(0.0, 2.0 * math.pi, grid.n_phases)
    sin_sq = np.array([math.sin(phase) ** 2 for phase in phases.tolist()])
    gap_fam = _Family("hermitian_gap")
    for eta in grid.etas:
        if eta > 1.0:
            continue
        gap = transition_probability(eta, phases) - hermitian_transition_probability(eta, phases)
        gap_fam.add_all(gap - eta ** 4 / (1.0 + eta * eta) * sin_sq, 1e-12)
        gap_fam.add_all(np.maximum(0.0, gap - eta ** 4), 0.0)
    naive_fam = _Family("naive_continuation_pathology")
    for eta in grid.etas:
        if eta >= 1.0:
            continue
        worst = np.abs(naive_continuation_value(eta, np.append(phases, 0.5 * math.pi))).max()
        if eta <= 1.0 / math.sqrt(2.0):
            add(naive_fam, max(0.0, worst - 1.0), 0.0)
        else:
            add(naive_fam, 0.0 if worst > 1.0 else 1.0, 0.0)
    return {fam.name: fam.report(grid.tolerance) for fam in (gap_fam, naive_fam)}


@pytest.mark.parametrize("etas", [
    OracleGrid.etas, (0.3,), (), (0, 0.2, 0.2, 0.999), (0.3, 1.0, 1.5),
    (1.0 / math.sqrt(2.0), 0.7072, 0.9999999), (2.0, 0.95, 0.0)])
@pytest.mark.parametrize("n_phases", [1, 6, 16])
def test_eta_grid_families_equal_a_per_eta_reference_loop(params, etas, n_phases):
    grid = OracleGrid(etas=etas, times=(0.0,), t0s=(0.0,), n_phases=n_phases, n_random=10)
    want = per_eta_reference(grid)
    got = {rep.check_name: rep for rep in check_all(params, grid)}
    assert {name: got[name] for name in want} == want


def scalar_draws(seed, n_random):
    """The sesquilinearity and cpt_inner_positivity inputs as (vector, eta)
    pairs, one draw and one scalar call at a time, in check_all's order."""
    rng = np.random.default_rng(seed)
    for n in (n_random, n_random, n_random // 10):
        for _ in range(n):
            random_params(rng)
    sesquilinearity = [(rng.normal(size=16), rng.uniform(0.0, 0.95)) for _ in range(n_random)]
    cpt_positivity = []
    for _ in range(n_random):
        v = rng.normal(size=2)
        while np.linalg.norm(v) < 1e-3:
            v = rng.normal(size=2)
        cpt_positivity.append((v, rng.uniform(0.0, 0.95)))
    return sesquilinearity, cpt_positivity


# Seeds whose cpt_inner_positivity draws (n_random 200) come near the norm
# floor of 1e-3: 425 and 2442 draw a vector whose components are both below
# 2e-3 but whose norm is not below the floor; 5775 and 12076 draw one whose
# norm is, which is redrawn.
@pytest.mark.parametrize("seed", [425, 2442, 5775, 12076])
def test_draws_near_the_norm_floor_equal_a_scalar_draw_loop(params, seed):
    draws = _random_inputs(seed, 200)
    for got, want in zip((draws.sesquilinearity, draws.cpt_positivity), scalar_draws(seed, 200)):
        assert np.array_equal(got[0], [vector for vector, _ in want])
        assert np.array_equal(got[1], [eta for _, eta in want])
    grid = OracleGrid(etas=(0.3,), times=(0.0,), t0s=(0.0,), n_phases=2,
                      n_random=200, seed=seed)
    want = scalar_reference(params, grid)
    got = {rep.check_name: rep for rep in check_all(params, grid)}
    assert {name: got[name] for name in want} == want
