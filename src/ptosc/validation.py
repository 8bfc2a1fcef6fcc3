"""Invariant suite: every library identity checked against the oracle paths.

check_all pits three independently implemented routes against each other
(closed forms, the states/trace machinery, and the raw-matrix brute force
in `oracle`) and verifies the structural identities (metric symmetries,
biorthonormality, positivity, unitarity, time-translation invariance) on a
configurable grid.  One OracleReport per invariant family; a family passes
only if every grid point met its own tolerance (1e-10 for eta <= 0.95,
1e-8 up to 0.999, tighter fixed tolerances where the identity is exact).
"""

import math
from dataclasses import dataclass

import numpy as np

from . import probabilities as prob
from . import states
from .inner import cpt_conjugate, cpt_inner, dirac_inner, inner, pt_conjugate, pt_inner
from .model import (
    EigenSystem,
    ModelParams,
    _cmul,
    cprime_matrix,
    eigensystem,
    hermitian_eigenvalues,
    hermitian_mass_matrix,
    make_params,
    mass_matrix,
    parity_matrix,
    pt_eigenvalues,
)
from .oracle import (
    OracleReport,
    brute_force_dirac_norm,
    brute_force_dirac_overlap,
    brute_force_probability,
    numeric_eigensystem,
    tolerance_for_eta,
)

TWO_PI = 2.0 * math.pi
PAIRS = ((1, 1), (1, 2), (2, 1), (2, 2))


@dataclass(frozen=True)
class OracleGrid:
    """Sweep description for check_all.

    tolerance, when set, replaces every family's own tolerance (useful to
    force failures or to tighten the gate).
    """

    etas: tuple = (0.0, 0.05, 0.2, 0.4, 0.6, 0.8, 0.95, 0.999)
    times: tuple = (-5.0, 0.0, 0.3, 7.9)
    t0s: tuple = (-3.2, 0.0, 1.7)
    n_phases: int = 16
    n_random: int = 1000
    seed: int = 20230222
    tolerance: float | None = None


class _Family:
    """Accumulates worst error over a sweep with per-point tolerances."""

    def __init__(self, name: str):
        self.name = name
        self.max_err = 0.0
        self.max_tol = 0.0
        self.points = 0
        self.ok = True

    def add(self, err: float | complex, tol: float) -> None:
        err = float(abs(err))
        self.max_err = max(self.max_err, err)
        self.max_tol = max(self.max_tol, tol)
        self.ok = self.ok and err <= tol
        self.points += 1

    def add_all(self, errs: np.ndarray, tol: float) -> None:
        """add() for every element of an array of errors (hypot rounds like
        add()'s scalar abs; np.abs of a complex array need not)."""
        errs = np.hypot(np.real(errs), np.imag(errs))
        self.max_err = max(self.max_err, float(errs.max(initial=0.0)))
        self.max_tol = max(self.max_tol, tol if errs.size else 0.0)
        self.ok = self.ok and bool((errs <= tol).all())
        self.points += errs.size

    def report(self, override: float | None) -> OracleReport:
        if override is not None:
            return OracleReport(self.name, self.max_err, float(override),
                                self.max_err <= override, self.points)
        return OracleReport(self.name, self.max_err, self.max_tol,
                            self.ok, self.points)


def _with_eta(params: ModelParams, eta: float) -> ModelParams:
    """Same mass scale and momentum, mixing rescaled to the requested eta."""
    return make_params(params.m1_sq, params.m2_sq,
                       0.5 * eta * abs(params.m1_sq - params.m2_sq), params.p)


def _systems(params: ModelParams, grid: OracleGrid) -> list[tuple[ModelParams, EigenSystem]]:
    out = []
    seen = set()
    for eta in (*grid.etas, params.eta):
        if eta in seen or eta >= 1.0:
            continue
        seen.add(eta)
        p = _with_eta(params, eta)
        out.append((p, eigensystem(p)))
    return out


def _random_params(rng: np.random.Generator, n: int, *head: ModelParams) -> ModelParams:
    """The head points, then n random valid draws as one batch of array
    fields.  Each draw takes five uniforms, as one draw at a time would: a
    (lo, hi) pair, redrawn while closer than 1e-3, the ordering, eta, p."""
    draws, stream, todo = [np.empty((0, 5))], np.empty(0), n
    while todo:
        stream = np.append(stream, rng.random(5 * todo - len(stream)))
        rows = stream.reshape(todo, 5)
        pairs = np.sort(0.2 + (5.0 - 0.2) * rows[:, :2], axis=1)
        k = np.argmin(np.append(pairs[:, 1] - pairs[:, 0] >= 1e-3, False))  # first redraw
        draws.append(np.column_stack([pairs, rows[:, 2:]])[:k])
        stream, todo = stream[5 * k + 2:], todo - k
    lo, hi, order, eta, p = np.concatenate(draws).T
    heavy_first = order < 0.5
    batch = (np.where(heavy_first, hi, lo), np.where(heavy_first, lo, hi),
             0.5 * (0.99 * eta) * (hi - lo), 2.0 * p)
    fixed = np.reshape([(q.m1_sq, q.m2_sq, q.mu_sq, q.p) for q in head], (-1, 4)).T
    return ModelParams(*(np.concatenate(pair) for pair in zip(fixed, batch)))


# --- model-core families -------------------------------------------------

def _eigenvalue_errors(lam_closed: tuple, matrices: np.ndarray) -> np.ndarray:
    """Relative gap between closed-form eigenvalues (larger first) and the
    oracle's, for each matrix of a stack."""
    lam_num = np.sort(numeric_eigensystem(matrices)[0].real, axis=-1)[..., ::-1]
    scale = np.maximum(abs(lam_closed[0]), 1.0)
    return np.maximum(abs(lam_closed[0] - lam_num[..., 0]),
                      abs(lam_closed[1] - lam_num[..., 1])) / scale


def _check_eigenvalues(params: ModelParams, grid: OracleGrid, rng) -> _Family:
    fam = _Family("eigenvalues_vs_characteristic_polynomial")
    batch = _random_params(rng, grid.n_random, params)
    fam.add_all(_eigenvalue_errors(pt_eigenvalues(batch), mass_matrix(batch)), 1e-10)
    return fam


def _check_eigenvector_residuals(params: ModelParams, grid: OracleGrid) -> _Family:
    fam = _Family("eigenvector_residuals")
    for p, es in _systems(params, grid):
        m2 = es.oriented_mass_matrix()
        scale = np.linalg.norm(m2)
        for vec, lam in ((es.e_plus, es.m_plus_sq), (es.e_minus, es.m_minus_sq)):
            fam.add(np.linalg.norm(m2 @ vec - lam * vec) / scale, tolerance_for_eta(es.eta))
    return fam


def _check_trace_determinant(params: ModelParams, grid: OracleGrid, rng) -> _Family:
    fam = _Family("trace_determinant_preservation")
    p = _random_params(rng, grid.n_random, params)
    lam = pt_eigenvalues(p)
    tr, det = p.m1_sq + p.m2_sq, p.m1_sq * p.m2_sq + p.mu_sq * p.mu_sq
    fam.add_all(abs(lam[0] + lam[1] - tr) / abs(tr), 1e-12)
    fam.add_all(abs(lam[0] * lam[1] - det) / abs(det), 1e-12)
    return fam


def _check_parity_relation(params: ModelParams, grid: OracleGrid) -> _Family:
    fam = _Family("parity_pseudo_hermiticity")
    par = parity_matrix()
    for p, _ in _systems(params, grid):
        m2 = mass_matrix(p)
        fam.add(np.abs(par @ m2 @ par - m2.conj().T).max(), 1e-14)
    fam.add(np.abs(par @ par - np.eye(2)).max(), 0.0)
    return fam


def _check_cprime_relations(params: ModelParams, grid: OracleGrid) -> _Family:
    fam = _Family("cprime_invariance")
    par = parity_matrix()
    for p, es in _systems(params, grid):
        if es.eta > 0.99:
            continue  # conditioning of C' degrades like (1 - eta^2)^(-1/2)
        cp = cprime_matrix(es.eta)
        m2 = es.oriented_mass_matrix()
        fam.add(np.abs(cp.T @ m2 @ cp.T - m2).max(), 1e-10)
        fam.add(np.abs(cp @ cp - np.eye(2)).max(), 1e-12)
        fam.add(np.abs((cp @ par).T - cp @ par).max(), 0.0)
        fam.add(np.abs(cp.T @ es.e_plus - es.e_plus).max(), 1e-12)
        fam.add(np.abs(cp.T @ es.e_minus + es.e_minus).max(), 1e-12)
    return fam


def _check_theta(params: ModelParams, grid: OracleGrid) -> _Family:
    fam = _Family("theta_parameterisation")
    for p, es in _systems(params, grid):
        fam.add(math.tanh(2.0 * es.theta) - es.eta, 1e-12)
        fam.add(es.cosh_theta - math.cosh(es.theta), 1e-12)
        fam.add(es.sinh_theta - math.sinh(es.theta), 1e-12)
        fam.add(es.cosh_theta ** 2 - es.sinh_theta ** 2 - 1.0, 1e-12)
        if es.eta > 0.0:
            fam.add(es.n_factor * es.eta - es.cosh_theta, 1e-12)
    return fam


def _check_hermitian_limit(params: ModelParams) -> _Family:
    fam = _Family("hermitian_limit_eigenvectors")
    es = eigensystem(_with_eta(params, 1e-8))
    fam.add(np.abs(es.e_plus - np.array([1.0, 0.0])).max(), 1e-6)
    fam.add(np.abs(es.e_minus - np.array([0.0, 1.0])).max(), 1e-6)
    return fam


# --- inner-product families ----------------------------------------------

def _check_sesquilinearity(grid: OracleGrid, rng) -> _Family:
    fam = _Family("sesquilinearity")
    # per draw: u, v, w as two real then two imaginary parts, alpha, beta as (re, im), eta
    z, eta = np.empty((grid.n_random, 16)), np.empty(grid.n_random)
    for k in range(grid.n_random):
        z[k], eta[k] = rng.normal(size=16), rng.uniform(0.0, 0.95)
    u, v, w = (z[:, k:k + 2] + 1j * z[:, k + 2:k + 4] for k in (0, 4, 8))
    alpha, beta = z[:, 12:].view(complex).T
    for bra in (pt_conjugate(u), cpt_conjugate(eta, u), u.conj()):
        lhs = inner(bra, alpha[:, None] * v + beta[:, None] * w)
        # Python-rounded products on the right keep reports equal to a per-draw loop
        fam.add_all(lhs - (_cmul(alpha, inner(bra, v)) + _cmul(beta, inner(bra, w))), 1e-12)
    return fam


def _check_cpt_positivity(grid: OracleGrid, rng) -> _Family:
    fam = _Family("cpt_inner_positivity")
    vs, etas = np.empty((grid.n_random, 2)), np.empty(grid.n_random)
    for k in range(grid.n_random):
        vs[k] = rng.normal(size=2)
        while np.linalg.norm(vs[k]) < 1e-3:
            vs[k] = rng.normal(size=2)
        etas[k] = rng.uniform(0.0, 0.95)
    values = cpt_inner(etas, vs, vs)
    fam.add_all(values.imag, 1e-12)
    fam.add_all(np.maximum(0.0, -values.real), 0.0)  # strictly positive
    return fam


def _check_pt_norms(params: ModelParams, grid: OracleGrid) -> _Family:
    fam = _Family("pt_and_cpt_eigenvector_norms")
    for p, es in _systems(params, grid):
        fam.add(pt_inner(es.e_plus, es.e_plus) - 1.0, 1e-12)
        fam.add(pt_inner(es.e_minus, es.e_minus) + 1.0, 1e-12)
        fam.add(pt_inner(es.e_plus, es.e_minus), 1e-12)
        fam.add(cpt_inner(es.eta, es.e_plus, es.e_plus) - 1.0, 1e-12)
        fam.add(cpt_inner(es.eta, es.e_minus, es.e_minus) - 1.0, 1e-12)
        fam.add(cpt_inner(es.eta, es.e_plus, es.e_minus), 1e-12)
    return fam


def _check_cpt_dirac_consistency(grid: OracleGrid, rng) -> _Family:
    fam = _Family("cpt_matches_dirac_at_zero_mixing")
    v, w = rng.normal(size=(grid.n_random, 2, 2)).transpose(1, 0, 2)
    fam.add_all(cpt_inner(0.0, v, w) - dirac_inner(v, w), 1e-14)
    return fam


# --- states families ------------------------------------------------------

def _check_biorthonormality(params: ModelParams, grid: OracleGrid) -> _Family:
    fam = _Family("tilde_biorthonormality")
    for p, es in _systems(params, grid):
        for t in grid.times:
            for i in (1, 2):
                for j in (1, 2):
                    value = inner(states.tilde_bra(i, t, es), states.flavour_ket(j, t, es))
                    fam.add(abs(value - (1.0 if i == j else 0.0)), 1e-12)
    return fam


def _check_mixed_basis(params: ModelParams, grid: OracleGrid) -> _Family:
    fam = _Family("mixed_basis_orthonormality")
    for p, es in _systems(params, grid):
        for t in grid.times:
            bras = {i: states.mixed_basis_bra(i, t, es) for i in (1, 2)}
            kets = {i: states.mixed_basis_ket(i, t, es) for i in (1, 2)}
            for i in (1, 2):
                for j in (1, 2):
                    value = inner(bras[i], kets[j])
                    fam.add(abs(value - (1.0 if i == j else 0.0)), 1e-12)
    return fam


def _check_cpt_nonorthogonality(params: ModelParams, grid: OracleGrid) -> _Family:
    fam = _Family("cpt_basis_nonorthogonality")
    for p, es in _systems(params, grid):
        for t in grid.times:
            for i in (1, 2):
                for j in (1, 2):
                    value = inner(states.cpt_bra(i, t, es), states.flavour_ket(j, t, es))
                    want = es.cosh_two_theta if i == j else es.sinh_two_theta
                    fam.add(abs(value - want), tolerance_for_eta(es.eta) if es.eta > 0.95 else 1e-12)
    return fam


def _check_mode_equation(params: ModelParams, grid: OracleGrid) -> _Family:
    fam = _Family("mode_equation_of_motion")
    h = 1e-4
    for p, es in _systems(params, grid):
        for branch in ("plus", "minus"):
            omega_sq = es.omega(branch) ** 2
            for t in grid.times:
                second = (states.xi(branch, t + h, es) - 2.0 * states.xi(branch, t, es)
                          + states.xi(branch, t - h, es)) / (h * h)
                fam.add(abs(second + omega_sq * states.xi(branch, t, es)) / omega_sq, 1e-6)
    return fam


def _check_cprime_section_identity(params: ModelParams, grid: OracleGrid, rng) -> _Family:
    fam = _Family("cprime_section_identity")
    for eta in (0.1, 0.5, 0.9):
        cp_t = cprime_matrix(eta).T
        re, im = rng.normal(size=(max(1, grid.n_random // 10), 2, 2)).transpose(1, 0, 2)
        v = re + 1j * im
        lhs = cpt_conjugate(eta, (cp_t @ v[..., None])[..., 0]).components
        fam.add_all(np.abs(lhs - pt_conjugate(v).components).max(axis=-1), 1e-12)
    return fam


# --- probability families -------------------------------------------------

def _phases(grid: OracleGrid) -> np.ndarray:
    return np.linspace(0.0, TWO_PI, grid.n_phases)


def _dts(grid: OracleGrid, es: EigenSystem) -> np.ndarray:  # phase = delta_omega dt / 2
    return 2.0 * _phases(grid) / es.delta_omega


def _closed(i: int, j: int, dts: np.ndarray, es: EigenSystem) -> np.ndarray:
    return np.array([prob.probability_closed_form(i, j, dt, es).value for dt in dts])


def _check_trace_vs_closed(params: ModelParams, grid: OracleGrid) -> _Family:
    fam = _Family("trace_vs_closed_form")
    t0s = np.array(grid.t0s)
    for p, es in _systems(params, grid):
        dts = _dts(grid, es)
        for i, j in PAIRS:
            trace = prob.trace_probabilities(i, j, t0s, t0s + dts[:, None], es)
            fam.add_all(trace - _closed(i, j, dts, es)[:, None], tolerance_for_eta(es.eta))
    return fam


def _check_brute_force(params: ModelParams, grid: OracleGrid) -> _Family:
    fam = _Family("brute_force_vs_closed_form")
    t0 = grid.t0s[0]
    for p, es in _systems(params, grid):
        dts = _dts(grid, es)
        for i, j in PAIRS:
            brute = brute_force_probability(p, i, j, t0, t0 + dts)
            fam.add_all(brute - _closed(i, j, dts, es), tolerance_for_eta(es.eta))
    return fam


def _check_unitarity(params: ModelParams, grid: OracleGrid) -> _Family:
    fam = _Family("unitarity")
    for p, es in _systems(params, grid):
        dts = _dts(grid, es)
        fam.add_all(_closed(1, 1, dts, es) + _closed(1, 2, dts, es) - 1.0, 1e-12)
        trace = (prob.trace_probabilities(1, 1, 0.0, dts, es)
                 + prob.trace_probabilities(1, 2, 0.0, dts, es))
        fam.add_all(trace - 1.0, max(1e-10, tolerance_for_eta(es.eta)))
    return fam


def _check_symmetry(params: ModelParams, grid: OracleGrid) -> _Family:
    fam = _Family("probability_symmetry")
    for p, es in _systems(params, grid):
        tol = 1e-12 if es.eta <= 0.95 else tolerance_for_eta(es.eta)
        dts = _dts(grid, es)
        fam.add_all(_closed(1, 2, dts, es) - _closed(2, 1, dts, es), 0.0)
        for (i, j), (k, m) in (((1, 2), (2, 1)), ((1, 1), (2, 2))):
            fam.add_all(prob.trace_probabilities(i, j, 0.0, dts, es)
                        - prob.trace_probabilities(k, m, 0.0, dts, es), tol)
    return fam


def _check_time_translation(params: ModelParams, grid: OracleGrid) -> _Family:
    fam = _Family("time_translation_invariance")
    shifts = np.array((*grid.t0s, 100.0))
    for p, es in _systems(params, grid):
        values = prob.trace_probabilities(1, 2, shifts, shifts + _dts(grid, es)[:, None], es)
        fam.add_all(values.max(axis=1) - values.min(axis=1), tolerance_for_eta(es.eta))
    return fam


def _check_operators(params: ModelParams, grid: OracleGrid) -> _Family:
    fam = _Family("density_projection_operators")
    t0s = np.array(grid.t0s)
    for p, es in _systems(params, grid):
        tol = 1e-12 if es.eta <= 0.95 else tolerance_for_eta(es.eta)
        for i in (1, 2):
            rho = prob.density_operator(i, t0s, es).entries
            pi = prob.projection_operator(i, t0s, es).entries
            fam.add_all(rho[:, 0, 0] + rho[:, 1, 1] - 1.0, tol)
            fam.add_all(np.abs(rho @ rho - rho).max(axis=(1, 2)), tol)
            fam.add_all(np.abs(pi - rho).max(axis=(1, 2)), 0.0)  # same construction at equal times
    return fam


def _check_dirac_norm(params: ModelParams, grid: OracleGrid) -> _Family:
    fam = _Family("dirac_norm_closed_form")
    for p, es in _systems(params, grid):
        tol = 1e-12 if es.eta <= 0.95 else tolerance_for_eta(es.eta)
        brute = {i: brute_force_dirac_norm(p, i, np.array(grid.times)) for i in (1, 2)}
        for k, t in enumerate(grid.times):
            for i in (1, 2):
                closed = prob.dirac_norm(i, t, es)
                contracted = inner(states.dirac_bra(i, t, es), states.flavour_ket(i, t, es))
                fam.add(abs(contracted - closed), tol)
                fam.add(abs(brute[i][k] - closed), tol)
    return fam


def _check_dirac_overlap(params: ModelParams, grid: OracleGrid) -> _Family:
    fam = _Family("dirac_overlap_closed_form")
    for p, es in _systems(params, grid):
        tol = 1e-12 if es.eta <= 0.95 else tolerance_for_eta(es.eta)
        brute_overlaps = brute_force_dirac_overlap(p, np.array(grid.times))
        for t, brute in zip(grid.times, brute_overlaps):
            closed = prob.dirac_overlap(t, es)
            contracted = inner(states.dirac_bra(1, t, es), states.flavour_ket(2, t, es))
            reverse = inner(states.dirac_bra(2, t, es), states.flavour_ket(1, t, es))
            fam.add(abs(contracted - closed), tol)
            fam.add(abs(reverse - closed.conjugate()), tol)
            # the user-basis brute force can differ by the relabelling's
            # overall state sign, so compare moduli when swapped
            if es.swapped:
                fam.add(abs(abs(brute) - abs(closed)), tol)
            else:
                fam.add(abs(brute - closed), tol)
    return fam


def _check_hermitian_gap(params: ModelParams, grid: OracleGrid) -> _Family:
    fam = _Family("hermitian_gap")
    for eta in grid.etas:
        if eta > 1.0:
            continue
        for phase in _phases(grid):
            gap = (prob.transition_probability(eta, phase)
                   - prob.hermitian_transition_probability(eta, phase))
            want = eta ** 4 / (1.0 + eta * eta) * math.sin(phase) ** 2
            fam.add(gap - want, 1e-12)
            fam.add(max(0.0, gap - eta ** 4), 0.0)
    return fam


def _check_naive_pathology(grid: OracleGrid) -> _Family:
    fam = _Family("naive_continuation_pathology")
    threshold = 1.0 / math.sqrt(2.0)
    phases = np.append(_phases(grid), 0.5 * math.pi)
    for eta in grid.etas:
        if eta >= 1.0:
            continue
        worst = max(abs(prob.naive_continuation_value(eta, phase)) for phase in phases)
        if eta <= threshold:
            fam.add(max(0.0, worst - 1.0), 0.0)
        else:
            fam.add(0.0 if worst > 1.0 else 1.0, 0.0)
    return fam


def _check_hermitian_masses(params: ModelParams, grid: OracleGrid, rng) -> _Family:
    fam = _Family("hermitian_eigenvalues_vs_oracle")
    p = _random_params(rng, grid.n_random // 10)
    fam.add_all(_eigenvalue_errors(hermitian_eigenvalues(p), hermitian_mass_matrix(p)), 1e-10)
    return fam


def check_all(params: ModelParams, grid: OracleGrid | None = None) -> list[OracleReport]:
    """Run every invariant family; check failures are reported, never raised.

    The reference parameters must sit in the unbroken regime (eta < 1);
    out-of-domain inputs raise up front rather than mid-suite.
    """
    eigensystem(params)  # validates eta < 1 - EXCEPTIONAL_POINT_BAND
    grid = grid or OracleGrid()
    rng = np.random.default_rng(grid.seed)
    families = [
        _check_eigenvalues(params, grid, rng),
        _check_eigenvector_residuals(params, grid),
        _check_trace_determinant(params, grid, rng),
        _check_parity_relation(params, grid),
        _check_cprime_relations(params, grid),
        _check_theta(params, grid),
        _check_hermitian_limit(params),
        _check_hermitian_masses(params, grid, rng),
        _check_sesquilinearity(grid, rng),
        _check_cpt_positivity(grid, rng),
        _check_pt_norms(params, grid),
        _check_cpt_dirac_consistency(grid, rng),
        _check_biorthonormality(params, grid),
        _check_mixed_basis(params, grid),
        _check_cpt_nonorthogonality(params, grid),
        _check_mode_equation(params, grid),
        _check_cprime_section_identity(params, grid, rng),
        _check_trace_vs_closed(params, grid),
        _check_brute_force(params, grid),
        _check_unitarity(params, grid),
        _check_symmetry(params, grid),
        _check_time_translation(params, grid),
        _check_operators(params, grid),
        _check_dirac_norm(params, grid),
        _check_dirac_overlap(params, grid),
        _check_hermitian_gap(params, grid),
        _check_naive_pathology(grid),
    ]
    return [fam.report(grid.tolerance) for fam in families]
