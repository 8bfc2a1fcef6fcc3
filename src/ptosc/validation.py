"""Invariant suite: every library identity checked against the oracle paths.

check_all pits three independently implemented routes against each other
(closed forms, the states/trace machinery, and the raw-matrix brute force
in `oracle`) and verifies the structural identities (metric symmetries,
biorthonormality, positivity, unitarity, time-translation invariance) on a
configurable grid.  One OracleReport per invariant family; a family passes
only if every grid point met its own tolerance (1e-10 for eta <= 0.95,
1e-8 up to 0.999, tighter fixed tolerances where the identity is exact).
All grid systems are one stacked eigensystem, and each per-system family
makes one call over systems x times x flavour pairs.  Each pass makes one
oracle spectral solve of the grid systems, whose slices feed the oracle
families, and one trace call over the t0 axis of the grid's t0s and 0.0,
whose columns feed the trace families.  A family is a @_family(name)
generator of (errors, tolerance) pairs; its grid_size counts every element
yielded.  The random-draw families take their inputs from
_random_inputs, which depend on the grid's seed and n_random alone.
"""

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import oracle
from . import probabilities as prob
from . import states
from .errors import DomainError
from .inner import cpt_conjugate, cpt_inner, dirac_inner, inner, pt_conjugate, pt_inner
from .model import (
    EigenSystem,
    ModelParams,
    _cmul,
    _finite,
    _per_element,
    cprime_matrix,
    eigensystem,
    hermitian_eigenvalues,
    hermitian_mass_matrix,
    make_params,
    mass_matrix,
    parity_matrix,
    pt_eigenvalues,
    tolerance_for_eta,
)
# the families call the oracle's cores (one shared solve, and the roots alone);
# brute_force_probability stays imported because bench/tracing.py wraps it here
from .oracle import OracleReport, brute_force_probability  # noqa: F401

TWO_PI = 2.0 * math.pi
FLAVOURS = np.array([[1], [2]])
# i as a (2, 1, 1) column and j as a (1, 2, 1) row: one call gives the four
# pairs as a 2 x 2 grid, building each flavour's operators once
GRID_I, GRID_J = FLAVOURS[..., None], FLAVOURS.T[..., None]


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


def _worst(a: float, b: float) -> float:
    """max(a, b), but NaN if either is NaN (Python's max keeps a NaN only as
    its first argument)."""
    return a if a != a or a >= b else b


class _Family:
    """Accumulates worst error over a sweep with per-point tolerances; a NaN
    error makes the worst error NaN and fails the family."""

    def __init__(self, name: str):
        self.name = name
        self.max_err = 0.0
        self.max_tol = 0.0
        self.points = 0
        self.ok = True

    def add_all(self, errs: np.ndarray, tol) -> None:
        """Take in every element of an array of errors against tol: a float, met
        by the worst error alone (NaN and +inf fail it, as elementwise), or an
        array that broadcasts to errs' shape (hypot rounds like Python's abs)."""
        errs = np.asarray(errs)
        errs = np.hypot(errs.real, errs.imag) if np.iscomplexobj(errs) else np.abs(errs)
        worst = float(errs.max(initial=0.0))
        self.max_err = _worst(self.max_err, worst)
        if errs.size:  # each element of tol meets an error
            self.max_tol = max(self.max_tol, tol if isinstance(tol, float) else float(np.max(tol)))
        self.ok = self.ok and bool(worst <= tol if isinstance(tol, float) else (errs <= tol).all())
        self.points += errs.size

    def report(self, override: float | None) -> OracleReport:
        if override is not None:
            return OracleReport(self.name, self.max_err, float(override),
                                self.max_err <= override, self.points)
        return OracleReport(self.name, self.max_err, self.max_tol,
                            self.ok, self.points)


def _family(name: str):
    """Declare a check_all family: the decorated generator yields (errors,
    tolerance) pairs as _Family.add_all takes them, and a call runs it to the
    end and returns the filled _Family named name."""
    def declare(pairs):
        @functools.wraps(pairs)
        def check(*args) -> _Family:
            fam = _Family(name)
            for errors, tol in pairs(*args):
                fam.add_all(errors, tol)
            return fam
        return check
    return declare


def _systems(params: ModelParams, grid: OracleGrid) -> tuple[ModelParams, EigenSystem]:
    """Params and eigensystem stacks of each distinct eta < 1 of the grid and
    the reference (its masses and momentum), then of eta = 1e-8."""
    etas = []
    for eta in (*grid.etas, params.eta):
        if not (eta in etas or eta >= 1.0):
            etas.append(eta)
    eta = np.array([*etas, 1e-8])
    stack = make_params(params.m1_sq, params.m2_sq,
                        0.5 * eta * abs(params.m1_sq - params.m2_sq), params.p)
    return stack, eigensystem(stack)


def _state_tolerance(es: EigenSystem) -> np.ndarray:
    """1e-12 per system, or tolerance_for_eta above eta = 0.95."""
    return np.where(es.eta <= 0.95, 1e-12, tolerance_for_eta(es.eta))


def _random_params(rng: "np.random.Generator", n: int) -> tuple:
    """n random valid draws as (m1_sq, m2_sq, mu_sq, p) arrays.  Each draw
    takes five uniforms, as one draw at a time would: a (lo, hi) pair,
    redrawn while closer than 1e-3, the ordering, eta, p."""
    draws, stream, todo = [np.empty((0, 5))], np.empty(0), n
    while todo:
        stream = np.append(stream, rng.random(5 * todo - len(stream)))
        rows = stream.reshape(todo, 5)
        a, b = (0.2 + (5.0 - 0.2) * rows[:, :2]).T
        lo, hi = np.minimum(a, b), np.maximum(a, b)  # the pair sorted
        k = np.argmin(np.append(hi - lo >= 1e-3, False))  # first redraw
        draws.append(np.column_stack([lo, hi, rows[:, 2:]])[:k])
        stream, todo = stream[5 * k + 2:], todo - k
    lo, hi, order, eta, p = np.concatenate(draws).T
    heavy_first = order < 0.5
    return (np.where(heavy_first, hi, lo), np.where(heavy_first, lo, hi),
            0.5 * (0.99 * eta) * (hi - lo), 2.0 * p)


def _with_head(head: ModelParams, batch: tuple) -> ModelParams:
    """The head point, then the random batch, as one ModelParams."""
    return ModelParams(*(np.append(h, b) for h, b in
                         zip((head.m1_sq, head.m2_sq, head.mu_sq, head.p), batch)))


class _Draws(NamedTuple):
    """Every random input of check_all, each field an array or a tuple of arrays."""

    eigenvalues: tuple         # _random_params batches, n_random draws each
    trace_determinant: tuple
    hermitian_masses: tuple    # n_random // 10 draws
    sesquilinearity: tuple     # (n_random, 16) normals, (n_random,) etas
    cpt_positivity: tuple      # (n_random, 2) normals, (n_random,) etas
    cpt_dirac: np.ndarray      # (n_random, 2, 2) normals
    cprime_section: tuple      # three (max(1, n_random // 10), 2, 2) normal batches


def _uniform_95(words: list) -> np.ndarray:
    """rng.uniform(0.0, 0.95) from each raw word, bit for bit: random() is
    the top 53 bits over 2^53, and uniform(0.0, b) is b * random()."""
    return 0.95 * ((np.array(words, dtype=np.uint64) >> np.uint64(11)) * 2.0 ** -53)


def _random_inputs(seed: int, n_random: int) -> _Draws:
    """check_all's random inputs, which depend on (seed, n_random) alone,
    drawn from one np.random.default_rng(seed) stream in family order.  A
    uniform takes one raw word, so the per-draw loops keep each eta's word
    (bit_generator.random_raw) and scale them together afterwards."""
    rng = np.random.default_rng(seed)
    normal, word = rng.standard_normal, rng.bit_generator.random_raw
    eigenvalues, trace_determinant = (_random_params(rng, n_random) for _ in range(2))
    hermitian_masses = _random_params(rng, n_random // 10)

    # sesquilinearity, per draw: u, v, w as two real then two imaginary
    # parts, alpha, beta as (re, im), then eta
    z, words = np.empty((n_random, 16)), []
    for row in z:
        normal(out=row)  # rng.normal(size=16), drawn in place
        words.append(word())
    sesquilinearity = z, _uniform_95(words)

    # cpt_inner_positivity, per draw: a vector, redrawn while its norm is
    # below 1e-3, then eta.  No draw is redrawn if each has a component of
    # size 2e-3 or more; otherwise replay the stream with the norm test.
    start = rng.bit_generator.state
    vs, words = np.empty((n_random, 2)), []
    for v in vs:
        normal(out=v)
        words.append(word())
    if (np.abs(vs).max(axis=1, initial=0.0) < 2e-3).any():
        rng.bit_generator.state = start
        for k, v in enumerate(vs):
            normal(out=v)
            while math.sqrt(v.dot(v)) < 1e-3:  # np.linalg.norm's arithmetic
                normal(out=v)
            words[k] = word()
    cpt_positivity = vs, _uniform_95(words)

    return _Draws(eigenvalues, trace_determinant, hermitian_masses, sesquilinearity,
                  cpt_positivity, rng.normal(size=(n_random, 2, 2)),
                  tuple(rng.normal(size=(max(1, n_random // 10), 2, 2)) for _ in range(3)))


# --- model-core families -------------------------------------------------

def _eigenvalue_errors(lam_closed: tuple, matrices: np.ndarray) -> np.ndarray:
    """Relative gap between closed-form eigenvalues (larger first) and the
    oracle's, for each matrix of a stack."""
    lam_num = oracle._eigenvalues(matrices)[0].real  # the roots alone, no eigenvectors
    scale = np.maximum(abs(lam_closed[0]), 1.0)
    return np.maximum(abs(lam_closed[0] - lam_num.max(axis=-1)),
                      abs(lam_closed[1] - lam_num.min(axis=-1))) / scale


@_family("eigenvalues_vs_characteristic_polynomial")
def _check_eigenvalues(params: ModelParams, draws: tuple):
    batch = _with_head(params, draws)
    yield _eigenvalue_errors(pt_eigenvalues(batch), mass_matrix(batch)), 1e-10


def _norms(x: np.ndarray) -> np.ndarray:
    """np.linalg.norm of each vector of a real stack (its np.dot, then sqrt)."""
    return np.sqrt((x[..., None, :] @ x[..., :, None])[..., 0, 0])


@_family("eigenvector_residuals")
def _check_eigenvector_residuals(es: EigenSystem):
    m2 = es.oriented_mass_matrix()
    scale = _norms(m2.reshape(m2.shape[:-2] + (4,)))[..., None]
    vecs = np.stack([es.e_plus, es.e_minus], axis=-2)
    lams = np.stack([es.m_plus_sq, es.m_minus_sq], axis=-1)[..., None]
    residuals = (m2[..., None, :, :] @ vecs[..., None])[..., 0] - lams * vecs
    with np.errstate(invalid="ignore", divide="ignore"):  # a scale that underflowed: NaN fails
        relative = _norms(residuals) / scale
    yield relative, tolerance_for_eta(es.eta)[..., None]


@_family("trace_determinant_preservation")
def _check_trace_determinant(params: ModelParams, draws: tuple):
    p = _with_head(params, draws)
    lam = pt_eigenvalues(p)
    tr, det = p.m1_sq + p.m2_sq, p.m1_sq * p.m2_sq + p.mu_sq * p.mu_sq
    yield abs(lam[0] + lam[1] - tr) / abs(tr), 1e-12
    with np.errstate(invalid="ignore", divide="ignore"):  # a det that underflowed: NaN fails
        relative = abs(lam[0] * lam[1] - det) / abs(det)
    yield relative, 1e-12


def _entry_max(m: np.ndarray) -> np.ndarray:
    """Largest |entry| of each 2x2 matrix of a stack."""
    return np.abs(m).max(axis=(-2, -1))


@_family("parity_pseudo_hermiticity")
def _check_parity_relation(ps: ModelParams):
    par = parity_matrix()
    m2 = mass_matrix(ps)
    yield _entry_max(par @ m2 @ par - m2.conj().swapaxes(-1, -2)), 1e-14
    yield np.abs(par @ par - np.eye(2)).max(), 0.0


@_family("cprime_invariance")
def _check_cprime_relations(es: EigenSystem):
    par = parity_matrix()
    es = es[es.eta <= 0.99]  # conditioning of C' degrades like (1 - eta^2)^(-1/2)
    cp = cprime_matrix(es.eta)
    cp_t, m2 = cp.swapaxes(-1, -2), es.oriented_mass_matrix()
    yield _entry_max(cp_t @ m2 @ cp_t - m2), 1e-10
    yield _entry_max(cp @ cp - np.eye(2)), 1e-12
    yield _entry_max((cp @ par).swapaxes(-1, -2) - cp @ par), 0.0
    for vec, sign in ((es.e_plus, 1.0), (es.e_minus, -1.0)):
        reflected = (cp_t @ vec[..., None])[..., 0]
        yield np.abs(reflected - sign * vec).max(axis=-1), 1e-12


@_family("theta_parameterisation")
def _check_theta(es: EigenSystem):
    yield _per_element(math.tanh, 2.0 * es.theta) - es.eta, 1e-12
    yield es.cosh_theta - _per_element(math.cosh, es.theta), 1e-12
    yield es.sinh_theta - _per_element(math.sinh, es.theta), 1e-12
    yield es.cosh_theta ** 2 - es.sinh_theta ** 2 - 1.0, 1e-12
    mixed = es[es.eta > 0.0]
    yield mixed.n_factor * mixed.eta - mixed.cosh_theta, 1e-12


@_family("hermitian_limit_eigenvectors")
def _check_hermitian_limit(es: EigenSystem):
    yield np.abs(es.e_plus - np.array([1.0, 0.0])).max(), 1e-6
    yield np.abs(es.e_minus - np.array([0.0, 1.0])).max(), 1e-6


# --- inner-product families ----------------------------------------------

@_family("sesquilinearity")
def _check_sesquilinearity(draws: tuple):
    z, eta = draws
    u, v, w = (z[:, k:k + 2] + 1j * z[:, k + 2:k + 4] for k in (0, 4, 8))
    alpha, beta = z[:, 12:].view(complex).T
    for bra in (pt_conjugate(u), cpt_conjugate(eta, u), u.conj()):
        lhs = inner(bra, alpha[:, None] * v + beta[:, None] * w)
        # Python-rounded products on the right keep reports equal to a per-draw loop
        yield lhs - (_cmul(alpha, inner(bra, v)) + _cmul(beta, inner(bra, w))), 1e-12


@_family("cpt_inner_positivity")
def _check_cpt_positivity(draws: tuple):
    vs, etas = draws
    values = cpt_inner(etas, vs, vs)
    yield values.imag, 1e-12
    yield np.maximum(0.0, -values.real), 0.0  # strictly positive


@_family("pt_and_cpt_eigenvector_norms")
def _check_pt_norms(es: EigenSystem):
    vecs = np.stack([es.e_plus, es.e_minus], axis=-2)
    bras, kets = vecs[..., :, None, :], vecs[..., None, :, :]
    pt = pt_inner(bras, kets)  # [..., a, b] = <e_a, e_b>
    cpt = cpt_inner(np.asarray(es.eta)[..., None, None], bras, kets)
    yield np.stack([pt[..., 0, 0] - 1.0, pt[..., 1, 1] + 1.0, pt[..., 0, 1],
                    cpt[..., 0, 0] - 1.0, cpt[..., 1, 1] - 1.0, cpt[..., 0, 1]], axis=-1), 1e-12


@_family("cpt_matches_dirac_at_zero_mixing")
def _check_cpt_dirac_consistency(normals: np.ndarray):
    v, w = normals.transpose(1, 0, 2)
    yield cpt_inner(0.0, v, w) - dirac_inner(v, w), 1e-14


# --- states families ------------------------------------------------------
# per_time is the stack as es[:, None, None], and kets the flavour kets at
# every system, flavour and time, both built once by check_all

def _overlaps(bras: np.ndarray, kets: np.ndarray) -> np.ndarray:
    """inner(bra_i(t), ket_j(t)), shape (systems, 2, 2, times)."""
    return inner(bras[:, :, None], kets[:, None, :])


def _modulus(z: np.ndarray) -> np.ndarray:
    """abs() of each element as Python rounds it (np.abs of a complex array need not)."""
    return np.hypot(z.real, z.imag)


@_family("tilde_biorthonormality")
def _check_biorthonormality(times: np.ndarray, per_time: EigenSystem, kets: np.ndarray):
    values = _overlaps(states.tilde_bra(FLAVOURS, times, per_time), kets)
    yield values - np.eye(2)[..., None], 1e-12


@_family("mixed_basis_orthonormality")
def _check_mixed_basis(times: np.ndarray, per_time: EigenSystem):
    kets, bras = states.mixed_basis_pair(FLAVOURS, times, per_time)
    yield _overlaps(bras, kets) - np.eye(2)[..., None], 1e-12


@_family("cpt_basis_nonorthogonality")
def _check_cpt_nonorthogonality(times: np.ndarray, per_time: EigenSystem,
                                per_pair: EigenSystem, kets: np.ndarray):
    values = _overlaps(states.cpt_bra(FLAVOURS, times, per_time), kets)
    want = np.where(np.eye(2, dtype=bool)[..., None], per_pair.cosh_two_theta,
                    per_pair.sinh_two_theta)
    yield values - want, _state_tolerance(per_pair)


@_family("mode_equation_of_motion")
def _check_mode_equation(es: EigenSystem, times: np.ndarray):
    h = 1e-4
    es, stencil = es[:, None], np.stack([times + h, times, times - h])[:, None]
    for branch in ("plus", "minus"):
        omega_sq = es.omega(branch) ** 2
        ahead, here, behind = states.xi(branch, stencil, es)  # exp is elementwise: same bits
        # divide each part, as Python's complex / float does (numpy's
        # complex division multiplies by a reciprocal)
        second = ((ahead - 2.0 * here + behind).view(float) / (h * h)).view(complex)
        yield _modulus(second + omega_sq * here) / omega_sq, 1e-6


@_family("cprime_section_identity")
def _check_cprime_section_identity(draws: tuple):
    for eta, normals in zip((0.1, 0.5, 0.9), draws):
        cp_t = cprime_matrix(eta).T
        re, im = normals.transpose(1, 0, 2)
        v = re + 1j * im
        lhs = cpt_conjugate(eta, (cp_t @ v[..., None])[..., 0])
        yield np.abs(lhs - pt_conjugate(v)).max(axis=-1), 1e-12


# --- probability families -------------------------------------------------

def _phases(grid: OracleGrid) -> np.ndarray:
    return np.linspace(0.0, TWO_PI, grid.n_phases)


def _dts(grid: OracleGrid, es: EigenSystem) -> np.ndarray:  # phase = delta_omega dt / 2
    """Time separations of the phase grid, shape (systems, phases)."""
    return 2.0 * _phases(grid) / es.delta_omega[:, None]


def _as_pairs(grid: np.ndarray) -> np.ndarray:
    """A (systems, 2, 2, ...) flavour grid as (systems, 4, ...), the pairs
    (1, 1), (1, 2), (2, 1), (2, 2) in order."""
    return grid.reshape(grid.shape[:1] + (4,) + grid.shape[3:])


def _closed(dts: np.ndarray, per_pair: EigenSystem) -> np.ndarray:
    """Closed-form P(i -> j) of the four pairs, shape (systems, 4, phases)."""
    return _as_pairs(prob.probability_closed_form(GRID_I, GRID_J, dts[:, None, None],
                                                  per_pair).value)


@_family("trace_vs_closed_form")
def _check_trace_vs_closed(es: EigenSystem, traces, closed):
    yield traces - closed[..., None], tolerance_for_eta(es.eta)[:, None, None, None]


@_family("brute_force_vs_closed_form")
def _check_brute_force(spectra: "oracle._SpectralData", es: EigenSystem, t0: float, dts, closed):
    brute = _as_pairs(oracle._probability(spectra[:, None, None, None], GRID_I, GRID_J, t0,
                                          t0 + dts[:, None, None]))
    yield brute - closed, tolerance_for_eta(es.eta)[:, None, None]


@_family("unitarity")
def _check_unitarity(es: EigenSystem, closed, at_zero):
    yield closed[:, 0] + closed[:, 1] - 1.0, 1e-12
    yield at_zero[:, 0] + at_zero[:, 1] - 1.0, tolerance_for_eta(es.eta)[:, None]


@_family("probability_symmetry")
def _check_symmetry(es: EigenSystem, closed, at_zero):
    tol = _state_tolerance(es)[:, None]
    yield closed[:, 1] - closed[:, 2], 0.0
    yield at_zero[:, 1] - at_zero[:, 2], tol  # 1 -> 2 against 2 -> 1
    yield at_zero[:, 0] - at_zero[:, 3], tol  # 1 -> 1 against 2 -> 2


@_family("time_translation_invariance")
def _check_time_translation(es: EigenSystem, traces, shifted):
    """P(1 -> 2) from each grid t0 (traces[:, 1]) and from t0 = 100 (shifted)."""
    values = np.concatenate([traces[:, 1], shifted], axis=-1)
    yield values.max(axis=-1) - values.min(axis=-1), tolerance_for_eta(es.eta)[:, None]


@_family("density_projection_operators")
def _check_operators(es: EigenSystem, t0s: np.ndarray, per_time: EigenSystem):
    tol = _state_tolerance(es)[:, None, None]
    # projection_operator is density_operator at equal times: pi is rho's stack
    rho = pi = prob.density_operator(FLAVOURS, t0s, per_time)
    yield rho[..., 0, 0] + rho[..., 1, 1] - 1.0, tol
    yield _entry_max(rho @ rho - rho), tol
    yield _entry_max(pi - rho), 0.0  # cannot fail; dropping it would change grid_size


@_family("dirac_norm_closed_form")
def _check_dirac_norm(es: EigenSystem, times: np.ndarray, per_time: EigenSystem,
                      kets: np.ndarray, oracle_kets: np.ndarray):
    tol = _state_tolerance(es)[:, None, None]
    closed = prob.dirac_norm(1, times, per_time)  # the same for both flavours
    yield inner(kets.conj(), kets) - closed, tol  # <fi| is dirac_bra, |fi>^dag
    yield oracle._dirac_overlap(oracle_kets, oracle_kets).real - closed, tol


@_family("dirac_overlap_closed_form")
def _check_dirac_overlap(es: EigenSystem, times: np.ndarray, per_time: EigenSystem,
                         kets: np.ndarray, oracle_kets: np.ndarray):
    tol = _state_tolerance(es)[:, None]
    closed = prob.dirac_overlap(times, es[:, None])
    contracted = _overlaps(states.dirac_bra(FLAVOURS, times, per_time), kets)
    yield contracted[:, 0, 1] - closed, tol
    yield contracted[:, 1, 0] - closed.conj(), tol
    brute = oracle._dirac_overlap(oracle_kets[:, 0], oracle_kets[:, 1])
    # the heavy-first relabelling of a swapped system conjugates the overlap
    # and negates it; the closed form carries the conjugation alone
    yield brute - np.where(es.swapped[:, None], -closed, closed), tol


@_family("hermitian_gap")
def _check_hermitian_gap(grid: OracleGrid):
    phases = _phases(grid)
    sin_sq = np.array([math.sin(phase) ** 2 for phase in phases.tolist()])
    kept = [eta for eta in grid.etas if eta <= 1.0]
    etas = np.array(kept, dtype=float)[:, None]
    eta_4 = np.array([eta ** 4 for eta in kept], dtype=float)[:, None]  # Python's pow per eta
    gap = (prob.transition_probability(etas, phases)
           - prob.hermitian_transition_probability(etas, phases))
    yield gap - eta_4 / (1.0 + etas * etas) * sin_sq, 1e-12
    yield np.maximum(0.0, gap - eta_4), 0.0


@_family("naive_continuation_pathology")
def _check_naive_pathology(grid: OracleGrid):
    """One point per grid eta below 1: |naive| stays <= 1 up to 1/sqrt(2) and
    exceeds 1 somewhere on the phase grid (or at pi/2) beyond it."""
    phases = np.append(_phases(grid), 0.5 * math.pi)
    etas = np.array([eta for eta in grid.etas if eta < 1.0], dtype=float)
    worst = np.abs(prob.naive_continuation_value(etas[:, None], phases)).max(axis=1)
    yield np.where(etas <= 1.0 / math.sqrt(2.0), np.maximum(0.0, worst - 1.0),
                   np.where(worst > 1.0, 0.0, 1.0)), 0.0


@_family("hermitian_eigenvalues_vs_oracle")
def _check_hermitian_masses(draws: tuple):
    p = ModelParams(*draws)
    yield _eigenvalue_errors(hermitian_eigenvalues(p), hermitian_mass_matrix(p)), 1e-10


def _validate_grid(grid: OracleGrid) -> None:
    """DomainError naming the first field of grid that no family can run on."""
    for name in ("times", "t0s"):
        _finite(f"OracleGrid.{name}", np.asarray(getattr(grid, name), dtype=float))
    if not np.size(grid.t0s):
        raise DomainError("OracleGrid.t0s must hold at least one time")
    for name in ("n_phases", "n_random"):
        if getattr(grid, name) < 0:
            raise DomainError(f"OracleGrid.{name} must be >= 0, got {getattr(grid, name)!r}")


def check_all(params: ModelParams, grid: OracleGrid | None = None) -> list[OracleReport]:
    """Run every invariant family; check failures are reported, never raised.

    The reference parameters must sit in the unbroken regime (eta < 1);
    out-of-domain inputs, and a grid with no t0, a negative count or a
    non-finite time, raise up front rather than mid-suite.
    """
    eigensystem(params)  # validates eta < 1 - EXCEPTIONAL_POINT_BAND
    grid = grid or OracleGrid()
    _validate_grid(grid)
    draws = _random_inputs(grid.seed, grid.n_random)
    ps, es = _systems(params, grid)
    limit, ps, es = es[-1], ps[:-1], es[:-1]
    times = np.array(grid.times)
    per_time, per_pair = es[:, None, None], es[:, None, None, None]
    kets = states.flavour_ket(FLAVOURS, times, per_time)
    spectra = oracle._spectral_data(ps)
    oracle_kets = oracle._ket(spectra[:, None, None], FLAVOURS, times)
    dts = _dts(grid, es)
    closed = _closed(dts, per_pair)
    # one trace call from every grid t0 and 0.0, each once, shape (systems,
    # 4 pairs, phases, t0s); the grid's t0s are its columns in grid order,
    # and 0.0 the column of unitarity and probability_symmetry
    t0_axis = sorted({*grid.t0s, 0.0})
    t0s = np.array(t0_axis)
    traces = _as_pairs(prob.trace_probabilities(GRID_I[..., None], GRID_J[..., None], t0s,
                                                t0s + dts[:, None, None, :, None],
                                                es[:, None, None, None, None]))
    at_zero = traces[..., t0_axis.index(0.0)]
    on_grid = traces[..., [t0_axis.index(t0) for t0 in grid.t0s]]
    shifted = prob.trace_probabilities(1, 2, 100.0, 100.0 + dts[..., None], per_time)
    families = [
        _check_eigenvalues(params, draws.eigenvalues),
        _check_eigenvector_residuals(es),
        _check_trace_determinant(params, draws.trace_determinant),
        _check_parity_relation(ps),
        _check_cprime_relations(es),
        _check_theta(es),
        _check_hermitian_limit(limit),
        _check_hermitian_masses(draws.hermitian_masses),
        _check_sesquilinearity(draws.sesquilinearity),
        _check_cpt_positivity(draws.cpt_positivity),
        _check_pt_norms(es),
        _check_cpt_dirac_consistency(draws.cpt_dirac),
        _check_biorthonormality(times, per_time, kets),
        _check_mixed_basis(times, per_time),
        _check_cpt_nonorthogonality(times, per_time, per_pair, kets),
        _check_mode_equation(es, times),
        _check_cprime_section_identity(draws.cprime_section),
        _check_trace_vs_closed(es, on_grid, closed),
        _check_brute_force(spectra, es, grid.t0s[0], dts, closed),
        _check_unitarity(es, closed, at_zero),
        _check_symmetry(es, closed, at_zero),
        _check_time_translation(es, on_grid, shifted),
        _check_operators(es, np.array(grid.t0s), per_time),
        _check_dirac_norm(es, times, per_time, kets, oracle_kets),
        _check_dirac_overlap(es, times, per_time, kets, oracle_kets),
        _check_hermitian_gap(grid),
        _check_naive_pathology(grid),
    ]
    return [fam.report(grid.tolerance) for fam in families]
