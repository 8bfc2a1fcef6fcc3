"""Two-state mass mixing with a PT-symmetric non-Hermitian coupling.

The squared mass matrix is

    M^2 = [[m1^2,   mu^2],
           [-mu^2,  m2^2]]

which is not Hermitian, but satisfies P M^2 P = (M^2)^dag with the parity
matrix P = diag(1, -1).  Its eigenvalues

    m_pm^2 = (m1^2 + m2^2)/2 +- |m1^2 - m2^2| sqrt(1 - eta^2) / 2

stay real as long as the dimensionless mixing strength

    eta = 2 mu^2 / |m1^2 - m2^2|

does not exceed 1.  At eta = 1 the two eigenvalues merge and the matrix
becomes defective (an exceptional point); for eta > 1 the eigenvalues form
a complex-conjugate pair and every construction here refuses the input.

The mixing angle is theta = arctanh(eta) / 2.  Eigenvector components are
evaluated through cosh(theta) = sqrt((1+s)/(2s)) and
sinh(theta) = eta / sqrt(2s(1+s)) with s = sqrt(1 - eta^2); these forms are
algebraically identical to the textbook N-normalised eigenvectors but stay
cancellation-free in the Hermitian limit eta -> 0, where N itself diverges.

The Hermitian comparison model replaces -mu^2 by +mu^2 in the lower-left
entry.  Its eigenvalues never merge, and the lower one crosses zero at
eta^2 = (m1^2 + m2^2)^2 / (m1^2 - m2^2)^2 - 1 (a tachyonic instability).

The eigenvector formulas assume the heavier diagonal entry comes first.
For m1^2 < m2^2 the eigensystem is built in the heavy-first orientation and
``swapped`` records that flavour indices 1 and 2 must be exchanged; all
observable probabilities are symmetric under that relabelling.

The matrix and eigenvalue functions and eigensystem also take ModelParams
with array fields (broadcast to one shape when it is built), each element
rounded as one point is; one point is the shape-() batch and returns the
same types as always.  es[k] or es[:, None] picks or reshapes the systems of a stack.

Each route's admitted domain is declared here once: the exceptional-point
bounds, tolerance_for_eta and the time-resolution rule of the time routes.
"""

import math
import sys
from dataclasses import dataclass, fields
from operator import attrgetter

import numpy as np

from .errors import BrokenPTPhase, DomainError, ExceptionalPoint

# Near eta = 1 the eigenvector normalisation grows like (1 - eta^2)^(-1/2):
# the closed forms, eigensystem and C' refuse eta in this band (1 - eta < 1e-12).
EXCEPTIONAL_POINT_BAND = 1e-12
_ORACLE_EP_BOUND = 1e-8  # the oracle admits eps / (1 - eta^2) < this (1 - eta > 1.1e-8)
# Measured in units of eps / (1 - eta^2), the trace route's values are off by up
# to 2.9 and their imaginary parts reach 1.04; it admits eta while this many
# units are within tolerance_for_eta (1 - eta >= 4.4e-8).
_TRACE_EP_FACTOR = 4.0

# The largest value whose square is finite (the next float up squares to inf).
_SQUARE_LIMIT = math.sqrt(sys.float_info.max)

_PARITY_SIGNS = np.array([1.0, -1.0])  # diag(P): rows times it are P applied exactly
_PARAM_VALUES = attrgetter("m1_sq", "m2_sq", "mu_sq", "p")


@dataclass(frozen=True)
class ModelParams:
    """Validated inputs: two diagonal squared masses, the mixing scale
    squared and the momentum magnitude (natural units, consistent but
    arbitrary).  make_params builds one; array fields make a batch."""

    m1_sq: float
    m2_sq: float
    mu_sq: float
    p: float = 0.0

    @property
    def eta(self) -> float:
        """Dimensionless mixing strength 2 mu^2 / |m1^2 - m2^2|."""
        _check_diagonal(self.m1_sq, self.m2_sq)
        return 2.0 * self.mu_sq / abs(self.m1_sq - self.m2_sq)

    def __post_init__(self) -> None:
        """Broadcast a batch's fields to one shape, once (a point makes no numpy call)."""
        values = _PARAM_VALUES(self)  # not vars(self), which slows every later attribute read
        if np.ndarray in map(type, values) and len({*map(np.shape, values)}) > 1:
            for f, value in zip(fields(self), np.broadcast_arrays(*values)):
                object.__setattr__(self, f.name, value)

    def __getitem__(self, key) -> "ModelParams":
        """The points of a batch at ``key`` (index, slice, mask or None)."""
        return ModelParams(*(_unbox(np.asarray(v)[key]) for v in _PARAM_VALUES(self)))


def _unbox(x):
    """A shape-() result as a single point's Python number (float() beats np.float64.item())."""
    return float(x) if isinstance(x, float) else x.item() if getattr(x, "ndim", None) == 0 else x


def _per_element(fn, x):
    """fn from math (numpy's need not round like it) at each element of an
    array, so each equals its single-point value; a float gives a float."""
    if isinstance(x, float):
        return fn(x)
    x = np.asarray(x, dtype=float)
    return np.fromiter(map(fn, x.flat), float, x.size).reshape(x.shape)


def _any(mask) -> bool:
    """True if any element of a comparison holds (a bool costs no reduction)."""
    return bool(mask) if isinstance(mask, (bool, np.bool_)) else bool(mask.any())


def _all(mask) -> bool:
    """True if every element of a comparison holds (a bool costs no reduction)."""
    return bool(mask) if isinstance(mask, (bool, np.bool_)) else bool(mask.all())


def _finite(name: str, x) -> None:
    """DomainError naming ``name`` and its first infinite or NaN element (a
    float is checked with no numpy call)."""
    if isinstance(x, float) and math.isfinite(x):
        return
    finite = np.isfinite(x)
    if not _all(finite):
        bad = float(np.asarray(x)[~finite].flat[0])
        raise DomainError(f"{name} must be finite, got {bad!r}")


def _check_diagonal(m1_sq, m2_sq) -> None:
    """DomainError if any point of a batch has m1_sq == m2_sq (eta undefined)."""
    if _any(m1_sq == m2_sq):
        raise DomainError("m1_sq == m2_sq: eta is undefined for a degenerate diagonal")


def _flavour_one(i):
    """Where flavour label(s) i are 1: a bool for an int label (no numpy
    call), else a bool array; DomainError unless every label is 1 or 2."""
    if isinstance(i, int):
        one, valid = i == 1, i in (1, 2)
    else:
        index = np.asarray(i)
        one = index == 1
        valid = (one | (index == 2)).all()
    if not valid:
        raise DomainError(f"flavour index must be 1 or 2, got {i!r}")
    return one


def _select(mask, a, b):
    """a where mask holds, else b; np.where, or plain Python for a bool mask."""
    return (a if mask else b) if isinstance(mask, bool) else np.where(mask, a, b)


def tolerance_for_eta(eta: float) -> float:
    """Comparison tolerance schedule for eigenvector-based checks (per element)."""
    return _select(eta <= 0.95, 1e-10, 1e-8)


def _trace_rounding(eta):
    """The trace route's rounding bound _TRACE_EP_FACTOR eps / (1 - eta^2) per
    element; ExceptionalPoint where it exceeds tolerance_for_eta(eta)."""
    rounding = _TRACE_EP_FACTOR * sys.float_info.epsilon / ((1.0 - eta) * (1.0 + eta))
    if not _all(rounding <= tolerance_for_eta(eta)):
        worst = np.max(eta)
        raise ExceptionalPoint(
            f"eta = {worst:.17g} is too close to the exceptional point for the trace route: "
            f"{_TRACE_EP_FACTOR:g} eps / (1 - eta^2) > {tolerance_for_eta(worst):.0e}")
    return rounding


def _check_time_resolution(route: str, rate, eta, *times) -> None:
    """Refuse |t| so large that one ulp of t moves the phase rate * t by more
    than tolerance_for_eta(eta) (t0 + dt rounds dt away), and non-finite t."""
    tol = tolerance_for_eta(eta)
    for t in times:
        _finite("time", t)
        t_abs = abs(t)
        bound = rate * (math.ulp(t_abs) if isinstance(t_abs, float) else np.spacing(t_abs))
        if not _all(bound <= tol):
            raise DomainError(
                f"|t| = {np.max(t_abs):.6g} resolves the mode phases only to "
                f"{np.max(bound):.3e} > {np.min(tol):.0e}: the {route} needs smaller times")


def make_params(m1_sq: float, m2_sq: float, mu_sq: float, p: float = 0.0) -> ModelParams:
    """Validate and package the model inputs; arrays broadcast to a batch.

    Raises DomainError if any element is out of domain: a non-positive
    diagonal squared mass, a negative mu^2 or momentum, a degenerate
    diagonal, a non-finite value or a momentum whose square overflows.
    eta > 1 is accepted here (the Hermitian comparison model remains
    meaningful); it is the eigensystem construction that rejects the
    broken-PT regime.
    """
    fields = (m1_sq, m2_sq, mu_sq, p)
    if all(isinstance(v, (int, float)) for v in fields):  # one point: no numpy call
        fields = tuple(map(float, fields))
    else:
        fields = tuple(_unbox(v) for v in np.broadcast_arrays(
            *(np.asarray(v, dtype=float) for v in fields)))
    for name, value in zip(("m1_sq", "m2_sq", "mu_sq", "p"), fields):
        _finite(name, value)
    m1_sq, m2_sq, mu_sq, p = fields
    if _any(m1_sq <= 0.0) or _any(m2_sq <= 0.0):
        raise DomainError(f"diagonal squared masses must be positive, got {m1_sq}, {m2_sq}")
    if _any(mu_sq < 0.0):
        raise DomainError(f"mu_sq must be non-negative, got {mu_sq}")
    if _any(p < 0.0):
        raise DomainError(f"momentum magnitude must be non-negative, got {p}")
    if _any(p > _SQUARE_LIMIT):
        raise DomainError(f"momentum magnitude {np.max(p):.6g} is too large: p^2 overflows")
    _check_diagonal(m1_sq, m2_sq)
    return ModelParams(*fields)


def params_from_eta(eta: float, sum_sq: float = 3.0, ratio: float = 1.0 / 3.0,
                    p: float = 0.0) -> ModelParams:
    """Build parameters from eta (or an eta array, giving a batch), a total
    squared-mass scale and the asymmetry ratio (m1^2 - m2^2) / (m1^2 + m2^2).

    The defaults give (m1^2, m2^2) = (2, 1), so mu^2 = eta / 2.
    """
    if not 0.0 < ratio < 1.0:
        raise DomainError(f"ratio must lie in (0, 1), got {ratio}")
    if sum_sq <= 0.0:
        raise DomainError(f"sum of squared masses must be positive, got {sum_sq}")
    if _any(eta < 0.0):
        raise DomainError(f"eta must be non-negative, got {eta}")
    m1_sq = 0.5 * sum_sq * (1.0 + ratio)
    m2_sq = 0.5 * sum_sq * (1.0 - ratio)
    with np.errstate(over="ignore"):  # an array's overflow is refused below, unwarned
        mu_sq = 0.5 * eta * sum_sq * ratio
    if _any(mu_sq > sys.float_info.max):
        raise DomainError(f"eta = {np.max(eta):.6g} is too large: "
                          "mu^2 = eta * sum_sq * ratio / 2 overflows")
    return make_params(m1_sq, m2_sq, mu_sq, p)


def _dot(v: np.ndarray, m: np.ndarray) -> np.ndarray:
    """v @ m for a stack of 2-vectors, one (1, 2) @ (2, 2) product each: that
    rounds like a single vector's product; one (N, 2) @ (2, 2) product does not."""
    return (v[..., None, :] @ m)[..., 0, :]


def _cmul(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x * y rounded as a Python or numpy-scalar complex product; numpy's
    array product may fuse the multiply-adds and round apart."""
    out = np.empty(np.broadcast_shapes(x.shape, y.shape), dtype=complex)
    out.real, out.imag = x.real * y.real - x.imag * y.imag, x.real * y.imag + x.imag * y.real
    return out


def _check_eta(eta, broken: str | None = None, exceptional: bool = False) -> None:
    """Domain guard on every element of eta: non-negative; at most 1 unless
    ``broken`` is None (else it says why the formula fails past 1); outside
    the exceptional-point band if ``exceptional``; eta^2 finite (not NaN)."""
    at_ep = 1.0 - EXCEPTIONAL_POINT_BAND if exceptional else math.inf
    upper = _SQUARE_LIMIT if broken is None else 1.0
    if not _any((eta < 0.0) | (eta > upper) | (eta >= at_ep) | (eta != eta)):
        return
    if _any(eta < 0.0):
        raise DomainError(f"eta must be non-negative, got {np.min(eta)}")
    if broken is not None and _any(eta > 1.0):
        raise BrokenPTPhase(f"eta = {np.max(eta):.6g} > 1: {broken}")
    if exceptional and _any(eta >= at_ep):  # (else at_ep is inf, which inf would match)
        raise ExceptionalPoint(f"eta = {np.max(eta):.17g}: 1/(1 - eta^2) diverges")
    raise DomainError(f"eta = {np.max(eta):.6g}: eta^2 is not a finite number")


def _matrix(a, b, c, d) -> np.ndarray:
    """[[a, b], [c, d]], batched over the entries' common shape (C-contiguous,
    so each matrix's products take one matrix's path)."""
    m = np.array([[a, b], [c, d]], dtype=float)
    return np.ascontiguousarray(m.transpose(*range(2, m.ndim), 0, 1))


def mass_matrix(params: ModelParams) -> np.ndarray:
    """The non-Hermitian squared mass matrix [[m1^2, mu^2], [-mu^2, m2^2]]."""
    return _matrix(params.m1_sq, params.mu_sq, -params.mu_sq, params.m2_sq)


def hermitian_mass_matrix(params: ModelParams) -> np.ndarray:
    """The Hermitian comparison matrix [[m1^2, mu^2], [mu^2, m2^2]]."""
    return _matrix(params.m1_sq, params.mu_sq, params.mu_sq, params.m2_sq)


def parity_matrix() -> np.ndarray:
    """P = diag(1, -1); P^2 = 1 and P M^2 P = (M^2)^dag."""
    return np.diag(_PARITY_SIGNS)


def cprime_matrix(eta) -> np.ndarray:
    """The C' symmetry matrix [[1, -eta], [eta, -1]] / sqrt(1 - eta^2), for
    each element of an eta array too.

    Satisfies (C')^2 = 1, (C' P)^T = C' P, and C'^T M^2 C'^T = M^2 for the
    heavy-first orientation of the mass matrix.  The operator acting on
    kets is C'^T, with C'^T e_+ = e_+ and C'^T e_- = -e_-.
    """
    _check_eta(eta, broken="complex eigenvalues, C' undefined", exceptional=True)
    return _cprime_matrix(eta, np.sqrt((1.0 - eta) * (1.0 + eta)))


def _cprime_matrix(eta, s) -> np.ndarray:
    """cprime_matrix without its domain guards, for an eta already validated
    and its s = sqrt(1 - eta^2)."""
    return _matrix(1.0 / s, -eta / s, eta / s, -1.0 / s)


def pt_eigenvalues(params: ModelParams) -> tuple[float, float]:
    """Squared-mass eigenvalues (m_plus_sq, m_minus_sq), m_plus_sq >= m_minus_sq.

    Valid for 0 <= eta <= 1; at eta = 1 both equal (m1^2 + m2^2) / 2.
    """
    eta = params.eta
    _check_eta(eta, broken="the squared-mass eigenvalues are complex")
    sigma = 0.5 * (params.m1_sq + params.m2_sq)
    half_split = 0.5 * abs(params.m1_sq - params.m2_sq) * np.sqrt((1.0 - eta) * (1.0 + eta))
    return _unbox(sigma + half_split), _unbox(sigma - half_split)


def hermitian_eigenvalues(params: ModelParams) -> tuple[float, float]:
    """Eigenvalues of the Hermitian comparison matrix, larger first.

    Defined for every eta >= 0; the lower one goes negative once
    eta^2 > (m1^2 + m2^2)^2 / (m1^2 - m2^2)^2 - 1 and is returned as-is.
    """
    sigma = 0.5 * (params.m1_sq + params.m2_sq)
    diff = params.m1_sq - params.m2_sq
    half_split = 0.5 * np.sqrt(diff * diff + 4.0 * params.mu_sq * params.mu_sq)
    return _unbox(sigma + half_split), _unbox(sigma - half_split)


@dataclass(frozen=True)
class EigenSystem:
    """Eigen-decomposition of the mass matrix in the unbroken regime.

    e_plus / e_minus are the PT-normalised eigenvectors of the heavy-first
    oriented matrix, paired with m_plus_sq / m_minus_sq:

        e_plus  = [cosh(theta), -sinh(theta)]   (PT norm +1)
        e_minus = [-sinh(theta), cosh(theta)]   (PT norm -1)

    ``swapped`` is True when the input had m1_sq < m2_sq, in which case
    flavour index 1 refers to the second heavy-first axis (and vice versa).
    n_factor is the textbook eigenvector normalisation, +inf at eta = 0.
    sech_two_theta = sqrt(1 - eta^2), and mixed_basis_norm, its square root,
    scales each mixed-basis ket and bra once.  cprime is C' (C'^T v of a ket
    v is the component row v^T C'), and cpt_metric is C' P, the
    positive-definite metric contracted by the C'PT bras.  A batch of params
    gives array fields, each with the batch shape first (e_plus / e_minus:
    + (2,), cprime / cpt_metric: + (2, 2)).
    """

    params: ModelParams
    eta: float
    theta: float
    cosh_theta: float
    sinh_theta: float
    n_factor: float
    m_plus_sq: float
    m_minus_sq: float
    omega_plus: float
    omega_minus: float
    delta_omega: float
    sech_two_theta: float
    mixed_basis_norm: float
    e_plus: np.ndarray
    e_minus: np.ndarray
    cprime: np.ndarray
    cpt_metric: np.ndarray
    swapped: bool

    def __getitem__(self, key) -> "EigenSystem":
        """The systems at ``key`` (index, slice, mask, None, ...) of a stack.
        Each field is indexed by the key and keeps whole the axes it has
        beyond eta's, so a slice equals a fresh build of its systems."""
        key = key if isinstance(key, tuple) else (key,)
        keys = (key, key + (slice(None),), key + (slice(None), slice(None)))
        return EigenSystem(self.params[key], *(
            _unbox((x if isinstance(x, np.ndarray) else np.asarray(x))[keys[axes]])
            for x, (_, axes) in zip(_SLICED_VALUES(self), _SLICED)))

    @property
    def cosh_two_theta(self) -> float:
        return 1.0 / self.sech_two_theta

    @property
    def sinh_two_theta(self) -> float:
        return self.eta / self.sech_two_theta

    def _heavy_first_one(self, i):
        """Where label(s) i map to heavy-first flavour 1 (a bool for one of each)."""
        return _flavour_one(i) != self.swapped

    def omega(self, branch: str) -> float:
        if branch == "plus":
            return self.omega_plus
        if branch == "minus":
            return self.omega_minus
        raise DomainError(f"branch must be 'plus' or 'minus', got {branch!r}")

    def oriented_mass_matrix(self) -> np.ndarray:
        """The heavy-first squared mass matrix that e_plus / e_minus
        diagonalise (equals mass_matrix(params) unless swapped)."""
        p = self.params
        return _matrix(np.maximum(p.m1_sq, p.m2_sq), p.mu_sq, -p.mu_sq,
                       np.minimum(p.m1_sq, p.m2_sq))


_SLICED = tuple((f.name, {"e_plus": 1, "e_minus": 1, "cprime": 2, "cpt_metric": 2}.get(f.name, 0))
                for f in fields(EigenSystem)[1:])  # each field after params, its axes beyond eta's
_SLICED_VALUES = attrgetter(*(name for name, _ in _SLICED))  # all of them in one call


def eigensystem(params: ModelParams) -> EigenSystem:
    """Solve the mass matrix: eigenvalues, PT-normalised eigenvectors,
    mixing angle and mode frequencies, for one point or a batch.

    Raises BrokenPTPhase for eta > 1, ExceptionalPoint for eta within
    EXCEPTIONAL_POINT_BAND of 1 (the merged eigenvalue is attached to the
    exception; eigenvectors do not exist there), and DomainError when the
    lower squared mass rounds to zero or below or when p^2 + m^2
    overflows, leaving the mode frequencies infinite.  In a
    batch, the first system out of domain raises, as in a loop.
    """
    m1, m2, p, eta = params.m1_sq, params.m2_sq, params.p, params.eta
    with np.errstate(all="ignore"):  # a batch's out-of-domain systems raise below
        s = np.sqrt((1.0 - eta) * (1.0 + eta))
        sigma = 0.5 * (m1 + m2)
        half_split = 0.5 * abs(m1 - m2) * s  # as pt_eigenvalues rounds it
        m_plus_sq, m_minus_sq = sigma + half_split, sigma - half_split
        omega_plus, omega_minus = np.sqrt(p * p + m_plus_sq), np.sqrt(p * p + m_minus_sq)
        cosh_theta = np.sqrt((1.0 + s) / (2.0 * s))
        sinh_theta = eta / np.sqrt(2.0 * s * (1.0 + s))
        n_factor = cosh_theta / abs(eta)  # +inf at eta = 0
    failed = ((eta >= 1.0 - EXCEPTIONAL_POINT_BAND) | (m_minus_sq <= 0.0)
              | ~np.isfinite(omega_plus + omega_minus))
    if _any(failed):
        if np.ndim(failed):
            eigensystem(params[np.unravel_index(np.argmax(failed), failed.shape)])  # raises
        _check_eta(eta, broken="the squared-mass eigenvalues are complex")
        if eta >= 1.0 - EXCEPTIONAL_POINT_BAND:
            raise ExceptionalPoint(
                f"eta = {eta:.17g} is at the exceptional point: eigenvalues merge at "
                f"{sigma:.17g} and the eigenvectors coalesce", m_sq=sigma)
        if m_minus_sq <= 0.0:  # positive in exact arithmetic; cancellation can round it away
            raise DomainError(
                f"lower squared mass rounds to {m_minus_sq:.3g}: the diagonal masses "
                f"{m1:.6g} and {m2:.6g} are too far apart to resolve")
        raise DomainError(f"p^2 + m^2 overflows at p = {p:.6g}: infinite mode frequencies")

    # m_plus_sq - m_minus_sq = |m1^2 - m2^2| s, computed without cancellation
    delta_omega = abs(m1 - m2) * s / (omega_plus + omega_minus)
    cprime = _cprime_matrix(eta, s)
    vectors = _matrix(cosh_theta, -sinh_theta, -sinh_theta, cosh_theta)  # rows e_plus, e_minus
    values = (eta, 0.5 * _per_element(math.atanh, eta), cosh_theta, sinh_theta, n_factor,
              m_plus_sq, m_minus_sq, omega_plus, omega_minus, delta_omega, s, np.sqrt(s))
    return EigenSystem(params, *map(_unbox, values), e_plus=vectors[..., 0, :],
                       e_minus=vectors[..., 1, :], cprime=cprime,
                       cpt_metric=cprime * _PARITY_SIGNS, swapped=_unbox(m1 < m2))
