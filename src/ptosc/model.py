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

The matrix and eigenvalue functions also take ModelParams with equal-shape
array fields (or an array of eta), each element rounded as one point is;
one point is the shape-() batch and returns the same types as always.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    BrokenPTPhase,
    DegenerateDiagonal,
    DomainError,
    ExceptionalPoint,
    NegativeMixing,
    NonPositiveMass,
)

# eta values this close to 1 are classified as the exceptional point: the
# eigenvector normalisation grows like (1 - eta^2)^(-1/2) and arithmetic in
# the band is dominated by cancellation noise.
EXCEPTIONAL_POINT_BAND = 1e-12

# 2x2 metric / density / projection operators are plain arrays.
LinearOperator = np.ndarray


@dataclass(frozen=True)
class ModelParams:
    """Validated inputs: two diagonal squared masses, the mixing scale
    squared and the momentum magnitude (natural units, consistent but
    arbitrary).  make_params builds one; equal-shape arrays make a batch."""

    m1_sq: float
    m2_sq: float
    mu_sq: float
    p: float = 0.0

    @property
    def eta(self) -> float:
        """Dimensionless mixing strength 2 mu^2 / |m1^2 - m2^2|."""
        return 2.0 * self.mu_sq / abs(self.m1_sq - self.m2_sq)


def make_params(m1_sq: float, m2_sq: float, mu_sq: float, p: float = 0.0) -> ModelParams:
    """Validate and package the model inputs.

    Raises NonPositiveMass, NegativeMixing or DegenerateDiagonal for
    out-of-domain values.  eta > 1 is accepted here (the Hermitian
    comparison model remains meaningful); it is the eigensystem
    construction that rejects the broken-PT regime.
    """
    for name, value in (("m1_sq", m1_sq), ("m2_sq", m2_sq), ("mu_sq", mu_sq), ("p", p)):
        if not math.isfinite(value):
            raise DomainError(f"{name} must be finite, got {value!r}")
    if m1_sq <= 0.0 or m2_sq <= 0.0:
        raise NonPositiveMass(f"diagonal squared masses must be positive, got {m1_sq}, {m2_sq}")
    if mu_sq < 0.0:
        raise NegativeMixing(f"mu_sq must be non-negative, got {mu_sq}")
    if p < 0.0:
        raise DomainError(f"momentum magnitude must be non-negative, got {p}")
    if m1_sq == m2_sq:
        raise DegenerateDiagonal("m1_sq == m2_sq: eta is undefined for a degenerate diagonal")
    return ModelParams(float(m1_sq), float(m2_sq), float(mu_sq), float(p))


def params_from_eta(eta: float, sum_sq: float = 3.0, ratio: float = 1.0 / 3.0,
                    p: float = 0.0) -> ModelParams:
    """Build parameters from eta, a total squared-mass scale and the
    asymmetry ratio (m1^2 - m2^2) / (m1^2 + m2^2).

    The defaults give (m1^2, m2^2) = (2, 1), so mu^2 = eta / 2.
    """
    if not 0.0 < ratio < 1.0:
        raise DomainError(f"ratio must lie in (0, 1), got {ratio}")
    if sum_sq <= 0.0:
        raise NonPositiveMass(f"sum of squared masses must be positive, got {sum_sq}")
    if eta < 0.0:
        raise NegativeMixing(f"eta must be non-negative, got {eta}")
    m1_sq = 0.5 * sum_sq * (1.0 + ratio)
    m2_sq = 0.5 * sum_sq * (1.0 - ratio)
    mu_sq = 0.5 * eta * sum_sq * ratio
    return make_params(m1_sq, m2_sq, mu_sq, p)


def _unbox(x):
    """A shape-() result as the Python number a single-point call returns."""
    return x.item() if x.ndim == 0 else x


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


def _matrix(a, b, c, d) -> LinearOperator:
    """[[a, b], [c, d]], batched over the entries' common shape."""
    m = np.array([[a, b], [c, d]], dtype=float)
    return m.transpose(*range(2, m.ndim), 0, 1)


def mass_matrix(params: ModelParams) -> LinearOperator:
    """The non-Hermitian squared mass matrix [[m1^2, mu^2], [-mu^2, m2^2]]."""
    return _matrix(params.m1_sq, params.mu_sq, -params.mu_sq, params.m2_sq)


def hermitian_mass_matrix(params: ModelParams) -> LinearOperator:
    """The Hermitian comparison matrix [[m1^2, mu^2], [mu^2, m2^2]]."""
    return _matrix(params.m1_sq, params.mu_sq, params.mu_sq, params.m2_sq)


def parity_matrix() -> LinearOperator:
    """P = diag(1, -1); P^2 = 1 and P M^2 P = (M^2)^dag."""
    return np.diag([1.0, -1.0])


def _reject_exceptional_and_broken(eta, what: str) -> None:
    if np.count_nonzero(eta > 1.0):
        raise BrokenPTPhase(f"eta = {np.max(eta):.6g} > 1: complex eigenvalues, {what} undefined")
    if np.count_nonzero(eta >= 1.0 - EXCEPTIONAL_POINT_BAND):
        raise ExceptionalPoint(
            f"eta = {np.max(eta):.17g} is at the exceptional point; {what} diverges")


def cprime_matrix(eta) -> LinearOperator:
    """The C' symmetry matrix [[1, -eta], [eta, -1]] / sqrt(1 - eta^2), for
    each element of an eta array too.

    Satisfies (C')^2 = 1, (C' P)^T = C' P, and C'^T M^2 C'^T = M^2 for the
    heavy-first orientation of the mass matrix.  The operator acting on
    kets is C'^T, with C'^T e_+ = e_+ and C'^T e_- = -e_-.
    """
    if np.count_nonzero(eta < 0.0):
        raise NegativeMixing(f"eta must be non-negative, got {np.min(eta)}")
    _reject_exceptional_and_broken(eta, "C'")
    s = np.sqrt((1.0 - eta) * (1.0 + eta))
    return _matrix(1.0 / s, -eta / s, eta / s, -1.0 / s)


def pt_eigenvalues(params: ModelParams) -> tuple[float, float]:
    """Squared-mass eigenvalues (m_plus_sq, m_minus_sq), m_plus_sq >= m_minus_sq.

    Valid for 0 <= eta <= 1; at eta = 1 both equal (m1^2 + m2^2) / 2.
    """
    eta = params.eta
    if np.count_nonzero(eta > 1.0):
        raise BrokenPTPhase(
            f"eta = {np.max(eta):.6g} > 1: the squared-mass eigenvalues are complex")
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
    e_plus: np.ndarray
    e_minus: np.ndarray
    swapped: bool

    @property
    def sech_two_theta(self) -> float:
        """sech(2 theta) = sqrt(1 - eta^2); the mixed-basis states are each
        scaled by its square root."""
        return math.sqrt((1.0 - self.eta) * (1.0 + self.eta))

    @property
    def cosh_two_theta(self) -> float:
        return 1.0 / self.sech_two_theta

    @property
    def sinh_two_theta(self) -> float:
        return self.eta / self.sech_two_theta

    @cached_property
    def mixed_basis_norm(self) -> float:
        """sqrt(sech(2 theta)), applied once per ket and once per bra."""
        return math.sqrt(self.sech_two_theta)

    @cached_property
    def cpt_metric(self) -> np.ndarray:
        """C' P, the positive-definite metric contracted by the C'PT bras."""
        return cprime_matrix(self.eta) @ parity_matrix()

    @cached_property
    def cprime_transpose(self) -> np.ndarray:
        """C'^T, the symmetry operator acting on kets."""
        return cprime_matrix(self.eta).T

    def canonical_flavour(self, i: int) -> int:
        """Map a flavour label to the heavy-first orientation."""
        if i not in (1, 2):
            raise DomainError(f"flavour index must be 1 or 2, got {i!r}")
        return i if not self.swapped else 3 - i

    def omega(self, branch: str) -> float:
        if branch == "plus":
            return self.omega_plus
        if branch == "minus":
            return self.omega_minus
        raise DomainError(f"branch must be 'plus' or 'minus', got {branch!r}")

    def oriented_mass_matrix(self) -> LinearOperator:
        """The heavy-first squared mass matrix that e_plus / e_minus
        diagonalise (equals mass_matrix(params) unless swapped)."""
        hi = max(self.params.m1_sq, self.params.m2_sq)
        lo = min(self.params.m1_sq, self.params.m2_sq)
        return np.array([[hi, self.params.mu_sq], [-self.params.mu_sq, lo]])


def eigensystem(params: ModelParams) -> EigenSystem:
    """Solve the mass matrix: eigenvalues, PT-normalised eigenvectors,
    mixing angle and mode frequencies.

    Raises BrokenPTPhase for eta > 1 and ExceptionalPoint for eta within
    EXCEPTIONAL_POINT_BAND of 1 (the merged eigenvalue is attached to the
    exception; eigenvectors do not exist there).
    """
    eta = params.eta
    if eta > 1.0:
        raise BrokenPTPhase(f"eta = {eta:.6g} > 1: the squared-mass eigenvalues are complex")
    m_plus_sq, m_minus_sq = pt_eigenvalues(params)
    if eta >= 1.0 - EXCEPTIONAL_POINT_BAND:
        raise ExceptionalPoint(
            f"eta = {eta:.17g} is at the exceptional point: eigenvalues merge at "
            f"{0.5 * (params.m1_sq + params.m2_sq):.17g} and the eigenvectors coalesce",
            m_sq=0.5 * (params.m1_sq + params.m2_sq),
        )

    s = math.sqrt((1.0 - eta) * (1.0 + eta))
    theta = 0.5 * math.atanh(eta)
    cosh_theta = math.sqrt((1.0 + s) / (2.0 * s))
    sinh_theta = eta / math.sqrt(2.0 * s * (1.0 + s))
    n_factor = cosh_theta / eta if eta > 0.0 else math.inf

    omega_plus = math.sqrt(params.p * params.p + m_plus_sq)
    omega_minus = math.sqrt(params.p * params.p + m_minus_sq)
    # m_plus_sq - m_minus_sq = |m1^2 - m2^2| s, computed without cancellation
    delta_omega = abs(params.m1_sq - params.m2_sq) * s / (omega_plus + omega_minus)

    return EigenSystem(
        params=params,
        eta=eta,
        theta=theta,
        cosh_theta=cosh_theta,
        sinh_theta=sinh_theta,
        n_factor=n_factor,
        m_plus_sq=m_plus_sq,
        m_minus_sq=m_minus_sq,
        omega_plus=omega_plus,
        omega_minus=omega_minus,
        delta_omega=delta_omega,
        e_plus=np.array([cosh_theta, -sinh_theta]),
        e_minus=np.array([-sinh_theta, cosh_theta]),
        swapped=params.m1_sq < params.m2_sq,
    )
