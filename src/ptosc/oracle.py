"""Brute-force reference paths, independent of the closed-form machinery.

Everything here is assembled from the raw mass/parity matrices and plain
contractions: eigenpairs come from the quadratic formula applied to the
characteristic polynomial (self-contained, no general eigensolver), mixing
weights from a 2x2 linear solve against the standard basis, and the
positive-definite metric from the PT-normalised eigenvector matrix V as
G = (V V^dag)^{-1}, with the ket-side symmetry V diag(PT signs) V^{-1}.

None of this touches theta, the closed-form eigenvalues, the C'-matrix
formula or the states module, so agreement with those code paths is a
genuine cross-check rather than a tautology.  The construction is also
orientation-free: it works identically for either ordering of the diagonal
squared masses.

Every brute-force function takes a time or an array of times (t0 and t
broadcast together) and solves the spectrum once per call.

Conditioning of the eigenvector basis degrades like (1 - eta^2)^(-1/2)
near the exceptional point; use tolerance_for_eta for the documented
comparison schedule (1e-10 for eta <= 0.95, 1e-8 up to 0.999).
"""

from dataclasses import dataclass

import numpy as np

from .errors import BrokenPTPhase, DomainError, NonRealTrace
from .model import ModelParams, _cmul, _dot, mass_matrix, parity_matrix

# Eigenvalues whose imaginary part exceeds this (relative to the matrix
# scale) are classified as the broken-PT regime by the probability path.
_REAL_SPECTRUM_TOLERANCE = 1e-12


def tolerance_for_eta(eta: float) -> float:
    """Comparison tolerance schedule for eigenvector-based checks."""
    return 1e-10 if eta <= 0.95 else 1e-8


@dataclass(frozen=True)
class OracleReport:
    """Outcome of one invariant family; passed iff max_abs_error <= tolerance."""

    check_name: str
    max_abs_error: float
    tolerance: float
    passed: bool
    grid_size: int

    @classmethod
    def from_error(cls, check_name: str, max_abs_error: float, tolerance: float,
                   grid_size: int) -> "OracleReport":
        return cls(check_name, float(max_abs_error), float(tolerance),
                   bool(max_abs_error <= tolerance), int(grid_size))


def numeric_eigensystem(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and unit-norm eigenvectors of a 2x2 matrix, or of each
    matrix of a (..., 2, 2) stack, from the characteristic polynomial.

    Returns (eigenvalues, eigenvectors), shapes (..., 2) and (..., 2, 2),
    eigenvectors as columns paired with the eigenvalues.  Complex
    eigenvalues are returned as-is; at a defective (double) eigenvalue the
    two returned columns coalesce onto the single eigendirection.
    """
    a = np.asarray(matrix, dtype=complex)
    if not np.isfinite(a).all():
        raise DomainError("matrix entries must be finite")
    # entries keep a trailing axis, so one matrix and a stack round alike
    a00, a01, a10, a11 = (a[..., i, j, None] for i in (0, 1) for j in (0, 1))
    trace = a00 + a11
    disc = np.sqrt(_cmul(trace, trace) - 4.0 * (_cmul(a00, a11) - _cmul(a01, a10)))
    eigenvalues = np.concatenate([trace + disc, trace - disc], axis=-1) / 2.0
    # rows of (A - lam I) are orthogonal to the eigenvector: take the
    # better-conditioned of the two candidates (the first on a tie)
    cand = np.empty(eigenvalues.shape + (2, 2), dtype=complex)  # (..., lam, cand, comp)
    cand[..., 0, 0], cand[..., 0, 1] = a01, eigenvalues - a00
    cand[..., 1, 0], cand[..., 1, 1] = eigenvalues - a11, a10
    # np.linalg.norm of each candidate, from the same two np.dot products
    re, im = ((x[..., None, :] @ x[..., :, None])[..., 0, 0] for x in (cand.real, cand.imag))
    norms = np.sqrt(re + im)
    w = np.where(norms[..., 1:] > norms[..., :1], cand[..., 1, :], cand[..., 0, :])
    norm = norms.max(axis=-1, keepdims=True)
    scalar = norm == 0.0  # scalar matrix: every direction is an eigenvector
    vectors = np.where(scalar, [1.0, 0.0], w) / np.where(scalar, 1.0, norm)
    return eigenvalues, np.swapaxes(vectors, -1, -2)


@dataclass(frozen=True)
class _SpectralData:
    eigenvalues: np.ndarray      # (lam_plus, lam_minus), real, descending
    basis: np.ndarray            # PT-normalised eigenvectors as columns
    metric: np.ndarray           # (V V^dag)^{-1}: the positive-definite metric
    symmetry: np.ndarray         # V diag(PT signs) V^{-1}: C'-like ket operator
    omegas: np.ndarray           # frequencies sqrt(p^2 + lam)


def _spectral_data(params: ModelParams) -> _SpectralData:
    m2 = mass_matrix(params)
    eigenvalues, vectors = numeric_eigensystem(m2)
    scale = np.abs(eigenvalues).max()
    if np.abs(eigenvalues.imag).max() > _REAL_SPECTRUM_TOLERANCE * scale:
        raise BrokenPTPhase(
            f"complex eigenvalue pair {eigenvalues} (eta = {params.eta:.6g})"
        )
    order = np.argsort(-eigenvalues.real)
    eigenvalues = eigenvalues.real[order]
    vectors = vectors[:, order].real

    parity = parity_matrix()
    norms = np.array([vectors[:, k] @ parity @ vectors[:, k] for k in range(2)])
    if np.abs(norms).min() < 1e-13:
        raise DomainError("PT-null eigenvector: parameters are at the exceptional point")
    signs = np.sign(norms)
    basis = vectors / np.sqrt(np.abs(norms))
    metric = np.linalg.inv(basis @ basis.T)
    symmetry = basis @ np.diag(signs) @ np.linalg.inv(basis)
    omegas = np.sqrt(params.p * params.p + eigenvalues)
    return _SpectralData(eigenvalues, basis, metric, symmetry, omegas)


def _ket(data: _SpectralData, i: int, t) -> np.ndarray:
    if i not in (1, 2):
        raise DomainError(f"flavour index must be 1 or 2, got {i!r}")
    weights = np.linalg.solve(data.basis, np.eye(2)[i - 1])
    phases = np.exp(1j * np.multiply.outer(t, data.omegas))
    return _dot(weights * phases, data.basis.T)


def _operator(data: _SpectralData, i: int, t) -> np.ndarray:
    ket = _ket(data, i, t)
    if i == 1:
        left, right = ket, _dot(ket.conj(), data.metric)
    else:
        left, right = _dot(ket, data.symmetry.T), _dot(ket.conj(), parity_matrix())
    op = left[..., :, None] * right[..., None, :]
    return op / (op[..., 0, 0] + op[..., 1, 1])[..., None, None]


def brute_force_flavour_ket(params: ModelParams, i: int, t: float) -> np.ndarray:
    """Flavour ket components at time t, from a linear solve against the
    numeric eigenbasis (no mixing-angle formulas)."""
    return _ket(_spectral_data(params), i, t)


def brute_force_operator(params: ModelParams, i: int, t: float) -> np.ndarray:
    """Density/projection operator for flavour i at time t, normalised by
    its own trace instead of any sech(2 theta) closed form."""
    return _operator(_spectral_data(params), i, t)


def brute_force_probability(params: ModelParams, i: int, j: int, t0: float, t: float) -> float:
    """P(i -> j) from the raw-matrix construction above."""
    data = _spectral_data(params)
    product = _operator(data, i, t0) @ _operator(data, j, t)
    value = product[..., 0, 0] + product[..., 1, 1]
    imag = np.abs(value.imag).max(initial=0.0)
    if imag > 1e-9:
        raise NonRealTrace(f"brute-force trace has imaginary part {imag:.3e}")
    return value.real[()]


def brute_force_dirac_norm(params: ModelParams, i: int, t: float) -> float:
    """<fi(t)|fi(t)> by direct contraction of the brute-force ket."""
    ket = brute_force_flavour_ket(params, i, t)
    return (ket.conj() * ket).sum(axis=-1).real[()]


def brute_force_dirac_overlap(params: ModelParams, t: float) -> complex:
    """<f1(t)|f2(t)> by direct contraction of the brute-force kets."""
    data = _spectral_data(params)
    return (_ket(data, 1, t).conj() * _ket(data, 2, t)).sum(axis=-1)[()]
