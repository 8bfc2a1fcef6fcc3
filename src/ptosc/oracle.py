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

Every brute-force function takes a time, a flavour index and a parameter
point, or arrays of them (ModelParams with array fields for a batch), all
broadcast together.  One call makes one spectral solve over the whole
(..., 2, 2) batch, so all four (i, j) pairs of every system over a time
grid cost a single solve, each element equal to its single-point value.
Each public function wraps a private core that takes the solve
(`_probability`, `_ket`) or its kets (`_dirac_overlap`); the solve slices
like the batch (`data[:, None]`), so check_all makes one solve per pass
and hands its slices to the cores.

Conditioning of the eigenvector basis degrades like (1 - eta^2)^(-1/2)
near the exceptional point; use tolerance_for_eta for the documented
comparison schedule (1e-10 for eta <= 0.95, 1e-8 up to 0.999).
"""

from dataclasses import dataclass

import numpy as np

from .errors import BrokenPTPhase, DomainError, NonRealTrace
from .model import (
    ModelParams, _any, _cmul, _dot, _finite, _flavour_one, _select, mass_matrix, parity_matrix)

# Eigenvalues whose imaginary part exceeds this (relative to the matrix
# scale) are classified as the broken-PT regime by the probability path.
_REAL_SPECTRUM_TOLERANCE = 1e-12


def tolerance_for_eta(eta: float) -> float:
    """Comparison tolerance schedule for eigenvector-based checks (per element)."""
    return _select(eta <= 0.95, 1e-10, 1e-8)


@dataclass(frozen=True)
class OracleReport:
    """Outcome of one invariant family; passed iff max_abs_error <= tolerance."""

    check_name: str
    max_abs_error: float
    tolerance: float
    passed: bool
    grid_size: int


def numeric_eigensystem(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and unit-norm eigenvectors of a 2x2 matrix, or of each
    matrix of a (..., 2, 2) stack, from the characteristic polynomial.

    Returns (eigenvalues, eigenvectors), shapes (..., 2) and (..., 2, 2),
    eigenvectors as columns paired with the eigenvalues.  Complex
    eigenvalues are returned as-is; at a defective (double) eigenvalue the
    two returned columns coalesce onto the single eigendirection.
    """
    a = np.ascontiguousarray(matrix, dtype=complex)
    if not np.isfinite(a).all():
        raise DomainError("matrix entries must be finite")
    # divide each matrix by the power of two of its largest part, exactly,
    # so that no candidate norm under- or overflows; scale lam back at the end
    exponent = np.frexp(np.abs(a.view(float)).max(axis=(-2, -1)))[1][..., None]
    a = np.ldexp(a.view(float), -exponent[..., None]).view(complex)
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
    return np.ldexp(eigenvalues.view(float), exponent).view(complex), np.swapaxes(vectors, -1, -2)


@dataclass(frozen=True)
class _SpectralData:
    basis: np.ndarray            # PT-normalised eigenvectors as columns
    weights: np.ndarray          # row i - 1: flavour i's coefficients in the basis
    metric: np.ndarray           # (V V^dag)^{-1}: the positive-definite metric
    symmetry: np.ndarray         # V diag(PT signs) V^{-1}: C'-like ket operator
    omegas: np.ndarray           # frequencies sqrt(p^2 + lam), lam real and descending

    def __getitem__(self, key) -> "_SpectralData":
        """The spectra of the points at ``key`` (index, slice, None, ...) of
        the batch; each field keeps its matrix or vector axes whole."""
        key = (key if isinstance(key, tuple) else (key,)) + (Ellipsis,)
        return _SpectralData(*(field[key] for field in vars(self).values()))


def _spectral_data(params: ModelParams) -> _SpectralData:
    """The spectrum of one point, or of a batch with one (..., 2, 2) solve."""
    values, vectors = numeric_eigensystem(mass_matrix(params))
    scale = np.abs(values).max(axis=-1)
    broken = np.abs(values.imag).max(axis=-1) > _REAL_SPECTRUM_TOLERANCE * scale
    order = np.argsort(-values.real, axis=-1)
    eigenvalues = np.take_along_axis(values.real, order, axis=-1)
    vectors = np.take_along_axis(vectors, order[..., None, :], axis=-1).real

    parity = parity_matrix()
    # v^T P v of each column, from the same two np.dot products as one matrix's
    norms = np.stack([(_dot(v, parity)[..., None, :] @ v[..., :, None])[..., 0, 0]
                      for v in (vectors[..., :, 0], vectors[..., :, 1])], axis=-1)
    failed = broken | (np.abs(norms).min(axis=-1) < 1e-13)
    if _any(failed):
        if np.ndim(failed):
            _spectral_data(params[np.unravel_index(np.argmax(failed), failed.shape)])  # raises
        if broken:
            raise BrokenPTPhase(f"complex eigenvalue pair {values} (eta = {params.eta:.6g})")
        raise DomainError("PT-null eigenvector: parameters are at the exceptional point")
    signs = np.sign(norms)
    basis = vectors / np.sqrt(np.abs(norms))[..., None, :]
    # row i - 1 solves basis x = e_i, one right-hand side at a time
    weights = np.linalg.solve(basis[..., None, :, :], np.eye(2)[..., None])[..., 0]
    metric = np.linalg.inv(basis @ basis.swapaxes(-1, -2))
    diagonal = np.where(np.eye(2, dtype=bool), signs[..., None, :], 0.0)  # np.diag(signs)
    symmetry = basis @ diagonal @ np.linalg.inv(basis)
    omegas = np.sqrt(np.multiply(params.p, params.p)[..., None] + eigenvalues)
    return _SpectralData(basis, weights, metric, symmetry, omegas)


def _ket(data: _SpectralData, i, t) -> np.ndarray:
    t = np.asarray(t)
    _finite("time", t)  # every brute-force route passes here with its times
    weights = np.where(np.asarray(_flavour_one(i))[..., None], data.weights[..., 0, :],
                       data.weights[..., 1, :])
    phases = np.exp(1j * (t[..., None] * data.omegas))
    return _dot(weights * phases, data.basis.swapaxes(-1, -2))


def _operator(data: _SpectralData, i, t) -> np.ndarray:
    one = np.asarray(_flavour_one(i))[..., None]
    ket = _ket(data, i, t)
    left = np.where(one, ket, _dot(ket, data.symmetry.swapaxes(-1, -2)))
    right = _dot(ket.conj(), np.where(one[..., None], data.metric, parity_matrix()))
    op = left[..., :, None] * right[..., None, :]
    return op / (op[..., 0, 0] + op[..., 1, 1])[..., None, None]


def _probability(data: _SpectralData, i, j, t0, t) -> float:
    """brute_force_probability from a solve, sliced to broadcast with i, j and the times."""
    product = _operator(data, i, t0) @ _operator(data, j, t)
    value = product[..., 0, 0] + product[..., 1, 1]
    imag = np.abs(value.imag).max(initial=0.0)
    if imag > 1e-9:
        raise NonRealTrace(f"brute-force trace has imaginary part {imag:.3e}")
    return value.real[()]


def _dirac_overlap(f: np.ndarray, g: np.ndarray) -> complex:
    """<f|g> of each pair of brute-force kets, by direct contraction."""
    return (f.conj() * g).sum(axis=-1)[()]


def brute_force_flavour_ket(params: ModelParams, i, t) -> np.ndarray:
    """Flavour ket components at time t, from a linear solve against the
    numeric eigenbasis (no mixing-angle formulas)."""
    return _ket(_spectral_data(params), i, t)


def brute_force_operator(params: ModelParams, i, t) -> np.ndarray:
    """Density/projection operator for flavour i at time t, normalised by
    its own trace instead of any sech(2 theta) closed form."""
    return _operator(_spectral_data(params), i, t)


def brute_force_probability(params: ModelParams, i, j, t0, t) -> float:
    """P(i -> j) from the raw-matrix construction above.  With index
    columns i = [[1], [1], [2], [2]], j = [[1], [2], [1], [2]] and an array
    of times t, row k holds the k-th (i, j) pair over the whole grid."""
    return _probability(_spectral_data(params), i, j, t0, t)


def brute_force_dirac_norm(params: ModelParams, i, t) -> float:
    """<fi(t)|fi(t)> by direct contraction of the brute-force ket."""
    ket = brute_force_flavour_ket(params, i, t)
    return _dirac_overlap(ket, ket).real


def brute_force_dirac_overlap(params: ModelParams, t: float) -> complex:
    """<f1(t)|f2(t)> by direct contraction of the brute-force kets."""
    data = _spectral_data(params)
    return _dirac_overlap(_ket(data, 1, t), _ket(data, 2, t))
