"""Brute-force reference paths, independent of the closed-form machinery.

Everything here is assembled from the raw mass/parity matrices, and a 2x2
matrix function needs no eigenvectors (Moler & Van Loan, SIAM Rev. 45, 3
(2003)).  With D = M^2 - sigma I, sigma half the trace, D^2 = h^2 I where
h^2 = -det D, so exp(i Omega t) = e^{i w t} [cos x I + i sin x D / h], with
x = h t / (omega_+ + omega_-), omega_pm = sqrt(p^2 + sigma +- h) and w their
mean.  The ket-side symmetry is sign(D_00) D / h and the positive-definite
metric is P times it (Mostafazadeh, J. Math. Phys. 43, 205 (2002)).  The
phase e^{i w t} cancels from every operator and overlap, so only
brute_force_flavour_ket puts it back.  The eigenvalue families take the
characteristic polynomial's roots from `_eigenvalues`.

None of this touches theta, the closed-form eigenvalues, the C'-matrix
formula or the states module, so agreement with those code paths is a
genuine cross-check.  It works alike for either ordering of the diagonal
squared masses, and at p >> m, since no full frequency enters a phase.

Every brute-force function takes a time, a flavour index and a parameter
point, or arrays of them, all broadcast together, with one spectral solve
per call over the whole (..., 2, 2) batch, each element equal to its
single-point value.  Each public function wraps a private core that takes
the solve (`_probability`, `_ket`) or its kets (`_dirac_overlap`); the solve
slices like the batch (`data[:, None]`), so check_all makes one solve per
pass.  h^2 rounds with relative error eps d^2 / h^2 = eps / (1 - eta^2), so
the solve raises ExceptionalPoint where that reaches _ORACLE_EP_BOUND, which
`model` declares with every route's other bounds (1 - eta <= 1.1e-8).
"""

from dataclasses import dataclass

import numpy as np

from .errors import BrokenPTPhase, DomainError, ExceptionalPoint, NonRealTrace
from .model import (_ORACLE_EP_BOUND, _PARITY_SIGNS, NON_REAL_TRACE_TOLERANCE, ModelParams, _any,
                    _check_time_resolution, _cmul, _dot, _finite, _flavour_one, mass_matrix,
                    parity_matrix)


def _eigenvalues(matrix: np.ndarray) -> tuple:
    """The eigenvalues of a 2x2 matrix, or of each matrix of a (..., 2, 2)
    stack, shape (..., 2), without eigenvectors; then the scaled entries
    (a00, a01, a10, a11) and roots, from which numeric_eigensystem builds eigenvectors."""
    a = np.ascontiguousarray(matrix, dtype=complex)
    if not np.isfinite(a).all():
        raise DomainError("matrix entries must be finite")
    # divide each matrix by the power of two of its largest part, exactly,
    # so that no candidate norm under- or overflows; scale lam back at the end
    exponent = np.frexp(np.abs(a.view(float)).max(axis=(-2, -1)))[1][..., None]
    a = np.ldexp(a.view(float), -exponent[..., None]).view(complex)
    # entries keep a trailing axis, so one matrix and a stack round alike
    entries = a00, a01, a10, a11 = tuple(a[..., i, j, None] for i in (0, 1) for j in (0, 1))
    trace = a00 + a11
    disc = np.sqrt(_cmul(trace, trace) - 4.0 * (_cmul(a00, a11) - _cmul(a01, a10)))
    roots = np.concatenate([trace + disc, trace - disc], axis=-1) / 2.0
    return np.ldexp(roots.view(float), exponent).view(complex), entries, roots


def numeric_eigensystem(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and unit-norm eigenvectors of a 2x2 matrix, or of each
    matrix of a (..., 2, 2) stack, from the characteristic polynomial.

    Returns (eigenvalues, eigenvectors), shapes (..., 2) and (..., 2, 2),
    eigenvectors as columns paired with the eigenvalues.  Complex
    eigenvalues are returned as-is; at a defective (double) eigenvalue the
    two returned columns coalesce onto the single eigendirection.
    """
    values, (a00, a01, a10, a11), eigenvalues = _eigenvalues(matrix)
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
    return values, np.swapaxes(vectors, -1, -2)


@dataclass(frozen=True)
class _SpectralData:
    generator: np.ndarray        # D / h: exp(i Omega t) = e^{i w t} (cos x I + i sin x D / h)
    symmetry: np.ndarray         # sign(d) D / h: C'-like ket operator; P times it is the metric
    rate: np.ndarray             # x / t = h / (omega_+ + omega_-), trailing axis of 1
    mean: np.ndarray             # w = (omega_+ + omega_-) / 2, the common frequency, likewise
    eta: np.ndarray              # eta, likewise, for the time rule's tolerance

    def __getitem__(self, key) -> "_SpectralData":
        """The spectra of the points at ``key`` (index, slice, None, ...) of
        the batch; each field keeps its matrix or vector axes whole."""
        key = (key if isinstance(key, tuple) else (key,)) + (Ellipsis,)
        return _SpectralData(*(field[key] for field in vars(self).values()))


def _spectral_data(params: ModelParams) -> _SpectralData:
    """The spectrum of one point, or of a batch, from D = M^2 - sigma I."""
    a = mass_matrix(params)
    _finite("mass matrix entry", a)
    # divide each matrix by the power of two of its largest entry, exactly, so
    # that no square under- or overflows; sigma and h scale back at the end
    exponent = np.frexp(np.abs(a).max(axis=(-2, -1)))[1][..., None]
    a = np.ldexp(a, -exponent[..., None])
    a00, a01, a10, a11 = (a[..., i, j, None] for i in (0, 1) for j in (0, 1))
    d, sigma = (a00 - a11) / 2.0, (a00 + a11) / 2.0
    g = np.sqrt(-a01 * a10)  # |mu^2| exactly
    h_sq = (np.abs(d) - g) * (np.abs(d) + g)  # -det D, in factored form
    # h_sq's relative error is eps d^2 / h^2 = eps / (1 - eta^2): refuse it a priori
    failed = (np.finfo(float).eps * d * d >= _ORACLE_EP_BOUND * h_sq)[..., 0]
    if _any(failed):
        if np.ndim(failed):
            _spectral_data(params[np.unravel_index(np.argmax(failed), failed.shape)])  # raises
        if h_sq < 0.0:
            raise BrokenPTPhase(f"eta = {params.eta:.6g} > 1: complex eigenvalue pair")
        raise ExceptionalPoint(f"eta = {params.eta:.17g} is too close to the exceptional point "
                               f"for the oracle: eps / (1 - eta^2) >= {_ORACLE_EP_BOUND:g}")
    h = np.sqrt(h_sq)
    generator = np.concatenate([d, a01, a10, -d], axis=-1).reshape(a.shape) / h[..., None]
    p_sq = np.multiply(params.p, params.p)[..., None]
    omegas = np.sqrt(p_sq + np.ldexp(sigma + np.concatenate([h, -h], axis=-1), exponent))
    total = omegas.sum(axis=-1, keepdims=True)  # omega_+ + omega_-
    return _SpectralData(generator, np.sign(d)[..., None] * generator,
                         np.ldexp(h, exponent) / total, total / 2.0,
                         np.asarray(params.eta)[..., None])


def _ket(data: _SpectralData, i, t) -> np.ndarray:
    """exp(i Omega t) e_i without its common phase e^{i w t}."""
    t = np.asarray(t)[..., None]
    # every brute-force route passes here with its times; x = rate * t rounds
    # by up to rate * ulp(t), and a probability takes x at two times, so the
    # difference can be off by twice that
    _check_time_resolution("oracle", 2.0 * data.rate, data.eta, t)
    one = np.asarray(_flavour_one(i))[..., None]
    column = np.where(one, data.generator[..., :, 0], data.generator[..., :, 1])  # D e_i / h
    turn = np.exp(1j * (t * data.rate))  # e^{ix}: cos x + i sin x
    return np.where(one, [1.0, 0.0], [0.0, 1.0]) * turn.real + 1j * (turn.imag * column)


def _operator(data: _SpectralData, i, t) -> np.ndarray:
    one = np.asarray(_flavour_one(i))[..., None]
    ket = _ket(data, i, t)
    left = np.where(one, ket, _dot(ket, data.symmetry.swapaxes(-1, -2)))
    metric = _PARITY_SIGNS[:, None] * data.symmetry  # P S
    right = _dot(ket.conj(), np.where(one[..., None], metric, parity_matrix()))
    op = left[..., :, None] * right[..., None, :]
    return op / (op[..., 0, 0] + op[..., 1, 1])[..., None, None]


def _probability(data: _SpectralData, i, j, t0, t) -> float:
    """brute_force_probability from a solve, sliced to broadcast with i, j and the times."""
    product = _operator(data, i, t0) @ _operator(data, j, t)
    value = product[..., 0, 0] + product[..., 1, 1]
    imag = np.abs(value.imag).max(initial=0.0)
    if imag > NON_REAL_TRACE_TOLERANCE:
        raise NonRealTrace(f"brute-force trace has imaginary part {imag:.3e}")
    return value.real[()]


def _dirac_overlap(f: np.ndarray, g: np.ndarray) -> complex:
    """<f|g> of each pair of brute-force kets, by direct contraction."""
    return (f.conj() * g).sum(axis=-1)[()]


def brute_force_flavour_ket(params: ModelParams, i, t) -> np.ndarray:
    """Flavour ket components at time t, exp(i Omega t) e_i from the raw
    matrix (no eigenvectors and no mixing-angle formulas)."""
    data, t = _spectral_data(params), np.asarray(t)
    return _cmul(_ket(data, i, t), np.exp(1j * (t[..., None] * data.mean)))


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
    ket = _ket(_spectral_data(params), i, t)
    return _dirac_overlap(ket, ket).real


def brute_force_dirac_overlap(params: ModelParams, t: float) -> complex:
    """<f1(t)|f2(t)> by direct contraction of the brute-force kets."""
    data = _spectral_data(params)
    return _dirac_overlap(_ket(data, 1, t), _ket(data, 2, t))
