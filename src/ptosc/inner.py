"""Conjugation maps and the three inner products (Dirac, PT, C'PT).

A ket is a complex 2-vector; the bra maps differ only in the metric
inserted after complex conjugation:

    Dirac:  <u, v> = u^dag v            (time-dependent norms here)
    PT:     u^dag P v                   (indefinite: e_minus has norm -1)
    C'PT:   u^dag C' P v                (positive definite for eta < 1)

Time reversal acts on these c-number amplitudes as complex conjugation
alone; momentum enters only through the mode frequencies.

Kets and bras are plain arrays: a length-2 vector, or a (..., 2) stack of
them (and an array of eta for the C'PT maps) that broadcast together and
are contracted pairwise, each pair rounded as a single call rounds it.
"""

import numpy as np

from .model import _dot, _unbox, cprime_matrix, parity_matrix


def _components(v) -> np.ndarray:
    return np.asarray(v, dtype=complex)


def dirac_dagger(v) -> np.ndarray:
    """Hermitian conjugate: component-wise complex conjugation, transposed."""
    return _components(v).conj()


def pt_conjugate(v) -> np.ndarray:
    """PT conjugate v^dag P."""
    return _dot(_components(v).conj(), parity_matrix())


def cpt_conjugate(eta, v) -> np.ndarray:
    """C'PT conjugate v^dag C' P; raises ExceptionalPoint at eta = 1."""
    return _dot(_dot(_components(v).conj(), cprime_matrix(eta)), parity_matrix())


def inner(bra, ket) -> complex:
    """Row-times-column contraction of a co-vector with a ket (one np.dot
    per pair of a stack)."""
    return _unbox((_components(bra)[..., None, :] @ _components(ket)[..., :, None])[..., 0, 0])


def dirac_inner(u, v) -> complex:
    return inner(dirac_dagger(u), v)


def pt_inner(u, v) -> complex:
    return inner(pt_conjugate(u), v)


def cpt_inner(eta, u, v) -> complex:
    return inner(cpt_conjugate(eta, u), v)
