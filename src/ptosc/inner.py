"""Conjugation maps and the three inner products (Dirac, PT, C'PT).

A ket is a complex 2-vector; the bra maps differ only in the metric
inserted after complex conjugation:

    Dirac:  <u, v> = u^dag v            (time-dependent norms here)
    PT:     u^dag P v                   (indefinite: e_minus has norm -1)
    C'PT:   u^dag C' P v                (positive definite for eta < 1)

Time reversal acts on these c-number amplitudes as complex conjugation
alone; momentum enters only through the mode frequencies.

The conjugation tag on a CoStateVector is metadata for error messages and
test assertions; no arithmetic branches on it.  Functions accept either
the wrapper types or bare arrays: a length-2 vector, or a (..., 2) stack
of them (and an array of eta for the C'PT maps) that broadcast together
and are contracted pairwise, each pair rounded as a single call rounds it.
"""

from dataclasses import dataclass

import numpy as np

from .model import _dot, _unbox, cprime_matrix, parity_matrix


@dataclass(frozen=True)
class StateVector:
    """Complex 2-component ket with a documentation-only basis tag."""

    components: np.ndarray
    basis_tag: str = "flavour"  # or "mass"


@dataclass(frozen=True)
class CoStateVector:
    """Complex 2-component bra tagged with the conjugation that produced it."""

    components: np.ndarray
    conjugation_tag: str  # dirac | pt | cpt | tilde


def _components(v) -> np.ndarray:
    return np.asarray(getattr(v, "components", v), dtype=complex)


def dirac_dagger(v) -> CoStateVector:
    """Hermitian conjugate: component-wise complex conjugation, transposed."""
    return CoStateVector(_components(v).conj(), "dirac")


def pt_conjugate(v) -> CoStateVector:
    """PT conjugate v^dag P."""
    return CoStateVector(_dot(_components(v).conj(), parity_matrix()), "pt")


def cpt_conjugate(eta, v) -> CoStateVector:
    """C'PT conjugate v^dag C' P; raises ExceptionalPoint at eta = 1."""
    bra = _dot(_dot(_components(v).conj(), cprime_matrix(eta)), parity_matrix())
    return CoStateVector(bra, "cpt")


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
