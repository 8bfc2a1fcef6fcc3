"""Density/projection operators, trace probabilities and all closed forms.

Two routes to the same oscillation probabilities are kept deliberately
separate.  The closed forms are plain functions of eta and the phase
phi = delta_omega * dt / 2:

    transition  = eta^2 sin^2(phi)            survival = 1 - transition
    Hermitian   = eta^2 / (1 + eta^2) sin^2(phi)
    naive       = -eta^2 / (1 - eta^2) sin^2(phi)   (pathological, unclamped)

The trace route builds the operators

    rho_1(t0) = |f1(t0)> <f1^C'PT(t0)|,   rho_2(t0) = |f2^C'(t0)> <f2^PT(t0)|

from the normalised mixed-basis states (projection operators are the same
construction anchored at the measurement time) and evaluates
P(i -> j) = tr[rho_i(t0) pi_j(t)] as an explicit 2x2 matrix-product trace,
so trace/closed-form agreement is a real consistency check rather than a
shared code path.

The closed forms stay finite on the whole eta in [0, 1] range, including
the exceptional point where the trace route is undefined.  They take eta
and phase arrays, broadcast, with every element equal to its single-point
value; one point returns a Python float.  The trace route's one entry,
probability_trace, broadcasts over flavour-index and time arrays and a
stacked EigenSystem alike, as probability_closed_form does.  The Dirac-norm
diagnostics (time-dependent norm, flavour overlap and the polar cardioid)
live here too; they quantify why the plain Hermitian inner product cannot
give time-translation-invariant probabilities in this model.  All of them
raise DomainError for an infinite or NaN phase or time; the trace route's
time-resolution rule and tolerances, NON_REAL_TRACE_TOLERANCE among them,
are declared in `model`.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ExceptionalPoint, NonRealTrace
from .model import (NON_REAL_TRACE_TOLERANCE, EigenSystem, _any, _check_eta,
                    _check_time_resolution, _finite, _flavour_one, _per_element, _select,
                    _trace_rounding, _unbox)
from .states import mixed_basis_pair

CLOSED_FORM = "closed_form"
TRACE = "trace"


@dataclass(frozen=True)
class ProbabilityRecord:
    """One (i -> j) probability evaluation with its method tag."""

    from_flavour: int
    to_flavour: int
    t0: float
    t: float
    value: float
    method: str


def _of_phase(fn, phase):
    """fn from math at each element of a phase, as _per_element does;
    DomainError for an infinite or NaN phase, which math.sin and math.cos
    would refuse with a bare ValueError or pass on."""
    _finite("phase", phase)
    return _per_element(fn, phase)


def _sin_sq(phase):
    """sin^2(phase), per element of an array."""
    return _of_phase(lambda x: math.sin(x) ** 2, phase)


def transition_probability(eta, phase):
    """eta^2 sin^2(phase); finite on all of eta in [0, 1].  eta and phase
    may be arrays (broadcast); a single point gives a Python float."""
    _check_eta(eta, broken="no real-spectrum closed form")
    return _unbox(eta * eta * _sin_sq(phase))


def survival_probability(eta, phase):
    """1 - eta^2 sin^2(phase)."""
    return 1.0 - transition_probability(eta, phase)


def hermitian_transition_probability(eta, phase):
    """eta^2 / (1 + eta^2) sin^2(phase); saturates only as eta -> inf."""
    _check_eta(eta)
    return _unbox(eta * eta / (1.0 + eta * eta) * _sin_sq(phase))


def naive_continuation_value(eta, phase):
    """-eta^2 / (1 - eta^2) sin^2(phase): the mu^4 -> -mu^4 continuation of
    the Hermitian formula.  Deliberately not clamped; its modulus exceeds 1
    for eta > 1/sqrt(2)."""
    _check_eta(eta, broken="continuation undefined", exceptional=True)
    return _unbox(-eta * eta / ((1.0 - eta) * (1.0 + eta)) * _sin_sq(phase))


def density_operator(i, t0, es: EigenSystem) -> np.ndarray:
    """Initial density operator |ket><bra| for flavour i prepared at t0, from
    the normalised mixed basis: unit trace and idempotent.  Shape: the
    broadcast of flavour(s) i, time(s) t0 and the systems, + (2, 2)."""
    kets, bras = mixed_basis_pair(i, t0, es)
    return kets[..., :, None] * bras[..., None, :]


def projection_operator(j, t, es: EigenSystem) -> np.ndarray:
    """Final-state projector for flavour j measured at t: the density
    operator anchored at the measurement time."""
    return density_operator(j, t, es)


def probability_trace(i, j, t0, t, es: EigenSystem) -> ProbabilityRecord:
    """P(i -> j) = tr[rho_i(t0) pi_j(t)] as a batched matrix-product trace
    over the broadcast of the flavour indices i, j (ints or integer arrays),
    the times t0, t (floats or arrays) and the systems of es, as a record
    whose value is an array; int indices and one (t0, t) give a Python float.

    Raises DomainError for times too large to resolve dt, ExceptionalPoint
    where the route's rounding bound (`model._trace_rounding`) exceeds
    tolerance_for_eta or explains an imaginary part above
    NON_REAL_TRACE_TOLERANCE, and NonRealTrace for any other such part;
    otherwise the imaginary parts are checked and discarded.
    """
    _check_time_resolution("trace route", es.omega_plus, es.eta, t0, t)
    rounding = _trace_rounding(es.eta)
    product = density_operator(i, t0, es) @ projection_operator(j, t, es)
    values = product[..., 0, 0] + product[..., 1, 1]
    imag = np.abs(values.imag)
    if _any(imag > NON_REAL_TRACE_TOLERANCE):
        worst = np.unravel_index(np.argmax(imag), imag.shape)  # the pair of the worst element
        a, b, eta, bound = (np.broadcast_to(x, imag.shape)[worst]
                            for x in (i, j, es.eta, rounding))
        what = f"tr[rho_{a}(t0) pi_{b}(t)] of P({a} -> {b}) has imaginary part {imag[worst]:.3e}"
        # above the rounding at eta = 0 but within its growth near the EP: not a bug
        if _trace_rounding(0.0) < imag[worst] <= bound:
            raise ExceptionalPoint(f"eta = {eta:.17g} is too close to the exceptional point for "
                                   f"the trace route: {what}, within its rounding {bound:.3e}")
        raise NonRealTrace(what)
    return ProbabilityRecord(i, j, t0, t, _unbox(values.real), TRACE)


def probability_closed_form(i, j, dt, es: EigenSystem) -> ProbabilityRecord:
    """Closed-form P(i -> j) after a time separation dt.  Flavour indices,
    dt and a stacked es may be arrays (broadcast), giving a record whose
    value is an array; int indices and one dt give a Python float."""
    same = _flavour_one(i) == _flavour_one(j)
    transition = transition_probability(es.eta, 0.5 * es.delta_omega * dt)
    return ProbabilityRecord(i, j, 0.0, dt, _unbox(_select(same, 1.0 - transition, transition)),
                             CLOSED_FORM)


def dirac_norm(i: int, t, es: EigenSystem) -> float:
    """<fi(t)|fi(t)> = (1 - eta^2 cos(delta_omega t)) / (1 - eta^2).

    The same for both flavours, equal to 1 at t = 0 and periodically
    pumped above/below 1 otherwise, which is why Dirac-inner-product
    probabilities violate time-translation invariance.  Arrays broadcast.
    """
    _flavour_one(i)
    return cardioid_r(es.delta_omega * t, es.eta)


def dirac_overlap(t, es: EigenSystem) -> complex:
    """<f1(t)|f2(t)>: zero at t = 0 only.

    Equals eta/(1 - eta^2) [1 - cos(delta_omega t) + i sqrt(1 - eta^2)
    sin(delta_omega t)]; the sign of the imaginary part follows from the
    exp(+i omega t) mode convention.  The heavy-first relabelling of a
    swapped system conjugates the overlap and negates it; this value (the
    overlap of the kets of `states`) carries the conjugation alone, so the
    raw-matrix kets exp(i Omega t) e_i give its negative.  The reverse
    overlap <f2|f1> is the complex conjugate.  Arrays broadcast.
    """
    eta, x = es.eta, es.delta_omega * t
    sin = np.sqrt((1.0 - eta) * (1.0 + eta)) * _of_phase(math.sin, x)
    value = eta / ((1.0 - eta) * (1.0 + eta)) * (1.0 - _of_phase(math.cos, x) + 1j * sin)
    return _unbox(np.where(es.swapped, np.conj(value), value))


def cardioid_r(theta_phase, eta):
    """Polar radius (1 - eta^2 cos(phase)) / (1 - eta^2) traced by the
    Dirac norm; 2 pi periodic, maximal at phase = pi.  Arrays broadcast as
    in the transition probability."""
    _check_eta(eta, broken="no real-spectrum norm", exceptional=True)
    eta_sq = eta * eta
    return _unbox((1.0 - eta_sq * _of_phase(math.cos, theta_phase)) / (1.0 - eta_sq))
