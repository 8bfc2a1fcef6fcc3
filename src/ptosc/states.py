"""Time-dependent flavour states and their conjugate partners.

The flavour kets mix the two mass eigenvectors with hyperbolic weights and
one pure phase per branch, xi_pm(t) = exp(i omega_pm t):

    |f1(t)> = cosh(theta) xi_+(t) e_+ + sinh(theta) xi_-(t) e_-
    |f2(t)> = cosh(theta) xi_-(t) e_- + sinh(theta) xi_+(t) e_+

so that at t = 0 they are the standard basis vectors.  Five companions:

    tilde_bra    biorthogonal partner; <f~i(t)| fj(t)> = delta_ij for all t
                 (same expansion with sinh -> -sinh, C'PT-conjugate rows)
    cpt_bra      C'PT conjugate of the evaluated ket (both signs positive);
                 overlaps cosh(2 theta) / sinh(2 theta), not orthonormal
    pt_bra       PT conjugate of the evaluated ket, u^dag P
    dirac_bra    plain Hermitian conjugate (time-dependent norms)
    cprime_ket   C'-reflected ket C'^T |fi(t)>, i.e. the eigenvector
                 expansion with the e_- coefficient sign flipped

The mixed basis {|f1>, |f2^C'>} with bras {<f1^C'PT|, <f2^PT|} becomes
orthonormal once every state carries a factor sqrt(sech(2 theta)); pass
``normalised=True`` for that.  The factor is split symmetrically between
ket and bra so density operators get one net sech(2 theta) and unit trace.

Flavour indices follow the caller's labelling; for m1^2 < m2^2 they are
mapped onto the heavy-first orientation internally (see model.EigenSystem)
and components refer to heavy-first axes.  Negative t is allowed
everywhere; states are evaluated eagerly at the given time.

Every function here also takes an array of times: xi returns one phase
per time, and flavour_ket, tilde_bra, cpt_bra, pt_bra, dirac_bra,
cprime_ket and the mixed_basis_* functions return components of shape
np.shape(t) + (2,), each element equal to its single-time value bit for
bit.  mixed_basis_states is the batched form the trace route uses.
"""

import cmath
from dataclasses import dataclass

import numpy as np

from .inner import cpt_conjugate
from .model import EigenSystem, _dot


@dataclass(frozen=True)
class FlavourState:
    """A flavour ket or bra at one instant, or a stack over an array of times."""

    index: int          # 1 | 2, caller's labelling
    kind: str           # ket | tilde_bra | cpt_bra | pt_bra | dirac_bra | cprime_ket
    normalised: bool    # sqrt(sech(2 theta)) applied
    components: np.ndarray


def xi(branch: str, t, es: EigenSystem) -> complex:
    """Mode phase exp(i omega_branch t), one plane-wave mode of the
    classical equation of motion d^2 xi / dt^2 = -omega^2 xi; unit modulus
    for every t.  For an array of times each phase comes from cmath, one
    element at a time, so every element equals its single-time value."""
    omega = es.omega(branch)
    if np.ndim(t) == 0:
        return cmath.exp(1j * omega * t)
    return np.array([cmath.exp(1j * omega * x) for x in np.ravel(t).tolist()],
                    dtype=complex).reshape(np.shape(t))


def _ket_components(i: int, t, es: EigenSystem) -> np.ndarray:
    """Components of |fi(t)>, shape np.shape(t) + (2,); t is a float or an
    array."""
    plus = np.exp(1j * es.omega_plus * t)
    minus = np.exp(1j * es.omega_minus * t)
    if es.canonical_flavour(i) == 1:
        w_plus, w_minus = es.cosh_theta * plus, es.sinh_theta * minus
    else:
        w_plus, w_minus = es.sinh_theta * plus, es.cosh_theta * minus
    return w_plus[..., None] * es.e_plus + w_minus[..., None] * es.e_minus


def _scaled(components: np.ndarray, es: EigenSystem, normalised: bool) -> np.ndarray:
    return components * es.mixed_basis_norm if normalised else components


def flavour_ket(i: int, t, es: EigenSystem, normalised: bool = False) -> FlavourState:
    """The flavour ket |fi(t)>; equals the i-th basis vector at t = 0 when
    unnormalised."""
    return FlavourState(i, "ket", normalised, _scaled(_ket_components(i, t, es), es, normalised))


def tilde_bra(i: int, t, es: EigenSystem) -> FlavourState:
    """The biorthogonal bra <f~i(t)|, dual to the kets for every t."""
    c = es.canonical_flavour(i)
    sect_plus, sect_minus = cpt_conjugate(es.eta, [es.e_plus, es.e_minus]).components
    xp, xm = (np.conj(xi(branch, t, es))[..., None] for branch in ("plus", "minus"))
    if c == 1:
        comps = es.cosh_theta * xp * sect_plus - es.sinh_theta * xm * sect_minus
    else:
        comps = es.cosh_theta * xm * sect_minus - es.sinh_theta * xp * sect_plus
    return FlavourState(i, "tilde_bra", False, comps)


_PARITY_SIGNS = np.array([1.0, -1.0])


def cpt_bra(i: int, t, es: EigenSystem, normalised: bool = False) -> FlavourState:
    """The C'PT conjugate <fi^C'PT(t)| of the flavour ket, u^dag C' P.

    At t = 0 this is [1, eta] / sqrt(1 - eta^2) (or index-reversed), which
    is not a flavour state itself.
    """
    comps = _dot(_ket_components(i, t, es).conj(), es.cpt_metric)
    return FlavourState(i, "cpt_bra", normalised, _scaled(comps, es, normalised))


def pt_bra(i: int, t, es: EigenSystem, normalised: bool = False) -> FlavourState:
    """The PT conjugate <fi^PT(t)| = (|fi(t)>)^dag P."""
    comps = _ket_components(i, t, es).conj() * _PARITY_SIGNS
    return FlavourState(i, "pt_bra", normalised, _scaled(comps, es, normalised))


def dirac_bra(i: int, t, es: EigenSystem) -> FlavourState:
    """The Hermitian-conjugate bra <fi(t)| of the Dirac inner product."""
    return FlavourState(i, "dirac_bra", False, _ket_components(i, t, es).conj())


def cprime_ket(i: int, t, es: EigenSystem, normalised: bool = False) -> FlavourState:
    """The C'-reflected ket |fi^C'(t)> = C'^T |fi(t)>.

    Satisfies (C'^T v)^sect = v^dag P, which ties the mixed-basis overlaps
    to the PT inner product.
    """
    comps = _dot(_ket_components(i, t, es), es.cprime_transpose.T)
    return FlavourState(i, "cprime_ket", normalised, _scaled(comps, es, normalised))


def mixed_basis_states(i: int, t, es: EigenSystem,
                       normalised: bool = True) -> tuple[np.ndarray, np.ndarray]:
    """Ket and bra stacks of the orthonormal mixed basis at time(s) t, each
    of shape np.shape(t) + (2,) and sharing one evaluation of the flavour
    ket: (|f1>, <f1^C'PT|) for flavour 1 and (|f2^C'>, <f2^PT|) for
    flavour 2 (heavy-first labels)."""
    base = _ket_components(i, t, es)
    scale = es.mixed_basis_norm if normalised else 1.0
    if es.canonical_flavour(i) == 1:
        return scale * base, scale * _dot(base.conj(), es.cpt_metric)
    return scale * _dot(base, es.cprime_transpose.T), scale * (base.conj() * _PARITY_SIGNS)


def mixed_basis_pair(i: int, t, es: EigenSystem,
                     normalised: bool = True) -> tuple[FlavourState, FlavourState]:
    """mixed_basis_states as tagged FlavourStates."""
    ket, bra = mixed_basis_states(i, t, es, normalised)
    kinds = ("ket", "cpt_bra") if es.canonical_flavour(i) == 1 else ("cprime_ket", "pt_bra")
    return (FlavourState(i, kinds[0], normalised, ket),
            FlavourState(i, kinds[1], normalised, bra))


def mixed_basis_ket(i: int, t, es: EigenSystem, normalised: bool = True) -> FlavourState:
    """The ket member of the orthonormal mixed basis: |f1(t)> for flavour 1
    and |f2^C'(t)> for flavour 2 (heavy-first labelling)."""
    return mixed_basis_pair(i, t, es, normalised)[0]


def mixed_basis_bra(i: int, t, es: EigenSystem, normalised: bool = True) -> FlavourState:
    """The bra member of the orthonormal mixed basis: <f1^C'PT(t)| for
    flavour 1 and <f2^PT(t)| for flavour 2 (heavy-first labelling)."""
    return mixed_basis_pair(i, t, es, normalised)[1]
