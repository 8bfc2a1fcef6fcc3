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
orthonormal once every state carries a factor sqrt(sech(2 theta)), which
the mixed_basis functions apply and the single-state functions do not.  The
factor is split symmetrically between ket and bra so density operators get
one net sech(2 theta) and unit trace.

Flavour indices follow the caller's labelling; for m1^2 < m2^2 they are
mapped onto the heavy-first orientation internally (see model.EigenSystem)
and components refer to heavy-first axes.  Negative t is allowed
everywhere; states are evaluated eagerly at the given time.

Every function here also takes arrays of times and flavour indices and a
stacked EigenSystem, broadcast together: components have the broadcast
shape + (2,), each element equal to its single-point value bit for bit, so
flavour_ket(np.array([[1], [2]]), times, es[:, None, None]) gives both
flavours of every system at every time in one call.  Kets and bras are
plain component arrays; mixed_basis_pair is the form the trace route uses.
Where the flavours take different constructions (mixed_basis_pair,
tilde_bra), each element picks its matrix or rows first (in Python for an
int flavour, by np.where over a stack) and one expression builds them all;
a flavour-1 ket is thus an identity product and a flavour-2 bra a P product,
so a point rounds, signs of zero included, as its stack element does.
"""

import numpy as np

from .model import _PARITY_SIGNS, EigenSystem, _dot, _select, _unbox

# the matrices that make a flavour-1 ket and a flavour-2 bra of the mixed basis
_IDENTITY, _PARITY = np.eye(2), np.diag(_PARITY_SIGNS)


def xi(branch: str, t, es: EigenSystem) -> complex:
    """Mode phase exp(i omega_branch t), one plane-wave mode of the
    classical equation of motion d^2 xi / dt^2 = -omega^2 xi; unit modulus
    for every t.  The same phase as the kets' expansion."""
    return _unbox(np.exp(1j * es.omega(branch) * t))


def _per_component(x):
    """A per-system quantity or flavour mask with an axis to meet (..., 2) components."""
    return x[..., None] if isinstance(x, np.ndarray) else x


def _ket_components(one, t, es: EigenSystem) -> np.ndarray:
    """Components of |fi(t)> (one = es._heavy_first_one(i)), broadcast + (2,)."""
    plus = np.exp(1j * es.omega_plus * t)
    minus = np.exp(1j * es.omega_minus * t)
    w_plus = _select(one, es.cosh_theta, es.sinh_theta) * plus
    w_minus = _select(one, es.sinh_theta, es.cosh_theta) * minus
    return w_plus[..., None] * es.e_plus + w_minus[..., None] * es.e_minus


def flavour_ket(i, t, es: EigenSystem) -> np.ndarray:
    """The flavour ket |fi(t)>; equals the i-th basis vector at t = 0."""
    return _ket_components(es._heavy_first_one(i), t, es)


def tilde_bra(i, t, es: EigenSystem) -> np.ndarray:
    """The biorthogonal bra <f~i(t)|, dual to the kets for every t."""
    pick = _per_component(es._heavy_first_one(i))
    # complex rows, so that the product with C'P rounds as cpt_bra's does
    vectors = np.stack([es.e_plus, es.e_minus]).astype(complex)
    sect_plus, sect_minus = _dot(vectors.conj(), es.cpt_metric)
    cosh, sinh = _per_component(es.cosh_theta), _per_component(es.sinh_theta)
    xp, xm = (np.conj(xi(branch, t, es))[..., None] for branch in ("plus", "minus"))
    # flavour 1 leads with the + branch, flavour 2 with the - branch
    return (cosh * _select(pick, xp, xm) * _select(pick, sect_plus, sect_minus)
            - sinh * _select(pick, xm, xp) * _select(pick, sect_minus, sect_plus))


def cpt_bra(i, t, es: EigenSystem) -> np.ndarray:
    """The C'PT conjugate <fi^C'PT(t)| of the flavour ket, u^dag C' P.

    At t = 0 this is [1, eta] / sqrt(1 - eta^2) (or index-reversed), which
    is not a flavour state itself.
    """
    return _dot(_ket_components(es._heavy_first_one(i), t, es).conj(), es.cpt_metric)


def pt_bra(i, t, es: EigenSystem) -> np.ndarray:
    """The PT conjugate <fi^PT(t)| = (|fi(t)>)^dag P."""
    return _ket_components(es._heavy_first_one(i), t, es).conj() * _PARITY_SIGNS


def dirac_bra(i, t, es: EigenSystem) -> np.ndarray:
    """The Hermitian-conjugate bra <fi(t)| of the Dirac inner product."""
    return _ket_components(es._heavy_first_one(i), t, es).conj()


def cprime_ket(i, t, es: EigenSystem) -> np.ndarray:
    """The C'-reflected ket |fi^C'(t)> = C'^T |fi(t)>.

    Satisfies (C'^T v)^sect = v^dag P, which ties the mixed-basis overlaps
    to the PT inner product.
    """
    comps = _ket_components(es._heavy_first_one(i), t, es)
    return _dot(comps, es.cprime)  # rows: (C'^T v)^T = v^T C'


def mixed_basis_pair(i, t, es: EigenSystem) -> tuple[np.ndarray, np.ndarray]:
    """Ket and bra stacks of the orthonormal mixed basis, sharing one
    evaluation of the flavour ket: (|f1>, <f1^C'PT|) for flavour 1 and
    (|f2^C'>, <f2^PT|) for flavour 2 (heavy-first labels)."""
    one = es._heavy_first_one(i)
    pick = one if isinstance(one, bool) else one[..., None, None]
    base = _ket_components(one, t, es)
    scale = _per_component(es.mixed_basis_norm)
    return (scale * _dot(base, _select(pick, _IDENTITY, es.cprime)),
            scale * _dot(base.conj(), _select(pick, es.cpt_metric, _PARITY)))


def mixed_basis_ket(i, t, es: EigenSystem) -> np.ndarray:
    """The ket member of the orthonormal mixed basis: |f1(t)> for flavour 1
    and |f2^C'(t)> for flavour 2 (heavy-first labelling)."""
    return mixed_basis_pair(i, t, es)[0]


def mixed_basis_bra(i, t, es: EigenSystem) -> np.ndarray:
    """The bra member of the orthonormal mixed basis: <f1^C'PT(t)| for
    flavour 1 and <f2^PT(t)| for flavour 2 (heavy-first labelling)."""
    return mixed_basis_pair(i, t, es)[1]
