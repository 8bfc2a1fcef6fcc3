"""Stacked calls equal a loop of single calls, exactly.

Every function that takes a leading batch shape must give, for each
element, the very value (==, not approx) that a single-point call on that
element gives; a single point is the batch of shape ().
"""

import math

import hypothesis as hyp
import hypothesis.strategies as st
import numpy as np
import pytest

from ptosc import (
    BrokenPTPhase,
    DegenerateDiagonal,
    DomainError,
    ExceptionalPoint,
    ModelParams,
    NegativeMixing,
    NonPositiveMass,
    cprime_matrix,
    cpt_conjugate,
    cpt_inner,
    dirac_inner,
    hermitian_eigenvalues,
    hermitian_mass_matrix,
    inner,
    make_params,
    mass_matrix,
    numeric_eigensystem,
    params_from_eta,
    parity_matrix,
    pt_conjugate,
    pt_eigenvalues,
)

SHAPES = [(), (1,), (7,), (3, 4)]
examples = hyp.settings(max_examples=25, deadline=None)
seeds = st.integers(0, 2**32 - 1)


def complex_stack(rng, shape, tail=(2,)):
    return rng.normal(size=shape + tail) + 1j * rng.normal(size=shape + tail)


def param_stack(rng, shape) -> ModelParams:
    """Valid points of either diagonal ordering, eta in [0, 0.99]."""
    m1, m2 = rng.uniform(0.2, 5.0, size=(2,) + shape)
    eta = rng.uniform(0.0, 0.99, size=shape)
    return ModelParams(m1, m2, 0.5 * eta * np.abs(m1 - m2), rng.uniform(0.0, 2.0, size=shape))


def single(params: ModelParams, idx) -> ModelParams:
    return make_params(*(float(np.asarray(getattr(params, name))[idx])
                         for name in ("m1_sq", "m2_sq", "mu_sq", "p")))


@examples
@hyp.given(seed=seeds, shape=st.sampled_from(SHAPES))
def test_inner_products_and_conjugations(seed, shape):
    rng = np.random.default_rng(seed)
    u, v = complex_stack(rng, shape), complex_stack(rng, shape)
    eta = rng.uniform(0.0, 0.99, size=shape)
    stacked = {
        "inner": inner(u, v),
        "dirac_inner": dirac_inner(u, v),
        "cpt_inner": cpt_inner(eta, u, v),
        "pt_conjugate": pt_conjugate(u).components,
        "cpt_conjugate": cpt_conjugate(eta, u).components,
    }
    for idx in np.ndindex(shape):
        e = float(eta[idx])
        one = {
            "inner": inner(u[idx], v[idx]),
            "dirac_inner": dirac_inner(u[idx], v[idx]),
            "cpt_inner": cpt_inner(e, u[idx], v[idx]),
            "pt_conjugate": pt_conjugate(u[idx]).components,
            "cpt_conjugate": cpt_conjugate(e, u[idx]).components,
        }
        for name, value in one.items():
            assert np.array_equal(np.asarray(stacked[name])[idx], value), name
    if shape == ():
        assert type(stacked["inner"]) is complex and type(stacked["cpt_inner"]) is complex


@examples
@hyp.given(seed=seeds, shape=st.sampled_from(SHAPES))
def test_shared_eta_broadcasts_over_a_vector_stack(seed, shape):
    rng = np.random.default_rng(seed)
    u, v = complex_stack(rng, shape), complex_stack(rng, shape)
    stacked = cpt_inner(0.4, u, v)
    for idx in np.ndindex(shape):
        assert np.asarray(stacked)[idx] == cpt_inner(0.4, u[idx], v[idx])


@examples
@hyp.given(seed=seeds, shape=st.sampled_from(SHAPES))
def test_cprime_matrix(seed, shape):
    eta = np.random.default_rng(seed).uniform(0.0, 0.999, size=shape)
    stacked = cprime_matrix(eta)
    assert stacked.shape == shape + (2, 2)
    for idx in np.ndindex(shape):
        assert np.array_equal(stacked[idx], cprime_matrix(float(eta[idx])))


@examples
@hyp.given(seed=seeds, shape=st.sampled_from(SHAPES))
def test_model_functions_on_parameter_stacks(seed, shape):
    params = param_stack(np.random.default_rng(seed), shape)
    pt, herm = pt_eigenvalues(params), hermitian_eigenvalues(params)
    matrices, herm_matrices = mass_matrix(params), hermitian_mass_matrix(params)
    assert matrices.shape == shape + (2, 2)
    pt, herm = np.asarray(pt), np.asarray(herm)
    for idx in np.ndindex(shape):
        one = single(params, idx)
        assert tuple(pt[(slice(None),) + idx]) == pt_eigenvalues(one)
        assert tuple(herm[(slice(None),) + idx]) == hermitian_eigenvalues(one)
        assert np.array_equal(matrices[idx], mass_matrix(one))
        assert np.array_equal(herm_matrices[idx], hermitian_mass_matrix(one))


def test_single_points_keep_their_python_types(params):
    for value in (*pt_eigenvalues(params), *hermitian_eigenvalues(params)):
        assert type(value) is float


@examples
@hyp.given(seed=seeds, shape=st.sampled_from(SHAPES), real=st.booleans())
def test_numeric_eigensystem(seed, shape, real):
    rng = np.random.default_rng(seed)
    matrices = rng.normal(size=shape + (2, 2))
    if not real:
        matrices = matrices + 1j * rng.normal(size=shape + (2, 2))
    # scalar matrices take the every-direction branch
    scalar = rng.random(size=shape) < 0.25
    matrices = np.where(scalar[..., None, None], 1.5 * np.eye(2), matrices)
    values, vectors = numeric_eigensystem(matrices)
    assert values.shape == shape + (2,) and vectors.shape == shape + (2, 2)
    for idx in np.ndindex(shape):
        one_values, one_vectors = numeric_eigensystem(matrices[idx])
        assert np.array_equal(values[idx], one_values)
        assert np.array_equal(vectors[idx], one_vectors)


def former_numeric_eigensystem(matrix):
    """The one-matrix eigensolver as it was before stacks, kept as reference."""
    a = np.asarray(matrix, dtype=complex)
    trace = a[0, 0] + a[1, 1]
    disc = np.sqrt(complex(trace * trace - 4.0 * (a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0])))
    eigenvalues = np.array([(trace + disc) / 2.0, (trace - disc) / 2.0])

    def eigenvector(lam):
        u = np.array([a[0, 1], lam - a[0, 0]])
        v = np.array([lam - a[1, 1], a[1, 0]])
        w = u if np.linalg.norm(u) >= np.linalg.norm(v) else v
        norm = np.linalg.norm(w)
        return np.array([1.0 + 0.0j, 0.0j]) if norm == 0.0 else w / norm

    return eigenvalues, np.column_stack([eigenvector(lam) for lam in eigenvalues])


@examples
@hyp.given(seed=seeds)
def test_single_points_equal_the_former_single_point_formulas(seed):
    """One point rounds as before stacks: np.dot contractions, vector-matrix
    products, math.sqrt and the one-matrix eigensolver."""
    rng = np.random.default_rng(seed)
    u, v = complex_stack(rng, ()), complex_stack(rng, ())
    eta = float(rng.uniform(0.0, 0.99))
    metric = np.array([[1.0, -eta], [eta, -1.0]]) / math.sqrt((1.0 - eta) * (1.0 + eta))
    assert inner(u, v) == complex(np.dot(u, v))
    assert np.array_equal(pt_conjugate(u).components, u.conj() @ parity_matrix())
    assert np.array_equal(cpt_conjugate(eta, u).components,
                          u.conj() @ metric @ parity_matrix())
    assert np.array_equal(cprime_matrix(eta), metric)
    params = single(param_stack(rng, ()), ())
    sigma, diff = 0.5 * (params.m1_sq + params.m2_sq), params.m1_sq - params.m2_sq
    half = 0.5 * abs(diff) * math.sqrt((1.0 - params.eta) * (1.0 + params.eta))
    assert pt_eigenvalues(params) == (sigma + half, sigma - half)
    half = 0.5 * math.sqrt(diff * diff + 4.0 * params.mu_sq * params.mu_sq)
    assert hermitian_eigenvalues(params) == (sigma + half, sigma - half)
    for matrix in (mass_matrix(params), hermitian_mass_matrix(params),
                   rng.normal(size=(2, 2)), complex_stack(rng, (), (2, 2)), 2.5 * np.eye(2),
                   np.array([[0.0, 1.0], [-1.0, 0.0]])):  # both candidates tie
        for got, want in zip(numeric_eigensystem(matrix), former_numeric_eigensystem(matrix)):
            assert np.array_equal(got, want)


@pytest.mark.parametrize("bad, error", [
    (1.0, ExceptionalPoint),
    (1.0 - 1e-13, ExceptionalPoint),
    (1.2, BrokenPTPhase),
    (-0.1, NegativeMixing),
])
def test_one_out_of_domain_eta_in_a_stack_raises(bad, error):
    eta = np.array([[0.1, 0.5], [bad, 0.3]])
    with pytest.raises(error):
        cprime_matrix(eta)
    with pytest.raises(error):
        cpt_conjugate(eta, np.ones((2, 2, 2)))


@examples
@hyp.given(seed=seeds, shape=st.sampled_from(SHAPES))
def test_parameters_from_an_eta_array(seed, shape):
    rng = np.random.default_rng(seed)
    eta = rng.uniform(0.0, 3.0, size=shape)
    sum_sq, ratio = rng.uniform(0.5, 5.0), rng.uniform(0.05, 0.95)
    batch = params_from_eta(eta, sum_sq, ratio)
    for idx in np.ndindex(shape):
        one = params_from_eta(float(eta[idx]), sum_sq, ratio)
        for name in ("m1_sq", "m2_sq", "mu_sq", "p"):
            assert np.asarray(getattr(batch, name))[idx] == getattr(one, name), name
    if shape == ():
        assert all(type(getattr(batch, name)) is float for name in ("m1_sq", "mu_sq"))


@pytest.mark.parametrize("fields, error", [
    ((2.0, 1.0, np.array([0.3, -0.1]), 0.0), NegativeMixing),
    ((np.array([2.0, 0.0]), 1.0, 0.3, 0.0), NonPositiveMass),
    ((np.array([2.0, 1.0]), 1.0, 0.3, 0.0), DegenerateDiagonal),
    ((2.0, 1.0, np.array([0.3, np.inf]), 0.0), DomainError),
    ((2.0, 1.0, 0.3, np.array([0.0, -1.0])), DomainError),
])
def test_one_out_of_domain_parameter_in_a_batch_raises(fields, error):
    with pytest.raises(error):
        make_params(*fields)
