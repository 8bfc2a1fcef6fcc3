"""Stacked calls equal a loop of single calls, exactly.

Every function that takes a leading batch shape must give, for each
element, the very value (==, not approx) that a single-point call on that
element gives; a single point is the batch of shape ().
"""

import cmath
import dataclasses
import math
import re

import hypothesis as hyp
import hypothesis.strategies as st
import numpy as np
import pytest

from ptosc import (
    BrokenPTPhase,
    DomainError,
    ExceptionalPoint,
    ModelParams,
    brute_force_probability,
    cprime_ket,
    cprime_matrix,
    cpt_bra,
    cpt_conjugate,
    cpt_inner,
    density_operator,
    dirac_bra,
    dirac_dagger,
    dirac_inner,
    eigensystem,
    flavour_ket,
    hermitian_eigenvalues,
    hermitian_mass_matrix,
    inner,
    make_params,
    mass_matrix,
    mixed_basis_bra,
    mixed_basis_ket,
    mixed_basis_pair,
    numeric_eigensystem,
    params_from_eta,
    parity_matrix,
    probability_closed_form,
    probability_trace,
    projection_operator,
    pt_bra,
    pt_conjugate,
    pt_eigenvalues,
    tilde_bra,
    xi,
)
from ptosc.model import _dot, _flavour_one, _unbox
from ptosc.states import _per_component
from ptosc.validation import GRID_I, GRID_J, _as_pairs

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
        "pt_conjugate": pt_conjugate(u),
        "cpt_conjugate": cpt_conjugate(eta, u),
    }
    for idx in np.ndindex(shape):
        e = float(eta[idx])
        one = {
            "inner": inner(u[idx], v[idx]),
            "dirac_inner": dirac_inner(u[idx], v[idx]),
            "cpt_inner": cpt_inner(e, u[idx], v[idx]),
            "pt_conjugate": pt_conjugate(u[idx]),
            "cpt_conjugate": cpt_conjugate(e, u[idx]),
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
    assert np.array_equal(pt_conjugate(u), u.conj() @ parity_matrix())
    assert np.array_equal(cpt_conjugate(eta, u),
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


# a scalar matrix, a defective Jordan block, a broken-phase pair, zero, and a
# triangular matrix whose negative-zero imaginary parts reach its roots
SPECIAL_MATRICES = np.array([1.5 * np.eye(2), [[2.0, 1.0], [0.0, 2.0]],
                             [[1.0, 2.0], [-2.0, 1.0]], np.zeros((2, 2)),
                             np.conj(np.array([[-1.0, -1.0], [0.0, 2.0]]) + 0j)])


@examples
@hyp.given(seed=seeds, shape=st.sampled_from(SHAPES), real=st.booleans(),
           k=st.integers(-600, 600))
def test_the_root_core_gives_numeric_eigensystem_eigenvalues(seed, shape, real, k):
    """oracle._eigenvalues, which the eigenvalue families call, returns the
    bytes of numeric_eigensystem's eigenvalues (signs of zero included) on
    stacks scaled by 2**k, and refuses a non-finite entry with the same text."""
    from ptosc.oracle import _eigenvalues

    rng = np.random.default_rng(seed)
    matrices = rng.normal(size=shape + (2, 2))
    if not real:
        matrices = matrices + 1j * rng.normal(size=shape + (2, 2))
    pool = SPECIAL_MATRICES.real if real else SPECIAL_MATRICES
    special = rng.integers(-len(pool), len(pool), size=shape)  # below 0: keep the draw
    matrices = np.where((special >= 0)[..., None, None], pool[special], matrices)
    # times 2**k, exactly and keeping signs of zero (a complex product need not)
    matrices = np.ldexp(matrices.view(float), k).view(matrices.dtype)
    assert same_bits(_eigenvalues(matrices)[0], numeric_eigensystem(matrices)[0])

    matrices.flat[rng.integers(matrices.size)] = rng.choice([np.inf, -np.inf, np.nan])
    messages = []
    for fn in (_eigenvalues, numeric_eigensystem):
        with pytest.raises(DomainError) as refused:
            fn(matrices)
        messages.append(str(refused.value))
    assert messages == ["matrix entries must be finite"] * 2


@pytest.mark.parametrize("fn", [
    flavour_ket, tilde_bra, cpt_bra, pt_bra, dirac_bra, cprime_ket, mixed_basis_ket,
    mixed_basis_bra, density_operator, projection_operator,
    pytest.param(lambda i, t, es: mixed_basis_pair(i, t, es)[0], id="mixed_basis_pair-ket"),
    pytest.param(lambda i, t, es: mixed_basis_pair(i, t, es)[1], id="mixed_basis_pair-bra"),
    pytest.param(lambda i, t, es: dirac_dagger(flavour_ket(i, t, es)), id="dirac_dagger"),
    pytest.param(lambda i, t, es: pt_conjugate(flavour_ket(i, t, es)), id="pt_conjugate"),
    pytest.param(lambda i, t, es: cpt_conjugate(es.eta, flavour_ket(i, t, es)),
                 id="cpt_conjugate"),
])
def test_states_conjugations_and_operators_are_plain_arrays(fn):
    """A scalar call and a stacked call both give an ndarray, nothing wrapped."""
    es = eigensystem(params_from_eta(np.array([0.2, 0.6])))
    single = fn(1, 0.4, es[0])
    stacked = fn(np.array([[1], [2]]), np.array([0.0, 0.4, 1.3]), es[:, None, None])
    assert type(single) is np.ndarray and single.shape[0] == 2
    assert type(stacked) is np.ndarray and stacked.shape[:3] == (2, 2, 3)


@pytest.mark.parametrize("bad, error", [
    (1.0, ExceptionalPoint),
    (1.0 - 1e-13, ExceptionalPoint),
    (1.2, BrokenPTPhase),
    pytest.param(-0.1, "eta must be non-negative, got -0.1", id="-0.1-NegativeMixing"),
    (math.nan, DomainError),
])
def test_one_out_of_domain_eta_in_a_stack_raises(bad, error):
    """``error`` is an exception type, or the message of a plain DomainError."""
    error, match = (DomainError, re.escape(error)) if isinstance(error, str) else (error, None)
    eta = np.array([[0.1, 0.5], [bad, 0.3]])
    with pytest.raises(error, match=match):
        cprime_matrix(eta)
    with pytest.raises(error, match=match):
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
    ((2.0, 1.0, np.array([0.3, -0.1]), 0.0), "mu_sq must be non-negative"),
    ((np.array([2.0, 0.0]), 1.0, 0.3, 0.0), "diagonal squared masses must be positive"),
    ((np.array([2.0, 1.0]), 1.0, 0.3, 0.0),
     "m1_sq == m2_sq: eta is undefined for a degenerate diagonal"),
    ((2.0, 1.0, np.array([0.3, np.inf]), 0.0), DomainError),
    ((2.0, 1.0, 0.3, np.array([0.0, -1.0])), DomainError),
])
def test_one_out_of_domain_parameter_in_a_batch_raises(fields, error):
    """``error`` is an exception type, or the message of a plain DomainError."""
    error, match = (DomainError, re.escape(error)) if isinstance(error, str) else (error, None)
    with pytest.raises(error, match=match):
        make_params(*fields)


# --- stacked eigensystems, the trace route and the oracle ----------------------

PAIR_I, PAIR_J = np.array([[1], [1], [2], [2]]), np.array([[1], [2], [1], [2]])
ES_FIELDS = ("eta", "theta", "cosh_theta", "sinh_theta", "n_factor", "m_plus_sq", "m_minus_sq",
             "omega_plus", "omega_minus", "delta_omega", "swapped")


def system_stack(rng, shape) -> ModelParams:
    """param_stack with about one point in five at eta = 0."""
    params = param_stack(rng, shape)
    mu_sq = np.where(rng.random(size=shape) < 0.2, 0.0, params.mu_sq)
    return ModelParams(params.m1_sq, params.m2_sq, mu_sq, params.p)


def along(shape, extra):
    """Index keeping the stack axes and adding ``extra`` trailing ones."""
    return (slice(None),) * len(shape) + (None,) * extra


@examples
@hyp.given(seed=seeds, shape=st.sampled_from(SHAPES))
def test_eigensystem_of_a_stack_equals_per_system_calls(seed, shape):
    params = system_stack(np.random.default_rng(seed), shape)
    es = eigensystem(params)
    assert np.shape(es.eta) == shape and es.e_plus.shape == shape + (2,)
    for idx in np.ndindex(shape):
        one, picked = eigensystem(single(params, idx)), es[idx]
        for name in ES_FIELDS:
            assert np.asarray(getattr(es, name))[idx] == getattr(one, name), name
            assert type(getattr(picked, name)) is type(getattr(one, name)), name
        for name in ("sech_two_theta", "cosh_two_theta", "sinh_two_theta", "mixed_basis_norm"):
            assert np.asarray(getattr(es, name))[idx] == getattr(one, name), name
        for name in ("e_plus", "e_minus", "cpt_metric", "cprime"):
            assert np.array_equal(getattr(es, name)[idx], getattr(one, name)), name
        assert np.array_equal(es.oriented_mass_matrix()[idx], one.oriented_mass_matrix())
        assert np.array_equal(flavour_ket(1, 0.0, picked), flavour_ket(1, 0.0, one))


@examples
@hyp.given(seed=seeds, shape=st.sampled_from(SHAPES))
def test_trace_over_systems_and_flavour_pairs_equals_per_pair_calls(seed, shape):
    rng = np.random.default_rng(seed)
    params = system_stack(rng, shape)
    es = eigensystem(params)
    t0s = rng.uniform(-20.0, 20.0, size=3)
    ts = t0s + rng.uniform(0.0, 10.0, size=(4, 1))
    values = probability_trace(PAIR_I[..., None], PAIR_J[..., None], t0s, ts,
                               es[along(shape, 3)]).value
    assert type(values) is np.ndarray and values.shape == shape + (4, 4, 3)
    for idx in np.ndindex(shape):
        one = eigensystem(single(params, idx))
        for k, (i, j) in enumerate(zip(PAIR_I[:, 0].tolist(), PAIR_J[:, 0].tolist())):
            assert same_bits(values[idx + (k,)], probability_trace(i, j, t0s, ts, one).value)
            point = probability_trace(i, j, t0s[2], ts[3, 2], one).value
            assert type(point) is float and same_bits(np.float64(point), values[idx + (k, 3, 2)])


# the axes each EigenSystem field has beyond eta's (the others have none)
TRAILING_AXES = {"e_plus": 1, "e_minus": 1, "cprime": 2, "cpt_metric": 2}
DERIVED = ("cprime", "cpt_metric", "mixed_basis_norm", "sech_two_theta")
SLICE_KEYS = {"int": 2, "negative int": -1, "slice": slice(1, 5),
              "mask": np.array([True, False, True, True, False, False, True]),
              "all-False mask": np.zeros(7, dtype=bool),
              "[:, None]": (slice(None), None),
              "[:, None, None, None]": (slice(None), None, None, None),
              "[:, None, None, None, None]": (slice(None), None, None, None, None),
              "[..., None]": (Ellipsis, None), "[..., 2]": (Ellipsis, 2)}


def reference_slice(es, key) -> dict:
    """es[key] built field by field: params as ModelParams.__getitem__ slices
    them, and every other field indexed by the key and whole trailing axes."""
    key = key if isinstance(key, tuple) else (key,)
    p = es.params
    fields = {"params": ModelParams(*(_unbox(v[key]) for v in np.broadcast_arrays(
        p.m1_sq, p.m2_sq, p.mu_sq, p.p)))}
    for f in dataclasses.fields(es)[1:]:
        index = key + (slice(None),) * TRAILING_AXES.get(f.name, 0)
        fields[f.name] = _unbox(np.asarray(getattr(es, f.name))[index])
    return fields


def same_bits(a, b) -> bool:
    """Same type, shape and bytes (signs of zero included)."""
    return (type(a) is type(b) and np.shape(a) == np.shape(b)
            and np.asarray(a).tobytes() == np.asarray(b).tobytes())


@pytest.mark.parametrize("touched", [(), ("cprime",), DERIVED], ids=["none", "cprime", "all"])
@pytest.mark.parametrize("key", SLICE_KEYS.values(), ids=SLICE_KEYS.keys())
@pytest.mark.parametrize("heavy_first", [True, False], ids=["heavy_first", "light_first"])
def test_a_slice_equals_the_field_by_field_slice(heavy_first, key, touched):
    """Every stored field of es[key] (C', C'P, the mixed-basis norm and
    sech(2 theta) included) equals the reference slice bit for bit, whatever
    was read from the stack before: reading a derived field builds nothing
    and leaves the stack's fields the same objects.  The light-first stack
    shares one Python-float momentum."""
    rng = np.random.default_rng(11)
    hi, lo = np.sort(rng.uniform(0.2, 5.0, size=(2, 7)), axis=0)[::-1]
    eta = np.append(rng.uniform(0.0, 0.99, size=6), 0.0)
    m1, m2, p = (hi, lo, rng.uniform(0.0, 2.0, size=7)) if heavy_first else (lo, hi, 0.7)
    es = eigensystem(ModelParams(m1, m2, 0.5 * eta * (hi - lo), p))
    stored = dict(vars(es))
    for name in touched:
        getattr(es, name)
    assert vars(es).keys() == stored.keys()
    assert all(vars(es)[name] is value for name, value in stored.items())

    assert_same_fields(es[key], reference_slice(es, key))


@pytest.mark.parametrize("m1_sq, m2_sq", [(2.3, 1.1), (1.1, 2.3)],
                         ids=["heavy_first", "light_first"])
def test_a_points_none_slice_equals_the_field_by_field_slice(m1_sq, m2_sq):
    """es[None] of one system (Python-number fields, as check_all's es[-1]
    gives) is a one-system stack with the reference slice's bits."""
    es = eigensystem(make_params(m1_sq, m2_sq, 0.4, 0.7))
    assert_same_fields(es[None], reference_slice(es, None))
    assert_same_fields(es[None][-1], reference_slice(es, ()))


def assert_same_fields(got, want: dict) -> None:
    """Every field of the system got has the bits of want's entry, params
    field by field."""
    assert {*want} == {*vars(got)}
    for name, value in want.items():
        if name == "params":
            for field in ("m1_sq", "m2_sq", "mu_sq", "p"):
                assert same_bits(getattr(got.params, field), getattr(value, field)), field
        else:
            assert same_bits(getattr(got, name), value), name


@pytest.mark.parametrize("m1_sq, m2_sq", [(2.0, 1.0), (1.0, 2.0)],
                         ids=["heavy_first", "light_first"])
def test_scalar_masses_with_an_array_mixing_slice_as_their_points(m1_sq, m2_sq):
    """ModelParams with Python-float masses and an array mu^2 is a stack of
    eta's shape, swapped included, and each slice equals the system of that
    point built with make_params."""
    mu_sq = np.array([0.1, 0.2, 0.3])
    es = eigensystem(ModelParams(m1_sq, m2_sq, mu_sq, 0.0))
    assert np.shape(es.swapped) == np.shape(es.eta) == (3,)
    for k in range(3):
        assert_same_fields(es[k], vars(eigensystem(make_params(m1_sq, m2_sq, mu_sq[k].item()))))


HALF_BATCHES = {  # one array field among Python floats: (fields, the array's index)
    "array_momentum": ((2.0, 1.0, 0.3, np.array([0.0, 1.0, 2.0])), 3),
    "array_mixing": ((2.0, 1.0, np.array([0.1, 0.2, 0.3]), 0.0), 2),
}


@pytest.mark.parametrize("swap", [False, True], ids=["heavy_first", "light_first"])
@pytest.mark.parametrize("batch", list(HALF_BATCHES))
def test_a_params_batch_has_one_shape(batch, swap):
    """A ModelParams with one array field is a batch of that field's shape:
    every slice, every matrix, eigensystem and oracle value equals the call
    on that point built with make_params."""
    from ptosc import (
        brute_force_dirac_norm,
        brute_force_dirac_overlap,
        brute_force_flavour_ket,
        brute_force_operator,
    )

    fields, axis = HALF_BATCHES[batch]
    if swap:
        fields = (fields[1], fields[0], *fields[2:])
    params = ModelParams(*fields)
    assert all(np.shape(getattr(params, f)) == (3,) for f in ("m1_sq", "m2_sq", "mu_sq", "p"))
    times, flavours = np.array([-2.0, 0.0, 3.3]), np.array([[1], [2]])
    es = eigensystem(params)
    column = params[:, None, None]
    stacked = {
        "mass_matrix": mass_matrix(params),
        "hermitian_mass_matrix": hermitian_mass_matrix(params),
        "probability": brute_force_probability(column, PAIR_I, PAIR_J, 0.3, 0.3 + times),
        "ket": brute_force_flavour_ket(column, flavours, times),
        "operator": brute_force_operator(column, flavours, times),
        "norm": brute_force_dirac_norm(column, flavours, times),
        "overlap": brute_force_dirac_overlap(params[:, None], times),
    }
    for k in range(3):
        one = make_params(*(f[k].item() if n == axis else f for n, f in enumerate(fields)))
        assert vars(params[k]) == vars(one)
        assert_same_fields(es[k], vars(eigensystem(one)))
        per_point = {
            "mass_matrix": mass_matrix(one),
            "hermitian_mass_matrix": hermitian_mass_matrix(one),
            "probability": brute_force_probability(one, PAIR_I, PAIR_J, 0.3, 0.3 + times),
            "ket": brute_force_flavour_ket(one, flavours, times),
            "operator": brute_force_operator(one, flavours, times),
            "norm": brute_force_dirac_norm(one, flavours, times),
            "overlap": brute_force_dirac_overlap(one, times),
        }
        for name, value in per_point.items():
            assert same_bits(stacked[name][k], value), name


@examples
@hyp.given(seed=seeds, n=st.integers(1, 5))
def test_a_flavour_grid_equals_the_four_pair_rows(seed, n):
    """check_all's 2 x 2 flavour grid (i a column, j a row), reshaped to the
    pair order (1, 1), (1, 2), (2, 1), (2, 2), equals the (4, 1) pair-column
    calls bit for bit."""
    rng = np.random.default_rng(seed)
    params = system_stack(rng, (n,))
    es = eigensystem(params)
    t0s = rng.uniform(-20.0, 20.0, size=3)
    dts = rng.uniform(0.0, 10.0, size=(n, 6))
    calls = [  # (pairs as rows, pairs as a grid)
        (probability_trace(PAIR_I, PAIR_J, 0.0, dts[:, None], es[:, None, None]).value,
         probability_trace(GRID_I, GRID_J, 0.0, dts[:, None, None],
                           es[:, None, None, None]).value),
        (probability_trace(PAIR_I[..., None], PAIR_J[..., None], t0s,
                           t0s + dts[:, None, :, None], es[:, None, None, None]).value,
         probability_trace(GRID_I[..., None], GRID_J[..., None], t0s,
                           t0s + dts[:, None, None, :, None], es[:, None, None, None, None]).value),
        (brute_force_probability(params[:, None, None], PAIR_I, PAIR_J, t0s[0],
                                 t0s[0] + dts[:, None]),
         brute_force_probability(params[:, None, None, None], GRID_I, GRID_J, t0s[0],
                                 t0s[0] + dts[:, None, None])),
        (probability_closed_form(PAIR_I, PAIR_J, dts[:, None], es[:, None, None]).value,
         probability_closed_form(GRID_I, GRID_J, dts[:, None, None],
                                 es[:, None, None, None]).value),
    ]
    for rows, grid in calls:
        assert grid.shape[1:3] == (2, 2)
        assert same_bits(_as_pairs(grid), rows)


def former_xi(branch, t, es):
    """xi from cmath, one element at a time, as it was built before (the reference)."""
    omega, t = np.broadcast_arrays(es.omega(branch), t)
    phases = [cmath.exp(1j * w * x) for w, x in zip(omega.ravel().tolist(), t.ravel().tolist())]
    return _unbox(np.array(phases, dtype=complex).reshape(t.shape))


def former_tilde_bra(i, t, es):
    """tilde_bra with its rows from inner.cpt_conjugate, which builds C' from
    eta, and with former_xi (the reference)."""
    one = np.asarray(es._heavy_first_one(i))[..., None]
    sect_plus, sect_minus = cpt_conjugate(es.eta, np.stack([es.e_plus, es.e_minus]))
    cosh, sinh = _per_component(es.cosh_theta), _per_component(es.sinh_theta)
    xp, xm = (np.conj(former_xi(branch, t, es))[..., None] for branch in ("plus", "minus"))
    return np.where(one, cosh * xp * sect_plus - sinh * xm * sect_minus,
                    cosh * xm * sect_minus - sinh * xp * sect_plus)


@pytest.mark.parametrize("flavours", [(1, 1), (2, 2), (1, 2)], ids=["all_1", "all_2", "mixed"])
@pytest.mark.parametrize("heavy_first", [True, False], ids=["heavy_first", "light_first"])
def test_mixed_basis_and_tilde_bra_stacks_equal_point_calls(heavy_first, flavours):
    """Both members of mixed_basis_pair, and tilde_bra, over systems x
    flavours x times equal each point call bit for bit, signs of zero
    included: the stack holds eta = 0, where e_plus carries -0.0, and the
    times hold 0.0 and -0.0.  A stack of one flavour takes the same
    construction as a stack of both."""
    rng = np.random.default_rng(29)
    hi, lo = np.sort(rng.uniform(0.2, 5.0, size=(2, 4)), axis=0)[::-1]
    eta = np.array([0.0, 0.4, 0.0, 0.95])
    m1, m2 = (hi, lo) if heavy_first else (lo, hi)
    params = ModelParams(m1, m2, 0.5 * eta * (hi - lo), rng.uniform(0.0, 2.0, size=4))
    es, times, column = eigensystem(params), reference_times(rng), np.array(flavours)[:, None]
    kets, bras = mixed_basis_pair(column, times, es[:, None, None])
    tildes = tilde_bra(column, times, es[:, None, None])
    for s, k, n in np.ndindex(kets.shape[:3]):
        one, i, t = eigensystem(single(params, s)), flavours[k], float(times[n])
        ket, bra = mixed_basis_pair(i, t, one)
        assert same_bits(kets[s, k, n], ket), (s, i, t)
        assert same_bits(bras[s, k, n], bra), (s, i, t)
        assert same_bits(tildes[s, k, n], tilde_bra(i, t, one)), (s, i, t)


def former_operator(data, i, t):
    """oracle._operator building both flavours' kets and factors, then
    selecting with np.where (the reference)."""
    from ptosc.oracle import _ket

    one = np.asarray(_flavour_one(i))[..., None]
    ket1, ket2 = _ket(data, 1, t), _ket(data, 2, t)
    left = np.where(one, ket1, _dot(ket2, data.symmetry.swapaxes(-1, -2)))
    metric = parity_matrix() @ data.symmetry
    right = np.where(one, _dot(ket1.conj(), metric), _dot(ket2.conj(), parity_matrix()))
    op = left[..., :, None] * right[..., None, :]
    return op / (op[..., 0, 0] + op[..., 1, 1])[..., None, None]


def reference_times(rng):
    return np.append(rng.uniform(-50.0, 50.0, size=5), [0.0, -0.0])


@examples
@hyp.given(seed=seeds, shape=st.sampled_from(SHAPES))
def test_xi_and_tilde_bra_equal_their_former_constructions(seed, shape):
    """xi from np.exp equals the cmath loop, and tilde_bra contracting the
    stored C'P equals the cpt_conjugate rows, bit for bit and in type."""
    rng = np.random.default_rng(seed)
    es = eigensystem(system_stack(rng, shape))
    times, flavours = reference_times(rng), np.array([[1], [2]])
    for branch in ("plus", "minus"):
        per_time = es[along(shape, 1)]
        assert same_bits(xi(branch, times, per_time), former_xi(branch, times, per_time))
    per_time = es[along(shape, 2)]
    assert same_bits(tilde_bra(flavours, times, per_time),
                     former_tilde_bra(flavours, times, per_time))
    for idx in np.ndindex(shape):
        one, t = es[idx], float(times[0])
        for branch in ("plus", "minus"):
            assert same_bits(xi(branch, t, one), former_xi(branch, t, one))
        for i in (1, 2):
            assert same_bits(tilde_bra(i, t, one), former_tilde_bra(i, t, one))


@examples
@hyp.given(seed=seeds, shape=st.sampled_from(SHAPES))
def test_operator_equals_the_former_two_ket_form(seed, shape):
    from ptosc import brute_force_operator
    from ptosc.oracle import _spectral_data

    rng = np.random.default_rng(seed)
    params = system_stack(rng, shape)
    times = reference_times(rng)
    for i, extra in ((1, 1), (2, 1), (np.array([[1], [2]]), 2), (GRID_I, 3)):
        stack = params[along(shape, extra)]
        assert same_bits(brute_force_operator(stack, i, times),
                         former_operator(_spectral_data(stack), i, times))


@examples
@hyp.given(seed=seeds, shape=st.sampled_from(SHAPES))
def test_oracle_over_a_params_stack_equals_per_point_calls(seed, shape):
    from ptosc import (
        brute_force_dirac_norm,
        brute_force_dirac_overlap,
        brute_force_flavour_ket,
        brute_force_operator,
        brute_force_probability,
    )
    from ptosc.oracle import _spectral_data

    rng = np.random.default_rng(seed)
    params = system_stack(rng, shape)
    times = rng.uniform(-20.0, 20.0, size=5)
    flavours = np.array([[1], [2]])
    data = _spectral_data(params)
    stacked = {
        "probability": brute_force_probability(params[along(shape, 2)], PAIR_I, PAIR_J,
                                               0.3, times),
        "norm": brute_force_dirac_norm(params[along(shape, 2)], flavours, times),
        "overlap": brute_force_dirac_overlap(params[along(shape, 1)], times),
        "ket": brute_force_flavour_ket(params[along(shape, 2)], flavours, times),
        "operator": brute_force_operator(params[along(shape, 2)], flavours, times),
    }
    for idx in np.ndindex(shape):
        one = single(params, idx)
        reference = _spectral_data(one)
        for name, field in vars(data).items():
            assert np.array_equal(field[idx], getattr(reference, name)), name
        per_point = {
            "probability": brute_force_probability(one, PAIR_I, PAIR_J, 0.3, times),
            "norm": brute_force_dirac_norm(one, flavours, times),
            "overlap": brute_force_dirac_overlap(one, times),
            "ket": brute_force_flavour_ket(one, flavours, times),
            "operator": brute_force_operator(one, flavours, times),
        }
        for name, value in per_point.items():
            assert np.array_equal(stacked[name][idx], value), name


@examples
@hyp.given(seed=seeds, shape=st.sampled_from(SHAPES))
def test_a_sliced_solve_equals_a_solve_of_the_sliced_params(seed, shape):
    """check_all solves its systems once and hands slices of the solve to the
    oracle cores: each slice, and each core on it, has a fresh solve's bits,
    and the Dirac overlap of shared flavour kets has its own call's bits."""
    from ptosc import brute_force_dirac_norm, brute_force_dirac_overlap, brute_force_probability
    from ptosc import oracle

    rng = np.random.default_rng(seed)
    params = system_stack(rng, shape)
    times = rng.uniform(-20.0, 20.0, size=5)
    data = oracle._spectral_data(params)
    for extra in (1, 2, 3):
        key = along(shape, extra)
        sliced, fresh = data[key], oracle._spectral_data(params[key])
        for name, field in vars(sliced).items():
            assert same_bits(field, getattr(fresh, name)), name
    pairs, flavours = along(shape, 2), np.array([[1], [2]])
    assert same_bits(oracle._probability(data[pairs], PAIR_I, PAIR_J, 0.3, times),
                     brute_force_probability(params[pairs], PAIR_I, PAIR_J, 0.3, times))
    kets = oracle._ket(data[pairs], flavours, times)
    assert same_bits(oracle._dirac_overlap(kets, kets).real,
                     brute_force_dirac_norm(params[pairs], flavours, times))
    assert same_bits(oracle._dirac_overlap(kets[..., 0, :, :], kets[..., 1, :, :]),
                     brute_force_dirac_overlap(params[along(shape, 1)], times))


GOOD_POINTS = [(2.0, 1.0, 0.3, 0.0), (1.0, 2.0, 0.2, 0.5), (4.2, 1.3, 0.0, 0.7)]
BAD_POINTS = [
    (2.0, 1.0, 0.6, 0.0),              # eta = 1.2: broken PT phase
    (2.0, 1.0, 0.5, 0.0),              # eta = 1: exceptional point
    (2.0, 1.0, 0.5 - 1e-14, 0.0),      # inside the exceptional-point band
    (1.0, 1e-17, 0.0, 0.0),            # lower squared mass rounds to 0
    (1e308, 5e307, 0.0, 1.3e154),      # p^2 + m^2 overflows
]


def raised(fn, *args):
    """The exception class fn(*args) raises, or None."""
    try:
        fn(*args)
    except Exception as exc:  # noqa: BLE001 - the class is what is compared
        return type(exc)
    return None


@examples
@hyp.given(points=st.lists(st.sampled_from(GOOD_POINTS + BAD_POINTS), min_size=1, max_size=5))
def test_a_stack_raises_as_a_loop_over_its_points_does(points):
    """The first point out of domain decides the exception class, and so
    the CLI's exit code, as it would in a loop of single-point calls."""
    from ptosc.oracle import _spectral_data

    stack = ModelParams(*(np.array(field) for field in zip(*points)))
    with np.errstate(over="ignore", invalid="ignore"):  # the oracle at m^2 = 1e308
        for fn in (eigensystem, _spectral_data):
            in_loop = next(filter(None, (raised(fn, ModelParams(*p)) for p in points)), None)
            assert raised(fn, stack) is in_loop, fn.__name__
