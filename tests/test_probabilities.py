"""Density/projection operators, trace vs closed-form probabilities, the
Hermitian comparison, the pathological continuation and the Dirac-norm
quantities."""

import itertools
import math
import re
import warnings

import hypothesis as hyp
import hypothesis.strategies as st
import numpy as np
import pytest

from ptosc import (
    BrokenPTPhase,
    DomainError,
    ExceptionalPoint,
    ModelParams,
    NonRealTrace,
    brute_force_probability,
    cardioid_r,
    cprime_ket,
    cpt_bra,
    density_operator,
    dirac_bra,
    dirac_norm,
    dirac_overlap,
    eigensystem,
    flavour_ket,
    hermitian_eigenvalues,
    hermitian_transition_probability,
    inner,
    make_params,
    naive_continuation_value,
    params_from_eta,
    probability_closed_form,
    probability_trace,
    projection_operator,
    pt_bra,
    survival_probability,
    tolerance_for_eta,
    transition_probability,
)


def half_period(es):
    """dt with delta_omega * dt = pi, i.e. phase pi/2 (maximal mixing)."""
    return math.pi / es.delta_omega


class TestOperators:
    def test_density_operator_worked_point(self, es):
        rho = density_operator(1, 0.0, es)
        np.testing.assert_allclose(rho, [[1.0, 0.6], [0.0, 0.0]], atol=1e-13)

    def test_unit_trace_away_from_time_zero(self):
        es = eigensystem(params_from_eta(0.5))
        rho = density_operator(2, 4.2, es)
        assert np.trace(rho) == pytest.approx(1.0, abs=1e-12)

    def test_hermitian_limit_projector(self):
        es = eigensystem(make_params(2.0, 1.0, 0.0))
        np.testing.assert_allclose(
            density_operator(1, 0.0, es), np.diag([1.0, 0.0]), atol=1e-14)

    def test_projection_equals_density_at_equal_anchor(self, es):
        np.testing.assert_array_equal(projection_operator(1, 0.0, es),
                                      density_operator(1, 0.0, es))

    def test_projector_idempotent(self):
        es = eigensystem(params_from_eta(0.7))
        pi = projection_operator(1, 1.3, es)
        np.testing.assert_allclose(pi @ pi, pi, atol=1e-12)
        pi2 = projection_operator(2, 1.3, es)
        np.testing.assert_allclose(pi2 @ pi2, pi2, atol=1e-12)

    def test_projector_unit_trace_large_mixing(self):
        es = eigensystem(params_from_eta(0.9))
        assert np.trace(projection_operator(2, -2.6, es)) == pytest.approx(1.0, abs=1e-12)


class TestTraceProbability:
    def test_transition_at_half_period(self, es):
        rec = probability_trace(1, 2, 0.0, half_period(es), es)
        assert rec.value == pytest.approx(0.36, abs=1e-10)
        assert rec.method == "trace"

    def test_survival_at_zero_separation(self, es):
        assert probability_trace(1, 1, 2.4, 2.4, es).value == pytest.approx(1.0, abs=1e-12)

    def test_time_translation(self):
        es = eigensystem(params_from_eta(0.8))
        a = probability_trace(1, 2, 5.0, 5.0 + 0.77, es).value
        b = probability_trace(1, 2, 0.0, 0.77, es).value
        assert a == pytest.approx(b, abs=1e-10)

    def test_symmetry_between_flavours(self, es):
        dt = 0.9
        assert probability_trace(1, 2, 0.3, 0.3 + dt, es).value == pytest.approx(
            probability_trace(2, 1, 0.3, 0.3 + dt, es).value, abs=1e-12)
        assert probability_trace(1, 1, 0.3, 0.3 + dt, es).value == pytest.approx(
            probability_trace(2, 2, 0.3, 0.3 + dt, es).value, abs=1e-12)

    def test_swapped_orientation_gives_same_probabilities(self, es, swapped_es):
        dt = half_period(es)
        for i, j in ((1, 1), (1, 2), (2, 1), (2, 2)):
            assert probability_trace(i, j, 1.7, 1.7 + dt, swapped_es).value == pytest.approx(
                probability_trace(i, j, 1.7, 1.7 + dt, es).value, abs=1e-10)


class TestClosedForm:
    def test_transition_at_half_period(self, es):
        rec = probability_closed_form(1, 2, half_period(es), es)
        assert rec.value == pytest.approx(0.36, abs=1e-12)
        assert rec.method == "closed_form"

    def test_agrees_with_trace_on_a_grid(self, es):
        for phase in np.linspace(0.0, 2.0 * math.pi, 40):
            dt = 2.0 * phase / es.delta_omega
            closed = probability_closed_form(1, 2, dt, es).value
            trace = probability_trace(1, 2, -1.2, -1.2 + dt, es).value
            assert trace == pytest.approx(closed, abs=1e-10)

    def test_agrees_with_brute_force(self, params, es):
        dt = 1.3 * half_period(es)
        for i, j in ((1, 1), (1, 2), (2, 1), (2, 2)):
            assert brute_force_probability(params, i, j, 0.6, 0.6 + dt) == pytest.approx(
                probability_closed_form(i, j, dt, es).value, abs=1e-10)

    def test_saturation_at_exceptional_point(self):
        assert transition_probability(1.0, 0.5 * math.pi) == 1.0
        assert survival_probability(1.0, 0.5 * math.pi) == 0.0

    def test_no_mixing_in_hermitian_limit(self):
        assert transition_probability(0.0, 1.234) == 0.0

    def test_rejects_broken_phase(self):
        with pytest.raises(BrokenPTPhase):
            transition_probability(1.0 + 1e-9, 1.0)

    def test_index_arrays_broadcast_element_for_element(self):
        """Flavour-index arrays broadcast with dt and a stacked system, each
        element equal to its single-point call bit for bit; int labels give
        the Python float of the survival or transition closed form."""
        stack = eigensystem(make_params(np.array([2.0, 1.0, 4.2]), np.array([1.0, 2.0, 1.3]),
                                        np.array([0.3, 0.3, 0.8]), np.array([0.0, 0.0, 0.7])))
        i = np.array([1, 1, 2, 2])[:, None, None]
        j = np.array([1, 2, 1, 2])[:, None, None]
        dts = np.linspace(-3.0, 9.0, 5)
        values = probability_closed_form(i, j, dts, stack[:, None]).value
        assert values.shape == (4, 3, 5)
        for k, m, n in np.ndindex(values.shape):
            one, dt = stack[m], float(dts[n])
            single = probability_closed_form(int(i[k, 0, 0]), int(j[k, 0, 0]), dt, one).value
            form = survival_probability if i[k, 0, 0] == j[k, 0, 0] else transition_probability
            assert type(single) is float
            assert values[k, m, n] == single == form(one.eta, 0.5 * one.delta_omega * dt)


@hyp.settings(max_examples=120, deadline=None)
@hyp.given(eta=st.floats(0.0, 1.0), phase=st.floats(-50.0, 50.0))
def test_closed_form_bounds_and_unitarity(eta, phase):
    transition = transition_probability(eta, phase)
    survival = survival_probability(eta, phase)
    assert 0.0 <= transition <= 1.0
    assert 0.0 <= survival <= 1.0
    assert transition + survival == pytest.approx(1.0, abs=1e-12)


class TestHermitian:
    def test_maximal_transition_at_worked_point(self):
        value = hermitian_transition_probability(0.6, 0.5 * math.pi)
        assert value == pytest.approx(0.36 / 1.36, abs=1e-12)

    def test_zero_mixing(self):
        assert hermitian_transition_probability(0.0, 2.2) == 0.0

    def test_tachyonic_mass_reported(self):
        """Past the tachyonic point the lower Hermitian squared mass is
        returned negative, and the Hermitian closed form, taken at a phase,
        stays a probability."""
        params = params_from_eta(1.8, ratio=0.5)  # past sqrt(3): lower mass < 0
        assert hermitian_eigenvalues(params)[1] < 0.0
        value = hermitian_transition_probability(params.eta, 0.5 * math.pi)
        assert value == pytest.approx(1.8 ** 2 / (1.0 + 1.8 ** 2), rel=1e-14)

    def test_infinite_eta_is_not_an_exceptional_point(self):
        # the formula has no exceptional point: an infinite eta (or one in an
        # array) is refused as non-finite, not as the eta = 1 band
        for eta in (math.inf, np.array([0.5, math.inf])):
            with pytest.raises(DomainError) as caught:
                hermitian_transition_probability(eta, 1.0)
            assert type(caught.value) is DomainError
            assert str(caught.value) == "eta = inf: eta^2 is not a finite number"

    def test_gap_to_pt_probability_bounded_by_eta_fourth(self):
        for eta in (0.1, 0.4, 0.8):
            for phase in np.linspace(0.0, math.pi, 17):
                gap = (transition_probability(eta, phase)
                       - hermitian_transition_probability(eta, phase))
                want = eta ** 4 / (1.0 + eta * eta) * math.sin(phase) ** 2
                assert gap == pytest.approx(want, abs=1e-12)
                assert gap <= eta ** 4 + 1e-15


class TestNaiveContinuation:
    def test_exceeds_minus_one_above_threshold(self):
        value = naive_continuation_value(0.75, 0.5 * math.pi)
        assert value == pytest.approx(-0.5625 / 0.4375, abs=1e-12)
        assert abs(value) > 1.0

    def test_below_threshold_stays_bounded(self):
        value = naive_continuation_value(0.5, 0.5 * math.pi)
        assert value == pytest.approx(-1.0 / 3.0, abs=1e-12)
        assert max(abs(naive_continuation_value(0.5, ph))
                   for ph in np.linspace(0.0, 2.0 * math.pi, 101)) <= 1.0

    def test_threshold_is_inverse_root_two(self):
        # sup over phases of |value| is eta^2 / (1 - eta^2): crosses 1 at 1/sqrt(2)
        below = max(abs(naive_continuation_value(0.70, ph))
                    for ph in np.linspace(0.0, math.pi, 201))
        above = max(abs(naive_continuation_value(0.75, ph))
                    for ph in np.linspace(0.0, math.pi, 201))
        assert below <= 1.0
        assert above > 1.0

    def test_zero_mixing(self):
        assert naive_continuation_value(0.0, 1.0) == 0.0

    def test_exceptional_point_refused(self):
        with pytest.raises(ExceptionalPoint):
            naive_continuation_value(1.0, 1.0)

    def test_record_survival_exceeds_one(self, es):
        transition = naive_continuation_value(es.eta, 0.5 * es.delta_omega * half_period(es))
        assert 1.0 - transition == pytest.approx(1.0 + 0.5625, abs=1e-12)


class TestDiracQuantities:
    def test_norm_time_zero(self, es):
        assert dirac_norm(1, 0.0, es) == 1.0

    def test_norm_at_half_period(self, es):
        t = math.pi / es.delta_omega
        assert dirac_norm(1, t, es) == pytest.approx(2.125, abs=1e-12)
        assert dirac_norm(2, t, es) == pytest.approx(2.125, abs=1e-12)

    def test_norm_constant_at_zero_mixing(self):
        es = eigensystem(make_params(2.0, 1.0, 0.0))
        for t in (0.0, 1.0, 13.7):
            assert dirac_norm(1, t, es) == pytest.approx(1.0, abs=1e-15)

    def test_norm_matches_contraction(self, es):
        for t in (-5.0, 0.3, 7.9):
            contracted = inner(dirac_bra(1, t, es), flavour_ket(1, t, es))
            assert contracted == pytest.approx(dirac_norm(1, t, es), abs=1e-12)

    def test_overlap_vanishes_at_time_zero(self, es):
        assert dirac_overlap(0.0, es) == 0.0

    def test_overlap_real_value_at_half_period(self, es):
        t = math.pi / es.delta_omega
        value = dirac_overlap(t, es)
        assert value.real == pytest.approx(1.875, abs=1e-12)
        assert value.imag == pytest.approx(0.0, abs=1e-12)

    def test_overlap_matches_contraction_and_conjugate_relation(self, es):
        t = (math.pi / 3.0) / es.delta_omega
        closed = dirac_overlap(t, es)
        forward = inner(dirac_bra(1, t, es), flavour_ket(2, t, es))
        backward = inner(dirac_bra(2, t, es), flavour_ket(1, t, es))
        assert forward == pytest.approx(closed, abs=1e-12)
        assert backward == pytest.approx(closed.conjugate(), abs=1e-12)

    def test_overlap_matches_contraction_for_swapped_orientation(self, swapped_es):
        t = 0.9
        closed = dirac_overlap(t, swapped_es)
        forward = inner(dirac_bra(1, t, swapped_es), flavour_ket(2, t, swapped_es))
        assert forward == pytest.approx(closed, abs=1e-12)


class TestCardioid:
    def test_ratio_at_large_mixing(self):
        ratio = cardioid_r(0.0, 0.9) / cardioid_r(math.pi, 0.9)
        assert ratio == pytest.approx(0.19 / 1.81, abs=1e-12)

    def test_near_circle_at_small_mixing(self):
        r_pi = cardioid_r(math.pi, 0.1)
        ratios = [cardioid_r(ph, 0.1) / r_pi for ph in np.linspace(0.0, 2.0 * math.pi, 73)]
        assert min(ratios) == pytest.approx(0.99 / 1.01, abs=1e-12)
        assert max(ratios) == 1.0
        assert max(ratios) - min(ratios) < 0.02

    def test_maximum_at_pi(self):
        assert cardioid_r(math.pi, 0.6) == pytest.approx((1.0 + 0.36) / (1.0 - 0.36), rel=1e-14)

    def test_periodicity(self):
        for phase in (0.3, 1.1, 2.9):
            assert cardioid_r(phase + 2.0 * math.pi, 0.5) == pytest.approx(
                cardioid_r(phase, 0.5), rel=1e-12)

    def test_positive_everywhere(self):
        for phase in np.linspace(0.0, 2.0 * math.pi, 101):
            assert cardioid_r(phase, 0.95) > 0.0

    def test_exceptional_point_refused(self):
        with pytest.raises(ExceptionalPoint):
            cardioid_r(0.0, 1.0)


def test_non_real_trace_signals_construction_bug():
    """A corrupted metric makes the trace complex; the guard must fire
    rather than silently returning the real part."""
    from ptosc import NonRealTrace

    es = eigensystem(params_from_eta(0.6))
    es.__dict__["cpt_metric"] = np.array([[1.25, 0.75j], [0.75, 1.25]])
    with pytest.raises(NonRealTrace):
        probability_trace(1, 2, 0.0, 3.0, es)


def test_probability_depends_only_on_time_difference(es):
    dt = 0.77
    reference = probability_trace(1, 2, 0.0, dt, es).value
    for t0 in (-3.2, 1.7, 100.0):
        assert probability_trace(1, 2, t0, t0 + dt, es).value == pytest.approx(
            reference, abs=1e-10)


def test_dirac_norm_ratio_violates_time_translation(es):
    """The normalised-state witness: r(t0 + dt)/r(t0) depends on t0."""
    dt = math.pi / es.delta_omega
    ratio_at_zero = dirac_norm(1, dt, es) / dirac_norm(1, 0.0, es)
    ratio_shifted = dirac_norm(1, 2.0 * dt, es) / dirac_norm(1, dt, es)
    assert abs(ratio_at_zero - ratio_shifted) > 0.1


PAIRS = ((1, 1), (1, 2), (2, 1), (2, 2))
PAIRS_I, PAIRS_J = np.array([[1], [1], [2], [2]]), np.array([[1], [2], [1], [2]])


@st.composite
def raw_systems(draw):
    """Raw parameters with either diagonal ordering, p >= 0, eta in [0, 0.99]."""
    lo = draw(st.floats(0.2, 4.0))
    hi = lo + draw(st.floats(1e-2, 3.0))
    eta = draw(st.floats(0.0, 0.99))
    m1, m2 = (hi, lo) if draw(st.booleans()) else (lo, hi)
    return make_params(m1, m2, 0.5 * eta * (hi - lo), draw(st.floats(0.0, 2.0)))


@st.composite
def time_grids(draw):
    """(t0s, ts) as scalars, equal-length arrays, or an (n, 1) x (1, m) grid."""
    times = st.floats(-40.0, 40.0)
    shape = draw(st.sampled_from(["scalar", "vector", "grid"]))
    if shape == "scalar":
        return draw(times), draw(times)
    n = draw(st.integers(1, 5))
    t0s = np.array(draw(st.lists(times, min_size=n, max_size=n)))
    if shape == "vector":
        return t0s, np.array(draw(st.lists(times, min_size=n, max_size=n)))
    ts = np.array(draw(st.lists(times, min_size=1, max_size=5)))
    return t0s[:, None], ts[None, :]


class TestTraceProbabilities:
    @hyp.settings(max_examples=60, deadline=None)
    @hyp.given(params=raw_systems(), grid=time_grids())
    def test_shape_and_agreement_with_closed_form_and_brute_force(self, params, grid):
        es = eigensystem(params)
        t0s, ts = grid
        shape = np.broadcast_shapes(np.shape(t0s), np.shape(ts))
        dts = np.broadcast_to(np.subtract(ts, t0s), shape)
        tol = tolerance_for_eta(es.eta)
        for i, j in PAIRS:
            values = probability_trace(i, j, t0s, ts, es).value
            assert np.shape(values) == shape
            closed = np.vectorize(lambda dt: probability_closed_form(i, j, dt, es).value)(dts)
            brute = brute_force_probability(params, i, j, t0s, ts)
            assert np.abs(values - closed).max(initial=0.0) <= tol
            assert np.abs(values - brute).max(initial=0.0) <= tol

    def test_batch_equals_a_loop_over_single_points(self, es, swapped_es):
        """Reference: per-point outer products of the normalised single-time
        states and a 2x2 matrix-product trace, as the scalar route always
        computed them; the batch must round identically."""
        def operator(i, t, system):
            if (i == 1) != system.swapped:  # heavy-first flavour 1
                ket, bra = flavour_ket(i, t, system), cpt_bra(i, t, system)
            else:
                ket, bra = cprime_ket(i, t, system), pt_bra(i, t, system)
            return np.outer(system.mixed_basis_norm * ket, system.mixed_basis_norm * bra)

        t0s = np.array([-3.2, 0.0, 1.7])
        ts = t0s + np.linspace(0.0, 9.0, 7)[:, None]
        for system in (es, swapped_es):
            for i, j in PAIRS:
                values = probability_trace(i, j, t0s, ts, system).value
                for index in np.ndindex(values.shape):
                    rho = operator(i, t0s[index[1]], system)
                    reference = np.trace(rho @ operator(j, ts[index], system)).real
                    assert values[index] == reference
                    assert probability_trace(i, j, t0s[index[1]], ts[index], system).value \
                        == reference

    def test_non_real_trace_raised_for_a_batch(self):
        es = eigensystem(params_from_eta(0.6))
        es.__dict__["cpt_metric"] = np.array([[1.25, 0.75j], [0.75, 1.25]])
        with pytest.raises(NonRealTrace):
            probability_trace(1, 2, 0.0, np.linspace(0.5, 3.0, 6), es).value

    @pytest.mark.parametrize("t0", [1e17, -1e17, math.inf, math.nan])
    def test_unresolvable_times_refused(self, es, t0):
        with pytest.raises(DomainError):
            probability_trace(1, 2, t0, t0 + 1.0, es).value
        with pytest.raises(DomainError):
            probability_trace(1, 2, 0.0, np.array([1.0, t0]), es).value
        with pytest.raises(DomainError):
            probability_trace(1, 1, t0, 1.0, es)

    def test_moderate_times_accepted(self, es):
        # the bound omega * ulp(|t|) stays below 1e-12 up to |t| = 1e4
        dt = half_period(es)
        assert probability_trace(1, 2, -1e4, -1e4 + dt, es).value == pytest.approx(0.36, abs=1e-10)

    def test_density_operator_stack_matches_single_times(self, es):
        t0s = np.array([-2.0, 0.0, 4.2])
        for i in (1, 2):
            stack = density_operator(i, t0s, es)
            assert stack.shape == (3, 2, 2)
            for k, t0 in enumerate(t0s):
                np.testing.assert_array_equal(stack[k], density_operator(i, t0, es))


# --- array closed forms -------------------------------------------------------

def _cardioid(eta, phase):
    return cardioid_r(phase, eta)


# name -> (function of (eta, phase), largest eta drawn)
CLOSED_FORMS = {
    "transition_probability": (transition_probability, 1.0),
    "survival_probability": (survival_probability, 1.0),
    "hermitian_transition_probability": (hermitian_transition_probability, 1e150),
    "naive_continuation_value": (naive_continuation_value, 0.999),
    "cardioid_r": (_cardioid, 0.999),
}


def former_single_point(name, eta, phase):
    """The closed forms as written before they took arrays (the reference)."""
    if name == "transition_probability":
        return eta * eta * math.sin(phase) ** 2
    if name == "survival_probability":
        return 1.0 - eta * eta * math.sin(phase) ** 2
    if name == "hermitian_transition_probability":
        return eta * eta / (1.0 + eta * eta) * math.sin(phase) ** 2
    if name == "naive_continuation_value":
        return -eta * eta / ((1.0 - eta) * (1.0 + eta)) * math.sin(phase) ** 2
    eta_sq = eta * eta
    return (1.0 - eta_sq * math.cos(phase)) / (1.0 - eta_sq)


phases = st.floats(-1e3, 1e3) | st.sampled_from([0.0, -0.0, math.pi, 1e300])


@st.composite
def eta_phase_grids(draw, eta_max):
    """(eta, phase) as floats, equal-length arrays, or an (n, 1) x (1, m) grid."""
    etas = st.floats(0.0, eta_max) | st.just(0.0)
    shape = draw(st.sampled_from(["scalar", "vector", "grid"]))
    if shape == "scalar":
        return draw(etas), draw(phases)
    n = draw(st.integers(1, 5))
    eta = np.array(draw(st.lists(etas, min_size=n, max_size=n)))
    if shape == "vector":
        return eta, np.array(draw(st.lists(phases, min_size=n, max_size=n)))
    phase = np.array(draw(st.lists(phases, min_size=1, max_size=5)))
    return eta[:, None], phase[None, :]


class TestArrayClosedForms:
    @hyp.settings(max_examples=80, deadline=None)
    @hyp.given(data=st.data(), name=st.sampled_from(sorted(CLOSED_FORMS)))
    def test_array_call_equals_a_loop_of_single_points(self, data, name):
        fn, eta_max = CLOSED_FORMS[name]
        eta, phase = data.draw(eta_phase_grids(eta_max))
        values = fn(eta, phase)
        shape = np.broadcast_shapes(np.shape(eta), np.shape(phase))
        if shape == ():
            assert type(values) is float
        else:
            assert values.shape == shape
        etas, phases_ = np.broadcast_arrays(eta, phase)
        for idx in np.ndindex(shape):
            one = fn(float(etas[idx]), float(phases_[idx]))
            assert type(one) is float
            assert np.asarray(values)[idx] == one

    @hyp.settings(max_examples=60, deadline=None)
    @hyp.given(data=st.data(), name=st.sampled_from(sorted(CLOSED_FORMS)))
    def test_single_points_equal_the_former_formulas(self, data, name):
        fn, eta_max = CLOSED_FORMS[name]
        eta, phase = data.draw(st.floats(0.0, eta_max)), data.draw(phases)
        assert fn(eta, phase) == former_single_point(name, eta, phase)

    @pytest.mark.parametrize("name", sorted(CLOSED_FORMS))
    def test_shape_zero_arrays_and_numpy_scalars_give_python_floats(self, name):
        fn, _ = CLOSED_FORMS[name]
        for eta, phase in ((np.float64(0.5), 1.3), (np.array(0.5), np.array(1.3)), (0, 1)):
            value = fn(eta, phase)
            assert type(value) is float
            assert value == former_single_point(name, float(eta), float(phase))

    @pytest.mark.parametrize("name, eta, error", [
        ("transition_probability", -0.1, "eta must be non-negative, got -0.1"),
        ("transition_probability", 1.2, BrokenPTPhase),
        ("survival_probability", 1.2, BrokenPTPhase),
        ("naive_continuation_value", 1.0, ExceptionalPoint),
        ("naive_continuation_value", 1.5, BrokenPTPhase),
        ("cardioid_r", 1.0, ExceptionalPoint),
        ("cardioid_r", 1.2, BrokenPTPhase),
        ("hermitian_transition_probability", -0.1, "eta must be non-negative, got -0.1"),
        ("hermitian_transition_probability", 1e200, DomainError),
    ])
    def test_one_out_of_domain_eta_in_an_array_raises(self, name, eta, error):
        """``error`` is an exception type, or the message of a plain DomainError."""
        error, match = (DomainError, re.escape(error)) if isinstance(error, str) else (error, None)
        fn, _ = CLOSED_FORMS[name]
        with pytest.raises(error, match=match):
            fn(eta, 1.0)
        with pytest.raises(error, match=match):
            fn(np.array([0.1, eta, 0.5]), 1.0)
        with pytest.raises(error, match=match):
            fn(np.array([[0.1], [eta]]), np.array([[0.0, 1.0]]))

    @pytest.mark.parametrize("name", sorted(CLOSED_FORMS))
    @pytest.mark.parametrize("eta", [math.nan, math.inf])
    def test_non_finite_eta_refused(self, name, eta):
        fn, _ = CLOSED_FORMS[name]
        with pytest.raises(DomainError):
            fn(eta, 1.0)
        with pytest.raises(DomainError):
            fn(np.array([0.5, eta]), 1.0)

    def test_hermitian_refuses_exactly_the_etas_whose_square_overflows(self):
        from ptosc.model import _SQUARE_LIMIT as ETA_SQUARE_LIMIT

        assert math.isfinite(ETA_SQUARE_LIMIT * ETA_SQUARE_LIMIT)
        past = math.nextafter(ETA_SQUARE_LIMIT, math.inf)
        assert past * past == math.inf
        assert hermitian_transition_probability(ETA_SQUARE_LIMIT, 1.0) == math.sin(1.0) ** 2
        with pytest.raises(DomainError, match="not a finite number"):
            hermitian_transition_probability(past, 1.0)
        with pytest.raises(DomainError, match="not a finite number"):
            hermitian_transition_probability(np.array([1.0, 1e160]), np.array([0.5, 1.0]))

    def test_closed_form_record_over_an_array_of_separations(self, es, swapped_es):
        dts = np.linspace(-7.0, 30.0, 23)
        for system in (es, swapped_es):
            for i, j in PAIRS:
                record = probability_closed_form(i, j, dts, system)
                assert record.value.shape == dts.shape
                for dt, value in zip(dts, record.value):
                    assert value == probability_closed_form(i, j, float(dt), system).value


def test_non_real_trace_message_is_one_line_naming_the_worst_pair(es, monkeypatch):
    """With flavour-index arrays the message names the pair of the worst
    element, not the arrays."""
    from ptosc import probabilities

    monkeypatch.setattr(probabilities, "NON_REAL_TRACE_TOLERANCE", -1.0)
    with pytest.raises(NonRealTrace) as raised:
        probability_trace(np.array([[1], [2]]), np.array([[2], [1]]), 0.0,
                          np.linspace(0.5, 3.0, 6), es).value
    pair = re.fullmatch(r"tr\[rho_(\d)\(t0\) pi_(\d)\(t\)\] of P\(\1 -> \2\) "
                        r"has imaginary part \S+", str(raised.value))
    assert pair is not None and pair.groups() in (("1", "2"), ("2", "1"))


# each closed form or Dirac diagnostic as a function of its phase or time
PHASE_ENTRY_POINTS = {
    "transition_probability": lambda x, es: transition_probability(0.5, x),
    "hermitian_transition_probability": lambda x, es: hermitian_transition_probability(0.5, x),
    "naive_continuation_value": lambda x, es: naive_continuation_value(0.5, x),
    "probability_closed_form": lambda x, es: probability_closed_form(1, 2, x, es),
    "dirac_norm": lambda x, es: dirac_norm(1, x, es),
    "dirac_overlap": lambda x, es: dirac_overlap(x, es),
    "cardioid_r": lambda x, es: cardioid_r(x, 0.5),
}


@pytest.mark.parametrize("name", sorted(PHASE_ENTRY_POINTS))
@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan,
                                   np.array([0.0, math.inf, 1.0])],
                         ids=["inf", "-inf", "nan", "array_with_inf"])
def test_non_finite_phase_or_time_refused(es, name, value):
    """A DomainError naming the value, not math's bare ValueError or a NaN."""
    shown = "inf" if isinstance(value, np.ndarray) else repr(value)
    with pytest.raises(DomainError, match=f"phase must be finite, got {re.escape(shown)}$"):
        PHASE_ENTRY_POINTS[name](value, es)


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan], ids=["inf", "-inf", "nan"])
@pytest.mark.parametrize("call, what", [
    (lambda t, es: probability_trace(1, 2, 0.0, t, es).value, "time"),
    (lambda t, es: probability_trace(1, 2, t, 1.0, es).value, "time"),
    (lambda t, es: brute_force_probability(es.params, 1, 2, 0.0, t), "time"),
    (lambda t, es: probability_closed_form(1, 2, t, es), "phase"),
], ids=["trace_t", "trace_t0", "brute_force", "closed_form"])
def test_a_non_finite_time_is_refused_alike_by_every_route(es, call, what, value):
    """The trace route refuses an infinite or NaN time with the oracle's
    DomainError, before its time-resolution bound, and the closed form
    names the phase."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=f"^{what} must be finite, got {value!r}$"):
            call(value, es)


class TestExceptionalPointBound:
    """Near the EP the trace route rounds by up to about 3 eps / (1 - eta^2)
    (1 eps / (1 - eta^2) in imaginary parts): it refuses eta where
    4 eps / (1 - eta^2) exceeds tolerance_for_eta, calls an imaginary part
    within that rounding the EP, and elsewhere agrees with the closed form."""

    @pytest.mark.parametrize("k", range(8, 12))
    @pytest.mark.parametrize("masses", [(2.0, 1.0), (0.3, 5.0)], ids=["heavy", "light"])
    def test_refused_a_priori_past_the_bound(self, k, masses):
        es = eigensystem(make_params(*masses, (1.0 - 10.0 ** -k) * abs(masses[0] - masses[1]) / 2))
        with pytest.raises(ExceptionalPoint, match=re.escape(
                "for the trace route: 4 eps / (1 - eta^2) > 1e-08")):
            probability_trace(1, 2, 0.0, 1.0, es).value

    def test_a_stack_refuses_as_its_point_nearest_the_exceptional_point(self):
        es = eigensystem(params_from_eta(np.array([0.3, 1.0 - 1e-9, 0.5])))
        with pytest.raises(ExceptionalPoint, match=re.escape(f"eta = {es.eta[1]:.17g} ")):
            probability_trace(1, 2, 0.0, 1.0, es[:, None]).value

    def test_an_imaginary_part_within_the_rounding_is_the_exceptional_point(self):
        """1 - eta = 6e-8 is admitted, but one phase of this grid gives an
        imaginary part of 1.2e-9, within 4 eps / (1 - eta^2) = 7.4e-9: that
        raised NonRealTrace before."""
        es = eigensystem(make_params(2.0, 1.0, 0.5 * 0.99999994))
        ts = 1.7 + 2.0 * np.linspace(0.0, 2.0 * math.pi, 16) / es.delta_omega
        with pytest.raises(ExceptionalPoint, match=r"imaginary part 1\.214e-09, within its "
                                                   r"rounding 7\.401e-09$"):
            probability_trace(1, 2, 1.7, ts, es).value

    @pytest.mark.parametrize("masses", [(2.0, 1.0, 0.0), (0.3, 5.0, 0.7), (5.0, 0.3, 0.0)])
    def test_agrees_or_refuses_from_one_minus_eta_of_1e_8_to_1e_6(self, masses):
        m1, m2, p = masses
        phases = np.linspace(0.0, 2.0 * math.pi, 64)
        outcomes = set()
        for delta in np.geomspace(1e-8, 1e-6, 13):
            es = eigensystem(make_params(m1, m2, (1.0 - delta) * abs(m1 - m2) / 2, p))
            for t0 in (0.0, -3.2, 1.7, 0.3):
                dts = 2.0 * phases / es.delta_omega
                closed = probability_closed_form(PAIRS_I, PAIRS_J, dts, es).value
                try:
                    trace = probability_trace(PAIRS_I, PAIRS_J, t0, t0 + dts, es).value
                except ExceptionalPoint:
                    outcomes.add("refused")
                    continue
                assert np.abs(trace - closed).max() <= tolerance_for_eta(es.eta), (delta, t0)
                outcomes.add("agreed")
        assert outcomes == {"refused", "agreed"}


# Share of the route calls below that must agree, so that refusals alone
# cannot pass; 0.65 to 0.77 of them agreed over thirteen runs.
AGREED_SHARE = 0.5
NEAR_EP = [1.0 - 10.0 ** -k for k in range(1, 13)]
# orientation, flavour pair and the sign of t0, drawn as one value
ROUTE_CASES = list(itertools.product((True, False), (1, 2), (1, 2), (1.0, -1.0)))


def test_every_route_agrees_with_the_closed_form_or_refuses():
    """The trace route and the oracle, on draws over both orientations,
    eta = 1 - 10^-k (k = 1 to 12) or below 0.9, p up to 1e8, |t0| up to
    1e17 and the four flavour pairs (the lighter squared mass is the unit
    of the others): each call lands within tolerance_for_eta of the closed
    form at the representable dt = t - t0, or raises DomainError
    (ExceptionalPoint and BrokenPTPhase included).  NonRealTrace, any
    other error, a numpy warning or a value out of tolerance fails the
    draw.  Where eigensystem refuses there is no reference, and both
    routes must refuse.  The examples are the counterexamples found
    before: a trace value 3.7e-8 off and a NonRealTrace near the EP, an
    oracle value 4.4e-8 off at t0 = 1e10, a ZeroDivisionError from a
    degenerate diagonal, and an oracle value 1.07e-8 off at t0 = -2.5e11,
    where the oracle's time rule counted the rounding of one phase but not
    of the two a probability differences."""
    tally = {"agreed": 0, "refused": 0}

    @hyp.settings(max_examples=2000, deadline=None)
    @hyp.given(case=st.sampled_from(ROUTE_CASES), gap=st.floats(1e-3, 5.0),
               eta=st.sampled_from(NEAR_EP) | st.floats(0.0, 0.9),
               p=st.just(0.0) | st.floats(-3.0, 8.0).map(lambda x: 10.0 ** x),
               t0=st.just(0.0) | st.floats(-3.0, 17.0).map(lambda x: 10.0 ** x),
               phase=st.floats(0.0, 10.0))
    @hyp.example(case=(True, 1, 2, 1.0), gap=1.0, eta=1.0 - 1e-9, p=0.0, t0=0.3, phase=1.0)
    @hyp.example(case=(True, 1, 2, 1.0), gap=1.0, eta=1.0 - 1e-8, p=0.0, t0=0.0, phase=1.5)
    @hyp.example(case=(True, 1, 2, 1.0), gap=1.0, eta=0.6, p=0.0, t0=1e10, phase=1.0)
    @hyp.example(case=(True, 1, 2, 1.0), gap=0.0, eta=0.6, p=0.0, t0=0.0, phase=1.0)
    @hyp.example(case=(True, 1, 1, -1.0), gap=0.9375, eta=0.999999, p=0.0, t0=10.0 ** 11.40625,
                 phase=4.0)
    def agree_or_refuse(case, gap, eta, p, t0, phase):
        heavy_first, i, j, sign = case
        m1, m2 = (1.0 + gap, 1.0) if heavy_first else (1.0, 1.0 + gap)
        t0 *= sign
        params = ModelParams(m1, m2, 0.5 * eta * gap, p)  # unchecked: gap = 0 reaches the routes
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                es = eigensystem(params)
            except DomainError:
                with pytest.raises(DomainError):
                    brute_force_probability(params, i, j, t0, t0 + phase)
                tally["refused"] += 2
                return
            t = t0 + 2.0 * phase / es.delta_omega
            closed = probability_closed_form(i, j, t - t0, es).value
            for route in (lambda: probability_trace(i, j, t0, t, es).value,
                          lambda: brute_force_probability(params, i, j, t0, t)):
                try:
                    value = route()
                except DomainError:
                    tally["refused"] += 1
                    continue
                assert abs(value - closed) <= tolerance_for_eta(es.eta), (value, closed)
                tally["agreed"] += 1

    agree_or_refuse()
    assert tally["agreed"] >= AGREED_SHARE * (tally["agreed"] + tally["refused"]), tally


def test_the_trace_route_reaches_no_other_route(es, swapped_es):
    """The trace route builds on the states alone: no call reaches the
    oracle, the validation suite or a closed form."""
    import sys

    times = np.linspace(0.0, 9.0, 7)
    reached = set()

    def record(frame, event, arg):
        if event == "call":
            reached.add((frame.f_globals.get("__name__"), frame.f_code.co_name))

    sys.setprofile(record)
    try:
        for system in (es, swapped_es):
            probability_trace(PAIRS_I, PAIRS_J, -0.4, times, system).value
            probability_trace(1, 2, 0.3, 1.5, system)
    finally:
        sys.setprofile(None)
    assert ("ptosc.states", "mixed_basis_pair") in reached  # the profile sees the states
    modules = {module for module, _ in reached}
    assert not modules & {"ptosc.oracle", "ptosc.validation"}, modules
    closed_forms = {"transition_probability", "survival_probability", "probability_closed_form",
                    "hermitian_transition_probability", "naive_continuation_value",
                    "dirac_norm", "dirac_overlap", "cardioid_r"}
    assert not reached & {("ptosc.probabilities", name) for name in closed_forms}, reached


# 0 or 1e-3 <= |t| <= 100: scaled by 2^-k, no time leaves the normal floats
UNIT_TIMES = st.just(0.0) | st.floats(1e-3, 100.0).flatmap(lambda t: st.sampled_from((t, -t)))


@hyp.settings(max_examples=200, deadline=None)
@hyp.given(k=st.integers(-300, 100), heavy_first=st.booleans(), light=st.floats(0.1, 5.0),
           gap=st.floats(1e-3, 5.0), eta=st.just(0.0) | st.floats(1e-6, 0.999),
           p=st.just(0.0) | st.floats(1e-3, 1e3), t0=UNIT_TIMES,
           ts=st.lists(UNIT_TIMES, min_size=1, max_size=8))
@hyp.example(k=-300, heavy_first=True, light=1.0, gap=1.0, eta=0.6, p=0.7, t0=-3.2, ts=[7.9])
@hyp.example(k=100, heavy_first=False, light=1.0, gap=1.0, eta=0.6, p=0.0, t0=0.0, ts=[0.0])
def test_the_routes_are_exactly_covariant_under_a_change_of_mass_unit(
        k, heavy_first, light, gap, eta, p, t0, ts):
    """Scaling every squared mass by 4^k, p by 2^k and every time by 2^-k
    is exact in binary floating point while every input stays a normal
    float, and the physics has no mass scale: eigensystem's eta and mixing
    angle, its frequencies times 2^-k, and the trace route, the oracle and
    the closed form give the same bits, or refuse alike."""
    masses = (light + gap, light) if heavy_first else (light, light + gap)

    def routes(scale):
        params = make_params(*(math.ldexp(m, 2 * scale) for m in (*masses, 0.5 * eta * gap)),
                             math.ldexp(p, scale))
        t0_k, ts_k = math.ldexp(t0, -scale), np.ldexp(np.array(ts), -scale)
        es = eigensystem(params)
        found = [getattr(es, name) for name in ("eta", "theta", "cosh_theta", "sinh_theta")]
        found += [math.ldexp(getattr(es, name), -scale)
                  for name in ("omega_plus", "omega_minus", "delta_omega")]
        for route in (lambda: probability_trace(PAIRS_I, PAIRS_J, t0_k, ts_k, es).value,
                      lambda: brute_force_probability(params, PAIRS_I, PAIRS_J, t0_k, ts_k),
                      lambda: probability_closed_form(PAIRS_I, PAIRS_J, ts_k - t0_k, es).value):
            try:
                found.append(np.asarray(route()).tobytes())
            except DomainError as exc:
                found.append(type(exc))
        return [np.float64(x).tobytes() if isinstance(x, float) else x for x in found]

    assert routes(k) == routes(0)
