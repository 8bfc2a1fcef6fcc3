"""The characteristic-polynomial eigensolver and the brute-force paths."""

import math
import re
import warnings

import numpy as np
import pytest

from helpers import random_params

from ptosc import (
    DomainError,
    ExceptionalPoint,
    brute_force_dirac_norm,
    brute_force_dirac_overlap,
    brute_force_flavour_ket,
    brute_force_operator,
    brute_force_probability,
    dirac_norm,
    dirac_overlap,
    eigensystem,
    flavour_ket,
    make_params,
    mass_matrix,
    mixed_basis_pair,
    numeric_eigensystem,
    params_from_eta,
    probability_closed_form,
    tilde_bra,
    tolerance_for_eta,
    trace_probabilities,
)


class TestNumericEigensystem:
    def test_worked_point(self, params):
        eigenvalues, vectors = numeric_eigensystem(mass_matrix(params))
        np.testing.assert_allclose(sorted(eigenvalues.real, reverse=True), [1.9, 1.1],
                                   rtol=1e-12)
        assert np.abs(eigenvalues.imag).max() < 1e-14
        m2 = mass_matrix(params)
        for k in range(2):
            residual = np.linalg.norm(m2 @ vectors[:, k] - eigenvalues[k] * vectors[:, k])
            assert residual <= 1e-10 * np.linalg.norm(m2)

    def test_identity_matrix(self):
        eigenvalues, vectors = numeric_eigensystem(np.eye(2))
        np.testing.assert_allclose(eigenvalues, [1.0, 1.0])
        for k in range(2):
            assert np.linalg.norm(vectors[:, k]) == pytest.approx(1.0)

    def test_defective_matrix_at_exceptional_point(self):
        # eta = 1: double root 1.5, rank-1 eigenspace -> columns coalesce
        eigenvalues, vectors = numeric_eigensystem(mass_matrix(make_params(2.0, 1.0, 0.5)))
        np.testing.assert_allclose(eigenvalues, [1.5, 1.5], rtol=1e-12)
        cross = abs(np.vdot(vectors[:, 0], vectors[:, 1]))
        assert cross == pytest.approx(1.0, abs=1e-12)

    def test_broken_phase_eigenvalues_returned_as_is(self):
        eigenvalues, _ = numeric_eigensystem(mass_matrix(make_params(2.0, 1.0, 0.8)))
        assert np.abs(eigenvalues.imag).max() > 0.1
        assert eigenvalues[0] == np.conj(eigenvalues[1])

    def test_residuals_over_random_draws(self):
        rng = np.random.default_rng(3)
        for _ in range(1000):
            p = random_params(rng)
            m2 = mass_matrix(p)
            eigenvalues, vectors = numeric_eigensystem(m2)
            scale = np.linalg.norm(m2)
            for k in range(2):
                residual = np.linalg.norm(m2 @ vectors[:, k] - eigenvalues[k] * vectors[:, k])
                assert residual <= 1e-10 * scale


class TestBruteForce:
    def test_flavour_ket_starts_on_standard_basis(self, params):
        np.testing.assert_allclose(brute_force_flavour_ket(params, 1, 0.0), [1.0, 0.0],
                                   atol=1e-12)
        np.testing.assert_allclose(brute_force_flavour_ket(params, 2, 0.0), [0.0, 1.0],
                                   atol=1e-12)

    def test_operator_unit_trace_and_idempotent(self, params):
        for i in (1, 2):
            op = brute_force_operator(params, i, 1.9)
            assert np.trace(op).real == pytest.approx(1.0, abs=1e-12)
            np.testing.assert_allclose(op @ op, op, atol=1e-12)

    def test_probability_matches_closed_form(self, params, es):
        for phase in np.linspace(0.0, 2.0 * math.pi, 24):
            dt = 2.0 * phase / es.delta_omega
            for i, j in ((1, 1), (1, 2), (2, 1), (2, 2)):
                closed = probability_closed_form(i, j, dt, es).value
                brute = brute_force_probability(params, i, j, -0.4, -0.4 + dt)
                assert brute == pytest.approx(closed, abs=1e-10)

    def test_orientation_free(self, swapped_params, swapped_es):
        dt = math.pi / swapped_es.delta_omega
        assert brute_force_probability(swapped_params, 1, 2, 0.0, dt) == pytest.approx(
            0.36, abs=1e-10)
        assert brute_force_probability(swapped_params, 1, 1, 0.0, dt) == pytest.approx(
            0.64, abs=1e-10)

    def test_dirac_norm_matches_closed_form(self, params, es):
        for t in (-2.0, 0.0, 3.3):
            assert brute_force_dirac_norm(params, 1, t) == pytest.approx(
                dirac_norm(1, t, es), abs=1e-12)

    def test_dirac_overlap_conjugate_relation(self, params):
        t = 1.234
        forward = brute_force_dirac_overlap(params, t)
        k1 = brute_force_flavour_ket(params, 1, t)
        k2 = brute_force_flavour_ket(params, 2, t)
        assert complex(k2.conj() @ k1) == pytest.approx(forward.conjugate(), abs=1e-12)

    def test_near_exceptional_point_within_loose_tolerance(self):
        p = params_from_eta(0.999)
        es = eigensystem(p)
        dt = math.pi / es.delta_omega
        closed = probability_closed_form(1, 2, dt, es).value
        assert brute_force_probability(p, 1, 2, 0.0, dt) == pytest.approx(
            closed, abs=tolerance_for_eta(0.999))

    @pytest.mark.parametrize("k", [-1000, -600, 0, 600, 1000])
    @pytest.mark.parametrize("masses", [(2.0, 1.0), (1.0, 2.0)], ids=["heavy", "light"])
    def test_every_power_of_two_scale_matches_closed_form(self, k, masses):
        """Squared masses scaled by 2^k (times by 2^(-k/2)) neither underflow
        the eigenvector norms nor overflow them."""
        scale = 2.0 ** k
        p = make_params(masses[0] * scale, masses[1] * scale, 0.3 * scale, 0.0)
        es = eigensystem(p)
        t0 = 0.3 * 2.0 ** (-k / 2)
        dt = 2.0 * np.linspace(0.0, math.pi, 9) / es.delta_omega
        flavours = np.array([[1], [2]])
        brute = brute_force_probability(p, flavours[..., None], flavours.T[..., None], t0,
                                        t0 + dt)
        closed = probability_closed_form(flavours[..., None], flavours.T[..., None], dt,
                                         es).value
        assert np.abs(brute - closed).max() <= tolerance_for_eta(es.eta)


PAIRS_I, PAIRS_J = np.array([[1], [2]])[..., None], np.array([[1, 2]])[..., None]


def oracle_errors(params, t0s=(0.0, 0.3), periods=0.5, n=50):
    """|brute force - closed form| over the four pairs, phases in (0, periods pi]
    (dt = 2 phase / delta_omega) and t0s; returns (errors, eta)."""
    es = eigensystem(params)
    dt = 2.0 * np.linspace(periods * math.pi / n, periods * math.pi, n) / es.delta_omega
    closed = probability_closed_form(PAIRS_I, PAIRS_J, dt, es).value
    brute = np.stack([brute_force_probability(params, PAIRS_I, PAIRS_J, t0, t0 + dt)
                      for t0 in t0s])
    return np.abs(brute - closed), es.eta


class TestRange:
    """The oracle takes no full frequency into a phase, so it holds at p >> m,
    and it refuses a priori where h^2 = -det(M^2 - sigma I) loses its digits."""

    @pytest.mark.parametrize("p", [1e2, 1e4, 1e6, 1e8])
    @pytest.mark.parametrize("masses", [(2.0, 1.0), (1.0, 2.0)], ids=["heavy", "light"])
    def test_large_momentum_matches_closed_form(self, p, masses):
        """Before the eigenvector-free solve, the error here was 3.7e-12,
        4.7e-8, 3.2e-4 and 0.36 for p = 1e2 ... 1e8."""
        errors, eta = oracle_errors(make_params(*masses, 0.3, p), periods=1.0)
        assert errors.max() <= tolerance_for_eta(eta)

    @pytest.mark.parametrize("k", range(1, 8))
    @pytest.mark.parametrize("masses", [(2.0, 1.0), (0.3, 5.0)], ids=["heavy", "light"])
    def test_values_down_to_one_minus_eta_of_1e_7(self, k, masses):
        eta = 1.0 - 10.0 ** -k
        errors, _ = oracle_errors(make_params(*masses, eta * abs(masses[0] - masses[1]) / 2))
        assert errors.max() <= tolerance_for_eta(eta)

    @pytest.mark.parametrize("k", range(8, 12))
    @pytest.mark.parametrize("masses", [(2.0, 1.0), (0.3, 5.0)], ids=["heavy", "light"])
    def test_exceptional_point_refused_from_one_minus_eta_of_1e_8(self, k, masses):
        eta = 1.0 - 10.0 ** -k
        params = make_params(*masses, eta * abs(masses[0] - masses[1]) / 2)
        calls = [lambda: brute_force_probability(params, 1, 2, 0.0, 1.0),
                 lambda: brute_force_flavour_ket(params, 1, 1.0),
                 lambda: brute_force_operator(params, 2, 1.0),
                 lambda: brute_force_dirac_norm(params, 1, 1.0),
                 lambda: brute_force_dirac_overlap(params, 1.0)]
        for call in calls:
            with pytest.raises(ExceptionalPoint, match=r"eps / \(1 - eta\^2\) >= 1e-08$"):
                call()

    def test_a_stack_refuses_as_its_first_point_past_the_bound(self):
        """One point past the bound in a batch raises for the whole call."""
        from ptosc import ModelParams

        stack = ModelParams(np.full(3, 2.0), np.ones(3), np.array([0.3, 0.5 - 1e-9, 0.4]),
                            np.zeros(3))
        with pytest.raises(ExceptionalPoint, match=re.escape(f"eta = {stack[1].eta:.17g} ")):
            brute_force_probability(stack, 1, 2, 0.0, 1.0)


def test_dirac_overlap_is_minus_the_closed_form_when_swapped():
    """The heavy-first relabelling conjugates the overlap and negates it; the
    closed form carries the conjugation alone, so the raw-matrix overlap is
    +closed for a heavy-first system and -closed for a swapped one."""
    times = np.linspace(-5.0, 40.0, 31)
    for raw in [(2.0, 1.0, 0.3, 0.0), (4.2, 1.3, 0.8, 0.7), (5.0, 0.3, 2.0, 3.0)]:
        for m1, m2 in (raw[:2], raw[1::-1]):
            params = make_params(m1, m2, *raw[2:])
            es = eigensystem(params)
            sign = -1.0 if es.swapped else 1.0
            brute, closed = brute_force_dirac_overlap(params, times), dirac_overlap(times, es)
            assert np.abs(brute - sign * closed).max() <= 1e-12
            assert np.abs(brute + sign * closed)[1:].min() > 1e-3  # the other sign is far off


def test_the_oracle_reaches_no_other_route():
    """The brute force builds on the raw matrices alone: no call reaches the
    states, the closed forms, the closed-form eigensystem, the C' formula
    or the numeric eigenvectors."""
    import sys

    params, times = make_params(1.3, 4.2, 0.8, 0.7), np.linspace(0.0, 9.0, 7)
    reached = set()

    def record(frame, event, arg):
        if event == "call":
            reached.add((frame.f_globals.get("__name__"), frame.f_code.co_name))

    sys.setprofile(record)
    try:
        brute_force_probability(params, PAIRS_I, PAIRS_J, -0.4, times)
        brute_force_probability(params, 1, 2, 0.0, 1.5)
        brute_force_flavour_ket(params, 2, times)
        brute_force_operator(params, 1, times)
        brute_force_dirac_norm(params, np.array([[1], [2]]), times)
        brute_force_dirac_overlap(params, times)
    finally:
        sys.setprofile(None)
    assert ("ptosc.oracle", "_spectral_data") in reached  # the profile sees the oracle
    modules = {module for module, _ in reached}
    assert not modules & {"ptosc.states", "ptosc.probabilities", "ptosc.inner",
                          "ptosc.validation"}, modules
    assert not reached & {("ptosc.model", "eigensystem"), ("ptosc.model", "cprime_matrix"),
                          ("ptosc.model", "_cprime_matrix"),
                          ("ptosc.oracle", "numeric_eigensystem"),
                          ("ptosc.oracle", "_eigenvalues")}, reached


def test_tolerance_schedule():
    assert tolerance_for_eta(0.5) == 1e-10
    assert tolerance_for_eta(0.95) == 1e-10
    assert tolerance_for_eta(0.999) == 1e-8


class TestTimeArrays:
    def test_probability_over_a_time_grid_matches_single_calls(self, swapped_params):
        t0s = np.array([-0.4, 0.0, 2.5])
        ts = t0s + np.linspace(0.0, 6.0, 5)[:, None]
        for i, j in ((1, 1), (1, 2), (2, 1), (2, 2)):
            values = brute_force_probability(swapped_params, i, j, t0s, ts)
            assert values.shape == (5, 3)
            for index in np.ndindex(values.shape):
                single = brute_force_probability(swapped_params, i, j, t0s[index[1]], ts[index])
                assert values[index] == single

    def test_one_spectral_solve_per_call(self, params, monkeypatch):
        from ptosc import oracle

        calls = []
        original = oracle._spectral_data
        monkeypatch.setattr(oracle, "_spectral_data",
                            lambda p: calls.append(p) or original(p))
        brute_force_probability(params, 1, 2, 0.0, np.linspace(0.0, 10.0, 64))
        assert len(calls) == 1

    def test_dirac_quantities_over_a_time_grid(self, params):
        times = np.array([-2.0, 0.0, 3.3])
        norms = brute_force_dirac_norm(params, 1, times)
        overlaps = brute_force_dirac_overlap(params, times)
        for k, t in enumerate(times):
            assert norms[k] == brute_force_dirac_norm(params, 1, t)
            assert overlaps[k] == brute_force_dirac_overlap(params, t)
        np.testing.assert_allclose(brute_force_flavour_ket(params, 2, times)[1],
                                   [0.0, 1.0], atol=1e-12)

    @pytest.mark.parametrize("t0", [1e8, 1e10, 1e12, 1e15, 1e17, -1e8])
    def test_times_it_cannot_resolve_refused(self, params, t0):
        """Where one ulp of t moves the phase x = rate t by more than half
        of tolerance_for_eta, t0 + dt has rounded dt away: every brute-force
        function refuses, where it returned values up to 3.1e-3 off (and
        -3.9e-18 at t0 = 1e17)."""
        calls = [lambda: brute_force_probability(params, 1, 2, t0, t0 + 6.068),
                 lambda: brute_force_flavour_ket(params, 1, t0),
                 lambda: brute_force_operator(params, 2, t0),
                 lambda: brute_force_dirac_norm(params, 1, np.array([0.0, t0])),
                 lambda: brute_force_dirac_overlap(params, t0)]
        for call in calls:
            with pytest.raises(DomainError, match=re.escape(f"|t| = {abs(t0):.6g} resolves the "
                                                            "mode phases only to ")):
                call()

    def test_resolvable_large_times_answer_within_tolerance(self, params):
        t0 = 1e6
        dt = (t0 + 6.068) - t0  # the representable separation
        closed = probability_closed_form(1, 2, dt, eigensystem(params)).value
        brute = brute_force_probability(params, 1, 2, t0, t0 + 6.068)
        assert abs(brute - closed) <= tolerance_for_eta(params.eta)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan, "array"])
    @pytest.mark.parametrize("call", [
        lambda params, t: brute_force_probability(params, 1, 2, 0.0, t),
        lambda params, t: brute_force_flavour_ket(params, 1, t),
        lambda params, t: brute_force_operator(params, 2, t),
        lambda params, t: brute_force_dirac_norm(params, 1, t),
        lambda params, t: brute_force_dirac_overlap(params, t),
    ], ids=["probability", "flavour_ket", "operator", "dirac_norm", "dirac_overlap"])
    def test_non_finite_time_refused(self, params, call, bad):
        """A DomainError naming the time, not a NaN after a numpy warning."""
        t = np.array([0.0, math.inf, 1.5]) if bad == "array" else bad
        shown = "inf" if bad == "array" else repr(bad)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=f"^time must be finite, got {shown}$"):
                call(params, t)


class TestFlavourArrays:
    """Flavour indices broadcast with the times: all four (i, j) pairs of a
    system come from one call and one spectral solve."""

    PAIR_I = np.array([[1], [1], [2], [2]])
    PAIR_J = np.array([[1], [2], [1], [2]])

    @pytest.mark.parametrize("fixture", ["params", "swapped_params"])
    def test_all_pairs_in_one_call_equal_per_pair_single_calls(self, request, fixture):
        p = request.getfixturevalue(fixture)
        times = -0.4 + np.linspace(0.0, 9.0, 11)
        values = brute_force_probability(p, self.PAIR_I, self.PAIR_J, -0.4, times)
        assert values.shape == (4, 11)
        for k, (i, j) in enumerate(zip(self.PAIR_I[:, 0], self.PAIR_J[:, 0])):
            assert np.array_equal(values[k], brute_force_probability(p, int(i), int(j),
                                                                     -0.4, times))
            for n, t in enumerate(times.tolist()):
                assert values[k, n] == brute_force_probability(p, int(i), int(j), -0.4, t)

    def test_dirac_norms_of_both_flavours_in_one_call(self, swapped_params):
        times = np.array([-2.0, 0.0, 3.3, 40.0])
        norms = brute_force_dirac_norm(swapped_params, np.array([[1], [2]]), times)
        assert norms.shape == (2, 4)
        for row, i in enumerate((1, 2)):
            for k, t in enumerate(times.tolist()):
                assert norms[row, k] == brute_force_dirac_norm(swapped_params, i, t)

    def test_one_spectral_solve_for_all_pairs(self, params, monkeypatch):
        from ptosc import oracle

        calls = []
        original = oracle._spectral_data
        monkeypatch.setattr(oracle, "_spectral_data",
                            lambda p: calls.append(p) or original(p))
        brute_force_probability(params, self.PAIR_I, self.PAIR_J, 0.0,
                                np.linspace(0.0, 10.0, 64))
        brute_force_dirac_norm(params, np.array([[1], [2]]), np.linspace(0.0, 10.0, 64))
        assert len(calls) == 2

    @pytest.mark.parametrize("bad", [0, 3, "1", np.array([[1], [3]]), 1.5, None, [1, 3]])
    def test_flavour_outside_one_and_two_is_refused(self, params, bad):
        """Every entry point that takes a flavour index refuses a bad one,
        alone or in an array, with the same message."""
        es = eigensystem(params)
        calls = [
            lambda: flavour_ket(bad, 1.0, es),
            lambda: tilde_bra(bad, 1.0, es),
            lambda: mixed_basis_pair(bad, 1.0, es),
            lambda: trace_probabilities(bad, 1, 0.0, 1.0, es),
            lambda: trace_probabilities(1, bad, 0.0, 1.0, es),
            lambda: probability_closed_form(bad, 1, 1.0, es),
            lambda: probability_closed_form(1, bad, 1.0, es),
            lambda: dirac_norm(bad, 1.0, es),
            lambda: brute_force_flavour_ket(params, bad, 1.0),
            lambda: brute_force_probability(params, bad, 1, 0.0, 1.0),
            lambda: brute_force_probability(params, 1, bad, 0.0, 1.0),
        ]
        message = re.escape(f"flavour index must be 1 or 2, got {bad!r}")
        for call in calls:
            with pytest.raises(DomainError, match=f"^{message}$"):
                call()


def package_imports(module) -> set:
    """The ptosc modules that a module's source imports from."""
    import ast
    from pathlib import Path

    tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith(
                "ptosc")):
            found.add((node.module or "").removeprefix("ptosc").lstrip("."))
        elif isinstance(node, ast.Import):
            assert not any(alias.name.startswith("ptosc") for alias in node.names)
    return found


def test_oracle_imports_only_errors_and_model():
    """The oracle is the independent third route: it may build on the raw
    matrices (model) and the error types, never on states, probabilities,
    inner or validation."""
    import ptosc.oracle

    assert package_imports(ptosc.oracle) == {"errors", "model"}


def test_states_imports_only_model():
    """Every bra in states contracts with the metric its eigensystem stores,
    so states needs no conjugation map from inner."""
    import ptosc.states

    assert package_imports(ptosc.states) == {"model"}
