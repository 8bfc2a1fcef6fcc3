"""Parameter validation, eigensystem values and the metric matrices."""

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
    cprime_matrix,
    eigensystem,
    flavour_ket,
    hermitian_eigenvalues,
    make_params,
    mass_matrix,
    numeric_eigensystem,
    params_from_eta,
    parity_matrix,
    pt_eigenvalues,
)

from helpers import random_params

# frozen from independent arithmetic: eta = 2*0.3/1, N = 0.32**-0.5,
# theta = arctanh(0.6)/2, cosh/sinh of theta, delta_omega = sqrt(1.9)-sqrt(1.1)
ETA = 0.6
N_FACTOR = 1.7677669529663689
THETA = 0.34657359027997264
COSH_THETA = 1.0606601717798212
SINH_THETA = 0.35355339059327373
DELTA_OMEGA = 0.3295960270388705


class TestMakeParams:
    def test_worked_point(self, params):
        assert params.eta == pytest.approx(0.6, abs=1e-15)

    def test_hermitian_limit_allowed(self):
        assert make_params(2.0, 1.0, 0.0).eta == 0.0

    def test_degenerate_diagonal_rejected(self):
        with pytest.raises(DomainError, match=re.escape(
                "m1_sq == m2_sq: eta is undefined for a degenerate diagonal")):
            make_params(1.0, 1.0, 0.1)

    @pytest.mark.parametrize("fields", [
        (2.0, 2.0, 0.3, 0.0),
        (np.array([2.0]), np.array([2.0]), np.array([0.3]), np.array([0.0])),
    ], ids=["point", "batch"])
    def test_degenerate_diagonal_built_directly_raises_domain_error(self, fields):
        """A ModelParams built without make_params has eta refuse a degenerate
        diagonal as make_params does, with no ZeroDivisionError or warning."""
        from ptosc import ModelParams, brute_force_probability

        params = ModelParams(*fields)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for call in (lambda: params.eta, lambda: eigensystem(params),
                         lambda: brute_force_probability(params, 1, 2, 0.0, 1.0)):
                with pytest.raises(DomainError, match=re.escape(
                        "m1_sq == m2_sq: eta is undefined for a degenerate diagonal")):
                    call()

    @pytest.mark.parametrize("m1, m2", [(0.0, 1.0), (-2.0, 1.0), (2.0, -1.0)])
    def test_nonpositive_mass_rejected(self, m1, m2):
        with pytest.raises(DomainError, match=re.escape(
                f"diagonal squared masses must be positive, got {m1}, {m2}")):
            make_params(m1, m2, 0.1)

    def test_negative_mixing_rejected(self):
        with pytest.raises(DomainError, match=re.escape("mu_sq must be non-negative, got -0.1")):
            make_params(2.0, 1.0, -0.1)

    def test_negative_momentum_rejected(self):
        with pytest.raises(DomainError):
            make_params(2.0, 1.0, 0.1, -1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(DomainError):
            make_params(bad, 1.0, 0.1)

    def test_eta_above_one_accepted_at_params_level(self):
        # the Hermitian comparison model remains meaningful past eta = 1
        assert make_params(2.0, 1.0, 0.7).eta == pytest.approx(1.4)

    def test_params_from_eta_reproduces_worked_point(self):
        p = params_from_eta(0.6)
        assert (p.m1_sq, p.m2_sq) == (2.0, 1.0)
        assert p.mu_sq == pytest.approx(0.3, abs=1e-15)
        assert p.eta == pytest.approx(0.6, abs=1e-15)

    def test_params_from_eta_validates_ratio(self):
        with pytest.raises(DomainError):
            params_from_eta(0.5, ratio=1.0)

    def test_params_from_eta_names_eta_when_mu_sq_overflows(self):
        for eta in (1.5e308, np.array([0.5, 1.5e308])):
            with pytest.raises(DomainError, match=r"^eta = 1\.5e\+308 is too large: mu\^2 = "
                                                  r"eta \* sum_sq \* ratio / 2 overflows$"):
                params_from_eta(eta)
        # an eta whose mu^2 stays finite keeps the former arithmetic
        assert params_from_eta(1e308).mu_sq == 0.5 * 1e308 * 3.0 * (1.0 / 3.0)


class TestEigensystem:
    def test_worked_point_values(self, es):
        np.testing.assert_allclose([es.m_plus_sq, es.m_minus_sq], [1.9, 1.1], rtol=1e-12)
        assert es.eta == pytest.approx(ETA, abs=1e-15)
        assert es.n_factor == pytest.approx(N_FACTOR, rel=1e-12)
        assert es.theta == pytest.approx(THETA, rel=1e-12)
        assert es.cosh_theta == pytest.approx(COSH_THETA, rel=1e-12)
        assert es.sinh_theta == pytest.approx(SINH_THETA, rel=1e-12)
        assert es.omega_plus == pytest.approx(math.sqrt(1.9), rel=1e-14)
        assert es.omega_minus == pytest.approx(math.sqrt(1.1), rel=1e-14)
        assert es.delta_omega == pytest.approx(DELTA_OMEGA, rel=1e-12)

    def test_eigenvectors_pair_with_eigenvalues(self, es):
        m2 = es.oriented_mass_matrix()
        for vec, lam in ((es.e_plus, es.m_plus_sq), (es.e_minus, es.m_minus_sq)):
            assert np.linalg.norm(m2 @ vec - lam * vec) < 1e-10

    def test_hermitian_diagonal_limit(self):
        es0 = eigensystem(make_params(2.0, 1.0, 0.0))
        assert (es0.m_plus_sq, es0.m_minus_sq) == (2.0, 1.0)
        np.testing.assert_allclose(es0.e_plus, [1.0, 0.0], atol=1e-15)
        np.testing.assert_allclose(es0.e_minus, [0.0, 1.0], atol=1e-15)
        assert es0.n_factor == math.inf

    def test_exceptional_point_raises_with_merged_eigenvalue(self):
        with pytest.raises(ExceptionalPoint) as exc_info:
            eigensystem(make_params(2.0, 1.0, 0.5))
        assert exc_info.value.m_sq == pytest.approx(1.5, abs=1e-15)

    def test_exceptional_band(self):
        # within 1e-12 of eta = 1 counts as the exceptional point
        with pytest.raises(ExceptionalPoint):
            eigensystem(make_params(2.0, 1.0, 0.5 * (1.0 - 1e-13)))
        eigensystem(make_params(2.0, 1.0, 0.5 * (1.0 - 1e-11)))  # just outside

    @pytest.mark.parametrize("m1, m2", [(0.5, 1e-300), (1e-300, 0.5)])
    def test_lower_mass_rounding_to_zero_rejected(self, m1, m2):
        # exactly m_minus^2 = min(m1^2, m2^2) > 0 at eta = 0, but
        # (m1^2 + m2^2)/2 - |m1^2 - m2^2|/2 rounds to 0
        with pytest.raises(DomainError, match=re.escape(
                f"lower squared mass rounds to 0: the diagonal masses {m1:.6g} and {m2:.6g} "
                "are too far apart to resolve")):
            eigensystem(make_params(m1, m2, 0.0))

    def test_broken_phase_rejected(self):
        with pytest.raises(BrokenPTPhase):
            eigensystem(make_params(2.0, 1.0, 0.500001))

    def test_near_hermitian_eigenvectors_stay_standard(self):
        es = eigensystem(params_from_eta(1e-8))
        np.testing.assert_allclose(es.e_plus, [1.0, 0.0], atol=1e-6)
        np.testing.assert_allclose(es.e_minus, [0.0, 1.0], atol=1e-6)

    def test_swapped_orientation(self, swapped_es):
        assert swapped_es.swapped
        # flavour 1 is the second heavy-first axis, and flavour 2 the first
        np.testing.assert_allclose(flavour_ket(1, 0.0, swapped_es), [0.0, 1.0], atol=1e-12)
        np.testing.assert_allclose(flavour_ket(2, 0.0, swapped_es), [1.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(
            [swapped_es.m_plus_sq, swapped_es.m_minus_sq], [1.9, 1.1], rtol=1e-12)
        m2 = swapped_es.oriented_mass_matrix()
        for vec, lam in ((swapped_es.e_plus, swapped_es.m_plus_sq),
                         (swapped_es.e_minus, swapped_es.m_minus_sq)):
            assert np.linalg.norm(m2 @ vec - lam * vec) < 1e-10

    def test_invalid_flavour_index(self, es):
        with pytest.raises(DomainError):
            flavour_ket(3, 0.0, es)


class TestEigenvalueFunctions:
    def test_pt_eigenvalues_merge_at_exceptional_point(self):
        plus, minus = pt_eigenvalues(make_params(2.0, 1.0, 0.5))
        assert plus == minus == 1.5

    def test_pt_eigenvalues_reject_broken_phase(self):
        with pytest.raises(BrokenPTPhase):
            pt_eigenvalues(make_params(2.0, 1.0, 0.6))

    def test_hermitian_eigenvalues_worked_point(self, params):
        plus, minus = hermitian_eigenvalues(params)
        split = 0.5 * math.sqrt(1.0 + 4.0 * 0.09)
        assert plus == pytest.approx(1.5 + split, rel=1e-14)
        assert minus == pytest.approx(1.5 - split, rel=1e-14)

    def test_hermitian_lower_mass_crosses_zero_at_predicted_eta(self):
        # ratio 0.5: zero crossing at eta = sqrt((1/0.5)^2 - 1) = sqrt(3)
        eta_star = math.sqrt(3.0)
        _, minus = hermitian_eigenvalues(params_from_eta(eta_star, ratio=0.5))
        assert abs(minus) < 1e-12
        _, below = hermitian_eigenvalues(params_from_eta(eta_star - 0.01, ratio=0.5))
        _, above = hermitian_eigenvalues(params_from_eta(eta_star + 0.01, ratio=0.5))
        assert below > 0.0 > above


class TestMetricMatrices:
    def test_parity_matrix(self):
        par = parity_matrix()
        np.testing.assert_array_equal(par, [[1.0, 0.0], [0.0, -1.0]])
        np.testing.assert_array_equal(par @ par, np.eye(2))

    def test_parity_pseudo_hermiticity(self, params):
        m2 = mass_matrix(params)
        par = parity_matrix()
        np.testing.assert_allclose(par @ m2 @ par, m2.conj().T, atol=1e-14)

    def test_cprime_worked_point(self):
        np.testing.assert_allclose(
            cprime_matrix(0.6), [[1.25, -0.75], [0.75, -1.25]], rtol=1e-14)

    def test_cprime_degenerates_to_parity_at_zero_mixing(self):
        np.testing.assert_array_equal(cprime_matrix(0.0), parity_matrix())

    def test_cprime_squares_to_identity(self):
        cp = cprime_matrix(0.6)
        np.testing.assert_allclose(cp @ cp, np.eye(2), atol=1e-14)

    def test_cprime_parity_product_symmetric(self):
        cp = cprime_matrix(0.6)
        cpp = cp @ parity_matrix()
        np.testing.assert_array_equal(cpp, cpp.T)

    def test_cprime_transpose_fixes_eigenvectors(self, es):
        # sign convention: C'^T e+ = e+, C'^T e- = -e-
        cp_t = cprime_matrix(es.eta).T
        np.testing.assert_allclose(cp_t @ es.e_plus, es.e_plus, atol=1e-12)
        np.testing.assert_allclose(cp_t @ es.e_minus, -es.e_minus, atol=1e-12)

    def test_cprime_invariance_of_mass_matrix(self, es):
        cp_t = cprime_matrix(es.eta).T
        m2 = es.oriented_mass_matrix()
        np.testing.assert_allclose(cp_t @ m2 @ cp_t, m2, atol=1e-10)

    @pytest.mark.parametrize("heavy_first", [True, False])
    def test_eigensystem_metrics_are_the_matrix_products_bit_for_bit(self, heavy_first):
        """es.cpt_metric is C' P and es.cprime is C' exactly, signs
        of zero included, for single systems and for a stack of them."""
        m1, m2 = (2.0, 1.0) if heavy_first else (1.0, 2.0)
        etas = np.array([0.0, 1e-8, 0.5, 0.95, 1.0 - 1e-9])
        systems = [eigensystem(make_params(m1, m2, 0.5 * eta, 0.3)) for eta in etas]
        systems.append(eigensystem(make_params(np.full(5, m1), m2, 0.5 * etas, 0.3)))
        for es in systems:
            cp = cprime_matrix(es.eta)
            for got, want in ((es.cpt_metric, cp @ parity_matrix()),
                              (es.cprime, cp)):
                assert got.shape == want.shape and got.dtype == want.dtype
                assert got.tobytes() == want.tobytes()

    def test_cprime_rejects_exceptional_point_and_beyond(self):
        with pytest.raises(ExceptionalPoint):
            cprime_matrix(1.0)
        with pytest.raises(BrokenPTPhase):
            cprime_matrix(1.5)
        with pytest.raises(DomainError, match=re.escape("eta must be non-negative, got -0.1")):
            cprime_matrix(-0.1)
        with pytest.raises(DomainError, match="not a finite number"):
            cprime_matrix(float("nan"))


@hyp.settings(max_examples=60, deadline=None)
@hyp.given(
    m_low=st.floats(0.2, 5.0),
    gap=st.floats(1e-3, 5.0),
    eta=st.floats(0.0, 0.99),
    p=st.floats(0.0, 2.0),
    flip=st.booleans(),
)
def test_spectral_invariants(m_low, gap, eta, p, flip):
    """Trace/determinant preservation and the theta parameterisation."""
    m1, m2 = (m_low + gap, m_low) if not flip else (m_low, m_low + gap)
    params = make_params(m1, m2, 0.5 * eta * gap, p)
    plus, minus = pt_eigenvalues(params)
    assert plus + minus == pytest.approx(m1 + m2, rel=1e-12)
    det = m1 * m2 + params.mu_sq ** 2
    assert plus * minus == pytest.approx(det, rel=1e-12)
    if eta < 1.0 - 1e-9:
        es = eigensystem(params)
        assert math.tanh(2.0 * es.theta) == pytest.approx(eta, abs=1e-12)
        assert es.cosh_theta ** 2 - es.sinh_theta ** 2 == pytest.approx(1.0, abs=1e-12)
        assert es.cosh_theta == pytest.approx(math.cosh(es.theta), rel=1e-12)
        assert es.sinh_theta == pytest.approx(math.sinh(es.theta), abs=1e-12)


def test_eigenvalues_match_numeric_oracle_on_random_draws():
    """Closed-form eigenvalues vs the characteristic-polynomial solver,
    1000 random draws over eta in [0, 0.99], both diagonal orderings."""
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(1000):
        p = random_params(rng)
        closed = pt_eigenvalues(p)
        numeric, _ = numeric_eigensystem(mass_matrix(p))
        numeric = np.sort(numeric.real)[::-1]
        scale = max(abs(closed[0]), 1.0)
        worst = max(worst, abs(closed[0] - numeric[0]) / scale,
                    abs(closed[1] - numeric[1]) / scale)
    assert worst < 1e-10


def test_eigenvector_residuals_on_random_draws():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(300):
        p = random_params(rng)
        if p.eta >= 1.0 - 1e-9:
            continue
        es = eigensystem(p)
        m2 = es.oriented_mass_matrix()
        scale = np.linalg.norm(m2)
        for vec, lam in ((es.e_plus, es.m_plus_sq), (es.e_minus, es.m_minus_sq)):
            worst = max(worst, np.linalg.norm(m2 @ vec - lam * vec) / scale)
    assert worst < 1e-10


def test_momentum_whose_square_overflows_is_refused():
    from ptosc.model import ModelParams

    with pytest.raises(DomainError, match="p\\^2 overflows"):
        make_params(0.5, 1.0, 0.1, 1e160)
    with pytest.raises(DomainError, match="p\\^2 overflows"):
        make_params(2.0, 1.0, 0.3, np.array([0.5, 1e160]))
    # past make_params, and where p^2 is finite but p^2 + m^2 is not: the
    # mode frequencies would be inf and delta_omega 0
    for params in (ModelParams(0.5, 1.0, 0.1, 1e160), make_params(1e308, 5e307, 0.0, 1.3e154)):
        with pytest.raises(DomainError, match="infinite mode frequencies"):
            eigensystem(params)
    es = eigensystem(make_params(0.5, 1.0, 0.1, 1e150))
    assert math.isfinite(es.omega_plus) and es.delta_omega > 0.0
