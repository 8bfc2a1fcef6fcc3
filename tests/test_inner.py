"""Conjugation maps, the three inner products and their structure."""

import hypothesis as hyp
import hypothesis.strategies as st
import numpy as np
import pytest

from ptosc import (
    DomainError,
    ExceptionalPoint,
    cpt_conjugate,
    cpt_inner,
    dirac_dagger,
    dirac_inner,
    flavour_ket,
    inner,
    pt_conjugate,
    pt_inner,
)

finite_component = st.floats(-10.0, 10.0)


def complex_vector(draw):
    re = draw(st.tuples(finite_component, finite_component))
    im = draw(st.tuples(finite_component, finite_component))
    return np.array(re) + 1j * np.array(im)


class TestConjugations:
    def test_dirac_dagger_real_unit_vector(self):
        out = dirac_dagger(np.array([1.0, 0.0]))
        np.testing.assert_array_equal(out, [1.0, 0.0])

    def test_dirac_dagger_conjugates(self):
        out = dirac_dagger(np.array([1j, 1.0]))
        np.testing.assert_array_equal(out, [-1j, 1.0])

    def test_dirac_dagger_phase(self):
        phase = np.exp(1j * 0.7)
        out = dirac_dagger(np.array([phase, 0.0]))
        np.testing.assert_allclose(out, [phase.conjugate(), 0.0])

    def test_pt_conjugate_flips_second_component(self):
        out = pt_conjugate(np.array([0.0, 1.0]))
        np.testing.assert_array_equal(out, [0.0, -1.0])

    def test_cpt_conjugate_is_identity_metric_at_zero_mixing(self):
        out = cpt_conjugate(0.0, np.array([0.0, 1.0]))
        np.testing.assert_allclose(out, [0.0, 1.0], atol=1e-15)

    def test_cpt_conjugate_rejects_exceptional_point(self):
        with pytest.raises(ExceptionalPoint):
            cpt_conjugate(1.0, np.array([1.0, 0.0]))

    def test_cpt_conjugate_rejects_nan_eta(self):
        with pytest.raises(DomainError, match="not a finite number"):
            cpt_conjugate(float("nan"), np.array([1.0, 0.0]))


class TestEigenvectorNorms:
    def test_pt_norms_are_indefinite(self, es):
        assert pt_inner(es.e_plus, es.e_plus) == pytest.approx(1.0, abs=1e-12)
        assert pt_inner(es.e_minus, es.e_minus) == pytest.approx(-1.0, abs=1e-12)
        assert pt_inner(es.e_plus, es.e_minus) == pytest.approx(0.0, abs=1e-12)

    def test_cpt_norms_are_positive_and_orthogonal(self, es):
        assert cpt_inner(es.eta, es.e_plus, es.e_plus) == pytest.approx(1.0, abs=1e-12)
        assert cpt_inner(es.eta, es.e_minus, es.e_minus) == pytest.approx(1.0, abs=1e-12)
        assert cpt_inner(es.eta, es.e_plus, es.e_minus) == pytest.approx(0.0, abs=1e-12)


class TestInner:
    def test_flavour_states_dirac_orthogonal_at_time_zero(self, es):
        k1 = flavour_ket(1, 0.0, es)
        k2 = flavour_ket(2, 0.0, es)
        assert dirac_inner(k1, k2) == pytest.approx(0.0, abs=1e-14)

    def test_zero_covector_annihilates(self):
        assert inner(np.zeros(2), np.array([3.0 + 1j, -2.0])) == 0.0

    def test_inner_contracts_row_times_column(self):
        bra = np.array([1.0, 2.0])
        ket = np.array([3.0, 4.0])
        assert inner(bra, ket) == pytest.approx(11.0)


@hyp.settings(max_examples=80, deadline=None)
@hyp.given(data=st.data(), eta=st.floats(0.0, 0.95))
def test_sesquilinearity(data, eta):
    u = complex_vector(data.draw)
    v = complex_vector(data.draw)
    w = complex_vector(data.draw)
    alpha = complex(data.draw(finite_component), data.draw(finite_component))
    beta = complex(data.draw(finite_component), data.draw(finite_component))
    for conjugate in (dirac_dagger, pt_conjugate, lambda x: cpt_conjugate(eta, x)):
        bra = conjugate(u)
        lhs = inner(bra, alpha * v + beta * w)
        rhs = alpha * inner(bra, v) + beta * inner(bra, w)
        assert lhs == pytest.approx(rhs, abs=1e-12 * (1 + abs(rhs)))


def test_cpt_inner_positive_definite_for_random_real_vectors():
    """C'P has eigenvalues (1 +- eta)/sqrt(1 - eta^2) > 0, so every nonzero
    vector has a strictly positive real C'PT norm."""
    rng = np.random.default_rng(11)
    for _ in range(1000):
        v = rng.normal(size=2)
        while np.linalg.norm(v) < 1e-6:
            v = rng.normal(size=2)
        eta = rng.uniform(0.0, 0.95)
        value = cpt_inner(eta, v, v)
        assert abs(value.imag) < 1e-12
        assert value.real > 0.0


def test_cpt_inner_matches_dirac_at_zero_mixing():
    rng = np.random.default_rng(12)
    for _ in range(200):
        v, w = rng.normal(size=2), rng.normal(size=2)
        assert cpt_inner(0.0, v, w) == pytest.approx(dirac_inner(v, w), abs=1e-14)
