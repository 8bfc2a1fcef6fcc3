"""Flavour states: time-zero reductions, biorthonormality, the mixed basis
and the mode functions."""

import cmath
import math

import numpy as np
import pytest

from ptosc import (
    ExceptionalPoint,
    cprime_ket,
    cprime_matrix,
    cpt_bra,
    cpt_conjugate,
    dirac_bra,
    eigensystem,
    flavour_ket,
    inner,
    make_params,
    mixed_basis_bra,
    mixed_basis_ket,
    mixed_basis_pair,
    params_from_eta,
    parity_matrix,
    pt_bra,
    tilde_bra,
    xi,
)

TIME_GRID = (-5.0, 0.0, 0.3, 7.9)
ETA_GRID = (0.1, 0.5, 0.9)


def systems():
    return [eigensystem(params_from_eta(eta)) for eta in ETA_GRID]


class TestModeFunctions:
    def test_time_zero(self, es):
        assert xi("plus", 0.0, es) == 1.0

    def test_unit_modulus(self, es):
        assert abs(xi("minus", 17.3, es)) == pytest.approx(1.0, abs=1e-15)

    def test_worked_frequency(self, es):
        t = 2.3
        assert xi("plus", t, es) == pytest.approx(cmath.exp(1j * math.sqrt(1.9) * t))

    @pytest.mark.parametrize("branch", ["plus", "minus"])
    def test_equation_of_motion_by_finite_differences(self, es, branch):
        h = 1e-4
        omega_sq = es.omega(branch) ** 2
        for t in TIME_GRID:
            second = (xi(branch, t + h, es) - 2.0 * xi(branch, t, es)
                      + xi(branch, t - h, es)) / (h * h)
            assert abs(second + omega_sq * xi(branch, t, es)) / omega_sq < 1e-6


class TestFlavourKet:
    def test_reduces_to_standard_basis_at_time_zero(self, es):
        np.testing.assert_allclose(flavour_ket(1, 0.0, es), [1.0, 0.0], atol=1e-14)
        np.testing.assert_allclose(flavour_ket(2, 0.0, es), [0.0, 1.0], atol=1e-14)

    def test_eigenvector_weights(self, es):
        # decompose ket(1, t) in the eigenbasis: weights cosh(theta) xi+ and
        # sinh(theta) xi-
        t = 1.9
        basis = np.column_stack([es.e_plus, es.e_minus])
        weights = np.linalg.solve(basis, flavour_ket(1, t, es))
        assert weights[0] == pytest.approx(es.cosh_theta * xi("plus", t, es), abs=1e-12)
        assert weights[1] == pytest.approx(es.sinh_theta * xi("minus", t, es), abs=1e-12)

    def test_normalised_variant_scales_by_root_sech(self, es):
        bare = flavour_ket(1, 0.4, es)
        scaled = es.mixed_basis_norm * flavour_ket(1, 0.4, es)
        factor = math.sqrt(es.sech_two_theta)
        np.testing.assert_allclose(scaled, factor * bare, rtol=1e-14)

    def test_exceptional_point_refused(self):
        with pytest.raises(ExceptionalPoint):
            eigensystem(make_params(2.0, 1.0, 0.5))

    def test_swapped_system_uses_heavy_first_axes(self, swapped_es):
        # flavour 1 (the lighter diagonal) sits on the second heavy-first axis
        np.testing.assert_allclose(
            flavour_ket(1, 0.0, swapped_es), [0.0, 1.0], atol=1e-14)
        np.testing.assert_allclose(
            flavour_ket(2, 0.0, swapped_es), [1.0, 0.0], atol=1e-14)


class TestTildeBra:
    def test_reduces_to_standard_covectors_at_time_zero(self, es):
        np.testing.assert_allclose(tilde_bra(1, 0.0, es), [1.0, 0.0], atol=1e-13)
        np.testing.assert_allclose(tilde_bra(2, 0.0, es), [0.0, 1.0], atol=1e-13)

    def test_biorthonormal_at_worked_time(self, es):
        assert inner(tilde_bra(1, 3.7, es), flavour_ket(1, 3.7, es)) == pytest.approx(1.0, abs=1e-12)
        assert inner(tilde_bra(1, 3.7, es), flavour_ket(2, 3.7, es)) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("t", TIME_GRID)
    def test_biorthonormality_across_grid(self, t):
        for es in systems():
            for i in (1, 2):
                for j in (1, 2):
                    value = inner(tilde_bra(i, t, es), flavour_ket(j, t, es))
                    assert value == pytest.approx(1.0 if i == j else 0.0, abs=1e-12)


class TestCptBra:
    def test_time_zero_worked_point(self, es):
        np.testing.assert_allclose(cpt_bra(1, 0.0, es), [1.25, 0.75], atol=1e-13)
        np.testing.assert_allclose(cpt_bra(2, 0.0, es), [0.75, 1.25], atol=1e-13)

    @pytest.mark.parametrize("t", [0.0, 2.7, -4.1])
    def test_nonorthogonality_is_cosh_and_sinh_two_theta(self, es, t):
        # the C'PT conjugates do NOT give an orthonormal basis
        assert inner(cpt_bra(1, t, es), flavour_ket(1, t, es)) == pytest.approx(1.25, abs=1e-12)
        assert inner(cpt_bra(1, t, es), flavour_ket(2, t, es)) == pytest.approx(0.75, abs=1e-12)
        assert inner(cpt_bra(2, t, es), flavour_ket(2, t, es)) == pytest.approx(1.25, abs=1e-12)

    def test_matches_explicit_eigenbasis_expansion(self, es):
        t = 1.3
        sect_plus = cpt_conjugate(es.eta, es.e_plus)
        sect_minus = cpt_conjugate(es.eta, es.e_minus)
        expected = (es.cosh_theta * xi("plus", t, es).conjugate() * sect_plus
                    + es.sinh_theta * xi("minus", t, es).conjugate() * sect_minus)
        np.testing.assert_allclose(cpt_bra(1, t, es), expected, atol=1e-13)


class TestCprimeKet:
    def test_time_zero_worked_point(self, es):
        np.testing.assert_allclose(cprime_ket(2, 0.0, es), [0.75, -1.25], atol=1e-13)

    def test_orthogonal_to_cpt_bra_of_other_flavour(self, es):
        assert inner(cpt_bra(1, 0.0, es), cprime_ket(2, 0.0, es)) == pytest.approx(0.0, abs=1e-12)

    def test_reduces_to_parity_action_at_zero_mixing(self):
        es0 = eigensystem(make_params(2.0, 1.0, 0.0))
        np.testing.assert_allclose(cprime_ket(2, 0.0, es0), [0.0, -1.0], atol=1e-14)

    def test_equals_expansion_with_flipped_minus_coefficient(self, es):
        t = 0.8
        expected = (es.sinh_theta * xi("plus", t, es) * es.e_plus
                    - es.cosh_theta * xi("minus", t, es) * es.e_minus)
        np.testing.assert_allclose(cprime_ket(2, t, es), expected, atol=1e-13)


class TestPtBra:
    def test_parity_action_at_time_zero(self, es):
        np.testing.assert_allclose(pt_bra(2, 0.0, es), [0.0, -1.0], atol=1e-14)

    def test_pairs_with_cprime_ket(self, es):
        value = inner(pt_bra(2, 0.0, es), cprime_ket(2, 0.0, es))
        assert value == pytest.approx(1.25, abs=1e-12)
        normalised = inner(es.mixed_basis_norm * pt_bra(2, 0.0, es),
                           es.mixed_basis_norm * cprime_ket(2, 0.0, es))
        assert normalised == pytest.approx(1.0, abs=1e-12)

    def test_annihilates_other_flavour_ket(self, es):
        assert inner(pt_bra(2, 2.1, es), flavour_ket(1, 2.1, es)) == pytest.approx(0.0, abs=1e-12)


class TestDiracBra:
    def test_real_components_at_time_zero(self, es):
        np.testing.assert_allclose(dirac_bra(1, 0.0, es), [1.0, 0.0], atol=1e-14)

    def test_norm_grows_at_half_period(self, es):
        t = math.pi / es.delta_omega
        value = inner(dirac_bra(1, t, es), flavour_ket(1, t, es))
        assert value == pytest.approx(2.125, abs=1e-12)

    def test_flavours_orthogonal_only_at_time_zero(self, es):
        assert inner(dirac_bra(1, 0.0, es), flavour_ket(2, 0.0, es)) == pytest.approx(0.0, abs=1e-14)
        assert abs(inner(dirac_bra(1, 0.9, es), flavour_ket(2, 0.9, es))) > 1e-2


class TestMixedBasis:
    @pytest.mark.parametrize("t", TIME_GRID)
    def test_orthonormal_for_all_times_and_etas(self, t):
        for es in systems():
            for i in (1, 2):
                for j in (1, 2):
                    value = inner(mixed_basis_bra(i, t, es), mixed_basis_ket(j, t, es))
                    assert value == pytest.approx(1.0 if i == j else 0.0, abs=1e-12)

    def test_dispatch(self, es, swapped_es):
        for system in (es, swapped_es):
            for i in (1, 2):  # the dispatch follows the heavy-first label
                ket, bra = ((flavour_ket, cpt_bra) if (i == 1) != system.swapped
                            else (cprime_ket, pt_bra))
                pair = mixed_basis_pair(i, 0.7, system)
                assert np.array_equal(pair[0], system.mixed_basis_norm * ket(i, 0.7, system))
                assert np.array_equal(pair[1], system.mixed_basis_norm * bra(i, 0.7, system))

    def test_orthonormal_for_swapped_orientation(self, swapped_es):
        for i in (1, 2):
            for j in (1, 2):
                value = inner(mixed_basis_bra(i, 1.1, swapped_es),
                              mixed_basis_ket(j, 1.1, swapped_es))
                assert value == pytest.approx(1.0 if i == j else 0.0, abs=1e-12)


def test_cprime_section_identity():
    """(C'^T v)^sect = v^dag P for random complex vectors: reflecting a ket
    with C' turns its C'PT bra into the plain PT bra."""
    rng = np.random.default_rng(5)
    par = parity_matrix()
    for eta in ETA_GRID:
        cp_t = cprime_matrix(eta).T
        for _ in range(100):
            v = rng.normal(size=2) + 1j * rng.normal(size=2)
            lhs = cpt_conjugate(eta, cp_t @ v)
            np.testing.assert_allclose(lhs, v.conj() @ par, atol=1e-12)


class TestTimeArrays:
    """Every state function takes an array of times; each element equals the
    single-time call bit for bit (the stacked check_all families rely on it)."""

    TIMES = np.array([-5.0, -0.0, 0.0, 0.3, 7.9, 1e3, -123.456])

    @pytest.mark.parametrize("fixture", ["es", "swapped_es"])
    @pytest.mark.parametrize("fn", [flavour_ket, tilde_bra, cpt_bra, pt_bra, dirac_bra,
                                    cprime_ket, mixed_basis_ket, mixed_basis_bra])
    @pytest.mark.parametrize("i", [1, 2])
    def test_state_stacks_equal_single_time_calls(self, request, fixture, fn, i):
        system = request.getfixturevalue(fixture)
        stack = fn(i, self.TIMES, system)
        assert stack.shape == self.TIMES.shape + (2,)
        for k, t in enumerate(self.TIMES.tolist()):
            single = fn(i, t, system)
            assert single.shape == (2,)
            assert np.array_equal(stack[k], single), (fn.__name__, t)

    @pytest.mark.parametrize("branch", ["plus", "minus"])
    def test_xi_over_a_time_grid_equals_single_calls(self, es, branch):
        times = self.TIMES.reshape(7, 1) + np.array([0.0, 1e-4])
        phases = xi(branch, times, es)
        assert phases.shape == times.shape
        for index in np.ndindex(times.shape):
            single = xi(branch, float(times[index]), es)
            assert type(single) is complex and phases[index] == single

    def test_tilde_bra_at_many_random_times(self, es):
        times = np.random.default_rng(5).uniform(-50.0, 50.0, size=200)
        for i in (1, 2):
            stack = tilde_bra(i, times, es)
            for k, t in enumerate(times.tolist()):
                assert np.array_equal(stack[k], tilde_bra(i, t, es))
