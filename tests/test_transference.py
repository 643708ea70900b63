"""Parameter correspondences and the two algorithm bijections."""

import math

import numpy as np
import pytest

from rkhsquad.algorithms import KernelGenerator, ParamRule, level_choice_for_eps
from rkhsquad.errors import DomainError, ShapeMismatchError
from rkhsquad.hermite import gauss_hermite_rule
from rkhsquad.kernels import (
    APPROXIMATION,
    INTEGRATION,
    KernelSpec,
    initial_error,
    matched_parameters,
)
from rkhsquad.transference import (
    TransferConstants,
    _axis_twins,
    beta_from_sigma,
    phi_c,
    sigma_from_beta,
    spectral_pair,
    transfer_quadrature_to_gaussian,
    transfer_quadrature_to_hermite,
    transfer_sampling_to_gaussian,
    transfer_sampling_to_hermite,
)
from rkhsquad.verify import (
    cost_invariance_battery,
    integration_identity_battery,
    qc_isometry_battery,
    sampling_coeffs_via_quadrature,
    scaled_integral_identity_battery,
)
from rkhsquad.worst_case import (
    MultiIndexSet,
    QuadratureRule,
    SamplingMethod,
    optimal_weights,
    spline_method,
    wce_approximation,
    wce_integration,
)


class TestParameterMaps:
    def test_integration_examples(self):
        assert beta_from_sigma(INTEGRATION, math.sqrt(0.5)) == pytest.approx(0.5, rel=1e-15)
        assert beta_from_sigma(INTEGRATION, 1.0) == pytest.approx(2.0 / 3.0, rel=1e-15)
        assert sigma_from_beta(INTEGRATION, 0.5) == pytest.approx(math.sqrt(0.5), rel=1e-15)
        assert sigma_from_beta(INTEGRATION, 2.0 / 3.0) == pytest.approx(1.0, rel=1e-15)

    def test_approximation_examples(self):
        assert beta_from_sigma(APPROXIMATION, 1.0) == pytest.approx(0.5, rel=1e-15)
        assert sigma_from_beta(APPROXIMATION, 0.5) == pytest.approx(1.0, rel=1e-15)

    @pytest.mark.parametrize("problem", [INTEGRATION, APPROXIMATION])
    def test_round_trip_and_monotonicity(self, problem):
        sigmas = np.exp(np.linspace(np.log(0.02), np.log(5.0), 25))
        betas = [beta_from_sigma(problem, s) for s in sigmas]
        assert all(0.0 < b < 1.0 for b in betas)
        assert all(b2 > b1 for b1, b2 in zip(betas, betas[1:]))
        for s, b in zip(sigmas, betas):
            assert sigma_from_beta(problem, b) == pytest.approx(s, rel=1e-15)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            beta_from_sigma(INTEGRATION, 0.0)
        with pytest.raises(DomainError):
            sigma_from_beta(APPROXIMATION, 1.0)
        with pytest.raises(DomainError):
            beta_from_sigma("interpolation", 1.0)

    @pytest.mark.parametrize("call", [
        lambda: KernelSpec.gaussian((math.nan,)),
        lambda: KernelSpec.gaussian((math.inf,)),
        lambda: TransferConstants.integration([math.nan]),
        lambda: beta_from_sigma(INTEGRATION, math.nan),
        lambda: level_choice_for_eps(0.1, [math.nan]),
    ], ids=["spec-nan", "spec-inf", "constants-nan", "beta-nan", "levels-nan"])
    def test_non_finite_shapes_rejected(self, call):
        with pytest.raises(DomainError):
            call()

    @pytest.mark.parametrize("problem", [INTEGRATION, APPROXIMATION])
    def test_every_caller_shares_the_matched_parameters(self, problem):
        sigma = np.exp(np.random.default_rng(1).uniform(np.log(0.01), np.log(10.0), size=40))
        beta, c = matched_parameters(problem, sigma)
        assert [beta_from_sigma(problem, s) for s in sigma] == beta.tolist()
        tc = getattr(TransferConstants, problem)(sigma)
        assert np.array_equal(tc.beta, beta) and np.array_equal(tc.c, c)
        if problem == INTEGRATION:
            rule = ParamRule.parse("j^-1.5")
            gen = KernelGenerator.hermite_twin_of_gaussian(rule)
            assert np.array_equal(gen.params(40), matched_parameters(problem, rule.values(40))[0])
        else:
            system = spectral_pair(sigma[:3], MultiIndexSet.box(3, 2))[0]
            assert np.array_equal(system.beta, beta[:3])
            assert np.array_equal(system.scale_c, c[:3])


class TestTransferConstants:
    def test_integration_relations(self):
        sigma = np.array([0.3, 1.0, 2.2])
        tc = TransferConstants.integration(sigma)
        s2 = sigma**2
        assert np.allclose(1.0 - tc.beta, 1.0 / (1.0 + 2.0 * s2), rtol=1e-15)
        assert np.allclose(tc.c, np.sqrt(1.0 + 4.0 * s2), rtol=1e-15)
        assert np.allclose(tc.tau, np.sqrt(1.0 + 2.0 * s2), rtol=1e-15)
        assert np.allclose(tc.e, tc.c / tc.tau, rtol=1e-15)

    def test_prefactor_matches_initial_error(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            d = int(rng.integers(1, 5))
            sigma = np.exp(rng.uniform(np.log(0.05), np.log(3.0), size=d))
            spec = KernelSpec.gaussian(tuple(sigma))
            tc_int = TransferConstants.integration(sigma)
            assert tc_int.gauss_prefactor == initial_error(spec, INTEGRATION)
            tc_app = TransferConstants.approximation(sigma)
            assert tc_app.gauss_prefactor == initial_error(spec, APPROXIMATION)


class TestChangeOfVariables:
    def test_phi_at_origin(self):
        assert phi_c((2.0, 0.5), (0.0, 0.0)) == 1.0

    def test_phi_example(self):
        assert phi_c((math.sqrt(3.0),), (1.0,)) == pytest.approx(math.exp(-0.5), rel=1e-15)

    def test_phi_identity_scale(self):
        assert phi_c((1.0,), (17.3,)) == 1.0

    def test_phi_rows(self):
        # one weight per node row, each the value at that point
        c = (1.3, 0.8)
        rows = np.random.default_rng(1).normal(size=(5, 2))
        assert phi_c(c, rows).tolist() == [phi_c(c, x) for x in rows]

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            phi_c((1.0, 2.0), (0.0,))
        with pytest.raises(ShapeMismatchError):
            phi_c((1.0, 2.0), np.zeros((3, 1)))


class TestQuadratureTransfer:
    @pytest.mark.parametrize("sigma", [0.3, 1.0, 10.0])
    def test_axis_twins_match_the_rule_map(self, sigma):
        # coordinate 1 of a two-coordinate set gives the bits of the one-coordinate rule map
        constants = TransferConstants.integration([0.5, sigma])
        rules = [(r.nodes, r.weights) for r in map(gauss_hermite_rule, range(1, 61))]
        for (x, w), (y, v) in zip(rules, _axis_twins(constants, 1, rules), strict=True):
            twin = transfer_quadrature_to_hermite(QuadratureRule(x[:, None], w), [sigma])
            assert y.tobytes() == twin.nodes[:, 0].tobytes()
            assert v.tobytes() == twin.weights.tobytes()

    def test_single_node_zero(self):
        rule = QuadratureRule(np.array([[0.0]]), np.array([2.0**-0.5]))
        twin = transfer_quadrature_to_hermite(rule, [math.sqrt(0.5)])
        assert twin.nodes[0, 0] == 0.0
        assert twin.weights[0] == pytest.approx(math.sqrt(3.0) / 2.0, rel=1e-14)
        herm = KernelSpec.hermite((0.5,))
        gauss = KernelSpec.gaussian((math.sqrt(0.5),))
        e_h = wce_integration(twin, herm)
        e_g = wce_integration(rule, gauss)
        assert e_h == pytest.approx((math.sqrt(3.0) - 1.0) / 2.0, rel=1e-12)
        assert e_g == pytest.approx(3.0**-0.25 * e_h, rel=1e-12)

    def test_node_one_weights(self):
        rule = QuadratureRule(np.array([[1.0]]), np.array([1.0]))
        twin = transfer_quadrature_to_hermite(rule, [math.sqrt(0.5)])
        e_scale = math.sqrt(1.5)
        assert twin.nodes[0, 0] == pytest.approx(e_scale, rel=1e-15)
        assert twin.weights[0] == pytest.approx(e_scale * math.exp(-0.25), rel=1e-14)

    def test_zero_rule_maps_to_zero_rule(self):
        rule = QuadratureRule(np.array([[0.4], [-1.0]]), np.zeros(2))
        twin = transfer_quadrature_to_hermite(rule, [1.0])
        assert np.all(twin.weights == 0.0)
        back = transfer_quadrature_to_gaussian(twin, [1.0])
        assert np.array_equal(back.weights, rule.weights)

    def test_inverse_example(self):
        twin = QuadratureRule(np.array([[0.0]]), np.array([math.sqrt(3.0) / 2.0]))
        back = transfer_quadrature_to_gaussian(twin, [math.sqrt(0.5)])
        assert back.weights[0] == pytest.approx(2.0**-0.5, rel=1e-14)

    def test_bijection_round_trip(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            d = int(rng.integers(1, 4))
            n = int(rng.integers(1, 9))
            sigma = np.exp(rng.uniform(np.log(0.1), np.log(2.0), size=d))
            rule = QuadratureRule(rng.normal(size=(n, d)), rng.normal(size=n))
            back = transfer_quadrature_to_gaussian(
                transfer_quadrature_to_hermite(rule, sigma), sigma
            )
            assert np.allclose(back.nodes, rule.nodes, rtol=1e-14, atol=0)
            assert np.allclose(back.weights, rule.weights, rtol=1e-14, atol=1e-300)

    def test_identity_battery(self):
        assert integration_identity_battery() <= 1e-10

    def test_cost_invariance(self):
        assert cost_invariance_battery()

    def test_normalized_errors_coincide(self):
        # optimal rules on fixed nodes: normalized errors agree across spaces
        rng = np.random.default_rng(3)
        for n in (1, 2, 4):
            sigma = np.array([0.9])
            gauss = KernelSpec.gaussian(tuple(sigma))
            herm = KernelSpec.hermite((beta_from_sigma(INTEGRATION, 0.9),))
            nodes = rng.normal(size=(n, 1))
            opt = optimal_weights(nodes, gauss)
            twin = transfer_quadrature_to_hermite(opt, sigma)
            lhs = wce_integration(opt, gauss) / initial_error(gauss, INTEGRATION)
            rhs = wce_integration(twin, herm) / initial_error(herm, INTEGRATION)
            assert lhs == pytest.approx(rhs, rel=1e-10)


class TestSamplingTransfer:
    def test_zero_method_ratio(self):
        sigma = np.array([1.0])
        idx = MultiIndexSet.box(1, 40)
        gauss_sys, herm_sys = spectral_pair(sigma, idx)
        zero = SamplingMethod.zero(1, idx)
        twin = transfer_sampling_to_hermite(zero, sigma)
        assert np.all(twin.coeff_table == 0.0)
        e_g, _ = wce_approximation(zero, gauss_sys)
        e_h, _ = wce_approximation(twin, herm_sys)
        tc = TransferConstants.approximation(sigma)
        assert e_g == pytest.approx(tc.gauss_prefactor * e_h, rel=1e-12)

    def test_node_zero_scaling(self):
        # node at the origin stays put; rows scale by (prod c)^(1/2)
        sigma = np.array([1.0])
        idx = MultiIndexSet.box(1, 5)
        coeff = np.zeros((1, idx.size))
        coeff[0, 0] = 1.0
        method = SamplingMethod(np.zeros((1, 1)), coeff, idx)
        twin = transfer_sampling_to_hermite(method, sigma)
        assert twin.nodes[0, 0] == 0.0
        assert twin.coeff_table[0, 0] == pytest.approx(3.0**0.25, rel=1e-14)

    def test_spline_identity_within_tails(self):
        rng = np.random.default_rng(4)
        sigma = np.array([0.45])
        idx = MultiIndexSet.box(1, 40)
        gauss_sys, herm_sys = spectral_pair(sigma, idx)
        nodes = rng.normal(size=(4, 1))
        spline = spline_method(nodes, gauss_sys)
        twin = transfer_sampling_to_hermite(spline, sigma)
        e_g, t_g = wce_approximation(spline, gauss_sys)
        e_h, t_h = wce_approximation(twin, herm_sys)
        tc = TransferConstants.approximation(sigma)
        assert t_g + tc.gauss_prefactor * t_h <= 1e-6
        assert abs(e_g - tc.gauss_prefactor * e_h) <= t_g + tc.gauss_prefactor * t_h

    def test_bijection_round_trip(self):
        rng = np.random.default_rng(5)
        sigma = np.array([0.7, 1.1])
        idx = MultiIndexSet.box(2, 3)
        method = SamplingMethod(rng.normal(size=(3, 2)), rng.normal(size=(3, idx.size)), idx)
        back = transfer_sampling_to_gaussian(transfer_sampling_to_hermite(method, sigma), sigma)
        assert np.allclose(back.nodes, method.nodes, rtol=1e-14, atol=0)
        assert np.allclose(back.coeff_table, method.coeff_table, rtol=1e-13, atol=0)

    def test_quadrature_oracle_agrees_with_rescaling(self):
        rng = np.random.default_rng(6)
        sigma = np.array([0.8])
        idx = MultiIndexSet.box(1, 6)
        method = SamplingMethod(
            rng.normal(size=(2, 1)), rng.normal(size=(2, idx.size)), idx
        )
        twin = transfer_sampling_to_hermite(method, sigma)
        oracle = sampling_coeffs_via_quadrature(method, sigma)
        assert np.allclose(oracle, twin.coeff_table, rtol=1e-9, atol=1e-11)

    def test_identity_for_arbitrary_methods(self):
        # the error identity is not specific to splines: any coefficient
        # table transfers with the same ratio, exactly on the shared index
        # set and within the combined tails for the true errors
        rng = np.random.default_rng(41)
        for _ in range(6):
            d = int(rng.integers(1, 3))
            sigma = np.exp(rng.uniform(np.log(0.2), np.log(0.8), size=d))
            idx = MultiIndexSet.box(d, 24 if d == 2 else 40)
            gauss_sys, herm_sys = spectral_pair(sigma, idx)
            n = int(rng.integers(1, 5))
            method = SamplingMethod(
                rng.normal(size=(n, d)), 0.3 * rng.normal(size=(n, idx.size)), idx
            )
            twin = transfer_sampling_to_hermite(method, sigma)
            tc = TransferConstants.approximation(sigma)
            e_g, t_g = wce_approximation(method, gauss_sys)
            e_h, t_h = wce_approximation(twin, herm_sys)
            residual = abs(e_g - tc.gauss_prefactor * e_h)
            assert residual <= t_g + tc.gauss_prefactor * t_h + 1e-12
            assert residual <= 1e-10 * max(e_g, 1.0)

    def test_cost_preserved_for_sampling_methods(self):
        from rkhsquad.worst_case import CostModel, rule_cost

        rng = np.random.default_rng(7)
        sigma = np.array([0.6, 1.2, 0.9])
        idx = MultiIndexSet.box(3, 1)
        nodes = np.array([[0.0, 0.0, 0.0], [1.2, 0.0, -0.3], [0.0, 0.4, 0.0]])
        method = SamplingMethod(nodes, rng.normal(size=(3, idx.size)), idx)
        twin = transfer_sampling_to_hermite(method, sigma)
        for model in (CostModel.unit(), CostModel.dollar([1.0, 2.0, 4.0, 8.0])):
            assert rule_cost(method, model) == rule_cost(twin, model)


class TestAnalyticBatteries:
    def test_qc_isometry(self):
        assert qc_isometry_battery() <= 1e-8

    def test_scaled_integral_identity(self):
        assert scaled_integral_identity_battery() <= 1e-8
