"""Worst-case errors, optimal weights, spectral systems, cost accounting."""

import math

import numpy as np
import pytest

from rkhsquad.errors import ConditioningError, DomainError, ShapeMismatchError
from rkhsquad.hermite import gauss_hermite_rule
from rkhsquad.kernels import KernelSpec, double_integral
from rkhsquad.worst_case import (
    CostModel,
    MultiIndexSet,
    QuadratureRule,
    SamplingMethod,
    concat_rules,
    embedding_vector,
    hermite_wce_integration_spectral,
    optimal_weights,
    rule_cost,
    spectral_system,
    spline_method,
    tensor_optimal_wce,
    tensor_wce_integration,
    wce_approximation,
    wce_integration,
)

HERM_HALF = KernelSpec.hermite((0.5,))
GAUSS_ONE = KernelSpec.gaussian((1.0,))


class TestQuadratureRule:
    def test_json_round_trip(self):
        rule = QuadratureRule(np.array([[0.0, 1.0], [2.0, -1.0]]), np.array([0.25, 0.75]))
        again = QuadratureRule.from_json(rule.to_json())
        assert np.array_equal(again.nodes, rule.nodes)
        assert np.array_equal(again.weights, rule.weights)

    def test_shape_validation(self):
        with pytest.raises(ShapeMismatchError):
            QuadratureRule(np.zeros((2, 1)), np.ones(3))

    @pytest.mark.parametrize("nodes, weights", [
        ([[np.nan], [1.0]], [0.5, 0.5]),
        ([[0.0], [-np.inf]], [0.5, 0.5]),
        ([[0.0], [1.0]], [np.inf, 0.5]),
        ([[0.0], [1.0]], [0.5, np.nan]),
    ])
    def test_non_finite_entries_rejected(self, nodes, weights):
        # wce_integration would otherwise return nan without complaint
        with pytest.raises(DomainError):
            QuadratureRule(np.array(nodes), np.array(weights))
        with pytest.raises(DomainError):
            QuadratureRule.from_json({"nodes": nodes, "weights": weights})


class TestMultiIndexSet:
    def test_box(self):
        box = MultiIndexSet.box(2, 1)
        assert box.indices == ((0, 0), (0, 1), (1, 0), (1, 1))
        assert box.dimension == 2 and box.size == 4

    def test_downward_closure_enforced(self):
        with pytest.raises(DomainError):
            MultiIndexSet(((0, 0), (1, 1)))
        MultiIndexSet(((0, 0), (0, 1), (1, 0), (1, 1)))  # fine

    def test_complement_minimal(self):
        box = MultiIndexSet.box(1, 3)
        assert box.complement_minimal() == ((4,),)
        tri = MultiIndexSet(((0, 0), (1, 0), (0, 1)))
        assert tri.complement_minimal() == ((0, 2), (1, 1), (2, 0))


class TestCostModel:
    def test_unit_mode(self):
        rule = QuadratureRule(np.zeros((3, 2)), np.ones(3))
        assert rule_cost(rule, CostModel.unit()) == 3.0

    def test_dollar_activity(self):
        model = CostModel.dollar([1.0, 2.0, 3.0, 4.0])
        rule = QuadratureRule(np.array([[0.0, 2.5, 0.0]]), np.array([1.0]))
        assert rule_cost(rule, model) == 2.0

    def test_dollar_powers(self):
        model = CostModel.dollar([1.0, 2.0, 4.0])
        rule = QuadratureRule(np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 0.0]]), np.ones(2))
        assert rule_cost(rule, model) == 5.0

    def test_cost_additivity(self):
        rng = np.random.default_rng(0)
        a = QuadratureRule(rng.normal(size=(3, 2)), rng.normal(size=3))
        b = QuadratureRule(rng.normal(size=(4, 2)), rng.normal(size=4))
        model = CostModel.dollar([1.0, 3.0, 9.0])
        assert rule_cost(concat_rules(a, b), model) == rule_cost(a, model) + rule_cost(b, model)

    def test_table_validation(self):
        with pytest.raises(DomainError):
            CostModel.dollar([0.5, 1.0])
        with pytest.raises(DomainError):
            CostModel.dollar([2.0, 1.0])
        with pytest.raises(DomainError):
            CostModel.dollar([math.nan, 2.0])
        with pytest.raises(DomainError):
            CostModel.dollar([1.0, math.inf])
        with pytest.raises(DomainError):
            CostModel.dollar([1.0, 1.5], c1=2.0)  # 1.5 < 2*1
        with pytest.raises(DomainError):
            CostModel.dollar([1.0, 4.0], c2=1.0)  # 4 > e^1
        CostModel.dollar([1.0, 2.0, 3.0], c1=1.0, c2=2.0)

    def test_table_range(self):
        model = CostModel.dollar([1.0, 2.0])
        with pytest.raises(DomainError):
            model.charge(2)

    def test_json_round_trip(self):
        assert CostModel.from_json({"mode": "unit"}) == CostModel.unit()
        model = CostModel.dollar([1.0, 2.0, 4.0])
        assert CostModel.from_json(model.to_json()) == model
        assert model.to_json() == {"mode": "dollar", "table": [1.0, 2.0, 4.0]}

    @pytest.mark.parametrize(
        "blob",
        [{"mode": "foo"}, {}, {"mode": "dollar"}, {"mode": "dollar", "table": []}],
        ids=["unknown-mode", "no-mode", "dollar-without-table", "dollar-empty-table"],
    )
    def test_from_json_rejects_bad_models(self, blob):
        with pytest.raises(DomainError):
            CostModel.from_json(blob)


class TestWceIntegration:
    def test_zero_weights_hermite_initial(self):
        rule = QuadratureRule(np.array([[0.3], [1.0]]), np.zeros(2))
        for beta in (0.2, 0.5, 0.9):
            assert wce_integration(rule, KernelSpec.hermite((beta,))) == 1.0

    def test_gaussian_one_node_example(self):
        rule = QuadratureRule(np.array([[0.0]]), np.array([2.0**-0.5]))
        value = wce_integration(rule, KernelSpec.gaussian((math.sqrt(0.5),)))
        expected_sq = 3.0**-0.5 - 2.0 * 2.0**-0.5 * 2.0**-0.5 + 0.5
        assert value == pytest.approx(math.sqrt(expected_sq), rel=1e-12)

    def test_hermite_one_node_example(self):
        rule = QuadratureRule(np.array([[0.0]]), np.array([1.0]))
        value = wce_integration(rule, HERM_HALF)
        assert value == pytest.approx(math.sqrt(2.0 / math.sqrt(3.0) - 1.0), rel=1e-13)

    def test_zero_weight_padding(self):
        rng = np.random.default_rng(5)
        spec = KernelSpec.gaussian((1.0, 0.4))
        rule = QuadratureRule(rng.normal(size=(5, 2)), rng.normal(size=5))
        padded = QuadratureRule(
            np.vstack([rule.nodes, [[0.7, -0.3]]]), np.append(rule.weights, 0.0)
        )
        assert abs(wce_integration(rule, spec) - wce_integration(padded, spec)) <= 1e-13

    def test_dimension_mismatch(self):
        rule = QuadratureRule(np.zeros((1, 2)), np.ones(1))
        with pytest.raises(ShapeMismatchError):
            wce_integration(rule, GAUSS_ONE)


class TestOptimalWeights:
    def test_hermite_single_node(self):
        rule = optimal_weights(np.array([[0.0]]), HERM_HALF)
        assert rule.weights[0] == pytest.approx(math.sqrt(3.0) / 2.0, rel=1e-14)
        err_sq = wce_integration(rule, HERM_HALF) ** 2
        assert err_sq == pytest.approx(1.0 - math.sqrt(3.0) / 2.0, rel=1e-12)

    def test_gaussian_single_node(self):
        rule = optimal_weights(np.array([[0.0]]), GAUSS_ONE)
        assert rule.weights[0] == pytest.approx(3.0**-0.5, rel=1e-14)
        err_sq = wce_integration(rule, GAUSS_ONE) ** 2
        assert err_sq == pytest.approx(5.0**-0.5 - 1.0 / 3.0, rel=1e-12)

    def test_duplicate_node_conditioning_error(self):
        with pytest.raises(ConditioningError) as err:
            optimal_weights(np.array([[0.5], [0.5]]), GAUSS_ONE)
        assert err.value.condition_estimate > 1e14

    def test_optimality_over_random_weights(self):
        rng = np.random.default_rng(6)
        for _ in range(30):
            d = int(rng.integers(1, 3))
            n = int(rng.integers(1, 7))
            spec = KernelSpec.gaussian(tuple(np.exp(rng.uniform(-1.0, 0.5, size=d))))
            nodes = rng.normal(0.0, 1.3, size=(n, d))
            best = wce_integration(optimal_weights(nodes, spec), spec)
            other = QuadratureRule(nodes, rng.normal(size=n))
            assert best <= wce_integration(other, spec) + 1e-12

    def test_pythagoras(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            spec = KernelSpec.gaussian((float(np.exp(rng.uniform(-1, 0.5))),))
            nodes = rng.normal(0.0, 1.5, size=(int(rng.integers(1, 7)), 1))
            opt = optimal_weights(nodes, spec)
            m = embedding_vector(spec, nodes)
            lhs = wce_integration(opt, spec) ** 2 + float(opt.weights @ m)
            assert lhs == pytest.approx(double_integral(spec), rel=1e-9)


class TestSpectralSystem:
    def test_hermite_eigenvalue(self):
        sys_h = spectral_system(HERM_HALF, MultiIndexSet.box(1, 5))
        pos = sys_h.index_set.indices.index((3,))
        assert sys_h.eigenvalues[pos] == pytest.approx(0.125, rel=1e-15)

    def test_gaussian_ground_eigenvalue(self):
        sys_g = spectral_system(GAUSS_ONE, MultiIndexSet.box(1, 5))
        pos = sys_g.index_set.indices.index((0,))
        assert sys_g.eigenvalues[pos] == pytest.approx(0.5, rel=1e-15)

    def test_gaussian_degree_two_eigenvalue(self):
        sys_g = spectral_system(GAUSS_ONE, MultiIndexSet.box(1, 5))
        pos = sys_g.index_set.indices.index((2,))
        assert sys_g.eigenvalues[pos] == pytest.approx(0.125, rel=1e-15)

    def test_eigenfunctions_orthonormal(self):
        rule = gauss_hermite_rule(96)
        pts = rule.nodes[:, None]
        for spec in (HERM_HALF, GAUSS_ONE, KernelSpec.gaussian((0.4,))):
            system = spectral_system(spec, MultiIndexSet.box(1, 8))
            E = system.eigenfunction_matrix(pts)
            gram = (E * rule.weights[None, :]) @ E.T
            assert np.max(np.abs(gram - np.eye(9))) <= 1e-10

    def test_axis_monotonicity(self):
        system = spectral_system(KernelSpec.hermite((0.3, 0.8)), MultiIndexSet.box(2, 3))
        idx = {nu: k for k, nu in enumerate(system.index_set.indices)}
        for nu, k in idx.items():
            for j in range(2):
                higher = list(nu)
                higher[j] += 1
                if tuple(higher) in idx:
                    assert system.eigenvalues[idx[tuple(higher)]] < system.eigenvalues[k]


class TestWceApproximation:
    def test_zero_method_hermite(self):
        idx = MultiIndexSet.box(1, 40)
        for beta in (0.25, 0.5, 0.9):
            system = spectral_system(KernelSpec.hermite((beta,)), idx)
            value, tail = wce_approximation(SamplingMethod.zero(1, idx), system)
            assert value == pytest.approx(1.0, rel=1e-12)
            assert tail <= 1e-15

    def test_zero_method_gaussian(self):
        idx = MultiIndexSet.box(1, 40)
        system = spectral_system(GAUSS_ONE, idx)
        value, _ = wce_approximation(SamplingMethod.zero(1, idx), system)
        assert value == pytest.approx(2.0**-0.5, rel=1e-12)

    def test_constant_reproducing_regression_value(self):
        # frozen fixture: single node 0, coefficient identically one
        idx = MultiIndexSet.box(1, 60)
        system = spectral_system(HERM_HALF, idx)
        coeff = np.zeros((1, idx.size))
        coeff[0, 0] = 1.0
        value, tail = wce_approximation(SamplingMethod(np.zeros((1, 1)), coeff, idx), system)
        assert value == pytest.approx(0.7071067811865474, rel=1e-12)
        assert tail <= 1e-6

    def test_monotone_refinement(self):
        rng = np.random.default_rng(3)
        nodes = rng.normal(size=(3, 1))
        prev = None
        for degree in (20, 30, 40, 50):
            idx = MultiIndexSet.box(1, degree)
            system = spectral_system(HERM_HALF, idx)
            value, tail = wce_approximation(spline_method(nodes, system), system)
            if prev is not None:
                assert tail <= prev[1]
                assert abs(value - prev[0]) <= prev[1]
            prev = (value, tail)

    def test_index_set_mismatch(self):
        system = spectral_system(HERM_HALF, MultiIndexSet.box(1, 5))
        method = SamplingMethod.zero(1, MultiIndexSet.box(1, 6))
        with pytest.raises(ShapeMismatchError):
            wce_approximation(method, system)

    def test_simplex_index_set_tail_bound(self):
        # non-box downward-closed set: the reported eigenvalue tail must
        # dominate the brute-force tail over a large enclosing box
        deg = 20
        idx = MultiIndexSet(tuple((i, j) for i in range(deg + 1) for j in range(deg + 1 - i)))
        spec = KernelSpec.hermite((0.4, 0.6))
        system = spectral_system(spec, idx)
        brute = sum(
            0.4**i * 0.6**j
            for i in range(80)
            for j in range(80)
            if (i, j) not in idx
        )
        assert brute <= system.tail_eigenvalue_sum() <= brute * (1.0 + 1e-9)
        assert system.max_tail_eigenvalue() == pytest.approx(0.6**21, rel=1e-12)
        value, tail = wce_approximation(SamplingMethod.zero(2, idx), system)
        assert value == pytest.approx(1.0, rel=1e-12)
        assert tail >= 0.0


class TestSplineMethod:
    def test_single_node_expansion(self):
        idx = MultiIndexSet.box(1, 10)
        system = spectral_system(HERM_HALF, idx)
        spline = spline_method(np.array([[0.0]]), system)
        from rkhsquad.hermite import hermite_normalized

        for nu in range(11):
            expected = 0.5**nu * hermite_normalized(nu, 0.0) * math.sqrt(3.0) / 2.0
            assert spline.coeff_table[0, nu] == pytest.approx(expected, abs=1e-15)

    def test_minimal_index_set(self):
        idx = MultiIndexSet(((0,),))
        system = spectral_system(HERM_HALF, idx)
        spline = spline_method(np.array([[0.0]]), system)
        assert spline.coeff_table.shape == (1, 1)

    def test_duplicate_node_conditioning_error(self):
        idx = MultiIndexSet.box(1, 5)
        system = spectral_system(HERM_HALF, idx)
        with pytest.raises(ConditioningError):
            spline_method(np.array([[0.2], [0.2]]), system)

    def test_beats_plain_interpolation_coefficients(self):
        # spline is worst-case optimal among methods on the same nodes
        rng = np.random.default_rng(9)
        idx = MultiIndexSet.box(1, 40)
        system = spectral_system(HERM_HALF, idx)
        nodes = rng.normal(size=(3, 1))
        spline = spline_method(nodes, system)
        v_spline, _ = wce_approximation(spline, system)
        perturbed = SamplingMethod(
            nodes, spline.coeff_table + 0.01 * rng.normal(size=spline.coeff_table.shape), idx
        )
        v_other, _ = wce_approximation(perturbed, system)
        assert v_spline <= v_other + 1e-12


class TestSamplingMethodJson:
    def test_round_trip(self):
        idx = MultiIndexSet.box(2, 1)
        method = SamplingMethod(np.array([[0.0, 1.0]]), np.array([[1.0, 0.0, 0.5, 0.0]]), idx)
        again = SamplingMethod.from_json(method.to_json())
        assert np.array_equal(again.nodes, method.nodes)
        assert np.array_equal(again.coeff_table, method.coeff_table)
        assert again.index_set.indices == idx.indices


class TestTensorShortcuts:
    def test_product_rule_matches_dense(self):
        spec = KernelSpec.gaussian((0.8, 1.2))
        g1, g2 = gauss_hermite_rule(3), gauss_hermite_rule(4)
        fast = tensor_wce_integration([g1, g2], spec)
        nodes = np.array([(x, y) for x in g1.nodes for y in g2.nodes])
        weights = np.array([wx * wy for wx in g1.weights for wy in g2.weights])
        dense = wce_integration(QuadratureRule(nodes, weights), spec)
        assert fast == pytest.approx(dense, rel=1e-10)

    def test_optimal_product_matches_dense(self):
        spec = KernelSpec.gaussian((1.0, 1.0))
        g = gauss_hermite_rule(4)
        fast = tensor_optimal_wce([g, g], spec)
        nodes = np.array([(x, y) for x in g.nodes for y in g.nodes])
        dense = wce_integration(optimal_weights(nodes, spec), spec)
        assert fast == pytest.approx(dense, rel=1e-8)

    def test_spectral_path_matches_gram(self):
        for n, beta in ((3, 0.5), (6, 0.8)):
            g = gauss_hermite_rule(n)
            value, tail = hermite_wce_integration_spectral(g.nodes, g.weights, beta)
            dense = wce_integration(
                QuadratureRule(g.nodes[:, None], g.weights), KernelSpec.hermite((beta,))
            )
            assert value == pytest.approx(dense, rel=1e-10)
            assert tail <= 1e-13 * value


class TestNegativeVarianceGuard:
    def test_tolerated_round_off(self):
        # optimal rule error stays non-negative under the clamp
        nodes = np.array([[0.0], [1.0], [-1.0]])
        opt = optimal_weights(nodes, GAUSS_ONE)
        assert wce_integration(opt, GAUSS_ONE) >= 0.0

    def test_tensor_factor_count_checked(self):
        g = gauss_hermite_rule(2)
        with pytest.raises(ShapeMismatchError):
            tensor_wce_integration([g], KernelSpec.gaussian((1.0, 1.0)))
        with pytest.raises(ShapeMismatchError):
            tensor_optimal_wce([g, g, g], KernelSpec.gaussian((1.0, 1.0)))
