"""Decay estimation, information complexity, experiment curves."""

import math

import numpy as np
import pytest

from rkhsquad import algorithms, hermite
from rkhsquad.algorithms import KernelGenerator, ParamRule, gh_error_on_space
from rkhsquad.errors import DomainError, InsufficientDataError
from rkhsquad.experiments import (
    decay_estimate,
    empirical_info_complexity,
    fit_stretched_exponent,
    mdm_run_curve,
    tensor_decay_curve,
    univariate_decay_curve,
)
from rkhsquad.hermite import gauss_hermite_rule
from rkhsquad.kernels import KernelSpec
from rkhsquad.worst_case import CostModel


class TestDecayEstimate:
    def test_exact_power_law(self):
        pairs = [(n, n**-2.0) for n in (2, 4, 8, 16, 32, 64)]
        est = decay_estimate(pairs)
        assert est.exponent == pytest.approx(2.0, abs=1e-10)
        assert est.r_squared == pytest.approx(1.0, abs=1e-12)
        assert est.points_used >= 3

    def test_constant_errors(self):
        est = decay_estimate([(n, 0.5) for n in (1, 2, 4, 8)])
        assert est.exponent == pytest.approx(0.0, abs=1e-12)

    def test_too_few_points(self):
        with pytest.raises(InsufficientDataError):
            decay_estimate([(1.0, 0.5)])
        with pytest.raises(InsufficientDataError):
            decay_estimate([(1.0, 0.5), (2.0, 0.2)])

    @pytest.mark.parametrize("cost", [9.0, 1.0])
    def test_equal_costs_rejected(self, cost):
        # one distinct cost fixes no slope; log(1) = 0 would also make the fit singular
        with pytest.raises(InsufficientDataError):
            decay_estimate([(cost, 0.3), (cost, 0.2), (cost, 0.1)])

    def test_positive_errors_required(self):
        with pytest.raises(DomainError):
            decay_estimate([(1.0, 0.5), (2.0, 0.0), (3.0, 0.1)])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_points_rejected(self, bad):
        # a NaN error gave exponent NaN with r^2 = 1; a NaN or inf cost made
        # LAPACK fail inside polyfit
        with pytest.raises(DomainError, match="errors must be finite"):
            decay_estimate([(1, 0.5), (2, bad), (3, 0.1), (4, 0.05)])
        with pytest.raises(DomainError, match="costs must be finite"):
            decay_estimate([(1, 0.5), (bad, 0.2), (3, 0.1), (4, 0.05)])

    def test_window_is_largest_cost_half(self):
        # a transient on the small-cost side must not bias the estimate
        pairs = [(c, 3.0) for c in (1, 2, 4)] + [(c, 100.0 * c**-1.5) for c in (64, 256, 1024, 4096)]
        est = decay_estimate(pairs)
        assert est.exponent == pytest.approx(1.5, abs=1e-10)

    @pytest.mark.parametrize("tau", [0.5, 1.0, 2.0])
    def test_polylog_recovery(self, tau):
        # cost^-tau times a slowly varying factor over three decades
        costs = np.logspace(1, 4, 13)
        errors = costs**-tau * (1.0 + np.log(costs)) ** 0.25
        est = decay_estimate(list(zip(costs, errors)))
        assert abs(est.exponent - tau) <= 0.05


class TestInfoComplexity:
    def test_absolute(self):
        curve = [(1.0, 0.5), (2.0, 0.05)]
        assert empirical_info_complexity(curve, 0.1, e0=1.0) == 2.0

    def test_normalized_coincides_when_e0_is_one(self):
        curve = [(1.0, 0.5), (2.0, 0.05), (7.0, 0.001)]
        for eps in (0.3, 0.05, 0.002):
            assert empirical_info_complexity(curve, eps, 1.0, "absolute") == (
                empirical_info_complexity(curve, eps, 1.0, "normalized")
            )

    def test_normalized_scales(self):
        curve = [(1.0, 0.5), (2.0, 0.05)]
        assert empirical_info_complexity(curve, 0.2, e0=0.5, criterion="normalized") == 2.0

    def test_unreachable_is_inf(self):
        assert empirical_info_complexity([(1.0, 0.5)], 0.01, 1.0) == math.inf

    def test_validation(self):
        with pytest.raises(InsufficientDataError):
            empirical_info_complexity([], 0.1, 1.0)
        with pytest.raises(DomainError):
            empirical_info_complexity([(1.0, 0.5)], 0.1, 1.0, "relative")

    @pytest.mark.parametrize("eps", [math.nan, math.inf, 0.0, -0.1])
    def test_eps_must_be_finite_and_positive(self, eps):
        with pytest.raises(DomainError, match="eps must be finite and positive"):
            empirical_info_complexity([(1.0, 0.5)], eps, 1.0)
        # a normalized target eps * e0 needs the same of e0
        with pytest.raises(DomainError, match="e0 must be finite and positive"):
            empirical_info_complexity([(1.0, 0.5)], 0.1, eps, "normalized")

    @pytest.mark.parametrize("point", [(math.nan, 0.01), (2.0, math.nan), (math.inf, 0.01), (2.0, math.inf)])
    def test_non_finite_curve_points_rejected(self, point):
        # a NaN cost reaching the target was returned as the complexity
        with pytest.raises(DomainError, match="must be finite"):
            empirical_info_complexity([(1.0, 0.5), point], 0.1, 1.0)


class TestStretchedExponentFit:
    def test_recovers_planted_exponent(self):
        ns = np.array([k * k for k in range(2, 15)], dtype=float)
        for p_true in (0.4, 0.5, 0.6):
            errors = 0.7 * np.exp(-1.1 * ns**p_true)
            p, c, _ = fit_stretched_exponent(ns, errors)
            assert abs(p - p_true) <= 0.01
            assert c == pytest.approx(1.1, rel=0.05)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_inputs_rejected(self, bad):
        # a NaN or inf error gave (0.1, nan, nan)
        ns = np.arange(1.0, 9.0)
        errors = np.exp(-ns)
        with pytest.raises(DomainError, match="errors must be finite"):
            fit_stretched_exponent(ns, np.where(ns == 4.0, bad, errors))
        with pytest.raises(DomainError, match="ns must be finite"):
            fit_stretched_exponent(np.where(ns == 4.0, bad, ns), errors)


class TestCurves:
    def test_univariate_curve_monotone(self):
        rows = univariate_decay_curve("hermite", 0.5, 12)
        errors = [r[1] for r in rows]
        assert all(b < a for a, b in zip(errors, errors[1:]))
        assert all(r[1] >= r[2] for r in rows)  # error above the lower bound
        assert len({r[3] for r in rows}) == 1  # one fitted rate, repeated

    def test_univariate_curve_gaussian(self):
        rows = univariate_decay_curve("gaussian", 1.0, 6)
        assert [r[0] for r in rows] == list(range(1, 7))
        assert all(r[1] > 0 for r in rows)

    @pytest.mark.parametrize("space, param", [("hermite", 0.5), ("gaussian", 1.0)])
    def test_univariate_curve_one_recurrence_pass(self, space, param, monkeypatch):
        # the curve runs one Hermite recurrence over the nodes of all 200 rules,
        # not one per n, and each error equals the one-rule gh_error_on_space
        for n in range(1, 201):
            gauss_hermite_rule(n)  # cached: only moment passes reach the stream below
        passes, stream = [], hermite._hermite_blocks

        def counted(nu_max, x, block):
            passes.append(x.size)
            return stream(nu_max, x, block)

        monkeypatch.setattr(hermite, "_hermite_blocks", counted)
        rows = univariate_decay_curve(space, param, 200)
        assert passes == [200 * 201 // 2]
        passes.clear()
        spec = KernelSpec(space, (param,))
        assert [r[1] for r in rows] == [gh_error_on_space(n, spec)[0] for n in range(1, 201)]
        assert passes == list(range(1, 201))

    def test_tensor_curve(self):
        rows = tensor_decay_curve([1.0, 1.0], [0.5, 0.1], "gaussian")
        assert [r[0] for r in rows] == [0.5, 0.1]
        assert rows[1][2] == 64  # 8 x 8 grid at eps = 0.1
        assert rows[0][3] > rows[1][3] > 0.0  # smaller eps, smaller error

    def test_tensor_curve_size_needs_no_gaussian_grid(self, monkeypatch):
        # the size column counts the Hermite-side grid, which the transference maps node for node
        def refuse(*args, **kwargs):
            raise AssertionError("tensor_decay_curve transferred a grid")

        monkeypatch.setattr(algorithms, "transfer_quadrature_to_gaussian", refuse)
        for space in ("gaussian", "hermite"):
            rows = tensor_decay_curve([1.0, 0.5, 2.0], [0.1, 0.01], space)
            for _, choice, size, _ in rows:
                assert size == math.prod(int(n) for n in choice.split(";"))

    def test_tensor_curve_matches_dense_error(self):
        # the factorized error column equals the dense Gram value of the
        # returned rule on the requested space
        from rkhsquad.algorithms import tensor_rule_for_eps
        from rkhsquad.kernels import KernelSpec
        from rkhsquad.worst_case import wce_integration

        rows = tensor_decay_curve([1.0], [0.3], "gaussian")
        rule = tensor_rule_for_eps(0.3, [1.0], "gaussian")
        dense = wce_integration(rule, KernelSpec.gaussian((1.0,)))
        assert rows[0][3] == pytest.approx(dense, rel=1e-10)

    def test_mdm_curve(self):
        gen = KernelGenerator.hermite_twin_of_gaussian(ParamRule.parse("j^-1.5"))
        model = CostModel.dollar([float(1 + m) for m in range(16)])
        rows = mdm_run_curve(gen, [10.0, 40.0, 160.0], model, trunc=512,
                             max_coord=16, pool_size=64)
        costs = [r[0] for r in rows]
        errors = [r[1] for r in rows]
        assert costs == sorted(costs)
        assert errors[-1] < errors[0]
        assert all(r[2] >= 0.0 for r in rows)
