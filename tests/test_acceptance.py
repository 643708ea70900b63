"""Acceptance criteria: one test per criterion, at the stated tolerances.

Each test prints a single PASS line with its runtime; run with ``-s`` (or
read captured output) to see the acceptance report.
"""

import math
import time

import numpy as np
import pytest

from rkhsquad.algorithms import (
    KernelGenerator,
    ParamRule,
    gh_error_on_space,
    integration_error_lower_bound,
    level_choice_for_eps,
)
from rkhsquad.experiments import decay_estimate, fit_stretched_exponent, mdm_run_curve
from rkhsquad.hermite import gauss_hermite_rule
from rkhsquad.kernels import (
    APPROXIMATION,
    INTEGRATION,
    KernelSpec,
    gaussian_kernel,
    hermite_kernel,
    initial_error,
)
from rkhsquad.transference import (
    TransferConstants,
    sigma_from_beta,
    spectral_pair,
    transfer_sampling_to_hermite,
)
from rkhsquad.verify import (
    cost_invariance_battery,
    integration_identity_battery,
    qc_isometry_battery,
    scaled_integral_identity_battery,
    suite_mehler,
    suite_spectral,
)
from rkhsquad.worst_case import (
    CostModel,
    MultiIndexSet,
    spline_method,
    tensor_optimal_wce,
    wce_approximation,
)


def _report(number, name, started, limit):
    elapsed = time.time() - started
    print(f"ACCEPTANCE {number} {name}: PASS ({elapsed:.1f}s, limit {limit:.0f}s)")
    assert elapsed <= limit, f"runtime {elapsed:.1f}s exceeded the {limit:.0f}s limit"


def test_acceptance_1_integration_transference_identity():
    started = time.time()
    worst = integration_identity_battery()
    assert worst <= 1e-10, f"worst relative residual {worst:.3e}"
    _report(1, "integration transference identity", started, 10.0)


def test_acceptance_2_approximation_transference_identity():
    started = time.time()
    rng = np.random.default_rng(77)
    cases = [(1, 3), (1, 6), (1, 4), (2, 4), (2, 6), (2, 5)]
    for d, n in cases:
        # sigma in [0.2, 0.6]: small enough that the degree-40 eigenvalue
        # tails certify 1e-6, large enough that the n <= 6 spline Gram
        # stays within the conditioning policy
        sigma = np.exp(rng.uniform(np.log(0.2), np.log(0.6), size=d))
        constants = TransferConstants.approximation(sigma)
        index_set = MultiIndexSet.box(d, 40)
        gauss_sys, herm_sys = spectral_pair(sigma, index_set)
        nodes = rng.normal(0.0, 1.0, size=(n, d))
        method = spline_method(nodes, gauss_sys)
        twin = transfer_sampling_to_hermite(method, sigma)
        e_g, tail_g = wce_approximation(method, gauss_sys)
        e_h, tail_h = wce_approximation(twin, herm_sys)
        combined = tail_g + constants.gauss_prefactor * tail_h
        assert combined <= 1e-6, f"combined tails {combined:.3e}"
        residual = abs(e_g - constants.gauss_prefactor * e_h)
        assert residual <= combined + 1e-14, f"residual {residual:.3e} above tails"
    _report(2, "approximation transference identity", started, 60.0)


def _double_integral_oracle(family, param, n=256):
    rule = gauss_hermite_rule(n)
    X = rule.nodes
    if family == "gaussian":
        K = gaussian_kernel(param, X[:, None], X[None, :])
    else:
        K = hermite_kernel(param, X[:, None], X[None, :])
    return float(rule.weights @ K @ rule.weights)


def _embedding_norm_oracle(family, param, n=256):
    rule = gauss_hermite_rule(n)
    X = rule.nodes
    if family == "gaussian":
        K = gaussian_kernel(param, X[:, None], X[None, :])
    else:
        K = hermite_kernel(param, X[:, None], X[None, :])
    sw = np.sqrt(rule.weights)
    return float(np.linalg.eigvalsh(sw[:, None] * K * sw[None, :])[-1])


def test_acceptance_3_initial_error_closed_forms():
    started = time.time()
    rng = np.random.default_rng(12)
    for _ in range(20):
        d = int(rng.integers(1, 4))
        if rng.random() < 0.5:
            family = "gaussian"
            params = np.exp(rng.uniform(np.log(0.05), np.log(3.0), size=d))
        else:
            family = "hermite"
            params = rng.uniform(0.05, 0.95, size=d)
        spec = KernelSpec(family, tuple(params))
        oracle_int = math.sqrt(np.prod([_double_integral_oracle(family, p) for p in params]))
        assert initial_error(spec, INTEGRATION) == pytest.approx(oracle_int, rel=1e-9)
        oracle_app = math.sqrt(np.prod([_embedding_norm_oracle(family, p) for p in params]))
        assert initial_error(spec, APPROXIMATION) == pytest.approx(oracle_app, rel=1e-9)
    _report(3, "initial-error closed forms vs oracles", started, 5.0)


def test_acceptance_4_univariate_error_sandwich():
    started = time.time()
    ns = np.arange(1, 21)
    for beta in (0.2, 0.5, 0.8):
        herm = KernelSpec.hermite((beta,))
        errors = []
        for n in ns:
            value, _ = gh_error_on_space(int(n), herm)
            assert value >= integration_error_lower_bound(herm, int(n))
            errors.append(value)
        slope = float(np.polyfit(ns, np.log(errors), 1)[0])
        assert slope <= math.log(beta) + 0.05, f"hermite slope {slope:.4f} at beta={beta}"

        sigma = sigma_from_beta(INTEGRATION, beta)
        gauss = KernelSpec.gaussian((sigma,))
        prefactor = (1.0 + 4.0 * sigma**2) ** -0.25
        errors_g = []
        for n in ns:
            value, _ = gh_error_on_space(int(n), gauss)
            lower = prefactor * integration_error_lower_bound(herm, int(n))
            assert value >= lower
            assert integration_error_lower_bound(gauss, int(n)) == pytest.approx(lower, rel=1e-12)
            errors_g.append(value)
        slope_g = float(np.polyfit(ns, np.log(errors_g), 1)[0])
        assert slope_g <= math.log(beta) + 0.05, f"gaussian slope {slope_g:.4f} at beta={beta}"
    _report(4, "univariate error sandwich", started, 10.0)


def test_acceptance_5_exponential_convergence_smoke():
    started = time.time()
    spec = KernelSpec.gaussian((1.0, 1.0))
    ks = range(1, 15)
    ns, errors = [], []
    for k in ks:
        factor = gauss_hermite_rule(k)
        ns.append(k * k)
        errors.append(tensor_optimal_wce([factor, factor], spec))
    # the single-node rule carries no rate information; fit from k = 2 on
    p, c, _ = fit_stretched_exponent(ns[1:], errors[1:])
    assert 0.4 <= p <= 0.6, f"fitted exponent {p:.3f}"
    assert c > 0.0

    # constructive accuracy-driven level choice: the bound holds as built
    sigma = np.array([1.0, 1.0])
    zeta = np.log1p(1.0 / (2.0 * sigma**2))
    for eps in (0.5, 0.1, 0.01, 0.001):
        n_j = level_choice_for_eps(eps, sigma)
        assert float(np.sum(np.exp(-n_j * zeta))) <= eps
    _report(5, "exponential-convergence smoke test", started, 30.0)


def test_acceptance_6_infinite_variate_decay():
    started = time.time()
    gen = KernelGenerator.hermite_twin_of_gaussian(ParamRule.parse("j^-1.5"))
    model = CostModel.dollar([float(1 + m) for m in range(24)])
    budgets = [10.0, 31.6, 100.0, 316.0, 1000.0, 3162.0, 10000.0, 31623.0, 100000.0]
    rows = mdm_run_curve(gen, budgets, model, trunc=2048, max_coord=512, pool_size=2048)
    est = decay_estimate([(cost, err) for cost, err, _ in rows])
    assert est.exponent >= 0.65, f"decay exponent {est.exponent:.3f}"
    assert est.r_squared >= 0.9, f"r^2 {est.r_squared:.3f}"
    _report(6, "infinite-variate decay (MDM)", started, 300.0)


def test_acceptance_7_oracle_batteries():
    started = time.time()
    for result in suite_mehler():
        assert result.passed, f"{result.name}: {result.detail}"
    for result in suite_spectral():
        assert result.passed, f"{result.name}: {result.detail}"
    assert qc_isometry_battery() <= 1e-8
    assert scaled_integral_identity_battery() <= 1e-8
    _report(7, "oracle batteries", started, 30.0)


def test_acceptance_8_cost_invariance():
    started = time.time()
    assert cost_invariance_battery()
    _report(8, "cost invariance under transference", started, 30.0)
