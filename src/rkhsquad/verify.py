"""Self-check batteries: oracle cross-validations runnable from the CLI.

Each suite returns a list of named check results; a suite passes when all
its checks do.  The batteries are deterministic (fixed seeds) so failures
are reproducible bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt

import numpy as np

from .algorithms import tensor_rule
from .hermite import gauss_hermite_rule, hermite_table
from .kernels import (
    KernelSpec,
    gaussian_kernel,
    hermite_kernel,
    hermite_kernel_series,
)
from .transference import (
    TransferConstants,
    _sampling_row_scale,
    phi_c,
    transfer_quadrature_to_gaussian,
    transfer_quadrature_to_hermite,
)
from .worst_case import (
    CostModel,
    MultiIndexSet,
    QuadratureRule,
    SamplingMethod,
    SpectralSystem,
    rule_cost,
    wce_approximation,
    wce_integration,
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _result(name, passed, detail=""):
    return CheckResult(name, bool(passed), detail)


# ---------------------------------------------------------------------------


def suite_mehler():
    """Closed Hermite-kernel form against the certified truncated series.

    The oracle reports its own certified error (truncation tail plus a
    rounding bound); the closed form must match within 1e-12 relative
    wherever the oracle can speak at that accuracy, and within the
    certificate everywhere.
    """
    grid = np.arange(-4.0, 5.0)
    x, y = grid[:, None], grid[None, :]
    worst = 0.0
    ok = True
    for beta in (0.1, 0.5, 0.9):
        closed = hermite_kernel(beta, x, y)
        series, cert = hermite_kernel_series(beta, x, y, terms=400)
        allowed = 1e-12 * np.abs(series) + cert
        gap = np.abs(closed - series)
        ok = ok and not np.any(gap > allowed)
        speaks = allowed > 0
        worst = max(worst, float(np.max(gap[speaks] / allowed[speaks], initial=0.0)))
    checks = [_result("mehler-vs-series-grid", ok, f"worst gap/allowance {worst:.3e}")]

    # spot value with an analytically tiny tail
    series, cert = hermite_kernel_series(0.3, 1.0, 1.0, terms=120)
    closed = float(hermite_kernel(0.3, 1.0, 1.0))
    checks.append(
        _result(
            "mehler-spot-beta-0.3",
            abs(closed - series) <= 1e-13 * abs(series) + cert and cert < 1e-14 * series,
            f"certified tail {cert:.3e}",
        )
    )
    return checks


# ---------------------------------------------------------------------------


def _double_factorial(p: int) -> float:
    out = 1.0
    while p > 1:
        out *= p
        p -= 2
    return out


def suite_spectral():
    checks = []

    # Gauss-Hermite orthonormality of the polynomial family
    worst = 0.0
    for n in (8, 24, 64):
        rule = gauss_hermite_rule(n)
        deg = 2 * n - 1
        table = hermite_table(deg, rule.nodes)
        gram = (table * rule.weights[None, :]) @ table.T
        i, j = np.indices(gram.shape)
        worst = max(worst, float(np.abs(gram - np.eye(deg + 1))[i + j <= deg].max()))
    checks.append(_result("gh-orthonormality", worst <= 1e-10, f"max deviation {worst:.3e}"))

    # moment exactness against (p-1)!!
    worst = 0.0
    for n in (2, 8, 64):
        rule = gauss_hermite_rule(n)
        for p in range(0, 2 * n):
            approx = float(np.sum(rule.weights * rule.nodes**p))
            if p % 2 == 1:
                scale = float(np.sum(rule.weights * np.abs(rule.nodes) ** p))
                worst = max(worst, abs(approx) / max(scale, 1.0))
            else:
                exact = _double_factorial(p - 1) if p else 1.0
                worst = max(worst, abs(approx - exact) / exact)
    checks.append(_result("gh-moment-exactness", worst <= 1e-10, f"max rel deviation {worst:.3e}"))

    # Mercer expansion of the Gaussian kernel from its spectral system.
    # Absolute tolerance: the kernel diagonal is 1, and at far-apart points
    # the partial sums cancel below what double precision can resolve
    # relative to the tiny kernel value.
    worst = 0.0
    for sigma in (0.5, 1.0):
        spec = KernelSpec.gaussian((sigma,))
        system = SpectralSystem(spec, MultiIndexSet.box(1, 60))
        pts = np.linspace(-2.5, 2.5, 7)[:, None]
        E = system.eigenfunction_matrix(pts)
        mercer = (E * system.eigenvalues[:, None]).T @ E
        for i, x in enumerate(pts):
            for j, y in enumerate(pts):
                exact = float(gaussian_kernel(sigma, x[0], y[0]))
                worst = max(worst, abs(mercer[i, j] - exact))
    checks.append(_result("gaussian-mercer-expansion", worst <= 1e-10, f"max abs {worst:.3e}"))

    # zero-method approximation errors match the initial errors
    idx = MultiIndexSet.box(1, 40)
    herm = SpectralSystem(KernelSpec.hermite((0.5,)), idx)
    v_h, t_h = wce_approximation(SamplingMethod.zero(1, idx), herm)
    gauss = SpectralSystem(KernelSpec.gaussian((1.0,)), idx)
    v_g, t_g = wce_approximation(SamplingMethod.zero(1, idx), gauss)
    checks.append(
        _result(
            "zero-method-initial-errors",
            abs(v_h - 1.0) <= 1e-12 and t_h <= 1e-15 and abs(v_g - sqrt(0.5)) <= 1e-12,
            f"hermite {v_h:.15f} tail {t_h:.2e}, gaussian {v_g:.15f} tail {t_g:.2e}",
        )
    )
    return checks


# ---------------------------------------------------------------------------


def _random_rule(rng, n, d):
    nodes = rng.normal(0.0, 1.2, size=(n, d))
    weights = rng.normal(0.0, 1.0 / n, size=n)
    return QuadratureRule(nodes, weights)


def integration_identity_battery():
    """Worst relative residual of the integration transference identity over 100 seeded rules."""
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(100):
        d = int(rng.integers(1, 5))
        n = int(rng.integers(1, 17))
        sigma = np.exp(rng.uniform(np.log(0.05), np.log(3.0), size=d))
        rule = _random_rule(rng, n, d)
        constants = TransferConstants.integration(sigma)
        twin = transfer_quadrature_to_hermite(rule, sigma)
        e_gauss = wce_integration(rule, constants.gaussian_spec())
        e_herm = wce_integration(twin, constants.hermite_spec())
        residual = abs(e_gauss - constants.gauss_prefactor * e_herm) / e_gauss
        worst = max(worst, residual)
    return worst


def cost_invariance_battery():
    """Exact cost preservation under transference for 50 seeded sparse rules."""
    rng = np.random.default_rng(7)
    for _ in range(50):
        d = int(rng.integers(2, 7))
        n = int(rng.integers(1, 9))
        sigma = np.exp(rng.uniform(np.log(0.1), np.log(2.0), size=d))
        nodes = np.zeros((n, d))
        for i in range(n):
            k = int(rng.integers(0, min(d, 3) + 1))
            cols = rng.choice(d, size=k, replace=False)
            nodes[i, cols] = rng.normal(0.0, 1.0, size=k)
        rule = QuadratureRule(nodes, rng.normal(0.0, 1.0, size=n))
        model = CostModel.dollar([float(2**m) for m in range(d + 1)])
        twin = transfer_quadrature_to_hermite(rule, sigma)
        back = transfer_quadrature_to_gaussian(twin, sigma)
        if rule_cost(rule, model) != rule_cost(twin, model):
            return False
        if rule_cost(back, model) != rule_cost(rule, model):
            return False
    return True


def sampling_coeffs_via_quadrature(method: SamplingMethod, sigma) -> np.ndarray:
    """Quadrature oracle for the Hermite-side coefficient table.

    Evaluates each transferred coefficient function pointwise through the
    inverse change of variables and projects it onto the tensor-Hermite
    basis by tensor 64-point Gauss-Hermite quadrature.  Cross-check for the
    rescaling path of :func:`transfer_sampling_to_hermite`; O(64^d).
    """
    constants = TransferConstants.approximation(sigma)
    grid = tensor_rule([gauss_hermite_rule(64)] * constants.dimension)
    # b_i(z) = (prod c)^(1/2) phi_c(x_i) * Q_c^{-1} a_i (z), evaluated
    # pointwise through the inverse change of variables.
    pre_images = grid.nodes / constants.c[None, :]
    gauss_sys = SpectralSystem(constants.gaussian_spec(), method.index_set)
    a_vals = method.coeff_table @ gauss_sys.eigenfunction_matrix(pre_images)  # [i, point]
    node_scale = _sampling_row_scale(constants, method.nodes)
    inv_scale = 1.0 / _sampling_row_scale(constants, pre_images)
    b_vals = node_scale[:, None] * a_vals * inv_scale[None, :]
    herm_sys = SpectralSystem(constants.hermite_spec(), method.index_set)
    H_at = herm_sys.eigenfunction_matrix(grid.nodes)  # [m, point]
    return b_vals @ (H_at * grid.weights[None, :]).T


def _random_poly(rng, d):
    coeffs = rng.normal(size=(4,) * d)

    def f(x):
        x = np.atleast_2d(x)
        out = np.zeros(x.shape[0])
        it = np.ndindex(coeffs.shape)
        for idx in it:
            term = coeffs[idx] * np.ones(x.shape[0])
            for j, p in enumerate(idx):
                term = term * x[:, j] ** p
            out += term
        return out

    return f


def qc_isometry_battery():
    """Worst relative defect of the L2(mu) isometry of Q_c over 8 seeded polynomials."""
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(8):
        d = int(rng.integers(1, 3))
        sigma = np.exp(rng.uniform(np.log(0.1), np.log(2.0), size=d))
        constants = TransferConstants.approximation(sigma)
        f = _random_poly(rng, d)
        grid = tensor_rule([gauss_hermite_rule(64)] * d)
        points, weights = grid.nodes, grid.weights
        norm_f = sqrt(float(weights @ f(points) ** 2))
        c = constants.c
        qf = float(np.prod(c)) ** 0.5 * phi_c(c, points) * f(points * c[None, :])
        norm_qf = sqrt(float(weights @ qf**2))
        worst = max(worst, abs(norm_qf - norm_f) / norm_f)
    return worst


def scaled_integral_identity_battery():
    """Worst residual of I(Q_c f o t_tau) = (tau_*/c_*^(1/2)) I(f) over 8 seeded polynomials."""
    rng = np.random.default_rng(13)
    worst = 0.0
    for _ in range(8):
        d = int(rng.integers(1, 3))
        sigma = np.exp(rng.uniform(np.log(0.1), np.log(1.5), size=d))
        constants = TransferConstants.integration(sigma)
        f = _random_poly(rng, d)
        grid = tensor_rule([gauss_hermite_rule(64)] * d)
        points, weights = grid.nodes, grid.weights
        c, tau = constants.c, constants.tau
        pre = points / tau[None, :]
        lhs = float(np.prod(c)) ** 0.5 * float(weights @ (phi_c(c, pre) * f(pre * c[None, :])))
        rhs = float(np.prod(tau)) / float(np.prod(c)) ** 0.5 * float(weights @ f(points))
        scale = max(abs(rhs), 1e-8)
        worst = max(worst, abs(lhs - rhs) / scale)
    return worst


def suite_transference():
    checks = []
    worst = integration_identity_battery()
    checks.append(
        _result("integration-identity-100-rules", worst <= 1e-10, f"worst residual {worst:.3e}")
    )
    checks.append(_result("cost-invariance-sparse-rules", cost_invariance_battery(), ""))
    worst = qc_isometry_battery()
    checks.append(_result("l2-isometry-polynomials", worst <= 1e-8, f"worst defect {worst:.3e}"))
    worst = scaled_integral_identity_battery()
    checks.append(
        _result("scaled-integral-identity", worst <= 1e-8, f"worst residual {worst:.3e}")
    )
    return checks


SUITES = {
    "mehler": suite_mehler,
    "spectral": suite_spectral,
    "transference": suite_transference,
}


def run_suite(name: str):
    if name == "all":
        return [check for suite in SUITES.values() for check in suite()]
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; pick from {sorted(SUITES)} or 'all'")
    return SUITES[name]()
