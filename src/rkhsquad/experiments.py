"""Convergence studies: decay exponents, information complexity, curves.

The decay of an error-versus-cost curve is estimated by least squares of
ln(error) against ln(cost) over the largest-cost half of the data (at
least three points), which is robust to pre-asymptotic transients; the
fit quality is reported as r^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algorithms import (
    KernelGenerator,
    _gh_errors_on_space,
    integration_error_lower_bound,
    level_choice_for_eps,
    mdm_build,
    mdm_wce,
    tensor_rule_for_eps,
)
from .errors import DomainError, InsufficientDataError, NumericalConsistencyError, _is_int
from .hermite import gauss_hermite_rule
from .kernels import GAUSSIAN, HERMITE, KernelSpec
from .transference import TransferConstants
from .worst_case import CostModel, tensor_wce_integration


@dataclass(frozen=True)
class DecayEstimate:
    """Fitted polynomial decay rate of an error-versus-cost curve."""

    exponent: float
    intercept: float
    points_used: int
    r_squared: float


def decay_estimate(pairs) -> DecayEstimate:
    """Least-squares decay exponent of ln(error) against ln(cost).

    Fits the largest-cost half of the curve (never fewer than three
    points), which must hold at least two distinct costs.  Costs and errors
    must be finite and positive; the exponent is the negated slope.
    """
    pairs = [(float(c), float(e)) for c, e in pairs]
    if len(pairs) < 3:
        raise InsufficientDataError(f"need at least 3 points, got {len(pairs)}")
    if not all(math.isfinite(c) and c > 0 for c, _ in pairs):
        raise DomainError("costs must be finite and positive")
    for c, e in pairs:
        if not (math.isfinite(e) and e > 0):
            raise DomainError(f"errors must be finite and positive: the error at cost {c:g} is {e}")
    pairs.sort(key=lambda p: p[0])
    k = max(3, (len(pairs) + 1) // 2)
    window = pairs[-k:]
    if window[0][0] == window[-1][0]:
        raise InsufficientDataError(f"the {k} largest costs are all {window[0][0]:g}; need two")
    x = np.log([c for c, _ in window])
    y = np.log([e for _, e in window])
    slope, intercept = np.polyfit(x, y, 1)
    fitted = slope * x + intercept
    ss_res = float(np.sum((y - fitted) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 and ss_res <= 1e-24 else max(0.0, min(1.0, 1.0 - ss_res / ss_tot))
    return DecayEstimate(float(-slope), float(intercept), k, r2)


def empirical_info_complexity(curve, eps: float, e0: float, criterion: str = "absolute") -> float:
    """Smallest recorded cost reaching error <= eps (or eps * e0, normalized).

    Returns ``math.inf`` when no curve point reaches the target.  An eps
    (or, normalized, an e0) that is not finite and positive, or a curve
    point that is not finite, raises ``DomainError``.
    """
    if criterion not in ("absolute", "normalized"):
        raise DomainError(f"criterion must be 'absolute' or 'normalized', got {criterion!r}")
    if not (math.isfinite(eps) and eps > 0):
        raise DomainError(f"eps must be finite and positive, got {eps}")
    if criterion == "normalized" and not (math.isfinite(e0) and e0 > 0):
        raise DomainError(f"e0 must be finite and positive, got {e0}")
    if not curve:
        raise InsufficientDataError("empty curve")
    curve = [(float(c), float(e)) for c, e in curve]
    if not all(math.isfinite(c) and math.isfinite(e) for c, e in curve):
        raise DomainError("curve costs and errors must be finite")
    target = eps if criterion == "absolute" else eps * e0
    costs = [c for c, e in curve if e <= target]
    return min(costs) if costs else math.inf


def fit_stretched_exponent(ns, errors):
    """Best exponent p for the model error ~ C * exp(-c * n^p).

    Deterministic grid search over p = 0.100, 0.105, ..., 1.200: for each
    candidate p, ordinary least squares of ln(error) on n^p; returns
    (p, c, ln C) of the smallest residual.  ns must be finite and errors
    finite and positive.
    """
    ns = np.asarray(ns, dtype=float)
    errors = np.asarray(errors, dtype=float)
    if not np.all(np.isfinite(ns)):
        raise DomainError("ns must be finite")
    if not np.all(np.isfinite(errors) & (errors > 0)):
        raise DomainError("errors must be finite and positive")
    y = np.log(errors)
    best = None
    for p in np.arange(0.10, 1.2001, 0.005):
        x = ns**p
        slope, intercept = np.polyfit(x, y, 1)
        res = float(np.sum((slope * x + intercept - y) ** 2))
        if best is None or res < best[0]:
            best = (res, float(p), float(-slope), float(intercept))
    return best[1], best[2], best[3]


# ---------------------------------------------------------------------------
# experiment curves (CSV row producers)


def univariate_decay_curve(space: str, param: float, n_max: int):
    """Rows (n, error, lower_bound, rate_fit) for the n-point rules on one space.

    ``error`` is the worst-case integration error of the plain n-point
    Gauss-Hermite rule; ``lower_bound`` the universal minimal-error lower
    bound; ``rate_fit`` the least-squares slope of ln(error) against n
    over the whole curve (repeated on every row).  A row whose truncation
    tail exceeds its error raises ``NumericalConsistencyError``.
    """
    if space not in (GAUSSIAN, HERMITE):
        raise DomainError(f"space must be 'gaussian' or 'hermite', got {space!r}")
    if not _is_int(n_max) or n_max < 1:
        raise DomainError(f"n_max must be a positive integer, got {n_max!r}")
    spec = KernelSpec(space, (param,))
    errors = []
    for n, (value, tail) in enumerate(_gh_errors_on_space(range(1, n_max + 1), spec), start=1):
        if tail > value:
            raise NumericalConsistencyError(f"error {value:.3e} at n={n} is below its tail {tail:.3e}")
        errors.append(value)
    lower = [integration_error_lower_bound(spec, n) for n in range(1, n_max + 1)]
    slope = float(np.polyfit(np.arange(1, n_max + 1), np.log(errors), 1)[0]) if n_max >= 2 else 0.0
    return [(n, errors[n - 1], lower[n - 1], slope) for n in range(1, n_max + 1)]


def tensor_decay_curve(sigma, eps_list, space: str = GAUSSIAN):
    """Rows (eps, n_choice, size, error) for the eps-driven tensor rules.

    The size is that of the Hermite-side grid, which the transference maps
    node for node.  The error column is the worst-case integration error of
    the rule, evaluated through the factorized product identity (the Gaussian
    side through the exact transference ratio), so no grid's Gram is built.
    """
    if space not in (GAUSSIAN, HERMITE):
        raise DomainError(f"space must be 'gaussian' or 'hermite', got {space!r}")
    constants = TransferConstants.integration(sigma)
    herm_spec = constants.hermite_spec()

    def point(eps):
        ns = level_choice_for_eps(eps, constants.sigma)
        size = tensor_rule_for_eps(eps, constants.sigma, HERMITE).n
        factors = [gauss_hermite_rule(int(n)) for n in ns]
        err = tensor_wce_integration(factors, herm_spec)
        if space == GAUSSIAN:
            err *= constants.gauss_prefactor
        return eps, ";".join(str(int(n)) for n in ns), size, err

    return [point(float(e)) for e in eps_list]


def mdm_run_curve(gen: KernelGenerator, budgets, model: CostModel, trunc: int = 2048,
                  max_coord: int = 512, pool_size: int = 2048):
    """Rows (cost, error, tail_bound) for greedy MDM plans at several budgets."""
    rows = []
    for budget in budgets:
        plan = mdm_build(gen, float(budget), model, max_coord=max_coord, pool_size=pool_size)
        value, tail = mdm_wce(plan, gen, trunc)
        rows.append((plan.cost, value, tail))
    return rows
