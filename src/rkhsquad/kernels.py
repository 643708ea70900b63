"""Gaussian and Hermite reproducing kernels and their Gaussian-measure integrals.

Two univariate families are supported, both positive definite on the real
line:

* the Gaussian kernel with shape parameter sigma > 0,

      l_sigma(x, y) = exp(-sigma^2 * (x - y)^2),

* the Hermite kernel with base parameter 0 < beta < 1,

      k_beta(x, y) = sum_nu beta^nu * h_nu(x) * h_nu(y),

  where h_nu are the orthonormal probabilists' Hermite polynomials.  The
  series has the closed Mehler form

      k_beta(x, y) = (1-beta^2)^(-1/2)
                     * exp(-(beta^2*(x^2+y^2) - 2*beta*x*y) / (2*(1-beta^2))),

  which is what we evaluate; the truncated series is kept as a
  cross-validation oracle with a certified error bound.

Both exponents share one form, sum_j c_j (x_j^2 + y_j^2) - a_j^2 (x_j - y_j)^2
(:func:`_exponent_form`), which Gram matrices evaluate.

Multivariate kernels are coordinate-wise products.  The mean embedding
m(x) = int M(x, y) mu(dy) and the double integral int int M dmu dmu have
closed forms under the standard normal product measure:

    Gaussian factor:  m(x) = (1+2*sigma^2)^(-1/2) * exp(-sigma^2*x^2/(1+2*sigma^2)),
                      int int = (1+4*sigma^2)^(-1/2),
    Hermite factor:   m(x) = 1,  int int = 1,

each validated against Gauss-Hermite quadrature in the test suite before
being trusted anywhere else.

The two families correspond exactly: a Gaussian coordinate with shape
sigma carries the same problem as a Hermite coordinate with base

    integration:     beta = 2 sigma^2 / (1 + 2 sigma^2),
    approximation:   beta = 1 - 2 / (1 + (1 + 8 sigma^2)^(1/2)),

up to the Gaussian initial error; :func:`matched_parameters` is the one
place that computes this map, and :func:`check_sigma` the one place that
validates shape parameters.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import exp, sqrt
from typing import Iterable

import numpy as np

from .errors import DomainError, ShapeMismatchError, _json_input
from .hermite import hermite_table

GAUSSIAN = "gaussian"
HERMITE = "hermite"
INTEGRATION = "integration"
APPROXIMATION = "approximation"

_PROBLEMS = (INTEGRATION, APPROXIMATION)

# Valid upper bound for |h_nu(x)| * exp(-x^2/4), uniformly in nu (Cramer).
CRAMER_CONSTANT = 1.1


def _check_problem(problem: str) -> str:
    if problem not in _PROBLEMS:
        raise DomainError(f"problem must be one of {_PROBLEMS}, got {problem!r}")
    return problem


def check_sigma(sigma) -> np.ndarray:
    """Shape parameters as a read-only 1D array of finite, positive values."""
    arr = np.atleast_1d(np.array(sigma, dtype=float))
    if arr.ndim != 1 or arr.size == 0:
        raise DomainError("sigma must be a non-empty 1D sequence")
    if not np.all(np.isfinite(arr) & (arr > 0)):
        raise DomainError("shape parameters must be finite and positive")
    arr.flags.writeable = False
    return arr


def matched_parameters(problem: str, sigma):
    """Hermite bases beta_j and scales c_j matched to Gaussian shapes sigma_j.

    Integration: beta = 2 sigma^2 / (1 + 2 sigma^2) and
    c = (1 + 4 sigma^2)^(1/2).  Approximation:
    beta = 1 - 2 / (1 + (1 + 8 sigma^2)^(1/2)) and c = (1 + 8 sigma^2)^(1/4).
    Returns the arrays ``(beta, c)``; beta is strictly increasing in sigma.
    """
    _check_problem(problem)
    sigma = check_sigma(sigma)
    s2 = sigma * sigma
    if problem == INTEGRATION:
        return 2.0 * s2 / (1.0 + 2.0 * s2), np.sqrt(1.0 + 4.0 * s2)
    root = np.sqrt(1.0 + 8.0 * s2)
    return 1.0 - 2.0 / (1.0 + root), root**0.5


@dataclass(frozen=True)
class KernelSpec:
    """A tensor-product kernel: family plus per-coordinate parameters.

    ``params`` holds sigma_j > 0 for the Gaussian family and
    beta_j in (0, 1) for the Hermite family; the dimension is its length.
    """

    family: str
    params: tuple

    def __post_init__(self):
        if self.family not in (GAUSSIAN, HERMITE):
            raise DomainError(f"unknown kernel family {self.family!r}")
        params = tuple(float(p) for p in self.params)
        if len(params) == 0:
            raise DomainError("kernel needs at least one coordinate")
        if self.family == GAUSSIAN:
            check_sigma(params)
        else:
            if any(not 0.0 < p < 1.0 for p in params):
                raise DomainError("base parameters must lie strictly inside (0, 1)")
        object.__setattr__(self, "params", params)

    @classmethod
    def gaussian(cls, sigma: Iterable[float]) -> "KernelSpec":
        sigma = (sigma,) if np.ndim(sigma) == 0 else tuple(sigma)
        return cls(GAUSSIAN, sigma)

    @classmethod
    def hermite(cls, beta: Iterable[float]) -> "KernelSpec":
        beta = (beta,) if np.ndim(beta) == 0 else tuple(beta)
        return cls(HERMITE, beta)

    @property
    def dimension(self) -> int:
        return len(self.params)

    @property
    def is_gaussian(self) -> bool:
        return self.family == GAUSSIAN

    def to_json(self) -> dict:
        return {"family": self.family, "params": list(self.params)}

    @classmethod
    def from_json(cls, obj) -> "KernelSpec":
        with _json_input(obj, "kernel") as obj:
            return cls(obj["family"], tuple(obj["params"]))


def _exponent_form(spec: KernelSpec):
    """Per-coordinate ``(a, c)`` with the kernel's exponent written as

        sum_j c_j (x_j^2 + y_j^2) - a_j^2 (x_j - y_j)^2,

    one form for both families.  Gaussian: a = sigma and c = 0.  Hermite:
    a^2 = beta / (2 (1-beta^2)) and c = beta / (2 (1+beta)).  Expanding,
    c - a^2 = (beta (1-beta) - beta) / (2 (1-beta^2)) = -beta^2 / (2 (1-beta^2))
    is the weight of x^2 + y^2 and 2 a^2 = 2 beta / (2 (1-beta^2)) that of x y,
    which gives back the Mehler exponent (2 beta x y - beta^2 (x^2+y^2)) /
    (2 (1-beta^2)).  The Hermite kernel is the exp of this exponent divided
    by prod_j (1-beta_j^2)^(1/2).  Returns two float arrays of length d.
    """
    p = np.array(spec.params, dtype=float)
    if spec.is_gaussian:
        return p, np.zeros_like(p)
    return np.sqrt(p / (2.0 * (1.0 - p * p))), p / (2.0 * (1.0 + p))


def gaussian_kernel(sigma: float, x, y):
    """exp(-sigma^2 (x-y)^2); accepts scalars or broadcastable arrays."""
    d = np.subtract(x, y, dtype=float)
    return np.exp(-(sigma * sigma) * d * d)


def hermite_kernel(beta: float, x, y):
    """Closed (Mehler) form of sum_nu beta^nu h_nu(x) h_nu(y),

        exp((2 beta x y - beta^2 (x^2+y^2)) / (2 (1-beta^2))) / (1-beta^2)^(1/2).

    Accepts scalars or broadcastable arrays; beta must lie in (0, 1).
    """
    if not 0.0 < beta < 1.0:
        raise DomainError("base parameter must lie strictly inside (0, 1)")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    b2 = beta * beta
    # single commutative product keeps k(x,y) == k(y,x) bitwise
    return np.exp((2.0 * beta * (x * y) - b2 * (x * x + y * y)) / (2.0 * (1.0 - b2))) / np.sqrt(1.0 - b2)


def hermite_kernel_series(beta: float, x, y, terms: int = 400):
    """Truncated-series oracle for the Hermite kernel.

    Returns ``(value, certified_error)`` where ``certified_error`` bounds
    the total deviation of ``value`` from the exact series: the Cramer tail
    bound for the dropped terms plus a floating-point summation bound
    proportional to the sum of absolute terms.

    ``x`` and ``y`` are scalars or broadcastable arrays; one Hermite table
    over the points of both serves every pair, and the results have the
    broadcast shape (Python floats for two scalars).  Each pair's terms lie
    on a contiguous last axis, so its sum is the pairwise summation of a
    1D ``np.sum`` and an array call equals the scalar calls bit for bit.
    A NaN or infinite point raises ``DomainError``.
    """
    if not 0.0 < beta < 1.0:
        raise DomainError("base parameter must lie strictly inside (0, 1)")
    x, y = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise DomainError("evaluation points must be finite")
    table = hermite_table(terms, np.concatenate([x.ravel(), y.ravel()]))
    hx, hy = table[:, : x.size], table[:, x.size :]
    powers = beta ** np.arange(terms + 1, dtype=float)
    # one row of terms per pair, nu along the contiguous last axis
    contributions = np.ascontiguousarray((powers[:, None] * hx * hy).T)
    value = contributions.sum(axis=-1).reshape(x.shape)
    # libm's exp per pair, as in the scalar form; numpy's vector exp can
    # differ from it in the last bit
    tail = (
        CRAMER_CONSTANT**2
        * np.vectorize(exp, otypes=[float])((x * x + y * y) / 4.0)
        * beta ** (terms + 1)
        / (1.0 - beta)
    )
    # pairwise summation: error grows with log2 of the term count
    eps = float(np.finfo(float).eps)
    abs_sum = np.abs(contributions).sum(axis=-1).reshape(x.shape)
    cert = tail + eps * (8.0 + 2.0 * np.log2(terms + 1)) * abs_sum
    if value.ndim == 0:
        return float(value), float(cert)
    return value, cert


def embedding_vector(spec: KernelSpec, nodes: np.ndarray) -> np.ndarray:
    """Mean embedding m(x_i) for all node rows.

    Hermite factors integrate to 1 (only the constant term of the series
    survives); Gaussian factors have the closed form above.
    """
    nodes = np.atleast_2d(np.asarray(nodes, dtype=float))
    if nodes.shape[1] != spec.dimension:
        raise ShapeMismatchError("node dimension does not match kernel dimension")
    if not spec.is_gaussian:
        return np.ones(nodes.shape[0])
    m = np.ones(nodes.shape[0])
    for j, sigma in enumerate(spec.params):
        s2 = sigma * sigma
        m *= (1.0 + 2.0 * s2) ** -0.5 * np.exp(-s2 * nodes[:, j] ** 2 / (1.0 + 2.0 * s2))
    return m


def double_integral(spec: KernelSpec) -> float:
    """int int M(x, y) mu(dx) mu(dy) for the tensor-product kernel."""
    if not spec.is_gaussian:
        return 1.0
    value = 1.0
    for sigma in spec.params:
        value *= (1.0 + 4.0 * sigma * sigma) ** -0.5
    return value


def initial_error(spec: KernelSpec, problem: str) -> float:
    """Worst-case error of the zero algorithm on the unit ball of H(M).

    For integration this is the norm of the integration functional; for
    L2-approximation the norm of the embedding into L2(mu).  Hermite
    spaces have initial error one for both problems.
    """
    _check_problem(problem)
    if not spec.is_gaussian:
        return 1.0
    value = 1.0
    for sigma in spec.params:
        s2 = sigma * sigma
        if problem == INTEGRATION:
            value *= (1.0 + 4.0 * s2) ** -0.25
        else:
            value *= sqrt(2.0) / sqrt(1.0 + sqrt(1.0 + 8.0 * s2))
    return value
