"""Exact algorithm correspondences between Gaussian and Hermite spaces.

A Gaussian space with shape parameters sigma_j and a Hermite space with
matched base parameters beta_j carry the same integration and
L2-approximation problems up to an explicit constant: any algorithm on one
space has a twin on the other with proportionally identical worst-case
error, and the map preserves evaluation cost exactly.

Both problems use the base parameters beta_j and scales c_j of
:func:`rkhsquad.kernels.matched_parameters`.  Integration adds

    tau_j = (1 + 2 sigma_j^2)^(1/2),   e_j = c_j / tau_j,

and maps a rule with nodes x_i and weights a_i to nodes e*x_i and weights
(prod_j e_j) * exp(-sum_j sigma_j^2 x_ij^2 / (1+2 sigma_j^2)) * a_i.

Approximation uses the weight function
phi_c(x) = exp(-sum_j (c_j^2-1) x_j^2 / 4), computed by :func:`phi_c` for the sampling-method
twins (``SpectralSystem.eigenfunction_matrix`` forms it per coordinate, with other last bits),
and the unitary change of variables

    (Q_c f)(x) = (prod_j c_j)^(1/2) * phi_c(x) * f(c x),

which is an isometry of L2(mu) (checked by the ``l2-isometry-polynomials``
battery of :mod:`rkhsquad.verify`).  A sampling method transfers to nodes
c*x_i with coefficient rows rescaled by (prod_j c_j)^(1/2) phi_c(x_i);
stored in each space's own eigenbasis, this is a table rescaling, not a
quadrature-computed change of basis.  For both problems the error ratio
is the Gaussian initial error.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt

import numpy as np

from .errors import DomainError, ShapeMismatchError, _frozen
from .kernels import (
    APPROXIMATION,
    INTEGRATION,
    KernelSpec,
    _check_problem,
    check_sigma,
    initial_error,
    matched_parameters,
)
from .worst_case import (
    MultiIndexSet,
    QuadratureRule,
    SamplingMethod,
    SpectralSystem,
)


def beta_from_sigma(problem: str, sigma: float) -> float:
    """Base parameter matched to a shape parameter; strictly increasing in sigma."""
    return float(matched_parameters(problem, sigma)[0][0])


def sigma_from_beta(problem: str, beta: float) -> float:
    """Inverse of :func:`beta_from_sigma`."""
    _check_problem(problem)
    if not 0.0 < beta < 1.0:
        raise DomainError("base parameter must lie strictly inside (0, 1)")
    if problem == INTEGRATION:
        return sqrt(beta / (2.0 * (1.0 - beta)))
    return sqrt(beta / 2.0) / (1.0 - beta)


@dataclass(frozen=True)
class TransferConstants:
    """All per-coordinate constants tying a Gaussian algorithm to its twin.

    ``gauss_prefactor`` is the Gaussian initial error, the ratio of the
    twins' worst-case errors.
    """

    problem: str
    sigma: np.ndarray
    beta: np.ndarray
    c: np.ndarray
    tau: np.ndarray | None
    e: np.ndarray | None
    gauss_prefactor: float

    @classmethod
    def integration(cls, sigma) -> "TransferConstants":
        sigma = check_sigma(sigma)
        beta, c = matched_parameters(INTEGRATION, sigma)
        tau = np.sqrt(1.0 + 2.0 * sigma * sigma)
        prefactor = initial_error(KernelSpec.gaussian(sigma), INTEGRATION)
        return cls(INTEGRATION, sigma, beta, c, tau, c / tau, prefactor)

    @classmethod
    def approximation(cls, sigma) -> "TransferConstants":
        sigma = check_sigma(sigma)
        beta, c = matched_parameters(APPROXIMATION, sigma)
        prefactor = initial_error(KernelSpec.gaussian(sigma), APPROXIMATION)
        return cls(APPROXIMATION, sigma, beta, c, None, None, prefactor)

    @property
    def dimension(self) -> int:
        return self.sigma.size

    def gaussian_spec(self) -> KernelSpec:
        return KernelSpec.gaussian(tuple(self.sigma))

    def hermite_spec(self) -> KernelSpec:
        return KernelSpec.hermite(tuple(self.beta))


def phi_c(c, x):
    """The positive weight exp(-sum_j (c_j^2 - 1) x_j^2 / 4) of Q_c.

    A float at one point x, or an array of n weights at the rows of an
    (n, d) array of points.
    """
    c = np.atleast_1d(np.asarray(c, dtype=float))
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if c.ndim != 1 or x.ndim > 2 or x.shape[-1] != c.size:
        raise ShapeMismatchError("points x must have the length of c")
    phi = np.exp(-np.sum((c * c - 1.0) / 4.0 * x**2, axis=-1))
    return float(phi) if x.ndim == 1 else phi


def _node_damping(constants: TransferConstants, nodes: np.ndarray) -> np.ndarray:
    """phi_c(tau^{-1} x_i) = exp(-sum_j sigma_j^2 x_ij^2 / (1 + 2 sigma_j^2))."""
    s2 = constants.sigma**2
    return np.exp(-np.sum(s2[None, :] * nodes**2 / (1.0 + 2.0 * s2)[None, :], axis=1))


def _axis_twins(constants: TransferConstants, j: int, rules):
    """Twins of flat ``(nodes, weights)`` rules on coordinate j: nodes e_j x_i and weights
    e_j phi_c(tau_j^{-1} x_i) a_i, bit for bit those of :func:`transfer_quadrature_to_hermite`."""
    e, s2 = float(constants.e[j]), constants.sigma[j] * constants.sigma[j]
    return [(x * e, e * np.exp(-(s2 * x**2 / (1.0 + 2.0 * s2))) * w) for x, w in rules]


def transfer_quadrature_to_hermite(rule: QuadratureRule, sigma) -> QuadratureRule:
    """Twin of a Gaussian-space quadrature rule on the matched Hermite space.

    The worst-case errors satisfy
    e(A, Gaussian) = initial_error(Gaussian) * e(twin, Hermite), and
    the evaluation cost is preserved node by node.
    """
    constants = TransferConstants.integration(sigma)
    if rule.dimension != constants.dimension:
        raise ShapeMismatchError("rule dimension does not match sigma length")
    weights = float(np.prod(constants.e)) * _node_damping(constants, rule.nodes) * rule.weights
    return QuadratureRule(*_frozen(rule.nodes * constants.e[None, :], weights))


def transfer_quadrature_to_gaussian(rule: QuadratureRule, sigma) -> QuadratureRule:
    """Inverse of :func:`transfer_quadrature_to_hermite`."""
    constants = TransferConstants.integration(sigma)
    if rule.dimension != constants.dimension:
        raise ShapeMismatchError("rule dimension does not match sigma length")
    nodes = rule.nodes / constants.e[None, :]
    weights = rule.weights / (float(np.prod(constants.e)) * _node_damping(constants, nodes))
    return QuadratureRule(*_frozen(nodes, weights))


def spectral_pair(sigma, index_set: MultiIndexSet):
    """Matched Gaussian and Hermite spectral systems sharing one index set."""
    constants = TransferConstants.approximation(sigma)
    gauss = SpectralSystem(constants.gaussian_spec(), index_set)
    herm = SpectralSystem(constants.hermite_spec(), index_set)
    return gauss, herm


def _sampling_row_scale(constants: TransferConstants, nodes: np.ndarray) -> np.ndarray:
    return float(np.prod(constants.c)) ** 0.5 * phi_c(constants.c, nodes)


def transfer_sampling_to_hermite(method: SamplingMethod, sigma) -> SamplingMethod:
    """Twin of a Gaussian-space sampling method on the matched Hermite space.

    Nodes scale by c_j; coefficient row i rescales by
    (prod c)^(1/2) phi_c(x_i), mapping the Gaussian eigenbasis expansion
    onto the tensor-Hermite expansion index by index.  The errors satisfy
    e(A, Gaussian) = initial_error(Gaussian) * e(twin, Hermite), up to the
    reported truncation tails.
    """
    constants = TransferConstants.approximation(sigma)
    if method.dimension != constants.dimension:
        raise ShapeMismatchError("method dimension does not match sigma length")
    scale = _sampling_row_scale(constants, method.nodes)
    nodes, coeff = _frozen(method.nodes * constants.c[None, :], method.coeff_table * scale[:, None])
    return SamplingMethod(nodes, coeff, method.index_set)


def transfer_sampling_to_gaussian(method: SamplingMethod, sigma) -> SamplingMethod:
    """Inverse of :func:`transfer_sampling_to_hermite`."""
    constants = TransferConstants.approximation(sigma)
    if method.dimension != constants.dimension:
        raise ShapeMismatchError("method dimension does not match sigma length")
    nodes = method.nodes / constants.c[None, :]
    scale = _sampling_row_scale(constants, nodes)
    return SamplingMethod(*_frozen(nodes, method.coeff_table / scale[:, None]), method.index_set)
