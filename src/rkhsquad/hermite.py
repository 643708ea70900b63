"""Orthonormal probabilists' Hermite polynomials and Gauss-Hermite rules.

Everything here is relative to the standard normal distribution

    mu0(dx) = (2*pi)^(-1/2) * exp(-x^2/2) dx.

The polynomials h_0, h_1, ... are orthonormal in L^2(mu0) and satisfy the
stable three-term recurrence

    h_0(x) = 1,   h_1(x) = x,
    h_{nu+1}(x) = (x*h_nu(x) - sqrt(nu)*h_{nu-1}(x)) / sqrt(nu+1).

The n-point Gauss-Hermite rule for mu0 integrates polynomials of degree
up to 2n-1 exactly.  Nodes are the eigenvalues of the symmetric
tridiagonal Jacobi matrix with zero diagonal and off-diagonal entries
sqrt(1), ..., sqrt(n-1); the weight of node i is the squared first
component of the i-th normalized eigenvector.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .errors import (
    DomainError,
    NumericalConsistencyError,
    UnsupportedDegreeError,
    UnsupportedSizeError,
    _adopt,
    _finite,
    _freeze,
    _frozen,
    _is_int,
)

# The recurrence streams in blocks of degrees, so this guard bounds time, not memory.
MAX_DEGREE = 8192
MAX_RULE_SIZE = 256

_WEIGHT_SUM_TOL = 1e-13
_SYMMETRY_TOL = 1e-12


@dataclass(frozen=True)
class QuadratureRule1D:
    """Nodes and weights of a quadrature rule for the standard normal measure.

    Invariants checked at construction: finite entries, strictly increasing nodes, positive
    weights summing to one within 1e-13, and node symmetry about zero
    within 1e-12.
    """

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        nodes = _adopt(self.nodes)
        weights = _adopt(self.weights)
        if nodes.ndim != 1 or weights.ndim != 1 or nodes.shape != weights.shape:
            raise UnsupportedSizeError("nodes and weights must be 1D arrays of equal length")
        if nodes.size == 0:
            raise UnsupportedSizeError("a quadrature rule needs at least one node")
        if not (_finite(nodes) and _finite(weights)):
            raise DomainError("nodes and weights must be finite")
        if np.any(np.diff(nodes) <= 0):
            raise NumericalConsistencyError("nodes must be strictly increasing")
        if np.any(weights <= 0):
            raise NumericalConsistencyError("weights must be positive")
        if abs(weights.sum() - 1.0) > _WEIGHT_SUM_TOL:
            raise NumericalConsistencyError(
                f"weights sum to {weights.sum():.17g}, expected 1 within {_WEIGHT_SUM_TOL}"
            )
        if np.max(np.abs(nodes + nodes[::-1])) > _SYMMETRY_TOL:
            raise NumericalConsistencyError("nodes are not symmetric about 0")
        _freeze(self, nodes=nodes, weights=weights)

    @property
    def n(self) -> int:
        return self.nodes.size


def hermite_table(nu_max: int, x: np.ndarray) -> np.ndarray:
    """Rows h_0..h_{nu_max} evaluated at an array of points.

    Returns an array of shape (nu_max + 1,) + x.shape, filled by the
    three-term recurrence vectorized over points.
    """
    if not _is_int(nu_max) or nu_max < 0:
        raise UnsupportedDegreeError(f"degree must be a non-negative integer, got {nu_max!r}")
    if nu_max > MAX_DEGREE:
        raise UnsupportedDegreeError(f"degree {nu_max} exceeds the guard {MAX_DEGREE}")
    x = np.asarray(x, dtype=float)
    _, rows = next(_hermite_blocks(nu_max, x.reshape(-1), nu_max + 1))
    return rows.reshape((nu_max + 1,) + x.shape)


def _hermite_blocks(nu_max: int, x: np.ndarray, block: int):
    """Yield (lo, rows h_lo..h_{hi-1} at the flat float points x) for lo = 0, block, ... to nu_max;
    rows is a view of one (block + 2)-row buffer that the next block overwrites."""
    buf = np.empty((block + 2, x.size))
    buf[1], buf[2] = 0.0, 1.0  # h_{-1}, h_0: the first step gives h_1 = (x*1 - 0*0)/1 = x exactly
    rows = list(buf)  # row views made once: the loop below is bound by per-call overhead
    root = np.sqrt(np.arange(nu_max + 1.0)).tolist()
    term = np.empty(x.size)
    for lo in range(0, nu_max + 1, block):
        hi = min(lo + block, nu_max + 1)
        for nu in range(max(lo, 1), hi):  # rows[nu - lo + 2] holds h_nu
            prev, cur, nxt = rows[nu - lo : nu - lo + 3]
            np.multiply(x, cur, out=nxt)
            np.subtract(nxt, np.multiply(root[nu - 1], prev, out=term), out=nxt)
            np.divide(nxt, root[nu], out=nxt)
        yield lo, buf[2 : hi - lo + 2]
        buf[:2] = buf[block:]


def gauss_hermite_rule(n: int) -> QuadratureRule1D:
    """The n-point Gauss-Hermite rule for the standard normal measure.

    Exact for polynomials of degree <= 2n-1.  Nodes are the eigenvalues of
    the Jacobi matrix, symmetrized about zero.  Weights are evaluated
    through the Christoffel identity w_i = 1 / sum_{nu<n} h_nu(x_i)^2,
    which equals the squared first component of the i-th normalized
    eigenvector in exact arithmetic but keeps full relative accuracy for
    the extreme nodes, whose weights underflow eigenvector solvers.

    Parameters
    ----------
    n : int
        Number of nodes, 1 <= n <= 256.  Rules are cached by ``int(n)``, so a numpy
        integer shares the rule of the equal int.
    """
    if not (_is_int(n) and 1 <= n <= MAX_RULE_SIZE):
        raise UnsupportedSizeError(f"rule size {n!r} is not an integer in [1, {MAX_RULE_SIZE}]")
    return _gauss_hermite_rule(int(n))


@lru_cache(maxsize=None)
def _gauss_hermite_rule(n: int) -> QuadratureRule1D:
    """:func:`gauss_hermite_rule` for a checked int ``n``, built once."""
    diag = np.zeros(n)
    offdiag = np.sqrt(np.arange(1.0, n))
    try:
        vals = eigh_tridiagonal(diag, offdiag, eigvals_only=True)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - defensive
        raise NumericalConsistencyError(
            f"tridiagonal eigensolver failed for n={n}: {exc}"
        ) from exc
    nodes = 0.5 * (vals - vals[::-1])
    table = hermite_table(n - 1, nodes)
    weights = 1.0 / np.sum(table * table, axis=0)
    weights = 0.5 * (weights + weights[::-1])
    weights = weights / weights.sum()
    return QuadratureRule1D(*_frozen(nodes, weights))


gauss_hermite_rule.cache_info = _gauss_hermite_rule.cache_info  # misses count the rules built
