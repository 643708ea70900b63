"""Exact worst-case errors of quadrature rules and sampling methods.

Integration.  For a quadrature rule A(f) = sum_i a_i f(x_i) on the unit
ball of H(M) the squared worst-case error is the reproducing-kernel
identity

    e(A, M)^2 = II - 2 * sum_i a_i m(x_i) + sum_{i,j} a_i a_j M(x_i, x_j),

with m the mean embedding and II the double integral of M.  Optimal
weights for fixed nodes solve the Gram system G w = m.

L2-approximation.  A sampling method A(f) = sum_i f(x_i) a_i with
coefficient functions a_i expanded over an orthonormal system {E_nu} of
L2(mu) has error operator matrix

    T[m, nu] = sqrt(lambda_nu) * (delta[m,nu] - sum_i E_nu(x_i) c[i,m]),

whose spectral norm over a finite downward-closed index set gives the
computed error; the contribution of indices outside the set is controlled
by a rigorous tail bound (Cramer envelope for the eigenfunctions plus the
eigenvalue tail mass), so the true error lies in [value, value + tail].
T is diag(sqrt(lambda)) minus a rank-n term, so it is kept as its factors:
index sets above 400 indices get a matrix-free ARPACK norm at O(|Lambda| n)
time and memory per product, smaller ones a dense SVD.

Costs.  Unit cost counts nodes.  The dollar model charges each node
dollar(Act(x)) where Act(x) is its number of non-zero coordinates.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from math import exp, prod, sqrt
from typing import Sequence

import numpy as np
import scipy.linalg
import scipy.sparse.linalg

from .errors import (
    ConditioningError,
    DomainError,
    NumericalConsistencyError,
    ShapeMismatchError,
)
from .hermite import QuadratureRule1D, hermite_table
from .kernels import (
    APPROXIMATION,
    CRAMER_CONSTANT,
    KernelSpec,
    double_integral,
    embedding_vector,
    gaussian_kernel,
    hermite_kernel,
    matched_parameters,
)

NEGATIVE_VARIANCE_TOL = 1e-12
MAX_GRAM_CONDITION = 1e14

_DENSE_NORM_LIMIT = 400
_DENSE_FALLBACK_LIMIT = 5000  # a dense operator of 5,000 indices holds 200 MB


# ---------------------------------------------------------------------------
# domain types


@dataclass(frozen=True)
class QuadratureRule:
    """Finite quadrature rule: node matrix (n, d) and weight vector (n,)."""

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        # copy before freezing so the caller's buffers stay writeable
        nodes = np.atleast_2d(np.array(self.nodes, dtype=float))
        weights = np.array(self.weights, dtype=float).ravel()
        if nodes.shape[0] != weights.size:
            raise ShapeMismatchError(
                f"{nodes.shape[0]} nodes but {weights.size} weights"
            )
        if weights.size < 1:
            raise ShapeMismatchError("a rule needs at least one node")
        if not (np.all(np.isfinite(nodes)) and np.all(np.isfinite(weights))):
            raise DomainError("nodes and weights must be finite")
        nodes.flags.writeable = False
        weights.flags.writeable = False
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)

    @property
    def n(self) -> int:
        return self.weights.size

    @property
    def dimension(self) -> int:
        return self.nodes.shape[1]

    def apply(self, f) -> float:
        total = 0.0
        for row, w in zip(self.nodes, self.weights):
            total += w * float(f(row))
        return total

    def to_json(self) -> dict:
        return {"nodes": self.nodes.tolist(), "weights": self.weights.tolist()}

    @classmethod
    def from_json(cls, obj) -> "QuadratureRule":
        if isinstance(obj, str):
            obj = json.loads(obj)
        return cls(np.asarray(obj["nodes"], dtype=float), np.asarray(obj["weights"], dtype=float))


def concat_rules(a: QuadratureRule, b: QuadratureRule) -> QuadratureRule:
    if a.dimension != b.dimension:
        raise ShapeMismatchError("cannot concatenate rules of different dimension")
    return QuadratureRule(
        np.vstack([a.nodes, b.nodes]), np.concatenate([a.weights, b.weights])
    )


_MAX_INDEX_ENTRY = 2**62


def _index_rows(indices) -> np.ndarray:
    """Validated (n, d) int64 copy of a collection of multi-indices."""
    try:
        raw = np.array(indices)
    except ValueError:
        raise ShapeMismatchError("multi-indices of mixed dimension") from None
    if raw.ndim >= 1 and raw.shape[0] == 0:
        raise DomainError("index set must be non-empty")
    if raw.ndim != 2 or raw.shape[1] == 0:
        raise ShapeMismatchError("multi-indices must be non-empty rows of one length")
    integral = raw.dtype.kind in "biu" or (
        raw.dtype.kind == "f" and np.all(np.isfinite(raw)) and np.array_equal(raw, np.floor(raw))
    )
    if not integral:
        raise DomainError("multi-indices must have integer entries")
    if np.any(raw < 0):
        raise DomainError("multi-indices must be non-negative")
    if np.any(raw >= _MAX_INDEX_ENTRY):
        raise DomainError("multi-index entries must be below 2**62")
    return raw.astype(np.int64)


def _row_keys(rows: np.ndarray, radix: tuple) -> np.ndarray:
    """Sort keys of int64 rows with 0 <= rows[:, j] < radix[j].

    Mixed-radix int64 keys while prod(radix) < 2**63, else one byte-string
    row view of the big-endian entries; both order rows lexicographically.
    numpy sorts and searches the int64 keys two to three times faster than
    byte rows, which is why both are kept.
    """
    if prod(radix) < 2**63:
        strides = np.cumprod((1,) + radix[:0:-1], dtype=np.int64)[::-1]
        return rows @ strides
    return np.ascontiguousarray(rows, dtype=">i8").view(f"V{8 * len(radix)}").ravel()


class MultiIndexSet:
    """A finite downward-closed set of multi-indices of one dimension d.

    Stored as one read-only (size, d) int64 array in lexicographic row
    order, with sorted row keys (:func:`_row_keys`, radix max_j + 2 so that
    every direct successor of a member is keyed too) for membership tests.
    """

    def __init__(self, indices):
        rows = _index_rows(indices)
        radix = tuple(int(v) + 2 for v in rows.max(axis=0))
        keys = _row_keys(rows, radix)
        order = np.argsort(keys, kind="stable")
        rows, keys = rows[order], keys[order]
        if np.any(keys[1:] == keys[:-1]):
            raise DomainError("duplicate multi-indices")
        self._rows, self._keys, self._radix = rows, keys, radix
        missing = np.zeros(rows.shape, dtype=bool)
        for j in range(rows.shape[1]):
            has = rows[:, j] > 0
            missing[has, j] = ~self._members(_predecessors(rows[has], j))
        if missing.any():
            i, j = np.argwhere(missing)[0]
            nu = tuple(rows[i].tolist())
            pred = nu[:j] + (nu[j] - 1,) + nu[j + 1 :]
            raise DomainError(f"index set is not downward closed: {nu} without {pred}")
        rows.flags.writeable = False

    def _members(self, rows: np.ndarray) -> np.ndarray:
        """Membership mask of rows with entries below the set's radix."""
        keys = _row_keys(rows, self._radix)
        pos = np.minimum(np.searchsorted(self._keys, keys), self._keys.size - 1)
        return self._keys[pos] == keys

    @classmethod
    def box(cls, dimension: int, degree) -> "MultiIndexSet":
        """Full tensor box {0..deg_1} x ... x {0..deg_d}."""
        degrees = [degree] * dimension if np.isscalar(degree) else list(degree)
        if len(degrees) != dimension:
            raise ShapeMismatchError("one degree per coordinate required")
        grids = np.meshgrid(*[np.arange(g + 1) for g in degrees], indexing="ij")
        return cls(np.stack([g.ravel() for g in grids], axis=1))

    @property
    def indices(self) -> tuple:
        """The multi-indices as sorted tuples."""
        return tuple(map(tuple, self._rows.tolist()))

    @property
    def dimension(self) -> int:
        return self._rows.shape[1]

    @property
    def size(self) -> int:
        return self._rows.shape[0]

    def __contains__(self, nu) -> bool:
        row = np.asarray(nu)
        if row.shape != (self.dimension,) or row.dtype.kind not in "biuf":
            return False
        if not (np.all(row >= 0) and np.all(row < np.array(self._radix) - 1)):
            return False
        ints = row.astype(np.int64)
        return bool(np.array_equal(ints, row) and self._members(ints[None, :])[0])

    def __eq__(self, other) -> bool:
        if not isinstance(other, MultiIndexSet):
            return NotImplemented
        return self is other or np.array_equal(self._rows, other._rows)

    def __hash__(self) -> int:
        return hash((self._rows.shape, self._rows.tobytes()))

    def __repr__(self) -> str:
        return f"MultiIndexSet(size={self.size}, dimension={self.dimension})"

    def array(self) -> np.ndarray:
        """The read-only (size, d) int64 array of multi-indices, sorted."""
        return self._rows

    def complement_minimal(self) -> tuple:
        """Minimal (componentwise) multi-indices outside the set."""
        outside = []
        for j in range(self.dimension):
            cand = self._rows.copy()
            cand[:, j] += 1
            outside.append(cand[~self._members(cand)])
        cand = np.concatenate(outside)
        _, first = np.unique(_row_keys(cand, self._radix), return_index=True)
        cand = cand[first]
        minimal = np.ones(cand.shape[0], dtype=bool)
        for k in range(self.dimension):
            has = cand[:, k] > 0
            minimal[has] &= self._members(_predecessors(cand[has], k))
        return tuple(map(tuple, cand[minimal].tolist()))


def _predecessors(rows: np.ndarray, j: int) -> np.ndarray:
    """Copy of rows with coordinate j lowered by one."""
    out = rows.copy()
    out[:, j] -= 1
    return out


@dataclass(frozen=True)
class CostModel:
    """Evaluation-cost model: unit cost or activity-dependent dollar cost."""

    mode: str
    table: tuple = ()

    def __post_init__(self):
        if self.mode not in ("unit", "dollar"):
            raise DomainError(f"unknown cost mode {self.mode!r}")
        if self.mode == "dollar":
            table = tuple(float(v) for v in self.table)
            if not table:
                raise DomainError("dollar mode needs a non-empty table")
            if not all(np.isfinite(table)):
                raise DomainError("dollar table entries must be finite")
            if any(v < 1.0 for v in table):
                raise DomainError("dollar(m) must be >= 1")
            if any(b < a for a, b in zip(table, table[1:])):
                raise DomainError("dollar table must be non-decreasing")
            object.__setattr__(self, "table", table)

    @classmethod
    def unit(cls) -> "CostModel":
        return cls("unit")

    @classmethod
    def dollar(cls, table: Sequence[float], c1: float | None = None, c2: float | None = None) -> "CostModel":
        """Dollar model from a table of dollar(0), ..., dollar(m_max).

        If ``c1``/``c2`` are supplied, the sanity bounds
        c1*m <= dollar(m) <= exp(c2*m) are verified over the table range.
        """
        model = cls("dollar", tuple(table))
        for m, v in enumerate(model.table):
            if c1 is not None and v < c1 * m:
                raise DomainError(f"dollar({m})={v} violates lower sanity bound {c1}*m")
            if c2 is not None and v > exp(c2 * m):
                raise DomainError(f"dollar({m})={v} violates upper sanity bound exp({c2}*m)")
        return model

    def charge(self, active: int) -> float:
        if self.mode == "unit":
            return 1.0
        if active >= len(self.table):
            raise DomainError(
                f"dollar table covers activity up to {len(self.table) - 1}, queried {active}"
            )
        return self.table[active]

    def to_json(self) -> dict:
        if self.mode == "unit":
            return {"mode": "unit"}
        return {"mode": "dollar", "table": list(self.table)}

    @classmethod
    def from_json(cls, obj) -> "CostModel":
        if isinstance(obj, str):
            obj = json.loads(obj)
        if obj.get("mode") == "unit":
            return cls.unit()
        return cls(obj.get("mode"), tuple(obj.get("table", ())))


@dataclass(frozen=True)
class SamplingMethod:
    """Linear sampling method: nodes plus coefficient functions.

    Row i of ``coeff_table`` holds the expansion of the coefficient
    function a_i over the orthonormal system indexed by ``index_set``
    (tensor Hermite polynomials for Hermite spaces, their isometric images
    for Gaussian spaces).  All-zero rows are permitted.
    """

    nodes: np.ndarray
    coeff_table: np.ndarray
    index_set: MultiIndexSet

    def __post_init__(self):
        # copy before freezing so the caller's buffers stay writeable
        nodes = np.atleast_2d(np.array(self.nodes, dtype=float))
        coeff = np.atleast_2d(np.array(self.coeff_table, dtype=float))
        if coeff.shape != (nodes.shape[0], self.index_set.size):
            raise ShapeMismatchError(
                f"coefficient table {coeff.shape} does not match "
                f"{nodes.shape[0]} nodes x {self.index_set.size} indices"
            )
        if nodes.shape[1] != self.index_set.dimension:
            raise ShapeMismatchError("node dimension does not match index-set dimension")
        if not (np.all(np.isfinite(nodes)) and np.all(np.isfinite(coeff))):
            raise DomainError("nodes and coefficients must be finite")
        nodes.flags.writeable = False
        coeff.flags.writeable = False
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "coeff_table", coeff)

    @property
    def n(self) -> int:
        return self.nodes.shape[0]

    @property
    def dimension(self) -> int:
        return self.nodes.shape[1]

    @classmethod
    def zero(cls, dimension: int, index_set: MultiIndexSet) -> "SamplingMethod":
        """The zero method: one dead node at the origin."""
        return cls(np.zeros((1, dimension)), np.zeros((1, index_set.size)), index_set)

    def to_json(self) -> dict:
        return {
            "nodes": self.nodes.tolist(),
            "index_set": self.index_set.array().tolist(),
            "coeffs": self.coeff_table.tolist(),
        }

    @classmethod
    def from_json(cls, obj) -> "SamplingMethod":
        if isinstance(obj, str):
            obj = json.loads(obj)
        return cls(
            np.asarray(obj["nodes"], dtype=float),
            np.asarray(obj["coeffs"], dtype=float),
            MultiIndexSet(obj["index_set"]),
        )


@dataclass(frozen=True)
class SpectralSystem:
    """Eigen-decomposition of a kernel's embedding into L2(mu) over an index set.

    Hermite family: eigenvalues prod_j beta_j^{nu_j}, eigenfunctions the
    tensor Hermite polynomials.  Gaussian family: with beta_j and c_j from
    the approximation parameter correspondence, eigenvalues
    prod_j (1-beta_j) beta_j^{nu_j} and eigenfunctions

        E_nu(x) = prod_j c_j^{1/2} exp(-(c_j^2-1) x_j^2 / 4) h_{nu_j}(c_j x_j),

    orthonormal in L2(mu) in both cases.
    """

    spec: KernelSpec
    index_set: MultiIndexSet
    eigenvalues: np.ndarray
    beta: np.ndarray
    scale_c: np.ndarray | None

    @property
    def dimension(self) -> int:
        return self.spec.dimension

    def eigenfunction_matrix(self, nodes: np.ndarray) -> np.ndarray:
        """Matrix P with P[k, i] = E_{nu_k}(x_i) for node rows x_i."""
        nodes = np.atleast_2d(np.asarray(nodes, dtype=float))
        if nodes.shape[1] != self.dimension:
            raise ShapeMismatchError("node dimension does not match system dimension")
        idx = self.index_set.array()
        max_deg = int(idx.max())
        per_coord = []
        for j in range(self.dimension):
            x = nodes[:, j]
            if self.scale_c is None:
                tab = hermite_table(max_deg, x)
            else:
                c = self.scale_c[j]
                tab = hermite_table(max_deg, c * x)
                tab = tab * (sqrt(c) * np.exp(-(c * c - 1.0) * x * x / 4.0))[None, :]
            per_coord.append(tab)
        out = np.ones((idx.shape[0], nodes.shape[0]))
        for j in range(self.dimension):
            out *= per_coord[j][idx[:, j], :]
        return out

    def total_eigenvalue_sum(self) -> float:
        """Sum of lambda_nu over all of N_0^d (closed form)."""
        if self.scale_c is None:
            return float(np.prod(1.0 / (1.0 - self.beta)))
        return 1.0

    def tail_eigenvalue_sum(self) -> float:
        """Upper bound for the eigenvalue mass outside the index set.

        Split at the box hull of the set: the hull tail has a stable
        log-space closed form (immune to absorption when it is far below
        machine epsilon times the total).  For a full box the within-hull
        remainder is identically zero; otherwise it is an explicit
        difference plus a small machine-epsilon slack for its rounding.
        """
        total = self.total_eigenvalue_sum()
        idx = self.index_set.array()
        degrees = idx.max(axis=0)
        log_box = float(np.sum(np.log1p(-self.beta ** (degrees + 1))))
        hull_tail = total * -np.expm1(log_box)
        if idx.shape[0] == int(np.prod(degrees + 1)):
            return hull_tail
        hull_sum = total * exp(log_box)
        inner = max(0.0, hull_sum - float(self.eigenvalues.sum()))
        return hull_tail + inner + 8.0 * np.finfo(float).eps * total

    def max_tail_eigenvalue(self) -> float:
        """Largest eigenvalue outside the index set."""
        border = self.index_set.complement_minimal()
        if not border:
            return 0.0
        return max(self._eigenvalue_of(nu) for nu in border)

    def _eigenvalue_of(self, nu) -> float:
        lam = 1.0
        for j, v in enumerate(nu):
            lam *= self.beta[j] ** v
            if self.scale_c is not None:
                lam *= 1.0 - self.beta[j]
        return lam

    def node_amplitude_bound(self, node: np.ndarray) -> float:
        """Rigorous bound on |E_nu(node)| uniform over all nu (Cramer)."""
        try:
            bound = CRAMER_CONSTANT**self.dimension * exp(float(np.dot(node, node)) / 4.0)
        except OverflowError:
            bound = float("inf")
        if self.scale_c is not None:
            bound *= float(np.prod(np.sqrt(self.scale_c)))
        if not np.isfinite(bound):
            raise NumericalConsistencyError(f"amplitude bound at node {node} overflows")
        return bound


def spectral_system(spec: KernelSpec, index_set: MultiIndexSet) -> SpectralSystem:
    """Build the spectral system of a kernel over a downward-closed index set."""
    if index_set.dimension != spec.dimension:
        raise ShapeMismatchError("index set dimension does not match kernel dimension")
    idx = index_set.array()
    if spec.is_gaussian:
        beta, scale_c = matched_parameters(APPROXIMATION, spec.params)
        lam = np.prod((1.0 - beta)[None, :] * beta[None, :] ** idx, axis=1)
    else:
        beta = np.asarray(spec.params, dtype=float)
        scale_c = None
        lam = np.prod(beta[None, :] ** idx, axis=1)
    lam.flags.writeable = False
    return SpectralSystem(spec, index_set, lam, beta, scale_c)


# ---------------------------------------------------------------------------
# integration


def kernel_gram(spec: KernelSpec, nodes: np.ndarray) -> np.ndarray:
    """Gram matrix M(x_i, x_j) of node rows under the tensor-product kernel."""
    nodes = np.atleast_2d(np.asarray(nodes, dtype=float))
    if nodes.shape[1] != spec.dimension:
        raise ShapeMismatchError(
            f"nodes have dimension {nodes.shape[1]}, kernel has {spec.dimension}"
        )
    gram = np.ones((nodes.shape[0], nodes.shape[0]))
    for j, param in enumerate(spec.params):
        col = nodes[:, j]
        if spec.is_gaussian:
            gram *= gaussian_kernel(param, col[:, None], col[None, :])
        else:
            gram *= hermite_kernel(param, col[:, None], col[None, :])
    return gram


def wce_integration(rule: QuadratureRule, spec: KernelSpec) -> float:
    """Exact worst-case integration error of a rule on the kernel's unit ball."""
    if rule.dimension != spec.dimension:
        raise ShapeMismatchError(
            f"rule dimension {rule.dimension} does not match kernel dimension {spec.dimension}"
        )
    w = rule.weights
    gram = kernel_gram(spec, rule.nodes)
    m = embedding_vector(spec, rule.nodes)
    e2 = double_integral(spec) - 2.0 * float(w @ m) + float(w @ gram @ w)
    if e2 < -NEGATIVE_VARIANCE_TOL:
        raise NumericalConsistencyError(
            f"squared error {e2:.3e} below round-off tolerance -{NEGATIVE_VARIANCE_TOL}"
        )
    return sqrt(max(e2, 0.0))


def _solve_spd(gram: np.ndarray, rhs: np.ndarray):
    """Cholesky solve with an explicit condition estimate; no regularization."""
    eigs = np.linalg.eigvalsh(gram)
    lo, hi = float(eigs[0]), float(eigs[-1])
    cond = np.inf if lo <= 0.0 else hi / lo
    if not np.isfinite(cond) or cond > MAX_GRAM_CONDITION:
        raise ConditioningError(
            f"Gram matrix condition estimate {cond:.3e} exceeds {MAX_GRAM_CONDITION:.1e}",
            cond,
        )
    factor = scipy.linalg.cho_factor(gram, lower=True)
    return scipy.linalg.cho_solve(factor, rhs), cond


def optimal_weights(nodes: np.ndarray, spec: KernelSpec) -> QuadratureRule:
    """Worst-case optimal quadrature weights for fixed nodes.

    Solves G w = m.  Ill-conditioning (estimate above 1e14) is reported,
    never regularized away.
    """
    nodes = np.atleast_2d(np.asarray(nodes, dtype=float))
    gram = kernel_gram(spec, nodes)
    m = embedding_vector(spec, nodes)
    w, _ = _solve_spd(gram, m)
    return QuadratureRule(nodes, w)


# ---------------------------------------------------------------------------
# L2-approximation


def _error_operator(sqrt_lam: np.ndarray, P: np.ndarray, coeff: np.ndarray) -> np.ndarray:
    """Dense error operator (I - (P C)^T) diag(sqrt_lam), |Lambda| x |Lambda|."""
    inner = P @ coeff  # [nu, m]
    return (np.eye(sqrt_lam.size) - inner.T) * sqrt_lam[None, :]


def _spectral_norm(sqrt_lam: np.ndarray, P: np.ndarray, coeff: np.ndarray) -> float:
    """Spectral norm of the error operator diag(s) - A B^T, A = C^T, B = s * P.

    Small index sets take the dense SVD.  Larger ones hand ARPACK a
    matrix-free operator whose products cost O(|Lambda| n); the dense matrix
    is built only if ARPACK fails, and only up to ``_DENSE_FALLBACK_LIMIT``
    indices, past which the failure raises ``NumericalConsistencyError``.
    """
    size = sqrt_lam.size
    if size <= _DENSE_NORM_LIMIT:
        return float(scipy.linalg.svdvals(_error_operator(sqrt_lam, P, coeff))[0])
    A = coeff.T
    B = P * sqrt_lam[:, None]

    def matvec(x):
        x = np.ravel(x)
        return sqrt_lam * x - A @ (B.T @ x)

    def rmatvec(y):
        y = np.ravel(y)
        return sqrt_lam * y - B @ (A.T @ y)

    op = scipy.sparse.linalg.LinearOperator(
        (size, size), matvec=matvec, rmatvec=rmatvec, dtype=float
    )
    v0 = np.full(size, 1.0 / sqrt(size))
    try:
        s = scipy.sparse.linalg.svds(op, k=1, v0=v0, return_singular_vectors=False)
        return float(s[0])
    except (scipy.sparse.linalg.ArpackError, ValueError) as err:
        # iterative solver can stall on (near-)degenerate matrices
        if size > _DENSE_FALLBACK_LIMIT:
            raise NumericalConsistencyError(
                f"ARPACK failed on the {size}-index error operator ({err}) and a dense"
                f" fallback is only built up to {_DENSE_FALLBACK_LIMIT} indices"
            ) from err
        return float(scipy.linalg.svdvals(_error_operator(sqrt_lam, P, coeff))[0])


def wce_approximation(method: SamplingMethod, system: SpectralSystem):
    """Worst-case L2-approximation error with a rigorous truncation tail.

    Returns ``(value, tail_bound)``: ``value`` is the spectral norm of the
    error operator restricted to the system's index set and the true
    worst-case error lies in ``[value, value + tail_bound]``.  A tail bound
    larger than requested precision is the caller's concern, not an error.
    Raises ``NumericalConsistencyError`` when the eigenfunction values, a
    node amplitude bound or either result is not finite.
    """
    if method.index_set != system.index_set:
        raise ShapeMismatchError("method and system use different index sets")
    if method.dimension != system.dimension:
        raise ShapeMismatchError("method and system dimensions differ")
    # overflow in the Hermite recurrence is caught by the finiteness check
    with np.errstate(over="ignore", invalid="ignore"):
        P = system.eigenfunction_matrix(method.nodes)
    if not np.all(np.isfinite(P)):
        raise NumericalConsistencyError("eigenfunction values at the nodes are not finite")
    g = _spectral_norm(np.sqrt(system.eigenvalues), P, method.coeff_table)

    # Tail of the error operator over indices outside the set: the block
    # norm bound ||T||^2 <= max(g^2, c^2 + d^2) + g*c with d the largest
    # tail sqrt-eigenvalue and c a Frobenius bound on the coupling block.
    d_tail = sqrt(system.max_tail_eigenvalue())
    amp = np.array([system.node_amplitude_bound(row) for row in method.nodes])
    coeff_norms = np.linalg.norm(method.coeff_table, axis=1)
    s_bound = float(amp @ coeff_norms)
    c_tail = s_bound * sqrt(system.tail_eigenvalue_sum())
    upper = sqrt(max(g * g, c_tail * c_tail + d_tail * d_tail) + g * c_tail)
    if not (np.isfinite(g) and np.isfinite(upper)):
        raise NumericalConsistencyError(f"error {g} or its tail bound {upper - g} is not finite")
    return g, max(0.0, upper - g)


def spline_method(nodes: np.ndarray, system: SpectralSystem) -> SamplingMethod:
    """Minimal-norm interpolation method for fixed nodes.

    Coefficient functions a_i = sum_j (G^{-1})_{ij} M(., x_j), expanded
    over the system's index set via M(., x_j) = sum_nu lambda_nu
    E_nu(x_j) E_nu.
    """
    nodes = np.atleast_2d(np.asarray(nodes, dtype=float))
    gram = kernel_gram(system.spec, nodes)
    P = system.eigenfunction_matrix(nodes)  # [nu, j]
    rhs = (P * system.eigenvalues[:, None]).T  # [j, nu]
    coeff, _ = _solve_spd(gram, rhs)
    return SamplingMethod(nodes, coeff, system.index_set)


# ---------------------------------------------------------------------------
# cost accounting


def active_counts(nodes: np.ndarray) -> np.ndarray:
    nodes = np.atleast_2d(np.asarray(nodes, dtype=float))
    return np.count_nonzero(nodes, axis=1)


def rule_cost(rule_or_method, model: CostModel) -> float:
    """Worst-case information cost of a rule or sampling method."""
    nodes = rule_or_method.nodes
    if model.mode == "unit":
        return float(nodes.shape[0])
    return float(sum(model.charge(int(a)) for a in active_counts(nodes)))


# ---------------------------------------------------------------------------
# stable special-form error computations


def tensor_wce_integration(factors: Sequence[QuadratureRule1D], spec: KernelSpec) -> float:
    """Worst-case integration error of a full product rule, factorized.

    For product rules the three Gram-identity terms factor across
    coordinates, so the error is computable without materializing the
    product grid.
    """
    if len(factors) != spec.dimension:
        raise ShapeMismatchError("one univariate factor per kernel coordinate required")
    prod_di, prod_wm, prod_wgw = 1.0, 1.0, 1.0
    for factor, param in zip(factors, spec.params):
        sub = KernelSpec(spec.family, (param,))
        nodes = factor.nodes[:, None]
        w = factor.weights
        prod_di *= double_integral(sub)
        prod_wm *= float(w @ embedding_vector(sub, nodes))
        prod_wgw *= float(w @ kernel_gram(sub, nodes) @ w)
    e2 = prod_di - 2.0 * prod_wm + prod_wgw
    if e2 < -NEGATIVE_VARIANCE_TOL:
        raise NumericalConsistencyError(f"squared error {e2:.3e} below tolerance")
    return sqrt(max(e2, 0.0))


def tensor_optimal_wce(factors: Sequence[QuadratureRule1D], spec: KernelSpec) -> float:
    """Error of the optimally weighted product rule on the product grid.

    Uses the factorization e^2 = prod_j II_j * (1 - prod_j (1 - r_j)) with
    r_j the per-axis relative optimal-error share, which avoids the
    catastrophic cancellation of the naive difference.
    """
    if len(factors) != spec.dimension:
        raise ShapeMismatchError("one univariate factor per kernel coordinate required")
    prod_di = 1.0
    one_minus = 1.0
    for factor, param in zip(factors, spec.params):
        sub = KernelSpec(spec.family, (param,))
        nodes = factor.nodes[:, None]
        gram = kernel_gram(sub, nodes)
        m = embedding_vector(sub, nodes)
        w, _ = _solve_spd(gram, m)
        di = double_integral(sub)
        r = 1.0 - float(m @ w) / di
        prod_di *= di
        one_minus *= min(max(1.0 - r, 0.0), 1.0)
    e2 = prod_di * (1.0 - one_minus)
    return sqrt(max(e2, 0.0))


def hermite_wce_integration_spectral(
    nodes: np.ndarray, weights: np.ndarray, beta: float, max_degree: int | None = None
):
    """Univariate integration error on the Hermite space via the eigen-expansion.

    e^2 = (1 - sum w)^2 + sum_{nu >= 1} beta^nu (sum_i w_i h_nu(x_i))^2.

    All terms are non-negative, so tiny errors are resolvable far below the
    cancellation floor of the Gram identity.  Returns ``(value, tail)``
    where the dropped degrees contribute at most ``tail`` to the error.
    """
    if not 0.0 < beta < 1.0:
        raise DomainError("base parameter must lie strictly inside (0, 1)")
    nodes = np.asarray(nodes, dtype=float).ravel()
    weights = np.asarray(weights, dtype=float).ravel()
    n = nodes.size
    if max_degree is None:
        max_degree = min(2 * n + 400, 512)
    table = hermite_table(max_degree, nodes)
    s = table @ weights
    terms = beta ** np.arange(1, max_degree + 1) * s[1:] ** 2
    e2 = (1.0 - float(weights.sum())) ** 2 + float(np.sum(terms))
    amp = CRAMER_CONSTANT * float(np.abs(weights) @ np.exp(nodes * nodes / 4.0))
    tail_e2 = amp * amp * beta ** (max_degree + 1) / (1.0 - beta)
    value = sqrt(e2)
    return value, sqrt(e2 + tail_e2) - value
