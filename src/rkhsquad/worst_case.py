"""Exact worst-case errors of quadrature rules and sampling methods.

Integration.  For a quadrature rule A(f) = sum_i a_i f(x_i) on the unit
ball of H(M) the squared worst-case error is the reproducing-kernel
identity

    e(A, M)^2 = II - 2 * sum_i a_i m(x_i) + sum_{i,j} a_i a_j M(x_i, x_j),

with m the mean embedding and II the double integral of M.  Optimal
weights for fixed nodes solve the Gram system G w = m.  Gram entries come
in row blocks of the lower triangle, each the exp of exponents from two
matrix products, one of them exact (:func:`_exponent_factors`), filled in
place in buffers reused from block to block; the error sums w^T G w block
by block without holding G.  A solve copies the blocks once into the lower
triangle of one column-major G, which Cholesky factors in place.  The
condition estimate is that of L L^T, the matrix the solve uses, and comes
from the factor L at every size: eigvalsh of L L^T up to 400 nodes and,
above, Lanczos (:func:`_lanczos_top`) on L alone: L L^T as two triangular
products, its inverse as two triangular solves from a seeded random start,
handing over to eigvalsh after 64 steps.  A failed factorization or an
estimate above 1e14 raises ConditioningError.  Non-finite kernel values
raise NumericalConsistencyError where the blocks are made.

L2-approximation.  A sampling method A(f) = sum_i f(x_i) a_i with
coefficient functions a_i expanded over an orthonormal system {E_nu} of
L2(mu) has error operator matrix

    T[m, nu] = sqrt(lambda_nu) * (delta[m,nu] - sum_i E_nu(x_i) c[i,m]),

whose spectral norm over a finite downward-closed index set gives the
computed error; the contribution of indices outside the set is controlled
by a rigorous tail bound (Cramer envelope for the eigenfunctions plus the
eigenvalue tail mass), so the true error lies in [value, value + tail].
The largest eigenvalue outside the set sits on an outside successor nu + e_j.
T is diag(sqrt(lambda)) minus a rank-n term, so it is kept as its factors:
its norm comes from the same Lanczos on T^T T, at O(|Lambda| n) time and
memory per product; no dense operator is built at any size, and a run that
does not converge in 512 steps raises NumericalConsistencyError.

Costs.  Unit cost counts nodes.  The dollar model charges each node
dollar(Act(x)) where Act(x) is its number of non-zero coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import exp, floor, frexp, isfinite, log, prod, sqrt
from typing import Sequence

import numpy as np
import scipy.linalg

from .errors import (
    ConditioningError,
    DomainError,
    NumericalConsistencyError,
    ShapeMismatchError,
    _adopt,
    _finite,
    _freeze,
    _frozen,
    _is_int,
    _json_input,
)
from . import hermite
from .hermite import QuadratureRule1D, hermite_table
from .kernels import (
    APPROXIMATION,
    CRAMER_CONSTANT,
    KernelSpec,
    _exponent_form,
    double_integral,
    embedding_vector,
    matched_parameters,
)

NEGATIVE_VARIANCE_TOL = 1e-12
MAX_GRAM_CONDITION = 1e14

# Up to this many Gram nodes the condition estimate takes the dense
# eigvalsh of L L^T; above it Lanczos works on products with L L^T and its inverse.
_DENSE_LIMIT = 400
# Lanczos stops once its Ritz residual is at most _LANCZOS_TOL times the Ritz
# value; the value's own error is about the residual squared over the gap.
# On the benchmark's operators (seed 1: the approx-spline error operators and
# the quad-gram Grams at n = 1,500-2,000) a run took 8-14 and 13-18 steps at
# 1e-10, 10-17 and 17-22 at 1e-14, and 26-36 and 34-48 at 0.  The condition
# estimate only meets MAX_GRAM_CONDITION, and the error norms agree with a
# dense SVD to 1e-12, so 1e-10 is enough for both.  Random Grams at n = 401-2,000
# took at most 45 steps, spline norms at sigma = 0.2-20 at most 34; clustered
# spectra more: norms at sigma = 100 64-79, at 1e4 up to 388, the inverse runs of
# equispaced or circulant Grams about n / 2.  The error norm has no other solver,
# so it raises only after _LANCZOS_STEPS (all 512: 11-13 s at size 68,921, 2 vCPUs).
# A Gram run hands over to eigvalsh of L L^T after 64 steps: at n = 2,000 (1-D
# equispaced, sigma = 1) eigvalsh took 0.9 s, 64 inverse steps 0.13 s, 512 1.5 s.
_LANCZOS_TOL = 1e-10
_LANCZOS_STEPS = 512
_GRAM_LANCZOS_STEPS = 64
# Gram entries per block of full rows (only its lower triangle is built).
# wce_integration alone at n = 1000, 2000 and 4000 (d = 6, two runs on 2 vCPUs)
# took 5.5-9.2, 22-27 and 61-65 ms at 2**14 entries, 4.5-4.8, 16-21 and 43-46 ms
# at 2**15, 4.3-5.0, 14 and 41-49 ms at 2**16, and 4.5-5.1, 13-14 and 39 ms at
# 2**17.  But whole Gram ops (optimal_weights, then wce_integration of the rule
# and of its Hermite twin, at n = 1500, 2000, 2000 and d = 4, 4, 6; seven
# repetitions, two alternating runs on 2 vCPUs) took 62-79, 118-123 and 119-131
# ms at 2**15 against 93-340, 188-317 and 184-400 ms at 2**17, and cho_factor
# ran slower right after a 2**17 Gram build.  Why is not pinned down; 2**15
# stays.  The blocks also fix the order of w^T G w, so changing this changes
# wce_integration's last bits above n = 181.
_GRAM_BLOCK_ENTRIES = 2**15
# Degrees per block of the Hermite recurrence behind moments.  A multiple of 8, as OpenBLAS
# computes gemv rows in groups: only such blocks give the moments of one table per rule bit
# for bit, except a rule's top degree alone in its block, which numpy takes as a dot product.
_MOMENT_BLOCK = 64
# Bound on the dropped terms of a Hermite-moment series, well below the float64 floor
# of a Gauss-Hermite e^2, about 2**-111 (beta = 0.5, n >= 40).
_MOMENT_CUT = 2.0**-160


# ---------------------------------------------------------------------------
# domain types


@dataclass(frozen=True)
class QuadratureRule:
    """Finite quadrature rule: node matrix (n, d) and weight vector (n,)."""

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        nodes = np.atleast_2d(_adopt(self.nodes))
        weights = _adopt(self.weights).ravel()
        if nodes.shape[0] != weights.size:
            raise ShapeMismatchError(f"{nodes.shape[0]} nodes but {weights.size} weights")
        if weights.size < 1:
            raise ShapeMismatchError("a rule needs at least one node")
        if not (_finite(nodes) and _finite(weights)):
            raise DomainError("nodes and weights must be finite")
        _freeze(self, nodes=nodes, weights=weights)

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
        with _json_input(obj, "rule") as obj:
            return cls(obj["nodes"], obj["weights"])


_MAX_INDEX_ENTRY = 2**62


def _integral(raw: np.ndarray) -> bool:
    """Whether every entry of an array is an integer (finite if float)."""
    return raw.dtype.kind in "biu" or (
        raw.dtype.kind == "f" and np.all(np.isfinite(raw)) and np.array_equal(raw, np.floor(raw))
    )


def _index_rows(indices) -> np.ndarray:
    """Validated (n, d) int64 copy of a collection of multi-indices, column-major."""
    try:
        raw = np.array(indices, order="F")
    except ValueError:
        raise ShapeMismatchError("multi-indices of mixed dimension") from None
    if raw.ndim >= 1 and raw.shape[0] == 0:
        raise DomainError("index set must be non-empty")
    if raw.ndim != 2 or raw.shape[1] == 0:
        raise ShapeMismatchError("multi-indices must be non-empty rows of one length")
    if not _integral(raw):
        raise DomainError("multi-indices must have integer entries")
    if raw.min() < 0:
        raise DomainError("multi-indices must be non-negative")
    if raw.max() >= _MAX_INDEX_ENTRY:
        raise DomainError("multi-index entries must be below 2**62")
    return raw.astype(np.int64, copy=False)


def _row_keys(rows: np.ndarray, radix: tuple) -> np.ndarray:
    """Sort keys of int64 rows with 0 <= rows[:, j] < radix[j].

    Mixed-radix int64 keys while prod(radix) < 2**63 (coordinate j weighs
    prod(radix[j+1:])), else one byte-string row view of the big-endian
    entries; both order rows lexicographically.  numpy sorts and searches
    the int64 keys two to three times faster than byte rows, which is why
    both are kept.
    """
    if prod(radix) < 2**63:
        keys = rows[:, 0].astype(np.int64)  # Horner over the columns
        for j in range(1, len(radix)):
            keys *= radix[j]
            keys += rows[:, j]
        return keys
    return np.ascontiguousarray(rows, dtype=">i8").view(f"V{8 * len(radix)}").ravel()


def _lowered_keys(rows: np.ndarray, keys: np.ndarray, radix: tuple, j: int, has: np.ndarray) -> np.ndarray:
    """Keys, in the layout of :func:`_row_keys`, of rows[has] with coordinate
    j lowered by one (rows[has, j] > 0): the int64 key minus the weight of
    coordinate j, or the byte key of a lowered copy of the rows."""
    if keys.dtype.kind == "i":
        return keys[has] - prod(radix[j + 1 :])
    low = rows[has]
    low[:, j] -= 1
    return _row_keys(low, radix)


class MultiIndexSet:
    """A finite downward-closed set of multi-indices of one dimension d.

    Stored as one read-only column-major (size, d) int64 array in
    lexicographic row order, with sorted row keys (:func:`_row_keys`, radix
    max_j + 2 so that every direct successor of a member is keyed too) for
    membership tests.  Construction finds each member's predecessor
    nu - e_j once per coordinate, which checks downward closure and marks,
    as a (d, size) mask, the direct successors nu + e_j outside the set; a
    full box needs no search.
    """

    def __init__(self, indices):
        rows = _index_rows(indices)
        self._top = rows.max(axis=0)
        radix = tuple(int(v) + 2 for v in self._top)
        keys = _row_keys(rows, radix)
        if keys.dtype.kind != "i" or not np.all(keys[1:] > keys[:-1]):  # sorted input keeps its rows
            order = np.argsort(keys, kind="stable")
            keys = keys[order]
            if np.any(keys[1:] == keys[:-1]):
                raise DomainError("duplicate multi-indices")
            rows = np.take(rows.T, order, axis=1).T
        self._rows, self._keys, self._radix = rows, keys, radix
        # as many distinct rows as their hull box holds, counted in exact integers: the full box
        self._full_box = rows.shape[0] == prod((self._top + 1).tolist())
        if self._full_box:
            # downward closed, with nu + e_j outside exactly where nu_j is the top
            outside = (rows == self._top).T
        else:
            outside = np.ones(rows.shape[::-1], dtype=bool)
            first = []  # (row, coordinate) of each coordinate's first member without its predecessor
            for j in range(rows.shape[1]):
                has = rows[:, j] > 0
                pos, found = self._search(_lowered_keys(rows, keys, radix, j, has))
                if not found.all():
                    first.append((int(np.flatnonzero(has)[np.argmin(found)]), j))
                outside[j, pos] = False  # nu + e_j is the member whose predecessor sits at pos
            if first:
                i, j = min(first)
                nu = tuple(rows[i].tolist())
                pred = nu[:j] + (nu[j] - 1,) + nu[j + 1 :]
                raise DomainError(f"index set is not downward closed: {nu} without {pred}")
        rows.flags.writeable = outside.flags.writeable = self._top.flags.writeable = False
        self._outside = outside

    def _search(self, keys: np.ndarray):
        """Positions of keys in the set's sorted keys, and which of them are members."""
        pos = np.searchsorted(self._keys, keys)
        return pos, self._keys.take(pos, mode="clip") == keys

    @classmethod
    def box(cls, dimension: int, degree) -> "MultiIndexSet":
        """Full tensor box {0..deg_1} x ... x {0..deg_d}.

        ``degree`` is one degree for every coordinate (a scalar or a 0-d
        array) or a sequence of per-coordinate degrees.  Degrees that are
        not non-negative integers, or a dimension that is not an integer,
        raise ``DomainError``.
        """
        if not _is_int(dimension):
            raise DomainError(f"dimension must be an integer, got {dimension!r}")
        degrees = [degree] * dimension if np.ndim(degree) == 0 else list(degree)
        if len(degrees) != dimension:
            raise ShapeMismatchError("one degree per coordinate required")
        top = _index_rows([degrees])[0]  # the degrees are the box's top multi-index
        return cls(np.indices(tuple((top + 1).tolist()), dtype=np.int64).reshape(dimension, -1).T)

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
        if not (np.all(row >= 0) and np.all(row <= self._top)):
            return False
        ints = row.astype(np.int64)
        if not np.array_equal(ints, row):
            return False
        return bool(self._search(_row_keys(ints[None, :], self._radix))[1][0])

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

    def _successors(self, j: int) -> np.ndarray:
        """Fresh (m, d) array of the direct successors nu + e_j outside the set."""
        succ = self._rows[self._outside[j]]
        succ[:, j] += 1
        return succ

    def complement_minimal(self) -> tuple:
        """Minimal (componentwise) multi-indices outside the set: the outside
        direct successors whose predecessors are all members."""
        cand = np.concatenate([self._successors(j) for j in range(self.dimension)])
        keys, first = np.unique(_row_keys(cand, self._radix), return_index=True)
        cand = cand[first]
        minimal = np.ones(cand.shape[0], dtype=bool)
        for k in range(self.dimension):
            has = cand[:, k] > 0
            minimal[has] &= self._search(_lowered_keys(cand, keys, self._radix, k, has))[1]
        return tuple(map(tuple, cand[minimal].tolist()))


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
    def dollar(cls, table: Sequence[float]) -> "CostModel":
        """Dollar model from a non-decreasing table of dollar(0), ..., dollar(m_max), each >= 1."""
        return cls("dollar", tuple(table))

    def charge_rows(self, active) -> float:
        """Total charge of rows with the given activities: one table lookup,
        summed as Python floats in row order.
        An activity that is not a non-negative integer raises ``DomainError``."""
        active = np.asarray(active)
        if not _integral(active) or (active.size and active.min() < 0):
            raise DomainError("activities must be non-negative integers")
        if self.mode == "unit":
            return float(active.size)
        top = len(self.table) - 1
        if active.size and active.max() > top:
            raise DomainError(f"dollar table covers activity up to {top}, queried {active.max()}")
        return float(sum(np.array(self.table)[active.astype(np.intp, copy=False)].tolist()))

    def to_json(self) -> dict:
        if self.mode == "unit":
            return {"mode": "unit"}
        return {"mode": "dollar", "table": list(self.table)}

    @classmethod
    def from_json(cls, obj) -> "CostModel":
        with _json_input(obj, "cost model") as obj:
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
        nodes = np.atleast_2d(_adopt(self.nodes))
        coeff = np.atleast_2d(_adopt(self.coeff_table))
        if coeff.shape != (nodes.shape[0], self.index_set.size):
            raise ShapeMismatchError(f"coefficient table {coeff.shape} does not match "
                                     f"{nodes.shape[0]} nodes x {self.index_set.size} indices")
        if nodes.shape[1] != self.index_set.dimension:
            raise ShapeMismatchError("node dimension does not match index-set dimension")
        if not (_finite(nodes) and _finite(coeff)):
            raise DomainError("nodes and coefficients must be finite")
        _freeze(self, nodes=nodes, coeff_table=coeff)

    @property
    def n(self) -> int:
        return self.nodes.shape[0]

    @property
    def dimension(self) -> int:
        return self.nodes.shape[1]

    @classmethod
    def zero(cls, dimension: int, index_set: MultiIndexSet) -> "SamplingMethod":
        """The zero method: one dead node at the origin."""
        if not _is_int(dimension):
            raise DomainError(f"dimension must be an integer, got {dimension!r}")
        return cls(np.zeros((1, dimension)), np.zeros((1, index_set.size)), index_set)

    def to_json(self) -> dict:
        return {
            "nodes": self.nodes.tolist(),
            "index_set": self.index_set.array().tolist(),
            "coeffs": self.coeff_table.tolist(),
        }

    @classmethod
    def from_json(cls, obj) -> "SamplingMethod":
        with _json_input(obj, "sampling method") as obj:
            return cls(obj["nodes"], obj["coeffs"], MultiIndexSet(obj["index_set"]))


def _eigenvalues(factor: np.ndarray, beta: np.ndarray, rows: np.ndarray, top: np.ndarray) -> np.ndarray:
    """Eigenvalues prod_j factor_j beta_j^nu_j of the multi-index rows nu, nu_j <= top_j.

    Each factor comes from a table factor_j * beta_j ** (0..top_j) gathered
    by index, and the factors multiply in coordinate order, so the result is
    np.prod(factor * beta ** rows, axis=1) bit for bit, as long as numpy
    takes the same power loop for both (it squares a lone element exactly,
    where its vector loop may round beta**2 one unit differently).
    """
    tables = [f * b ** np.arange(t + 1) for f, b, t in zip(factor, beta, top.tolist())]
    lam = tables[0][rows[:, 0]]
    for j in range(1, len(tables)):
        lam *= tables[j][rows[:, j]]
    return lam


@dataclass(frozen=True)
class SpectralSystem:
    """Eigen-decomposition of a kernel's embedding into L2(mu) over an index set.

    Gaussian family: with beta_j and c_j from the approximation parameter
    correspondence, eigenvalues prod_j (1-beta_j) beta_j^{nu_j} and
    eigenfunctions

        E_nu(x) = prod_j c_j^{1/2} exp(-(c_j^2-1) x_j^2 / 4) h_{nu_j}(c_j x_j),

    orthonormal in L2(mu).  The Hermite family is the case c_j = 1 with
    the factors 1 - beta_j replaced by 1: eigenvalues prod_j beta_j^{nu_j}
    and the tensor Hermite polynomials.  Everything else is derived from
    the kernel and the index set, here and nowhere else.
    """

    spec: KernelSpec
    index_set: MultiIndexSet
    eigenvalues: np.ndarray = field(init=False)
    beta: np.ndarray = field(init=False)
    scale_c: np.ndarray = field(init=False)
    factor: np.ndarray = field(init=False)  # per coordinate: 1 - beta_j (Gaussian) or 1 (Hermite)

    def __post_init__(self):
        if self.index_set.dimension != self.spec.dimension:
            raise ShapeMismatchError("index set dimension does not match kernel dimension")
        if self.spec.is_gaussian:
            beta, scale_c = matched_parameters(APPROXIMATION, self.spec.params)
            factor = 1.0 - beta
        else:
            beta = np.asarray(self.spec.params, dtype=float)
            scale_c, factor = np.ones_like(beta), np.ones_like(beta)
        lam = _eigenvalues(factor, beta, self.index_set.array(), self.index_set._top)
        _freeze(self, eigenvalues=lam, beta=beta, scale_c=scale_c, factor=factor)

    @property
    def dimension(self) -> int:
        return self.spec.dimension

    def eigenfunction_matrix(self, nodes: np.ndarray) -> np.ndarray:
        """Matrix P with P[k, i] = E_{nu_k}(x_i) for node rows x_i; raises if one is not finite."""
        nodes = np.atleast_2d(np.asarray(nodes, dtype=float))
        if nodes.shape[1] != self.dimension:
            raise ShapeMismatchError("node dimension does not match system dimension")
        idx = self.index_set.array()
        max_deg = int(self.index_set._top.max())
        out = np.ones((idx.shape[0], nodes.shape[0]))
        # overflow in the Hermite recurrence is caught by the finiteness check
        with np.errstate(over="ignore", invalid="ignore"):
            for j, c in enumerate(self.scale_c.tolist()):
                x = nodes[:, j]
                tab = hermite_table(max_deg, c * x) * (sqrt(c) * np.exp(-(c * c - 1.0) * x * x / 4.0))[None, :]
                out *= tab[idx[:, j], :]
        if not np.all(np.isfinite(out)):
            raise NumericalConsistencyError("eigenfunction values at the nodes are not finite")
        return out

    def total_eigenvalue_sum(self) -> float:
        """Sum of lambda_nu over all of N_0^d (closed form)."""
        return float(np.prod(self.factor / (1.0 - self.beta)))

    def tail_eigenvalue_sum(self) -> float:
        """Upper bound for the eigenvalue mass outside the index set.

        Split at the box hull of the set: the hull tail has a stable
        log-space closed form (immune to absorption when it is far below
        machine epsilon times the total).  For a full box the within-hull
        remainder is identically zero; otherwise it is an explicit
        difference plus a small machine-epsilon slack for its rounding.
        """
        total = self.total_eigenvalue_sum()
        log_box = float(np.sum(np.log1p(-self.beta ** (self.index_set._top + 1))))
        hull_tail = total * -np.expm1(log_box)
        if self.index_set._full_box:
            return hull_tail
        hull_sum = total * exp(log_box)
        inner = max(0.0, hull_sum - float(self.eigenvalues.sum()))
        return hull_tail + inner + 8.0 * np.finfo(float).eps * total

    def max_tail_eigenvalue(self) -> float:
        """Largest eigenvalue outside the index set (whose complement in
        N_0^d is never empty): eigenvalues fall in every coordinate, so the
        largest over the direct successors nu + e_j that lie outside."""
        top = self.index_set._top + 1
        return max(
            float(_eigenvalues(self.factor, self.beta, self.index_set._successors(j), top).max())
            for j in range(self.dimension)
        )

    def node_amplitude_bound(self, node: np.ndarray) -> float:
        """Rigorous bound on |E_nu(node)| uniform over all nu (Cramer)."""
        try:
            bound = CRAMER_CONSTANT**self.dimension * exp(float(np.dot(node, node)) / 4.0)
        except OverflowError:
            bound = float("inf")
        bound *= float(np.prod(np.sqrt(self.scale_c)))
        if not np.isfinite(bound):
            raise NumericalConsistencyError(f"amplitude bound at node {node} overflows")
        return bound


# ---------------------------------------------------------------------------
# integration


def _exponent_factors(spec: KernelSpec, nodes: np.ndarray):
    """``(q, high, low)``: the exponents of the Gram matrix of ``nodes`` as
    sums of two matrix products, ``high[0] @ high[1].T + low[0] @ low[1].T``.

    With ``(a, c)`` of :func:`kernels._exponent_form`, the exponent of
    M(x_i, x_j) is q_i + q_j - ||z_i - z_j||^2, with q_i = sum_k c_k x_ik^2
    and z = a * (x - mean x); the distance does not depend on the origin.  z
    splits exactly into zh + zl, zh on the grid 2^(e-b) with max |z| < 2^e and
    b = floor((53 - ceil(log2 4d)) / 2).  The rows of ``high`` are
    (zh, ph, 1) and (2 zh, -1, -ph), ph = ||zh||^2, so their products are
    2 zh_i . zh_j - ph_i - ph_j = -||zh_i - zh_j||^2: every product and partial
    sum is an integer multiple of 2^(2e-2b) below 2^53 of them, exact in any
    BLAS order, with or without FMA.  The rows of ``low`` are (zl, w, u, 1)
    and (w, zl, 1, u), w = 2 zh + zl and u = q - zl . w, whose products are the
    rest, q_i + q_j - (zl_i - zl_j) . (w_i - w_j); its distance part is about
    2^-b of the whole, so its rounding is negligible.  A z that is not
    finite, or whose squares could overflow in the sums (max |z| from about
    1e153 on), raises ``NumericalConsistencyError``.
    """
    a, c = _exponent_form(spec)
    n, d = nodes.shape
    log4d = (4 * d - 1).bit_length()  # ceil(log2 4d)
    bits = (53 - log4d) // 2
    # non-finite nodes and overflowing squares are caught by the checks
    with np.errstate(over="ignore", invalid="ignore"):
        z = (nodes - nodes.mean(axis=0)) * a
        top = float(np.abs(z).max())
        if not np.isfinite(top):
            raise NumericalConsistencyError("kernel values at the nodes are not finite")
        # a grid no finer than 2^(b - 537) keeps the products 2^(2e - 2b) above the subnormals
        e = max(frexp(top)[1], bits - 537)
        if 2 * e + log4d > 1023:
            raise NumericalConsistencyError(f"scaled node offsets up to {top:.3e} overflow when squared")
        grid = 2.0 ** (e - bits)
        zh = np.rint(z / grid) * grid
        zl = z - zh
        w = 2.0 * zh + zl
        ph = np.einsum("ij,ij->i", zh, zh)
        # the Gaussian has no q, and so no square of a far node to overflow
        q = np.einsum("ij,ij,j->i", nodes, nodes, c) if c.any() else np.zeros(n)
        u = q - np.einsum("ij,ij->i", zl, w)
    ones, ph, u = np.ones((n, 1)), ph[:, None], u[:, None]
    high = (np.concatenate([zh, ph, ones], axis=1), np.concatenate([2.0 * zh, -ones, -ph], axis=1))
    low = (np.concatenate([zl, w, u, ones], axis=1), np.concatenate([w, zl, ones, u], axis=1))
    return q, high, low


def _gram_rows(spec: KernelSpec, nodes: np.ndarray):
    """Yield ``(lo, hi, block)``: rows lo..hi-1, columns 0..hi-1 of the Gram
    matrix of ``nodes`` in blocks of ``_GRAM_BLOCK_ENTRIES // n`` rows.

    Each block costs two matrix products of the factors of
    :func:`_exponent_factors`: the exact part -||zh_i - zh_j||^2 first, then
    the small rest added to it.  On the diagonal the distance is 0 outright,
    the exponent 2 q_i, so the Gaussian diagonal is exactly 1.  The block is
    the exp of the exponents, divided by prod_j (1-beta_j^2)^(1/2) for the
    Hermite family; its entries above the diagonal need not equal their
    mirror images bit for bit.  The block is a contiguous buffer reused for
    every block, so it must be consumed before the next one is asked for.  A
    block that is not finite raises ``NumericalConsistencyError``, with no
    warning, as do the nodes :func:`_exponent_factors` refuses.
    """
    q, (hl, hr), (ll, lr) = _exponent_factors(spec, nodes)
    scale = 1.0 if spec.is_gaussian else prod(sqrt(1.0 - b * b) for b in spec.params)
    n = nodes.shape[0]
    step = min(n, max(1, _GRAM_BLOCK_ENTRIES // n))
    buffers = np.empty((2, step * n))
    for lo in range(0, n, step):
        hi = min(lo + step, n)
        total, part = (b[: (hi - lo) * hi].reshape(hi - lo, hi) for b in buffers)
        # overflowing kernel values are caught by the finiteness check
        with np.errstate(over="ignore", invalid="ignore"):
            np.matmul(hl[lo:hi], hr[:hi].T, out=total)
            total += np.matmul(ll[lo:hi], lr[:hi].T, out=part)
            total.ravel()[lo :: hi + 1] = 2.0 * q[lo:hi]
            block = np.exp(total, out=total)
            if not spec.is_gaussian:
                block /= scale
            finite = np.isfinite(block).all()
        if not finite:
            raise NumericalConsistencyError("kernel values at the nodes are not finite")
        yield lo, hi, block


def _lower_gram(spec: KernelSpec, nodes: np.ndarray, order: str = "F"):
    """Gram matrix of node rows with only the row blocks of :func:`_gram_rows`
    written (the lower triangle and the diagonal blocks; zeros elsewhere
    above the diagonal), and the ``(lo, hi)`` bounds of those blocks.
    Column-major by default, the layout LAPACK factors in place.  Raises on
    a shape mismatch or a non-finite kernel value."""
    nodes = np.atleast_2d(np.asarray(nodes, dtype=float))
    if nodes.shape[1] != spec.dimension:
        raise ShapeMismatchError(
            f"nodes have dimension {nodes.shape[1]}, kernel has {spec.dimension}"
        )
    if nodes.shape[0] == 0:
        raise ShapeMismatchError("a Gram matrix needs at least one node")
    gram = np.zeros((nodes.shape[0], nodes.shape[0]), order=order)
    bounds = []
    # copied from contiguous blocks: ufuncs writing straight into the strided
    # triangle of G ran about 20% slower
    for lo, hi, block in _gram_rows(spec, nodes):
        gram[lo:hi, :hi] = block
        bounds.append((lo, hi))
    return gram, bounds


def kernel_gram(spec: KernelSpec, nodes: np.ndarray) -> np.ndarray:
    """Gram matrix M(x_i, x_j) of node rows under the tensor-product kernel,
    its strict lower triangle mirrored, so that it is symmetric bit for bit;
    raises on a non-finite kernel value."""
    gram, bounds = _lower_gram(spec, nodes, order="C")
    for lo, hi in bounds:
        gram[:lo, lo:hi] = gram[lo:hi, :lo].T
        diagonal = gram[lo:hi, lo:hi]
        np.copyto(diagonal, diagonal.T, where=~np.tri(hi - lo, dtype=bool))
    return gram


def wce_integration(rule: QuadratureRule, spec: KernelSpec) -> float:
    """Exact worst-case integration error of a rule on the kernel's unit ball.

    w^T G w sums 2 w_I^T (G_{I,<I} w_{<I}) + w_I^T G_II w_I over the row
    blocks I of the lower triangle (one block up to 181 nodes), never holding
    G.  Raises ``NumericalConsistencyError`` if a kernel value is not finite.
    """
    if rule.dimension != spec.dimension:
        raise ShapeMismatchError(
            f"rule dimension {rule.dimension} does not match kernel dimension {spec.dimension}"
        )
    w = rule.weights
    quad = 0.0
    # an overflowing sum of finite kernel values is caught by the check below
    with np.errstate(over="ignore", invalid="ignore"):
        for lo, hi, block in _gram_rows(spec, rule.nodes):
            wi = w[lo:hi]
            quad += 2.0 * float(block[:, :lo] @ w[:lo] @ wi) + float(wi @ block[:, lo:hi] @ wi)
    if not np.isfinite(quad):
        raise NumericalConsistencyError("w^T G w of the rule is not finite")
    m = embedding_vector(spec, rule.nodes)
    return _error_from_e2(double_integral(spec) - 2.0 * float(w @ m) + quad)


def _error_from_e2(e2: float) -> float:
    """The error from its squared value, which rounding may push below zero
    by at most ``NEGATIVE_VARIANCE_TOL`` before it raises."""
    if e2 < -NEGATIVE_VARIANCE_TOL:
        raise NumericalConsistencyError(
            f"squared error {e2:.3e} below round-off tolerance -{NEGATIVE_VARIANCE_TOL}"
        )
    return sqrt(max(e2, 0.0))


def _top_ritz(alpha: list, beta: list):
    """(theta, |y_k|): the largest eigenvalue of the k x k tridiagonal with
    diagonal ``alpha`` and off-diagonal ``beta``, and the last entry of its
    unit eigenvector, by LAPACK bisection and inverse iteration in O(k)."""
    k = len(alpha)
    if k == 1:  # the wrappers take no empty off-diagonal
        return alpha[0], 1.0
    d, e = np.array(alpha), np.array(beta)
    # range 2 selects eigenvalues by their 1-based index, here the k-th alone;
    # order "B" is the block order stein needs
    found, theta, block, split, info = scipy.linalg.lapack.dstebz(d, e, 2, 0.0, 0.0, k, k, 0.0, "B")
    y, info2 = scipy.linalg.lapack.dstein(d, e, theta[:1], block, split)
    if info or info2 or found != 1:
        raise NumericalConsistencyError(f"stebz/stein failed ({info}, {info2}) on a {k} x {k} tridiagonal")
    return theta[0], abs(y[-1, 0])


def _lanczos_top(apply, start: np.ndarray, steps: int):
    """``(theta, x)``: the largest eigenvalue of a symmetric positive
    semidefinite operator and its unit Ritz vector, by Lanczos from the unit
    vector ``start``.

    Each new direction is orthogonalized against the whole basis twice, so
    the basis stays orthonormal to rounding.  The basis grows by one row per
    step.  After step k the top eigenpair (theta, y) of the tridiagonal T_k
    gives the Ritz residual ||A x - theta x|| = beta_k |y_k|; the run stops
    when that is at most ``_LANCZOS_TOL`` theta (an exact breakdown,
    beta_k = 0, included) or the basis spans the space.  So a start on an
    eigenvector stops after one step at its eigenvalue, whichever it is.
    A step takes T_k's top pair alone (:func:`_top_ritz`); the pair
    returned is the dense ``eigh`` of the last T_k, as the goldens record.
    A run that has not stopped after ``steps`` steps, or a step whose
    products or norm overflow, raises ``NumericalConsistencyError``.
    """
    size = start.size
    basis = start[None, :].copy()  # owns its data, so it can be resized below
    alpha, beta = [], []
    for k in range(steps):
        with np.errstate(over="ignore", invalid="ignore"):  # caught by the check below
            w = apply(basis[k])
            h = basis @ w
            w = w - basis.T @ h  # apply may return its argument
            h2 = basis @ w
            w -= basis.T @ h2
            alpha.append(h[k] + h2[k])
            b = float(np.linalg.norm(w))
        if not (isfinite(b) and isfinite(alpha[-1])):
            raise NumericalConsistencyError(f"Lanczos overflowed at step {k + 1} on an operator of size {size}")
        theta, last = _top_ritz(alpha, beta)
        if b * last <= _LANCZOS_TOL * theta or k + 1 == size:
            theta, y = np.linalg.eigh(np.diag(alpha) + np.diag(beta, 1) + np.diag(beta, -1))
            x = y[:, -1] @ basis
            x /= np.linalg.norm(x)
            return float(theta[-1]), x
        beta.append(b)
        basis.resize((k + 2, size), refcheck=False)  # no view of basis outlives a step
        np.divide(w, b, out=basis[k + 1])
    raise NumericalConsistencyError(f"Lanczos did not converge in {steps} steps on an operator of size {size}")


def _lanczos_extremes(factor):
    """(lambda_min, lambda_max) of G = L L^T by Lanczos on the lower Cholesky
    factor L alone: lambda_max from x -> L (L^T x) as two BLAS ``trmv``, and
    lambda_min as 1 / lambda_max(G^-1) with G^-1 = L^-T L^-1 applied as two
    ``trsv``, each run capped at ``_GRAM_LANCZOS_STEPS``.  The inverse run
    starts from a normal draw of ``default_rng(0)``: the uniform start is the
    top eigenvector of a Gram whose rows have equal sums, and would stop it
    at 1 / lambda_max.  The upper triangle of the factor is never read."""
    lower = np.asfortranarray(factor[0])  # f2py would copy a C-ordered factor per call
    n = lower.shape[0]
    trmv, trsv = scipy.linalg.get_blas_funcs(("trmv", "trsv"), (lower,))

    def product(x):
        return trmv(lower, trmv(lower, x, lower=1, trans=1), lower=1, overwrite_x=1)

    def solve(x):
        return trsv(lower, trsv(lower, x, lower=1), lower=1, trans=1, overwrite_x=1)

    draw = np.random.default_rng(0).standard_normal(n)
    hi, _ = _lanczos_top(product, np.full(n, 1.0 / sqrt(n)), _GRAM_LANCZOS_STEPS)
    inv, _ = _lanczos_top(solve, draw / np.linalg.norm(draw), _GRAM_LANCZOS_STEPS)
    return 1.0 / inv, hi


def _solve_spd(gram: np.ndarray, rhs: np.ndarray):
    """Cholesky solve with an explicit condition estimate; no regularization.

    Only the lower triangle of ``gram`` is read, and a column-major ``gram``
    is overwritten by its factor L.  The extreme eigenvalues are those of
    L L^T: up to ``_DENSE_LIMIT`` nodes from its ``eigvalsh``, above it from
    Lanczos on L (:func:`_lanczos_extremes`; ``eigvalsh`` again if a run
    stalls or overflows).  A failed
    factorization or an estimate above ``MAX_GRAM_CONDITION`` raises
    ``ConditioningError``.  The Gram comes from :func:`_lower_gram` or
    :func:`kernel_gram`, which check it finite.
    """
    try:
        factor = scipy.linalg.cho_factor(gram, lower=True, overwrite_a=True, check_finite=False)
    except np.linalg.LinAlgError as err:
        raise ConditioningError(
            f"Gram matrix is not numerically positive definite ({err})", np.inf
        ) from err
    lo = hi = None
    if gram.shape[0] > _DENSE_LIMIT:
        try:
            lo, hi = _lanczos_extremes(factor)
        except NumericalConsistencyError:  # eigvalsh below answers
            pass
    if lo is None:
        lower = np.tril(factor[0])
        eigs = np.linalg.eigvalsh(lower @ lower.T)
        lo, hi = float(eigs[0]), float(eigs[-1])
    cond = np.inf if lo <= 0.0 else hi / lo
    if not np.isfinite(cond) or cond > MAX_GRAM_CONDITION:
        raise ConditioningError(
            f"Gram matrix condition estimate {cond:.3e} exceeds {MAX_GRAM_CONDITION:.1e}",
            cond,
        )
    return scipy.linalg.cho_solve(factor, rhs, check_finite=False), cond


def optimal_weights(nodes: np.ndarray, spec: KernelSpec) -> QuadratureRule:
    """Worst-case optimal quadrature weights for fixed nodes.

    Solves G w = m, with G held once and factored in place.  Ill-conditioning
    (estimate above 1e14) is reported, never regularized away; kernel values
    that are not finite raise ``NumericalConsistencyError``.
    """
    nodes = np.atleast_2d(np.asarray(nodes, dtype=float))
    gram, _ = _lower_gram(spec, nodes)
    m = embedding_vector(spec, nodes)
    w, _ = _solve_spd(gram, m)
    return QuadratureRule(nodes, *_frozen(w))


# ---------------------------------------------------------------------------
# L2-approximation


def _spectral_norm(sqrt_lam: np.ndarray, P: np.ndarray, coeff: np.ndarray) -> float:
    """Spectral norm of the error operator T = diag(s) - A B^T, A = C^T, B = s * P.

    Lanczos runs on T^T T from the uniform vector, as two products with T's
    factors, O(|Lambda| n) time and memory each, and the norm is ||T v|| for
    the top Ritz vector v.  No dense matrix is built at any size; a run that
    does not converge raises ``NumericalConsistencyError``.
    """
    size = sqrt_lam.size
    A = coeff.T
    B = P * sqrt_lam[:, None]

    def forward(x):
        return sqrt_lam * x - A @ (B.T @ x)

    def normal(x):
        y = forward(x)
        return sqrt_lam * y - B @ (A.T @ y)

    _, v = _lanczos_top(normal, np.full(size, 1.0 / sqrt(size)), _LANCZOS_STEPS)
    return float(np.linalg.norm(forward(v)))


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
    P = system.eigenfunction_matrix(method.nodes)
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
    E_nu(x_j) E_nu.  Non-finite kernel or eigenfunction values at the
    nodes raise ``NumericalConsistencyError``.
    """
    nodes = np.atleast_2d(np.asarray(nodes, dtype=float))
    gram, _ = _lower_gram(system.spec, nodes)
    P = system.eigenfunction_matrix(nodes)  # [nu, j]
    rhs = (P * system.eigenvalues[:, None]).T  # [j, nu]
    coeff, _ = _solve_spd(gram, rhs)
    return SamplingMethod(nodes, *_frozen(coeff), system.index_set)


# ---------------------------------------------------------------------------
# cost accounting


def rule_cost(rule_or_method, model: CostModel) -> float:
    """Worst-case information cost of a rule or sampling method."""
    return model.charge_rows(np.count_nonzero(rule_or_method.nodes, axis=1))


# ---------------------------------------------------------------------------
# stable special-form error computations


def _coordinate_forms(factors: Sequence[QuadratureRule1D], spec: KernelSpec):
    """Yield ``(weights, double integral, embedding, Gram)`` of each product-rule factor."""
    if len(factors) != spec.dimension:
        raise ShapeMismatchError("one univariate factor per kernel coordinate required")
    for factor, param in zip(factors, spec.params):
        sub = KernelSpec(spec.family, (param,))
        nodes = factor.nodes[:, None]
        yield factor.weights, double_integral(sub), embedding_vector(sub, nodes), kernel_gram(sub, nodes)


def tensor_wce_integration(factors: Sequence[QuadratureRule1D], spec: KernelSpec) -> float:
    """Worst-case integration error of a full product rule, factorized.

    For product rules the three Gram-identity terms factor across
    coordinates, so the error is computable without materializing the
    product grid.
    """
    prod_di, prod_wm, prod_wgw = 1.0, 1.0, 1.0
    for w, di, m, gram in _coordinate_forms(factors, spec):
        prod_di *= di
        prod_wm *= float(w @ m)
        prod_wgw *= float(w @ gram @ w)
    return _error_from_e2(prod_di - 2.0 * prod_wm + prod_wgw)


def tensor_optimal_wce(factors: Sequence[QuadratureRule1D], spec: KernelSpec) -> float:
    """Error of the optimally weighted product rule on the product grid.

    Uses the factorization e^2 = prod_j II_j * (1 - prod_j (1 - r_j)) with
    r_j the per-axis relative optimal-error share, which avoids the
    catastrophic cancellation of the naive difference.
    """
    prod_di = 1.0
    one_minus = 1.0
    for _, di, m, gram in _coordinate_forms(factors, spec):
        w, _ = _solve_spd(gram, m)
        r = 1.0 - float(m @ w) / di
        prod_di *= di
        one_minus *= min(max(1.0 - r, 0.0), 1.0)
    return sqrt(prod_di * (1.0 - one_minus))  # one_minus lies in [0, 1]


def _spectral_errors(rules, beta: float):
    """Univariate integration errors of flat float ``(nodes, weights)`` rules on the Hermite space of ``beta``.

    e^2 = (1 - sum w)^2 + sum_{nu >= 1} beta^nu (sum_i w_i h_nu(x_i))^2.  All terms are
    non-negative, so tiny errors are resolvable far below the cancellation floor of the Gram
    identity.  Each rule's series stops at :func:`_moment_cut` of its Cramer bound
    a^2 beta^(D + 1) / (1 - beta) on the dropped terms, a = :func:`_rule_amplitude`, and
    that bound enters the tail.  Returns one ``(value, tail)`` per rule, the one-rule
    evaluation bit for bit.
    """
    if not 0.0 < beta < 1.0:
        raise DomainError("base parameter must lie strictly inside (0, 1)")
    cuts = [_moment_cut(_rule_amplitude(x, w) ** 2 / (1.0 - beta), beta) for x, w in rules]
    out = []
    for (x, w), (deg, cut), s in zip(rules, cuts, _hermite_moments(rules, [deg for deg, _ in cuts])):
        terms = beta ** np.arange(1, deg + 1) * s[1:] ** 2
        e2 = (1.0 - float(w.sum())) ** 2 + float(np.sum(terms))
        value = sqrt(e2)
        out.append((value, sqrt(e2 + cut) - value))
    return out


def _moment_cut(scale: float, beta: float):
    """``(D, scale beta^(D + 1))``: where a Hermite-moment series stops, the smallest D with
    scale beta^(D + 1), the caller's bound on the dropped terms, below ``_MOMENT_CUT``, and that
    bound; D is at most ``hermite.MAX_DEGREE``, where the bound still enters the caller's tail."""
    degree = 0 if beta == 0.0 else min(max(floor(log(_MOMENT_CUT / scale) / log(beta)), 0), hermite.MAX_DEGREE)
    return degree, scale * beta ** (degree + 1)


def _rule_amplitude(x: np.ndarray, w: np.ndarray) -> float:
    """C sum_i |w_i| e^(x_i^2 / 4), the Cramer bound on |sum_i w_i h_nu(x_i)| for every nu."""
    return CRAMER_CONSTANT * float(np.abs(w) @ np.exp(x * x / 4.0))


def _hermite_moments(rules, degrees):
    """Hermite moments s_nu = sum_i w_i h_nu(x_i), nu = 0..deg, of flat ``(nodes, weights)``
    rules, one degree per rule, from one recurrence over all their nodes in blocks of
    ``_MOMENT_BLOCK`` degrees; each block of s is one product of the rule's strided columns with w."""
    out = [np.empty(deg + 1) for deg in degrees]
    edges = np.cumsum([0] + [x.size for x, _ in rules]).tolist()
    nodes = np.concatenate([x for x, _ in rules] or [np.empty(0)])
    for lo, rows in hermite._hermite_blocks(max(degrees, default=0), nodes, _MOMENT_BLOCK):
        for a, b, (_, w), s in zip(edges, edges[1:], rules, out):
            if lo < s.size:
                s[lo : lo + len(rows)] = rows[: s.size - lo, a:b] @ w
    return out
