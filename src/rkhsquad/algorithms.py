"""Constructive algorithm families with cost-aware planning.

Univariate Gauss-Hermite rules, full tensor rules with an accuracy-driven
per-coordinate level choice, Smolyak sparse-grid combinations, the
anchored decomposition of functions of many variables, and multivariate
decomposition methods (MDMs) built from all of the above.

The tensor level choice: with zeta_j = ln(1 + 1/(2 sigma_j^2)) and
n_j = ceil(ln(d/eps) / zeta_j), the construction guarantees
sum_j exp(-n_j zeta_j) <= eps, the bound that drives the accuracy of the
product rule in the normalized sense.

The MDM approximates the integral of f as f(0) plus, for a finite family
of active coordinate sets u, a Smolyak estimate of the integral of the
anchored component

    f_u(x) = sum_{v subset u} (-1)^(|u|-|v|) f(x_v, 0),

flattened into a single quadrature rule over anchored points.  A plan is
its sets, their levels and its cost; the flattened rule is built on demand.
Set selection and per-set levels follow a deterministic greedy scheme
scored by the product surrogate prod_{j in u} beta_j: each set u enters
at level 2|u|, and the candidate upgrade with the best predicted error
decrease per unit cost is granted until the budget is exhausted or the
next level would need more than 256 Gauss-Hermite points.
"""

from __future__ import annotations

import heapq
import re
from dataclasses import dataclass
from functools import lru_cache, reduce
from math import ceil, exp, expm1, inf, isfinite, log, log1p, nextafter, prod, sqrt

import numpy as np

from .errors import (
    BudgetError,
    DomainError,
    NumericalConsistencyError,
    ShapeMismatchError,
    _frozen,
    _is_int,
    _json_input,
)
from . import hermite
from .hermite import gauss_hermite_rule
from .kernels import (
    GAUSSIAN,
    HERMITE,
    INTEGRATION,
    KernelSpec,
    check_sigma,
    initial_error,
    matched_parameters,
)
from .transference import (
    TransferConstants,
    _axis_twins,
    beta_from_sigma,
    transfer_quadrature_to_gaussian,
)
from .worst_case import (CostModel, QuadratureRule, _hermite_moments, _moment_cut,
                         _row_keys, _rule_amplitude, _spectral_errors)

TENSOR_BUDGET = 10**6


# ---------------------------------------------------------------------------
# univariate building blocks


def gh_rule_on_space(n: int, spec: KernelSpec) -> QuadratureRule:
    """The n-point Gauss-Hermite rule packaged for a univariate space."""
    if spec.dimension != 1:
        raise ShapeMismatchError("gh_rule_on_space expects a univariate kernel")
    rule = gauss_hermite_rule(n)
    return QuadratureRule(rule.nodes[:, None], rule.weights)


def _integration_beta(spec: KernelSpec) -> float:
    """Base parameter of the univariate Hermite space carrying the integration problem."""
    if spec.is_gaussian:
        return beta_from_sigma(INTEGRATION, spec.params[0])
    return spec.params[0]


def gh_error_on_space(n: int, spec: KernelSpec):
    """Worst-case integration error of the n-point Gauss-Hermite rule.

    Computed through the eigen-expansion on the Hermite side, which stays
    accurate far below the cancellation floor of the Gram identity; the
    Gaussian case goes through the exact transference identity (twin rule
    error times the Gaussian initial error).  Returns ``(value, tail)``, the
    tail bounding the series past its :func:`worst_case._moment_cut`.
    """
    return _gh_errors_on_space([n], spec)[0]


def _gh_errors_on_space(ns, spec: KernelSpec):
    """:func:`gh_error_on_space` for every n in ``ns``, from one Hermite
    recurrence over the nodes of all rules (:func:`worst_case._spectral_errors`)."""
    if spec.dimension != 1:
        raise ShapeMismatchError("gh_error_on_space expects a univariate kernel")
    rules = [(rule.nodes, rule.weights) for rule in map(gauss_hermite_rule, ns)]
    prefactor = 1.0  # the initial error of a Hermite space
    if spec.is_gaussian:
        constants = TransferConstants.integration(spec.params)
        rules, prefactor = _axis_twins(constants, 0, rules), constants.gauss_prefactor
    spectral = _spectral_errors(rules, _integration_beta(spec))
    return [(prefactor * value, prefactor * tail) for value, tail in spectral]


def integration_error_lower_bound(spec: KernelSpec, n: int) -> float:
    """Universal lower bound on the n-th minimal integration error.

    Hermite space: (1/2) (beta/2)^(2n) (n+1)^(-2).  Gaussian space: the
    same bound at the matched base parameter, scaled by the Gaussian
    initial error.
    """
    if spec.dimension != 1:
        raise ShapeMismatchError("univariate bound")
    beta = _integration_beta(spec)
    return initial_error(spec, INTEGRATION) * 0.5 * (beta / 2.0) ** (2 * n) * (n + 1) ** -2


# ---------------------------------------------------------------------------
# tensor rules


def tensor_rule(factors) -> QuadratureRule:
    """Full product grid of univariate rules; weights multiply."""
    factors = list(factors)
    if not factors:
        raise ShapeMismatchError("need at least one factor")
    size = prod(f.n for f in factors)
    if size > TENSOR_BUDGET:
        raise BudgetError(f"tensor grid of {size} nodes exceeds the budget {TENSOR_BUDGET}")
    return QuadratureRule(*_frozen(*_product_grid([f.nodes for f in factors], [f.weights for f in factors])))


def _product_grid(node_lists, weight_lists):
    """Rows of the product grid of per-coordinate node lists, in lexicographic
    position order, and the products of their weights, each filled in an array of its own."""
    shape = tuple(map(len, node_lists))
    nodes = np.empty((prod(shape), len(shape)), dtype=node_lists[0].dtype)
    grid = nodes.reshape(shape + (len(shape),))
    for j, column in enumerate(np.ix_(*node_lists)):
        grid[..., j] = column
    weights = np.empty(nodes.shape[0])
    np.multiply.outer(reduce(np.multiply.outer, weight_lists[:-1], 1.0), weight_lists[-1], out=weights.reshape(shape))
    return nodes, weights


def level_choice_for_eps(eps: float, sigma) -> np.ndarray:
    """Sizes n_j = ceil(ln(d/eps)/zeta_j) with zeta_j = ln(1 + 1/(2 sigma_j^2))."""
    if not 0.0 < eps < 1.0:
        raise DomainError("eps must lie strictly inside (0, 1)")
    sigma = check_sigma(sigma)
    d = sigma.size
    zeta = np.log1p(1.0 / (2.0 * sigma * sigma))
    return np.array([max(1, ceil(log(d / eps) / z)) for z in zeta], dtype=int)


def tensor_rule_for_eps(eps: float, sigma, space: str = GAUSSIAN) -> QuadratureRule:
    """Tensor Gauss-Hermite rule sized for target accuracy eps.

    The constructed sizes guarantee sum_j exp(-n_j zeta_j) <= eps.  The
    base product rule is natural on the Hermite space matched to sigma;
    for ``space="gaussian"`` it is mapped through the integration
    transference (cost preserved, error scaled by the initial error).
    """
    if space not in (GAUSSIAN, HERMITE):
        raise DomainError(f"unknown space {space!r}")
    ns = level_choice_for_eps(eps, sigma)
    size = prod(int(n) for n in ns)
    if size > TENSOR_BUDGET:
        worst = int(np.argmax(ns))
        raise BudgetError(
            f"tensor grid of {size} nodes exceeds {TENSOR_BUDGET}; "
            f"largest factor n_{worst + 1} = {ns[worst]}"
        )
    rule = tensor_rule([gauss_hermite_rule(int(n)) for n in ns])
    return transfer_quadrature_to_gaussian(rule, sigma) if space == GAUSSIAN else rule


# ---------------------------------------------------------------------------
# Smolyak combinations


@dataclass(frozen=True)
class SmolyakLevels:
    """Strictly increasing univariate size schedule plus a combination level."""

    schedule: tuple
    level: int

    def __post_init__(self):
        schedule = tuple(self.schedule)
        if not (all(_is_int(m, floats=True) for m in schedule) and _is_int(self.level)):
            raise DomainError(f"schedule sizes and level must be integers, got {schedule} and {self.level!r}")
        schedule = tuple(map(int, schedule))
        if not schedule or schedule[0] < 1:
            raise DomainError("schedule must start at a positive size")
        if any(b <= a for a, b in zip(schedule, schedule[1:])):
            raise DomainError("schedule must be strictly increasing")
        if self.level < 1:
            raise DomainError("level must be positive")
        if self.level > len(schedule):
            raise DomainError("level exceeds the schedule length")
        object.__setattr__(self, "schedule", schedule)

    @classmethod
    def unit(cls, level: int) -> "SmolyakLevels":
        """The one-extra-point-per-level schedule m_i = i."""
        return cls(tuple(range(1, level + 1)), level)


@lru_cache(maxsize=None)
def _difference_rule(prev: int, m: int):
    """The difference rule B_m - B_prev of Gauss-Hermite rules (B_0 = 0).

    Returns read-only ``(nodes, weights)``: the nodes of B_m in their
    order, then those of B_prev that B_m lacks.  Equal nodes merge exactly
    and exactly cancelled weights are dropped.
    """
    entries = {}
    for n, sign in ((m, 1.0), (prev, -1.0)):
        if n:
            rule = gauss_hermite_rule(n)
            for x, w in zip(rule.nodes.tolist(), rule.weights.tolist()):
                entries[x] = entries.get(x, 0.0) + sign * w
    nodes = np.array([x for x, w in entries.items() if w != 0.0])
    weights = np.array([w for w in entries.values() if w != 0.0])
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def _level_vectors(size: int, level: int, lowest: int = 2):
    """Level vectors k with every k_j >= lowest and |k|_1 <= level, yielded in
    lexicographic order as the caller reaches them, none built ahead.

    ``lowest=1`` gives the Smolyak combination.  ``lowest=2`` gives the
    anchored component: with the unit schedule Delta_1 = B_1 = delta_0,
    whose anchored part vanishes, while every Delta_k with k >= 2 has
    weight sum zero and is left unchanged by anchoring.
    """
    if size == 0:
        yield ()
        return
    for k in range(lowest, level - lowest * (size - 1) + 1):
        for rest in _level_vectors(size - 1, level - k, lowest):
            yield (k,) + rest


def _term_batches(rules, ranks, vectors):
    """The tensor terms of the level vectors as ``(rows, weights)``, in batches of at most ``TENSOR_BUDGET`` rows."""
    batch, stacked = [], 0
    for ks in vectors:
        size = prod(rules[k - 1][1].size for k in ks)
        if size > TENSOR_BUDGET:
            raise BudgetError(f"a tensor term of {size} rows exceeds the budget {TENSOR_BUDGET}")
        if stacked + size > TENSOR_BUDGET:
            yield batch
            batch, stacked = [], 0
        batch.append(_product_grid([ranks[k - 1] for k in ks], [rules[k - 1][1] for k in ks]))
        stacked += size
    yield batch


def _merged_terms(size: int, schedule, level: int, lowest: int):
    """Sum of the tensor terms (x)_j Delta_{k_j} over :func:`_level_vectors`, merged exactly.

    Returns ``(keys, weights)``: the distinct local node rows in
    lexicographic order and their non-zero merged weights (both read-only).
    Rows are coded by the ranks of their node values among the nodes of the
    :func:`_difference_rule` factors and keyed by :func:`worst_case._row_keys`,
    so they merge on exact node equality.  Each batch merges into the rows merged so far,
    stacked first: a weight is the left-to-right sum of one merge of all terms (a dropped
    exact 0 adds nothing).  ``BudgetError`` is raised once merged rows pass ``TENSOR_BUDGET``.
    """
    top = level - lowest * (size - 1)  # the largest k a level vector can hold
    schedule = tuple(schedule[: max(top, 0)])  # top < 1: no level vector, no rules
    rules = [_difference_rule(prev, m) for prev, m in zip((0,) + schedule, schedule)]
    values = np.unique(np.concatenate([np.zeros(0)] + [nodes for nodes, _ in rules]))
    ranks = [np.searchsorted(values, nodes) for nodes, _ in rules]
    codes, merged = np.zeros((0, size), dtype=np.intp), np.zeros(0)  # the rows merged so far
    for batch in _term_batches(rules, ranks, _level_vectors(size, level, lowest)):
        stack = np.vstack([codes] + [rows for rows, _ in batch])
        _, first, where = np.unique(_row_keys(stack, (values.size,) * size), return_index=True, return_inverse=True)
        merged = np.bincount(where, weights=np.concatenate([merged] + [w for _, w in batch]))
        keep = merged != 0.0
        codes, merged = stack[first[keep]], merged[keep]
        if merged.size > TENSOR_BUDGET:
            raise BudgetError(f"the merged tensor terms hold {merged.size} nodes, beyond {TENSOR_BUDGET}")
    keys = values[codes]
    keys.flags.writeable = merged.flags.writeable = False
    return keys, merged


# Smolyak combinations in local coordinates, (keys, weights) by (|u|, schedule,
# level): identical for every coordinate set of one size.
_LOCAL_SMOLYAK_CACHE: dict = {}


def smolyak_rule(u, levels: SmolyakLevels, dim: int | None = None) -> QuadratureRule:
    """Sparse-grid rule over the coordinates in u, flattened and merged.

    Standard combination: the sum over multi-indices i >= 1 with
    |i|_1 <= level of tensor products of univariate difference rules.
    Duplicate nodes merge exactly (:func:`_merged_terms`) and exactly
    cancelled weights are dropped.  The returned rule lives in
    ``dim`` ambient coordinates (default max(u) + 1) with inactive
    coordinates pinned at zero.
    """
    u = tuple(u)
    if not all(_is_int(j, floats=True) for j in u):
        raise DomainError(f"coordinate indices must be integers, got {u}")
    u = tuple(sorted(map(int, u)))
    if len(u) == 0 or len(set(u)) != len(u) or u[0] < 0:
        raise DomainError("u must be a non-empty set of distinct coordinate indices")
    q = levels.level
    if q < len(u):
        raise DomainError(f"level {q} below |u| = {len(u)}")
    dim = u[-1] + 1 if dim is None else dim
    if not _is_int(dim):
        raise DomainError(f"dim must be an integer, got {dim!r}")
    if dim <= u[-1]:
        raise ShapeMismatchError("ambient dimension too small for u")
    key = (len(u), levels.schedule, q)
    if key not in _LOCAL_SMOLYAK_CACHE:
        _LOCAL_SMOLYAK_CACHE[key] = _merged_terms(*key, lowest=1)
    keys, weights = _LOCAL_SMOLYAK_CACHE[key]
    nodes = np.zeros((keys.shape[0], dim))
    nodes[:, list(u)] = keys
    return QuadratureRule(*_frozen(nodes), weights)


# ---------------------------------------------------------------------------
# anchored decomposition


def _component_rows(size: int, level: int) -> int:
    """Rows the tensor terms of :func:`_component_local` stack before their merge,
    the sum over its level vectors of prod_j |Delta_{k_j}|, counted without building
    a term: coordinate by coordinate, rows[l] = sum_k |Delta_k| rows'[l - k]."""
    top = level - 2 * (size - 1)
    sizes = np.array([0, 0] + [_difference_rule(k - 1, k)[1].size for k in range(2, top + 1)], dtype=object)
    rows = np.ones(1, dtype=object)  # Python integers, which do not overflow
    for _ in range(size):
        rows = np.convolve(rows, sizes)[: level + 1]
    return int(rows.sum())


def _check_component_rows(size: int, level: int) -> None:
    rows = _component_rows(size, level)
    if rows > TENSOR_BUDGET:
        raise BudgetError(
            f"the component of {size} coordinates at level {level} stacks {rows} rows, beyond {TENSOR_BUDGET}"
        )


_LOCAL_COMPONENT_CACHE: dict = {}


def _component_local(size: int, level: int):
    """Anchored-flattened Smolyak component in local coordinates, cached.

    The tensor terms with every k_j >= 2 on the unit schedule, as
    ``(keys, weights)``.  Identical for every coordinate set of one size,
    so the greedy planner shares it across all pooled candidates.  A
    component whose terms stack more than ``TENSOR_BUDGET`` rows raises
    ``BudgetError`` before any is built.
    """
    key = (size, level)
    if key not in _LOCAL_COMPONENT_CACHE:
        _check_component_rows(size, level)
        _LOCAL_COMPONENT_CACHE[key] = _merged_terms(size, tuple(range(1, level + 1)), level, lowest=2)
    return _LOCAL_COMPONENT_CACHE[key]


# ---------------------------------------------------------------------------
# parameter generators for infinitely many coordinates


@dataclass(frozen=True)
class ParamRule:
    """Coordinate-parameter generator from the restricted grammar.

    ``power``: value(j) = j^(-a); ``geometric``: value(j) = a^j with
    0 < a < 1.  Tail sums of integer powers of the values carry closed or
    integral-comparison upper bounds, used for rigorous truncation
    control.
    """

    kind: str
    a: float

    def __post_init__(self):
        if self.kind not in ("power", "geometric"):
            raise DomainError(f"unknown rule kind {self.kind!r}")
        if self.kind == "power" and not 0.0 < self.a < inf:
            raise DomainError(f"power exponent must be positive and finite, got {self.a}")
        if self.kind == "geometric" and not 0.0 < self.a < 1.0:
            raise DomainError("geometric ratio must lie strictly inside (0, 1)")

    @classmethod
    def parse(cls, text: str) -> "ParamRule":
        text = text.strip()
        m = re.fullmatch(r"j\^(-?\d+(?:\.\d+)?)", text)
        if m:
            p = float(m.group(1))
            if p >= 0:
                raise DomainError("power rule must decay: use j^-p with p > 0")
            return cls("power", -p)
        m = re.fullmatch(r"(\d*\.?\d+(?:e-?\d+)?)\^j", text)
        if m:
            return cls("geometric", float(m.group(1)))
        raise DomainError(f"cannot parse rule {text!r}; expected 'j^-p' or 'r^j'")

    def value(self, j: int) -> float:
        if j < 1:
            raise DomainError("coordinate index is 1-based")
        if self.kind == "power":
            return float(j) ** -self.a
        return self.a**j

    def values(self, d: int) -> np.ndarray:
        return np.array([self.value(j) for j in range(1, d + 1)])

    def tail_power_sum(self, start: int, power: float) -> float:
        """Rigorous upper bound for sum_{j >= start} value(j)^power."""
        if start < 1:
            raise DomainError("start is 1-based")
        if self.kind == "geometric":
            r = self.a**power
            return r**start / (1.0 - r)
        q = self.a * power
        if q <= 1.0:
            raise DomainError(f"tail sum diverges: power-rule exponent {q} <= 1")
        return float(start) ** -q + float(start) ** (1.0 - q) / (q - 1.0)


@dataclass(frozen=True)
class KernelGenerator:
    """Infinite-variate tensor kernel described by a parameter rule.

    ``gaussian``: sigma_j from the rule.  ``hermite``: beta_j from a
    geometric rule (a power rule gives beta_1 = 1).  ``hermite_twin``: the
    Hermite space matched to a Gaussian sigma rule through the integration
    correspondence, on which worst-case errors equal the normalized errors
    of the transferred Gaussian algorithms.  A Gaussian generator is
    measured through its twins on the Hermite space of its ``score_betas``.
    """

    family: str
    rule: ParamRule

    def __post_init__(self):
        if self.family not in (GAUSSIAN, HERMITE, "hermite_twin"):
            raise DomainError(f"unknown generator family {self.family!r}")
        if self.family == HERMITE:
            if self.rule.kind == "power":
                raise DomainError("a power rule gives beta_1 = 1: a Hermite generator needs 'r^j'")
        elif self.rule.kind == "power" and 2 * self.rule.a <= 1:
            raise DomainError("sigma_j^2 must be summable: need p > 1/2 in j^-p")

    @classmethod
    def gaussian(cls, rule: ParamRule) -> "KernelGenerator":
        return cls(GAUSSIAN, rule)

    @classmethod
    def hermite(cls, rule: ParamRule) -> "KernelGenerator":
        return cls(HERMITE, rule)

    @classmethod
    def hermite_twin_of_gaussian(cls, rule: ParamRule) -> "KernelGenerator":
        return cls("hermite_twin", rule)

    def params(self, d: int) -> np.ndarray:
        """sigma_j of a Gaussian generator, else :meth:`score_betas`."""
        return self.rule.values(d) if self.family == GAUSSIAN else self.score_betas(d)

    def score_betas(self, d: int) -> np.ndarray:
        """Base parameters of coordinates 1..d: of the greedy score and of the space :func:`mdm_wce` uses."""
        if self.family == HERMITE:
            return self.rule.values(d)
        sigma = self.rule.values(d)  # integration twins of the sigma_j
        # far out a geometric rule underflows to sigma_j = 0, whose twin is beta_j = 0
        beta = np.zeros(d)
        live = sigma > 0.0
        beta[live] = matched_parameters(INTEGRATION, sigma[live])[0]
        return beta

    def param_tail_sq_bound(self, start: int) -> float:
        """Upper bound for the tail sum of squared base parameters from ``start`` on."""
        if self.family == HERMITE:
            return self.rule.tail_power_sum(start, 2.0)
        # beta_j <= 2 sigma_j^2, hence beta_j^2 <= 4 sigma_j^4
        return 4.0 * self.rule.tail_power_sum(start, 4.0)


# ---------------------------------------------------------------------------
# multivariate decomposition methods


@dataclass(frozen=True)
class MdmPlan:
    """A finite family of active sets with their Smolyak levels and the plan's cost.

    The sets and ``levels`` determine the rest: ``budgets`` counts the
    function evaluations of each per-set sub-rule after anchored
    flattening, ``flattened`` is the whole rule, built on each access, and
    :func:`mdm_wce` evaluates the plan from its levels.
    """

    active_sets: tuple
    levels: tuple
    cost: float

    def __post_init__(self):
        if not isfinite(self.cost):
            raise DomainError(f"plan cost {self.cost} is not finite")
        sets = self.active_sets
        if len(self.levels) != len(sets) or not all(_is_int(q) and q >= 0 for q in self.levels):
            raise DomainError(f"need one non-negative int level per active set, got {self.levels}")
        for u in sets:
            if not (u and all(_is_int(c) and c >= 0 for c in u) and list(u) == sorted(set(u))):
                raise DomainError(f"active set {u} is not a strictly increasing set of coordinates")
        if any(b <= a for a, b in zip(sets, sets[1:])):
            raise DomainError("active sets must be strictly increasing, without duplicates")
        for u, q in zip(sets, self.levels):
            if q < 2 * len(u):  # every factor Delta_k of a component term has k >= 2
                raise DomainError(f"the component of {u} at level {q} is empty")
            if (len(u), q) not in _LOCAL_COMPONENT_CACHE:  # a built component has passed the check
                _check_component_rows(len(u), q)

    @property
    def budgets(self) -> tuple:
        return tuple(_component_local(len(u), q)[1].size for u, q in zip(self.active_sets, self.levels))

    @property
    def flattened(self) -> QuadratureRule:
        return _flatten_components(self.active_sets, self.levels)

    def to_json(self) -> dict:
        return {"active_sets": [list(u) for u in self.active_sets], "levels": list(self.levels),
                "cost": self.cost}

    @classmethod
    def from_json(cls, obj) -> "MdmPlan":
        """Load a plan from its sets, levels and cost.

        A file in the older format, which also stored ``budgets`` or
        ``flattened``, raises ``DomainError``: rebuild the plan.
        """
        with _json_input(obj, "plan") as obj:
            if "budgets" in obj or "flattened" in obj:
                raise DomainError("plan is in the older format with budgets and a flattened rule; rebuild it")
            return cls(tuple(tuple(u) for u in obj["active_sets"]), tuple(obj["levels"]), float(obj["cost"]))


def _flat_weights(sets, levels) -> np.ndarray:
    """Weights of the flattened rule: the anchor evaluation f(0), into which
    every component's anchor row folds, then each set's other rows."""
    blocks = [(keys.any(axis=1), w) for keys, w in map(_component_local, map(len, sets), levels)]
    anchor = 1.0 + sum(float(w[~live].sum()) for live, w in blocks)
    return np.concatenate([[anchor]] + [w[live] for live, w in blocks])


def _flatten_components(sets, levels) -> QuadratureRule:
    """The dense flattened rule of an MDM plan, rows in :func:`_flat_weights` order,
    refused before its node matrix is allocated when it has more than ``TENSOR_BUDGET`` rows."""
    weights = _flat_weights(sets, levels)
    if weights.size > TENSOR_BUDGET:
        raise BudgetError(f"the flattened MDM rule holds {weights.size} nodes, beyond {TENSOR_BUDGET}")
    nodes = np.zeros((weights.size, max((u[-1] + 1 for u in sets), default=1)))
    row = 1  # row 0 is the anchor
    for u, (keys, _) in zip(sets, map(_component_local, map(len, sets), levels)):
        live = keys[keys.any(axis=1)]
        nodes[row : row + len(live), list(u)] = live
        row += len(live)
    return QuadratureRule(*_frozen(nodes, weights))


def _component_counts(size: int, level: int) -> np.ndarray:
    """Active coordinates of each row of :func:`_component_local` (0 on its anchor row)."""
    return np.count_nonzero(_component_local(size, level)[0], axis=1)


def assemble_mdm_plan(active_levels, model: CostModel) -> MdmPlan:
    """Build an MDM plan from explicit per-set Smolyak levels.

    ``active_levels`` maps coordinate sets (0-based tuples) to combination
    levels.  Sets whose component cancels entirely are dropped.  The cost
    is :func:`worst_case.rule_cost` of the flattened rule, summed over its
    rows in their order without building it.
    """
    if not all(_is_int(q, floats=True) and all(_is_int(j, floats=True) for j in u) for u, q in active_levels.items()):
        raise DomainError("active sets and their levels must hold integers")
    pairs = sorted((tuple(sorted(int(j) for j in u)), int(q)) for u, q in active_levels.items())
    if any(a[0] == b[0] for a, b in zip(pairs, pairs[1:])):
        raise DomainError("duplicate active sets")
    pairs = [(u, q) for u, q in pairs if q >= 2 * len(u)]
    live = (a[a > 0] for a in (_component_counts(len(u), q) for u, q in pairs))
    cost = model.charge_rows(np.concatenate([[0], *live]))  # the anchor row, then the others
    return MdmPlan(tuple(u for u, _ in pairs), tuple(q for _, q in pairs), cost)


def _subset_pool(betas, max_coord: int, pool_size: int):
    """Non-empty subsets of {0..max_coord-1} by decreasing product score.

    Children of a sorted tuple u = (.., last): append last+1, or shift
    last up by one; every subset is reached exactly once from (0,).  The
    pool stops at the first zero score (an underflowed beta_j = 0): every
    later subset scores 0 too and predicts no error decrease.
    """
    heap = [(-betas[0], (0,))]
    out = []
    while heap and len(out) < pool_size:
        neg, u = heapq.heappop(heap)
        if neg == 0.0:
            break
        out.append((u, -neg))
        last = u[-1]
        if last + 1 < max_coord:
            heapq.heappush(heap, (neg * betas[last + 1], u + (last + 1,)))
            heapq.heappush(heap, (neg / betas[last] * betas[last + 1], u[:-1] + (last + 1,)))
    return out


@lru_cache(maxsize=None)
def _candidate_pool(gen: KernelGenerator, max_coord: int, pool_size: int):
    """The :func:`_subset_pool` of the score betas of coordinates 1..max_coord as a
    tuple of ``(u, score, beta_u)``, beta_u = max_{c in u} beta_c: one build per
    generator and pool shape, shared by every budget."""
    betas = gen.score_betas(max_coord).tolist()
    return tuple((u, score, max(betas[c] for c in u)) for u, score in _subset_pool(betas, max_coord, pool_size))


def mdm_build(
    gen: KernelGenerator,
    budget: float,
    model: CostModel,
    *,
    max_coord: int = 512,
    pool_size: int = 2048,
) -> MdmPlan:
    """Greedy cost-aware MDM plan within an evaluation-cost budget.

    Candidate sets are the ``pool_size`` best product-surrogate scores
    over coordinates below ``max_coord``; a set u enters at level 2|u|,
    its first with a tensor term.  Each greedy step grants one more level
    to the candidate with the best predicted error decrease per unit of
    exact flattened cost.  A candidate is dropped for good once its next
    level no longer fits the remaining budget (costs only grow) or needs a
    rule beyond ``hermite.MAX_RULE_SIZE`` points.  Sets larger than the
    dollar table's last activity are never candidates.
    Ties prefer the lexicographically smaller set.  The anchor evaluation
    is always included and charged dollar(0).  ``BudgetError`` is raised when a
    costed candidate component's terms stack more than ``TENSOR_BUDGET`` rows.
    """
    if not isfinite(budget):
        raise DomainError(f"budget {budget} is not finite")
    for name, value, floats in (("max_coord", max_coord, False), ("pool_size", pool_size, True)):
        if not _is_int(value, floats):
            raise DomainError(f"{name} must be an integer, got {value!r}")
        if value < 1:
            raise DomainError(f"{name} must be at least 1, got {value}")
    anchor_cost = model.charge_rows([0])
    if budget < anchor_cost:
        raise BudgetError(f"budget {budget} below the anchor evaluation cost {anchor_cost}")
    pool = _candidate_pool(gen, max_coord, pool_size)

    @lru_cache(maxsize=None)
    def comp(size: int, q: int) -> float:
        # the cost of the anchored component, which depends on |u| only
        return model.charge_rows(_component_counts(size, q))

    remaining = budget - anchor_cost
    chosen: dict[tuple, int] = {}
    options = []

    def push(u, q, score, beta_u):
        # level q of u: the step from q - 1, unless its top rule is past the largest one
        if q - 2 * (len(u) - 1) > hermite.MAX_RULE_SIZE:
            return
        dcost, dpe = comp(len(u), q) - comp(len(u), q - 1), score * beta_u ** (q - 1 - len(u)) * (1.0 - beta_u)
        # a free upgrade (odd rules reuse the anchor node) is always worth taking
        ratio = inf if dcost <= 0 else dpe / dcost
        heapq.heappush(options, (-ratio, u, q, dcost, score, beta_u))

    for u, score, beta_u in pool:
        if model.mode == "unit" or len(u) < len(model.table):  # u's nodes have activity <= |u|
            push(u, 2 * len(u), score, beta_u)

    while options:
        _, u, q, dcost, score, beta_u = heapq.heappop(options)
        if dcost > remaining:
            continue
        remaining -= dcost
        chosen[u] = q
        push(u, q + 1, score, beta_u)

    plan = assemble_mdm_plan(chosen, model)
    if plan.cost > budget:
        raise NumericalConsistencyError(f"assembled cost {plan.cost} exceeds budget {budget}")
    return plan


# -- exact worst-case error of the flattened rule on the infinite-variate space
#
# The Gram identity runs on the Hermite side over the plan's tensor terms,
# grouped by support.  A row holds, for each coordinate of its group's
# support, the index k - 1 of the factor Delta_k on that coordinate; tables
# are Delta_k^T K_c Delta_l / K_c(0, 0) and Delta_k^T 1.  Index 0 stands for
# Delta_1 = delta_0, the anchor value x_c = 0, where both tables are 1, so
# only active coordinates enter a product.  By Mehler's series the tables are
# sqrt(1 - beta_c^2) S diag(beta_c^nu) S^T and S[:, 0], row k - 1 of S the Hermite
# moments of Delta_k, cut by worst_case._moment_cut, whose bound on the dropped
# entries enters the tail.  A Gaussian generator's Delta_k become their twins:
# nodes e_c x and weights damped by phi(x) / phi(0).
#
# Both forms walk a DAG of the terms over the coordinates in increasing order, the
# sharing of a reduced ordered decision diagram (Bryant, 1986).  A node is a sum
# of anchored components C(s, r), a suffix s of a plan set with remaining level r:
# C(s, r) = sum_{k=2}^{r - 2(|s| - 1)} Delta_k (x) C(s[1:], r - k), and C((), r) = 1.
# At its lead coordinate c, the smallest first coordinate of its components, a
# node is sum_i Delta_{i+1} (x) child_i; components that start later are anchored
# at c and go to child_0.  Equal sums are one node, so ||Q||^2 = <root, root> with
# <A, B> = sum_{i,j} T_c[i, j] <A_i, B_j> at the smaller lead coordinate c, memoized
# on node pairs.  A pair with the constant node is the same walk over column 0 of
# the tables, and the linear form over the vectors, one value per node.  Twin
# j^-1.5 at dollar 1..24: the 1,184 terms at budget 31,623 form 382 nodes and
# 1,824 pairs of non-constant nodes, against 7.0e5 term pairs, and the 2,700
# terms at 1e5 form 816 nodes and 5,593 pairs, against 3.6e6.


def _term_rows(plan: MdmPlan):
    """Tensor-term rows of a plan, the anchor and then per set the level
    vectors of its component, and each coordinate's largest level top[c]."""
    rows = [((), np.zeros((1, 0), dtype=np.intp), np.ones(1))]
    top = {}
    for u, q in zip(plan.active_sets, plan.levels):
        ks = np.array(list(_level_vectors(len(u), q)), dtype=np.intp).reshape(-1, len(u))
        rows.append((u, ks - 1, np.ones(ks.shape[0])))
        for c, k in zip(u, ks.max(axis=0).tolist()):
            top[c] = max(top.get(c, 1), k)
    return rows, top


def _tables(rules, spans, betas):
    """Per-coordinate quadratic and linear tables and the largest cut of a quadratic entry,
    for the coordinates c of ``spans`` whose Delta_1..Delta_t are rules[a : a + t],
    (a, t) = spans[c], from one Hermite recurrence over all the rules."""
    amp = [_rule_amplitude(x, w) for x, w in rules]
    cut, degrees = 0.0, {}
    for c, (a, t) in spans.items():
        b = float(betas[c])
        degrees[c], c_cut = _moment_cut(sqrt(1.0 - b * b) * max(amp[a : a + t]) ** 2 / (1.0 - b), b)
        cut = max(cut, c_cut)
    table = np.array(_hermite_moments(rules, [max(degrees.values(), default=0)] * len(rules)))
    quad, lin = {}, {}
    for c, (a, t) in spans.items():
        s, b = table[a : a + t, : degrees[c] + 1], float(betas[c])
        quad[c], lin[c] = sqrt(1.0 - b * b) * (s * b ** np.arange(degrees[c] + 1.0)) @ s.T, s[:, 0]
    return quad, lin, cut


def _term_dag(groups):
    """The DAG of the tensor terms of :func:`_term_rows` (every weight 1).

    Returns ``(lead, kids, root)``: each node's lead coordinate and its
    non-zero children ``(i, child)`` there, in increasing i, and the root's
    node.  Node 0 is the constant 1, the anchor group.  The rows of a set u
    are the level vectors of its component, so its level is |u| plus their
    largest sum of indices k - 1.  A node is keyed by whether it holds the
    constant and by its other components in sorted order, so the components
    that start at the lead coordinate come first and the rest is child 0.
    """
    parts = sorted((tuple(supp), len(supp) + int(rows.sum(axis=1).max())) for supp, rows, _ in groups if len(supp))
    ids, todo, lead, kids = {(True, ()): 0}, [], [inf], [()]

    def node(key):
        if key not in ids:
            ids[key] = len(lead)
            lead.append(key[1][0][0][0])
            kids.append(None)
            todo.append(key)
        return ids[key]

    root = node((len(parts) < len(groups), tuple(parts)))
    while todo:
        key = todo.pop()
        one, parts = key
        c, m = parts[0][0][0], 1
        while m < len(parts) and parts[m][0][0] == c:
            m += 1
        children = [(0, node((one, parts[m:])))] if one or m < len(parts) else []
        tails = {}  # the components under Delta_{i+1} at c, by i
        for s, r in parts[:m]:
            for k in range(2, r - 2 * (len(s) - 1) + 1):
                tails.setdefault(k - 1, []).append((s[1:], r - k))
        for i in sorted(tails):
            later = sorted(t for t in tails[i] if t[0])
            children.append((i, node((len(later) < len(tails[i]), tuple(later)))))
        kids[ids[key]] = tuple(children)
    return lead, kids, root


def _pair_schedule(lead, kids, root):
    """The node pairs ``(a, b)``, a <= b, that ``<root, root>`` reaches over the
    DAG of :func:`_term_dag`, by the smaller lead coordinate of the pair.  Pairs
    with the constant node 0 are left out.  A pair's children have larger leads,
    so evaluating the coordinates in decreasing order meets every child first.
    """
    if root == 0:
        return {}
    n, c = len(lead), lead[root]
    below = [tuple(x for _, x in kid if x) for kid in kids]  # the non-constant children
    found, seen, coords = {c: [(root, root)]}, {root * n + root}, [c]
    while coords:
        c = heapq.heappop(coords)
        new = []
        for a, b in found[c]:
            for x in below[a] if lead[a] == c else (a,):
                for y in below[b] if lead[b] == c else (b,):
                    key = x * n + y if x <= y else y * n + x
                    if key not in seen:
                        seen.add(key)
                        new.append(key)
        for key in new:
            a, b = divmod(key, n)
            d = min(lead[a], lead[b])
            if d not in found:
                found[d] = []
                heapq.heappush(coords, d)
            found[d].append((a, b))
    return found


def _pairwise_quadratic(groups, tables, vectors):
    """The quadratic and linear forms of the tensor terms of ``groups``:
    sum over term pairs of prod_c tables[c][i_c, j_c], and sum over terms of
    prod_c vectors[c][i_c], by one walk over their :func:`_term_dag`.
    """
    lead, kids, root = _term_dag(groups)
    quad, lin = {}, {}  # each coordinate's table and vector as lists, exactly 1 at the anchor
    for c in tables:
        quad[c], lin[c] = tables[c].tolist(), vectors[c].tolist()
        quad[c][0][0] = lin[c][0] = 1.0
    line, column = [1.0] * len(lead), [1.0] * len(lead)  # <A, 1> by the vectors and by column 0
    for a in sorted(range(1, len(lead)), key=lead.__getitem__, reverse=True):
        v, t, line_a, column_a = lin[lead[a]], quad[lead[a]], 0.0, 0.0
        for i, x in kids[a]:
            line_a += v[i] * line[x]
            column_a += t[i][0] * column[x]
        line[a], column[a] = line_a, column_a
    gram = [{0: value} for value in column]
    gram[0].update(enumerate(column))
    schedule = _pair_schedule(lead, kids, root)
    for c in sorted(schedule, reverse=True):
        t = quad[c]
        for a, b in schedule[c]:
            total = 0.0
            for i, x in kids[a] if lead[a] == c else ((0, a),):
                row, gram_x = t[i], gram[x]
                for j, y in kids[b] if lead[b] == c else ((0, b),):
                    total += row[j] * gram_x[y]
            gram[a][b] = gram[b][a] = total
    return gram[root][root], line[root]


def mdm_wce(plan: MdmPlan, gen: KernelGenerator, trunc: int = 2048):
    """Worst-case integration error of the flattened rule, with tail control.

    The value uses exact prefix products over the first ``trunc``
    coordinates; the effect of all later coordinates (where every node
    sits at the anchor) is bounded rigorously from the generator's tail
    sums, and so is the degree cut of the per-coordinate moment tables.
    Both forms of the Gram identity walk a DAG of the tensor terms of the
    plan's per-set levels, memoized on pairs of shared sub-sums
    (:func:`_pairwise_quadratic`).  At budget 31,623 (twin j^-1.5, dollar
    1..24) the 1,184 terms form 382 DAG nodes and 1,824 node pairs, and at
    1e5 the 2,700 terms form 816 nodes and 5,593 pairs, so the cost grows
    with neither the square of the node count nor that of the term count.
    A Gaussian generator's error is its initial error times that
    of the twin rule, E = prod_c e_c times the twins of the tensor terms,
    on the Hermite space of its ``score_betas``.  Returns ``(value, tail_bound)``.
    """
    if not _is_int(trunc):
        raise DomainError(f"trunc must be an integer, got {trunc!r}")
    dim = max((u[-1] + 1 for u in plan.active_sets), default=1)
    if dim > trunc:
        raise ShapeMismatchError(f"plan touches coordinate {dim - 1}, beyond trunc = {trunc}")
    groups, top = _term_rows(plan)
    betas = gen.score_betas(trunc)
    rules = [_difference_rule(k - 1, k) for k in range(1, max(top.values(), default=0) + 1)]
    spans = {c: (0, t) for c, t in top.items()}  # each coordinate's Delta_1..Delta_top, a prefix of rules
    twin, prefactor = 1.0, 1.0  # E and the Gaussian initial error
    if gen.family == GAUSSIAN:
        sigma = gen.params(trunc)
        constants = TransferConstants.integration(sigma[sigma > 0.0])  # e_c = 1 where sigma_j underflows
        if max(top, default=-1) >= constants.dimension:
            raise DomainError(f"the shape parameter of plan coordinate {max(top)} underflows to 0")
        twin, prefactor = float(np.prod(constants.e)), constants.gauss_prefactor
        twins = []
        for c, t in top.items():  # divided by e_c, the twin weight of Delta_1 = delta_0; e_c goes into E
            e_c = float(constants.e[c])
            spans[c] = (len(twins), t)
            twins += [(y, v / e_c) for y, v in _axis_twins(constants, c, rules[:t])]
        rules = twins
    quad_tables, lin_tables, cut = _tables(rules, spans, betas)
    quad, lin = _pairwise_quadratic(groups, quad_tables, lin_tables)
    lin *= twin

    g0 = exp(-0.5 * float(np.sum(np.log1p(-betas * betas))))
    e2 = 1.0 - 2.0 * lin + g0 * twin * twin * quad
    if gen.family == GAUSSIAN:
        # with II the Gaussian initial error squared, II g0 E^2 = 1 holds past
        # trunc too: the tail scales II by at least exp(-2 s) and II E lin by exp(-s)
        s_tail = gen.rule.tail_power_sum(trunc + 1, 2.0)
        delta = -expm1(-2.0 * s_tail) + 2.0 * -expm1(-s_tail) * abs(lin)
    else:
        s_tail = gen.param_tail_sq_bound(trunc + 1)
        beta_next = betas[-1]  # rules are non-increasing in j
        try:
            delta = expm1(s_tail / (2.0 * (1.0 - beta_next * beta_next))) * abs(g0 * quad)
        except OverflowError:
            raise NumericalConsistencyError(
                f"tail bound of the coordinates past trunc = {trunc} overflows"
                f" (squared-parameter tail sum {s_tail:.3e}, beta = {beta_next:.6g})"
            ) from None
    # each of n^2 products of at most 2 width entries, each within cut of one of size at most big
    n, width = sum(w.size for _, _, w in groups), max(len(supp) for supp, _, _ in groups)
    big = max([1.0] + [float(np.abs(t).max()) for t in quad_tables.values()])
    delta += g0 * twin * twin * n * n * big ** (2 * width) * expm1(2 * width * log1p(cut / big))

    scale = max(1.0, (twin * float(np.abs(_flat_weights(plan.active_sets, plan.levels)).sum())) ** 2)
    if e2 < -1e-10 * scale:
        raise NumericalConsistencyError(f"squared error {e2:.3e} badly negative")
    e2 = max(e2, 0.0)
    value = sqrt(e2)
    # sqrt(e2 + delta) - value and value - sqrt(e2 - delta) as quotients, which
    # a positive delta never rounds to 0, and the larger rounded up by one unit
    upper = delta / (sqrt(e2 + delta) + value) if delta > 0.0 else 0.0
    lower = value if delta >= e2 else delta / (value + sqrt(e2 - delta))
    tail = prefactor * max(upper, lower)
    return prefactor * value, nextafter(tail, inf) if tail > 0.0 else 0.0
