"""Worst-case errors, optimal weights, spectral systems, cost accounting."""

import itertools
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from rkhsquad import errors, hermite, worst_case
from rkhsquad.algorithms import _difference_rule
from rkhsquad.errors import (
    ConditioningError,
    DomainError,
    NumericalConsistencyError,
    ShapeMismatchError,
)
from rkhsquad.hermite import QuadratureRule1D, gauss_hermite_rule, hermite_table
from rkhsquad.kernels import (
    APPROXIMATION,
    CRAMER_CONSTANT,
    KernelSpec,
    double_integral,
    gaussian_kernel,
    hermite_kernel,
    initial_error,
)
from rkhsquad.transference import (
    TransferConstants,
    beta_from_sigma,
    spectral_pair,
    transfer_quadrature_to_hermite,
    transfer_sampling_to_hermite,
)
from rkhsquad.worst_case import (
    CostModel,
    MultiIndexSet,
    QuadratureRule,
    SamplingMethod,
    SpectralSystem,
    _moment_cut,
    _row_keys,
    _solve_spd,
    _spectral_errors,
    embedding_vector,
    kernel_gram,
    optimal_weights,
    rule_cost,
    spline_method,
    tensor_optimal_wce,
    tensor_wce_integration,
    wce_approximation,
    wce_integration,
)

HERM_HALF = KernelSpec.hermite((0.5,))
GAUSS_ONE = KernelSpec.gaussian((1.0,))


class TestQuadratureRule:
    def test_json_round_trip(self):
        rule = QuadratureRule(np.array([[0.0, 1.0], [2.0, -1.0]]), np.array([0.25, 0.75]))
        again = QuadratureRule.from_json(rule.to_json())
        assert np.array_equal(again.nodes, rule.nodes)
        assert np.array_equal(again.weights, rule.weights)

    def test_shape_validation(self):
        with pytest.raises(ShapeMismatchError):
            QuadratureRule(np.zeros((2, 1)), np.ones(3))

    @pytest.mark.parametrize("nodes, weights", [
        ([[np.nan], [1.0]], [0.5, 0.5]),
        ([[0.0], [-np.inf]], [0.5, 0.5]),
        ([[0.0], [1.0]], [np.inf, 0.5]),
        ([[0.0], [1.0]], [0.5, np.nan]),
    ])
    def test_non_finite_entries_rejected(self, nodes, weights):
        # wce_integration would otherwise return nan without complaint
        with pytest.raises(DomainError):
            QuadratureRule(np.array(nodes), np.array(weights))
        with pytest.raises(DomainError):
            QuadratureRule.from_json({"nodes": nodes, "weights": weights})


def _read_only(values, dtype=float):
    array = np.array(values, dtype=dtype)
    array.flags.writeable = False
    return array


# each value type with a valid pair of array fields: (constructor, names, values)
_ADOPTERS = {
    "QuadratureRule": (QuadratureRule, ("nodes", "weights"), ([[0.0, 1.0], [2.0, -1.0]], [0.25, 0.75])),
    "QuadratureRule1D": (QuadratureRule1D, ("nodes", "weights"), ([-1.0, 1.0], [0.5, 0.5])),
    "SamplingMethod": (
        lambda nodes, coeff: SamplingMethod(nodes, coeff, MultiIndexSet.box(1, 2)),
        ("nodes", "coeff_table"),
        ([[0.0], [1.0]], [[0.5, 0.0, 0.25], [0.0, 1.0, 0.0]]),
    ),
}


class TestArrayAdoption:
    """A read-only float64 array that owns its data is kept; any other array is copied."""

    @pytest.mark.parametrize("name", sorted(_ADOPTERS))
    def test_frozen_owning_arrays_are_shared(self, name):
        make, fields, values = _ADOPTERS[name]
        arrays = [_read_only(v) for v in values]
        held = make(*arrays)
        for field, array in zip(fields, arrays):
            assert np.shares_memory(getattr(held, field), array)
            assert not getattr(held, field).flags.writeable

    @pytest.mark.parametrize("kind", ["writable", "read-only-view", "float32", "list"])
    @pytest.mark.parametrize("name", sorted(_ADOPTERS))
    def test_other_arrays_are_copied(self, name, kind):
        make, fields, values = _ADOPTERS[name]
        if kind == "writable":
            arrays = [np.array(v) for v in values]
        elif kind == "read-only-view":
            arrays = [np.array(v)[...] for v in values]
            for array in arrays:
                array.flags.writeable = False
        elif kind == "float32":
            arrays = [_read_only(v, np.float32) for v in values]
        else:
            arrays = [list(v) for v in values]
        held = make(*arrays)
        for field, array, v in zip(fields, arrays, values):
            got = getattr(held, field)
            assert got.dtype == np.float64 and not got.flags.writeable
            assert np.array_equal(got, np.array(v, dtype=float).reshape(got.shape))
            if isinstance(array, np.ndarray):
                assert not np.shares_memory(got, array)
        if kind == "writable":
            assert all(array.flags.writeable for array in arrays)

    def test_empty_arrays_pass_the_finiteness_check(self):
        # a node matrix without columns is finite; a rule without nodes is refused by its shape
        assert QuadratureRule(_read_only(np.zeros((2, 0))), np.array([0.5, 0.5])).dimension == 0
        with pytest.raises(ShapeMismatchError):
            QuadratureRule(np.zeros((0, 1)), np.zeros(0))


class TestMultiIndexSet:
    def test_box(self):
        box = MultiIndexSet.box(2, 1)
        assert box.indices == ((0, 0), (0, 1), (1, 0), (1, 1))
        assert box.dimension == 2 and box.size == 4

    def test_downward_closure_enforced(self):
        with pytest.raises(DomainError):
            MultiIndexSet(((0, 0), (1, 1)))
        with pytest.raises(DomainError, match=r"\(1, 1\) without \(0, 1\)"):
            MultiIndexSet(((0, 0), (1, 0), (1, 1)))
        MultiIndexSet(((0, 0), (0, 1), (1, 0), (1, 1)))  # fine

    @pytest.mark.parametrize("dimension, degree", [
        (1, 2.5),
        (1, np.nan),
        (1, np.inf),
        (1, -np.inf),
        (1, -1),
        (2, (1, 2.5)),
        (2, (np.nan, 1)),
        (2, (1, np.inf)),
        (2, (-1, 2)),
        (1, np.array(2.5)),
        (1, np.array(np.nan)),
    ])
    def test_box_degree_validated(self, dimension, degree):
        # box(1, 2.5) used to give {0..3} and box(1, nan) a bare ValueError
        with pytest.raises(DomainError):
            MultiIndexSet.box(dimension, degree)

    @pytest.mark.parametrize("degree", [np.array(3), np.int64(3)])
    def test_box_zero_dim_degree_is_scalar(self, degree):
        # a 0-d array used to raise a bare TypeError from list(degree)
        assert MultiIndexSet.box(2, degree).indices == MultiIndexSet.box(2, 3).indices

    def test_full_box_outside_mask(self):
        # a full box marks its outside successors without a search; the mask is
        # the one a set of tuples gives
        rows = MultiIndexSet.box(4, 6).array()
        shuffled = MultiIndexSet(rows[np.random.default_rng(6).permutation(rows.shape[0])])
        for got in (MultiIndexSet.box(1, 0), MultiIndexSet.box(3, (2, 0, 5)), shuffled):
            members = set(got.indices)
            for j in range(got.dimension):
                want = [nu[:j] + (nu[j] + 1,) + nu[j + 1 :] not in members for nu in got.indices]
                assert got._outside[j].tolist() == want

    def test_complement_minimal(self):
        box = MultiIndexSet.box(1, 3)
        assert box.complement_minimal() == ((4,),)
        tri = MultiIndexSet(((0, 0), (1, 0), (0, 1)))
        assert tri.complement_minimal() == ((0, 2), (1, 1), (2, 0))


class _TupleIndexSet:
    """Test-local oracle: the tuple-backed index set the array class replaced."""

    def __init__(self, indices):
        idx = tuple(sorted(tuple(int(v) for v in nu) for nu in indices))
        if not idx:
            raise DomainError("index set must be non-empty")
        d = len(idx[0])
        members = set(idx)
        if len(members) != len(idx):
            raise DomainError("duplicate multi-indices")
        for nu in idx:
            if len(nu) != d:
                raise ShapeMismatchError("multi-indices of mixed dimension")
            if any(v < 0 for v in nu):
                raise DomainError("multi-indices must be non-negative")
            for j in range(d):
                if nu[j] > 0:
                    pred = nu[:j] + (nu[j] - 1,) + nu[j + 1 :]
                    if pred not in members:
                        raise DomainError(
                            f"index set is not downward closed: {nu} without {pred}"
                        )
        self.indices = idx
        self.members = members

    def complement_minimal(self):
        out = set()
        d = len(self.indices[0])
        for nu in self.indices:
            for j in range(d):
                cand = nu[:j] + (nu[j] + 1,) + nu[j + 1 :]
                if cand in self.members or cand in out:
                    continue
                if all(
                    cand[k] == 0 or cand[:k] + (cand[k] - 1,) + cand[k + 1 :] in self.members
                    for k in range(d)
                ):
                    out.add(cand)
        return tuple(sorted(out))


def _random_lower_set(rng, d, corners, top):
    """Union of the boxes below a few random corner points, shuffled."""
    rows = set()
    for _ in range(corners):
        corner = rng.integers(0, top + 1, size=d)
        rows.update(itertools.product(*[range(int(c) + 1) for c in corner]))
    rows = sorted(rows)
    return [rows[i] for i in rng.permutation(len(rows))]


def _outcome(cls, rows):
    try:
        return cls(rows)
    except (DomainError, ShapeMismatchError) as exc:
        return exc


class TestMultiIndexSetAgainstTuples:
    """The array-backed set against the tuple-backed oracle, seeded fuzz."""

    def _assert_same(self, rows, rng):
        want, got = _outcome(_TupleIndexSet, rows), _outcome(MultiIndexSet, rows)
        if isinstance(want, Exception):
            assert type(got) is type(want), (rows, want, got)
            if "downward closed" in str(want):
                assert str(got) == str(want)
            return
        assert not isinstance(got, Exception), (rows, got)
        assert got.indices == want.indices
        assert got.size == len(want.indices) and got.dimension == len(rows[0])
        assert got.complement_minimal() == want.complement_minimal()
        d = got.dimension
        probes = [tuple(rng.integers(-1, 5, size=d)) for _ in range(40)]
        probes += list(want.indices[:5]) + list(want.complement_minimal()[:5])
        for nu in probes:
            assert (nu in got) == (nu in want.members), nu
        assert got == MultiIndexSet(np.array(rows)) and hash(got) == hash(MultiIndexSet(want.indices))

    @pytest.mark.parametrize("d", range(1, 7))
    def test_random_lower_sets(self, d):
        rng = np.random.default_rng(100 + d)
        for _ in range(25):
            rows = _random_lower_set(rng, d, int(rng.integers(1, 5)), 7 - d)
            self._assert_same(rows, rng)
            pick = int(rng.integers(len(rows)))
            self._assert_same(rows + [rows[pick]], rng)  # duplicate
            negative = list(rows[pick])
            negative[int(rng.integers(d))] = -1
            self._assert_same(rows[:pick] + [tuple(negative)] + rows[pick + 1 :], rng)
            self._assert_same(rows + [(0,) * (d + 1)], rng)  # ragged
            if d > 1:
                self._assert_same(rows + [(0,) * (d - 1)], rng)
            # dropping a row leaves a lower set or a set that is not closed
            self._assert_same(rows[:pick] + rows[pick + 1 :] or rows, rng)

    @pytest.mark.parametrize("rows", [
        ((0,), (1.5,), (2.9,)),
        ((0, 0), (0, 1), (-1.5, 0)),
        ((0, 0), (0, 1), (np.nan, 0)),
        ((0, 0), (0, 1), (np.inf, 0)),
        ((0, 0), (0, 1), (1e300, 0)),
    ])
    def test_non_integral_entries_rejected(self, rows):
        # the tuple class truncated 1.5 to 1 and raised a bare ValueError on NaN
        with pytest.raises(DomainError):
            MultiIndexSet(rows)
        with pytest.raises(DomainError):
            SamplingMethod.from_json(
                {"nodes": [[0.0] * len(rows[0])], "index_set": rows, "coeffs": [[1.0, 0.0, 0.0]]}
            )

    def test_byte_row_keys_in_high_dimension(self):
        # radix >= 2 per coordinate, so 70 coordinates overflow int64 keys
        rng = np.random.default_rng(70)
        d = 70
        rows = set()
        for _ in range(6):
            corner = np.zeros(d, dtype=int)
            corner[rng.choice(d, size=4, replace=False)] = rng.integers(1, 3, size=4)
            rows.update(itertools.product(*[range(c + 1) for c in corner]))
        rows = [tuple(r) for r in rng.permutation(sorted(rows)).tolist()]
        got = MultiIndexSet(rows)
        radix = tuple(int(v) + 2 for v in got.array().max(axis=0))
        assert _row_keys(got.array(), radix).dtype.kind == "V"
        self._assert_same(rows, rng)
        self._assert_same(rows + [rows[3]], rng)
        self._assert_same(rows[1:], rng)
        # the largest eigenvalue outside, brute force over the direct successors
        beta = np.linspace(0.2, 0.9, d)
        members = set(got.indices)
        brute = max(
            math.prod(float(b) ** v for b, v in zip(beta, nu)) * float(beta[j])
            for nu in members
            for j in range(d)
            if nu[:j] + (nu[j] + 1,) + nu[j + 1 :] not in members
        )
        system = SpectralSystem(KernelSpec.hermite(tuple(beta)), got)
        assert system.max_tail_eigenvalue() == pytest.approx(brute, rel=1e-13)

    def test_array_is_stored_read_only(self):
        box = MultiIndexSet.box(3, 2)
        assert box.array() is box.array()
        assert box.array().dtype == np.int64 and not box.array().flags.writeable
        assert box.array().tolist() == [list(nu) for nu in box.indices]

    @pytest.mark.parametrize("shuffled", [False, True], ids=["sorted", "shuffled"])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_caller_array_is_not_aliased(self, order, shuffled):
        # sorted input is kept in its row order, so the one copy is all that
        # separates the set from the caller's buffer
        rows = _random_lower_set(np.random.default_rng(9), 3, 3, 4)
        raw = np.array(rows if shuffled else sorted(rows), dtype=np.int64, order=order)
        got = MultiIndexSet(raw)
        indices, digest, twin = got.indices, hash(got), MultiIndexSet(raw.copy())
        raw += 1
        raw[0] = (5, 0, 0)
        assert got.indices == indices and hash(got) == digest and got == twin
        assert all(nu in got for nu in indices) and (5, 0, 0) not in got
        assert not np.shares_memory(got.array(), raw) and not got.array().flags.writeable
        with pytest.raises(ValueError):
            got.array()[0, 0] = 1


class TestCostModel:
    def test_unit_mode(self):
        rule = QuadratureRule(np.zeros((3, 2)), np.ones(3))
        assert rule_cost(rule, CostModel.unit()) == 3.0

    def test_dollar_activity(self):
        model = CostModel.dollar([1.0, 2.0, 3.0, 4.0])
        rule = QuadratureRule(np.array([[0.0, 2.5, 0.0]]), np.array([1.0]))
        assert rule_cost(rule, model) == 2.0

    def test_dollar_powers(self):
        model = CostModel.dollar([1.0, 2.0, 4.0])
        rule = QuadratureRule(np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 0.0]]), np.ones(2))
        assert rule_cost(rule, model) == 5.0

    def test_cost_additivity(self):
        rng = np.random.default_rng(0)
        a = QuadratureRule(rng.normal(size=(3, 2)), rng.normal(size=3))
        b = QuadratureRule(rng.normal(size=(4, 2)), rng.normal(size=4))
        model = CostModel.dollar([1.0, 3.0, 9.0])
        both = QuadratureRule(np.vstack([a.nodes, b.nodes]), np.concatenate([a.weights, b.weights]))
        assert rule_cost(both, model) == rule_cost(a, model) + rule_cost(b, model)

    def test_table_validation(self):
        with pytest.raises(DomainError):
            CostModel.dollar([0.5, 1.0])
        with pytest.raises(DomainError):
            CostModel.dollar([2.0, 1.0])
        with pytest.raises(DomainError):
            CostModel.dollar([math.nan, 2.0])
        with pytest.raises(DomainError):
            CostModel.dollar([1.0, math.inf])
        assert CostModel.dollar([1.0, 2.0, 3.0]).table == (1.0, 2.0, 3.0)

    def test_table_range(self):
        model = CostModel.dollar([1.0, 2.0])
        with pytest.raises(DomainError):
            model.charge_rows([2])
        with pytest.raises(DomainError, match="queried 2"):
            model.charge_rows([0, 1, 2, 1])
        # a table lookup would wrap a negative activity around and truncate a fractional one
        for model in (CostModel.dollar([1.0, 2.0, 4.0]), CostModel.unit()):
            for active in (-1, -3, 1.7, math.nan):
                with pytest.raises(DomainError, match="non-negative integers"):
                    model.charge_rows([active])
            with pytest.raises(DomainError, match="non-negative integers"):
                model.charge_rows([0, -1])
            with pytest.raises(DomainError, match="non-negative integers"):
                model.charge_rows(np.array([0.0, 0.5]))
        assert CostModel.dollar([1.0, 2.0, 4.0]).charge_rows(np.array([0.0, 2.0])) == 5.0

    def test_charge_rows_is_the_row_order_sum(self):
        # plan costs are compared bit for bit, so the lookup keeps the
        # Python float sum of the per-row charges in row order
        model = CostModel.dollar([1.1, 1.7, 2.3, 3.1, 4.3])
        active = np.random.default_rng(3).integers(0, 5, size=1000)
        per_row = sum(model.table[a] for a in active.tolist())
        assert model.charge_rows(active).hex() == per_row.hex()
        assert model.charge_rows([]) == 0.0
        assert CostModel.unit().charge_rows(active) == 1000.0

    def test_json_round_trip(self):
        assert CostModel.from_json({"mode": "unit"}) == CostModel.unit()
        model = CostModel.dollar([1.0, 2.0, 4.0])
        assert CostModel.from_json(model.to_json()) == model
        assert model.to_json() == {"mode": "dollar", "table": [1.0, 2.0, 4.0]}

    @pytest.mark.parametrize(
        "blob",
        [{"mode": "foo"}, {}, {"mode": "dollar"}, {"mode": "dollar", "table": []}],
        ids=["unknown-mode", "no-mode", "dollar-without-table", "dollar-empty-table"],
    )
    def test_from_json_rejects_bad_models(self, blob):
        with pytest.raises(DomainError):
            CostModel.from_json(blob)


# one valid blob per JSON loader; malformed variants of each must raise DomainError
JSON_LOADERS = {
    "kernel": (KernelSpec, {"family": "hermite", "params": [0.5]}),
    "rule": (QuadratureRule, {"nodes": [[0.0]], "weights": [1.0]}),
    "sampling-method": (SamplingMethod, {"nodes": [[0.0]], "index_set": [[0]], "coeffs": [[1.0]]}),
    "cost-model": (CostModel, {"mode": "dollar", "table": [1.0, 2.0]}),
}


@pytest.mark.parametrize("loader", sorted(JSON_LOADERS))
@pytest.mark.parametrize("text", ["5", "[]", "null", '"text"', "{", '{"nodes": 5, "params": 5, "table": 5}'])
def test_json_loaders_reject_malformed_input(loader, text):
    cls, good = JSON_LOADERS[loader]
    cls.from_json(json.dumps(good))
    with pytest.raises(DomainError):
        cls.from_json(text)
    if text != "{":
        with pytest.raises(DomainError):
            cls.from_json(json.loads(text))


@pytest.mark.parametrize("loader", sorted(JSON_LOADERS))
def test_json_loaders_reject_missing_keys(loader):
    cls, good = JSON_LOADERS[loader]
    for key in good:
        with pytest.raises(DomainError):
            cls.from_json({k: v for k, v in good.items() if k != key})


@pytest.mark.parametrize("loader, blob", [
    (QuadratureRule, {"nodes": [[0.0], [1.0]], "weights": [1.0]}),
    (SamplingMethod, {"nodes": [[0.0]], "index_set": [[0], [1]], "coeffs": [[1.0]]}),
    (SamplingMethod, {"nodes": [[0.0]], "index_set": [[0], [0, 1]], "coeffs": [[1.0, 0.0]]}),
])
def test_json_loaders_keep_constructor_errors(loader, blob):
    with pytest.raises(ShapeMismatchError):
        loader.from_json(blob)


def _product_gram(spec, nodes):
    """Test-local oracle: the Gram matrix as the product of d univariate kernel
    matrices, as kernel_gram computed it before the block evaluator."""
    kernel = gaussian_kernel if spec.is_gaussian else hermite_kernel
    gram = np.ones((nodes.shape[0], nodes.shape[0]))
    for j, param in enumerate(spec.params):
        gram *= kernel(param, nodes[:, j, None], nodes[None, :, j])
    return gram


def _random_spec(rng, family, d):
    if family == "gaussian":
        return KernelSpec.gaussian(tuple(np.exp(rng.uniform(-1.5, 0.5, size=d))))
    return KernelSpec.hermite(tuple(rng.uniform(0.05, 0.95, size=d)))


def _reference_gram_rows(spec, nodes):
    """Test-local oracle: the per-coordinate block evaluator, each kernel
    exponent in its own form, with a fresh array for every exponent, part
    and block."""

    def gaussian(sigma, x, y):
        d = x - y
        return -(sigma * sigma) * d * d

    def mehler(beta, x, y):
        b2 = beta * beta
        return -(b2 * (x * x + y * y) - 2.0 * beta * (x * y)) / (2.0 * (1.0 - b2))

    exponent = gaussian if spec.is_gaussian else mehler
    scale = 1.0 if spec.is_gaussian else math.prod(math.sqrt(1.0 - b * b) for b in spec.params)
    n = nodes.shape[0]
    step = max(1, worst_case._GRAM_BLOCK_ENTRIES // n)
    for lo in range(0, n, step):
        rows = slice(lo, lo + step)
        total = None
        for j, param in enumerate(spec.params):
            col = nodes[:, j]
            part = exponent(param, col[rows, None], col[None, :])
            total = part if total is None else np.add(total, part, out=total)
        block = np.exp(total, out=total)
        if not spec.is_gaussian:
            block /= scale
        yield rows, block


def _reference_wce2(rule, spec):
    """Test-local: e^2 as wce_integration sums it, over the blocks of the
    reference evaluator."""
    w, quad = rule.weights, 0.0
    for rows, block in _reference_gram_rows(spec, rule.nodes):
        lo, hi = rows.start, min(rows.stop, rule.n)
        wi = w[lo:hi]
        quad += 2.0 * float(block[:, :lo] @ w[:lo] @ wi) + float(wi @ block[:, lo:hi] @ wi)
    return double_integral(spec) - 2.0 * float(w @ embedding_vector(spec, rule.nodes)) + quad


def _long_double_gram(spec, nodes):
    """Test-local oracle: the Gram matrix from the per-coordinate kernel forms
    in long double."""
    ld = np.longdouble
    x = nodes.astype(ld)
    total = np.zeros((x.shape[0], x.shape[0]), dtype=ld)
    for j, p in enumerate(spec.params):
        p, a, b = ld(p), x[:, j, None], x[None, :, j]
        if spec.is_gaussian:
            total -= p * p * (a - b) ** 2
        else:
            total += (2 * p * a * b - p * p * (a * a + b * b)) / (2 * (1 - p * p))
    gram = np.exp(total)
    if not spec.is_gaussian:
        gram /= np.prod([np.sqrt(1 - ld(p) ** 2) for p in spec.params])
    return gram


def _long_double_gaussian_e2(rule, spec):
    """Test-local oracle: e^2 of a rule on a Gaussian space in long double."""
    ld = np.longdouble
    w, x = rule.weights.astype(ld), rule.nodes.astype(ld)
    m, ii = np.ones(rule.n, dtype=ld), ld(1)
    for j, sigma in enumerate(spec.params):
        s2 = ld(sigma) ** 2
        m *= np.exp(-s2 * x[:, j] ** 2 / (1 + 2 * s2)) / np.sqrt(1 + 2 * s2)
        ii /= np.sqrt(1 + 4 * s2)
    return float(ii - 2 * (w @ m) + w @ _long_double_gram(spec, rule.nodes) @ w)


def _gamma(k):
    """Higham's gamma_k = k u / (1 - k u), u the unit round-off of float64."""
    u = 2.0**-53
    return k * u / (1.0 - k * u)


def _entry_bound(spec, nodes, want):
    """Test-local bound on |kernel_gram - want| for ``want`` from
    :func:`_reference_gram_rows`.

    With a^2 = sigma^2, c = 0 (Gaussian) or a^2 = beta / (2 (1-beta^2)),
    c = beta / (2 (1+beta)) (Hermite), the exponent is q_i + q_j -
    sum_k (z_ik - z_jk)^2, q_i = sum_k c_k x_ik^2 and z = a (x - mean x).  Let
    D_ij = sum_k (|z_ik| + |z_jk|)^2, H_ij the sum of the absolute Mehler
    terms beta^2 (x^2 + y^2) / (2 (1-beta^2)) and beta |x y| / (1-beta^2)
    (0 for the Gaussian) and b = floor((53 - ceil(log2 4d)) / 2).

    * The library rounds z by at most six roundings, which moves z_ik - z_jk
      by gamma_6 (|z_ik| + |z_jk|) and the distance by gamma_13 D.  Its exact
      part adds nothing; the rest has 2d + 2 products of entries below
      2^(1-b) max|z| and 3 max|z|, and the sums round: in all
      gamma_(3d+16) (D + q_i + q_j + 24 d 2^-b max|z|^2).
    * The reference rounds each coordinate term at most 8 times and their
      sum d - 1 times: gamma_(d+7) (D + H), as sigma^2 (x_i - x_j)^2 <= D.
    * exp and the Hermite scale add gamma_(4d+5) to each, and the quotient
      of the two entries three of those.

    All of it lies below eta = gamma_(16d+40) (1 + D + H + q_i + q_j +
    24 d 2^-b max|z|^2), so the entries differ by at most want (e^eta - 1),
    plus two subnormal units for values below the normal range.
    """
    n, d = nodes.shape
    p = np.array(spec.params)
    a2, c = (p * p, 0.0 * p) if spec.is_gaussian else (p / (2.0 * (1.0 - p * p)), p / (2.0 * (1.0 + p)))
    z = np.sqrt(a2) * np.abs(nodes - nodes.mean(axis=0))
    bits = (53 - math.ceil(math.log2(4 * d))) // 2
    mag = np.full((n, n), 1.0 + 24 * d * 2.0**-bits * float(z.max()) ** 2)
    for k in range(d):
        x = nodes[:, k]
        mag += np.add.outer(z[:, k], z[:, k]) ** 2
        mag += np.add.outer(c[k] * x * x, c[k] * x * x)
        if not spec.is_gaussian:
            mag += (a2[k] - c[k]) * np.add.outer(x * x, x * x) + 2.0 * a2[k] * np.abs(np.multiply.outer(x, x))
    return want * np.expm1(_gamma(16 * d + 40) * mag) + 2.0**-1073


class TestKernelGram:
    # 300 nodes span several row blocks
    @pytest.mark.parametrize("family", ["gaussian", "hermite"])
    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6])
    def test_matches_product_of_kernels(self, family, d):
        rng = np.random.default_rng(100 + d)
        spec = _random_spec(rng, family, d)
        for n in (1, 5, 300):
            nodes = rng.normal(0.0, 1.5, size=(n, d))
            want, got = _product_gram(spec, nodes), kernel_gram(spec, nodes)
            assert np.max(np.abs(got - want) / want) <= 1e-12

    @pytest.mark.parametrize("family", ["gaussian", "hermite"])
    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6])
    def test_in_place_blocks_equal_allocating_reference(self, family, d):
        # the Gram within the entry bound of the reference, for one block
        # (n = 1, 5), blocks of 109 rows with a shorter last one (300) and
        # 125 blocks of 16 rows (2000)
        rng = np.random.default_rng(200 + d)
        spec = _random_spec(rng, family, d)
        for n in (1, 5, 300, 2000):
            rule = QuadratureRule(rng.normal(0.0, 1.5, size=(n, d)), rng.normal(size=n) / n)
            want = np.empty((n, n))
            for rows, block in _reference_gram_rows(spec, rule.nodes):
                want[rows] = block
            bound = _entry_bound(spec, rule.nodes, want)
            assert np.all(np.abs(kernel_gram(spec, rule.nodes) - want) <= bound)
            got = wce_integration(rule, spec)
            # compare e^2 with an exactly rounded sum over the reference Gram,
            # within the summation bound of each term's depth (at most n + 2
            # roundings), two roundings of the oracle's own products and the
            # entry bound weighted by |w_i| |w_j|
            w, m, ii = rule.weights, embedding_vector(spec, rule.nodes), double_integral(spec)
            terms = w[:, None] * want * w[None, :]
            e2 = math.fsum(itertools.chain([ii], -2.0 * w * m, terms.ravel()))
            scale = ii + 2.0 * float(np.abs(w * m).sum()) + float(np.abs(terms).sum())
            tol = (_gamma(n + 2) + _gamma(2)) * scale + _gamma(3) * e2 + float(np.abs(w) @ bound @ np.abs(w))
            assert e2 > 0.0 and abs(got * got - e2) <= tol

    @pytest.mark.parametrize("family", ["gaussian", "hermite"])
    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6])
    def test_kernel_is_symmetric_bit_for_bit(self, family, d):
        # kernel_gram mirrors its strict lower triangle, and the diagonal has
        # the distance 0 outright; exact duplicate nodes and coordinates of
        # +0.0 and -0.0 included
        rng = np.random.default_rng(300 + d)
        spec = _random_spec(rng, family, d)
        for n in (1, 5, 181, 182, 300, 2000):
            nodes = rng.normal(0.0, 1.5, size=(n, d))
            nodes[rng.random((n, d)) < 0.2] = 0.0
            nodes[rng.random((n, d)) < 0.2] = -0.0
            dup = np.arange(n // 2, n, 7)
            nodes[dup] = nodes[dup - n // 2]
            gram = kernel_gram(spec, nodes)
            assert np.array_equal(gram, gram.T)
            if family == "gaussian":
                assert np.all(gram.diagonal() == 1.0)
            else:
                assert np.all(gram.diagonal() >= 1.0)

    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
    @pytest.mark.parametrize("d", range(1, 9))
    def test_exact_part_is_exact(self, d, scale):
        # 2 zh_i . zh_j - ph_i - ph_j = -||zh_i - zh_j||^2 in rational
        # arithmetic, from the whole product and from one row block of it;
        # the diagonal needs no product, which at 1e3 would miss 1.0
        rng = np.random.default_rng(400 + d)
        n = 300
        step = worst_case._GRAM_BLOCK_ENTRIES // n
        for family in ("gaussian", "hermite"):
            nodes = scale * rng.normal(size=(n, d))
            spec = _random_spec(rng, family, d)
            if family == "gaussian":
                assert np.all(kernel_gram(spec, nodes).diagonal() == 1.0)
            _, (left, right), _ = worst_case._exponent_factors(spec, nodes)
            zh = left[:, :d]
            whole, rows = left @ right.T, left[step : 2 * step] @ right[: 2 * step].T
            for i, j in rng.integers(0, n, size=(100, 2)):
                exact = -sum((Fraction(a) - Fraction(b)) ** 2 for a, b in zip(zh[i], zh[j]))
                assert Fraction(whole[i, j]) == exact
                i, j = step + i % step, j % (2 * step)
                exact = -sum((Fraction(a) - Fraction(b)) ** 2 for a, b in zip(zh[i], zh[j]))
                assert Fraction(rows[i - step, j]) == exact

    @pytest.mark.parametrize(
        "spec, centers, spread",
        [
            (KernelSpec.gaussian((1.0,) * 6), (0.0,), 1.0),
            (KernelSpec.gaussian((1.5,) * 4), (5.0,), 0.25),
            (KernelSpec.gaussian((1.5,) * 4), (5.0, -5.0), 0.25),
            (KernelSpec.hermite((0.9,) * 4), (0.0,), 1.0),
            (KernelSpec.hermite((0.9,) * 4), (3.0,), 0.25),
        ],
        ids=["gaussian-normal", "gaussian-cluster", "gaussian-two-clusters", "hermite-normal", "hermite-cluster"],
    )
    def test_entries_match_long_double(self, spec, centers, spread):
        # nodes alternate between the cluster centers; entries below the
        # normal range are measured against its smallest value
        rng = np.random.default_rng(500)
        n = 600
        nodes = np.resize(centers, n)[:, None] + spread * rng.standard_normal((n, spec.dimension))
        want = _long_double_gram(spec, nodes)
        error = np.abs(kernel_gram(spec, nodes) - want) / np.maximum(want, np.finfo(float).tiny)
        assert float(error.max()) <= 1e-13

    def test_two_cluster_e2_against_long_double(self):
        # optimal weights on two clusters at +-3 reach ||w||_1 of about 1,000,
        # where the rounding of w^T G w decides e^2; summed over six rules, the
        # error of wce_integration is at most twice that of the same sum over
        # the reference blocks
        spec = KernelSpec.gaussian((1.0,) * 3)
        ours = reference = 0.0
        for seed in range(6):
            rng = np.random.default_rng(600 + seed)
            nodes = np.resize([3.0, -3.0], 400)[:, None] + 0.5 * rng.standard_normal((400, 3))
            rule = optimal_weights(nodes, spec)
            assert np.abs(rule.weights).sum() > 500.0
            e2 = _long_double_gaussian_e2(rule, spec)
            ours += abs(wce_integration(rule, spec) ** 2 - e2)
            reference += abs(_reference_wce2(rule, spec) - e2)
        assert ours <= 2.0 * reference

    @pytest.mark.parametrize(
        "call",
        [
            lambda nodes: kernel_gram(KernelSpec.gaussian((1.0, 0.5)), nodes),
            lambda nodes: optimal_weights(nodes, KernelSpec.hermite((0.5, 0.3))),
            lambda nodes: spline_method(
                nodes, SpectralSystem(KernelSpec.gaussian((1.0, 0.5)), MultiIndexSet.box(2, 2))
            ),
        ],
        ids=["kernel_gram", "optimal_weights", "spline_method"],
    )
    def test_empty_nodes_raise(self, call):
        with pytest.raises(ShapeMismatchError, match="at least one node"):
            call(np.empty((0, 2)))


class TestWceIntegration:
    def test_zero_weights_hermite_initial(self):
        rule = QuadratureRule(np.array([[0.3], [1.0]]), np.zeros(2))
        for beta in (0.2, 0.5, 0.9):
            assert wce_integration(rule, KernelSpec.hermite((beta,))) == 1.0

    def test_gaussian_one_node_example(self):
        rule = QuadratureRule(np.array([[0.0]]), np.array([2.0**-0.5]))
        value = wce_integration(rule, KernelSpec.gaussian((math.sqrt(0.5),)))
        expected_sq = 3.0**-0.5 - 2.0 * 2.0**-0.5 * 2.0**-0.5 + 0.5
        assert value == pytest.approx(math.sqrt(expected_sq), rel=1e-12)

    def test_hermite_one_node_example(self):
        rule = QuadratureRule(np.array([[0.0]]), np.array([1.0]))
        value = wce_integration(rule, HERM_HALF)
        assert value == pytest.approx(math.sqrt(2.0 / math.sqrt(3.0) - 1.0), rel=1e-13)

    def test_zero_weight_padding(self):
        rng = np.random.default_rng(5)
        spec = KernelSpec.gaussian((1.0, 0.4))
        rule = QuadratureRule(rng.normal(size=(5, 2)), rng.normal(size=5))
        padded = QuadratureRule(
            np.vstack([rule.nodes, [[0.7, -0.3]]]), np.append(rule.weights, 0.0)
        )
        assert abs(wce_integration(rule, spec) - wce_integration(padded, spec)) <= 1e-13

    def test_dimension_mismatch(self):
        rule = QuadratureRule(np.zeros((1, 2)), np.ones(1))
        with pytest.raises(ShapeMismatchError):
            wce_integration(rule, GAUSS_ONE)

    @pytest.mark.parametrize("family", ["gaussian", "hermite"])
    @pytest.mark.parametrize("d, n", [(1, 40), (1, 700), (3, 500), (6, 260)])
    def test_blocked_sum_matches_dense_quadratic_form(self, family, d, n):
        rng = np.random.default_rng(7 * n + d)
        spec = _random_spec(rng, family, d)
        rule = QuadratureRule(rng.normal(size=(n, d)), rng.normal(size=n) / n)
        w = rule.weights
        e2 = (
            double_integral(spec)
            - 2.0 * float(w @ embedding_vector(spec, rule.nodes))
            + float(w @ _product_gram(spec, rule.nodes) @ w)
        )
        assert wce_integration(rule, spec) ** 2 == pytest.approx(e2, rel=1e-12, abs=1e-15)


class TestOptimalWeights:
    def test_hermite_single_node(self):
        rule = optimal_weights(np.array([[0.0]]), HERM_HALF)
        assert rule.weights[0] == pytest.approx(math.sqrt(3.0) / 2.0, rel=1e-14)
        err_sq = wce_integration(rule, HERM_HALF) ** 2
        assert err_sq == pytest.approx(1.0 - math.sqrt(3.0) / 2.0, rel=1e-12)

    def test_gaussian_single_node(self):
        rule = optimal_weights(np.array([[0.0]]), GAUSS_ONE)
        assert rule.weights[0] == pytest.approx(3.0**-0.5, rel=1e-14)
        err_sq = wce_integration(rule, GAUSS_ONE) ** 2
        assert err_sq == pytest.approx(5.0**-0.5 - 1.0 / 3.0, rel=1e-12)

    def test_duplicate_node_conditioning_error(self):
        with pytest.raises(ConditioningError) as err:
            optimal_weights(np.array([[0.5], [0.5]]), GAUSS_ONE)
        assert err.value.condition_estimate > 1e14

    @pytest.mark.parametrize("spec", [KernelSpec.gaussian((1.0,) * 6), KernelSpec.hermite((0.8,) * 6)])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_duplicate_node_among_500(self, spec, seed):
        # the Gram of the 500 distinct nodes has condition below 2e5; some seeds
        # fail in Cholesky (estimate inf), others pass it and fail the estimate
        nodes = np.random.default_rng(seed).standard_normal((500, 6))
        nodes[7] = nodes[123]
        with pytest.raises(ConditioningError) as err:
            optimal_weights(nodes, spec)
        assert err.value.condition_estimate > 1e14

    def test_optimality_over_random_weights(self):
        rng = np.random.default_rng(6)
        for _ in range(30):
            d = int(rng.integers(1, 3))
            n = int(rng.integers(1, 7))
            spec = KernelSpec.gaussian(tuple(np.exp(rng.uniform(-1.0, 0.5, size=d))))
            nodes = rng.normal(0.0, 1.3, size=(n, d))
            best = wce_integration(optimal_weights(nodes, spec), spec)
            other = QuadratureRule(nodes, rng.normal(size=n))
            assert best <= wce_integration(other, spec) + 1e-12

    def test_pythagoras(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            spec = KernelSpec.gaussian((float(np.exp(rng.uniform(-1, 0.5))),))
            nodes = rng.normal(0.0, 1.5, size=(int(rng.integers(1, 7)), 1))
            opt = optimal_weights(nodes, spec)
            m = embedding_vector(spec, nodes)
            lhs = wce_integration(opt, spec) ** 2 + float(opt.weights @ m)
            assert lhs == pytest.approx(double_integral(spec), rel=1e-9)


def _uniform(size):
    """The unit vector with equal entries, the start of the error norm's run."""
    return np.full(size, 1.0 / math.sqrt(size))


class TestSolveSpd:
    """The Cholesky-first solve against eigvalsh as the condition oracle."""

    @staticmethod
    def _system(n, family):
        rng = np.random.default_rng(n)
        if family.endswith("-d4"):
            # the benchmark's Gram regime: Gaussian sigma = 1, d = 4, standard
            # normal nodes (condition about 5e8), and its Hermite twin (about 1.3e13)
            nodes = rng.standard_normal((n, 4))
            constants = TransferConstants.integration((1.0,) * 4)
            spec = constants.gaussian_spec()
            if family == "hermite-d4":
                spec, nodes = constants.hermite_spec(), nodes * constants.e[None, :]
        elif family == "equispaced":
            # 1-D nodes 2 apart: condition 1.08, a clustered spectrum that stalls Lanczos
            spec, nodes = KernelSpec.gaussian((1.0,)), 2.0 * np.arange(n)[:, None]
        else:
            spec = KernelSpec.gaussian((1.0,) * 6) if family == "gaussian" else KernelSpec.hermite((0.8,) * 6)
            nodes = rng.standard_normal((n, 6))
        return kernel_gram(spec, nodes), embedding_vector(spec, nodes)

    @pytest.mark.parametrize(
        "n, family",
        [(n, f) for n in (401, 1000, 2000) for f in ("gaussian", "hermite")]
        + [(1500, "gaussian-d4"), (1500, "hermite-d4"), (700, "equispaced")],
    )
    def test_condition_estimate_matches_eigvalsh(self, n, family):
        gram, m = self._system(n, family)
        w, cond = _solve_spd(gram, m)
        eigs = np.linalg.eigvalsh(gram)
        assert cond == pytest.approx(eigs[-1] / eigs[0], rel=1e-6)
        assert np.allclose(gram @ w, m, rtol=0.0, atol=1e-8 * cond * np.abs(m).max())

    @pytest.mark.parametrize("n", [50, 300, 400])
    def test_dense_estimate_comes_from_the_factor(self, n):
        # up to _DENSE_LIMIT nodes the estimate is the eigvalsh ratio of L L^T,
        # the matrix the solve uses, read from the buffer the factor overwrote
        nodes = np.random.default_rng(n).standard_normal((n, 4))
        spec = KernelSpec.gaussian((1.0,) * 4)
        gram, m = kernel_gram(spec, nodes), embedding_vector(spec, nodes)
        buffer = np.asfortranarray(gram)
        _, cond = _solve_spd(buffer, m)
        lower = np.tril(buffer)
        eigs = np.linalg.eigvalsh(lower @ lower.T)
        assert cond == eigs[-1] / eigs[0]
        exact = np.linalg.eigvalsh(gram)
        assert cond == pytest.approx(exact[-1] / exact[0], rel=1e-6)

    def test_lanczos_no_convergence_falls_back_to_eigvalsh(self, monkeypatch):
        # a column-major Gram is overwritten by its factor, so the fallback reads L L^T
        gram, m = self._system(401, "gaussian")
        w_lanczos, _ = _solve_spd(gram, m)
        monkeypatch.setattr(worst_case, "_GRAM_LANCZOS_STEPS", 2)
        factor = scipy.linalg.cho_factor(gram, lower=True, check_finite=False)
        with pytest.raises(NumericalConsistencyError, match="Lanczos did not converge in 2 steps on an operator of size 401"):
            worst_case._lanczos_extremes(factor)
        buffer = np.asfortranarray(gram)
        w, cond = _solve_spd(buffer, m)
        lower = np.tril(factor[0])
        assert np.array_equal(np.tril(buffer), lower)
        eigs = np.linalg.eigvalsh(lower @ lower.T)
        assert cond == eigs[-1] / eigs[0]
        exact = np.linalg.eigvalsh(gram)
        assert cond == pytest.approx(exact[-1] / exact[0], rel=1e-6)
        assert np.array_equal(w, w_lanczos)

    # Equispaced nodes on a line: well-conditioned Toeplitz Grams whose clustered
    # spectra Lanczos resolves only after about n / 2 steps, so eigvalsh answers.
    @pytest.mark.parametrize("h, n", [(2.0, 700), (1.0, 2000)])  # condition 1.08 and 5.9
    def test_optimal_weights_on_an_equispaced_line(self, h, n):
        rule = optimal_weights(h * np.arange(n)[:, None], KernelSpec.gaussian((1.0,)))
        assert rule.n == n and np.isfinite(rule.weights).all()

    @staticmethod
    def _circle(radius):
        # evenly spaced nodes on a circle: a circulant Gram, whose rows have equal
        # sums, so the uniform vector is its top eigenvector
        t = 2.0 * np.pi * np.arange(500) / 500
        nodes = radius * np.column_stack([np.cos(t), np.sin(t)])
        spec = KernelSpec.gaussian((1.0, 1.0))
        return kernel_gram(spec, nodes), embedding_vector(spec, nodes)

    # at radius 60 the inverse run needs 86 steps, past the Gram cap, so eigvalsh answers
    @pytest.mark.parametrize("radius", [40.0, 60.0])
    def test_equal_row_sums_condition_estimate(self, radius):
        gram, m = self._circle(radius)
        eigs = np.linalg.eigvalsh(gram)
        _, cond = _solve_spd(gram.copy(), m)
        assert cond == pytest.approx(eigs[-1] / eigs[0], rel=1e-6)

    def test_uniform_start_on_an_eigenvector_stops_at_once(self):
        # why the inverse run needs another start: from the circle Gram's top
        # eigenvector Lanczos stops after one step, at that eigenvalue
        gram, _ = self._circle(40.0)
        steps = []

        def apply(x):
            steps.append(1)
            return gram @ x

        theta, _ = worst_case._lanczos_top(apply, _uniform(500), worst_case._LANCZOS_STEPS)
        assert len(steps) == 1
        assert theta == pytest.approx(gram.sum(axis=1).mean(), rel=1e-14)
        assert theta == pytest.approx(np.linalg.eigvalsh(gram)[-1], rel=1e-12)

    def test_lanczos_reads_only_the_lower_factor(self):
        # cho_factor leaves Gram entries above the diagonal; NaN there must reach
        # neither the triangular products nor the solves, in either memory order
        gram, _ = self._system(401, "hermite")
        factor = scipy.linalg.cho_factor(gram, lower=True, check_finite=False)
        want = worst_case._lanczos_extremes(factor)
        dirty = factor[0].copy()
        dirty[np.triu_indices(401, 1)] = np.nan
        for c in (np.asfortranarray(dirty), np.ascontiguousarray(dirty)):
            assert worst_case._lanczos_extremes((c, True)) == want

    @pytest.mark.parametrize("n", [300, 401])
    def test_in_place_solve_matches_the_mirrored_gram(self, n):
        # optimal_weights factors one column-major lower triangle in place; the
        # weights and the condition estimate are those of the full kernel_gram
        nodes = np.random.default_rng(n).standard_normal((n, 4))
        spec = KernelSpec.gaussian((1.0,) * 4)
        gram, m = kernel_gram(spec, nodes), embedding_vector(spec, nodes)
        want_w, want_cond = _solve_spd(gram, m)
        lower, _ = worst_case._lower_gram(spec, nodes)
        assert lower.flags.f_contiguous and np.array_equal(np.tril(lower), np.tril(gram))
        w, cond = _solve_spd(lower, m)
        assert cond == want_cond
        assert w.tobytes() == want_w.tobytes() == optimal_weights(nodes, spec).weights.tobytes()

    def test_optimal_weights_holds_one_gram(self):
        # a mirrored Gram plus LAPACK's column-major copy of it would peak at 2.03 n^2 doubles
        n = 1500
        nodes = np.random.default_rng(15).standard_normal((n, 4))
        spec = KernelSpec.gaussian((1.0,) * 4)
        tracemalloc.start()
        try:
            optimal_weights(nodes, spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * 8 * n * n


class TestSpectralSystem:
    def test_hermite_eigenvalue(self):
        sys_h = SpectralSystem(HERM_HALF, MultiIndexSet.box(1, 5))
        pos = sys_h.index_set.indices.index((3,))
        assert sys_h.eigenvalues[pos] == pytest.approx(0.125, rel=1e-15)

    def test_gaussian_ground_eigenvalue(self):
        sys_g = SpectralSystem(GAUSS_ONE, MultiIndexSet.box(1, 5))
        pos = sys_g.index_set.indices.index((0,))
        assert sys_g.eigenvalues[pos] == pytest.approx(0.5, rel=1e-15)

    def test_gaussian_degree_two_eigenvalue(self):
        sys_g = SpectralSystem(GAUSS_ONE, MultiIndexSet.box(1, 5))
        pos = sys_g.index_set.indices.index((2,))
        assert sys_g.eigenvalues[pos] == pytest.approx(0.125, rel=1e-15)

    def test_eigenfunctions_orthonormal(self):
        rule = gauss_hermite_rule(96)
        pts = rule.nodes[:, None]
        for spec in (HERM_HALF, GAUSS_ONE, KernelSpec.gaussian((0.4,))):
            system = SpectralSystem(spec, MultiIndexSet.box(1, 8))
            E = system.eigenfunction_matrix(pts)
            gram = (E * rule.weights[None, :]) @ E.T
            assert np.max(np.abs(gram - np.eye(9))) <= 1e-10

    def test_hermite_is_the_unit_scale_case(self):
        # c = 1: the Hermite eigenfunctions are the products of hermite_table rows, bit for bit
        system = SpectralSystem(KernelSpec.hermite((0.3, 0.8)), MultiIndexSet.box(2, 6))
        assert system.scale_c.tolist() == system.factor.tolist() == [1.0, 1.0]
        assert not any(a.flags.writeable for a in (system.eigenvalues, system.beta, system.scale_c, system.factor))
        nodes = np.random.default_rng(3).normal(scale=4.0, size=(40, 2))
        nodes[:3] = [[0.0, -0.0], [1e3, -1e3], [-37.5, 1e-300]]
        idx = system.index_set.array()
        want = hermite_table(6, nodes[:, 0])[idx[:, 0]] * hermite_table(6, nodes[:, 1])[idx[:, 1]]
        assert np.array_equal(system.eigenfunction_matrix(nodes), want)
        assert system.total_eigenvalue_sum() == float(np.prod(1.0 / (1.0 - np.array([0.3, 0.8]))))

    def test_star_of_64_coordinates_is_not_a_box(self):
        # {0, e_1, ..., e_64}: its hull box holds 2**64 cells, which an int64 product wraps to 0
        index_set = MultiIndexSet(np.vstack([np.zeros((1, 64), dtype=int), np.eye(64, dtype=int)]))
        assert not index_set._full_box
        beta = 0.5 * np.arange(1.0, 65.0) ** -2
        tail = SpectralSystem(KernelSpec.hermite(tuple(beta)), index_set).tail_eigenvalue_sum()
        exact = [Fraction(b) for b in beta.tolist()]  # the mass outside, in exact arithmetic
        outside = math.prod(1 / (1 - b) for b in exact) - 1 - sum(exact)
        assert math.isfinite(tail)
        assert tail >= outside

    def test_axis_monotonicity(self):
        system = SpectralSystem(KernelSpec.hermite((0.3, 0.8)), MultiIndexSet.box(2, 3))
        idx = {nu: k for k, nu in enumerate(system.index_set.indices)}
        for nu, k in idx.items():
            for j in range(2):
                higher = list(nu)
                higher[j] += 1
                if tuple(higher) in idx:
                    assert system.eigenvalues[idx[tuple(higher)]] < system.eigenvalues[k]


def _assert_eigenvalues_are_the_product(system):
    """The power tables against np.prod(factor * beta ** rows, axis=1) on
    C-ordered rows, bit for bit."""
    rows = np.ascontiguousarray(system.index_set.array())
    want = np.prod(system.factor * system.beta ** rows, axis=1)
    assert system.eigenvalues.tobytes() == want.tobytes()


class TestWceApproximation:
    def test_zero_method_hermite(self):
        idx = MultiIndexSet.box(1, 40)
        for beta in (0.25, 0.5, 0.9):
            system = SpectralSystem(KernelSpec.hermite((beta,)), idx)
            value, tail = wce_approximation(SamplingMethod.zero(1, idx), system)
            assert value == pytest.approx(1.0, rel=1e-12)
            assert tail <= 1e-15

    def test_zero_method_gaussian(self):
        idx = MultiIndexSet.box(1, 40)
        system = SpectralSystem(GAUSS_ONE, idx)
        value, _ = wce_approximation(SamplingMethod.zero(1, idx), system)
        assert value == pytest.approx(2.0**-0.5, rel=1e-12)

    def test_constant_reproducing_regression_value(self):
        # frozen fixture: single node 0, coefficient identically one
        idx = MultiIndexSet.box(1, 60)
        system = SpectralSystem(HERM_HALF, idx)
        coeff = np.zeros((1, idx.size))
        coeff[0, 0] = 1.0
        value, tail = wce_approximation(SamplingMethod(np.zeros((1, 1)), coeff, idx), system)
        assert value == pytest.approx(0.7071067811865474, rel=1e-12)
        assert tail <= 1e-6

    def test_monotone_refinement(self):
        rng = np.random.default_rng(3)
        nodes = rng.normal(size=(3, 1))
        prev = None
        for degree in (20, 30, 40, 50):
            idx = MultiIndexSet.box(1, degree)
            system = SpectralSystem(HERM_HALF, idx)
            value, tail = wce_approximation(spline_method(nodes, system), system)
            if prev is not None:
                assert tail <= prev[1]
                assert abs(value - prev[0]) <= prev[1]
            prev = (value, tail)

    def test_index_set_mismatch(self):
        system = SpectralSystem(HERM_HALF, MultiIndexSet.box(1, 5))
        method = SamplingMethod.zero(1, MultiIndexSet.box(1, 6))
        with pytest.raises(ShapeMismatchError):
            wce_approximation(method, system)

    def test_simplex_index_set_tail_bound(self):
        # non-box downward-closed set: the reported eigenvalue tail must
        # dominate the brute-force tail over a large enclosing box
        deg = 20
        idx = MultiIndexSet(tuple((i, j) for i in range(deg + 1) for j in range(deg + 1 - i)))
        spec = KernelSpec.hermite((0.4, 0.6))
        system = SpectralSystem(spec, idx)
        brute = sum(
            0.4**i * 0.6**j
            for i in range(80)
            for j in range(80)
            if (i, j) not in idx
        )
        assert brute <= system.tail_eigenvalue_sum() <= brute * (1.0 + 1e-9)
        assert system.max_tail_eigenvalue() == pytest.approx(0.6**21, rel=1e-12)
        value, tail = wce_approximation(SamplingMethod.zero(2, idx), system)
        assert value == pytest.approx(1.0, rel=1e-12)
        assert tail >= 0.0

    @pytest.mark.parametrize("params", [(0.3, 0.7, 0.5, 0.6), (0.6, 0.6, 0.3, 0.6)], ids=["distinct", "tied"])
    @pytest.mark.parametrize("family", ["gaussian", "hermite"])
    @pytest.mark.parametrize("d", range(1, 5))
    def test_max_tail_eigenvalue_on_lower_sets(self, d, family, params):
        # brute force over the box hull plus one, which holds every direct
        # successor of a member, on sets that need not be boxes
        rng = np.random.default_rng(70 + d)
        cube = list(itertools.product(range(9), repeat=d))
        sets = [
            [nu for nu in cube if sum(nu) <= 5],  # total degree
            [nu for nu in cube if math.prod(v + 1 for v in nu) <= 8],  # hyperbolic cross
        ] + [_random_lower_set(rng, d, 3, 4) for _ in range(3)]
        spec = KernelSpec(family, params[:d])
        for rows in sets:
            system = SpectralSystem(spec, MultiIndexSet(rows))
            _assert_eigenvalues_are_the_product(system)
            hull = np.array(rows).max(axis=0) + 2
            brute = max(
                math.prod(float(f * b**v) for f, b, v in zip(system.factor, system.beta, nu))
                for nu in itertools.product(*map(range, hull))
                if nu not in system.index_set
            )
            assert system.max_tail_eigenvalue() == pytest.approx(brute, rel=1e-14)

    @pytest.mark.parametrize("family", ["gaussian", "hermite"])
    def test_box_eigenvalues_are_the_product(self, family):
        spec = KernelSpec(family, (0.3, 0.7, 0.5, 0.6))
        _assert_eigenvalues_are_the_product(SpectralSystem(spec, MultiIndexSet.box(4, 20)))


def _dense_error_norm(method, system):
    """Test-local oracle: the dense error operator (I - (P C)^T) diag(sqrt(lambda))
    and its largest singular value.  Above 2,000 indices the top eigenvalue of
    G G^T stands in for svdvals, which takes about 40 s at 4,913 on two cores."""
    P = system.eigenfunction_matrix(method.nodes)
    inner = P @ method.coeff_table
    G = (np.eye(system.index_set.size) - inner.T) * np.sqrt(system.eigenvalues)[None, :]
    if G.shape[0] <= 2000:
        return float(scipy.linalg.svdvals(G)[0])
    top = G.shape[0] - 1
    return math.sqrt(scipy.linalg.eigh(G @ G.T, eigvals_only=True, subset_by_index=[top, top])[0])


class TestLanczosTop:
    def test_import_leaves_out_scipy_sparse(self):
        code = "import sys, rkhsquad; print(sorted(m for m in sys.modules if m.startswith('scipy.sparse')))"
        src = str(Path(worst_case.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr[-2000:]
        assert done.stdout.strip() == "[]"

    def test_diagonal_operator_grows_its_basis_by_the_step(self):
        # four distinct eigenvalues: the Krylov space closes after four steps
        size = 200_000
        diagonal = np.array([0.0, 0.5, 1.0, 3.0])[np.arange(size) % 4]
        steps = []

        def apply(x):
            steps.append(1)
            return diagonal * x

        start = _uniform(size)  # the caller's, so not traced
        tracemalloc.start()
        try:
            theta, x = worst_case._lanczos_top(apply, start, worst_case._LANCZOS_STEPS)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert theta == pytest.approx(3.0, rel=1e-14, abs=0.0)
        assert np.linalg.norm(x) == pytest.approx(1.0, rel=1e-14)
        assert np.abs(x[diagonal < 3.0]).max() < 1e-12
        assert len(steps) <= 4
        assert peak <= (len(steps) + 4) * size * 8

    @pytest.mark.parametrize("size", [1, 2, 3])
    def test_tiny_operators_are_exact(self, size):
        rng = np.random.default_rng(size)
        root = rng.standard_normal((size, size))
        matrix = root @ root.T
        theta, x = worst_case._lanczos_top(lambda v: matrix @ v, _uniform(size), worst_case._LANCZOS_STEPS)
        assert theta == pytest.approx(np.linalg.eigvalsh(matrix)[-1], rel=1e-14)
        assert np.linalg.norm(matrix @ x - theta * x) <= 1e-13 * theta

    def test_zero_operator(self):
        theta, x = worst_case._lanczos_top(np.zeros_like, _uniform(50), worst_case._LANCZOS_STEPS)
        assert theta == 0.0 and np.linalg.norm(x) == pytest.approx(1.0)

    @pytest.mark.parametrize("k, split", [(1, False), (2, False), (7, False), (60, False), (7, True), (60, True)])
    def test_top_ritz_matches_dense_eigh(self, k, split):
        rng = np.random.default_rng(k)
        alpha, beta = list(rng.random(k)), list(rng.random(k - 1))
        if split:
            beta[k // 2] = 0.0  # LAPACK splits the tridiagonal into two blocks
        theta, last = worst_case._top_ritz(alpha, beta)
        values, vectors = np.linalg.eigh(np.diag(alpha) + np.diag(beta, 1) + np.diag(beta, -1))
        assert theta == pytest.approx(values[-1], rel=1e-14, abs=0.0)
        assert last == pytest.approx(abs(vectors[-1, -1]), rel=1e-10, abs=1e-15)

    def test_dense_eigh_only_for_the_returned_pair(self, monkeypatch):
        # the steps take the tridiagonal's top pair alone, so a run costs O(k^2)
        # in them; the dense eigh runs once, on the last tridiagonal
        diagonal = np.linspace(0.0, 1.0, 2000) ** 4
        steps, shapes = [], []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda a: shapes.append(a.shape) or eigh(a))

        def apply(x):
            steps.append(1)
            return diagonal * x

        theta, _ = worst_case._lanczos_top(apply, _uniform(2000), worst_case._LANCZOS_STEPS)
        assert theta == pytest.approx(1.0, rel=1e-12)
        assert len(steps) > 20 and shapes == [(len(steps), len(steps))]


class TestMatrixFreeNorm:
    """wce_approximation's matrix-free norm against the dense operator."""

    @pytest.mark.parametrize("degree", [0, 40, (19, 19)])  # |Lambda| = 1, 41, 400
    @pytest.mark.parametrize("family", ["gaussian", "hermite"])
    def test_small_index_sets_match_dense(self, family, degree):
        # at |Lambda| = 1 Lanczos breaks down exactly after its first step, with the exact value
        idx = MultiIndexSet.box(np.ndim(degree) + 1, degree)
        spec = (KernelSpec.gaussian if family == "gaussian" else KernelSpec.hermite)((0.5, 0.3)[: idx.dimension])
        system = SpectralSystem(spec, idx)
        rng = np.random.default_rng(idx.size)
        spline = spline_method(rng.normal(size=(min(5, idx.size), idx.dimension)), system)
        for method in (SamplingMethod.zero(idx.dimension, idx), spline):
            value, _ = wce_approximation(method, system)
            assert value == pytest.approx(_dense_error_norm(method, system), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("d, deg, n", [(2, 40, 8), (3, 16, 6)])
    def test_spline_pair_matches_dense(self, d, deg, n):
        rng = np.random.default_rng(10 * d + n)
        sigma = np.exp(rng.uniform(np.log(0.2), np.log(0.6), size=d))
        idx = MultiIndexSet.box(d, deg)
        gauss_sys, herm_sys = spectral_pair(sigma, idx)
        method = spline_method(rng.normal(size=(n, d)), gauss_sys)
        twin = transfer_sampling_to_hermite(method, sigma)
        for m, system in ((method, gauss_sys), (twin, herm_sys)):
            value, _ = wce_approximation(m, system)
            assert value == pytest.approx(_dense_error_norm(m, system), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("spec", [KernelSpec.gaussian((1.0, 0.4)), KernelSpec.hermite((0.5, 0.3))])
    def test_zero_method_matches_dense(self, spec):
        idx = MultiIndexSet.box(2, 40)
        system = SpectralSystem(spec, idx)
        method = SamplingMethod.zero(2, idx)
        value, _ = wce_approximation(method, system)
        assert value == pytest.approx(_dense_error_norm(method, system), rel=1e-12, abs=0.0)

    def test_equal_beta_hermite_matches_dense(self):
        # equal beta_j give eigenvalues of multiplicity nu_1 + nu_2 + 1
        rng = np.random.default_rng(31)
        idx = MultiIndexSet.box(2, 40)
        system = SpectralSystem(KernelSpec.hermite((0.5, 0.5)), idx)
        method = spline_method(rng.normal(size=(7, 2)), system)
        value, _ = wce_approximation(method, system)
        assert value == pytest.approx(_dense_error_norm(method, system), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("degree", [40, 75])  # |Lambda| = 1,681 and 5,776
    def test_lanczos_no_convergence_raises(self, monkeypatch, degree):
        rng = np.random.default_rng(41)
        system = SpectralSystem(KernelSpec.hermite((0.5, 0.3)), MultiIndexSet.box(2, degree))
        method = spline_method(rng.normal(size=(5, 2)), system)
        monkeypatch.setattr(worst_case, "_LANCZOS_STEPS", 2)
        size = system.index_set.size
        with pytest.raises(NumericalConsistencyError, match=f"Lanczos did not converge in 2 steps on an operator of size {size}"):
            wce_approximation(method, system)

    # Clustered spectra at sigma = 100, which Lanczos finishes past 64 steps; each
    # case checks that against a cap of 64 after its value.
    def test_zero_method_on_a_clustered_spectrum(self, monkeypatch):
        # 6,561 indices: the zero method's error is the initial error (66 steps)
        spec = KernelSpec.gaussian((100.0, 100.0))
        idx = MultiIndexSet.box(2, 80)
        method, system = SamplingMethod.zero(2, idx), SpectralSystem(spec, idx)
        value, _ = wce_approximation(method, system)
        assert value == pytest.approx(initial_error(spec, APPROXIMATION), rel=1e-12, abs=0.0)
        monkeypatch.setattr(worst_case, "_LANCZOS_STEPS", 64)
        with pytest.raises(NumericalConsistencyError, match="did not converge in 64 steps"):
            wce_approximation(method, system)

    def test_spline_on_a_clustered_spectrum(self, monkeypatch):
        # 10 nodes over 301 indices (72 steps)
        system = SpectralSystem(KernelSpec.gaussian((100.0,)), MultiIndexSet.box(1, 300))
        method = spline_method(np.random.default_rng(1).normal(size=(10, 1)), system)
        value, _ = wce_approximation(method, system)
        assert value == pytest.approx(_dense_error_norm(method, system), rel=1e-12, abs=0.0)
        monkeypatch.setattr(worst_case, "_LANCZOS_STEPS", 64)
        with pytest.raises(NumericalConsistencyError, match="did not converge in 64 steps"):
            wce_approximation(method, system)

    def test_d3_degree_40_transference_identity(self):
        # |Lambda| = 68,921: 38 GB as a dense operator
        rng = np.random.default_rng(40)
        sigma = np.exp(rng.uniform(np.log(0.2), np.log(0.6), size=3))
        idx = MultiIndexSet.box(3, 40)
        gauss_sys, herm_sys = spectral_pair(sigma, idx)
        method = spline_method(rng.normal(size=(6, 3)), gauss_sys)
        e_g, tail_g = wce_approximation(method, gauss_sys)
        e_h, tail_h = wce_approximation(transfer_sampling_to_hermite(method, sigma), herm_sys)
        prefactor = initial_error(KernelSpec.gaussian(tuple(sigma)), APPROXIMATION)
        assert 0.0 < e_g < prefactor and 0.0 <= tail_g < 1e-6 and 0.0 <= tail_h < 1e-6
        assert abs(e_g - prefactor * e_h) <= tail_g + prefactor * tail_h + 1e-14


ERROR_TYPES = tuple(
    v for v in vars(errors).values() if isinstance(v, type) and issubclass(v, Exception) and v.__module__ == errors.__name__
)


def _raises_without_warning(call):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalConsistencyError):
            call()


class TestFiniteOrRaise:
    # k_0.5(100, 100) = exp(10^4 / 3) / sqrt(0.75) overflows
    FAR_NODES = np.array([[0.0], [100.0]])

    @pytest.mark.parametrize(
        "spec, x",
        [(HERM_HALF, 100.0), (HERM_HALF, np.nan), (HERM_HALF, np.inf), (GAUSS_ONE, np.nan), (GAUSS_ONE, -np.inf)],
        ids=["hermite-overflow", "hermite-nan", "hermite-inf", "gaussian-nan", "gaussian-inf"],
    )
    def test_kernel_gram_non_finite(self, spec, x):
        # NaN and infinite nodes give NaN exponents
        _raises_without_warning(lambda: kernel_gram(spec, np.array([[0.0], [x]])))
        _raises_without_warning(lambda: kernel_gram(spec, np.array([[x]])))

    def test_kernel_gram_far_gaussian_node(self):
        # the squared offset of 1e200 from the node mean overflows; a lone
        # node has the offset 0
        _raises_without_warning(lambda: kernel_gram(GAUSS_ONE, np.array([[0.0], [1e200]])))
        assert kernel_gram(GAUSS_ONE, np.array([[1e200]])) == 1.0

    def test_wce_integration_kernel_overflow(self):
        rule = QuadratureRule(self.FAR_NODES, np.array([0.5, 0.5]))
        _raises_without_warning(lambda: wce_integration(rule, HERM_HALF))

    def test_optimal_weights_kernel_overflow(self):
        _raises_without_warning(lambda: optimal_weights(self.FAR_NODES, HERM_HALF))

    def test_spline_method_kernel_overflow(self):
        system = SpectralSystem(HERM_HALF, MultiIndexSet.box(1, 10))
        _raises_without_warning(lambda: spline_method(self.FAR_NODES, system))

    def test_spline_method_eigenfunction_overflow(self):
        # the Gaussian Gram is finite, h_512(100 c) overflows
        system = SpectralSystem(GAUSS_ONE, MultiIndexSet.box(1, 512))
        nodes = self.FAR_NODES
        assert np.all(np.isfinite(kernel_gram(GAUSS_ONE, nodes)))
        _raises_without_warning(lambda: spline_method(nodes, system))

    def test_eigenfunction_overflow(self):
        # hermite_table(512, [100.0]) overflows to inf and NaN
        idx = MultiIndexSet.box(1, 512)
        system = SpectralSystem(HERM_HALF, idx)
        method = SamplingMethod(np.array([[100.0]]), np.ones((1, idx.size)), idx)
        with pytest.raises(NumericalConsistencyError):
            wce_approximation(method, system)

    def test_eigenfunction_matrix_overflow(self):
        # the matrix checks itself, so a direct call raises too
        system = SpectralSystem(HERM_HALF, MultiIndexSet.box(1, 512))
        _raises_without_warning(lambda: system.eigenfunction_matrix([[100.0]]))

    def test_amplitude_bound_overflow(self):
        # exp(60^2 / 4) overflows; the eigenfunction values themselves are finite
        idx = MultiIndexSet.box(1, 5)
        system = SpectralSystem(HERM_HALF, idx)
        method = SamplingMethod(np.array([[60.0]]), np.ones((1, idx.size)), idx)
        assert np.all(np.isfinite(system.eigenfunction_matrix(method.nodes)))
        with pytest.raises(NumericalConsistencyError):
            wce_approximation(method, system)

    def test_lanczos_norm_overflow(self):
        # a coefficient of 1e100 puts entries of about 1e200 in T^T T: the norm of the
        # first Lanczos vector overflows, which raises instead of warning
        idx = MultiIndexSet.box(1, 3)
        method = SamplingMethod(np.array([[0.0]]), np.array([[1e100, 0.0, 0.0, 0.0]]), idx)
        for spec in (HERM_HALF, GAUSS_ONE):
            _raises_without_warning(lambda: wce_approximation(method, SpectralSystem(spec, idx)))
        with pytest.raises(NumericalConsistencyError, match="Lanczos overflowed at step 1"):
            wce_approximation(method, SpectralSystem(HERM_HALF, idx))

    def test_spline_wce_approximation_is_finite_or_typed(self):
        # random index sets of 1..500 indices in d <= 3, node scales up to 10,
        # spline coefficients scaled by 1e-8..1e8 and zero methods: every call
        # returns a finite value and a tail >= 0, or raises an rkhsquad error
        rng = np.random.default_rng(8)
        returned = 0
        for case in range(200):
            d = int(rng.integers(1, 4))
            spec = _random_spec(rng, "gaussian" if case % 2 else "hermite", d)
            rows = _random_lower_set(rng, d, int(rng.integers(1, 4)), (499, 21, 7)[d - 1])
            if len(rows) > 500:
                continue
            idx = MultiIndexSet(rows)
            system = SpectralSystem(spec, idx)
            nodes = rng.uniform(0.0, 10.0) * rng.standard_normal((int(rng.integers(1, 7)), d))
            try:
                if rng.random() < 0.2:
                    method = SamplingMethod.zero(d, idx)
                else:
                    spline = spline_method(nodes, system)
                    scale = 10.0 ** rng.uniform(-8.0, 8.0)
                    method = SamplingMethod(spline.nodes, scale * spline.coeff_table, idx)
                value, tail = wce_approximation(method, system)
            except ERROR_TYPES:
                continue
            assert math.isfinite(value) and math.isfinite(tail) and tail >= 0.0, (spec, idx.size, nodes)
            returned += 1
        assert returned > 100

    @pytest.mark.parametrize("nodes, coeffs", [
        ([[np.nan]], [[1.0, 0.0]]),
        ([[np.inf]], [[1.0, 0.0]]),
        ([[0.0]], [[1.0, np.nan]]),
        ([[0.0]], [[-np.inf, 0.0]]),
    ])
    def test_non_finite_sampling_method_rejected(self, nodes, coeffs):
        idx = MultiIndexSet.box(1, 1)
        with pytest.raises(DomainError):
            SamplingMethod(np.array(nodes), np.array(coeffs), idx)
        with pytest.raises(DomainError):
            SamplingMethod.from_json({"nodes": nodes, "index_set": [[0], [1]], "coeffs": coeffs})


class TestSplineMethod:
    def test_single_node_expansion(self):
        idx = MultiIndexSet.box(1, 10)
        system = SpectralSystem(HERM_HALF, idx)
        spline = spline_method(np.array([[0.0]]), system)
        h = hermite_table(10, 0.0)
        for nu in range(11):
            expected = 0.5**nu * h[nu] * math.sqrt(3.0) / 2.0
            assert spline.coeff_table[0, nu] == pytest.approx(expected, abs=1e-15)

    def test_minimal_index_set(self):
        idx = MultiIndexSet(((0,),))
        system = SpectralSystem(HERM_HALF, idx)
        spline = spline_method(np.array([[0.0]]), system)
        assert spline.coeff_table.shape == (1, 1)

    def test_duplicate_node_conditioning_error(self):
        idx = MultiIndexSet.box(1, 5)
        system = SpectralSystem(HERM_HALF, idx)
        with pytest.raises(ConditioningError):
            spline_method(np.array([[0.2], [0.2]]), system)

    def test_beats_plain_interpolation_coefficients(self):
        # spline is worst-case optimal among methods on the same nodes
        rng = np.random.default_rng(9)
        idx = MultiIndexSet.box(1, 40)
        system = SpectralSystem(HERM_HALF, idx)
        nodes = rng.normal(size=(3, 1))
        spline = spline_method(nodes, system)
        v_spline, _ = wce_approximation(spline, system)
        perturbed = SamplingMethod(
            nodes, spline.coeff_table + 0.01 * rng.normal(size=spline.coeff_table.shape), idx
        )
        v_other, _ = wce_approximation(perturbed, system)
        assert v_spline <= v_other + 1e-12


class TestSamplingMethodJson:
    def test_round_trip(self):
        idx = MultiIndexSet.box(2, 1)
        method = SamplingMethod(np.array([[0.0, 1.0]]), np.array([[1.0, 0.0, 0.5, 0.0]]), idx)
        again = SamplingMethod.from_json(method.to_json())
        assert np.array_equal(again.nodes, method.nodes)
        assert np.array_equal(again.coeff_table, method.coeff_table)
        assert again.index_set.indices == idx.indices


class TestTensorShortcuts:
    def test_product_rule_matches_dense(self):
        spec = KernelSpec.gaussian((0.8, 1.2))
        g1, g2 = gauss_hermite_rule(3), gauss_hermite_rule(4)
        fast = tensor_wce_integration([g1, g2], spec)
        nodes = np.array([(x, y) for x in g1.nodes for y in g2.nodes])
        weights = np.array([wx * wy for wx in g1.weights for wy in g2.weights])
        dense = wce_integration(QuadratureRule(nodes, weights), spec)
        assert fast == pytest.approx(dense, rel=1e-10)

    def test_optimal_product_matches_dense(self):
        spec = KernelSpec.gaussian((1.0, 1.0))
        g = gauss_hermite_rule(4)
        fast = tensor_optimal_wce([g, g], spec)
        nodes = np.array([(x, y) for x in g.nodes for y in g.nodes])
        dense = wce_integration(optimal_weights(nodes, spec), spec)
        assert fast == pytest.approx(dense, rel=1e-8)

    def test_spectral_path_matches_gram(self):
        for n, beta in ((3, 0.5), (6, 0.8)):
            g = gauss_hermite_rule(n)
            ((value, tail),) = _spectral_errors([(g.nodes, g.weights)], beta)
            dense = wce_integration(
                QuadratureRule(g.nodes[:, None], g.weights), KernelSpec.hermite((beta,))
            )
            assert value == pytest.approx(dense, rel=1e-10)
            assert tail <= 1e-13 * value


def _one_rule_spectral(nodes, weights, beta):
    """The per-rule eigen-expansion error, one Hermite table per rule."""
    amp = CRAMER_CONSTANT * float(np.abs(weights) @ np.exp(nodes * nodes / 4.0))
    scale = amp * amp / (1.0 - beta)
    degree = _moment_cut(scale, beta)[0]
    s = hermite_table(degree, nodes) @ weights
    terms = beta ** np.arange(1, degree + 1) * s[1:] ** 2
    e2 = (1.0 - float(weights.sum())) ** 2 + float(np.sum(terms))
    value = math.sqrt(e2)
    return value, math.sqrt(e2 + scale * beta ** (degree + 1)) - value


def _series_oracle(nodes, weights, beta, degree):
    """sqrt((1 - sum w)^2 + sum_{nu=1}^{degree} beta^nu s_nu^2) by a recurrence of its own,
    with no degree guard."""
    prev, cur = np.zeros_like(nodes), np.ones_like(nodes)
    e2 = (1.0 - float(weights.sum())) ** 2
    for nu in range(degree):
        prev, cur = cur, (nodes * cur - math.sqrt(nu) * prev) / math.sqrt(nu + 1)
        e2 += beta ** (nu + 1) * float(weights @ cur) ** 2
    return math.sqrt(e2)


def _gh_rules_on(spec, n_max):
    """(nodes, weights) of the n-point Gauss-Hermite rules, n = 1..n_max, on
    the Hermite side of a univariate space, and that side's beta."""
    rules = []
    for n in range(1, n_max + 1):
        rule = gauss_hermite_rule(n)
        nodes, weights = rule.nodes, rule.weights
        if spec.is_gaussian:
            twin = transfer_quadrature_to_hermite(
                QuadratureRule(nodes[:, None], weights), spec.params
            )
            nodes, weights = twin.nodes[:, 0], twin.weights
        rules.append((nodes, weights))
    if spec.is_gaussian:
        return rules, beta_from_sigma("integration", spec.params[0])
    return rules, spec.params[0]


class TestSpectralBatch:
    """One Hermite recurrence pass over the nodes of all rules, bit-identical to one table per rule."""

    @pytest.fixture
    def passes(self, monkeypatch):
        calls = []
        stream = hermite._hermite_blocks

        def counted(nu_max, x, block):
            calls.append((nu_max, x.size))
            return stream(nu_max, x, block)

        monkeypatch.setattr(hermite, "_hermite_blocks", counted)
        return calls

    @pytest.mark.parametrize("spec", [HERM_HALF, GAUSS_ONE])
    def test_gauss_hermite_curve_bit_identical(self, spec, passes):
        # n = 1..256 in one pass, with degrees that vary by rule
        rules, beta = _gh_rules_on(spec, 256)
        passes.clear()
        batch = _spectral_errors(rules, beta)
        assert [cols for _, cols in passes] == [256 * 257 // 2]
        assert batch == [_one_rule_spectral(x, w, beta) for x, w in rules]

    @pytest.mark.parametrize("beta", [0.1, 0.6, 0.95])
    def test_random_rules_bit_identical(self, beta):
        rng = np.random.default_rng(8)
        rules = []
        for _ in range(40):
            n = int(rng.integers(1, 30))
            rules.append((rng.normal(0.0, 1.5, size=n), rng.normal(0.0, 1.0 / n, size=n)))
        assert _spectral_errors(rules, beta) == [_one_rule_spectral(x, w, beta) for x, w in rules]

    def test_moments_do_not_depend_on_the_block(self, monkeypatch):
        # blocks of 8, 64 and all degrees at once give the bits of one hermite_table per rule
        gh = [(r.nodes, r.weights) for r in map(gauss_hermite_rule, range(1, 201))]
        deltas = [_difference_rule(k - 1, k) for k in range(1, 61)]
        for rules in (gh, deltas):
            degrees = [_moment_cut(worst_case._rule_amplitude(x, w) ** 2 / 0.5, 0.5)[0] for x, w in rules]
            per_rule = [(hermite_table(deg, x) @ w).tobytes() for (x, w), deg in zip(rules, degrees)]
            for block in (8, 64, max(degrees) + 1):
                monkeypatch.setattr(worst_case, "_MOMENT_BLOCK", block)
                assert [s.tobytes() for s in worst_case._hermite_moments(rules, degrees)] == per_rule

    def test_moment_cut_bound(self):
        # the bound scale beta^(D + 1) at the degree D where the series stops, bit for bit
        assert _moment_cut(3.0, 0.0) == (0, 0.0)
        # 3 beta^(D + 1) < 2^-160 first holds at D = 161
        assert _moment_cut(3.0, 0.5) == (161, 3.0 * 0.5**162)
        # at beta = 0.9995 the uncapped degree is about 221,750: the cap binds, and its bound is returned
        degree, cut = _moment_cut(1.0, 0.9995)
        assert degree == hermite.MAX_DEGREE
        assert cut == 0.9995 ** (hermite.MAX_DEGREE + 1) > 2.0**-160

    def test_domain_and_degree_guards(self, passes):
        g = gauss_hermite_rule(3)
        with pytest.raises(DomainError):
            _spectral_errors([(g.nodes, g.weights)], 1.0)
        assert _spectral_errors([], 0.5) == []
        passes.clear()
        # at beta = 0.9995 the Cramer degree of the 3-point rule is about 237,000: the
        # series stops at the cap, and [value, value + tail] holds the sum to degree 60,000
        ((value, tail),) = _spectral_errors([(g.nodes, g.weights)], 0.9995)
        assert passes == [(hermite.MAX_DEGREE, 3)]
        assert value == pytest.approx(_series_oracle(g.nodes, g.weights, 0.9995, hermite.MAX_DEGREE), rel=1e-12)
        longer = _series_oracle(g.nodes, g.weights, 0.9995, 60_000)
        assert value * (1.0 + 1e-3) < longer <= value + tail


class TestNegativeVarianceGuard:
    def test_tolerated_round_off(self):
        # optimal rule error stays non-negative under the clamp
        nodes = np.array([[0.0], [1.0], [-1.0]])
        opt = optimal_weights(nodes, GAUSS_ONE)
        assert wce_integration(opt, GAUSS_ONE) >= 0.0

    def test_tensor_factor_count_checked(self):
        g = gauss_hermite_rule(2)
        with pytest.raises(ShapeMismatchError):
            tensor_wce_integration([g], KernelSpec.gaussian((1.0, 1.0)))
        with pytest.raises(ShapeMismatchError):
            tensor_optimal_wce([g, g, g], KernelSpec.gaussian((1.0, 1.0)))
