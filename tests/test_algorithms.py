"""Constructive families: GH rules, tensor/Smolyak grids, anchoring, MDM."""

import heapq
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from rkhsquad import algorithms, hermite
from rkhsquad.algorithms import (
    KernelGenerator,
    _component_counts,
    _component_local,
    _component_rows,
    _difference_rule,
    _gh_errors_on_space,
    _level_vectors,
    _merged_terms,
    _subset_pool,
    _term_dag,
    _term_rows,
    MdmPlan,
    ParamRule,
    SmolyakLevels,
    assemble_mdm_plan,
    gh_error_on_space,
    gh_rule_on_space,
    integration_error_lower_bound,
    level_choice_for_eps,
    mdm_build,
    mdm_wce,
    smolyak_rule,
    tensor_rule,
    tensor_rule_for_eps,
)
from rkhsquad import errors
from rkhsquad.errors import BudgetError, DomainError, NumericalConsistencyError, ShapeMismatchError
from rkhsquad.hermite import gauss_hermite_rule
from rkhsquad.kernels import KernelSpec, hermite_kernel
from rkhsquad.transference import TransferConstants, transfer_quadrature_to_hermite
from rkhsquad.worst_case import CostModel, QuadratureRule, rule_cost, wce_integration


class TestGhRuleOnSpace:
    def test_hermite_one_point_error(self):
        rule = gh_rule_on_space(1, KernelSpec.hermite((0.5,)))
        err = wce_integration(rule, KernelSpec.hermite((0.5,)))
        assert err == pytest.approx(math.sqrt(2.0 / math.sqrt(3.0) - 1.0), rel=1e-13)

    def test_gaussian_one_point_error(self):
        # Gram identity with m(0) = (1+2 sigma^2)^(-1/2) = 2^(-1/2) and
        # double integral 3^(-1/2); cross-checked against the numeric oracle
        spec = KernelSpec.gaussian((math.sqrt(0.5),))
        rule = gh_rule_on_space(1, spec)
        err = wce_integration(rule, spec)
        expected_sq = 3.0**-0.5 - 2.0 * 2.0**-0.5 + 1.0
        assert err == pytest.approx(math.sqrt(expected_sq), rel=1e-12)
        quad = gauss_hermite_rule(64)
        diff = quad.nodes[:, None] - quad.nodes[None, :]
        double_int = float(quad.weights @ np.exp(-0.5 * diff * diff) @ quad.weights)
        assert err == pytest.approx(math.sqrt(double_int - 2.0 * 2.0**-0.5 + 1.0), rel=1e-10)

    def test_two_point_regression_value(self):
        spec = KernelSpec.hermite((0.5,))
        rule = gh_rule_on_space(2, spec)
        err = wce_integration(rule, spec)
        value, tail = gh_error_on_space(2, spec)
        assert value == pytest.approx(err, rel=1e-10)
        assert err == pytest.approx(0.13473122762560152, rel=1e-10)  # frozen fixture

    def test_spectral_error_path_matches_transference(self):
        spec = KernelSpec.gaussian((0.9,))
        for n in (1, 2, 5):
            value, _ = gh_error_on_space(n, spec)
            direct = wce_integration(gh_rule_on_space(n, spec), spec)
            assert value == pytest.approx(direct, rel=1e-9)

    def test_large_sigma_matches_gram(self):
        # sigma = 10 gives beta of about 0.995, where the series runs to hermite.MAX_DEGREE
        spec = KernelSpec.gaussian((10.0,))
        for n in range(1, 21):
            value, tail = gh_error_on_space(n, spec)
            assert value == pytest.approx(wce_integration(gh_rule_on_space(n, spec), spec), rel=1e-10)
            assert tail <= 1e-6 * value

    def test_requires_univariate(self):
        with pytest.raises(ShapeMismatchError):
            gh_rule_on_space(2, KernelSpec.gaussian((1.0, 1.0)))

    def test_gaussian_curve_builds_one_constant_set(self, monkeypatch):
        # the twins of all 200 rules share the transference constants of the space
        calls = _count_integration_constants(monkeypatch)
        _gh_errors_on_space(range(1, 201), KernelSpec.gaussian((1.0,)))
        assert len(calls) == 1


def _count_integration_constants(monkeypatch) -> list:
    """Record the sigma of every ``TransferConstants.integration`` call."""
    calls, integration = [], TransferConstants.__dict__["integration"].__func__
    monkeypatch.setattr(
        TransferConstants, "integration", classmethod(lambda cls, sigma: calls.append(sigma) or integration(cls, sigma))
    )
    return calls


class TestLowerBound:
    def test_hermite_form(self):
        beta, n = 0.5, 3
        expected = 0.5 * (beta / 2.0) ** (2 * n) * (n + 1) ** -2
        assert integration_error_lower_bound(KernelSpec.hermite((beta,)), n) == pytest.approx(
            expected, rel=1e-15
        )

    def test_gaussian_mirrors_hermite_with_prefactor(self):
        sigma = 1.3
        beta = 2 * sigma**2 / (1 + 2 * sigma**2)
        pref = (1 + 4 * sigma**2) ** -0.25
        for n in (1, 5, 12):
            lhs = integration_error_lower_bound(KernelSpec.gaussian((sigma,)), n)
            rhs = pref * integration_error_lower_bound(KernelSpec.hermite((beta,)), n)
            assert lhs == pytest.approx(rhs, rel=1e-14)


class TestTensorRule:
    def test_two_singletons(self):
        rule = tensor_rule([gauss_hermite_rule(1), gauss_hermite_rule(1)])
        assert rule.nodes.tolist() == [[0.0, 0.0]]
        assert rule.weights.tolist() == [1.0]

    def test_two_by_two(self):
        rule = tensor_rule([gauss_hermite_rule(2), gauss_hermite_rule(2)])
        assert sorted(map(tuple, rule.nodes.tolist())) == [
            (-1.0, -1.0),
            (-1.0, 1.0),
            (1.0, -1.0),
            (1.0, 1.0),
        ]
        assert rule.weights == pytest.approx([0.25] * 4, rel=1e-14)

    def test_weight_sum(self):
        rule = tensor_rule([gauss_hermite_rule(5), gauss_hermite_rule(3), gauss_hermite_rule(2)])
        assert rule.weights.sum() == pytest.approx(1.0, abs=1e-12)

    def test_budget_guard(self):
        with pytest.raises(BudgetError):
            tensor_rule([gauss_hermite_rule(256)] * 3)

    def test_grid_is_held_once(self):
        # the rule keeps the grid's own arrays: no copy of the 64,000 x 3 node matrix
        factors = [gauss_hermite_rule(40)] * 3
        tracemalloc.start()
        try:
            rule = tensor_rule(factors)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rule.nodes.shape == (64_000, 3)
        assert peak <= 1.1 * (rule.nodes.nbytes + rule.weights.nbytes)


class TestTensorRuleForEps:
    def test_level_choice_d2(self):
        assert level_choice_for_eps(0.1, [1.0, 1.0]).tolist() == [8, 8]

    def test_level_choice_d1(self):
        assert level_choice_for_eps(0.5, [1.0]).tolist() == [2]

    def test_eps_domain(self):
        with pytest.raises(DomainError):
            tensor_rule_for_eps(1.0, [1.0])
        with pytest.raises(DomainError):
            tensor_rule_for_eps(0.0, [1.0])

    def test_guarantee_holds_as_constructed(self):
        for eps in (0.5, 0.1, 0.01):
            sigma = np.array([1.0, 0.5])
            ns = level_choice_for_eps(eps, sigma)
            zeta = np.log1p(1.0 / (2.0 * sigma**2))
            assert float(np.sum(np.exp(-ns * zeta))) <= eps

    def test_size_and_space_mapping(self):
        rule_h = tensor_rule_for_eps(0.1, [1.0, 1.0], "hermite")
        assert rule_h.n == 64
        rule_g = tensor_rule_for_eps(0.1, [1.0, 1.0], "gaussian")
        assert rule_g.n == 64
        # the Gaussian rule is the inverse transference image of the product rule
        e_scale = math.sqrt(5.0 / 3.0)
        assert np.allclose(rule_g.nodes * e_scale, rule_h.nodes, rtol=1e-14)

    def test_budget_error_names_offender(self):
        with pytest.raises(BudgetError) as err:
            tensor_rule_for_eps(1e-6, [3.0, 3.0, 3.0])
        assert "largest factor" in str(err.value)

    def test_unknown_space_rejected_before_the_grid(self, monkeypatch):
        def build(*args):
            raise AssertionError("tensor_rule called for an unknown space")

        monkeypatch.setattr(algorithms, "tensor_rule", build)
        with pytest.raises(DomainError, match="unknown space 'nope'"):
            tensor_rule_for_eps(1e-3, [1.0] * 4, space="nope")


class TestSmolyak:
    def test_univariate_telescoping(self):
        for q in (1, 3, 7):
            rule = smolyak_rule((0,), SmolyakLevels.unit(q))
            base = gauss_hermite_rule(q)
            assert np.allclose(np.sort(rule.nodes[:, 0]), base.nodes, rtol=0, atol=0)
            order = np.argsort(rule.nodes[:, 0])
            assert np.allclose(rule.weights[order], base.weights, rtol=1e-14)

    def test_bivariate_level_two(self):
        rule = smolyak_rule((0, 1), SmolyakLevels.unit(2))
        assert rule.nodes.tolist() == [[0.0, 0.0]]
        assert rule.weights.tolist() == [1.0]

    @pytest.mark.parametrize("q", [2, 3, 5, 7])
    def test_weight_sum_one(self, q):
        rule = smolyak_rule((0, 1), SmolyakLevels.unit(q))
        assert rule.weights.sum() == pytest.approx(1.0, abs=1e-12)

    def test_polynomial_exactness_matches_tensor(self):
        # level q covers total polynomial degree 2(q - |u|) + 1 at least
        rule = smolyak_rule((0, 1), SmolyakLevels.unit(5))
        f = lambda row: row[0] ** 2 * row[1] ** 2
        est = rule.apply(f)
        assert est == pytest.approx(1.0, rel=1e-12)

    def test_ambient_embedding(self):
        rule = smolyak_rule((1,), SmolyakLevels.unit(2), dim=4)
        assert rule.dimension == 4
        assert np.all(rule.nodes[:, [0, 2, 3]] == 0.0)

    def test_level_below_size_rejected(self):
        with pytest.raises(DomainError):
            smolyak_rule((0, 1), SmolyakLevels.unit(1))

    def test_budget_refused_under_an_address_space_limit(self):
        # the terms of 6 coordinates at level 30 stack 25,900,154,475 rows; the merge
        # refuses the rule in batches instead of stacking them all and running out of memory
        code = (
            "import resource\n"
            "resource.setrlimit(resource.RLIMIT_AS, (3 * 10**9, 3 * 10**9))\n"
            "from rkhsquad.algorithms import SmolyakLevels, smolyak_rule\n"
            "from rkhsquad.errors import BudgetError\n"
            "try:\n"
            "    smolyak_rule(range(6), SmolyakLevels.unit(30))\n"
            "except BudgetError as exc:\n"
            "    print('BudgetError', exc)\n"
        )
        src = str(Path(algorithms.__file__).resolve().parents[1])
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=src)
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr[-2000:]
        assert done.stdout.startswith("BudgetError"), done.stdout

    def test_batched_merge_is_bit_equal(self, monkeypatch):
        # 126,295 stacked rows and 8,541 nodes: 13 batches of at most 10,000 rows
        want = smolyak_rule((0, 1), SmolyakLevels.unit(30))
        batches = []
        term_batches = algorithms._term_batches
        monkeypatch.setattr(algorithms, "TENSOR_BUDGET", 10_000)
        monkeypatch.setattr(algorithms, "_LOCAL_SMOLYAK_CACHE", {})
        monkeypatch.setattr(algorithms, "_term_batches", lambda *args: (batches.append(b) or b for b in term_batches(*args)))
        rule = smolyak_rule((0, 1), SmolyakLevels.unit(30))
        assert len(batches) == 13
        assert max(sum(w.size for _, w in batch) for batch in batches) <= 10_000
        assert rule.nodes.tobytes() == want.nodes.tobytes()
        assert rule.weights.tobytes() == want.weights.tobytes()

    def test_term_past_the_budget_refused_before_it_is_built(self, monkeypatch):
        # level vector (1, 2) is Delta_1 x Delta_2 with Delta_2 = B_40 - B_1: 41 rows
        monkeypatch.setattr(algorithms, "TENSOR_BUDGET", 40)
        monkeypatch.setattr(algorithms, "_LOCAL_SMOLYAK_CACHE", {})
        built, product_grid = [], algorithms._product_grid
        monkeypatch.setattr(algorithms, "_product_grid", lambda *args: built.append(product_grid(*args)) or built[-1])
        with pytest.raises(BudgetError, match="a tensor term of 41 rows"):
            smolyak_rule((0, 1), SmolyakLevels((1, 40, 41), 3))
        assert [w.size for _, w in built] == [1]  # only the term of (1, 1)

    def test_refused_rule_is_not_cached(self, monkeypatch):
        monkeypatch.setattr(algorithms, "TENSOR_BUDGET", 8_540)
        monkeypatch.setattr(algorithms, "_LOCAL_SMOLYAK_CACHE", {})
        with pytest.raises(BudgetError, match="beyond 8540"):
            smolyak_rule((0, 1), SmolyakLevels.unit(30))
        assert algorithms._LOCAL_SMOLYAK_CACHE == {}

    def test_level_vectors_are_built_as_the_merge_reaches_them(self):
        # the first vectors of 24 coordinates at level 28 come without the other 20,472
        tracemalloc.start()
        try:
            vectors = _level_vectors(24, 28, 1)
            first = [next(vectors) for _ in range(3)]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [ks[-2:] for ks in first] == [(1, 1), (1, 2), (1, 3)]
        assert all(ks[:-2] == (1,) * 22 for ks in first)
        assert peak < 1e6

    def test_schedule_validation(self):
        with pytest.raises(DomainError):
            SmolyakLevels((1, 1, 2), 2)
        with pytest.raises(DomainError):
            SmolyakLevels((0, 1), 1)


def anchored_component_eval(f, u, x) -> float:
    """Oracle value of the anchored component f_u at a point x supported on u:
    the signed sum over the 2^|u| anchor restrictions of x."""
    total = 0.0
    for mask in range(1 << len(u)):
        point = np.zeros_like(x)
        keep = [j for pos, j in enumerate(u) if mask >> pos & 1]
        point[keep] = x[keep]
        total += (-1) ** (len(u) - len(keep)) * float(f(point))
    return total


class TestAnchoredDecomposition:
    def test_pure_interaction(self):
        f = lambda x: x[0] * x[1]
        assert anchored_component_eval(f, (0, 1), np.array([2.0, 3.0])) == pytest.approx(6.0)

    def test_constant_vanishes(self):
        assert anchored_component_eval(lambda x: 7.0, (0, 1), np.array([1.0, 1.0])) == 0.0

    def test_untouched_coordinate_vanishes(self):
        assert anchored_component_eval(lambda x: x[0], (1,), np.array([0.0, 2.0])) == 0.0

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
    def test_completeness_multilinear(self, k):
        # sum of all anchored components reconstructs f exactly
        rng = np.random.default_rng(k)
        coeffs = rng.normal(size=2**k)

        def f(x):
            total = 0.0
            for mask in range(2**k):
                term = coeffs[mask]
                for j in range(k):
                    if mask >> j & 1:
                        term *= x[j]
                total += term
            return total

        x = rng.normal(size=k)
        total = 0.0
        for mask in range(2**k):
            u = tuple(j for j in range(k) if mask >> j & 1)
            point = np.zeros(k)
            for j in u:
                point[j] = x[j]
            total += anchored_component_eval(f, u, point)
        assert total == pytest.approx(f(x), rel=1e-12)


def _reference_difference(schedule, k):
    """(node, weight) pairs of B_{m_k} - B_{m_{k-1}} (with B_{m_0} = 0)."""
    entries = {}
    for m, sign in ((schedule[k - 1], 1.0), (schedule[k - 2] if k >= 2 else 0, -1.0)):
        if m:
            rule = gauss_hermite_rule(m)
            for x, w in zip(rule.nodes.tolist(), rule.weights.tolist()):
                entries[x] = entries.get(x, 0.0) + sign * w
    return list(entries.items())


def _reference_smolyak(size, schedule, level):
    """Smolyak combination over ``size`` local coordinates as a {node tuple: weight}
    dict: a recursive walk over the level vectors k >= 1 with |k|_1 <= level,
    merged exactly, exactly cancelled weights dropped."""
    blocks = {k: _reference_difference(schedule, k) for k in range(1, level - size + 2)}
    acc = {}
    point = [0.0] * size

    def recurse(pos, remaining, weight):
        if pos == size:
            key = tuple(point)
            acc[key] = acc.get(key, 0.0) + weight
            return
        for k in range(1, remaining - (size - pos - 1) + 1):
            for x, w in blocks[k]:
                point[pos] = x
                recurse(pos + 1, remaining - k, weight * w)
        point[pos] = 0.0

    recurse(0, level, 1.0)
    return {k: v for k, v in acc.items() if v != 0.0}


def _assert_terms_match(keys, weights, want, where):
    assert [tuple(k) for k in keys.tolist()] == sorted(want), where
    for key, w in zip(keys.tolist(), weights.tolist()):
        assert w == pytest.approx(want[tuple(key)], rel=1e-13, abs=0.0), (where, key)


SCHEDULES = {
    "unit": tuple(range(1, 13)),
    "odd": tuple(range(1, 25, 2)),
    "growing": (1, 2, 4, 6, 9, 13, 18, 24, 31, 39, 48, 58),
}


@pytest.mark.parametrize("schedule", sorted(SCHEDULES))
@pytest.mark.parametrize("size", [1, 2, 3, 4])
def test_smolyak_rule_matches_recursive_reference(size, schedule):
    for level in range(size, 13):
        levels = SmolyakLevels(SCHEDULES[schedule][:level], level)
        rule = smolyak_rule(range(size), levels)
        want = _reference_smolyak(size, levels.schedule, level)
        _assert_terms_match(rule.nodes, rule.weights, want, (size, schedule, level))


def _float_row_merge(size, schedule, level, lowest):
    """Test-local oracle: the tensor terms over the level vectors merged by
    ``np.unique(axis=0)`` over float node rows, as the library did before it
    keyed rows by the ranks of their node values."""
    top = level - lowest * (size - 1)
    blocks = {k: np.array(_reference_difference(schedule, k)).T for k in range(lowest, top + 1)}
    node_parts, weight_parts = [np.zeros((0, size))], [np.zeros(0)]
    for ks in _level_vectors(size, level, lowest):
        grids = np.meshgrid(*[blocks[k][0] for k in ks], indexing="ij")
        node_parts.append(np.stack([g.ravel() for g in grids], axis=1))
        weights = np.ones(grids[0].size)
        for g in np.meshgrid(*[blocks[k][1] for k in ks], indexing="ij"):
            weights *= g.ravel()
        weight_parts.append(weights)
    keys, where = np.unique(np.vstack(node_parts), axis=0, return_inverse=True)
    merged = np.bincount(where.ravel(), weights=np.concatenate(weight_parts))
    keep = merged != 0.0
    return keys[keep], merged[keep]


def _anchored_smolyak(size, level):
    """Anchored component from the reference Smolyak rule and the 2^size anchoring signs."""
    if level < size:
        return {}
    rule = _reference_smolyak(size, tuple(range(1, level + 1)), level)
    masks = [[mask >> pos & 1 for pos in range(size)] for mask in range(1 << size)]
    acc = {}
    for row, w in rule.items():
        for keep in masks:
            key = tuple(v if b else 0.0 for v, b in zip(row, keep))
            acc[key] = acc.get(key, 0.0) + (-1) ** (size - sum(keep)) * w
    return {k: v for k, v in acc.items() if v != 0.0}


def _mdm_by_components(plan, f):
    """f(0) plus, per active set, the unit-schedule Smolyak rule applied to the
    anchored component f_u: the MDM without flattening."""
    dim = plan.flattened.dimension
    total = float(f(np.zeros(dim)))
    for u, q in zip(plan.active_sets, plan.levels):
        rule = smolyak_rule(u, SmolyakLevels.unit(q), dim)
        total += rule.apply(lambda row, u=u: anchored_component_eval(f, u, row))
    return total


class TestComponentTerms:
    @pytest.mark.parametrize("size", [1, 2, 3, 4])
    def test_tensor_terms_match_anchored_smolyak(self, size):
        for level in range(1, 13):
            keys, weights = _component_local(size, level)
            _assert_terms_match(keys, weights, _anchored_smolyak(size, level), (size, level))

    @pytest.mark.parametrize("size, level", [(2, 30), (3, 18), (5, 14), (10, 20)])
    def test_component_matches_float_row_merge(self, size, level):
        keys, weights = _component_local(size, level)
        want_keys, want_weights = _float_row_merge(size, tuple(range(1, level + 1)), level, 2)
        assert np.array_equal(keys, want_keys) and np.array_equal(weights, want_weights)

    @pytest.mark.parametrize(
        "size, schedule, level",
        [
            (3, SCHEDULES["odd"] + (25, 27), 14),
            (2, SCHEDULES["growing"] + (69, 81), 14),
            # 131 distinct nodes in 10 coordinates: 131**10 >= 2**63, so the
            # rows are keyed as byte strings instead of int64
            (10, (1, 2, 128), 12),
        ],
    )
    def test_smolyak_matches_float_row_merge(self, size, schedule, level):
        top = level - (size - 1)
        values = {x for m in schedule[:top] for x in gauss_hermite_rule(m).nodes.tolist()}
        wide = len(values) ** size >= 2**63
        assert wide == (size == 10)
        keys, weights = _merged_terms(size, schedule, level, lowest=1)
        want_keys, want_weights = _float_row_merge(size, schedule, level, 1)
        assert np.array_equal(keys, want_keys) and np.array_equal(weights, want_weights)

    def test_component_is_empty_below_twice_its_size(self):
        # every factor Delta_k of a component term has k >= 2, so |k|_1 >= 2 |u|
        for size in range(1, 6):
            for level in range(1, 17):
                assert (_component_local(size, level)[1].size > 0) == (level >= 2 * size), (size, level)

    def test_difference_rules_are_cached_sparse_rules(self):
        for schedule in SCHEDULES.values():
            for k, (prev, m) in enumerate(zip((0,) + schedule, schedule), start=1):
                nodes, weights = _difference_rule(prev, m)
                assert not (nodes.flags.writeable or weights.flags.writeable)
                assert _difference_rule(prev, m)[0] is nodes
                assert np.unique(nodes).size == nodes.size
                want = {x: w for x, w in _reference_difference(schedule, k) if w != 0.0}
                assert dict(zip(nodes.tolist(), weights.tolist())) == want

    def test_component_rows_count_the_stacked_terms(self):
        for size in range(1, 5):
            for level in range(0, 15):
                sizes = {k: len(_reference_difference(tuple(range(1, level + 1)), k)) for k in range(2, level + 1)}
                want = sum(math.prod(sizes[k] for k in ks) for ks in _level_vectors(size, level))
                assert _component_rows(size, level) == want, (size, level)

    def test_acceptance_curve_costs(self):
        gen = KernelGenerator.hermite_twin_of_gaussian(ParamRule.parse("j^-1.5"))
        model = CostModel.dollar([float(1 + m) for m in range(24)])
        budgets = [10.0, 31.6, 100.0, 316.0, 1000.0, 3162.0, 10000.0, 31623.0, 100000.0]
        costs = [mdm_build(gen, b, model, max_coord=512, pool_size=2048).cost for b in budgets]
        assert costs == [9, 25, 89, 293, 965, 3097, 9873, 31373, 99513]


class TestParamRule:
    def test_parse_power(self):
        rule = ParamRule.parse("j^-1.5")
        assert rule.kind == "power" and rule.a == 1.5
        assert rule.value(4) == pytest.approx(0.125, rel=1e-15)

    def test_parse_geometric(self):
        rule = ParamRule.parse("0.5^j")
        assert rule.kind == "geometric"
        assert rule.value(3) == pytest.approx(0.125, rel=1e-15)

    def test_parse_rejects_garbage(self):
        for bad in ("j^1.5", "2^j", "exp(-j)", "j**-2"):
            with pytest.raises(DomainError):
                ParamRule.parse(bad)

    def test_tail_power_sum_bounds(self):
        rule = ParamRule.parse("j^-1.5")
        for start in (2, 10, 50):
            exact = sum(float(j) ** -3.0 for j in range(start, 200000))
            bound = rule.tail_power_sum(start, 2.0)
            assert exact <= bound <= exact * 3.0
        geo = ParamRule.parse("0.5^j")
        assert geo.tail_power_sum(3, 2.0) == pytest.approx(0.25**3 / (1 - 0.25), rel=1e-14)

    def test_generator_summability(self):
        with pytest.raises(DomainError):
            KernelGenerator.gaussian(ParamRule.parse("j^-0.4"))
        with pytest.raises(DomainError):
            KernelGenerator.hermite(ParamRule.parse("j^-1.0"))

    @pytest.mark.parametrize("a", [math.nan, math.inf, -math.inf])
    def test_power_exponent_must_be_finite(self, a):
        # a NaN sigma_j would read as an underflowed one, beta_j = 0, in score_betas
        with pytest.raises(DomainError):
            ParamRule("power", a)

    @pytest.mark.parametrize("text", ["j^-1.5", "j^-3"])
    def test_hermite_generator_rejects_power_rules(self, text):
        # every power rule gives beta_1 = 1^-p = 1, outside the Hermite spaces (beta < 1)
        with pytest.raises(DomainError):
            KernelGenerator.hermite(ParamRule.parse(text))


GENERATORS = [
    KernelGenerator.hermite_twin_of_gaussian(ParamRule.parse("j^-1.5")),
    KernelGenerator.gaussian(ParamRule.parse("0.6^j")),
    KernelGenerator.hermite(ParamRule.parse("0.4^j")),
]


def _long_double_e2(rule, beta):
    """1 - 2 sum w + w^T K w of a rule on a Hermite space, by node pairs in
    long double (the dense Gram identity, grouped by support)."""
    ld = np.longdouble
    beta = np.asarray(beta, dtype=ld)
    ratio = {}  # per coordinate: k(x, y) / k(0, 0) on the distinct values, and each node's value
    for c in range(rule.dimension):
        values, where = np.unique(rule.nodes[:, c], return_inverse=True)
        x, b = values.astype(ld)[:, None], beta[c]
        expo = -(b * b * (x * x + x.T * x.T) - 2 * b * x * x.T) / (2 * (1 - b * b))
        ratio[c] = (np.exp(expo), where)
    rows_by_support = {}
    for i, row in enumerate(rule.nodes):
        rows_by_support.setdefault(tuple(np.flatnonzero(row)), []).append(i)
    groups = [
        (supp, np.array(rows), rule.weights[rows].astype(ld))
        for supp, rows in rows_by_support.items()
    ]
    quad = ld(0)
    for a, (supp_a, rows_a, w_a) in enumerate(groups):
        for supp_b, rows_b, w_b in groups[a:]:
            block = np.ones((rows_a.size, rows_b.size), dtype=ld)
            for c in sorted(set(supp_a) | set(supp_b)):
                table, where = ratio[c]
                block *= table[np.ix_(where[rows_a], where[rows_b])]
            part = w_a @ block @ w_b
            quad += part if supp_a == supp_b else 2 * part
    g0 = np.prod(1 / np.sqrt(1 - beta * beta))
    return 1 - 2 * np.sum(rule.weights.astype(ld)) + g0 * quad


PLAN_DEFECTS = {
    "cost-nan": lambda blob: blob.update(cost=math.nan),
    "cost-inf": lambda blob: blob.update(cost=math.inf),
    "cost-missing": lambda blob: blob.pop("cost"),
    "sets-missing": lambda blob: blob.pop("active_sets"),
    "budget-missing": lambda blob: blob["budgets"].pop(),
    "budget-negative": lambda blob: blob["budgets"].__setitem__(0, -1),
    "budget-float": lambda blob: blob["budgets"].__setitem__(0, 2.5),
    "set-decreasing": lambda blob: blob["active_sets"].__setitem__(1, [1, 0]),
    "set-repeated": lambda blob: blob["active_sets"].__setitem__(1, [0, 0]),
    "set-negative": lambda blob: blob["active_sets"].__setitem__(0, [-1]),
    "set-beyond-dimension": lambda blob: blob["active_sets"].__setitem__(1, [0, 2]),
    "set-empty": lambda blob: blob["active_sets"].__setitem__(0, []),
    "levels-missing": lambda blob: blob.pop("levels"),
    "level-changed": lambda blob: blob["levels"].__setitem__(0, 4),
    "level-float": lambda blob: blob["levels"].__setitem__(0, 3.0),
    "level-empty-component": lambda blob: blob["levels"].__setitem__(1, 3),
    "sets-unordered": lambda blob: blob.update(
        active_sets=blob["active_sets"][::-1], levels=blob["levels"][::-1]
    ),
    "set-duplicated": lambda blob: blob["active_sets"].__setitem__(0, [0, 1]),
    "older-format": lambda blob: None,
    "node-changed": lambda blob: blob["flattened"]["nodes"][1].__setitem__(0, 0.5),
    "weight-changed": lambda blob: blob["flattened"]["weights"].__setitem__(1, 0.25),
    "budget-disagrees-with-level": lambda blob: blob["budgets"].__setitem__(0, 4),
    "budgets-without-rule": lambda blob: blob.pop("flattened"),
    "rule-without-budgets": lambda blob: blob.pop("budgets"),
    # the rule, or the budgets and rule, of the plan at levels {(0,): 5, (0, 1): 6}
    "rule-of-another-plan": lambda blob: blob.update(flattened=_older_blob(_OTHER_PLAN)["flattened"]),
    "budgets-and-rule-of-another-plan": lambda blob: blob.update(
        budgets=list(_OTHER_PLAN.budgets), flattened=_older_blob(_OTHER_PLAN)["flattened"]
    ),
}
OVERSIZED_PLAN = '{"active_sets": [[0, 1, 2, 3, 4, 5]], "levels": [40], "cost": 1.0}'
_OTHER_PLAN = assemble_mdm_plan({(0,): 5, (0, 1): 6}, CostModel.unit())
# defects applied to the older format, which also stored the budgets and the
# dense rule: such a file is refused whether or not they match, with budgets
# alone ("budgets-without-rule"), the rule alone ("rule-without-budgets"),
# or both, as the exact older output of a valid plan ("older-format")
OLDER_FORMAT = {
    "older-format", "budget-missing", "budget-negative", "budget-float", "budget-disagrees-with-level",
    "node-changed", "weight-changed", "set-beyond-dimension", "level-changed",
    "budgets-without-rule", "rule-without-budgets", "rule-of-another-plan",
    "budgets-and-rule-of-another-plan",
}
FRACTIONAL_DOLLARS = CostModel.dollar(
    [1.1, 1.7, 2.3, 3.1, 4.3, 5.9, 7.7, 9.1, 11.3, 13.7, 16.1, 19.3, 23.9, 29.7, 37.1, 45.3]
)


def _older_blob(plan):
    """A plan as the older JSON format saved it: with its budgets and dense rule."""
    blob = json.loads(json.dumps(plan.to_json()))
    blob.update(budgets=list(plan.budgets), flattened=plan.flattened.to_json())
    return blob


def _reference_greedy(gen, budget, model, max_coord, pool_size):
    """The greedy loop that grants every level from |u| + 1 on, the empty
    components of levels below 2|u| included, one heap pop each.

    Returns the plan and the number of grants of an empty component.
    """
    betas = gen.score_betas(max_coord).tolist()

    def comp(u, q):
        counts = _component_counts(len(u), q)
        return model.charge_rows(counts), counts.size

    remaining, chosen, options, empty = budget - model.charge_rows([0]), {}, [], 0

    def push(u, q, dcost, dsize, score, beta_u, dpe):
        ratio = math.inf if dcost <= 0 else dpe / dcost
        heapq.heappush(options, (-ratio, u, q, dcost, dsize, score, beta_u))

    for u, score in _subset_pool(betas, max_coord, pool_size):
        beta_u = max(betas[c] for c in u)
        push(u, len(u) + 1, *comp(u, len(u) + 1), score, beta_u, score * (1.0 - beta_u))
    while options:
        _, u, q, dcost, dsize, score, beta_u = heapq.heappop(options)
        if dcost > remaining:
            continue
        remaining -= dcost
        chosen[u] = q
        (cost, size), (nxt_cost, nxt_size) = comp(u, q), comp(u, q + 1)
        empty += size == 0
        dpe = score * beta_u ** (q - len(u)) * (1.0 - beta_u)
        push(u, q + 1, nxt_cost - cost, nxt_size - size, score, beta_u, dpe)
    return assemble_mdm_plan(chosen, model), empty


class _CountingHeap:
    """``heapq`` for :func:`mdm_build` that records the (set, level) of every popped upgrade."""

    heappush = staticmethod(heapq.heappush)

    def __init__(self):
        self.popped = []

    def heappop(self, heap):
        item = heapq.heappop(heap)
        if len(item) > 2:  # not a candidate-pool entry
            self.popped.append(item[1:3])
        return item


class TestGreedyPlanner:
    @pytest.mark.parametrize("model", [CostModel.unit(), CostModel.dollar([float(1 + m) for m in range(24)]),
                                       FRACTIONAL_DOLLARS], ids=["unit", "dollar", "fractional-dollars"])
    @pytest.mark.parametrize("gen", [
        KernelGenerator.hermite_twin_of_gaussian(ParamRule.parse("j^-1.5")),
        KernelGenerator.hermite_twin_of_gaussian(ParamRule.parse("0.5^j")),
        KernelGenerator.gaussian(ParamRule.parse("0.6^j")),
        KernelGenerator.hermite(ParamRule.parse("0.4^j")),
    ], ids=["twin-power", "twin-geometric", "gaussian", "hermite"])
    def test_sets_enter_at_twice_their_size(self, gen, model, monkeypatch):
        # entering at level 2|u| skips only free grants of empty components,
        # so the plan equals that of the loop that grants them one by one
        heap = _CountingHeap()
        monkeypatch.setattr(algorithms, "heapq", heap)
        for budget in (12.0, 150.0, 2000.0):
            want, empty = _reference_greedy(gen, budget, model, 16, 64)
            plan = mdm_build(gen, budget, model, max_coord=16, pool_size=64)
            assert (plan.active_sets, plan.levels, plan.cost.hex()) == (
                want.active_sets, want.levels, want.cost.hex()
            )
            assert empty > 0
        assert heap.popped and all(_component_local(len(u), q)[1].size for u, q in heap.popped)

    def test_levels_stop_at_the_largest_rule(self, monkeypatch):
        # a set whose next level needs a rule beyond MAX_RULE_SIZE points is done
        monkeypatch.setattr(hermite, "MAX_RULE_SIZE", 20)
        gen = KernelGenerator.hermite(ParamRule.parse("0.5^j"))
        plan = mdm_build(gen, 1e4, CostModel.unit(), max_coord=2, pool_size=3)
        assert plan.active_sets == ((0,), (0, 1), (1,))
        assert plan.levels == (20, 22, 20)  # top rule q - 2 (|u| - 1) = 20
        assert plan.cost <= 1e4

    def test_one_coordinate_climb_builds_each_difference_rule_once(self, monkeypatch):
        # the levels of a climb share the cached rules Delta_k, which hold their
        # 2k - 1 nodes only, so the memory held stays far below one dense table
        monkeypatch.setattr(algorithms, "_LOCAL_COMPONENT_CACHE", {})
        algorithms._difference_rule.cache_clear()
        gen = KernelGenerator.hermite(ParamRule.parse("0.5^j"))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            plan = mdm_build(gen, 120.0, CostModel.unit(), max_coord=1, pool_size=1)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert plan.levels == (119,)
        info = algorithms._difference_rule.cache_info()
        # Delta_1..Delta_120: the level-120 upgrade is costed, then does not fit
        assert info.misses == info.currsize == 120
        assert held < 5e6


_BLOCK_CHUNK = 2**21  # entries of one block slice of _mehler_tables and _pairwise_oracle (16 MB)


def _mehler_tables(rules, beta, sigma=None):
    """Reference tables Delta_k^T K Delta_l / K(0, 0) and Delta_k^T 1 of one
    coordinate's rules Delta_1..Delta_top: the rules laid out on their distinct
    nodes, against closed-form Mehler kernel blocks over all node pairs.  With
    ``sigma`` the rules are first moved to their Hermite twins: nodes e x and
    weights damped by phi(x) / phi(0)."""
    values = np.unique(np.concatenate([x for x, _ in rules]))
    diff = np.zeros((len(rules), values.size))
    for k, (x, w) in enumerate(rules):
        diff[k, np.searchsorted(values, x)] = w
    if sigma is not None:
        twin = transfer_quadrature_to_hermite(QuadratureRule(values[:, None], np.ones_like(values)), [sigma])
        values = twin.nodes[:, 0]
        diff *= twin.weights / twin.weights[np.flatnonzero(values == 0.0)[0]]
    k00 = float(hermite_kernel(beta, 0.0, 0.0))
    step = max(1, _BLOCK_CHUNK // values.size)
    quad = sum(
        diff[:, lo : lo + step] @ (hermite_kernel(beta, values[lo : lo + step, None], values[None, :]) / k00) @ diff.T
        for lo in range(0, values.size, step)
    )
    return quad, diff.sum(axis=1)


def _pairwise_oracle(groups, tables, vectors):
    """The forms of algorithms._pairwise_quadratic over all term-row pairs, O(T^2):
    sum over term-row pairs of prod_c tables[c][i_c, j_c], c in the union of the two
    supports, and sum over rows of prod_c vectors[c][i_c].

    Against a row of support S, column j carries the factor
    prod_{c in supp_j - S} tables[c][0, j_c] whatever the row, so each group
    computes that column vector once and multiplies in its own coordinates
    row by row, in blocks of at most ``_BLOCK_CHUNK`` entries.
    """
    lin = 0.0
    for supp, rows, w in groups:
        terms = w.copy()
        for j, c in enumerate(supp):
            terms *= vectors[c][rows[:, j]]
        lin += float(terms.sum())
    weights = np.concatenate([w for _, _, w in groups])
    n = weights.size
    width = max(len(supp) for supp, _, _ in groups)
    coord = np.full((n, width), -1)  # the support of every column, padded
    index = np.zeros((n, width), dtype=np.intp)
    anchor = np.ones((n, width))  # tables[c][0, j_c] for every active c of column j
    start = 0
    for supp, rows, _ in groups:
        span = slice(start, start + rows.shape[0])
        for j, c in enumerate(supp):
            coord[span, j] = c
            index[span, j] = rows[:, j]
            anchor[span, j] = tables[c][0, rows[:, j]]
        start += rows.shape[0]
    step = max(1, _BLOCK_CHUNK // n)
    quad = 0.0
    for supp, rows, w in groups:
        base = np.where(np.isin(coord, supp), 1.0, anchor).prod(axis=1)
        columns = [np.where(coord == c, index, 0).max(axis=1) for c in supp]
        for lo in range(0, rows.shape[0], step):
            block = np.tile(base, (min(step, rows.shape[0] - lo), 1))
            for j, c in enumerate(supp):
                block *= tables[c][np.ix_(rows[lo : lo + step, j], columns[j])]
            quad += float(w[lo : lo + step] @ block @ weights)
    return quad, lin


def _oracle_gap(plan, gen, monkeypatch, trunc=2048):
    """|e^2 of mdm_wce - e^2 with the pairwise oracle|, both on the Hermite side, and
    16 eps ||w||_1^2, with w the flattened weights (of the twin rule)."""
    value, _ = mdm_wce(plan, gen, trunc)
    with monkeypatch.context() as m:
        m.setattr(algorithms, "_pairwise_quadratic", _pairwise_oracle)
        want, _ = mdm_wce(plan, gen, trunc)
    prefactor, twin = 1.0, 1.0
    if gen.family == "gaussian":
        sigma = gen.params(trunc)
        constants = TransferConstants.integration(sigma[sigma > 0.0])
        prefactor, twin = constants.gauss_prefactor, float(np.prod(constants.e))
    w1 = max(1.0, twin * float(np.abs(algorithms._flat_weights(plan.active_sets, plan.levels)).sum()))
    return abs((value / prefactor) ** 2 - (want / prefactor) ** 2), 16 * np.finfo(float).eps * w1 * w1


# tops 60, 41, 17, 2 and 10 on coordinates 0..4
TABLE_PLAN = {(0,): 60, (1,): 41, (2,): 17, (3,): 2, (1, 4): 12}
TABLE_GENERATORS = {
    **{f"hermite-{a}": KernelGenerator.hermite(ParamRule.parse(f"{a}^j")) for a in ("0.3", "0.5", "0.9")},
    "twin-j^-1.5": KernelGenerator.hermite_twin_of_gaussian(ParamRule.parse("j^-1.5")),
    "twin-0.5^j": KernelGenerator.hermite_twin_of_gaussian(ParamRule.parse("0.5^j")),
    "gaussian-j^-1.5": KernelGenerator.gaussian(ParamRule.parse("j^-1.5")),
}
ERROR_TYPES = tuple(
    v for v in vars(errors).values() if isinstance(v, type) and issubclass(v, Exception) and v.__module__ == errors.__name__
)


class TestMdm:
    model = CostModel.dollar([float(1 + m) for m in range(24)])
    gen = KernelGenerator.hermite_twin_of_gaussian(ParamRule.parse("j^-1.5"))

    def test_anchor_only_plan(self):
        plan = mdm_build(self.gen, 1.0, self.model, max_coord=8, pool_size=16)
        assert plan.active_sets == ()
        assert plan.flattened.nodes.tolist() == [[0.0]]
        assert plan.flattened.weights.tolist() == [1.0]
        assert plan.cost == 1.0
        value, tail = mdm_wce(plan, self.gen, trunc=512)
        betas = self.gen.params(512)
        k00 = float(np.prod((1.0 - betas**2) ** -0.5))
        assert value == pytest.approx(math.sqrt(k00 - 1.0), rel=1e-10)
        assert tail > 0.0

    def test_budget_below_anchor(self):
        with pytest.raises(BudgetError):
            mdm_build(self.gen, 0.5, self.model)

    @pytest.mark.parametrize("budget", [math.nan, math.inf, -math.inf])
    def test_non_finite_budget_rejected(self, budget):
        # a NaN or infinite budget never runs out, so the greedy loop would not end
        with pytest.raises(DomainError):
            mdm_build(self.gen, budget, self.model, max_coord=8, pool_size=16)

    @pytest.mark.parametrize(
        "model, max_coord, pool_size",
        [(CostModel.unit(), 64, 256), (model, 64, 256), (FRACTIONAL_DOLLARS, 16, 64)],
        ids=["unit", "dollar", "fractional-dollars"],
    )
    def test_cost_accounting_resums(self, model, max_coord, pool_size):
        # the cost is summed without the dense rule, in the order of its rows
        for budget in (10.0, 100.0, 1000.0):
            plan = mdm_build(self.gen, budget, model, max_coord=max_coord, pool_size=pool_size)
            assert plan.cost.hex() == rule_cost(plan.flattened, model).hex()
            assert plan.cost <= budget

    def test_short_dollar_table_skips_unpriced_sets(self):
        # dollar(0), dollar(1) price singletons only; pairs are never candidates
        plan = mdm_build(self.gen, 100.0, CostModel.dollar([1.0, 2.0]), max_coord=8, pool_size=16)
        assert plan.active_sets and all(len(u) == 1 for u in plan.active_sets)

    def test_size_guard(self, monkeypatch):
        from rkhsquad import algorithms

        # the budget guards the dense rule only: the planner holds no node count
        plan = mdm_build(self.gen, 1000.0, self.model, max_coord=64, pool_size=256)
        rows = plan.flattened.n
        monkeypatch.setattr(algorithms, "TENSOR_BUDGET", rows)
        assert plan.flattened.n == rows
        monkeypatch.setattr(algorithms, "TENSOR_BUDGET", rows - 1)
        assert mdm_build(self.gen, 1000.0, self.model, max_coord=64, pool_size=256) == plan
        with pytest.raises(BudgetError, match=f"holds {rows} nodes"):
            plan.flattened

    def test_build_and_wce_never_flatten(self, monkeypatch):
        from rkhsquad import algorithms

        plan = mdm_build(self.gen, 1000.0, self.model, max_coord=64, pool_size=256)
        value = mdm_wce(plan, self.gen, trunc=256)

        def refuse(*args):
            raise AssertionError("the dense rule was built")

        monkeypatch.setattr(algorithms, "_flatten_components", refuse)
        again = mdm_build(self.gen, 1000.0, self.model, max_coord=64, pool_size=256)
        assert again == plan and mdm_wce(again, self.gen, trunc=256) == value
        with pytest.raises(AssertionError):
            again.flattened

    def test_equal_score_tie_breaks_lexicographically(self):
        # exact score ties order by the set tuple, smaller set first
        from rkhsquad.algorithms import _subset_pool

        pool = _subset_pool([0.5, 0.5, 0.5, 0.5], 4, 8)
        assert [u for u, _ in pool] == [
            (0,), (1,), (2,), (3,), (0, 1), (0, 2), (0, 3), (1, 2),
        ]

    @pytest.mark.parametrize("gen", [
        KernelGenerator.hermite(ParamRule.parse("1e-200^j")),
        KernelGenerator.hermite_twin_of_gaussian(ParamRule.parse("1e-10^j")),
        KernelGenerator.gaussian(ParamRule.parse("1e-10^j")),
    ], ids=["hermite", "twin", "gaussian"])
    def test_pool_stops_at_underflowed_scores(self, gen):
        # far out beta_j underflows to 0, so every later subset scores 0
        betas = gen.score_betas(512).tolist()
        assert betas[-1] == 0.0
        pool = _subset_pool(betas, 512, 2048)
        assert pool and all(score > 0.0 for _, score in pool)
        value, tail = mdm_wce(mdm_build(gen, 100.0, CostModel.unit()), gen)
        assert math.isfinite(value) and math.isfinite(tail)

    def test_build_is_deterministic(self):
        a = mdm_build(self.gen, 200.0, self.model, max_coord=16, pool_size=64)
        b = mdm_build(self.gen, 200.0, self.model, max_coord=16, pool_size=64)
        assert a.active_sets == b.active_sets and a.levels == b.levels
        assert np.array_equal(a.flattened.nodes, b.flattened.nodes)
        assert np.array_equal(a.flattened.weights, b.flattened.weights)

    def test_apply_constant(self):
        plan = mdm_build(self.gen, 50.0, self.model, max_coord=16, pool_size=64)
        assert plan.flattened.apply(lambda x: 1.0) == pytest.approx(1.0, abs=1e-13)

    def test_apply_odd_function(self):
        plan = mdm_build(self.gen, 50.0, self.model, max_coord=16, pool_size=64)
        assert plan.flattened.apply(lambda x: x[0]) == pytest.approx(0.0, abs=1e-14)

    def test_apply_square(self):
        plan = mdm_build(self.gen, 50.0, self.model, max_coord=16, pool_size=64)
        assert plan.flattened.apply(lambda x: x[0] ** 2) == pytest.approx(1.0, rel=1e-12)

    def test_two_path_agreement(self):
        plan = mdm_build(self.gen, 120.0, self.model, max_coord=16, pool_size=64)
        rng = np.random.default_rng(8)
        dim = plan.flattened.dimension
        for _ in range(50):
            coeffs = rng.normal(size=(dim, 3))

            def f(x):
                return float(
                    np.prod([coeffs[j] @ (1.0, x[j], x[j] ** 2) for j in range(dim)])
                )

            flat = plan.flattened.apply(f)
            comp = _mdm_by_components(plan, f)
            assert comp == pytest.approx(flat, rel=1e-12, abs=1e-12)

    def test_univariate_exponential_convergence(self):
        # errors of the n-point rules sit under an explicit exponential
        # envelope all the way to n = 200; the computable floor of the
        # transferred spectral path (~1e-15) stays below the envelope
        spec = KernelSpec.gaussian((1.0,))
        ns = np.arange(1, 201, 7)
        errors = np.array([gh_error_on_space(int(n), spec)[0] for n in ns])
        assert np.all(errors <= np.exp(-0.15 * ns))
        resolvable = errors > 1e-12
        slope = np.polyfit(ns[resolvable], np.log(errors[resolvable]), 1)[0]
        assert slope <= -0.35  # close to the true rate ln(3/2) for sigma = 1

    @pytest.mark.parametrize("gen", GENERATORS)
    def test_wce_tail_decreases_in_trunc(self, gen):
        # from trunc 128 on, geometric rules keep only the tail of the degree cut
        plan = mdm_build(gen, 100.0, self.model, max_coord=8, pool_size=64)
        (v1, t1), (_, t2), (v3, t3) = (mdm_wce(plan, gen, trunc=t) for t in (12, 128, 1024))
        assert t1 > 0.0
        assert t3 <= t2 <= t1
        assert abs(v1 - v3) <= t1

    def test_single_active_set_beats_anchor_only(self):
        anchor_only = assemble_mdm_plan({}, self.model)
        with_one = assemble_mdm_plan({(0,): 3}, self.model)
        v0, _ = mdm_wce(anchor_only, self.gen, trunc=512)
        v1, _ = mdm_wce(with_one, self.gen, trunc=512)
        assert v1 <= v0

    def test_active_coordinate_beyond_trunc_rejected(self):
        plan = assemble_mdm_plan({(5,): 2}, self.model)
        with pytest.raises(ShapeMismatchError):
            mdm_wce(plan, self.gen, trunc=4)

    def test_json_contract(self):
        plan = mdm_build(self.gen, 30.0, self.model, max_coord=8, pool_size=16)
        blob = plan.to_json()
        assert set(blob) == {"active_sets", "levels", "cost"}
        again = MdmPlan.from_json(blob)
        assert again == plan
        assert np.array_equal(again.flattened.nodes, plan.flattened.nodes)

    def test_json_holds_no_rule(self):
        plan = mdm_build(self.gen, 1e4, self.model, max_coord=512, pool_size=2048)
        assert len(json.dumps(plan.to_json())) < 10_000

    @pytest.mark.parametrize("defect", sorted(PLAN_DEFECTS))
    def test_from_json_rejects_bad_plans(self, defect):
        plan = assemble_mdm_plan({(0,): 3, (0, 1): 6}, self.model)
        blob = json.loads(json.dumps(plan.to_json()))
        MdmPlan.from_json(blob)
        if defect in OLDER_FORMAT:
            blob = _older_blob(plan)
        PLAN_DEFECTS[defect](blob)
        with pytest.raises(DomainError, match="older format" if defect in OLDER_FORMAT else None):
            MdmPlan.from_json(blob)

    @pytest.mark.parametrize(
        "text",
        ["5", "[]", '"plan"', "null", "{", '{"active_sets": 5, "levels": [], "cost": 1}'],
    )
    def test_from_json_rejects_malformed_input(self, text):
        with pytest.raises(DomainError):
            MdmPlan.from_json(text)
        if text != "{":
            with pytest.raises(DomainError):
                MdmPlan.from_json(json.loads(text))

    @pytest.mark.parametrize(
        "make",
        [
            lambda: MdmPlan.from_json(OVERSIZED_PLAN),
            lambda: MdmPlan(((0, 1, 2, 3, 4, 5),), (40,), 1.0),
            lambda: assemble_mdm_plan({(0, 1, 2, 3, 4, 5): 40}, CostModel.unit()),
        ],
        ids=["from_json", "constructor", "assemble"],
    )
    def test_oversized_component_raises_before_it_is_built(self, make):
        # the component's tensor terms stack 814,619,723,352 rows: counted, never built
        start = time.perf_counter()
        with pytest.raises(BudgetError, match="814619723352 rows"):
            make()
        assert time.perf_counter() - start < 1.0
        assert (6, 40) not in algorithms._LOCAL_COMPONENT_CACHE

    def test_json_plan_past_the_node_budget_flattens_to_a_refusal(self):
        # 60 disjoint pairs at level 40: each component stacks 402,819 rows and merges
        # to 20,445, so the plan loads, but its dense rule would hold 1,226,641 rows
        plan = MdmPlan.from_json({"active_sets": [[2 * i, 2 * i + 1] for i in range(60)],
                                  "levels": [40] * 60, "cost": 0.0})
        assert _component_rows(2, 40) == 402_819 and plan.budgets[0] == 20_445
        tracemalloc.start()
        try:
            with pytest.raises(BudgetError, match="1226641 nodes"):
                plan.flattened
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 50e6  # the node matrix alone would take 1.2 GB

    def test_flattened_rule_holds_one_node_matrix(self):
        # the rule keeps the node matrix it is built in, and checks it finite without a
        # temporary of its size: the flatten peaks at that matrix, not at twice it
        plan = mdm_build(self.gen, 31623.0, self.model)
        plan.budgets  # builds every component, so the flatten below only fills the matrix
        tracemalloc.start()
        try:
            rule = plan.flattened
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rule.nodes.shape == (10_775, 140)
        assert peak <= 1.1 * rule.nodes.nbytes

    def test_levels_match_active_sets(self):
        plan = assemble_mdm_plan({(0,): 3, (0, 1): 6}, self.model)
        with pytest.raises(DomainError):
            MdmPlan(plan.active_sets, plan.levels[:1], plan.cost)

    @pytest.mark.parametrize(
        "sets, levels",
        [(((0, 1),), (3,)), (((0,), (0,)), (3, 3)), (((1,), (0,)), (3, 3)), (((0,),), (-1,))],
        ids=["empty-component", "duplicate", "unordered", "negative-level"],
    )
    def test_inconsistent_plan_cannot_be_constructed(self, sets, levels):
        # level 3 is below 2|u| for u = (0, 1): every tensor term of its component is missing
        with pytest.raises(DomainError):
            MdmPlan(sets, levels, 1.0)

    def test_anchor_evaluated_once(self):
        levels = {(0,): 2, (1,): 2}
        plan = assemble_mdm_plan(levels, self.model)
        # each component's anchor row folds into the single f(0) row
        anchor_rows = np.flatnonzero(~plan.flattened.nodes.any(axis=1))
        assert anchor_rows.tolist() == [0]
        folded = 0.0
        for u, q in levels.items():
            keys, weights = _component_local(len(u), q)
            folded += float(weights[~keys.any(axis=1)].sum())
        assert folded != 0.0
        assert plan.flattened.weights[0] == 1.0 + folded
        f = lambda x: 1.3 + x[0] ** 2 - 0.4 * x[1] ** 2
        assert plan.flattened.apply(f) == pytest.approx(_mdm_by_components(plan, f), rel=1e-13)

    @pytest.mark.parametrize("gen", GENERATORS)
    def test_wce_matches_dense_finite_computation(self, gen):
        # the grouped active-coordinate evaluation equals the plain Gram
        # identity against the finite prefix kernel, padded with anchors
        plan = mdm_build(gen, 60.0, self.model, max_coord=5, pool_size=32)
        trunc = 6
        value, _ = mdm_wce(plan, gen, trunc=trunc)
        padded = np.zeros((plan.flattened.n, trunc))
        padded[:, : plan.flattened.dimension] = plan.flattened.nodes
        from rkhsquad.worst_case import QuadratureRule

        spec = KernelSpec(gen.family if gen.family == "gaussian" else "hermite", tuple(gen.params(trunc)))
        dense = wce_integration(QuadratureRule(padded, plan.flattened.weights), spec)
        assert value == pytest.approx(dense, rel=1e-11)

    @pytest.mark.parametrize("budget", [60.0, 300.0, 1000.0])
    @pytest.mark.parametrize("gen", GENERATORS)
    def test_json_round_trip_is_bit_identical(self, gen, budget):
        # a loaded plan carries its levels, so it is evaluated by the same tensor terms
        plan = mdm_build(gen, budget, self.model, max_coord=64, pool_size=256)
        loaded = MdmPlan.from_json(json.dumps(plan.to_json()))
        assert loaded.levels == plan.levels and loaded.budgets == plan.budgets
        assert mdm_wce(loaded, gen, trunc=256) == mdm_wce(plan, gen, trunc=256)

    @pytest.mark.parametrize("argument", ["max_coord", "pool_size"])
    @pytest.mark.parametrize("bad", [0, -2])
    @pytest.mark.parametrize("gen", GENERATORS)
    def test_build_rejects_empty_candidate_pool(self, gen, bad, argument):
        with pytest.raises(DomainError, match=argument):
            mdm_build(gen, 100.0, self.model, **{"max_coord": 8, "pool_size": 16, argument: bad})

    @pytest.mark.skipif(np.finfo(np.longdouble).nmant <= 52, reason="long double is double here")
    def test_term_path_matches_long_double_at_1e4(self):
        plan = mdm_build(self.gen, 1e4, self.model, max_coord=512, pool_size=2048)
        value, _ = mdm_wce(plan, self.gen, trunc=2048)
        reference = _long_double_e2(plan.flattened, self.gen.params(2048))
        assert value**2 == pytest.approx(float(reference), rel=1e-7)

    def test_unit_cost_model_build(self):
        plan = mdm_build(self.gen, 25.0, CostModel.unit(), max_coord=8, pool_size=32)
        assert plan.cost == plan.flattened.n
        assert plan.cost <= 25.0
        assert plan.flattened.apply(lambda x: 1.0) == pytest.approx(1.0, abs=1e-13)

    def test_gaussian_generator_measurement(self):
        gen_g = KernelGenerator.gaussian(ParamRule.parse("0.5^j"))
        plan = mdm_build(gen_g, 40.0, self.model, max_coord=8, pool_size=32)
        value, tail = mdm_wce(plan, gen_g, trunc=256)
        assert 0.0 <= value < 1.0
        # anchor-only comparison on the Gaussian side
        anchor = assemble_mdm_plan({}, self.model)
        v0, _ = mdm_wce(anchor, gen_g, trunc=256)
        assert value <= v0

    def test_gaussian_twins_build_one_constant_set(self, monkeypatch):
        # one set gives E, the initial error and every plan coordinate's e_c
        gen = KernelGenerator.gaussian(ParamRule.parse("j^-1.5"))
        plan = mdm_build(gen, 31623.0, CostModel.dollar([float(m) for m in range(1, 25)]))
        assert len({c for u in plan.active_sets for c in u}) == 140
        calls = _count_integration_constants(monkeypatch)
        mdm_wce(plan, gen)
        assert len(calls) == 1

    @pytest.mark.parametrize("name", sorted(TABLE_GENERATORS))
    def test_one_recurrence_pass_per_evaluation(self, name, monkeypatch):
        # every coordinate's moments, twinned or not, come from one pass over all rules
        gen, passes, stream = TABLE_GENERATORS[name], [], hermite._hermite_blocks
        plan = assemble_mdm_plan(TABLE_PLAN, CostModel.unit())
        monkeypatch.setattr(hermite, "_hermite_blocks", lambda *args: passes.append(args[0]) or stream(*args))
        mdm_wce(plan, gen, trunc=64)
        assert len(passes) == 1

    def test_gaussian_coordinate_past_underflow_is_a_domain_error(self):
        # sigma_1101 = 0.5^1101 underflows to 0, and a zero shape parameter has no twin
        gen = KernelGenerator.gaussian(ParamRule.parse("0.5^j"))
        plan = assemble_mdm_plan({(1100,): 3, (0,): 4}, CostModel.unit())
        with pytest.raises(DomainError):
            mdm_wce(plan, gen)

    @pytest.mark.parametrize("name", sorted(TABLE_GENERATORS))
    def test_moment_tables_match_mehler_blocks(self, name, monkeypatch):
        # the tables mdm_wce builds from Hermite moments equal the closed-form
        # Mehler kernel over all node pairs, for each coordinate's top
        gen, seen = TABLE_GENERATORS[name], []
        library = algorithms._tables
        monkeypatch.setattr(algorithms, "_tables", lambda *args: seen.append(library(*args)) or seen[-1])
        mdm_wce(assemble_mdm_plan(TABLE_PLAN, CostModel.unit()), gen, trunc=64)
        # one call for every family
        ((quad, lin, cut),) = seen
        assert 0.0 <= cut < 1e-20
        betas, sigma = gen.score_betas(64), gen.params(64)
        for c, top in {0: 60, 1: 41, 2: 17, 3: 2, 4: 10}.items():
            rules = [_difference_rule(k - 1, k) for k in range(1, top + 1)]
            want_quad, want_lin = _mehler_tables(rules, betas[c], sigma[c] if gen.family == "gaussian" else None)
            assert quad[c].shape == (top, top)
            assert np.abs(quad[c] - want_quad).max() <= 1e-14, c
            assert np.abs(lin[c] - want_lin).max() <= 1e-14, c

    def test_degree_cut_past_the_cap_widens_the_tail(self, monkeypatch):
        # beta_1 = 0.99 stays under hermite.MAX_DEGREE and matches the Mehler-block
        # tables; with the cap lowered to 512 the cut binds, and value +- tail holds
        # the uncapped value
        gen = KernelGenerator.hermite(ParamRule.parse("0.99^j"))
        plan = mdm_build(gen, 1e3, CostModel.unit())
        value, tail = mdm_wce(plan, gen)
        assert tail <= 1e-10 * value

        def mehler(rules, spans, betas):
            quad, lin = {}, {}
            for c, (a, t) in spans.items():
                quad[c], lin[c] = _mehler_tables(rules[a : a + t], betas[c])
            return quad, lin, 0.0

        with monkeypatch.context() as m:
            m.setattr(algorithms, "_tables", mehler)
            assert value == pytest.approx(mdm_wce(plan, gen)[0], rel=1e-10)
        monkeypatch.setattr(hermite, "MAX_DEGREE", 512)
        capped, capped_tail = mdm_wce(plan, gen)
        assert capped_tail > value
        assert abs(capped - value) <= capped_tail

    def test_beta_095_tail_below_the_error(self):
        # the per-entry cut sits far below the error of a beta_1 = 0.95 plan
        gen = KernelGenerator.hermite(ParamRule.parse("0.95^j"))
        value, tail = mdm_wce(mdm_build(gen, 1e3, CostModel.unit()), gen)
        assert tail < 1e-10 * value

    def test_level_239_component_is_fast(self):
        # one coordinate climbed to Delta_239: 239 tensor terms over 28,561 distinct nodes
        gen = KernelGenerator.hermite(ParamRule.parse("0.5^j"))
        plan = mdm_build(gen, 240, CostModel.unit(), max_coord=1, pool_size=1)
        assert plan.levels == (239,)
        start = time.perf_counter()
        value, _ = mdm_wce(plan, gen, trunc=64)
        assert time.perf_counter() - start < 5.0
        assert value == pytest.approx(0.20899450097754352, rel=1e-10)

    def test_tail_past_trunc_overflow_is_typed(self):
        # beta_65 = 0.999^65 = 0.938 leaves a tail sum whose exponential bound overflows
        gen = KernelGenerator.hermite(ParamRule.parse("0.999^j"))
        plan = mdm_build(gen, 1e3, CostModel.unit(), max_coord=64)
        with pytest.raises(NumericalConsistencyError, match="tail bound .* past trunc = 64 overflows"):
            mdm_wce(plan, gen, trunc=64)

    def test_wce_is_finite_or_typed(self):
        # random small plans, generators up to beta_1 = 0.999 and three truncations:
        # every call returns a finite value and tail, or raises an rkhsquad error
        rng = np.random.default_rng(20)
        rules = ["j^-0.6", "j^-1.5", "j^-3", "0.2^j", "0.7^j", "0.95^j"]
        returned = 0
        for _ in range(300):
            kind = rng.integers(3)
            if kind == 0:
                gen = KernelGenerator.hermite(ParamRule("geometric", float(rng.uniform(0.01, 0.999))))
            else:
                rule = ParamRule.parse(rules[rng.integers(len(rules))])
                gen = KernelGenerator.gaussian(rule) if kind == 1 else KernelGenerator.hermite_twin_of_gaussian(rule)
            levels = {}
            for _ in range(rng.integers(0, 5)):
                u = tuple(sorted(set(rng.integers(0, 6, size=rng.integers(1, 3)).tolist())))
                levels[u] = int(rng.integers(2 * len(u), 2 * len(u) + 16))
            plan = assemble_mdm_plan(levels, CostModel.unit())
            try:
                value, tail = mdm_wce(plan, gen, trunc=int(rng.choice([8, 64, 2048])))
            except ERROR_TYPES:
                continue
            assert math.isfinite(value) and math.isfinite(tail) and tail >= 0.0, (gen, plan)
            returned += 1
        assert returned > 200


class TestTermDag:
    model = CostModel.dollar([float(m) for m in range(1, 25)])

    @pytest.mark.parametrize("budget", [1e2, 1e3, 1e4])
    @pytest.mark.parametrize("name", sorted(TABLE_GENERATORS))
    def test_walk_matches_pairwise_oracle(self, name, budget, monkeypatch):
        gen = TABLE_GENERATORS[name]
        gap, tol = _oracle_gap(mdm_build(gen, budget, self.model), gen, monkeypatch)
        assert gap <= tol, (gap, tol)

    @pytest.mark.parametrize("name", sorted(TABLE_GENERATORS))
    @pytest.mark.parametrize("levels", [TABLE_PLAN, {}], ids=["table-plan", "anchor-only"])
    def test_walk_matches_pairwise_oracle_on_explicit_plans(self, name, levels, monkeypatch):
        gen = TABLE_GENERATORS[name]
        gap, tol = _oracle_gap(assemble_mdm_plan(levels, CostModel.unit()), gen, monkeypatch, trunc=64)
        assert gap <= tol, (gap, tol)

    def test_walk_matches_pairwise_oracle_on_a_256_point_climb(self, monkeypatch):
        gen = KernelGenerator.hermite(ParamRule.parse("0.5^j"))
        plan = mdm_build(gen, 600.0, CostModel.dollar([1.0, 2.0]), max_coord=1, pool_size=1)
        assert plan.levels == (hermite.MAX_RULE_SIZE,)
        gap, tol = _oracle_gap(plan, gen, monkeypatch, trunc=64)
        assert gap <= tol, (gap, tol)

    def test_anchor_only_plan_is_the_constant_node(self):
        lead, kids, root = _term_dag(_term_rows(assemble_mdm_plan({}, CostModel.unit()))[0])
        assert (lead, kids, root) == ([math.inf], [()], 0)
        assert algorithms._pair_schedule(lead, kids, root) == {}

    def test_equal_sub_sums_are_one_node(self):
        # {(0, 2): 6, (1, 2): 6}: Delta_k on coordinate 0, or on coordinate 1 with
        # coordinate 0 anchored, leaves the same C((2,), 6 - k), one node each
        lead, kids, root = _term_dag(_term_rows(assemble_mdm_plan({(0, 2): 6, (1, 2): 6}, CostModel.unit()))[0])
        assert len(lead) == 6  # the constant, the root, its anchored child and C((2,), r) for r = 2, 3, 4
        (_, anchored), *first = kids[root]
        (_, one), *second = kids[anchored]
        assert lead[root] == 0 and lead[anchored] == 1 and one == 0
        assert first == second and [i for i, _ in first] == [1, 2, 3]
        assert all(lead[x] == 2 and kids[x] == tuple((i, 0) for i in range(1, r)) for r, (_, x) in zip((4, 3, 2), first))

    def test_walk_shares_sub_sums_at_1e5(self):
        # the 2,700 terms of this plan would make 3.6e6 term pairs; the walk
        # evaluates a few thousand node pairs, so a fall back to all pairs fails here
        gen = KernelGenerator.hermite_twin_of_gaussian(ParamRule.parse("j^-1.5"))
        groups, _ = _term_rows(mdm_build(gen, 1e5, self.model, max_coord=512, pool_size=2048))
        terms = sum(w.size for _, _, w in groups)
        assert terms * terms / 2 > 3e6
        lead, kids, root = _term_dag(groups)
        pairs = sum(map(len, algorithms._pair_schedule(lead, kids, root).values()))
        assert len(lead) + pairs <= 10**4

    def test_pool_is_built_once_per_generator_and_shape(self, monkeypatch):
        gen = KernelGenerator.hermite_twin_of_gaussian(ParamRule.parse("j^-1.5"))
        algorithms._candidate_pool.cache_clear()
        built, pool = [], algorithms._subset_pool
        monkeypatch.setattr(algorithms, "_subset_pool", lambda *args: built.append(args[1:]) or pool(*args))
        plans = [mdm_build(gen, budget, self.model, max_coord=64, pool_size=256) for budget in (100.0, 1e3, 1e3)]
        mdm_build(gen, 100.0, self.model, max_coord=32, pool_size=256)
        assert built == [(64, 256), (32, 256)]
        assert plans[1] == plans[2]
        cached = algorithms._candidate_pool(gen, 64, 256)
        betas = gen.score_betas(64).tolist()
        assert isinstance(cached, tuple)
        assert cached == tuple((u, score, max(betas[c] for c in u)) for u, score in pool(betas, 64, 256))
