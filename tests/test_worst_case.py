"""Worst-case errors, optimal weights, spectral systems, cost accounting."""

import itertools
import math

import numpy as np
import pytest
import scipy.linalg

from rkhsquad.errors import (
    ConditioningError,
    DomainError,
    NumericalConsistencyError,
    ShapeMismatchError,
)
from rkhsquad.hermite import gauss_hermite_rule
from rkhsquad.kernels import APPROXIMATION, KernelSpec, double_integral, initial_error
from rkhsquad.transference import spectral_pair, transfer_sampling_to_hermite
from rkhsquad.worst_case import (
    CostModel,
    MultiIndexSet,
    QuadratureRule,
    SamplingMethod,
    _row_keys,
    concat_rules,
    embedding_vector,
    hermite_wce_integration_spectral,
    optimal_weights,
    rule_cost,
    spectral_system,
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

    def test_array_is_stored_read_only(self):
        box = MultiIndexSet.box(3, 2)
        assert box.array() is box.array()
        assert box.array().dtype == np.int64 and not box.array().flags.writeable
        assert box.array().tolist() == [list(nu) for nu in box.indices]


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
        assert rule_cost(concat_rules(a, b), model) == rule_cost(a, model) + rule_cost(b, model)

    def test_table_validation(self):
        with pytest.raises(DomainError):
            CostModel.dollar([0.5, 1.0])
        with pytest.raises(DomainError):
            CostModel.dollar([2.0, 1.0])
        with pytest.raises(DomainError):
            CostModel.dollar([math.nan, 2.0])
        with pytest.raises(DomainError):
            CostModel.dollar([1.0, math.inf])
        with pytest.raises(DomainError):
            CostModel.dollar([1.0, 1.5], c1=2.0)  # 1.5 < 2*1
        with pytest.raises(DomainError):
            CostModel.dollar([1.0, 4.0], c2=1.0)  # 4 > e^1
        CostModel.dollar([1.0, 2.0, 3.0], c1=1.0, c2=2.0)

    def test_table_range(self):
        model = CostModel.dollar([1.0, 2.0])
        with pytest.raises(DomainError):
            model.charge(2)

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


class TestSpectralSystem:
    def test_hermite_eigenvalue(self):
        sys_h = spectral_system(HERM_HALF, MultiIndexSet.box(1, 5))
        pos = sys_h.index_set.indices.index((3,))
        assert sys_h.eigenvalues[pos] == pytest.approx(0.125, rel=1e-15)

    def test_gaussian_ground_eigenvalue(self):
        sys_g = spectral_system(GAUSS_ONE, MultiIndexSet.box(1, 5))
        pos = sys_g.index_set.indices.index((0,))
        assert sys_g.eigenvalues[pos] == pytest.approx(0.5, rel=1e-15)

    def test_gaussian_degree_two_eigenvalue(self):
        sys_g = spectral_system(GAUSS_ONE, MultiIndexSet.box(1, 5))
        pos = sys_g.index_set.indices.index((2,))
        assert sys_g.eigenvalues[pos] == pytest.approx(0.125, rel=1e-15)

    def test_eigenfunctions_orthonormal(self):
        rule = gauss_hermite_rule(96)
        pts = rule.nodes[:, None]
        for spec in (HERM_HALF, GAUSS_ONE, KernelSpec.gaussian((0.4,))):
            system = spectral_system(spec, MultiIndexSet.box(1, 8))
            E = system.eigenfunction_matrix(pts)
            gram = (E * rule.weights[None, :]) @ E.T
            assert np.max(np.abs(gram - np.eye(9))) <= 1e-10

    def test_axis_monotonicity(self):
        system = spectral_system(KernelSpec.hermite((0.3, 0.8)), MultiIndexSet.box(2, 3))
        idx = {nu: k for k, nu in enumerate(system.index_set.indices)}
        for nu, k in idx.items():
            for j in range(2):
                higher = list(nu)
                higher[j] += 1
                if tuple(higher) in idx:
                    assert system.eigenvalues[idx[tuple(higher)]] < system.eigenvalues[k]


class TestWceApproximation:
    def test_zero_method_hermite(self):
        idx = MultiIndexSet.box(1, 40)
        for beta in (0.25, 0.5, 0.9):
            system = spectral_system(KernelSpec.hermite((beta,)), idx)
            value, tail = wce_approximation(SamplingMethod.zero(1, idx), system)
            assert value == pytest.approx(1.0, rel=1e-12)
            assert tail <= 1e-15

    def test_zero_method_gaussian(self):
        idx = MultiIndexSet.box(1, 40)
        system = spectral_system(GAUSS_ONE, idx)
        value, _ = wce_approximation(SamplingMethod.zero(1, idx), system)
        assert value == pytest.approx(2.0**-0.5, rel=1e-12)

    def test_constant_reproducing_regression_value(self):
        # frozen fixture: single node 0, coefficient identically one
        idx = MultiIndexSet.box(1, 60)
        system = spectral_system(HERM_HALF, idx)
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
            system = spectral_system(HERM_HALF, idx)
            value, tail = wce_approximation(spline_method(nodes, system), system)
            if prev is not None:
                assert tail <= prev[1]
                assert abs(value - prev[0]) <= prev[1]
            prev = (value, tail)

    def test_index_set_mismatch(self):
        system = spectral_system(HERM_HALF, MultiIndexSet.box(1, 5))
        method = SamplingMethod.zero(1, MultiIndexSet.box(1, 6))
        with pytest.raises(ShapeMismatchError):
            wce_approximation(method, system)

    def test_simplex_index_set_tail_bound(self):
        # non-box downward-closed set: the reported eigenvalue tail must
        # dominate the brute-force tail over a large enclosing box
        deg = 20
        idx = MultiIndexSet(tuple((i, j) for i in range(deg + 1) for j in range(deg + 1 - i)))
        spec = KernelSpec.hermite((0.4, 0.6))
        system = spectral_system(spec, idx)
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


class TestMatrixFreeNorm:
    """wce_approximation above the dense limit against the dense operator."""

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
        system = spectral_system(spec, idx)
        method = SamplingMethod.zero(2, idx)
        value, _ = wce_approximation(method, system)
        assert value == pytest.approx(_dense_error_norm(method, system), rel=1e-12, abs=0.0)

    def test_equal_beta_hermite_matches_dense(self):
        # equal beta_j give eigenvalues of multiplicity nu_1 + nu_2 + 1
        rng = np.random.default_rng(31)
        idx = MultiIndexSet.box(2, 40)
        system = spectral_system(KernelSpec.hermite((0.5, 0.5)), idx)
        method = spline_method(rng.normal(size=(7, 2)), system)
        value, _ = wce_approximation(method, system)
        assert value == pytest.approx(_dense_error_norm(method, system), rel=1e-12, abs=0.0)

    @staticmethod
    def _stalled_arpack(monkeypatch, degree):
        import scipy.sparse.linalg

        def stall(*args, **kwargs):
            raise scipy.sparse.linalg.ArpackError(-9999)

        rng = np.random.default_rng(41)
        system = spectral_system(KernelSpec.hermite((0.5, 0.3)), MultiIndexSet.box(2, degree))
        method = spline_method(rng.normal(size=(5, 2)), system)
        monkeypatch.setattr(scipy.sparse.linalg, "svds", stall)
        return method, system

    def test_arpack_failure_falls_back_to_dense(self, monkeypatch):
        method, system = self._stalled_arpack(monkeypatch, 40)
        value, _ = wce_approximation(method, system)
        assert value == _dense_error_norm(method, system)

    def test_arpack_failure_without_dense_fallback_raises(self, monkeypatch):
        # |Lambda| = 5,776 is past the dense fallback's 5,000 indices
        method, system = self._stalled_arpack(monkeypatch, 75)
        with pytest.raises(NumericalConsistencyError, match="ARPACK failed on the 5776-index"):
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


class TestFiniteOrRaise:
    def test_eigenfunction_overflow(self):
        # hermite_table(512, [100.0]) overflows to inf and NaN
        idx = MultiIndexSet.box(1, 512)
        system = spectral_system(HERM_HALF, idx)
        method = SamplingMethod(np.array([[100.0]]), np.ones((1, idx.size)), idx)
        with pytest.raises(NumericalConsistencyError):
            wce_approximation(method, system)

    def test_amplitude_bound_overflow(self):
        # exp(60^2 / 4) overflows; the eigenfunction values themselves are finite
        idx = MultiIndexSet.box(1, 5)
        system = spectral_system(HERM_HALF, idx)
        method = SamplingMethod(np.array([[60.0]]), np.ones((1, idx.size)), idx)
        assert np.all(np.isfinite(system.eigenfunction_matrix(method.nodes)))
        with pytest.raises(NumericalConsistencyError):
            wce_approximation(method, system)

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
        system = spectral_system(HERM_HALF, idx)
        spline = spline_method(np.array([[0.0]]), system)
        from rkhsquad.hermite import hermite_normalized

        for nu in range(11):
            expected = 0.5**nu * hermite_normalized(nu, 0.0) * math.sqrt(3.0) / 2.0
            assert spline.coeff_table[0, nu] == pytest.approx(expected, abs=1e-15)

    def test_minimal_index_set(self):
        idx = MultiIndexSet(((0,),))
        system = spectral_system(HERM_HALF, idx)
        spline = spline_method(np.array([[0.0]]), system)
        assert spline.coeff_table.shape == (1, 1)

    def test_duplicate_node_conditioning_error(self):
        idx = MultiIndexSet.box(1, 5)
        system = spectral_system(HERM_HALF, idx)
        with pytest.raises(ConditioningError):
            spline_method(np.array([[0.2], [0.2]]), system)

    def test_beats_plain_interpolation_coefficients(self):
        # spline is worst-case optimal among methods on the same nodes
        rng = np.random.default_rng(9)
        idx = MultiIndexSet.box(1, 40)
        system = spectral_system(HERM_HALF, idx)
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
            value, tail = hermite_wce_integration_spectral(g.nodes, g.weights, beta)
            dense = wce_integration(
                QuadratureRule(g.nodes[:, None], g.weights), KernelSpec.hermite((beta,))
            )
            assert value == pytest.approx(dense, rel=1e-10)
            assert tail <= 1e-13 * value


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
