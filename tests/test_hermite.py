"""Orthonormal Hermite polynomials and Gauss-Hermite rules for N(0,1)."""

import math

import numpy as np
import pytest
from numpy.polynomial.hermite_e import hermeval

from rkhsquad.errors import (
    NumericalConsistencyError,
    UnsupportedDegreeError,
    UnsupportedSizeError,
)
from rkhsquad.hermite import (
    QuadratureRule1D,
    gauss_hermite_rule,
    hermite_table,
)


def hermite_oracle(nu, x):
    # independent path: numpy's HermiteE basis divided by sqrt(nu!)
    coeffs = [0.0] * nu + [1.0]
    return hermeval(x, coeffs) / math.sqrt(math.factorial(nu))


class TestHermiteNormalized:
    def test_degree_zero_is_one(self):
        assert hermite_table(0, 3.7)[0] == 1.0

    def test_root_of_degree_two(self):
        # He_2(x) = x^2 - 1 vanishes at 1
        assert hermite_table(2, 1.0)[2] == pytest.approx(0.0, abs=1e-15)

    def test_degree_three_value(self):
        # He_3(2) = 8 - 6 = 2, normalized by sqrt(3!) = sqrt(6)
        assert hermite_table(3, 2.0)[3] == pytest.approx(2.0 / math.sqrt(6.0), rel=1e-14)

    @pytest.mark.parametrize("nu", [0, 1, 2, 5, 17, 40])
    @pytest.mark.parametrize("x", [-3.2, -0.5, 0.0, 0.7, 2.9])
    def test_against_hermeval_oracle(self, nu, x):
        assert hermite_table(nu, x)[nu] == pytest.approx(hermite_oracle(nu, x), rel=1e-12, abs=1e-12)

    def test_degree_guard(self):
        with pytest.raises(UnsupportedDegreeError):
            hermite_table(8193, 0.0)
        with pytest.raises(UnsupportedDegreeError):
            hermite_table(-1, 0.0)


class TestHermiteRow:
    def test_degree_two_at_zero(self):
        row = hermite_table(2, 0.0)
        assert row.tolist() == [1.0, 0.0, -1.0 / math.sqrt(2.0)]

    def test_degree_one(self):
        assert hermite_table(1, 1.5).tolist() == [1.0, 1.5]

    def test_degree_zero(self):
        assert hermite_table(0, -4.0).tolist() == [1.0]

    def test_table_matches_row(self):
        xs = np.array([-1.5, 0.0, 2.25])
        table = hermite_table(12, xs)
        for k, x in enumerate(xs):
            assert np.array_equal(table[:, k], hermite_table(12, float(x)))

    @pytest.mark.parametrize("nu_max", [0, 1, 2, 64, 512])
    @pytest.mark.parametrize("shape", [(), (7,), (3, 4)])
    def test_in_place_table_equals_allocating_reference(self, nu_max, shape):
        # test-local copy of the recurrence with a fresh array per step
        x = np.random.default_rng(nu_max).normal(0.0, 3.0, size=shape)
        want = np.empty((nu_max + 1,) + shape)
        want[0] = 1.0
        if nu_max >= 1:
            want[1] = x
        for nu in range(1, nu_max):
            want[nu + 1] = (x * want[nu] - np.sqrt(nu) * want[nu - 1]) / np.sqrt(nu + 1.0)
        assert np.array_equal(hermite_table(nu_max, x), want)


class TestGaussHermiteRule:
    def test_one_point(self):
        # the general path: the eigenvalue of the 1 x 1 zero matrix, weight 1/h_0^2
        rule = gauss_hermite_rule(1)
        assert rule.nodes.tolist() == [0.0] and not np.signbit(rule.nodes[0])
        assert rule.weights.tolist() == [1.0]

    def test_two_points(self):
        rule = gauss_hermite_rule(2)
        assert rule.nodes == pytest.approx([-1.0, 1.0], rel=1e-14)
        assert rule.weights == pytest.approx([0.5, 0.5], rel=1e-14)

    def test_three_points(self):
        rule = gauss_hermite_rule(3)
        assert rule.nodes == pytest.approx([-math.sqrt(3.0), 0.0, math.sqrt(3.0)], abs=1e-14)
        assert rule.weights == pytest.approx([1.0 / 6.0, 2.0 / 3.0, 1.0 / 6.0], rel=1e-13)

    def test_size_guard(self):
        with pytest.raises(UnsupportedSizeError):
            gauss_hermite_rule(0)
        with pytest.raises(UnsupportedSizeError):
            gauss_hermite_rule(257)

    def test_numpy_integer_shares_the_rule_of_the_equal_int(self):
        # the cache keys on int(n): a numpy size finds the rule of its int and builds none
        rule = gauss_hermite_rule(np.int64(37))
        misses = gauss_hermite_rule.cache_info().misses
        assert gauss_hermite_rule(37) is rule
        assert gauss_hermite_rule(np.int32(37)) is rule and gauss_hermite_rule(np.uint16(37)) is rule
        assert gauss_hermite_rule.cache_info().misses == misses

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 16, 64, 256])
    def test_rule_invariants(self, n):
        rule = gauss_hermite_rule(n)
        assert abs(rule.weights.sum() - 1.0) <= 1e-13
        assert np.max(np.abs(rule.nodes + rule.nodes[::-1])) <= 1e-12
        assert np.all(np.diff(rule.nodes) > 0)
        assert np.all(rule.weights > 0)

    @pytest.mark.parametrize("n", [2, 8, 24, 64])
    def test_orthonormality(self, n):
        rule = gauss_hermite_rule(n)
        deg = 2 * n - 1
        table = hermite_table(deg, rule.nodes)
        gram = (table * rule.weights[None, :]) @ table.T
        for i in range(deg + 1):
            for j in range(deg + 1 - i):
                assert gram[i, j] == pytest.approx(1.0 if i == j else 0.0, abs=1e-10)

    @pytest.mark.parametrize("n", [1, 3, 8, 33, 64])
    def test_moment_exactness(self, n):
        rule = gauss_hermite_rule(n)
        exact = 1.0
        for p in range(0, 2 * n):
            approx = float(np.sum(rule.weights * rule.nodes**p))
            if p % 2 == 1:
                scale = max(float(np.sum(rule.weights * np.abs(rule.nodes) ** p)), 1.0)
                assert abs(approx) <= 1e-10 * scale
            else:
                if p > 0:
                    exact *= p - 1  # (p-1)!! built up over even p
                assert approx == pytest.approx(exact, rel=1e-10)

    def test_rule_validation_rejects_bad_weights(self):
        with pytest.raises(NumericalConsistencyError):
            QuadratureRule1D(np.array([-1.0, 1.0]), np.array([0.7, 0.7]))
        with pytest.raises(NumericalConsistencyError):
            QuadratureRule1D(np.array([-1.0, 0.5]), np.array([0.5, 0.5]))

