"""Gaussian/Hermite kernels, mean embeddings, double integrals, initial errors."""

import itertools
import math

import numpy as np
import pytest

from rkhsquad.errors import DomainError, ShapeMismatchError
from rkhsquad.hermite import gauss_hermite_rule
from rkhsquad.kernels import (
    APPROXIMATION,
    INTEGRATION,
    KernelSpec,
    double_integral,
    embedding_vector,
    gaussian_kernel,
    hermite_kernel,
    hermite_kernel_series,
    initial_error,
)
from rkhsquad.worst_case import kernel_gram


def gh_embedding_oracle(family, param, x, n=64):
    rule = gauss_hermite_rule(n)
    if family == "gaussian":
        vals = gaussian_kernel(param, x, rule.nodes)
    else:
        vals = hermite_kernel(param, x, rule.nodes)
    return float(rule.weights @ vals)


def gh_double_integral_oracle(family, param, n=64):
    rule = gauss_hermite_rule(n)
    X = rule.nodes
    if family == "gaussian":
        K = gaussian_kernel(param, X[:, None], X[None, :])
    else:
        K = hermite_kernel(param, X[:, None], X[None, :])
    return float(rule.weights @ K @ rule.weights)


class TestGaussianKernel:
    def test_diagonal(self):
        assert gaussian_kernel(1.0, 2.0, 2.0) == 1.0

    def test_unit_distance(self):
        assert gaussian_kernel(1.0, 0.0, 1.0) == pytest.approx(math.exp(-1.0), rel=1e-15)

    def test_half_shape(self):
        assert gaussian_kernel(0.5, -1.0, 1.0) == pytest.approx(math.exp(-1.0), rel=1e-15)


class TestHermiteKernel:
    def test_origin_value(self):
        # truncated-series oracle value 2/sqrt(3)
        series, cert = hermite_kernel_series(0.5, 0.0, 0.0, terms=60)
        closed = hermite_kernel(0.5, 0.0, 0.0)
        assert closed == pytest.approx(2.0 / math.sqrt(3.0), rel=1e-14)
        assert abs(closed - series) <= 1e-13 * series + cert

    def test_series_oracle_small_beta(self):
        series, cert = hermite_kernel_series(0.3, 1.0, 1.0, terms=120)
        assert cert < 1e-14 * series
        assert hermite_kernel(0.3, 1.0, 1.0) == pytest.approx(series, rel=1e-13)

    def test_far_apart_positive_small(self):
        value = float(hermite_kernel(0.5, 5.0, -5.0))
        assert 0.0 < value < 1e-9

    def test_beta_domain(self):
        with pytest.raises(DomainError):
            hermite_kernel(1.0, 0.0, 0.0)
        with pytest.raises(DomainError):
            hermite_kernel_series(0.0, 0.0, 0.0)

    def test_mehler_vs_series_grid(self):
        # certified-oracle comparison; 1e-12 relative wherever the oracle
        # itself is certified below that level
        for beta in (0.1, 0.5, 0.9):
            for x in range(-4, 5):
                for y in range(-4, 5):
                    closed = float(hermite_kernel(beta, float(x), float(y)))
                    series, cert = hermite_kernel_series(beta, float(x), float(y), terms=400)
                    assert abs(closed - series) <= 1e-12 * abs(series) + cert


class TestSeriesOracleArrays:
    GRID = np.arange(-4.0, 5.0)

    @pytest.mark.parametrize("beta", [0.1, 0.5, 0.9])
    def test_array_equals_scalar_calls_bitwise(self, beta):
        x, y = self.GRID[:, None], self.GRID[None, :]
        value, cert = hermite_kernel_series(beta, x, y, terms=400)
        assert value.shape == cert.shape == (9, 9)
        for i, a in enumerate(self.GRID):
            for j, b in enumerate(self.GRID):
                assert (value[i, j], cert[i, j]) == hermite_kernel_series(beta, a, b, terms=400)

    @pytest.mark.parametrize("x, y", [
        (GRID, 1.5),
        (-2.0, GRID),
        (GRID.reshape(3, 1, 3), GRID[:4].reshape(1, 4, 1)),
        (np.array(0.5), np.array([[1.0], [-3.0]])),
    ])
    def test_broadcast_shapes(self, x, y):
        value, cert = hermite_kernel_series(0.5, x, y, terms=120)
        shape = np.broadcast_shapes(np.shape(x), np.shape(y))
        assert value.shape == cert.shape == shape
        bx, by = np.broadcast_arrays(x, y)
        for idx in np.ndindex(shape):
            scalar = hermite_kernel_series(0.5, float(bx[idx]), float(by[idx]), terms=120)
            assert (value[idx], cert[idx]) == scalar

    def test_scalars_give_floats(self):
        value, cert = hermite_kernel_series(0.5, 1.0, np.float64(-1.0))
        assert type(value) is float and type(cert) is float

    @pytest.mark.parametrize("x, y", [
        (np.nan, 0.0),
        (0.0, np.inf),
        (-np.inf, 1.0),
        (np.array([0.0, np.nan]), 1.0),
        (0.5, np.array([[1.0], [-np.inf]])),
    ])
    def test_non_finite_points_raise(self, x, y):
        # these used to return (nan, nan)
        with pytest.raises(DomainError):
            hermite_kernel_series(0.5, x, y)


class TestKernelSpec:
    def test_validation(self):
        with pytest.raises(DomainError):
            KernelSpec.gaussian((0.0,))
        with pytest.raises(DomainError):
            KernelSpec.hermite((1.0,))
        with pytest.raises(DomainError):
            KernelSpec.hermite(())
        with pytest.raises(DomainError):
            KernelSpec("sobolev", (1.0,))

    def test_scalar_and_0d_parameters(self):
        assert KernelSpec.gaussian(np.array(1.0)) == KernelSpec.gaussian(1.0) == KernelSpec.gaussian((1.0,))
        assert KernelSpec.hermite(np.array(0.5)) == KernelSpec.hermite(0.5) == KernelSpec.hermite((0.5,))

    def test_json_round_trip(self):
        spec = KernelSpec.gaussian((1.0, 0.25))
        again = KernelSpec.from_json(spec.to_json())
        assert again == spec
        assert spec.to_json() == {"family": "gaussian", "params": [1.0, 0.25]}

    def test_dimension_mismatch(self):
        spec = KernelSpec.hermite((0.5, 0.5))
        with pytest.raises(ShapeMismatchError):
            embedding_vector(spec, (0.0, 0.0, 0.0))


class TestProductKernel:
    @staticmethod
    def value(spec, x, y):
        # M(y, x) from the lower triangle of the Gram of [x, y]
        return kernel_gram(spec, [x, y])[1, 0]

    def test_gaussian_diagonal(self):
        spec = KernelSpec.gaussian((1.0, 0.3, 2.0))
        x = (0.4, -1.0, 2.2)
        assert self.value(spec, x, x) == 1.0

    def test_hermite_square(self):
        spec = KernelSpec.hermite((0.5, 0.5))
        assert self.value(spec, (0.0, 0.0), (0.0, 0.0)) == pytest.approx(4.0 / 3.0, rel=1e-14)

    def test_gaussian_single_factor(self):
        spec = KernelSpec.gaussian((1.0, 1.0))
        assert self.value(spec, (0.0, 0.0), (1.0, 0.0)) == pytest.approx(math.exp(-1.0), rel=1e-15)

    def test_symmetry_exact(self):
        rng = np.random.default_rng(0)
        for spec in (KernelSpec.gaussian((0.7, 1.3)), KernelSpec.hermite((0.2, 0.8))):
            for _ in range(10):
                x, y = rng.normal(size=2 * spec.dimension).reshape(2, -1)
                assert self.value(spec, x, y) == self.value(spec, y, x)

    def test_hermite_diagonal_at_least_one(self):
        rng = np.random.default_rng(1)
        spec = KernelSpec.hermite((0.1, 0.5, 0.9))
        for _ in range(20):
            x = rng.normal(size=3)
            assert self.value(spec, x, x) >= 1.0

    @pytest.mark.parametrize("family,params", [
        ("gaussian", (0.7, 1.5)),
        ("hermite", (0.3, 0.6)),
    ])
    def test_positive_semidefinite_gram(self, family, params):
        rng = np.random.default_rng(42)
        spec = KernelSpec(family, params)
        for _ in range(25):
            n = int(rng.integers(2, 13))
            pts = rng.normal(0.0, 1.5, size=(n, spec.dimension))
            eigs = np.linalg.eigvalsh(kernel_gram(spec, pts))
            assert eigs[0] >= -1e-10 * eigs[-1]


class TestMeanEmbedding:
    def test_hermite_identically_one(self):
        spec = KernelSpec.hermite((0.3, 0.9))
        rng = np.random.default_rng(2)
        for _ in range(5):
            assert embedding_vector(spec, rng.normal(size=2))[0] == 1.0

    def test_gaussian_at_origin(self):
        spec = KernelSpec.gaussian((1.0,))
        [value] = embedding_vector(spec, (0.0,))
        assert value == pytest.approx(3.0**-0.5, rel=1e-14)
        assert value == pytest.approx(gh_embedding_oracle("gaussian", 1.0, 0.0), rel=1e-12)

    def test_gaussian_at_one(self):
        spec = KernelSpec.gaussian((1.0,))
        [value] = embedding_vector(spec, (1.0,))
        assert value == pytest.approx(3.0**-0.5 * math.exp(-1.0 / 3.0), rel=1e-14)
        assert value == pytest.approx(gh_embedding_oracle("gaussian", 1.0, 1.0), rel=1e-12)

    def test_gaussian_oracle_sweep(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            sigma = float(np.exp(rng.uniform(np.log(0.1), np.log(2.0))))
            x = float(rng.normal())
            spec = KernelSpec.gaussian((sigma,))
            assert embedding_vector(spec, (x,))[0] == pytest.approx(
                gh_embedding_oracle("gaussian", sigma, x), rel=1e-11
            )


class TestDoubleIntegral:
    def test_hermite_is_one(self):
        assert double_integral(KernelSpec.hermite((0.4, 0.7))) == 1.0
        assert gh_double_integral_oracle("hermite", 0.7) == pytest.approx(1.0, rel=1e-12)

    def test_gaussian_half(self):
        value = double_integral(KernelSpec.gaussian((0.5,)))
        assert value == pytest.approx(2.0**-0.5, rel=1e-14)
        assert value == pytest.approx(gh_double_integral_oracle("gaussian", 0.5), rel=1e-12)

    def test_gaussian_two_coordinates(self):
        assert double_integral(KernelSpec.gaussian((1.0, 1.0))) == pytest.approx(0.2, rel=1e-14)

    def test_embedding_consistency(self):
        # integral of the mean embedding equals the double integral
        rule = gauss_hermite_rule(64)
        for spec in (KernelSpec.gaussian((0.8,)), KernelSpec.gaussian((1.4,))):
            total = rule.weights @ embedding_vector(spec, rule.nodes[:, None])
            assert total == pytest.approx(double_integral(spec), rel=1e-10)

    def test_embedding_consistency_tensor(self):
        # same identity through a full tensor Gauss-Hermite grid in d = 2
        rule = gauss_hermite_rule(48)
        spec = KernelSpec.gaussian((0.6, 1.1))
        x, y = np.meshgrid(rule.nodes, rule.nodes, indexing="ij")
        m = embedding_vector(spec, np.column_stack([x.ravel(), y.ravel()]))
        total = rule.weights @ m.reshape(x.shape) @ rule.weights
        assert total == pytest.approx(double_integral(spec), rel=1e-10)


class TestInitialError:
    def test_hermite_unit(self):
        spec = KernelSpec.hermite((0.25, 0.65))
        assert initial_error(spec, INTEGRATION) == 1.0
        assert initial_error(spec, APPROXIMATION) == 1.0

    def test_gaussian_integration_value(self):
        assert initial_error(KernelSpec.gaussian((0.5,)), INTEGRATION) == pytest.approx(
            2.0**-0.25, rel=1e-14
        )

    def test_gaussian_approximation_value(self):
        assert initial_error(KernelSpec.gaussian((1.0,)), APPROXIMATION) == pytest.approx(
            2.0**-0.5, rel=1e-14
        )

    def test_integration_squares_to_double_integral(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            d = int(rng.integers(1, 4))
            sigma = tuple(np.exp(rng.uniform(np.log(0.05), np.log(3.0), size=d)))
            spec = KernelSpec.gaussian(sigma)
            assert initial_error(spec, INTEGRATION) ** 2 == pytest.approx(
                double_integral(spec), rel=1e-13
            )

    def test_problem_validation(self):
        with pytest.raises(DomainError):
            initial_error(KernelSpec.hermite((0.5,)), "interpolation")


# Zeros of both signs, a product below the subnormal range, large exponents
# and squares that overflow.
EDGE_POINTS = np.array([0.0, -0.0, 1e-300, -1e-300, 30.0, -30.0, 1e154, -1e154, 0.7, -1.3])


@pytest.mark.parametrize(
    "family, param", [("gaussian", 0.3), ("gaussian", 2.0), ("hermite", 0.2), ("hermite", 0.9)]
)
def test_kernel_bits_agree_for_arrays_scalars_and_swapped_points(family, param):
    # an array call gives each pair the bits of the scalar call, and k(x, y) == k(y, x)
    kernel = gaussian_kernel if family == "gaussian" else hermite_kernel
    with np.errstate(over="ignore", invalid="ignore"):
        grid = kernel(param, EDGE_POINTS[:, None], EDGE_POINTS[None, :])
        assert np.array_equal(grid, grid.T, equal_nan=True)
        for (i, a), (j, b) in itertools.product(enumerate(EDGE_POINTS), repeat=2):
            assert np.array_equal(kernel(param, a, b), grid[i, j], equal_nan=True)
