"""Every input refusal of the library, driven through its public entry point.

Three raises stay out of the table because no input is known to reach them:
the "assembled cost ... exceeds budget" check of ``mdm_build`` (the greedy
loop only grants what fits), the "badly negative" squared error of
``mdm_wce``, and the ``eigh_tridiagonal`` failure in ``gauss_hermite_rule``.
"""

import numpy as np
import pytest

from rkhsquad import cli, verify
from rkhsquad.algorithms import (
    KernelGenerator,
    ParamRule,
    SmolyakLevels,
    assemble_mdm_plan,
    gh_error_on_space,
    integration_error_lower_bound,
    mdm_build,
    mdm_wce,
    smolyak_rule,
    tensor_rule,
)
from rkhsquad.errors import (
    DomainError,
    NumericalConsistencyError,
    ShapeMismatchError,
    UnsupportedDegreeError,
    UnsupportedSizeError,
)
from rkhsquad.experiments import tensor_decay_curve, univariate_decay_curve
from rkhsquad.hermite import QuadratureRule1D, gauss_hermite_rule, hermite_table
from rkhsquad.kernels import KernelSpec, check_sigma
from rkhsquad.transference import (
    transfer_quadrature_to_gaussian,
    transfer_quadrature_to_hermite,
    transfer_sampling_to_gaussian,
    transfer_sampling_to_hermite,
)
from rkhsquad.worst_case import (
    CostModel,
    MultiIndexSet,
    QuadratureRule,
    SamplingMethod,
    SpectralSystem,
    kernel_gram,
    wce_approximation,
    wce_integration,
)

GAUSS_1D = KernelSpec.gaussian((1.0,))
HERM_2D = KernelSpec.hermite((0.5, 0.5))
TWIN = KernelGenerator.hermite_twin_of_gaussian(ParamRule.parse("j^-1.5"))
UNIT = CostModel.unit()
RULE_2D = QuadratureRule([[0.0, 0.0]], [1.0])
METHOD_2D = SamplingMethod([[0.0, 0.0]], [[1.0, 0.0]], MultiIndexSet([[0, 0], [1, 0]]))


def _mdm_run(*budgets):
    args = cli.build_parser().parse_args(
        ["mdm-run", "--sigma-rule", "j^-1.5", "--budgets", ",".join(budgets), "--dollar-table", "1,2"]
    )
    return args.fn(args)


REFUSALS = {
    # algorithms
    "gh-error-two-coordinates": (ShapeMismatchError, lambda: gh_error_on_space(3, HERM_2D)),
    "lower-bound-two-coordinates": (ShapeMismatchError, lambda: integration_error_lower_bound(HERM_2D, 3)),
    "tensor-rule-no-factor": (ShapeMismatchError, lambda: tensor_rule([])),
    "smolyak-level-zero": (DomainError, lambda: SmolyakLevels((1, 2), 0)),
    "smolyak-level-past-schedule": (DomainError, lambda: SmolyakLevels((1, 2), 3)),
    "smolyak-fractional-schedule": (DomainError, lambda: SmolyakLevels((1.5, 2.7), 1)),
    "smolyak-fractional-level": (DomainError, lambda: SmolyakLevels((1, 2, 3), 2.5)),
    "smolyak-rule-repeated-coordinate": (DomainError, lambda: smolyak_rule((0, 0), SmolyakLevels.unit(2))),
    "smolyak-rule-fractional-coordinate": (DomainError, lambda: smolyak_rule((0.5,), SmolyakLevels.unit(2))),
    "smolyak-rule-dim-below-u": (ShapeMismatchError, lambda: smolyak_rule((0, 2), SmolyakLevels.unit(2), dim=2)),
    "smolyak-rule-fractional-dim": (DomainError, lambda: smolyak_rule((0,), SmolyakLevels.unit(2), dim=2.5)),
    "assemble-duplicate-sets": (DomainError, lambda: assemble_mdm_plan({(0, 1): 4, (1, 0): 4}, UNIT)),
    "assemble-fractional-level": (DomainError, lambda: assemble_mdm_plan({(0,): 2.5}, UNIT)),
    "assemble-fractional-coordinate": (DomainError, lambda: assemble_mdm_plan({(0.5,): 2}, UNIT)),
    "mdm-build-fractional-max-coord": (DomainError, lambda: mdm_build(TWIN, 10.0, UNIT, max_coord=2.5)),
    "mdm-build-fractional-pool-size": (DomainError, lambda: mdm_build(TWIN, 10.0, UNIT, pool_size=2.5)),
    "mdm-wce-fractional-trunc": (DomainError, lambda: mdm_wce(assemble_mdm_plan({(0,): 2}, UNIT), TWIN, trunc=3.5)),
    "param-rule-unknown-kind": (DomainError, lambda: ParamRule("linear", 0.5)),
    "param-rule-coordinate-zero": (DomainError, lambda: ParamRule("power", 1.5).value(0)),
    "param-rule-tail-from-zero": (DomainError, lambda: ParamRule("power", 1.5).tail_power_sum(0, 2.0)),
    "param-rule-divergent-tail": (DomainError, lambda: ParamRule("power", 0.5).tail_power_sum(1, 2.0)),
    "generator-unknown-family": (DomainError, lambda: KernelGenerator("laplace", ParamRule("power", 1.5))),
    # cli
    "mdm-run-two-budgets": (DomainError, lambda: _mdm_run("10", "100")),
    # experiments
    "univariate-decay-unknown-space": (DomainError, lambda: univariate_decay_curve("laplace", 0.5, 3)),
    "univariate-decay-n-max-zero": (DomainError, lambda: univariate_decay_curve("hermite", 0.5, 0)),
    "univariate-decay-fractional-n-max": (DomainError, lambda: univariate_decay_curve("hermite", 0.5, 2.5)),
    "tensor-decay-unknown-space": (DomainError, lambda: tensor_decay_curve([1.0], [0.1], "laplace")),
    # hermite
    "rule-1d-unequal-lengths": (UnsupportedSizeError, lambda: QuadratureRule1D([0.0, 1.0], [1.0])),
    "rule-1d-empty": (UnsupportedSizeError, lambda: QuadratureRule1D([], [])),
    "rule-1d-decreasing-nodes": (NumericalConsistencyError, lambda: QuadratureRule1D([1.0, -1.0], [0.5, 0.5])),
    "rule-1d-negative-weight": (NumericalConsistencyError, lambda: QuadratureRule1D([-1.0, 1.0], [1.5, -0.5])),
    "rule-1d-nan-node": (DomainError, lambda: QuadratureRule1D([np.nan], [1.0])),
    "rule-1d-nan-weights": (DomainError, lambda: QuadratureRule1D([-1.0, 1.0], [np.nan, np.nan])),
    "gauss-hermite-float-size": (UnsupportedSizeError, lambda: gauss_hermite_rule(3.0)),
    "hermite-table-fractional-degree": (UnsupportedDegreeError, lambda: hermite_table(2.5, np.zeros(2))),
    # kernels
    "sigma-empty": (DomainError, lambda: check_sigma([])),
    # transference
    "quadrature-to-hermite-dimension": (ShapeMismatchError, lambda: transfer_quadrature_to_hermite(RULE_2D, [1.0])),
    "quadrature-to-gaussian-dimension": (ShapeMismatchError, lambda: transfer_quadrature_to_gaussian(RULE_2D, [1.0])),
    "sampling-to-hermite-dimension": (ShapeMismatchError, lambda: transfer_sampling_to_hermite(METHOD_2D, [1.0])),
    "sampling-to-gaussian-dimension": (ShapeMismatchError, lambda: transfer_sampling_to_gaussian(METHOD_2D, [1.0])),
    # verify
    "verify-unknown-suite": (KeyError, lambda: verify.run_suite("nope")),
    # worst_case
    "index-set-empty": (DomainError, lambda: MultiIndexSet([])),
    "index-set-flat": (ShapeMismatchError, lambda: MultiIndexSet([1, 2])),
    "box-degree-count": (ShapeMismatchError, lambda: MultiIndexSet.box(2, [1, 2, 3])),
    "box-fractional-dimension": (DomainError, lambda: MultiIndexSet.box(2.5, 3)),
    "rule-no-node": (ShapeMismatchError, lambda: QuadratureRule(np.zeros((0, 1)), [])),
    "method-node-dimension": (ShapeMismatchError,
                              lambda: SamplingMethod([[0.0, 0.0]], [[1.0, 0.0]], MultiIndexSet.box(1, 1))),
    "zero-method-fractional-dimension": (DomainError, lambda: SamplingMethod.zero(2.5, MultiIndexSet.box(2, 1))),
    "system-index-set-dimension": (ShapeMismatchError, lambda: SpectralSystem(HERM_2D, MultiIndexSet.box(1, 2))),
    "system-node-dimension": (ShapeMismatchError,
                              lambda: SpectralSystem(GAUSS_1D, MultiIndexSet.box(1, 2)).eigenfunction_matrix(
                                  np.zeros((1, 2)))),
    "gram-node-dimension": (ShapeMismatchError, lambda: kernel_gram(GAUSS_1D, np.zeros((2, 2)))),
    # w^T G w = 1e400 overflows from finite kernel values
    "wce-integration-overflow": (NumericalConsistencyError,
                                 lambda: wce_integration(QuadratureRule([[0.0]], [1e200]), GAUSS_1D)),
    # k(x, x + 1e-9) rounds to 1, so w^T G w = 0 is left while 2 w^T m ~ 1e3 is not: e^2 ~ -4e2
    "wce-integration-negative-square": (NumericalConsistencyError,
                                        lambda: wce_integration(QuadratureRule([[1.0], [1.0 + 1e-9]],
                                                                               [1e12, -1e12]), GAUSS_1D)),
    # a far node with large coefficients: the error is finite, its tail bound is not
    "wce-approximation-infinite-tail": (NumericalConsistencyError,
                                        lambda: wce_approximation(
                                            SamplingMethod([[20.0]], [[1e150, 0.0, 0.0]], MultiIndexSet.box(1, 2)),
                                            SpectralSystem(GAUSS_1D, MultiIndexSet.box(1, 2)))),
}


@pytest.mark.parametrize("error, call", REFUSALS.values(), ids=REFUSALS.keys())
def test_refusal_raises_its_type(error, call):
    with pytest.raises(error):
        call()


@pytest.mark.parametrize(
    "call",
    [
        lambda: SmolyakLevels((1.0, 2.0), 2).schedule == (1, 2),
        lambda: assemble_mdm_plan({(0.0,): 2.0}, UNIT) == assemble_mdm_plan({(0,): 2}, UNIT),
        lambda: mdm_build(TWIN, 10.0, UNIT, pool_size=2.0) == mdm_build(TWIN, 10.0, UNIT, pool_size=2),
        lambda: np.array_equal(gauss_hermite_rule(np.int64(3)).weights, gauss_hermite_rule(3).weights),
        lambda: np.array_equal(hermite_table(np.int32(2), np.ones(1)), hermite_table(2, np.ones(1))),
        lambda: MultiIndexSet.box(np.int64(2), 1) == MultiIndexSet.box(2, 1),
        lambda: mdm_wce(assemble_mdm_plan({(0,): 2}, UNIT), TWIN, trunc=np.int64(8))
        == mdm_wce(assemble_mdm_plan({(0,): 2}, UNIT), TWIN, trunc=8),
    ],
    ids=["schedule-floats", "assemble-floats", "pool-size-float", "rule-size-numpy", "degree-numpy",
         "box-numpy", "trunc-numpy"],
)
def test_integral_arguments_are_accepted_as_before(call):
    assert call()
