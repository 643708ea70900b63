"""Worst-case integration and L2-approximation on Gaussian and Hermite
reproducing-kernel Hilbert spaces under the Gaussian product measure."""

from .algorithms import (
    KernelGenerator,
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
from .experiments import DecayEstimate, decay_estimate, empirical_info_complexity
from .hermite import QuadratureRule1D, gauss_hermite_rule
from .kernels import (
    APPROXIMATION,
    GAUSSIAN,
    HERMITE,
    INTEGRATION,
    KernelSpec,
    double_integral,
    gaussian_kernel,
    hermite_kernel,
    hermite_kernel_series,
    initial_error,
    matched_parameters,
)
from .transference import (
    TransferConstants,
    beta_from_sigma,
    phi_c,
    sigma_from_beta,
    spectral_pair,
    transfer_quadrature_to_gaussian,
    transfer_quadrature_to_hermite,
    transfer_sampling_to_gaussian,
    transfer_sampling_to_hermite,
)
from .worst_case import (
    CostModel,
    MultiIndexSet,
    QuadratureRule,
    SamplingMethod,
    SpectralSystem,
    optimal_weights,
    rule_cost,
    spline_method,
    tensor_optimal_wce,
    tensor_wce_integration,
    wce_approximation,
    wce_integration,
)

__version__ = "0.1.0"
