"""Langevin Monte Carlo on heavy-tailed targets.

Closed-form target families with growth/smoothness descriptors, a
reproducible batched LMC sampler, moment-based Renyi diagnostics, every
explicit complexity bound (weak Poincare weightings, diffusion and
iteration upper bounds, step-size limits, complexity lower bounds,
initialization divergences), and a quadrature/PDE verification layer for
the underlying inequalities.
"""

from .targets import (
    FAMILY_TAGS,
    AssumptionViolatedError,
    Gaussian,
    GenCauchy,
    GrowthParams,
    HeavyTailError,
    HolderSmoothness,
    InputValidationError,
    MomentUndefinedError,
    NumericsError,
    PotentialSpec,
    RadialCustom,
    RadialFamily,
    Sublinear,
    SublinearMomentBound,
    UnsupportedFamilyError,
    beta_wpi_cauchy,
    direct_sampler,
    gaussian_renyi,
    grad_potential,
    log_normalizing_constant,
    median_radius,
    modified_target_m,
    modified_target_spec,
    potential,
    radial_moment,
    spec_from_json,
    spec_to_json,
    tail_mass,
    tilde_log_normalizing_constant,
    tilde_moment,
)
from .sampler import (
    DIVERGENCE_LIMIT,
    ChainBatch,
    ChainDivergenceError,
    MomentTrace,
    gaussian_init,
    lmc_step,
    run_chains,
    write_trace_csv,
)
from .diagnostics import (
    RenyiSurrogate,
    comparison_process_z,
    diagnostic_report,
    iterations_to_threshold,
    pi_moment_for,
    renyi_lower_bound,
    sigma2_eps,
)
from .bounds import (
    BoundQuery,
    BoundReport,
    assemble_upper_bound,
    beta_for_spec,
    beta_prime,
    beta_wpi_cauchy_report,
    beta_wpi_sublinear_report,
    delta0_threshold,
    diffusion_time_bound,
    disc_step_size,
    gen_cauchy_init_bound_simplified,
    init_divergence_bound,
    lmc_iteration_bound,
    lmc_iteration_count,
    lower_bound_complexity,
    phase_leg_bounds,
    phase_threshold,
    step_size_upper_bound,
    warm_start_divergence_bound,
)
from .fi_verify import (
    DensityGrid,
    FIReport,
    FPTrajectory,
    TestFunction,
    TestFunctionSet,
    converse_pi_check,
    default_test_functions,
    fokker_planck_evolve_1d,
    fq_gq,
    gaussian_on_grid,
    grid_r_inf,
    make_grid,
    pi_on_grid,
    renyi_quadrature,
    weighted_pi_check,
    wpi_check,
    write_fp_csv,
)
from .cli import ExperimentConfig, config_from_json, main

__version__ = "0.1.0"
