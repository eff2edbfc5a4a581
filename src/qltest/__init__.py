"""Quasi-likelihood inference and hypothesis testing for discretely
observed one-dimensional ergodic diffusions."""

from .distributions import chi2_cdf, chi2_quantile, noncentral_chi2_cdf
from .errors import (
    BoundaryError,
    ConfigError,
    DomainError,
    EstimationError,
    HarnessError,
    QltestError,
    RaoUndefinedError,
    SimulationError,
    StatisticError,
)
from .estimate import FitOptions, FitResult, adaptive_estimate, initial_beta, mqle
from .hypotests import (
    STATISTIC_KINDS,
    TestReport,
    empirical_l2_distance,
    gqlrt_statistic,
    phi_divergence_statistic,
    power_approximation,
    rao_statistic,
    stepwise_alpha,
    stepwise_beta,
    t_statistic,
    wald_statistic,
)
from .models import (
    InvariantLaw,
    Model,
    ParamBox,
    ParamVector,
    PathSums,
    correction_d1,
    correction_e1,
    default_box,
    gamma2,
    make_cir,
    make_model,
    make_ou,
    mean_expansion_r1,
)
from .montecarlo import (
    ExperimentConfig,
    PowerTable,
    empirical_power,
    local_alternative,
    null_threshold,
    run_table,
)
from .quasilik import (
    InfoMatrix,
    QLContext,
    fisher_info,
    observed_info,
    ql_grad,
    ql_hess,
    ql_term,
    ql_terms,
    ql_total,
)
from .simulate import SamplePath, SimConfig, euler_maruyama, observation_schedule

__version__ = "0.1.0"
