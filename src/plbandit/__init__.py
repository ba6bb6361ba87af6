"""Pessimistic offline policy optimization for contextual bandits.

Training minimizes the inverse-propensity-weighted risk plus a pseudo-loss
penalty (the summed importance-weight mass), which reduces exactly to one
cost-sensitive classification oracle call for both discrete actions and
boxcar-smoothed continuous actions on [0, 1]. The `estimators` module carries
the exact-constant confidence bounds; `simulator` provides synthetic
environments with exact ground truth, and `verify` checks every bound and
reduction empirically.
"""

from .continuous import (
    ContinuousLoggedDataset,
    GridMassPolicy,
    PiecewiseConstant,
    PiecewiseConstantDensity,
    PiecewiseDensityPolicy,
    SmoothedDensityPolicy,
    SurrogateGrid,
    build_modified_costs_continuous,
    continuous_ipw_risk,
    continuous_penalized_objective,
    continuous_pseudo_loss,
    discretize,
    effective_bandwidth,
    h_grid,
    smoothed_class_stats,
    suggest_k,
    surrogate_set,
    train_smoothed,
)
from .csc import (
    CostMatrix,
    EnumerationOracle,
    PointwiseArgminOracle,
    RidgeRegressionOracle,
    average_cost,
    brute_force_argmin,
    build_modified_costs,
    train_ipw_pl,
)
from .estimators import (
    BoundReport,
    beta_candidates,
    confidence_slack,
    confidence_width,
    exact_pl,
    exact_variance,
    ipw_risk,
    oracle_inequality_bound,
    oracle_inequality_bound_tuned,
    penalized_objective,
    pl_confidence_band,
    pseudo_loss,
    ucb_risk,
)
from .model import (
    ClassStats,
    DatasetError,
    DeterministicPolicy,
    LoggedDataset,
    MassPolicy,
    PolicyClass,
    SupportError,
    TabularPolicy,
    class_stats,
    deterministic_class,
    load_dataset_jsonl,
    save_dataset_jsonl,
)
from .simulator import (
    ContinuousEnvironment,
    SyntheticEnvironment,
    exact_risk,
    exact_risk_smoothed,
    generate_logs,
    hard_instance,
    supervised_to_bandit,
)

__version__ = "0.1.0"
