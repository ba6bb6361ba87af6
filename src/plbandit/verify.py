"""Empirical verification harness: every bound and reduction, checked end to end.

Each check runs against synthetic environments with exact ground truth and
returns a named pass/fail result with details; `run_verification` bundles them
into a machine-readable report. The CLI `verify` subcommand is a thin wrapper
around this module.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import continuous as cont
from . import csc, estimators, simulator
from .model import (
    ClassStats,
    Context,
    LoggedDataset,
    PolicyClass,
    class_stats,
    deterministic_class,
    pmf_extrema,
    validate_dataset,
)


@dataclass
class CheckResult:
    name: str
    passed: bool
    details: dict = field(default_factory=dict)


@dataclass
class VerifyConfig:
    env: simulator.SyntheticEnvironment
    continuous_env: simulator.ContinuousEnvironment | None = None
    reps: int = 300
    alpha: float = 0.05
    seed: int = 0
    n: int = 500
    dataset: LoggedDataset | None = None  # externally supplied dataset to validate


def _env_contexts(env) -> list[Context]:
    return [Context(id=x) for x in range(env.num_contexts)]


def check_dataset_validation(cfg: VerifyConfig) -> CheckResult:
    """Generated logs must validate cleanly; a supplied dataset must too."""
    report = validate_dataset(simulator.generate_logs(cfg.env, 200, seed=(cfg.seed, 1)))
    details: dict = {"generated_violations": len(report)}
    passed = not report
    if cfg.dataset is not None:
        supplied = validate_dataset(cfg.dataset)
        details["supplied_violations"] = supplied[:5]
        passed = passed and not supplied
    return CheckResult("dataset_validation", passed, details)


def check_discrete_reduction(cfg: VerifyConfig, instances: int = 30) -> CheckResult:
    """Training via one enumeration-oracle call must equal the brute-force argmin,
    and the pointwise argmin must agree on the full deterministic class."""
    rng = simulator.make_rng((cfg.seed, 2))
    worst = 0.0
    betas = [0.01, 0.1, 1.0]
    for i in range(instances):
        num_contexts = int(rng.integers(1, 5))
        num_actions = int(rng.integers(2, 4))
        env = simulator.random_environment(rng, num_contexts, num_actions)
        data = simulator.generate_logs(env, int(rng.integers(1, 9)), seed=(cfg.seed, 2, i))
        beta = betas[i % len(betas)]
        pclass = deterministic_class(num_contexts, num_actions)
        learned, value = csc.train_ipw_pl(data, beta, csc.EnumerationOracle(), pclass)
        reference, ref_value = csc.brute_force_argmin(data, beta, pclass)
        pointwise = csc.PointwiseArgminOracle(num_contexts=num_contexts).solve(
            csc.build_modified_costs(data, beta)
        )
        if learned is not reference or pointwise.assignment != reference.assignment:
            return CheckResult("discrete_reduction", False, {"instance": i})
        worst = max(worst, abs(value - ref_value))
    return CheckResult("discrete_reduction", worst <= 1e-12, {"max_objective_gap": worst})


def check_continuous_reduction(cfg: VerifyConfig, instances: int = 20) -> CheckResult:
    """Grid-side CSC objective == density-side penalized objective (exact integration)."""
    rng = simulator.make_rng((cfg.seed, 3))
    worst = 0.0
    for i in range(instances):
        num_contexts = int(rng.integers(1, 4))
        env = simulator.random_continuous_environment(rng, num_contexts)
        data = simulator.generate_logs(env, int(rng.integers(1, 7)), seed=(cfg.seed, 3, i))
        k = int(rng.integers(1, 7))
        h = [0.2, 0.5][i % 2]
        beta = [0.01, 0.1, 1.0][i % 3]
        grid_policy = simulator.random_grid_policy(rng, num_contexts, k)
        costs = cont.build_modified_costs_continuous(data, grid_policy.grid, h, beta)
        grid_side = csc.average_cost(grid_policy, costs)
        density_side = cont.continuous_penalized_objective(cont.smooth(grid_policy, h), data, beta)
        worst = max(worst, abs(grid_side - density_side))
    return CheckResult("continuous_reduction", worst <= 1e-9, {"max_gap": worst})


def check_variance_domination(cfg: VerifyConfig, pairs: int = 200) -> CheckResult:
    """exact_variance(pi) <= pmf_sup(pi) * exact_pl(pi) on random finite instances."""
    rng = simulator.make_rng((cfg.seed, 4))
    worst = -np.inf
    for _ in range(pairs):
        env = simulator.random_environment(rng, int(rng.integers(1, 5)), int(rng.integers(2, 5)))
        policy = simulator.random_policy(rng, env.num_contexts, env.num_actions)
        sup, _ = pmf_extrema(policy, _env_contexts(env))
        gap = estimators.exact_variance(policy, env) - sup * estimators.exact_pl(policy, env)
        worst = max(worst, gap)
    return CheckResult("variance_domination", worst <= 1e-10, {"max_violation": worst})


def check_pl_band_coverage(cfg: VerifyConfig) -> CheckResult:
    """The inverted pseudo-loss band must cover the exact pseudo-loss at its level."""
    policy = simulator.random_policy((cfg.seed, 5), cfg.env.num_contexts, cfg.env.num_actions)
    truth = estimators.exact_pl(policy, cfg.env)
    mu_inf = float(cfg.env.mu_table.min())
    hits = 0
    for rep in range(cfg.reps):
        data = simulator.generate_logs(cfg.env, cfg.n, seed=(cfg.seed, 5, rep))
        lo, hi = estimators.pl_confidence_band(
            estimators.pseudo_loss(policy, data), cfg.n, cfg.alpha, mu_inf
        )
        hits += lo <= truth <= hi
    coverage = hits / cfg.reps
    return CheckResult("pl_band_coverage", coverage >= 1.0 - cfg.alpha, {"coverage": coverage})


def check_confidence_coverage(cfg: VerifyConfig) -> CheckResult:
    """|R - ipw_risk| must stay within the per-policy confidence width."""
    policy = simulator.random_policy((cfg.seed, 6), cfg.env.num_contexts, cfg.env.num_actions)
    contexts = _env_contexts(cfg.env)
    sup, _ = pmf_extrema(policy, contexts)
    mu_inf = float(cfg.env.mu_table.min())
    pi_table = policy.pmf_table(cfg.env.num_contexts)
    stats = ClassStats(
        pmf_sup=sup,
        mu_pmf_inf=mu_inf,
        weight_ratio_sup=float((pi_table / cfg.env.mu_table).max()),
        class_size=1,
    )
    truth = simulator.exact_risk(policy, cfg.env)
    hits = 0
    for rep in range(cfg.reps):
        data = simulator.generate_logs(cfg.env, cfg.n, seed=(cfg.seed, 6, rep))
        width = estimators.confidence_width(
            estimators.pseudo_loss(policy, data), stats, cfg.n, cfg.alpha
        ).value
        hits += abs(truth - estimators.ipw_risk(policy, data)) <= width
    coverage = hits / cfg.reps
    return CheckResult("confidence_coverage", coverage >= 1.0 - cfg.alpha, {"coverage": coverage})


def check_ucb_coverage(cfg: VerifyConfig, class_size: int = 8) -> CheckResult:
    """R(pi) <= ucb_risk(pi) simultaneously over an enumerated class."""
    rng = simulator.make_rng((cfg.seed, 7))
    members = [
        simulator.random_policy(rng, cfg.env.num_contexts, cfg.env.num_actions)
        for _ in range(class_size)
    ]
    pclass = PolicyClass.from_members(members)
    stats = class_stats(pclass, cfg.env.logging_policy, _env_contexts(cfg.env))
    truths = [simulator.exact_risk(m, cfg.env) for m in members]
    beta = 0.05
    hits = 0
    for rep in range(cfg.reps):
        data = simulator.generate_logs(cfg.env, cfg.n, seed=(cfg.seed, 7, rep))
        ok = all(
            truth <= estimators.ucb_risk(member, data, stats, cfg.alpha, beta)
            for member, truth in zip(members, truths)
        )
        hits += ok
    coverage = hits / cfg.reps
    return CheckResult("ucb_simultaneous_coverage", coverage >= 1.0 - cfg.alpha, {"coverage": coverage})


def check_pessimism_path(cfg: VerifyConfig) -> CheckResult:
    """Pseudo-loss of the trained policy is non-increasing along a beta grid."""
    data = simulator.generate_logs(cfg.env, cfg.n, seed=(cfg.seed, 8))
    pclass = deterministic_class(cfg.env.num_contexts, cfg.env.num_actions)
    oracle = csc.EnumerationOracle()
    path = []
    for beta in [0.001, 0.01, 0.1, 0.5, 1.0, 5.0, 25.0]:
        policy, _ = csc.train_ipw_pl(data, beta, oracle, pclass)
        path.append(estimators.pseudo_loss(policy, data))
    monotone = all(b <= a + 1e-12 for a, b in zip(path, path[1:]))
    return CheckResult("pessimism_path", monotone, {"pl_path": path})


def check_smoothing_bounds(cfg: VerifyConfig, instances: int = 10) -> CheckResult:
    """Discretization and bandwidth-perturbation risk bounds, exact integration."""
    rng = simulator.make_rng((cfg.seed, 9))
    worst_disc, worst_band = -np.inf, -np.inf
    for _ in range(instances):
        num_contexts = int(rng.integers(1, 4))
        env = simulator.random_continuous_environment(rng, num_contexts)
        base = simulator.random_density_policy(rng, num_contexts)
        k = int(rng.integers(1, 8))
        h = [0.2, 0.25, 0.5][int(rng.integers(0, 3))]
        gamma = [0.05, 0.1, 0.4][int(rng.integers(0, 3))]
        smoothed_exact = simulator.exact_risk_smoothed(base, h, env)
        grid_policy = cont.discretize(base, k, num_contexts)
        risk_k = simulator.exact_risk(cont.smooth(grid_policy, h), env)
        worst_disc = max(worst_disc, abs(risk_k - smoothed_exact) - min(1.0, 1.0 / (h * k)))
        tilde = simulator.random_grid_policy(rng, num_contexts, k)
        gap = abs(
            simulator.exact_risk(cont.smooth(tilde, h), env)
            - simulator.exact_risk(cont.smooth(tilde, h + gamma), env)
        )
        worst_band = max(worst_band, gap - min(1.0, 2.0 * gamma / h))
    passed = worst_disc <= 1e-9 and worst_band <= 1e-9
    return CheckResult(
        "smoothing_bounds", passed, {"discretization_slack": worst_disc, "bandwidth_slack": worst_band}
    )


def check_unbiasedness(cfg: VerifyConfig, policies: int = 4, draws: int = 10_000) -> CheckResult:
    """Monte Carlo means of ipw_risk / pseudo_loss match the exact values within 3 s.e."""
    rng = simulator.make_rng((cfg.seed, 10))
    ok = True
    worst_z = 0.0
    for j in range(policies):
        policy = simulator.random_policy(rng, cfg.env.num_contexts, cfg.env.num_actions)
        data = simulator.generate_logs(cfg.env, draws, seed=(cfg.seed, 10, j))
        for terms, truth in [
            (estimators.ipw_terms(policy, data), simulator.exact_risk(policy, cfg.env)),
            (estimators.pl_terms(policy, data), estimators.exact_pl(policy, cfg.env)),
        ]:
            se = float(np.std(terms)) / np.sqrt(draws) + 1e-12
            z = abs(float(np.mean(terms)) - truth) / se
            worst_z = max(worst_z, z)
            ok = ok and z <= 3.0
    return CheckResult("unbiasedness", ok, {"worst_z": worst_z})


class _CountingOracle:
    def __init__(self, inner):
        self.inner = inner
        self.calls = 0

    def solve(self, costs, policy_class=None):
        self.calls += 1
        return self.inner.solve(costs, policy_class)


def check_oracle_call_count(cfg: VerifyConfig) -> CheckResult:
    """train_ipw_pl must invoke its oracle exactly once."""
    data = simulator.generate_logs(cfg.env, 50, seed=(cfg.seed, 11))
    pclass = deterministic_class(cfg.env.num_contexts, cfg.env.num_actions)
    oracle = _CountingOracle(csc.EnumerationOracle())
    csc.train_ipw_pl(data, 0.1, oracle, pclass)
    return CheckResult("oracle_call_count", oracle.calls == 1, {"calls": oracle.calls})


ALL_CHECKS = [
    check_dataset_validation,
    check_discrete_reduction,
    check_continuous_reduction,
    check_variance_domination,
    check_pl_band_coverage,
    check_confidence_coverage,
    check_ucb_coverage,
    check_pessimism_path,
    check_smoothing_bounds,
    check_unbiasedness,
    check_oracle_call_count,
]


def run_verification(cfg: VerifyConfig) -> dict:
    """Run every check; the report's `passed` is the conjunction."""
    results = [check(cfg) for check in ALL_CHECKS]
    return {
        "passed": bool(all(r.passed for r in results)),
        "num_passed": int(sum(bool(r.passed) for r in results)),
        "num_checks": len(results),
        "alpha": cfg.alpha,
        "reps": cfg.reps,
        "seed": cfg.seed,
        "checks": [
            {"name": r.name, "passed": bool(r.passed), "details": _jsonable(r.details)} for r in results
        ],
    }


def _jsonable(value):
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (np.floating, np.integer, np.bool_)):
        return value.item()
    return value
