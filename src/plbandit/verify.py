"""Empirical verification harness: every bound and reduction, checked end to end.

Each check runs against synthetic environments with exact ground truth and
returns a named pass/fail result with details; `run_verification` bundles them
into a machine-readable report. The CLI `verify` subcommand is a thin wrapper
around this module.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import continuous as cont
from . import csc, estimators, simulator
from .model import (
    ClassStats,
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
    reps: int = 300
    alpha: float = 0.05
    seed: int = 0
    n: int = 500
    dataset: LoggedDataset | None = None  # externally supplied dataset to validate

    def __post_init__(self):
        if self.reps < 1:
            raise ValueError(f"reps must be >= 1, not {self.reps}")
        if self.n < 1:
            raise ValueError(f"n must be >= 1, not {self.n}")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must lie in (0, 1), not {self.alpha}")


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
    """One enumeration-oracle call on the full deterministic class, and on an explicit
    copy of it, must equal the brute-force argmin, and the pointwise argmin must agree.
    A failure names the paths that disagreed and the instance's beta, X and A."""
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
        costs = csc.build_modified_costs(data, beta)
        explicit = csc.EnumerationOracle().solve(costs, PolicyClass.from_members(pclass.members))
        pointwise = csc.PointwiseArgminOracle(num_contexts=num_contexts).solve(costs)
        agree = {
            "enumeration": learned is reference,
            "explicit": explicit is reference,
            "pointwise": pointwise.assignment == reference.assignment,
        }
        failed = [path for path, ok in agree.items() if not ok]
        if failed:
            details = {"instance": i, "paths": failed, "beta": beta, "X": num_contexts, "A": num_actions}
            return CheckResult("discrete_reduction", False, details)
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
        density_side = cont.continuous_penalized_objective(
            cont.SmoothedDensityPolicy(base=grid_policy, bandwidth=h), data, beta
        )
        worst = max(worst, abs(grid_side - density_side))
    return CheckResult("continuous_reduction", worst <= 1e-9, {"max_gap": worst})


def check_variance_domination(cfg: VerifyConfig, pairs: int = 200) -> CheckResult:
    """exact_variance(pi) <= pmf_sup(pi) * exact_pl(pi) on random finite instances."""
    rng = simulator.make_rng((cfg.seed, 4))
    worst = -np.inf
    for _ in range(pairs):
        env = simulator.random_environment(rng, int(rng.integers(1, 5)), int(rng.integers(2, 5)))
        policy = simulator.random_policy(rng, env.num_contexts, env.num_actions)
        sup, _ = pmf_extrema(policy, np.arange(env.num_contexts))
        gap = estimators.exact_variance(policy, env) - sup * estimators.exact_pl(policy, env)
        worst = max(worst, gap)
    return CheckResult("variance_domination", worst <= 1e-10, {"max_violation": worst})


# The coverage checks draw and score their replicates in blocks of _BLOCK:
# each block is one dataset of _BLOCK * n records, which bounds their memory.
# Blocks of 25 raised the peak resident size of `verify --reps 300 --n 500`
# by about 0.8 MB and saved little time; blocks of 16 did not raise it.
_BLOCK = 16


def _replicate_sums(cfg: VerifyConfig, check: int) -> tuple[np.ndarray, np.ndarray]:
    """`ipw_sums` and `pl_sums` of every replicate log of a coverage check, as two (reps, X, A) arrays.

    Replicate rep is the log generate_logs(cfg.env, cfg.n, seed=(cfg.seed, check, rep))
    draws, from its own stream; a block's sums are bitwise each replicate's own.
    """
    shape = (-1, cfg.env.num_contexts, cfg.env.num_actions)
    ipw, pl = [], []
    for start in range(0, cfg.reps, _BLOCK):
        seeds = [(cfg.seed, check, rep) for rep in range(start, min(start + _BLOCK, cfg.reps))]
        block = simulator.generate_log_block(cfg.env, cfg.n, seeds)
        ipw.append(block.ipw_sums.reshape(shape))
        pl.append(block.pl_sums.reshape(shape))
    return np.concatenate(ipw), np.concatenate(pl)


def _scores(table: np.ndarray, sums: np.ndarray, n: int) -> list[float]:
    """Each replicate's contraction of a pmf table with its sums: the reduction of `ipw_risk` and `pseudo_loss`."""
    return [float(np.vdot(table, rep_sums) / n) for rep_sums in sums]


def _guarded(result: CheckResult, batched: list[float], direct: list[float]) -> CheckResult:
    """`result`, failed with a `batch_mismatch` detail unless replicate 0's batched
    scores are bitwise the public estimators' on its own generate_logs dataset."""
    if np.array(batched).tobytes() != np.array(direct).tobytes():
        result.passed = False
        result.details["batch_mismatch"] = {"batched": batched, "direct": direct}
    return result


def check_pl_band_coverage(cfg: VerifyConfig) -> CheckResult:
    """The inverted pseudo-loss band must cover the exact pseudo-loss at its level."""
    policy = simulator.random_policy((cfg.seed, 5), cfg.env.num_contexts, cfg.env.num_actions)
    truth = estimators.exact_pl(policy, cfg.env)
    mu_inf = float(cfg.env.mu_table.min())
    _, pl_sums = _replicate_sums(cfg, 5)
    pl_hats = _scores(policy.pmf_table(cfg.env.num_contexts), pl_sums, cfg.n)
    hits = 0
    for pl_hat in pl_hats:
        lo, hi = estimators.pl_confidence_band(pl_hat, cfg.n, cfg.alpha, mu_inf)
        hits += lo <= truth <= hi
    coverage = hits / cfg.reps
    result = CheckResult("pl_band_coverage", coverage >= 1.0 - cfg.alpha, {"coverage": coverage})
    first = simulator.generate_logs(cfg.env, cfg.n, seed=(cfg.seed, 5, 0))
    return _guarded(result, pl_hats[:1], [estimators.pseudo_loss(policy, first)])


def check_confidence_coverage(cfg: VerifyConfig) -> CheckResult:
    """|R - ipw_risk| must stay within the per-policy confidence width."""
    policy = simulator.random_policy((cfg.seed, 6), cfg.env.num_contexts, cfg.env.num_actions)
    sup, _ = pmf_extrema(policy, np.arange(cfg.env.num_contexts))
    mu_inf = float(cfg.env.mu_table.min())
    pi_table = policy.pmf_table(cfg.env.num_contexts)
    stats = ClassStats(
        pmf_sup=sup,
        mu_pmf_inf=mu_inf,
        weight_ratio_sup=float((pi_table / cfg.env.mu_table).max()),
        class_size=1,
    )
    truth = simulator.exact_risk(policy, cfg.env)
    ipw_sums, pl_sums = _replicate_sums(cfg, 6)
    ipw_hats = _scores(pi_table, ipw_sums, cfg.n)
    pl_hats = _scores(pi_table, pl_sums, cfg.n)
    hits = 0
    for ipw_hat, pl_hat in zip(ipw_hats, pl_hats):
        width = estimators.confidence_width(pl_hat, stats, cfg.n, cfg.alpha).value
        hits += abs(truth - ipw_hat) <= width
    coverage = hits / cfg.reps
    result = CheckResult("confidence_coverage", coverage >= 1.0 - cfg.alpha, {"coverage": coverage})
    first = simulator.generate_logs(cfg.env, cfg.n, seed=(cfg.seed, 6, 0))
    direct = [estimators.ipw_risk(policy, first), estimators.pseudo_loss(policy, first)]
    return _guarded(result, [ipw_hats[0], pl_hats[0]], direct)


def check_ucb_coverage(cfg: VerifyConfig, class_size: int = 8) -> CheckResult:
    """R(pi) <= ucb_risk(pi) simultaneously over a finite policy class."""
    rng = simulator.make_rng((cfg.seed, 7))
    members = [
        simulator.random_policy(rng, cfg.env.num_contexts, cfg.env.num_actions)
        for _ in range(class_size)
    ]
    pclass = PolicyClass.from_members(members)
    stats = class_stats(pclass, np.arange(cfg.env.num_contexts), cfg.env.mu_table)
    truths = [simulator.exact_risk(m, cfg.env) for m in members]
    beta = 0.05
    ipw_sums, pl_sums = _replicate_sums(cfg, 7)
    slack = estimators.confidence_slack(stats, cfg.n, cfg.alpha, beta).value
    # ucb_risk's sum, in its order: ipw_risk + beta * pseudo_loss, then the slack.
    ucbs = [
        [ipw + beta * pl + slack for ipw, pl in zip(_scores(t, ipw_sums, cfg.n), _scores(t, pl_sums, cfg.n))]
        for t in pclass.tables(cfg.env.num_contexts)
    ]
    hits = sum(all(truth <= ucb for truth, ucb in zip(truths, rep_ucbs)) for rep_ucbs in zip(*ucbs))
    coverage = hits / cfg.reps
    result = CheckResult("ucb_simultaneous_coverage", coverage >= 1.0 - cfg.alpha, {"coverage": coverage})
    first = simulator.generate_logs(cfg.env, cfg.n, seed=(cfg.seed, 7, 0))
    direct = [estimators.ucb_risk(member, first, stats, cfg.alpha, beta) for member in members]
    return _guarded(result, [member_ucbs[0] for member_ucbs in ucbs], direct)


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
        risk_k = simulator.exact_risk(cont.SmoothedDensityPolicy(base=grid_policy, bandwidth=h), env)
        worst_disc = max(worst_disc, abs(risk_k - smoothed_exact) - min(1.0, 1.0 / (h * k)))
        tilde = simulator.random_grid_policy(rng, num_contexts, k)
        gap = abs(
            simulator.exact_risk(cont.SmoothedDensityPolicy(base=tilde, bandwidth=h), env)
            - simulator.exact_risk(cont.SmoothedDensityPolicy(base=tilde, bandwidth=h + gamma), env)
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
    """Run every check; the report's `passed` is the conjunction.

    Each check's entry carries its wall time in `seconds` (time.perf_counter).
    """
    results, seconds = [], []
    for check in ALL_CHECKS:
        start = time.perf_counter()
        results.append(check(cfg))
        seconds.append(time.perf_counter() - start)
    return {
        "passed": bool(all(r.passed for r in results)),
        "num_passed": int(sum(bool(r.passed) for r in results)),
        "num_checks": len(results),
        "alpha": cfg.alpha,
        "reps": cfg.reps,
        "seed": cfg.seed,
        "checks": [
            {"name": r.name, "passed": bool(r.passed), "seconds": t, "details": _jsonable(r.details)}
            for r, t in zip(results, seconds)
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
