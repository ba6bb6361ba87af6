"""Loop references for the three coverage checks and `variance_domination` of `plbandit.verify`.

These are the checks as they were before `plbandit.verify` scored their
replicates or instances in one batch. A coverage check makes one dataset and
one estimator call per replicate; each replicate's dataset is the log of its
drawn cell counts (`verify._counted_dataset`). `variance_domination` builds
each instance's environment and policy and scores it through the public
estimators. Tests check that the batched checks return the same `CheckResult`.
"""

import numpy as np

from plbandit import estimators, simulator
from plbandit.model import ClassStats, PolicyClass, class_stats
from plbandit.verify import CheckResult, VerifyConfig, _counted_dataset, _replicate_counts


def _datasets(cfg: VerifyConfig, check: int):
    """Each replicate's dataset of a coverage check, in replicate order."""
    return [_counted_dataset(cfg.env, counts) for counts in _replicate_counts(cfg, check)]


def reference_check_pl_band_coverage(cfg: VerifyConfig) -> CheckResult:
    """The inverted pseudo-loss band must cover the exact pseudo-loss at its level."""
    policy = simulator.random_policy((cfg.seed, 5), cfg.env.num_contexts, cfg.env.num_actions)
    truth = estimators.exact_pl(policy, cfg.env)
    mu_inf = float(cfg.env.mu_table.min())
    hits, used = 0, 0.0
    for data in _datasets(cfg, 5):
        pl_hat = estimators.pseudo_loss(policy, data)
        lo, hi = estimators.pl_confidence_band(pl_hat, cfg.n, cfg.alpha, mu_inf)
        hits += lo <= truth <= hi
        edge = hi if truth >= pl_hat else lo
        used = max(used, abs(truth - pl_hat) / abs(edge - pl_hat))
    coverage = hits / cfg.reps
    details = {"coverage": coverage, "max_used_fraction": used}
    return CheckResult("pl_band_coverage", coverage >= 1.0 - cfg.alpha, details)


def reference_check_confidence_coverage(cfg: VerifyConfig) -> CheckResult:
    """|R - ipw_risk| must stay within the per-policy confidence width."""
    policy = simulator.random_policy((cfg.seed, 6), cfg.env.num_contexts, cfg.env.num_actions)
    sup = float(policy.table.max())
    mu_inf = float(cfg.env.mu_table.min())
    pi_table = policy.pmf_table(cfg.env.num_contexts)
    stats = ClassStats(
        pmf_sup=sup,
        mu_pmf_inf=mu_inf,
        weight_ratio_sup=float((pi_table / cfg.env.mu_table).max()),
        class_size=1,
    )
    truth = simulator.exact_risk(policy, cfg.env)
    hits, used = 0, 0.0
    for data in _datasets(cfg, 6):
        width = estimators.confidence_width(
            estimators.pseudo_loss(policy, data), stats, cfg.n, cfg.alpha
        ).value
        deviation = abs(truth - estimators.ipw_risk(policy, data))
        hits += deviation <= width
        used = max(used, deviation / width)
    coverage = hits / cfg.reps
    details = {"coverage": coverage, "max_used_fraction": used}
    return CheckResult("confidence_coverage", coverage >= 1.0 - cfg.alpha, details)


def reference_check_ucb_coverage(cfg: VerifyConfig, class_size: int = 8) -> CheckResult:
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
    slack = estimators.confidence_slack(stats, cfg.n, cfg.alpha, beta).value
    hits, used = 0, -np.inf
    for data in _datasets(cfg, 7):
        ok = all(
            truth <= estimators.ucb_risk(member, data, stats, cfg.alpha, beta)
            for member, truth in zip(members, truths)
        )
        hits += ok
        for member, truth in zip(members, truths):
            deviation = truth - estimators.ipw_risk(member, data)
            used = max(used, deviation / (beta * estimators.pseudo_loss(member, data) + slack))
    coverage = hits / cfg.reps
    details = {"coverage": coverage, "max_used_fraction": used}
    return CheckResult("ucb_simultaneous_coverage", coverage >= 1.0 - cfg.alpha, details)


def reference_variance_gaps(cfg: VerifyConfig):
    """exact_variance(pi) - pmf_sup(pi) * exact_pl(pi) of each random finite instance,
    in instance order, each built as objects and scored through the public estimators."""
    rng = simulator.make_rng((cfg.seed, 4))
    for _ in range(200):
        env = simulator.random_environment(rng, int(rng.integers(1, 5)), int(rng.integers(2, 5)))
        policy = simulator.random_policy(rng, env.num_contexts, env.num_actions)
        sup = float(policy.pmf_table(env.num_contexts).max())
        yield estimators.exact_variance(policy, env) - sup * estimators.exact_pl(policy, env)


def reference_check_variance_domination(cfg: VerifyConfig) -> CheckResult:
    """exact_variance(pi) <= pmf_sup(pi) * exact_pl(pi) on random finite instances."""
    worst = -np.inf
    for gap in reference_variance_gaps(cfg):
        worst = max(worst, gap)
    return CheckResult("variance_domination", worst <= 1e-10, {"max_violation": worst})
