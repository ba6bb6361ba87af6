"""Per-replicate loop references for the three coverage checks of `plbandit.verify`.

These are the coverage checks as they were before `plbandit.verify` drew and
scored their replicates in blocks, kept verbatim (renamed): one
`generate_logs` dataset and one estimator call per replicate. Tests check
that the batched checks return the same `CheckResult`.
"""

import numpy as np

from plbandit import estimators, simulator
from plbandit.model import ClassStats, PolicyClass, class_stats
from plbandit.verify import CheckResult, VerifyConfig


def reference_check_pl_band_coverage(cfg: VerifyConfig) -> CheckResult:
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
    hits = 0
    for rep in range(cfg.reps):
        data = simulator.generate_logs(cfg.env, cfg.n, seed=(cfg.seed, 6, rep))
        width = estimators.confidence_width(
            estimators.pseudo_loss(policy, data), stats, cfg.n, cfg.alpha
        ).value
        hits += abs(truth - estimators.ipw_risk(policy, data)) <= width
    coverage = hits / cfg.reps
    return CheckResult("confidence_coverage", coverage >= 1.0 - cfg.alpha, {"coverage": coverage})


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
