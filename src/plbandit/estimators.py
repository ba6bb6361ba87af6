"""Scalar estimators and exact-constant confidence bounds.

The trainable objective is ``ipw_risk + beta * pseudo_loss``. The bound
functions implement the exact-constant forms (the ones that can actually be
asserted in tests), not big-O envelopes. Every bound that decomposes into
named terms returns a :class:`BoundReport` whose value equals the sum of its
terms to 1e-12.

All functions are pure; inputs are immutable, so concurrent calls are safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .model import (
    ClassStats,
    LoggedDataset,
    MassPolicy,
    PolicyClass,
    _logged_cells,
)

TERM_ATOL = 1e-12


@dataclass(frozen=True)
class BoundReport:
    """A bound value with its named constituent terms, for auditability.

    `derived` holds related quantities that are not part of the sum (e.g. the
    looser max-form envelope of the confidence width).
    """

    value: float
    terms: dict[str, float]
    alpha: float
    derived: dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        if abs(self.value - math.fsum(self.terms.values())) > TERM_ATOL:
            raise ValueError("bound value does not equal the sum of its terms")

    def as_dict(self) -> dict:
        out = {"value": self.value, "terms": dict(self.terms), "alpha": self.alpha}
        if self.derived:
            out["derived"] = dict(self.derived)
        return out


def ipw_terms(policy: MassPolicy, dataset: LoggedDataset) -> np.ndarray:
    """Per-record importance-weighted losses pi(a_i|x_i)/mu(a_i|x_i) * loss_i."""
    rows = policy.pmf_rows(dataset)
    if rows.shape != dataset.propensities.shape:
        raise ValueError(f"policy has {rows.shape[1]} actions, the dataset {dataset.num_actions}")
    cells = _logged_cells(dataset)
    return rows.take(cells) / dataset.propensities.take(cells) * dataset.losses


def pl_terms(policy: MassPolicy, dataset: LoggedDataset) -> np.ndarray:
    """Per-record importance-weight mass sum_a pi(a|x_i)/mu(a|x_i)."""
    rows = policy.pmf_rows(dataset)
    return (rows / dataset.propensities).sum(axis=1)


def ipw_risk(policy: MassPolicy, dataset: LoggedDataset) -> float:
    """Inverse-propensity-weighted empirical risk: the mean of :func:`ipw_terms`.

    It is linear in pi, so finite contexts contract the policy's table with
    `dataset.ipw_sums`, O(X*A) per call; feature contexts average the
    per-record terms.
    """
    if dataset.context_ids is None:
        return float(np.mean(ipw_terms(policy, dataset)))
    table = policy.pmf_table(dataset.num_contexts)
    return float(np.vdot(table, dataset.ipw_sums) / dataset.n)


def pseudo_loss(policy: MassPolicy, dataset: LoggedDataset) -> float:
    """Pseudo-loss (1/N) sum_i sum_a pi(a|x_i)/mu(a|x_i): the mean of :func:`pl_terms`.

    Always >= 1 for a proper pmf policy, since each inner sum dominates
    sum_a pi(a|x_i) = 1 when every mu(a|x_i) <= 1. Finite contexts read it
    from `dataset.pl_sums`, O(X*A) per call.
    """
    if dataset.context_ids is None:
        return float(np.mean(pl_terms(policy, dataset)))
    table = policy.pmf_table(dataset.num_contexts)
    return float(np.vdot(table, dataset.pl_sums) / dataset.n)


def penalized_objective(policy: MassPolicy, dataset: LoggedDataset, beta: float) -> float:
    """The trainable objective ipw_risk + beta * pseudo_loss (beta = 0 allowed for testing)."""
    if beta < 0:
        raise ValueError("beta must be nonnegative")
    return ipw_risk(policy, dataset) + beta * pseudo_loss(policy, dataset)


# ---------------------------------------------------------------------------
# Exact population quantities on finite synthetic environments. `env` must
# expose context_dist, loss_means, mu_table and bernoulli_noise, validated as
# simulator.SyntheticEnvironment validates them: mu_table above the floor.


def _env_tables(policy: MassPolicy, env) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    if not hasattr(env, "loss_means"):
        raise ValueError("exact quantities need a finite discrete-action environment")
    return env.context_dist, policy.pmf_table(env.num_contexts), env.mu_table


def exact_pl(policy: MassPolicy, env) -> float:
    """Exact expectation of the pseudo-loss: sum_x P(x) sum_a pi(a|x)/mu(a|x)."""
    dist, pi, mu = _env_tables(policy, env)
    return float(dist @ (pi / mu).sum(axis=1))


def exact_variance(policy: MassPolicy, env) -> float:
    """Exact variance of the single-sample IPW term under x ~ D, a ~ mu(.|x).

    With Bernoulli loss noise E[loss^2] equals the mean; without noise it is
    the squared mean.
    """
    dist, pi, mu = _env_tables(policy, env)
    means = env.loss_means
    sq = means if env.bernoulli_noise else means**2
    mean = float(dist @ (pi * means).sum(axis=1))
    second = float(dist @ (pi**2 / mu * sq).sum(axis=1))
    return second - mean**2


# ---------------------------------------------------------------------------
# Concentration machinery with exact constants.


def _check_alpha(alpha: float) -> None:
    if not (0.0 < alpha < 1.0):
        raise ValueError("alpha must lie in (0, 1)")


def _check_n(n: int) -> None:
    if not n >= 1:
        raise ValueError("n must be >= 1")


def _log_union(class_size: int, alpha: float) -> float:
    """ln(4|class|/a): the log of one float product wherever that is finite, else
    ln|class| + ln 4 - ln a, as math.log takes an int of any size (such as k**X)."""
    try:
        product = 4.0 * class_size / alpha
    except OverflowError:  # an int beyond the float range
        product = math.inf
    return math.log(product) if product < math.inf else math.log(class_size) + math.log(4.0) - math.log(alpha)


def pl_confidence_band(pl_hat: float, n: int, alpha: float, mu_pmf_inf: float) -> tuple[float, float]:
    """Two-sided band for the exact pseudo-loss given its estimate.

    The concentration step gives |PL - PL_hat| <= PL/2 + c with
    c = 4*ln(2/a)/(3*N*mu_pmf_inf); inverting for PL yields
    [2/3*(PL_hat - c), 2*(PL_hat + c)], clamped below at 0.
    """
    _check_alpha(alpha)
    _check_n(n)
    if pl_hat < 0:
        raise ValueError("pl_hat must be nonnegative")
    if mu_pmf_inf <= 0:
        raise ValueError("mu_pmf_inf must be positive")
    c = 4.0 * math.log(2.0 / alpha) / (3.0 * n * mu_pmf_inf)
    lo = max(0.0, (2.0 / 3.0) * (pl_hat - c))
    hi = 2.0 * (pl_hat + c)
    return lo, hi


def confidence_width(pl_hat: float, stats: ClassStats, n: int, alpha: float) -> BoundReport:
    """Half-width of the per-policy confidence interval for the IPW risk.

    value = sqrt(3*ln(4/a)*pmf_sup*PL_hat/N)
          + sqrt(8*pmf_sup/(3*mu_pmf_inf))*ln(4/a)/N
          + ln(4/a)*weight_ratio_sup/(3N)

    The sum of the two small terms is what the derivation establishes first
    and is tighter than the max-form envelope, which is reported under
    derived["maxEnvelope"].
    """
    _check_alpha(alpha)
    _check_n(n)
    if pl_hat < 0:
        raise ValueError("pl_hat must be nonnegative")
    log_term = math.log(4.0 / alpha)
    sqrt_term = math.sqrt(3.0 * log_term * stats.pmf_sup * pl_hat / n)
    cross = math.sqrt(8.0 * stats.pmf_sup / (3.0 * stats.mu_pmf_inf))
    cross_term = cross * log_term / n
    range_term = log_term * stats.weight_ratio_sup / (3.0 * n)
    max_envelope = sqrt_term + (log_term / n) * max(2.0 * cross, (2.0 / 3.0) * stats.weight_ratio_sup)
    return BoundReport(
        value=sqrt_term + cross_term + range_term,
        terms={"sqrtTerm": sqrt_term, "crossTerm": cross_term, "rangeTerm": range_term},
        alpha=alpha,
        derived={"maxEnvelope": max_envelope},
    )


def confidence_slack(stats: ClassStats, n: int, alpha: float, beta: float) -> BoundReport:
    """Policy-independent slack making the penalized objective a simultaneous UCB.

    value = 3*pmf_sup*ln(4|class|/a)/(4*beta*N)
          + sqrt(8*pmf_sup/(3*mu_pmf_inf))*ln(4|class|/a)/N
          + ln(4|class|/a)*weight_ratio_sup/(3N)
    """
    _check_alpha(alpha)
    _check_n(n)
    if beta <= 0:
        raise ValueError("beta must be positive")
    log_term = _log_union(stats.class_size, alpha)
    beta_term = 3.0 * stats.pmf_sup * log_term / (4.0 * beta * n)
    cross_term = math.sqrt(8.0 * stats.pmf_sup / (3.0 * stats.mu_pmf_inf)) * log_term / n
    range_term = log_term * stats.weight_ratio_sup / (3.0 * n)
    return BoundReport(
        value=beta_term + cross_term + range_term,
        terms={"betaTerm": beta_term, "crossTerm": cross_term, "rangeTerm": range_term},
        alpha=alpha,
    )


def ucb_risk(policy: MassPolicy, dataset: LoggedDataset, stats: ClassStats, alpha: float, beta: float) -> float:
    """Upper confidence bound on the true risk, simultaneous over the class:
    penalized objective plus :func:`confidence_slack`."""
    return penalized_objective(policy, dataset, beta) + confidence_slack(stats, dataset.n, alpha, beta).value


def oracle_inequality_bound(stats: ClassStats, n: int, alpha: float, beta: float, pl_hat: float) -> float:
    """Fixed-beta excess-risk bound against a comparator with pseudo-loss estimate pl_hat.

    value = 2*beta*pl_hat + (1.5*pmf_sup/beta + 8*mismatch) * ln(4|class|/a) / N
    """
    _check_alpha(alpha)
    _check_n(n)
    if beta <= 0:
        raise ValueError("beta must be positive")
    if pl_hat < 0:
        raise ValueError("pl_hat must be nonnegative")
    log_term = _log_union(stats.class_size, alpha)
    return 2.0 * beta * pl_hat + (1.5 * stats.pmf_sup / beta + 8.0 * stats.mismatch) * log_term / n


def oracle_inequality_bound_tuned(stats: ClassStats, n: int, alpha: float, exact_pl_value: float) -> float:
    """Excess-risk bound at the tuned regularizer weight (data-independent form).

    value = sqrt(18*pmf_sup*PL*ln(4|class|/a)/N) + 12*mismatch*ln(4|class|/a)/N
    """
    _check_alpha(alpha)
    _check_n(n)
    if exact_pl_value < 0:
        raise ValueError("exact_pl_value must be nonnegative")
    log_term = _log_union(stats.class_size, alpha)
    return math.sqrt(18.0 * stats.pmf_sup * exact_pl_value * log_term / n) + 12.0 * stats.mismatch * log_term / n


def beta_candidates(
    policy_class: PolicyClass,
    dataset: LoggedDataset,
    stats: ClassStats,
    alpha: float,
) -> np.ndarray:
    """Per-member candidate regularizer weights, as a (size,) array indexed by member.

    Each member pi gets beta_pi = sqrt(3*pmf_sup*ln(4|class|/a) / (4*N*PL_hat(pi))),
    the weight that balances the penalty against the beta-dependent slack term.
    Every member's PL_hat comes from one contraction of the stacked member
    tables with the per-context sums of 1/mu, so no member is decoded.
    """
    _check_alpha(alpha)
    log_term = _log_union(stats.class_size, alpha)
    pl_hats = policy_class.member_sums(1.0 / dataset.propensities, dataset) / dataset.n
    if np.any(pl_hats <= 0):
        raise ValueError("pseudo-loss must be positive")
    return np.sqrt(3.0 * stats.pmf_sup * log_term / (4.0 * dataset.n * pl_hats))
