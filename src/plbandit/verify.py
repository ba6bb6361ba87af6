"""Empirical verification harness: every bound and reduction, checked end to end.

Each check runs against synthetic environments with exact ground truth and
returns a named pass/fail result with details; `run_verification` bundles them
into a machine-readable report. The CLI `verify` subcommand is a thin wrapper
around this module.
"""

from __future__ import annotations

import copy
import time
from dataclasses import dataclass, field

import numpy as np

from . import continuous as cont
from . import csc, estimators, simulator
from .model import DatasetError, LoggedDataset, PolicyClass, class_stats, deterministic_class


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

    def __post_init__(self):
        for name in ("reps", "n"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"{name} must be an integer, not {value!r}")
        if self.reps < 1:
            raise ValueError(f"reps must be >= 1, not {self.reps}")
        # The documented range of `verify --reps` ends at 2**32; above it the CLI exits 2.
        if self.reps > 2**32:
            raise ValueError(f"reps must be <= 2**32, not {self.reps}")
        if isinstance(self.seed, bool) or not isinstance(self.seed, int) or self.seed < 0:
            raise ValueError(f"seed must be an integer >= 0, not {self.seed!r}")
        if self.n < 1:
            raise ValueError(f"n must be >= 1, not {self.n}")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must lie in (0, 1), not {self.alpha}")


def check_dataset_validation(cfg: VerifyConfig) -> CheckResult:
    """Each fault a log may not hold, planted at one record of a copy of a generated log (also with
    one-hot features, and continuous under a uniform density), must make the constructor raise
    DatasetError naming it and the record; `missed` lists each let through or named otherwise."""
    data = simulator.generate_logs(cfg.env, 200, seed=(cfg.seed, 1))
    x, a = data.num_contexts, data.num_actions
    finite = {k: getattr(data, k) for k in ("context_ids", "actions", "losses", "num_contexts")}
    discrete = finite | {"propensities": data.propensities}
    featured = discrete | {"context_ids": None, "context_features": np.eye(x)[data.context_ids]}
    uniform = (cont.PiecewiseConstantDensity(breaks=[0.0, 1.0], values=[1.0]),)
    continuous = finite | {"actions": (data.actions + 0.5) / a, "densities": uniform, "density_index": 0 * data.actions}
    plants = [  # (constructor, its arguments, the array planted in, the value planted, what must be said)
        (LoggedDataset, discrete, "context_ids", x, f"context id {x} out of range [0, {x})"),
        (LoggedDataset, featured, "context_features", np.nan, "non-finite context feature"),
        (LoggedDataset, discrete, "actions", a, f"action {a} out of range [0, {a})"),
        (LoggedDataset, discrete, "losses", np.nan, "non-finite loss"),
        (LoggedDataset, discrete, "losses", 1.5, "loss out of [0,1]"),
        (LoggedDataset, discrete, "propensities", np.inf, "non-finite propensity"),
        (LoggedDataset, discrete, "propensities", 2.0, "propensities do not sum to 1"),
        *[(LoggedDataset, discrete, "propensities", np.eye(a)[0], "zero propensity")] * (a > 1),  # A > 1 only
        (cont.ContinuousLoggedDataset, continuous, "context_ids", -1, f"context id -1 out of range [0, {x})"),
        (cont.ContinuousLoggedDataset, continuous, "actions", 1.5, "action 1.5 out of [0, 1]"),
        (cont.ContinuousLoggedDataset, continuous, "losses", -0.5, "loss out of [0,1]"),
    ]
    missed = []
    for j, (build, arguments, name, value, text) in enumerate(plants):
        record, planted = j * data.n // len(plants), arguments[name].copy()
        planted[record] = value
        try:
            build(**arguments | {name: planted})
            said = "accepted"
        except DatasetError as err:
            said = str(err)
        if said != f"{text} at record {record}":
            missed.append({"fault": text, "record": record, "constructor": said})
    return CheckResult("dataset_validation", not missed, {"planted": len(plants), "missed": missed})


def check_discrete_reduction(cfg: VerifyConfig) -> CheckResult:
    """On one modified cost matrix per instance, the enumeration oracle on the full
    deterministic class and on an explicit copy of it, and the pointwise argmin,
    must return the brute-force argmin over the explicit copy's member stack.
    A failure names the paths that disagreed and the instance's beta, X and A.
    The winner's penalized_objective, which train_ipw_pl returns, must equal
    the brute-force minimum.

    Instances are drawn from the stream (seed, 2) and log i from (seed, 2, i + 1):
    SeedSequence pads a seed's words with zeros, so (seed, 2, 0) is (seed, 2)."""
    rng = simulator.make_rng((cfg.seed, 2))
    worst = 0.0
    betas = [0.01, 0.1, 1.0]
    # Each (X, A) class and its explicit copy, built once: both hold the same
    # members, each decoded once, so the identity checks below still hold.
    classes: dict[tuple[int, int], tuple[PolicyClass, PolicyClass]] = {}
    for i in range(30):
        num_contexts = int(rng.integers(1, 5))
        num_actions = int(rng.integers(2, 4))
        env = simulator.random_environment(rng, num_contexts, num_actions)
        data = simulator.generate_logs(env, int(rng.integers(1, 9)), seed=(cfg.seed, 2, i + 1))
        beta = betas[i % len(betas)]
        if (num_contexts, num_actions) not in classes:
            pclass = deterministic_class(num_contexts, num_actions)
            classes[num_contexts, num_actions] = pclass, PolicyClass.from_members(pclass.members)
        pclass, explicit_class = classes[num_contexts, num_actions]
        costs = csc.build_modified_costs(data, beta)
        learned = csc.EnumerationOracle().solve(costs, pclass)
        explicit = csc.EnumerationOracle().solve(costs, explicit_class)
        pointwise = csc.PointwiseArgminOracle(num_contexts=num_contexts).solve(costs)
        reference, ref_value = csc.brute_force_argmin(data, beta, explicit_class)
        agree = {
            "enumeration": learned is reference,
            "explicit": explicit is reference,
            "pointwise": pointwise.assignment == reference.assignment,
        }
        failed = [path for path, ok in agree.items() if not ok]
        if failed:
            details = {"instance": i, "paths": failed, "beta": beta, "X": num_contexts, "A": num_actions}
            return CheckResult("discrete_reduction", False, details)
        worst = max(worst, abs(estimators.penalized_objective(learned, data, beta) - ref_value))
    return CheckResult("discrete_reduction", worst <= 1e-12, {"max_objective_gap": worst})


def check_continuous_reduction(cfg: VerifyConfig) -> CheckResult:
    """Grid-side CSC objective == density-side penalized objective (exact integration).

    Instances are drawn from (seed, 3) and log i from (seed, 3, i + 1), as in
    check_discrete_reduction."""
    rng = simulator.make_rng((cfg.seed, 3))
    worst = 0.0
    for i in range(20):
        num_contexts = int(rng.integers(1, 4))
        env = simulator.random_continuous_environment(rng, num_contexts)
        data = simulator.generate_logs(env, int(rng.integers(1, 7)), seed=(cfg.seed, 3, i + 1))
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


def check_variance_domination(cfg: VerifyConfig) -> CheckResult:
    """exact_variance(pi) <= pmf_sup(pi) * exact_pl(pi) on 200 random finite instances.

    Instance 0 is drawn through random_environment and random_policy; every
    later one draws what those two calls draw, two integers and then their
    X + 3XA uniforms in one rng.random call, which gives the same numbers:
    Philox serves consecutive calls from one stream. The gaps are scored in
    one pass per (X, A) shape (`_variance_gaps`). Instance 0 is also scored
    through the public estimators; a gap that is not bitwise the batched one
    fails the check with a `batch_mismatch` detail."""
    rng = simulator.make_rng((cfg.seed, 4))
    groups: dict[tuple[int, int], tuple[list[int], list[np.ndarray]]] = {}
    for i in range(200):
        shape = int(rng.integers(1, 5)), int(rng.integers(2, 5))
        size = shape[0] * (1 + 3 * shape[1])
        if i == 0:
            # A copy of the generator replays the uniforms the public draws take.
            uniforms = copy.deepcopy(rng).random(size)
            env = simulator.random_environment(rng, *shape)
            policy = simulator.random_policy(rng, *shape)
            sup = float(policy.pmf_table(env.num_contexts).max())
            direct = estimators.exact_variance(policy, env) - sup * estimators.exact_pl(policy, env)
        else:
            uniforms = rng.random(size)
        instances, draws = groups.setdefault(shape, ([], []))
        instances.append(i)
        draws.append(uniforms)
    gaps = np.empty(200)
    for shape, (instances, draws) in groups.items():
        gaps[instances] = _variance_gaps(*shape, np.array(draws))
    gaps = gaps.tolist()
    worst = max(gaps)
    result = CheckResult("variance_domination", worst <= 1e-10, {"max_violation": worst})
    return _guarded(result, gaps[:1], [direct])


def _variance_gaps(num_contexts: int, num_actions: int, uniforms: np.ndarray) -> list[float]:
    """exact_variance - pmf_sup * exact_pl of each row's instance, bitwise as the
    public estimators score the environment and policy that random_environment
    and random_policy build from the row's X + 3XA uniforms.

    Each `dist @ v` is a stacked np.matmul of a row by a column, which numpy
    computes with the same dot as the 1-D product; the mean is squared as a
    Python float, as exact_variance squares it (numpy's square can differ by
    one ulp from Python's pow).
    """
    x, a = num_contexts, num_actions
    dist = 0.2 + uniforms[:, :x]
    dist = dist / dist.sum(axis=1, keepdims=True)
    raw_mu, means, raw_pi = uniforms[:, x:].reshape(len(uniforms), 3, x, a).transpose(1, 0, 2, 3)
    # random_environment's MIN_PROPENSITY * num_actions, added as random_policy adds min_mass.
    mu = simulator.MIN_PROPENSITY * a + raw_mu
    mu = mu / mu.sum(axis=2, keepdims=True)
    pi = raw_pi / raw_pi.sum(axis=2, keepdims=True)

    def weighted(rows: np.ndarray) -> np.ndarray:
        return np.matmul(dist[:, None, :], rows.sum(axis=2)[:, :, None])[:, 0, 0]

    mean = weighted(pi * means)
    # random_environment's losses are Bernoulli, so E[loss^2] is the mean, as exact_variance takes it.
    variance = weighted(pi**2 / mu * means) - [m**2 for m in mean.tolist()]
    return (variance - pi.max(axis=(1, 2)) * weighted(pi / mu)).tolist()


def _cell_probabilities(env: simulator.SyntheticEnvironment) -> np.ndarray:
    """The chance that a record lands in cell (x, a, loss > 0), as an (X, A, 2) array summing to 1.

    A cell's chance is P(x) * mu(a|x), split by the loss as (1 - m(x, a), m(x, a))
    with Bernoulli noise and by whether m(x, a) > 0 without. It is divided by
    its own sum: a context_dist within PMF_ATOL of 1 passes validation, but
    Generator.multinomial rejects probabilities that sum to more than 1 + 1e-12.
    """
    means = env.loss_means
    split = [1.0 - means, means] if env.bernoulli_noise else [means == 0, means > 0]
    cells = (env.context_dist[:, None] * env.mu_table)[..., None] * np.stack(split, axis=-1)
    return cells / cells.sum()


def _replicate_counts(cfg: VerifyConfig, check: int) -> np.ndarray:
    """How many records each replicate log of a coverage check puts in each cell
    (x, a, loss > 0), as a (reps, X, A, 2) array: one multinomial draw.

    The draw is seeded (seed, check, 1). SeedSequence pads a seed's words with
    zeros, so (seed, check, 0) would be the stream (seed, check) that draws the
    check's policies.
    """
    cells = _cell_probabilities(cfg.env)
    counts = simulator.make_rng((cfg.seed, check, 1)).multinomial(cfg.n, cells.ravel(), size=cfg.reps)
    return counts.reshape(cfg.reps, *cells.shape)


def _counted_dataset(env: simulator.SyntheticEnvironment, counts: np.ndarray) -> LoggedDataset:
    """The log whose records fill the cells (x, a, loss > 0) as one replicate's `counts` say, in cell order."""
    xs, actions, positive = np.unravel_index(np.repeat(np.arange(counts.size), counts.ravel()), counts.shape)
    return LoggedDataset(
        actions=actions,
        losses=positive.astype(float) if env.bernoulli_noise else env.loss_means[xs, actions],
        propensities=env.mu_table.take(xs, axis=0),
        context_ids=xs,
        num_contexts=env.num_contexts,
    )


def _replicate_sums(env: simulator.SyntheticEnvironment, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`ipw_sums` and `pl_sums` of every replicate's counted log, as two (reps, X, A) arrays.

    Every record in cell (x, a) adds the same weights: 1/mu(b|x) to pl_sums[x, b]
    for every action b, and to ipw_sums[x, a] 1/mu(a|x) when its Bernoulli loss
    is 1, loss_means[x, a]/mu(a|x) without noise, and 0.0 when its loss is 0.
    np.bincount adds a cell's weights one at a time from 0.0, and adding 0.0
    leaves a non-negative sum as it is, so a sum of k records is row k of the
    running sum of its weight from 0.0: one np.cumsum per context, as long as
    the largest count any replicate has there, indexed by every replicate's
    count. The sums are bitwise those of each replicate's `_counted_dataset`,
    whatever the order of its records.
    """
    num_contexts, num_actions = env.num_contexts, env.num_actions
    positive, per_context = counts[..., 1], counts.sum(axis=(2, 3))
    loss_weights = 1.0 if env.bernoulli_noise else env.loss_means
    # Row x: context x's ipw weight per action, then its pl weight per action.
    steps = np.hstack([loss_weights / env.mu_table, 1.0 / env.mu_table])
    ipw = np.empty(positive.shape)
    pl = np.empty(positive.shape)
    columns = np.arange(num_actions)
    for x in range(num_contexts):
        # Row k of the running sum from 0.0 down axis 0 is k weights added in turn.
        table = np.zeros((int(per_context[:, x].max()) + 1, 2 * num_actions))
        table[1:] = steps[x]
        table = table.cumsum(axis=0)
        ipw[:, x] = table[positive[:, x], columns]
        pl[:, x] = table[per_context[:, x, None], num_actions + columns]
    return ipw, pl


def _scores(tables: np.ndarray, sums: np.ndarray, n: int) -> np.ndarray:
    """Each replicate's contraction of each pmf table with its sums, the reduction of `ipw_risk` and
    `pseudo_loss`: a (reps,) array for one (X, A) table, a (members, reps) array for a stack of them.

    One stacked np.matmul of a row by a column per (table, replicate), which numpy
    computes with the dot np.vdot calls, so each score is bitwise the public one.
    """
    flat = tables.reshape(*tables.shape[:-2], 1, -1, 1)
    return np.matmul(sums.reshape(len(sums), 1, -1), flat)[..., 0, 0] / n


def _guarded(result: CheckResult, batched: list[float], direct: list[float]) -> CheckResult:
    """`result`, failed with a `batch_mismatch` detail unless replicate 0's batched
    scores are bitwise the public estimators' on its own `_counted_dataset`."""
    if np.array(batched).tobytes() != np.array(direct).tobytes():
        result.passed = False
        result.details["batch_mismatch"] = {"batched": batched, "direct": direct}
    return result


def check_pl_band_coverage(cfg: VerifyConfig) -> CheckResult:
    """The inverted pseudo-loss band must cover the exact pseudo-loss at its level.

    `max_used_fraction` is the largest |truth - pl_hat| over the distance from
    pl_hat to the band's edge on truth's side.
    """
    policy = simulator.random_policy((cfg.seed, 5), cfg.env.num_contexts, cfg.env.num_actions)
    truth = estimators.exact_pl(policy, cfg.env)
    mu_inf = float(cfg.env.mu_table.min())
    counts = _replicate_counts(cfg, 5)
    _, pl_sums = _replicate_sums(cfg.env, counts)
    pl_hats = _scores(policy.pmf_table(cfg.env.num_contexts), pl_sums, cfg.n).tolist()
    hits, used = 0, 0.0
    for pl_hat in pl_hats:
        lo, hi = estimators.pl_confidence_band(pl_hat, cfg.n, cfg.alpha, mu_inf)
        hits += lo <= truth <= hi
        used = max(used, (truth - pl_hat) / (hi - pl_hat) if truth >= pl_hat else (pl_hat - truth) / (pl_hat - lo))
    coverage = hits / cfg.reps
    details = {"coverage": coverage, "max_used_fraction": used}
    result = CheckResult("pl_band_coverage", coverage >= 1.0 - cfg.alpha, details)
    first = _counted_dataset(cfg.env, counts[0])
    return _guarded(result, pl_hats[:1], [estimators.pseudo_loss(policy, first)])


def check_confidence_coverage(cfg: VerifyConfig) -> CheckResult:
    """|R - ipw_risk| must stay within the per-policy confidence width.

    `max_used_fraction` is the largest |R - ipw_risk| / width.
    """
    policy = simulator.random_policy((cfg.seed, 6), cfg.env.num_contexts, cfg.env.num_actions)
    stats = class_stats(PolicyClass.from_members([policy]), np.arange(cfg.env.num_contexts), cfg.env.mu_table)
    pi_table = policy.pmf_table(cfg.env.num_contexts)
    truth = simulator.exact_risk(policy, cfg.env)
    counts = _replicate_counts(cfg, 6)
    ipw_sums, pl_sums = _replicate_sums(cfg.env, counts)
    ipw_hats = _scores(pi_table, ipw_sums, cfg.n).tolist()
    pl_hats = _scores(pi_table, pl_sums, cfg.n).tolist()
    hits, used = 0, 0.0
    for ipw_hat, pl_hat in zip(ipw_hats, pl_hats):
        width = estimators.confidence_width(pl_hat, stats, cfg.n, cfg.alpha).value
        hits += abs(truth - ipw_hat) <= width
        used = max(used, abs(truth - ipw_hat) / width)
    coverage = hits / cfg.reps
    details = {"coverage": coverage, "max_used_fraction": used}
    result = CheckResult("confidence_coverage", coverage >= 1.0 - cfg.alpha, details)
    first = _counted_dataset(cfg.env, counts[0])
    direct = [estimators.ipw_risk(policy, first), estimators.pseudo_loss(policy, first)]
    return _guarded(result, [ipw_hats[0], pl_hats[0]], direct)


def check_ucb_coverage(cfg: VerifyConfig) -> CheckResult:
    """R(pi) <= ucb_risk(pi) simultaneously over a class of eight random policies.

    `max_used_fraction` is the largest (R - ipw_risk) / (beta * pseudo_loss + slack)
    over replicates and members.
    """
    rng = simulator.make_rng((cfg.seed, 7))
    members = [simulator.random_policy(rng, cfg.env.num_contexts, cfg.env.num_actions) for _ in range(8)]
    pclass = PolicyClass.from_members(members)
    stats = class_stats(pclass, np.arange(cfg.env.num_contexts), cfg.env.mu_table)
    truths = np.array([[simulator.exact_risk(m, cfg.env)] for m in members])
    beta = 0.05
    counts = _replicate_counts(cfg, 7)
    ipw_sums, pl_sums = _replicate_sums(cfg.env, counts)
    slack = estimators.confidence_slack(stats, cfg.n, cfg.alpha, beta).value
    tables = pclass.tables(cfg.env.num_contexts, cfg.env.num_actions)
    # (members, reps) arrays; ucb_risk's sum, in its order: ipw_risk + beta * pseudo_loss, then the slack.
    ipw, pl = _scores(tables, ipw_sums, cfg.n), _scores(tables, pl_sums, cfg.n)
    ucbs = ipw + beta * pl + slack
    hits = int((truths <= ucbs).all(axis=0).sum())
    used = float(((truths - ipw) / (beta * pl + slack)).max())
    coverage = hits / cfg.reps
    details = {"coverage": coverage, "max_used_fraction": used}
    result = CheckResult("ucb_simultaneous_coverage", coverage >= 1.0 - cfg.alpha, details)
    first = _counted_dataset(cfg.env, counts[0])
    direct = [estimators.ucb_risk(member, first, stats, cfg.alpha, beta) for member in members]
    return _guarded(result, ucbs[:, 0].tolist(), direct)


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


def check_smoothing_bounds(cfg: VerifyConfig) -> CheckResult:
    """Discretization and bandwidth-perturbation risk bounds, exact integration."""
    rng = simulator.make_rng((cfg.seed, 9))
    worst_disc, worst_band = -np.inf, -np.inf
    for _ in range(10):
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


# Bonferroni over unbiasedness's eight two-sided z-tests at a family-wise
# false-alarm rate of 1e-3: each |z| may reach NormalDist().inv_cdf(1 - 1e-3 / 16).
# A literal, so verify imports no statistics module at start-up.
_UNBIASED_Z = 3.836106931176034


def check_unbiasedness(cfg: VerifyConfig) -> CheckResult:
    """Monte Carlo means of ipw_risk / pseudo_loss over 10 000 draws, for four
    random policies, match the exact values within _UNBIASED_Z s.e. each.

    The policies are drawn from (seed, 10) and log j from (seed, 10, j + 1), as
    in check_discrete_reduction."""
    rng = simulator.make_rng((cfg.seed, 10))
    ok = True
    worst_z = 0.0
    for j in range(4):
        policy = simulator.random_policy(rng, cfg.env.num_contexts, cfg.env.num_actions)
        data = simulator.generate_logs(cfg.env, 10_000, seed=(cfg.seed, 10, j + 1))
        for terms, truth in [
            (estimators.ipw_terms(policy, data), simulator.exact_risk(policy, cfg.env)),
            (estimators.pl_terms(policy, data), estimators.exact_pl(policy, cfg.env)),
        ]:
            se = float(np.std(terms)) / np.sqrt(data.n) + 1e-12
            z = abs(float(np.mean(terms)) - truth) / se
            worst_z = max(worst_z, z)
            ok = ok and z <= _UNBIASED_Z
    return CheckResult("unbiasedness", ok, {"worst_z": worst_z, "z_threshold": _UNBIASED_Z})


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
            {"name": r.name, "passed": bool(r.passed), "seconds": t, "details": r.details}
            for r, t in zip(results, seconds)
        ],
    }
