"""Synthetic contextual-bandit environments with exact ground truth.

Finite-context environments expose exact risk, pseudo-loss and variance by
direct summation (discrete actions) or exact piecewise integration
(continuous actions), which is what every coverage and bound check in the
verification harness compares against.

Loss noise is Bernoulli(mean) or none, keeping realized losses inside [0, 1]
without truncation artifacts. Random draws come from a counter-based Philox
generator; the seed is embedded in generated files, so within-build outputs
are bit-reproducible.

An environment's fields are not changed after construction; its logging pmf
table and cdfs are built on first use and kept. Generation draws one stream
per dataset, in order, so a seed fixes the dataset. plbandit runs no threads.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .continuous import (
    ContinuousLoggedDataset,
    GridMassPolicy,
    PiecewiseConstant,
    PiecewiseConstantDensity,
    PiecewiseDensityPolicy,
    SurrogateGrid,
    _dedupe_breaks,
    pc_product_integral,
)
from .model import (
    PMF_ATOL,
    PROPENSITY_FLOOR,
    DatasetError,
    LoggedDataset,
    MassPolicy,
    TabularPolicy,
    load_json,
    number_array,
)


def make_rng(seed_or_rng) -> np.random.Generator:
    """Counter-based Philox generator from a seed, or the generator itself."""
    if isinstance(seed_or_rng, np.random.Generator):
        return seed_or_rng
    return np.random.Generator(np.random.Philox(seed_or_rng))


@dataclass(frozen=True, eq=False)
class SyntheticEnvironment:
    """Finite discrete-action environment: context distribution, mean-loss table,
    optional Bernoulli loss noise, and a strictly positive logging policy."""

    context_dist: np.ndarray
    loss_means: np.ndarray
    logging_policy: MassPolicy
    bernoulli_noise: bool = True

    def __post_init__(self):
        dist = np.asarray(self.context_dist, dtype=float)
        means = np.asarray(self.loss_means, dtype=float)
        if dist.ndim != 1 or means.ndim != 2 or means.shape[0] != len(dist):
            raise ValueError("context_dist and loss_means are not aligned")
        # Negated comparisons, so NaN entries fail too: min and max propagate NaN.
        # ndarray methods, not np.all: verify builds hundreds of environments.
        if not (dist.min(initial=0.0) >= 0 and abs(dist.sum() - 1.0) <= PMF_ATOL):
            raise ValueError("context_dist must be a probability vector")
        if not (means.min(initial=0.0) >= 0 and means.max(initial=0.0) <= 1):
            raise ValueError("loss means must lie in [0, 1]")
        object.__setattr__(self, "context_dist", dist)
        object.__setattr__(self, "loss_means", means)
        if (self.mu_table <= PROPENSITY_FLOOR).any():
            raise ValueError("logging policy must be strictly positive everywhere")

    @property
    def num_contexts(self) -> int:
        return len(self.context_dist)

    @property
    def num_actions(self) -> int:
        return self.loss_means.shape[1]

    @cached_property
    def mu_table(self) -> np.ndarray:
        return self.logging_policy.pmf_table(self.num_contexts)

    @cached_property
    def context_cdf(self) -> np.ndarray:
        """The cdf Generator.choice(p=context_dist) searches: the cumsum over its last entry."""
        cdf = self.context_dist.cumsum()
        cdf /= cdf[-1]
        cdf.setflags(write=False)
        return cdf

    @cached_property
    def mu_cdf_columns(self) -> np.ndarray:
        """Cumulative logging pmf per context, by action, without the last action:
        an (A - 1, X) array whose column x is the cdf that actions at x are drawn against."""
        cdf = np.ascontiguousarray(np.cumsum(self.mu_table, axis=1).T[:-1])
        cdf.setflags(write=False)
        return cdf


@dataclass(frozen=True, eq=False)
class ContinuousEnvironment:
    """Finite-context environment with actions on [0, 1]: piecewise-constant
    loss curves and logging densities per context."""

    context_dist: np.ndarray
    loss_fns: tuple[PiecewiseConstant, ...]
    logging_densities: tuple[PiecewiseConstantDensity, ...]

    def __post_init__(self):
        dist = np.asarray(self.context_dist, dtype=float)
        # Negated comparisons, so NaN entries fail too.
        if not np.all(dist >= 0) or abs(dist.sum() - 1.0) > PMF_ATOL:
            raise ValueError("context_dist must be a probability vector")
        if len(self.loss_fns) != len(dist) or len(self.logging_densities) != len(dist):
            raise ValueError("per-context tables are not aligned")
        for fn in self.loss_fns:
            if np.any(fn.values < 0) or np.any(fn.values > 1):
                raise ValueError("loss values must lie in [0, 1]")
        object.__setattr__(self, "context_dist", dist)
        object.__setattr__(self, "loss_fns", tuple(self.loss_fns))
        object.__setattr__(self, "logging_densities", tuple(self.logging_densities))

    @property
    def num_contexts(self) -> int:
        return len(self.context_dist)


def _sample_categorical(rng: np.random.Generator, pmf_rows: np.ndarray) -> np.ndarray:
    cum = np.cumsum(pmf_rows, axis=1)
    u = rng.random(len(pmf_rows))
    return np.minimum((u[:, None] > cum).sum(axis=1), pmf_rows.shape[1] - 1)


def generate_logs(env, n: int, seed: int):
    """Draw n i.i.d. logged records under the environment's logging policy.

    Returns a LoggedDataset for discrete environments and a
    ContinuousLoggedDataset for continuous ones; bit-reproducible per seed.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if isinstance(env, ContinuousEnvironment):
        return _generate_continuous(env, n, make_rng(seed))
    return generate_log_block(env, n, [seed])


def generate_log_block(env: SyntheticEnvironment, n: int, seeds) -> LoggedDataset:
    """The discrete logs generate_logs(env, n, seed) draws for each seed, as one dataset.

    Replicate r's record i is record r * n + i, and its context x is context
    r * X + x of num_contexts = len(seeds) * X. np.bincount adds each cell's
    values in record order, so the dataset's `ipw_sums` and `pl_sums`,
    reshaped to (len(seeds), X, A), are bitwise each replicate's own.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    k = _draws_per_record(env)
    # One call of rng.random(k * n) draws what k calls of rng.random(n) do. The
    # uniforms are freed, and the ids offset in place, before the dataset copies
    # its columns, so the one-seed block of generate_logs peaks no higher than
    # a direct draw would.
    uniforms = np.stack([make_rng(seed).random(k * n) for seed in seeds]).reshape(len(seeds), k, n)
    xs, actions, losses = _draw_discrete(env, uniforms)
    del uniforms
    propensities = env.mu_table.take(xs.ravel(), axis=0)
    xs += env.num_contexts * np.arange(len(seeds))[:, None]
    return LoggedDataset(
        actions=actions.ravel(),
        losses=losses.ravel(),
        propensities=propensities,
        context_ids=xs.ravel(),
        num_contexts=len(seeds) * env.num_contexts,
    )


def _draws_per_record(env: SyntheticEnvironment) -> int:
    """Uniforms per record: a context, an action and, with Bernoulli noise, the loss."""
    return 3 if env.bernoulli_noise else 2


def _draw_discrete(env: SyntheticEnvironment, uniforms: np.ndarray):
    """Context ids, actions and losses of records, from uniforms of shape (..., k, n).

    Row 0 draws the contexts, row 1 the actions and row 2, with Bernoulli
    noise, the losses. These are the draws rng.choice(p=context_dist) and
    _sample_categorical make, from the environment's cached cdfs: the same
    records. _sample_categorical counts the cdf entries below u, capped at
    A - 1; the cdf never decreases, so that is the count over the first
    A - 1 entries.
    """
    xs = env.context_cdf.searchsorted(uniforms[..., 0, :], side="right")
    u = uniforms[..., 1, :]
    actions = np.zeros(xs.shape, dtype=np.int64)
    for cdf in env.mu_cdf_columns:
        actions += u > cdf.take(xs)
    means = env.loss_means[xs, actions]
    losses = (uniforms[..., 2, :] < means).astype(float) if env.bernoulli_noise else means
    return xs, actions, losses


def _generate_continuous(env: ContinuousEnvironment, n: int, rng: np.random.Generator) -> ContinuousLoggedDataset:
    xs = rng.choice(env.num_contexts, size=n, p=env.context_dist)
    # Record i's two draws, in the order scalar draws make them: a piece, then a point in it.
    draws = rng.random((n, 2))
    actions = np.empty(n)
    losses = np.empty(n)
    for x, (density, loss_fn) in enumerate(zip(env.logging_densities, env.loss_fns)):
        rows = np.flatnonzero(xs == x)
        masses = np.diff(density.breaks) * density.values
        cum = np.cumsum(masses / masses.sum())
        piece = np.minimum(cum.searchsorted(draws[rows, 0]), len(masses) - 1)
        lo, hi = density.breaks[piece], density.breaks[piece + 1]
        actions[rows] = lo + draws[rows, 1] * (hi - lo)
        losses[rows] = loss_fn.values_at(actions[rows])
    return ContinuousLoggedDataset(
        context_ids=xs,
        actions=actions,
        losses=losses,
        densities=env.logging_densities,
        density_index=xs,
        num_contexts=env.num_contexts,
    )


def exact_risk(policy, env) -> float:
    """Exact expected loss of a policy under the environment.

    Discrete: sum_x P(x) sum_a pi(a|x) * mean_loss[x, a]. Continuous: the same
    with exact piecewise integration of density * loss per context.
    """
    if isinstance(env, ContinuousEnvironment):
        total = 0.0
        for x in range(env.num_contexts):
            total += env.context_dist[x] * pc_product_integral(policy.density_pieces(x), env.loss_fns[x])
        return total
    table = policy.pmf_table(env.num_contexts)
    return float(env.context_dist @ (table * env.loss_means).sum(axis=1))


def _ratio_linear_integral(c0: float, c1: float, e0: float, e1: float, lo: float, hi: float) -> float:
    # Exact integral of (c0 + c1 t) / (e0 + e1 t) over [lo, hi]; the
    # denominator is an effective bandwidth, hence positive on the piece.
    if e1 == 0.0:
        return (c0 * (hi - lo) + 0.5 * c1 * (hi * hi - lo * lo)) / e0
    return (c1 / e1) * (hi - lo) + (c0 - c1 * e0 / e1) / e1 * math.log((e0 + e1 * hi) / (e0 + e1 * lo))


def exact_risk_smoothed(base: PiecewiseDensityPolicy, h: float, env: ContinuousEnvironment) -> float:
    """Exact risk of boxcar-smoothing a density policy with bandwidth h.

    Smoothing a continuum of atoms has no piecewise-constant form, but by
    swapping the order of integration the risk becomes the base-policy
    integral of (window-averaged loss), which is piecewise linear over
    piecewise reciprocal-linear and integrates in closed form (log terms).
    """
    if not (0.0 < h <= 1.0):
        raise ValueError("bandwidth must lie in (0, 1]")
    total = 0.0
    for x in range(env.num_contexts):
        pi = base.density_pieces(x)
        loss = env.loss_fns[x]
        extra = [h / 2.0, 1.0 - h / 2.0]
        for b in loss.breaks:
            extra.extend([b - h / 2.0, b + h / 2.0])
        extra = [v for v in extra if 0.0 < v < 1.0]
        breaks = _dedupe_breaks(np.concatenate([pi.breaks, np.asarray(extra + [0.0, 1.0])]))
        for s, t in zip(breaks[:-1], breaks[1:]):
            m = 0.5 * (s + t)
            p = pi.value_at(m)
            if p == 0.0:
                continue
            left_clip = m - h / 2.0 <= 0.0
            right_clip = m + h / 2.0 >= 1.0
            lower = 0.0 if left_clip else m - h / 2.0
            upper = 1.0 if right_clip else m + h / 2.0
            window_loss = loss.integral(lower, upper)
            c1 = (0.0 if right_clip else loss.value_at(upper)) - (0.0 if left_clip else loss.value_at(lower))
            c0 = window_loss - c1 * m
            e1 = (1.0 if left_clip else 0.0) - (1.0 if right_clip else 0.0)
            e0 = (upper - lower) - e1 * m
            total += env.context_dist[x] * p * _ratio_linear_integral(c0, c1, e0, e1, float(s), float(t))
    return total


def supervised_to_bandit(
    features: np.ndarray, labels: np.ndarray, pmf_rows: np.ndarray, seed: int
) -> LoggedDataset:
    """Convert a labeled multiclass dataset to bandit feedback.

    Per example i, an action is drawn from the logging pmf `pmf_rows[i]` (an
    (n, num_actions) matrix) and the loss is the 0/1 misclassification of the
    true label.
    """
    labels = np.asarray(labels, dtype=np.int64)
    pmf_rows = np.asarray(pmf_rows, dtype=float)
    if np.any(labels < 0) or np.any(labels >= pmf_rows.shape[1]):
        raise ValueError("label out of action range")
    rng = make_rng(seed)
    actions = _sample_categorical(rng, pmf_rows)
    return LoggedDataset(
        actions=actions,
        losses=(actions != labels).astype(float),
        propensities=pmf_rows,
        context_features=features,
    )


def hard_instance(
    num_contexts: int,
    num_actions: int,
    spurious_propensity: float,
    seed: int,
) -> SyntheticEnvironment:
    """A stress instance where plain IPW is prone to pick a bad, rarely logged action.

    The last action has logging propensity `spurious_propensity` and the worst
    mean loss (0.9, Bernoulli), so an all-zero logged-loss sample for it has
    positive probability, in which case the unregularized IPW argmin prefers
    it; the pseudo-loss penalizes the same policy by 1/spurious_propensity.
    """
    if not (0.0 < spurious_propensity < 1.0 / num_actions):
        raise ValueError("spurious propensity must lie in (0, 1/num_actions)")
    if num_actions < 2:
        raise ValueError("need at least 2 actions")
    rng = make_rng(seed)
    means = np.empty((num_contexts, num_actions))
    means[:, 0] = 0.2
    if num_actions > 2:
        means[:, 1:-1] = 0.35 + 0.25 * rng.random((num_contexts, num_actions - 2))
    means[:, -1] = 0.9
    logging = np.full(num_actions, (1.0 - spurious_propensity) / (num_actions - 1))
    logging[-1] = spurious_propensity
    return SyntheticEnvironment(
        context_dist=np.full(num_contexts, 1.0 / num_contexts),
        loss_means=means,
        logging_policy=TabularPolicy(np.tile(logging, (num_contexts, 1))),
        bernoulli_noise=True,
    )


# ---------------------------------------------------------------------------
# Random instances for property checks and the verification harness.


def random_policy(seed_or_rng, num_contexts: int, num_actions: int, min_mass: float = 0.0) -> TabularPolicy:
    rng = make_rng(seed_or_rng)
    raw = min_mass + rng.random((num_contexts, num_actions))
    return TabularPolicy(raw / raw.sum(axis=1, keepdims=True))


def random_environment(
    seed_or_rng,
    num_contexts: int,
    num_actions: int,
    min_propensity: float = 0.05,
    bernoulli_noise: bool = True,
) -> SyntheticEnvironment:
    rng = make_rng(seed_or_rng)
    dist = 0.2 + rng.random(num_contexts)
    mu = random_policy(rng, num_contexts, num_actions, min_mass=min_propensity * num_actions)
    return SyntheticEnvironment(
        context_dist=dist / dist.sum(),
        loss_means=rng.random((num_contexts, num_actions)),
        logging_policy=mu,
        bernoulli_noise=bernoulli_noise,
    )


def _random_breaks(rng: np.random.Generator, max_pieces: int, min_pieces: int = 1) -> np.ndarray:
    pieces = int(rng.integers(min_pieces, max_pieces + 1))
    inner = np.unique(np.sort(0.05 + 0.9 * rng.random(pieces - 1)))
    return np.concatenate([[0.0], inner, [1.0]])


def random_density(seed_or_rng, max_pieces: int = 3, min_density: float = 0.2) -> PiecewiseConstantDensity:
    rng = make_rng(seed_or_rng)
    breaks = _random_breaks(rng, max_pieces)
    values = min_density + (1.0 - min_density) * rng.random(len(breaks) - 1)
    values = values / float(np.diff(breaks) @ values)  # total mass <= 1 before scaling, so min survives
    return PiecewiseConstantDensity(breaks=breaks, values=values)


def random_continuous_environment(
    seed_or_rng,
    num_contexts: int,
    max_pieces: int = 3,
    min_density: float = 0.2,
) -> ContinuousEnvironment:
    rng = make_rng(seed_or_rng)
    dist = 0.2 + rng.random(num_contexts)
    losses = []
    for _ in range(num_contexts):
        # Loss curves get at least two pieces; constant losses make every
        # policy comparison trivial.
        breaks = _random_breaks(rng, max(max_pieces, 2), min_pieces=2)
        losses.append(PiecewiseConstant(breaks=breaks, values=rng.random(len(breaks) - 1)))
    densities = tuple(random_density(rng, max_pieces, min_density) for _ in range(num_contexts))
    return ContinuousEnvironment(
        context_dist=dist / dist.sum(),
        loss_fns=tuple(losses),
        logging_densities=densities,
    )


def random_grid_policy(seed_or_rng, num_contexts: int, k: int) -> GridMassPolicy:
    rng = make_rng(seed_or_rng)
    raw = rng.random((num_contexts, k)) + 0.05
    return GridMassPolicy(grid=SurrogateGrid(k), table=raw / raw.sum(axis=1, keepdims=True))


def random_density_policy(seed_or_rng, num_contexts: int, max_pieces: int = 4) -> PiecewiseDensityPolicy:
    rng = make_rng(seed_or_rng)
    return PiecewiseDensityPolicy(
        densities=tuple(random_density(rng, max_pieces, min_density=0.05) for _ in range(num_contexts))
    )


# ---------------------------------------------------------------------------
# Environment spec files.


def save_environment(env, path: str | Path, metadata: dict | None = None) -> None:
    if isinstance(env, ContinuousEnvironment):
        spec = {
            "type": "continuous",
            "context_dist": [float(v) for v in env.context_dist],
            "loss": [fn.to_json() for fn in env.loss_fns],
            "logging_density": [d.to_json() for d in env.logging_densities],
        }
    else:
        spec = {
            "type": "discrete",
            "context_dist": [float(v) for v in env.context_dist],
            "loss_means": [[float(v) for v in row] for row in env.loss_means],
            "logging_pmf": [[float(v) for v in row] for row in env.mu_table],
            "bernoulli_noise": bool(env.bernoulli_noise),
        }
    if metadata:
        spec["metadata"] = metadata
    with open(path, "w") as fh:
        json.dump(spec, fh, sort_keys=True, indent=1)
        fh.write("\n")


def load_environment(path: str | Path):
    """The environment a spec file describes; a malformed one raises DatasetError naming the file."""
    spec = load_json(path)
    try:
        kind = spec["type"]
        if kind == "continuous":
            return ContinuousEnvironment(
                context_dist=number_array(spec["context_dist"], 1, "context_dist"),
                loss_fns=tuple(map(PiecewiseConstant.from_json, spec["loss"])),
                logging_densities=tuple(map(PiecewiseConstantDensity.from_json, spec["logging_density"])),
            )
        if kind == "discrete":
            if type(spec["bernoulli_noise"]) is not bool:
                raise ValueError("bernoulli_noise is not a JSON boolean")
            return SyntheticEnvironment(
                context_dist=number_array(spec["context_dist"], 1, "context_dist"),
                loss_means=number_array(spec["loss_means"], 2, "loss_means"),
                logging_policy=TabularPolicy(number_array(spec["logging_pmf"], 2, "logging_pmf")),
                bernoulli_noise=spec["bernoulli_noise"],
            )
    except KeyError as err:
        raise DatasetError(f"{path}: missing key {err}") from None
    except (TypeError, ValueError) as err:
        raise DatasetError(f"{path}: {err}") from None
    raise DatasetError(f"{path}: unknown environment type {json.dumps(kind)}")
