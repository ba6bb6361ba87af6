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
table is built on first use and kept. Generation draws one stream
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


def _context_dist(value) -> np.ndarray:
    """An environment's context_dist as a float array; ValueError unless it is a probability vector."""
    dist = np.asarray(value, dtype=float)
    # Negated comparisons, so NaN entries fail too: min and max propagate NaN.
    # ndarray methods, not np.all: verify builds hundreds of environments.
    if not (dist.ndim == 1 and dist.min(initial=0.0) >= 0 and abs(dist.sum() - 1.0) <= PMF_ATOL):
        raise ValueError("context_dist must be a probability vector")
    return dist


@dataclass(frozen=True, eq=False)
class SyntheticEnvironment:
    """Finite discrete-action environment: context distribution, mean-loss table,
    optional Bernoulli loss noise, and a strictly positive logging policy whose
    table has the shape of loss_means (else ValueError naming both shapes)."""

    context_dist: np.ndarray
    loss_means: np.ndarray
    logging_policy: MassPolicy
    bernoulli_noise: bool = True

    def __post_init__(self):
        dist = _context_dist(self.context_dist)
        means = np.asarray(self.loss_means, dtype=float)
        if means.ndim != 2 or means.shape[0] != len(dist):
            raise ValueError("context_dist and loss_means are not aligned")
        # Negated comparisons, as in _context_dist.
        if not (means.min(initial=0.0) >= 0 and means.max(initial=0.0) <= 1):
            raise ValueError("loss means must lie in [0, 1]")
        object.__setattr__(self, "context_dist", dist)
        object.__setattr__(self, "loss_means", means)
        if self.mu_table.shape != means.shape:
            raise ValueError(f"logging policy table has shape {self.mu_table.shape}, loss_means {means.shape}")
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


@dataclass(frozen=True, eq=False)
class ContinuousEnvironment:
    """Finite-context environment with actions on [0, 1]: piecewise-constant
    loss curves and logging densities per context."""

    context_dist: np.ndarray
    loss_fns: tuple[PiecewiseConstant, ...]
    logging_densities: tuple[PiecewiseConstantDensity, ...]

    def __post_init__(self):
        dist = _context_dist(self.context_dist)
        if len(self.loss_fns) != len(dist) or len(self.logging_densities) != len(dist):
            raise ValueError("per-context tables are not aligned")
        for x, density in enumerate(self.logging_densities):
            if not isinstance(density, PiecewiseConstantDensity):
                raise ValueError(f"logging density {x} is not a PiecewiseConstantDensity")
        for fn in self.loss_fns:
            if (fn.values < 0).any() or (fn.values > 1).any():
                raise ValueError("loss values must lie in [0, 1]")
        object.__setattr__(self, "context_dist", dist)
        object.__setattr__(self, "loss_fns", tuple(self.loss_fns))
        object.__setattr__(self, "logging_densities", tuple(self.logging_densities))

    @property
    def num_contexts(self) -> int:
        return len(self.context_dist)


def generate_logs(env, n: int, seed: int):
    """Draw n i.i.d. logged records under the environment's logging policy.

    Returns a LoggedDataset for discrete environments and a
    ContinuousLoggedDataset for continuous ones; bit-reproducible per seed.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if isinstance(env, ContinuousEnvironment):
        return _generate_continuous(env, n, make_rng(seed))
    xs, actions, losses = _draw_discrete(env, n, make_rng(seed))
    return LoggedDataset(
        actions=actions,
        losses=losses,
        propensities=env.mu_table.take(xs, axis=0),
        context_ids=xs,
        num_contexts=env.num_contexts,
    )


def _draw_discrete(env: SyntheticEnvironment, n: int, rng: np.random.Generator):
    """Context ids, actions and losses of n records.

    Row 0 of the uniforms draws the contexts, row 1 the actions and row 2,
    with Bernoulli noise, the losses; one call of rng.random((k, n)) draws
    what k calls of rng.random(n) do. A context is the draw of
    rng.choice(p=context_dist), which searches the cumsum over its last
    entry. An action counts the entries of its context's cumulative logging
    pmf below u, capped at A - 1; the cdf never decreases, so that is the
    count over the first A - 1 entries. The uniforms are freed on return,
    before the dataset is built.
    """
    uniforms = rng.random((3 if env.bernoulli_noise else 2, n))
    context_cdf = env.context_dist.cumsum()
    context_cdf /= context_cdf[-1]
    xs = context_cdf.searchsorted(uniforms[0], side="right")
    mu_cdf = np.cumsum(env.mu_table, axis=1).T[:-1]
    actions = np.zeros(n, dtype=np.int64)
    for cdf in mu_cdf:
        actions += uniforms[1] > cdf.take(xs)
    means = env.loss_means[xs, actions]
    losses = (uniforms[2] < means).astype(float) if env.bernoulli_noise else means
    return xs, actions, losses


def _generate_continuous(env: ContinuousEnvironment, n: int, rng: np.random.Generator) -> ContinuousLoggedDataset:
    xs = rng.choice(env.num_contexts, size=n, p=env.context_dist)
    # Record i's two draws, in the order scalar draws make them: a piece, then a point in it.
    draws = rng.random((n, 2))
    actions = np.empty(n)
    losses = np.empty(n)
    for x, (density, loss_fn) in enumerate(zip(env.logging_densities, env.loss_fns)):
        rows = np.flatnonzero(xs == x)
        masses = (density.breaks[1:] - density.breaks[:-1]) * density.values
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
    table = policy.checked_table(env.num_contexts, env.num_actions)
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
        mids = 0.5 * (breaks[:-1] + breaks[1:])
        # Per piece: the loss window around its midpoint, clipped to [0, 1],
        # and the window loss's linear form c0 + c1*t over effective width e0 + e1*t.
        left, right = mids - h / 2.0 <= 0.0, mids + h / 2.0 >= 1.0
        lower = np.where(left, 0.0, mids - h / 2.0)
        upper = np.where(right, 1.0, mids + h / 2.0)
        # Row j is loss._overlaps(lower[j], upper[j]); its dot product is loss.integral's own.
        window_loss = np.array([row @ loss.values for row in loss._overlaps(lower[:, None], upper[:, None])])
        c1 = np.where(right, 0.0, loss.values_at(upper)) - np.where(left, 0.0, loss.values_at(lower))
        c0 = window_loss - c1 * mids
        e1 = left.astype(float) - right.astype(float)
        e0 = (upper - lower) - e1 * mids
        pieces = zip(pi.values_at(mids).tolist(), c0.tolist(), c1.tolist(), e0.tolist(), e1.tolist())
        for s, t, (p, *form) in zip(breaks[:-1].tolist(), breaks[1:].tolist(), pieces):
            if p == 0.0:
                continue
            total += env.context_dist[x] * p * _ratio_linear_integral(*form, s, t)
    return total


def supervised_to_bandit(
    features: np.ndarray, labels: np.ndarray, pmf_rows: np.ndarray, seed: int
) -> LoggedDataset:
    """Convert a labeled multiclass dataset to bandit feedback.

    Per example i, an action is drawn from the logging pmf `pmf_rows[i]` and
    the loss is the 0/1 misclassification of the true label. `pmf_rows` is
    (n, num_actions), and each row needs full support, as LoggedDataset
    requires: DatasetError names the first record whose row does not have it.
    """
    labels = np.asarray(labels, dtype=np.int64)
    pmf_rows = np.asarray(pmf_rows, dtype=float)
    if np.any(labels < 0) or np.any(labels >= pmf_rows.shape[1]):
        raise ValueError("label out of action range")
    rng = make_rng(seed)
    cum = np.cumsum(pmf_rows, axis=1)
    u = rng.random(len(pmf_rows))
    actions = np.minimum((u[:, None] > cum).sum(axis=1), pmf_rows.shape[1] - 1)
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
    inner = np.unique(0.05 + 0.9 * rng.random(pieces - 1))
    return np.concatenate([[0.0], inner, [1.0]])


def random_density(seed_or_rng, max_pieces: int = 3, min_density: float = 0.2) -> PiecewiseConstantDensity:
    rng = make_rng(seed_or_rng)
    breaks = _random_breaks(rng, max_pieces)
    values = min_density + (1.0 - min_density) * rng.random(len(breaks) - 1)
    values = values / float((breaks[1:] - breaks[:-1]) @ values)  # total mass <= 1 before scaling, so min survives
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
    # Encoded before the file is opened: a value json cannot encode leaves the file as it was.
    Path(path).write_text(json.dumps(spec, sort_keys=True, indent=1) + "\n")


def load_environment(path: str | Path):
    """The environment a spec file describes; a malformed one raises DatasetError naming the file."""
    spec = load_json(path)
    if not isinstance(spec, dict):
        raise DatasetError(f"{path}: environment is not a JSON object")
    try:
        kind = spec["type"]
        if kind == "continuous":
            dist = number_array(spec["context_dist"], 1, "context_dist")
            for key in ("loss", "logging_density"):
                if type(spec[key]) is not list:
                    raise ValueError(f"{key} is not a list")
            return ContinuousEnvironment(
                context_dist=dist,
                loss_fns=tuple(map(PiecewiseConstant.from_json, spec["loss"])),
                logging_densities=tuple(map(PiecewiseConstantDensity.from_json, spec["logging_density"])),
            )
        if kind == "discrete":
            if type(spec["bernoulli_noise"]) is not bool:
                raise ValueError("bernoulli_noise is not a JSON boolean")
            dist = number_array(spec["context_dist"], 1, "context_dist")
            means = number_array(spec["loss_means"], 2, "loss_means")
            pmf = number_array(spec["logging_pmf"], 2, "logging_pmf")
            if pmf.shape != means.shape:
                raise ValueError(f"logging_pmf has shape {pmf.shape}, loss_means {means.shape}")
            return SyntheticEnvironment(
                context_dist=dist,
                loss_means=means,
                logging_policy=TabularPolicy(pmf),
                bernoulli_noise=spec["bernoulli_noise"],
            )
    except KeyError as err:
        raise DatasetError(f"{path}: missing key {err}") from None
    except (TypeError, ValueError) as err:
        raise DatasetError(f"{path}: {err}") from None
    raise DatasetError(f"{path}: unknown environment type {json.dumps(kind)}")
