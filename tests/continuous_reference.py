"""Per-record loop references for the continuous layer.

The library computes each closed-form integral once per logging density and
draws logs per context in arrays; these references re-derive everything
record by record from the scalar primitives (`reciprocal_integral`,
`value_at`, `surrogate_set`, `SmoothedDensityPolicy.density`,
`pc_ratio_integral`, scalar `rng.random()` draws), so tests can compare the
grouped code against them.
"""

import numpy as np

from plbandit.continuous import (
    ContinuousLoggedDataset,
    GridMassPolicy,
    SmoothedDensityPolicy,
    SurrogateGrid,
    pc_ratio_integral,
    surrogate_set,
)
from plbandit.model import PMF_ATOL, PROPENSITY_FLOOR
from plbandit.simulator import make_rng


def logging_density(dataset, i):
    return dataset.densities[dataset.density_index[i]]


def reference_costs(dataset, grid, h, beta):
    points = grid.points
    lo = np.maximum(0.0, points - h / 2.0)
    hi = np.minimum(1.0, points + h / 2.0)
    h_eff = hi - lo
    costs = np.zeros((dataset.n, grid.k))
    for i in range(dataset.n):
        mu, a = logging_density(dataset, i), float(dataset.actions[i])
        for j in range(grid.k):
            costs[i, j] = beta / h_eff[j] * mu.reciprocal_integral(lo[j], hi[j])
        idx = surrogate_set(a, grid, h)
        costs[i, idx] += dataset.losses[i] / (h_eff[idx] * mu.value_at(a))
    return costs


def reference_ipw(policy, dataset):
    total = 0.0
    for i in range(dataset.n):
        a, mu = float(dataset.actions[i]), logging_density(dataset, i)
        total += policy.density(a, int(dataset.context_ids[i])) / mu.value_at(a) * dataset.losses[i]
    return total / dataset.n


def reference_pseudo_loss(policy, dataset):
    total = 0.0
    for i in range(dataset.n):
        total += pc_ratio_integral(policy.density_pieces(int(dataset.context_ids[i])), logging_density(dataset, i))
    return total / dataset.n


def reference_argmin(costs, context_ids, num_contexts):
    """Lowest-index argmin of the per-context summed costs, summed record by record."""
    summed = np.zeros((num_contexts, costs.shape[1]))
    for i, x in enumerate(context_ids):
        summed[x] += costs[i]
    return [min(range(costs.shape[1]), key=lambda j: (summed[x, j], j)) for x in range(num_contexts)]


def reference_train_smoothed(dataset, k, h, beta):
    """(policy, objective, pl_hat) of the one-hot per-context argmin, smoothed with bandwidth h."""
    grid = SurrogateGrid(k)
    costs = reference_costs(dataset, grid, h, beta)
    assignment = reference_argmin(costs, dataset.context_ids, dataset.num_contexts)
    policy = SmoothedDensityPolicy(GridMassPolicy(grid=grid, table=np.eye(k)[assignment]), h)
    pl_hat = reference_pseudo_loss(policy, dataset)
    return policy, reference_ipw(policy, dataset) + beta * pl_hat, pl_hat


def reference_validate(dataset):
    report = []
    for i in range(dataset.n):
        a, loss = float(dataset.actions[i]), float(dataset.losses[i])
        if not (0.0 <= a <= 1.0):
            report.append(f"action out of [0,1] at record {i}")
        if not np.isfinite(loss) or loss < 0.0 or loss > 1.0:
            report.append(f"loss out of [0,1] at record {i}")
        density = logging_density(dataset, i)
        if abs(density.integral() - 1.0) > PMF_ATOL:
            report.append(f"density does not integrate to 1 at record {i}")
        if density.min_density <= PROPENSITY_FLOOR:
            report.append(f"zero logging density at record {i}")
        elif 0.0 <= a <= 1.0 and density.value_at(a) <= PROPENSITY_FLOOR:
            report.append(f"logged action has zero density at record {i}")
    return report


def _sample_piecewise(rng, density):
    masses = np.diff(density.breaks) * density.values
    cum = np.cumsum(masses / masses.sum())
    u = rng.random()
    piece = min(int((u > cum).sum()), len(masses) - 1)
    lo, hi = density.breaks[piece], density.breaks[piece + 1]
    return float(lo + rng.random() * (hi - lo))


def reference_generate_continuous(env, n, seed):
    """generate_logs for a continuous environment, two scalar draws per record."""
    rng = make_rng(seed)
    xs = rng.choice(env.num_contexts, size=n, p=env.context_dist)
    actions = np.empty(n)
    losses = np.empty(n)
    for i, x in enumerate(xs):
        actions[i] = _sample_piecewise(rng, env.logging_densities[x])
        losses[i] = env.loss_fns[x].value_at(actions[i])
    return ContinuousLoggedDataset(
        context_ids=xs,
        actions=actions,
        losses=losses,
        densities=env.logging_densities,
        density_index=xs,
        num_contexts=env.num_contexts,
    )
