"""Per-record loop references for the continuous layer.

The library computes each closed-form integral once per distinct logging
density; these references re-derive everything record by record from the
scalar primitives (`reciprocal_integral`, `value_at`, `surrogate_set`,
`SmoothedDensityPolicy.density`, `pc_ratio_integral`), so tests can compare
the grouped code against them.
"""

import numpy as np

from plbandit.continuous import (
    GridMassPolicy,
    SmoothedDensityPolicy,
    SurrogateGrid,
    pc_ratio_integral,
    surrogate_set,
)
from plbandit.model import PMF_ATOL, PROPENSITY_FLOOR


def reference_costs(dataset, grid, h, beta):
    points = grid.points
    lo = np.maximum(0.0, points - h / 2.0)
    hi = np.minimum(1.0, points + h / 2.0)
    h_eff = hi - lo
    costs = np.zeros((dataset.n, grid.k))
    for i in range(dataset.n):
        mu, a = dataset.densities[i], float(dataset.actions[i])
        for j in range(grid.k):
            costs[i, j] = beta / h_eff[j] * mu.reciprocal_integral(lo[j], hi[j])
        idx = surrogate_set(a, grid, h)
        costs[i, idx] += dataset.losses[i] / (h_eff[idx] * mu.value_at(a))
    return costs


def reference_ipw(policy, dataset):
    total = 0.0
    for i in range(dataset.n):
        a, mu = float(dataset.actions[i]), dataset.densities[i]
        total += policy.density(a, int(dataset.context_ids[i])) / mu.value_at(a) * dataset.losses[i]
    return total / dataset.n


def reference_pseudo_loss(policy, dataset):
    total = 0.0
    for i in range(dataset.n):
        total += pc_ratio_integral(policy.density_pieces(int(dataset.context_ids[i])), dataset.densities[i])
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
        density = dataset.densities[i]
        if abs(density.integral() - 1.0) > PMF_ATOL:
            report.append(f"density does not integrate to 1 at record {i}")
        if density.min_density <= PROPENSITY_FLOOR:
            report.append(f"zero logging density at record {i}")
        elif 0.0 <= a <= 1.0 and density.value_at(a) <= PROPENSITY_FLOOR:
            report.append(f"logged action has zero density at record {i}")
    return report
