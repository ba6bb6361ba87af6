"""Per-record loop references for the continuous layer.

The library computes each closed-form integral once per logging density and
draws logs per context in arrays; these references re-derive everything
record by record from the scalar primitives (`reciprocal_integral`,
`value_at`, `surrogate_set`, `SmoothedDensityPolicy.density`,
`pc_ratio_integral`, scalar `rng.random()` draws), so tests can compare the
grouped code against them. `reciprocal_integral`, the integral of 1/f over
one window, is defined here: the library takes it for every window at once.

`reference_load_continuous` reads a log one line at a time. The writer has
no twin here: `model.write_records` writes both log kinds by the field list
their loaders read, and tests compare its lines with
`json.dumps(record, sort_keys=True)` directly.

The per-piece and per-bin code that the library replaced with one array
operation per context is kept here verbatim (renamed): the greedy
`_dedupe_breaks` loop, `value_at`/`values_at` through a clipped search,
`discretize` by one `integral` per bin, a smoothed policy's
`density_pieces` rebuilt per context, and `exact_risk_smoothed` with one
`value_at` and one `integral` per piece. Tests compare the library with them
bitwise.
"""

import json

import numpy as np

from plbandit.continuous import (
    ContinuousLoggedDataset,
    GridMassPolicy,
    PiecewiseConstant,
    PiecewiseConstantDensity,
    SmoothedDensityPolicy,
    SurrogateGrid,
    pc_ratio_integral,
    surrogate_set,
)
from plbandit.model import PROPENSITY_FLOOR
from plbandit.simulator import _ratio_linear_integral, make_rng


def logging_density(dataset, i):
    return dataset.densities[dataset.density_index[i]]


def reciprocal_integral(f, lo, hi):
    """Exact integral of 1/f over [lo, hi]; every overlapped piece must be positive."""
    if not (0.0 <= lo <= hi <= 1.0):
        raise ValueError("integration window must satisfy 0 <= lo <= hi <= 1")
    overlaps = f._overlaps(lo, hi)
    touched = overlaps > 0
    if (f.values[touched] <= PROPENSITY_FLOOR).any():
        raise ValueError("zero-density piece inside the integration window")
    return float((overlaps[touched] / f.values[touched]).sum())


def reference_costs(dataset, grid, h, beta):
    points = grid.points
    lo = np.maximum(0.0, points - h / 2.0)
    hi = np.minimum(1.0, points + h / 2.0)
    h_eff = hi - lo
    costs = np.zeros((dataset.n, grid.k))
    for i in range(dataset.n):
        mu, a = logging_density(dataset, i), float(dataset.actions[i])
        for j in range(grid.k):
            costs[i, j] = beta / h_eff[j] * reciprocal_integral(mu, lo[j], hi[j])
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
        loss = float(dataset.losses[i])
        if not np.isfinite(loss) or loss < 0.0 or loss > 1.0:
            report.append(f"loss out of [0,1] at record {i}")
    return report


def reference_load_continuous(path):
    """load_continuous_dataset_jsonl as a loop: one json.loads per non-blank line, one record at a time."""
    with open(path) as fh:
        rows = [json.loads(line) for line in fh if line.strip()]
    header = rows[0]["header"]
    ids, actions, losses, index = [], [], [], []
    for row in rows[1:]:
        ids.append(int(row["context"]["id"]))
        actions.append(float(row["action"]))
        losses.append(float(row["loss"]))
        index.append(int(row["density"]))
    return ContinuousLoggedDataset(
        context_ids=np.array(ids, dtype=np.int64),
        actions=np.array(actions),
        losses=np.array(losses),
        densities=tuple(map(PiecewiseConstantDensity.from_json, header["densities"])),
        density_index=np.array(index, dtype=np.int64),
        num_contexts=header.get("num_contexts"),
    )


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


def reference_dedupe_breaks(breaks):
    breaks = np.unique(breaks)
    keep = [0.0]
    for b in breaks[1:]:
        if b - keep[-1] > 1e-12:
            keep.append(float(b))
    keep[-1] = 1.0
    return np.asarray(keep)


def reference_value_at(f, a):
    i = int(np.searchsorted(f.breaks, a, side="right")) - 1
    return float(f.values[min(max(i, 0), len(f.values) - 1)])


def reference_values_at(f, a):
    return f.values[np.clip(np.searchsorted(f.breaks, a, side="right") - 1, 0, len(f.values) - 1)]


def reference_discretize(policy, k, num_contexts):
    grid = SurrogateGrid(k)
    table = np.zeros((num_contexts, k))
    for x in range(num_contexts):
        pieces = policy.density_pieces(x)
        for j in range(k):
            lo, hi = j / k, (j + 1) / k  # the SurrogateGrid.bin_edges(j) that discretize called
            table[x, j] = pieces.integral(lo, hi)
    return GridMassPolicy(grid=grid, table=table)


def reference_density_pieces(policy, context_id):
    """SmoothedDensityPolicy.density_pieces, its breaks rebuilt for the one context."""
    points = policy.base.grid.points
    h = policy.bandwidth
    lo = np.maximum(0.0, points - h / 2.0)
    hi = np.minimum(1.0, points + h / 2.0)
    breaks = reference_dedupe_breaks(np.concatenate([[0.0, 1.0], lo, hi]))
    mids = (breaks[:-1] + breaks[1:]) / 2.0
    weights = policy.base.table[context_id] / (hi - lo)
    inside = (mids[:, None] >= lo[None, :]) & (mids[:, None] <= hi[None, :])
    return PiecewiseConstant(breaks=breaks, values=inside @ weights)


def reference_exact_risk_smoothed(base, h, env):
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
        breaks = reference_dedupe_breaks(np.concatenate([pi.breaks, np.asarray(extra + [0.0, 1.0])]))
        for s, t in zip(breaks[:-1], breaks[1:]):
            m = 0.5 * (s + t)
            p = reference_value_at(pi, m)
            if p == 0.0:
                continue
            left_clip = m - h / 2.0 <= 0.0
            right_clip = m + h / 2.0 >= 1.0
            lower = 0.0 if left_clip else m - h / 2.0
            upper = 1.0 if right_clip else m + h / 2.0
            window_loss = loss.integral(lower, upper)
            c1 = (0.0 if right_clip else reference_value_at(loss, upper)) - (
                0.0 if left_clip else reference_value_at(loss, lower)
            )
            c0 = window_loss - c1 * m
            e1 = (1.0 if left_clip else 0.0) - (1.0 if right_clip else 0.0)
            e0 = (upper - lower) - e1 * m
            total += env.context_dist[x] * p * _ratio_linear_integral(c0, c1, e0, e1, float(s), float(t))
    return total
