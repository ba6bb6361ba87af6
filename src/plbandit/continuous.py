"""Continuous actions on [0, 1]: surrogate grids, boxcar smoothing, and the CSC reduction.

A grid mass policy puts probability on K bin centers (2j-1)/(2K). Smoothing
with bandwidth H spreads each atom uniformly over its window clipped to
[0, 1], normalized by the effective bandwidth so mass is conserved; the
resulting density is piecewise constant and bounded by 2/H. Logging densities
are restricted to piecewise-constant form so every integral in the reduction
has a closed form; there is no numerical quadrature anywhere in this module.

Two printed details of the reduction are read as typos and normalized here:
the modified-cost integral runs over [max(0, a~ - H/2), min(1, a~ + H/2)]
(consistent with the effective bandwidth), and the surrogate window of a
logged action has half-width H/2.

Everything is a pure function over immutable structures; sweeps over (K, H)
pairs may run concurrently.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Sequence

import numpy as np

from .csc import CostMatrix, PointwiseArgminOracle
from .model import (
    PMF_ATOL,
    PROPENSITY_FLOOR,
    DatasetError,
    MassPolicy,
    SupportError,
    _frozen,
    _leading_rows,
    check_index_range,
)

# Closed-window membership tolerance: grid points sitting exactly on a window
# edge (up to float rounding) are included.
EDGE_TOL = 1e-9


@dataclass(frozen=True)
class SurrogateGrid:
    """K equally spaced bin centers (2j-1)/(2K), j = 1..K, tiling [0, 1]."""

    k: int

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("grid needs at least one point")

    @property
    def points(self) -> np.ndarray:
        return (2.0 * np.arange(1, self.k + 1) - 1.0) / (2.0 * self.k)

    def bin_edges(self, j: int) -> tuple[float, float]:
        return j / self.k, (j + 1) / self.k


def effective_bandwidth(a_tilde: float, h: float) -> float:
    """Length of the smoothing window around a_tilde after clipping to [0, 1].

    Always in [h/2, h]; equals h when the window fits inside the unit interval.
    """
    if not (0.0 < a_tilde < 1.0):
        raise ValueError("grid point must lie strictly inside (0, 1)")
    if not (0.0 < h <= 1.0):
        raise ValueError("bandwidth must lie in (0, 1]")
    return min(1.0, a_tilde + h / 2.0) - max(0.0, a_tilde - h / 2.0)


def _effective_bandwidths(points: np.ndarray, h: float) -> np.ndarray:
    return np.minimum(1.0, points + h / 2.0) - np.maximum(0.0, points - h / 2.0)


def surrogate_set(a: float, grid: SurrogateGrid, h: float) -> np.ndarray:
    """Indices of grid points within the closed window [a - h/2, a + h/2].

    May be empty when h < 1/K and `a` falls between windows.
    """
    if not (-EDGE_TOL <= a <= 1.0 + EDGE_TOL):
        raise ValueError("action must lie in [0, 1]")
    points = grid.points
    inside = (points >= a - h / 2.0 - EDGE_TOL) & (points <= a + h / 2.0 + EDGE_TOL)
    return np.flatnonzero(inside)


# ---------------------------------------------------------------------------
# Piecewise-constant functions on [0, 1].


@dataclass(frozen=True, eq=False)
class PiecewiseConstant:
    """A piecewise-constant function on [0, 1]: values[i] on [breaks[i], breaks[i+1])."""

    breaks: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        breaks = np.asarray(self.breaks, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if len(breaks) != len(values) + 1:
            raise ValueError("need exactly one more break than values")
        if abs(breaks[0]) > EDGE_TOL or abs(breaks[-1] - 1.0) > EDGE_TOL:
            raise ValueError("breaks must start at 0 and end at 1")
        if np.any(np.diff(breaks) <= 0):
            raise ValueError("breaks must be strictly increasing")
        if not np.all(np.isfinite(values)):
            raise ValueError("values must be finite")
        breaks = breaks.copy()
        breaks[0], breaks[-1] = 0.0, 1.0
        object.__setattr__(self, "breaks", _frozen(breaks))
        object.__setattr__(self, "values", _frozen(values))

    def value_at(self, a: float) -> float:
        i = int(np.searchsorted(self.breaks, a, side="right")) - 1
        return float(self.values[min(max(i, 0), len(self.values) - 1)])

    def _overlaps(self, lo: float, hi: float) -> np.ndarray:
        return np.clip(np.minimum(self.breaks[1:], hi) - np.maximum(self.breaks[:-1], lo), 0.0, None)

    def integral(self, lo: float = 0.0, hi: float = 1.0) -> float:
        if lo > hi:
            raise ValueError("integration bounds out of order")
        return float(self._overlaps(lo, hi) @ self.values)

    def reciprocal_integral(self, lo: float, hi: float) -> float:
        """Exact integral of 1/f over [lo, hi]; every overlapped piece must be positive."""
        if lo > hi:
            raise ValueError("integration bounds out of order")
        overlaps = self._overlaps(lo, hi)
        touched = overlaps > 0
        if np.any(self.values[touched] <= PROPENSITY_FLOOR):
            raise SupportError("zero-density piece inside the integration window")
        return float((overlaps[touched] / self.values[touched]).sum())


class PiecewiseConstantDensity(PiecewiseConstant):
    """A strictly positive piecewise-constant density integrating to 1 on [0, 1]."""

    def __post_init__(self):
        super().__post_init__()
        if np.any(self.values <= PROPENSITY_FLOOR):
            raise ValueError("density must be strictly positive")
        if abs(self.integral() - 1.0) > PMF_ATOL:
            raise ValueError("density must integrate to 1 within 1e-9")

    @property
    def min_density(self) -> float:
        return float(self.values.min())


def _dedupe_breaks(breaks: np.ndarray) -> np.ndarray:
    # Collapse float-noise slivers (e.g. 0.3 - 0.1 vs 0.1 + 0.1) so pieces
    # keep a meaningful width; the endpoints stay pinned at 0 and 1.
    breaks = np.unique(breaks)
    keep = [0.0]
    for b in breaks[1:]:
        if b - keep[-1] > 1e-12:
            keep.append(float(b))
    keep[-1] = 1.0
    return np.asarray(keep)


def merged_breaks(*fns: PiecewiseConstant) -> np.ndarray:
    return _dedupe_breaks(np.concatenate([f.breaks for f in fns]))


def pc_product_integral(f: PiecewiseConstant, g: PiecewiseConstant) -> float:
    """Exact integral of f * g over [0, 1]."""
    breaks = merged_breaks(f, g)
    mids = (breaks[:-1] + breaks[1:]) / 2.0
    lengths = np.diff(breaks)
    fv = np.array([f.value_at(m) for m in mids])
    gv = np.array([g.value_at(m) for m in mids])
    return float((fv * gv * lengths).sum())


def pc_ratio_integral(f: PiecewiseConstant, g: PiecewiseConstant) -> float:
    """Exact integral of f / g over [0, 1]; g must stay above the propensity floor."""
    breaks = merged_breaks(f, g)
    mids = (breaks[:-1] + breaks[1:]) / 2.0
    lengths = np.diff(breaks)
    fv = np.array([f.value_at(m) for m in mids])
    gv = np.array([g.value_at(m) for m in mids])
    if np.any(gv <= PROPENSITY_FLOOR):
        raise SupportError("zero-density piece in the ratio integrand")
    return float((fv / gv * lengths).sum())


# ---------------------------------------------------------------------------
# Policies over the grid, smoothed densities, and general density policies.


@dataclass(frozen=True, eq=False)
class GridMassPolicy(MassPolicy):
    """Mass policy over the surrogate grid: row x of `table` is the pmf at context x."""

    grid: SurrogateGrid
    table: np.ndarray

    def __post_init__(self):
        table = np.asarray(self.table, dtype=float)
        if table.ndim != 2 or table.shape[1] != self.grid.k:
            raise ValueError("table must be (num_contexts, k)")
        if np.any(table < 0) or np.any(np.abs(table.sum(axis=1) - 1.0) > PMF_ATOL):
            raise ValueError("rows must be pmfs over the grid")
        object.__setattr__(self, "table", _frozen(table))

    @property
    def num_actions(self) -> int:
        return self.grid.k

    def pmf_table(self, num_contexts: int) -> np.ndarray:
        return _leading_rows(self.table, num_contexts)


@dataclass(frozen=True, eq=False)
class SmoothedDensityPolicy:
    """Boxcar smoothing of a grid policy: each atom spreads uniformly over its
    clipped window, with height pmf(a~)/H_e(a~). The density is piecewise
    constant, integrates to 1, and never exceeds 2/bandwidth."""

    base: GridMassPolicy
    bandwidth: float

    def __post_init__(self):
        if not (0.0 < self.bandwidth <= 1.0):
            raise ValueError("bandwidth must lie in (0, 1]")

    @property
    def density_cap(self) -> float:
        return 2.0 / self.bandwidth

    def density(self, a: float, context_id: int) -> float:
        idx = surrogate_set(a, self.base.grid, self.bandwidth)
        if len(idx) == 0:
            return 0.0
        h_eff = _effective_bandwidths(self.base.grid.points[idx], self.bandwidth)
        return float((self.base.table[context_id, idx] / h_eff).sum())

    def density_pieces(self, context_id: int) -> PiecewiseConstant:
        points = self.base.grid.points
        h = self.bandwidth
        lo = np.maximum(0.0, points - h / 2.0)
        hi = np.minimum(1.0, points + h / 2.0)
        breaks = _dedupe_breaks(np.concatenate([[0.0, 1.0], lo, hi]))
        mids = (breaks[:-1] + breaks[1:]) / 2.0
        weights = self.base.table[context_id] / (hi - lo)
        inside = (mids[:, None] >= lo[None, :]) & (mids[:, None] <= hi[None, :])
        return PiecewiseConstant(breaks=breaks, values=inside @ weights)


@dataclass(frozen=True, eq=False)
class PiecewiseDensityPolicy:
    """A density policy given directly as one piecewise-constant density per context."""

    densities: tuple[PiecewiseConstantDensity, ...]

    def density(self, a: float, context_id: int) -> float:
        return self.densities[context_id].value_at(a)

    def density_pieces(self, context_id: int) -> PiecewiseConstant:
        return self.densities[context_id]


def smooth(base: GridMassPolicy, h: float) -> SmoothedDensityPolicy:
    """Smooth a grid policy into a density policy with bandwidth h."""
    return SmoothedDensityPolicy(base=base, bandwidth=h)


def discretize(policy, k: int, num_contexts: int) -> GridMassPolicy:
    """Bin a density policy into grid masses: atom j gets the mass on [a~_j - 1/2K, a~_j + 1/2K].

    `policy` must expose density_pieces(context_id).
    """
    grid = SurrogateGrid(k)
    table = np.zeros((num_contexts, k))
    for x in range(num_contexts):
        pieces = policy.density_pieces(x)
        for j in range(k):
            lo, hi = grid.bin_edges(j)
            table[x, j] = pieces.integral(lo, hi)
    return GridMassPolicy(grid=grid, table=table)


def inverse_density_integral(mu: PiecewiseConstant, lo: float, hi: float) -> float:
    """Exact integral of 1/mu over [lo, hi]."""
    if not (0.0 <= lo <= hi <= 1.0):
        raise ValueError("integration window must satisfy 0 <= lo <= hi <= 1")
    return mu.reciprocal_integral(lo, hi)


# ---------------------------------------------------------------------------
# Continuous logged data and the reduction to a grid CSC problem.


@dataclass(frozen=True, eq=False)
class ContinuousLoggedDataset:
    """Logged records with actions in [0, 1] and a full logging density per record.

    Every integral of the reduction depends on a record only through its
    logging density, so the estimators work per distinct density
    (`density_groups`), not per record.
    """

    context_ids: np.ndarray
    actions: np.ndarray
    losses: np.ndarray
    densities: tuple[PiecewiseConstantDensity, ...]
    num_contexts: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "context_ids", _frozen(np.asarray(self.context_ids, dtype=np.int64)))
        object.__setattr__(self, "actions", _frozen(np.asarray(self.actions, dtype=float)))
        object.__setattr__(self, "losses", _frozen(np.asarray(self.losses, dtype=float)))
        object.__setattr__(self, "densities", tuple(self.densities))
        n = len(self.actions)
        if n < 1:
            raise DatasetError("dataset must contain at least one record")
        if len(self.context_ids) != n or len(self.losses) != n or len(self.densities) != n:
            raise DatasetError("dataset arrays are not aligned")
        if self.num_contexts is None:
            object.__setattr__(self, "num_contexts", int(self.context_ids.max()) + 1)
        check_index_range("context id", self.context_ids, self.num_contexts)

    @property
    def n(self) -> int:
        return len(self.actions)

    @cached_property
    def density_groups(self) -> tuple[tuple[PiecewiseConstantDensity, ...], np.ndarray]:
        """The distinct logging densities, by content, in first-seen order, and
        each record's index into them."""
        by_content: dict[tuple[bytes, bytes], int] = {}
        distinct: list[PiecewiseConstantDensity] = []
        index = np.empty(self.n, dtype=np.intp)
        for i, density in enumerate(self.densities):
            g = by_content.setdefault((density.breaks.tobytes(), density.values.tobytes()), len(distinct))
            if g == len(distinct):
                distinct.append(density)
            index[i] = g
        return tuple(distinct), _frozen(index)

    @cached_property
    def logged_density(self) -> np.ndarray:
        """mu_i(a_i) per record, one searchsorted per distinct density (value_at semantics)."""
        distinct, index = self.density_groups
        out = np.empty(self.n)
        ends = np.cumsum(np.bincount(index))
        for density, members in zip(distinct, np.split(np.argsort(index, kind="stable"), ends[:-1])):
            pieces = np.searchsorted(density.breaks, self.actions[members], side="right") - 1
            out[members] = density.values[np.clip(pieces, 0, len(density.values) - 1)]
        return _frozen(out)

    @property
    def min_logging_density(self) -> float:
        return min(d.min_density for d in self.density_groups[0])


def _window_mask(actions: np.ndarray, points: np.ndarray, h: float) -> np.ndarray:
    """(n, K) closed-window membership, row i equal to surrogate_set(actions[i], ...)."""
    bad = np.flatnonzero(~((actions >= -EDGE_TOL) & (actions <= 1.0 + EDGE_TOL)))
    if len(bad):
        raise DatasetError(f"action must lie in [0, 1] at record {bad[0]}")
    a = actions[:, None]
    return (points >= a - h / 2.0 - EDGE_TOL) & (points <= a + h / 2.0 + EDGE_TOL)


def _checked_logged_density(dataset: ContinuousLoggedDataset) -> np.ndarray:
    mu_at = dataset.logged_density
    zero = np.flatnonzero(mu_at <= PROPENSITY_FLOOR)
    if len(zero):
        raise SupportError(f"logged action has zero density at record {zero[0]}")
    return mu_at


def validate_continuous_dataset(dataset: ContinuousLoggedDataset) -> list[str]:
    """Record-level checks mirroring the discrete validator (empty report = valid).

    Integral and minimum are checked once per distinct density; the report
    lists every violation in record order.
    """
    distinct, index = dataset.density_groups
    actions, losses = dataset.actions, dataset.losses
    action_ok = (actions >= 0.0) & (actions <= 1.0)
    loss_bad = ~np.isfinite(losses) | (losses < 0.0) | (losses > 1.0)
    integral_bad = np.array([abs(d.integral() - 1.0) > PMF_ATOL for d in distinct])[index]
    zero_piece = np.array([d.min_density <= PROPENSITY_FLOOR for d in distinct])[index]
    zero_at_action = ~zero_piece & action_ok & (dataset.logged_density <= PROPENSITY_FLOOR)
    checks = [
        (~action_ok, "action out of [0,1]"),
        (loss_bad, "loss out of [0,1]"),
        (integral_bad, "density does not integrate to 1"),
        (zero_piece, "zero logging density"),
        (zero_at_action, "logged action has zero density"),
    ]
    flagged = sorted((int(i), rank) for rank, (mask, _) in enumerate(checks) for i in np.flatnonzero(mask))
    return [f"{checks[rank][1]} at record {i}" for i, rank in flagged]


def build_modified_costs_continuous(
    dataset: ContinuousLoggedDataset,
    grid: SurrogateGrid,
    h: float,
    beta: float,
) -> CostMatrix:
    """Grid cost row for record i:

        cost[i][j] = loss_i / (H_e(a~_j) * mu_i(a_i)) * 1{a~_j within h/2 of a_i}
                   + beta / H_e(a~_j) * integral of 1/mu_i over the clipped window of a~_j.

    The beta part is one row per distinct logging density: a (K, pieces)
    window-overlap matrix divided by the piece values, summed per window. That
    is `reciprocal_integral` for every window at once, with the same rounding
    for densities of fewer than 8 pieces (numpy sums shorter rows
    sequentially), so windows that tie exactly still tie and the oracle's
    lowest-index rule picks the same grid point as a per-record build.

    The grid-policy-weighted average of these costs equals the density-side
    penalized objective of the smoothed policy, exactly.
    """
    if beta < 0:
        raise ValueError("beta must be nonnegative")
    points = grid.points
    h_eff = _effective_bandwidths(points, h)
    lo = np.maximum(0.0, points - h / 2.0)
    hi = np.minimum(1.0, points + h / 2.0)
    inside = _window_mask(dataset.actions, points, h)
    mu_at = _checked_logged_density(dataset)
    distinct, index = dataset.density_groups
    beta_rows = np.zeros((len(distinct), grid.k))
    if beta > 0:
        for g, mu in enumerate(distinct):
            overlaps = mu._overlaps(lo[:, None], hi[:, None])
            touched = overlaps > 0
            if np.any(touched & (mu.values <= PROPENSITY_FLOOR)):
                first = int(np.argmax(index == g))
                raise SupportError(f"zero-density piece inside the integration window at record {first}")
            ratios = np.divide(overlaps, mu.values, out=np.zeros_like(overlaps), where=touched)
            beta_rows[g] = beta / h_eff * ratios.sum(axis=1)
    loss_part = dataset.losses[:, None] / (h_eff * mu_at[:, None])
    costs = beta_rows[index] + np.where(inside, loss_part, 0.0)
    return CostMatrix(costs=costs, context_ids=dataset.context_ids, num_contexts=dataset.num_contexts)


def continuous_ipw_risk(policy: SmoothedDensityPolicy, dataset: ContinuousLoggedDataset) -> float:
    """Density-ratio weighted mean loss (1/N) sum_i pi(a_i|x_i)/mu_i(a_i) * loss_i.

    pi(a_i|x_i) uses the closed windows of `SmoothedDensityPolicy.density`.
    """
    grid, h = policy.base.grid, policy.bandwidth
    inside = _window_mask(dataset.actions, grid.points, h)
    heights = policy.base.table[dataset.context_ids] / _effective_bandwidths(grid.points, h)
    pi_at = np.where(inside, heights, 0.0).sum(axis=1)
    return float((pi_at / _checked_logged_density(dataset)) @ dataset.losses) / dataset.n


def continuous_pseudo_loss(policy, dataset: ContinuousLoggedDataset) -> float:
    """Pseudo-loss with densities: (1/N) sum_i integral of pi(a|x_i)/mu_i(a) da.

    Computed by exact piecewise integration, once per distinct (context,
    logging density) pair and weighted by its record count. Equals 1 whenever
    the logging density is uniform (the integrand reduces to the policy
    density itself).
    """
    distinct, index = dataset.density_groups
    counts = np.bincount(dataset.context_ids * len(distinct) + index)
    total = 0.0
    for pair in np.flatnonzero(counts):
        x, g = divmod(int(pair), len(distinct))
        total += int(counts[pair]) * pc_ratio_integral(policy.density_pieces(x), distinct[g])
    return total / dataset.n


def train_smoothed(
    dataset: ContinuousLoggedDataset, k: int, h: float, beta: float
) -> tuple[SmoothedDensityPolicy, float, float]:
    """Train a bandwidth-h smoothed policy over a K-point grid with one CSC call.

    The per-context argmin of the modified grid costs, as a one-hot grid policy,
    smoothed with bandwidth h. Returns (policy, density-side objective, pl_hat);
    the pseudo-loss is computed once and serves both numbers.
    """
    grid = SurrogateGrid(k)
    costs = build_modified_costs_continuous(dataset, grid, h, beta)
    chosen = PointwiseArgminOracle(num_contexts=dataset.num_contexts).solve(costs)
    policy = smooth(GridMassPolicy(grid=grid, table=np.eye(k)[np.asarray(chosen.assignment)]), h)
    pl_hat = continuous_pseudo_loss(policy, dataset)
    return policy, continuous_ipw_risk(policy, dataset) + beta * pl_hat, pl_hat


def continuous_penalized_objective(policy, dataset: ContinuousLoggedDataset, beta: float) -> float:
    """Density-side objective continuous_ipw_risk + beta * continuous_pseudo_loss."""
    if beta < 0:
        raise ValueError("beta must be nonnegative")
    return continuous_ipw_risk(policy, dataset) + beta * continuous_pseudo_loss(policy, dataset)


# ---------------------------------------------------------------------------
# Bounds and hyper-parameter guidance for the smoothed class.


def smoothed_excess_bound(
    n: int,
    alpha: float,
    h: float,
    mu_density_inf: float,
    class_size: int,
    beta: float | None = None,
    pl_hat: float | None = None,
    exact_pl_value: float | None = None,
) -> float:
    """Excess-risk bound for bandwidth-h smoothed classes.

    Substituting pmf_sup = 2/h and mismatch = 2/(h * mu_density_inf) into the
    generic discrete bounds gives, for fixed beta (with comparator estimate
    pl_hat):

        2*beta*pl_hat + (3/beta + 16/mu_density_inf) * ln(4|class|/a) / (n*h)

    and at the tuned weight (with the comparator's exact pseudo-loss):

        6*sqrt(PL * ln(4|class|/a) / (n*h)) + 24*ln(4|class|/a) / (n*h*mu_density_inf)
    """
    if not (0.0 < alpha < 1.0):
        raise ValueError("alpha must lie in (0, 1)")
    if not (0.0 < h <= 1.0):
        raise ValueError("bandwidth must lie in (0, 1]")
    if mu_density_inf <= 0:
        raise ValueError("mu_density_inf must be positive")
    log_term = math.log(4.0 * class_size / alpha)
    if beta is not None:
        if pl_hat is None:
            raise ValueError("fixed-beta variant needs pl_hat")
        if beta <= 0:
            raise ValueError("beta must be positive")
        return 2.0 * beta * pl_hat + (3.0 / beta + 16.0 / mu_density_inf) * log_term / (n * h)
    if exact_pl_value is None:
        raise ValueError("pass beta+pl_hat or exact_pl_value")
    return 6.0 * math.sqrt(exact_pl_value * log_term / (n * h)) + 24.0 * log_term / (
        n * h * mu_density_inf
    )


def suggest_k(n: int, mu_density_inf: float, h: float, alpha: float) -> int:
    """Grid size of order (n * mu_density_inf / (h * ln(1/alpha)))^(1/3), at least 1."""
    if n < 1 or mu_density_inf <= 0 or not (0 < h <= 1) or not (0 < alpha < 1):
        raise ValueError("all inputs must be positive with alpha in (0,1) and h in (0,1]")
    value = (n * mu_density_inf / (h * math.log(1.0 / alpha))) ** (1.0 / 3.0)
    return max(1, math.ceil(round(value, 9)))


def h_grid(m: int) -> list[float]:
    """Bandwidth grid {1/1, 1/2, ..., 1/m}: reciprocals equally spaced."""
    if m < 1:
        raise ValueError("m must be >= 1")
    return [1.0 / i for i in range(1, m + 1)]


# ---------------------------------------------------------------------------
# JSONL files for continuous logged data.


def save_continuous_dataset_jsonl(
    dataset: ContinuousLoggedDataset, path: str | Path, metadata: dict | None = None
) -> None:
    header: dict = {"action_space": "unit_interval"}
    if dataset.num_contexts is not None:
        header["num_contexts"] = dataset.num_contexts
    if metadata:
        header.update(metadata)
    with open(path, "w") as fh:
        fh.write(json.dumps({"header": header}, sort_keys=True) + "\n")
        for i in range(dataset.n):
            density = dataset.densities[i]
            rec = {
                "context": {"id": int(dataset.context_ids[i])},
                "action": float(dataset.actions[i]),
                "loss": float(dataset.losses[i]),
                "density": {
                    "breaks": [float(b) for b in density.breaks],
                    "values": [float(v) for v in density.values],
                },
            }
            fh.write(json.dumps(rec, sort_keys=True) + "\n")


def load_continuous_dataset_jsonl(path: str | Path) -> ContinuousLoggedDataset:
    """Load a continuous dataset; records with equal (breaks, values) share one
    validated density object."""
    with open(path) as fh:
        lines = [json.loads(line) for line in fh if line.strip()]
    if not lines or "header" not in lines[0]:
        raise DatasetError(f"{path}: missing header line")
    header = lines[0]["header"]
    ids, actions, losses, densities = [], [], [], []
    interned: dict[tuple, PiecewiseConstantDensity] = {}
    for i, row in enumerate(lines[1:]):
        ids.append(int(row["context"]["id"]))
        actions.append(float(row["action"]))
        losses.append(float(row["loss"]))
        breaks, values = row["density"]["breaks"], row["density"]["values"]
        key = (tuple(breaks), tuple(values))
        density = interned.get(key)
        if density is None:
            try:
                density = PiecewiseConstantDensity(breaks=np.array(breaks), values=np.array(values))
            except ValueError as err:
                raise DatasetError(f"{path}: {err} at record {i}") from err
            interned[key] = density
        densities.append(density)
    try:
        return ContinuousLoggedDataset(
            context_ids=np.array(ids),
            actions=np.array(actions),
            losses=np.array(losses),
            densities=tuple(densities),
            num_contexts=int(header["num_contexts"]) if "num_contexts" in header else None,
        )
    except DatasetError as err:
        raise DatasetError(f"{path}: {err}") from err
