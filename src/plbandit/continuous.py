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

Every function is pure. A structure's fields are not changed after
construction; a dataset's per-record logged density and a smoothed policy's
piece layout are built on first use and kept. plbandit runs no threads.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
import numpy as np

from .csc import CostMatrix, PointwiseArgminOracle
from .model import (
    INTEGER,
    NUMBER,
    PMF_ATOL,
    PROPENSITY_FLOOR,
    ClassStats,
    DatasetError,
    MassPolicy,
    _check_pmf,
    _frozen,
    _leading_rows,
    context_fault,
    first_fault,
    frame_records,
    header_count,
    judged,
    number_array,
    open_dataset,
    read_columns,
    read_header,
    write_records,
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


def effective_bandwidth(points: np.ndarray, h: float) -> np.ndarray:
    """H_e: length of the bandwidth-h smoothing window around each grid point
    after clipping to [0, 1].

    For points in (0, 1) and h in (0, 1] it lies in [h/2, h], and equals h
    when the window fits inside the unit interval.
    """
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
        # One copy of each array, checked with ndarray methods: verify builds
        # thousands of these.
        breaks = np.array(self.breaks, dtype=float)
        values = np.array(self.values, dtype=float)
        if len(breaks) != len(values) + 1:
            raise ValueError("need exactly one more break than values")
        # Negated comparisons, so NaN breaks fail too.
        if not (abs(breaks[0]) <= EDGE_TOL and abs(breaks[-1] - 1.0) <= EDGE_TOL):
            raise ValueError("breaks must start at 0 and end at 1")
        if not (breaks[1:] > breaks[:-1]).all():
            raise ValueError("breaks must be strictly increasing")
        if not np.isfinite(values).all():
            raise ValueError("values must be finite")
        breaks[0], breaks[-1] = 0.0, 1.0
        breaks.setflags(write=False)
        values.setflags(write=False)
        object.__setattr__(self, "breaks", breaks)
        object.__setattr__(self, "values", values)

    @classmethod
    def from_json(cls, obj: dict) -> PiecewiseConstant:
        """The function a to_json object describes, checked as `cls` checks it."""
        if type(obj) is not dict:
            raise ValueError("piecewise function is not a JSON object")
        return cls(breaks=number_array(obj["breaks"], 1, "breaks"), values=number_array(obj["values"], 1, "values"))

    def to_json(self) -> dict:
        """The `{"breaks": [...], "values": [...]}` object the function is saved as."""
        return {"breaks": self.breaks.tolist(), "values": self.values.tolist()}

    def value_at(self, a: float) -> float:
        """The value of the piece holding `a`: the first piece below 0, the last from 1 on."""
        return float(self.values[self.breaks[1:-1].searchsorted(a, side="right")])

    def values_at(self, a: np.ndarray) -> np.ndarray:
        """value_at of every entry of `a`: with the ends pinned at 0 and 1, the
        count of inner breaks at or below a point is its piece, clamped."""
        return self.values[self.breaks[1:-1].searchsorted(a, side="right")]

    def _overlaps(self, lo: float, hi: float) -> np.ndarray:
        # np.maximum is what np.clip(x, 0.0, None) calls, without its wrappers.
        return np.maximum(np.minimum(self.breaks[1:], hi) - np.maximum(self.breaks[:-1], lo), 0.0)

    def integral(self, lo: float = 0.0, hi: float = 1.0) -> float:
        if lo > hi:
            raise ValueError("integration bounds out of order")
        return float(self._overlaps(lo, hi) @ self.values)


class PiecewiseConstantDensity(PiecewiseConstant):
    """A strictly positive piecewise-constant density integrating to 1 on [0, 1]."""

    def __post_init__(self):
        super().__post_init__()
        if (self.values <= PROPENSITY_FLOOR).any():
            raise ValueError("density must be strictly positive")
        if abs(self.integral() - 1.0) > PMF_ATOL:
            raise ValueError("density must integrate to 1 within 1e-9")

    @property
    def min_density(self) -> float:
        return float(self.values.min())


def _dedupe_breaks(breaks: np.ndarray) -> np.ndarray:
    """The sorted distinct breaks, float-noise slivers (e.g. 0.3 - 0.1 vs
    0.1 + 0.1) collapsed so pieces keep a meaningful width, the ends pinned
    at 0 and 1.

    A greedy pass keeps each break more than 1e-12 above the last one kept,
    starting from 0. It runs only when some gap is 1e-12 or less: otherwise
    it would keep every break, so np.unique's result, its ends pinned, is
    returned as it is. Either way the result is a new array, n floats for n
    distinct breaks.
    """
    breaks = np.unique(breaks)
    if breaks.size:
        breaks[0] = 0.0
        if (breaks[1:] - breaks[:-1] > 1e-12).all():
            breaks[-1] = 1.0
            return breaks
    keep = [0.0]
    for b in breaks[1:]:
        if b - keep[-1] > 1e-12:
            keep.append(float(b))
    keep[-1] = 1.0
    return np.asarray(keep)


def _merged_pieces(f: PiecewiseConstant, g: PiecewiseConstant) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """f and g on each piece of their merged breaks, and the piece lengths."""
    breaks = _dedupe_breaks(np.concatenate([f.breaks, g.breaks]))
    mids = (breaks[:-1] + breaks[1:]) / 2.0
    return f.values_at(mids), g.values_at(mids), breaks[1:] - breaks[:-1]


def pc_product_integral(f: PiecewiseConstant, g: PiecewiseConstant) -> float:
    """Exact integral of f * g over [0, 1]."""
    fv, gv, lengths = _merged_pieces(f, g)
    return float((fv * gv * lengths).sum())


def pc_ratio_integral(f: PiecewiseConstant, g: PiecewiseConstantDensity) -> float:
    """Exact integral of f / g over [0, 1]; a density stays above the propensity floor."""
    fv, gv, lengths = _merged_pieces(f, g)
    return float((fv / gv * lengths).sum())


# ---------------------------------------------------------------------------
# Policies over the grid, smoothed densities, and general density policies.


@dataclass(frozen=True, eq=False)
class GridMassPolicy(MassPolicy):
    """Mass policy over the surrogate grid: row x of `table` is the pmf at context x."""

    grid: SurrogateGrid
    table: np.ndarray

    def __post_init__(self):
        table = _check_pmf(self.table)
        if table.shape[1] != self.grid.k:
            raise ValueError("table must be (num_contexts, k)")
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

    def density(self, a: float, context_id: int) -> float:
        idx = surrogate_set(a, self.base.grid, self.bandwidth)
        if len(idx) == 0:
            return 0.0
        h_eff = effective_bandwidth(self.base.grid.points[idx], self.bandwidth)
        return float((self.base.table[context_id, idx] / h_eff).sum())

    @cached_property
    def _layout(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """What every context's density shares, built once: the merged window
        breaks, which windows hold each piece, and each window's length."""
        points = self.base.grid.points
        h = self.bandwidth
        lo = np.maximum(0.0, points - h / 2.0)
        hi = np.minimum(1.0, points + h / 2.0)
        breaks = _dedupe_breaks(np.concatenate([[0.0, 1.0], lo, hi]))
        mids = (breaks[:-1] + breaks[1:]) / 2.0
        inside = (mids[:, None] >= lo[None, :]) & (mids[:, None] <= hi[None, :])
        return breaks, inside, hi - lo

    def density_pieces(self, context_id: int) -> PiecewiseConstant:
        breaks, inside, lengths = self._layout
        return PiecewiseConstant(breaks=breaks, values=inside @ (self.base.table[context_id] / lengths))


@dataclass(frozen=True, eq=False)
class PiecewiseDensityPolicy:
    """A density policy given directly as one piecewise-constant density per context."""

    densities: tuple[PiecewiseConstantDensity, ...]

    def density_pieces(self, context_id: int) -> PiecewiseConstant:
        return self.densities[context_id]


def discretize(policy, k: int, num_contexts: int) -> GridMassPolicy:
    """Bin a density policy into grid masses: atom j gets the mass on [a~_j - 1/2K, a~_j + 1/2K].

    `policy` must expose density_pieces(context_id).
    """
    grid = SurrogateGrid(k)
    edges = np.arange(k + 1)[:, None] / k  # bin j is [j/k, (j+1)/k]
    table = np.zeros((num_contexts, k))
    for x in range(num_contexts):
        pieces = policy.density_pieces(x)
        # Row j is pieces._overlaps over bin j; each row's dot product is
        # integral()'s own, so every mass is bitwise integral() over its bin.
        overlaps = pieces._overlaps(edges[:-1], edges[1:])
        table[x] = [row @ pieces.values for row in overlaps]
    return GridMassPolicy(grid=grid, table=table)


# ---------------------------------------------------------------------------
# Continuous logged data and the reduction to a grid CSC problem.


@dataclass(frozen=True, eq=False)
class ContinuousLoggedDataset:
    """Logged records with actions in [0, 1]: record i was logged under the
    density `densities[density_index[i]]`.

    The constructor (model.frame_records) rejects an array of the wrong rank,
    a bad num_contexts, and the density or record validate_continuous_dataset
    names.

    Every integral of the reduction depends on a record only through its
    logging density, so the estimators work once per density, not per record.
    """

    context_ids: np.ndarray
    actions: np.ndarray
    losses: np.ndarray
    densities: tuple[PiecewiseConstantDensity, ...]
    density_index: np.ndarray
    num_contexts: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "densities", tuple(self.densities))
        columns = [("context_ids", np.int64, 1), ("actions", float, 1), ("losses", float, 1)]
        frame_records(self, [*columns, ("density_index", np.int64, 1)], validate_continuous_dataset)

    @property
    def n(self) -> int:
        return len(self.actions)

    @cached_property
    def logged_density(self) -> np.ndarray:
        """mu_i(a_i) per record, one searchsorted per density (value_at semantics)."""
        out = np.empty(self.n)
        ends = np.cumsum(np.bincount(self.density_index, minlength=len(self.densities)))
        members = np.split(np.argsort(self.density_index, kind="stable"), ends[:-1])
        for density, rows in zip(self.densities, members):
            out[rows] = density.values_at(self.actions[rows])
        return _frozen(out)

    @property
    def min_logging_density(self) -> float:
        """The smallest value of any density some record was logged under."""
        return min(self.densities[g].min_density for g in np.unique(self.density_index))


def _window_mask(actions: np.ndarray, points: np.ndarray, h: float) -> np.ndarray:
    """(n, K) closed-window membership, row i equal to surrogate_set(actions[i], ...)."""
    a = actions[:, None]
    return (points >= a - h / 2.0 - EDGE_TOL) & (points <= a + h / 2.0 + EDGE_TOL)


def _record_fault(context_ids, actions, losses, index, num_densities, num_contexts) -> tuple[int, str] | None:
    """The first fault of a ContinuousLoggedDataset's records, in order: a
    context_fault; a density index outside [0, num_densities); an action
    outside [0, 1]; a loss not finite or not in [0, 1]."""
    return first_fault(
        [
            context_fault(context_ids, num_contexts),
            ((index < 0) | (index >= num_densities), lambda i: f"density index {index[i]} out of range [0, {num_densities})"),
            (~((actions >= 0.0) & (actions <= 1.0)), lambda i: f"action {float(actions[i])} out of [0, 1]"),
            (~((losses >= 0.0) & (losses <= 1.0)), lambda i: "loss out of [0,1]"),  # negated: NaN fails
        ]
    )


def validate_continuous_dataset(dataset: ContinuousLoggedDataset) -> list[str]:
    """ContinuousLoggedDataset's density and record check: [] or the message it
    raises, for the first density that is not a PiecewiseConstantDensity, else _record_fault's."""
    for g, density in enumerate(dataset.densities):
        if not isinstance(density, PiecewiseConstantDensity):
            users = np.flatnonzero(dataset.density_index == g)
            where = f" at record {users[0]}" if len(users) else ", which no record uses"
            return [f"density {g} is not a PiecewiseConstantDensity{where}"]
    arrays = (dataset.context_ids, dataset.actions, dataset.losses, dataset.density_index)
    fault = _record_fault(*arrays, len(dataset.densities), dataset.num_contexts)
    return [] if fault is None else [f"{fault[1]} at record {fault[0]}"]


def build_modified_costs_continuous(
    dataset: ContinuousLoggedDataset,
    grid: SurrogateGrid,
    h: float,
    beta: float,
) -> CostMatrix:
    """Grid cost row for record i:

        cost[i][j] = loss_i / (H_e(a~_j) * mu_i(a_i)) * 1{a~_j within h/2 of a_i}
                   + beta / H_e(a~_j) * integral of 1/mu_i over the clipped window of a~_j.

    The beta part is one row per logging density: a (K, pieces)
    window-overlap matrix divided by the piece values, summed per window. That
    is the integral of 1/mu over every window at once, as the per-record
    `reciprocal_integral` of tests/continuous_reference.py takes it, with the
    same rounding for densities of fewer than 8 pieces (numpy sums shorter
    rows sequentially), so windows that tie exactly still tie and the oracle's
    lowest-index rule picks the same grid point as a per-record build.

    The grid-policy-weighted average of these costs equals the density-side
    penalized objective of the smoothed policy, exactly.
    """
    if not (0.0 < h <= 1.0):
        raise ValueError("bandwidth must lie in (0, 1]")
    if beta < 0:
        raise ValueError("beta must be nonnegative")
    points = grid.points
    h_eff = effective_bandwidth(points, h)
    lo = np.maximum(0.0, points - h / 2.0)
    hi = np.minimum(1.0, points + h / 2.0)
    inside = _window_mask(dataset.actions, points, h)
    beta_rows = np.zeros((len(dataset.densities), grid.k))
    if beta > 0:
        # Every density is positive; a row no record uses is never read.
        for g, mu in enumerate(dataset.densities):
            beta_rows[g] = beta / h_eff * (mu._overlaps(lo[:, None], hi[:, None]) / mu.values).sum(axis=1)
    loss_part = dataset.losses[:, None] / (h_eff * dataset.logged_density[:, None])
    costs = beta_rows[dataset.density_index] + np.where(inside, loss_part, 0.0)
    return CostMatrix(costs=costs, context_ids=dataset.context_ids, num_contexts=dataset.num_contexts)


def continuous_ipw_risk(policy: SmoothedDensityPolicy, dataset: ContinuousLoggedDataset) -> float:
    """Density-ratio weighted mean loss (1/N) sum_i pi(a_i|x_i)/mu_i(a_i) * loss_i.

    pi(a_i|x_i) uses the closed windows of `SmoothedDensityPolicy.density`.
    """
    grid, h = policy.base.grid, policy.bandwidth
    inside = _window_mask(dataset.actions, grid.points, h)
    heights = policy.base.table[dataset.context_ids] / effective_bandwidth(grid.points, h)
    pi_at = np.where(inside, heights, 0.0).sum(axis=1)
    return float((pi_at / dataset.logged_density) @ dataset.losses) / dataset.n


def continuous_pseudo_loss(policy, dataset: ContinuousLoggedDataset) -> float:
    """Pseudo-loss with densities: (1/N) sum_i integral of pi(a|x_i)/mu_i(a) da.

    Computed by exact piecewise integration, once per (context, logging
    density) pair that some record has, weighted by its record count.
    Equals 1 whenever the logging density is uniform (the integrand reduces
    to the policy density itself).
    """
    distinct = dataset.densities
    counts = np.bincount(dataset.context_ids * len(distinct) + dataset.density_index)
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
    policy = SmoothedDensityPolicy(
        base=GridMassPolicy(grid=grid, table=np.eye(k)[np.asarray(chosen.assignment)]), bandwidth=h
    )
    pl_hat = continuous_pseudo_loss(policy, dataset)
    return policy, continuous_ipw_risk(policy, dataset) + beta * pl_hat, pl_hat


def continuous_penalized_objective(policy, dataset: ContinuousLoggedDataset, beta: float) -> float:
    """Density-side objective continuous_ipw_risk + beta * continuous_pseudo_loss."""
    if beta < 0:
        raise ValueError("beta must be nonnegative")
    return continuous_ipw_risk(policy, dataset) + beta * continuous_pseudo_loss(policy, dataset)


# ---------------------------------------------------------------------------
# Bounds and hyper-parameter guidance for the smoothed class.


def smoothed_class_stats(h: float, mu_density_inf: float, class_size: int) -> ClassStats:
    """ClassStats of `class_size` bandwidth-h smoothed policies against logging
    densities of at least mu_density_inf. A smoothed density is at most 2/h, so
    pmf_sup = 2/h and weight_ratio_sup = 2/(h * mu_density_inf); with these the
    class-wide bounds of `estimators` hold for the smoothed class. For one,
    oracle_inequality_bound is then

        2*beta*pl_hat + (3/beta + 16/mu_density_inf) * ln(4|class|/a) / (n*h)

    and oracle_inequality_bound_tuned is

        6*sqrt(PL * ln(4|class|/a) / (n*h)) + 24*ln(4|class|/a) / (n*h*mu_density_inf)
    """
    if not (0.0 < h <= 1.0 and mu_density_inf > 0):
        raise ValueError("bandwidth must lie in (0, 1] and mu_density_inf must be positive")
    return ClassStats(
        pmf_sup=2.0 / h, mu_pmf_inf=mu_density_inf, weight_ratio_sup=2.0 / (h * mu_density_inf), class_size=class_size
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


# A continuous record's fields, which both the loader and the writer use (see model.read_columns).
_CONTINUOUS_FIELDS = [("context.id", INTEGER), ("action", NUMBER), ("loss", NUMBER), ("density", INTEGER)]


def save_continuous_dataset_jsonl(
    dataset: ContinuousLoggedDataset, path: str | Path, metadata: dict | None = None
) -> None:
    """As save_dataset_jsonl, by _CONTINUOUS_FIELDS. The header lists each distinct density text once, in
    first-occurrence order of dataset.densities, under `densities`; a record's `density` is its position there."""
    distinct: dict[str, int] = {}
    texts = [json.dumps(d.to_json(), sort_keys=True) for d in dataset.densities]
    positions = np.array([distinct.setdefault(text, len(distinct)) for text in texts], dtype=np.int64)
    header: dict = {"action_space": "unit_interval", "densities": list(map(json.loads, distinct))}
    if dataset.num_contexts is not None:
        header["num_contexts"] = dataset.num_contexts
    columns = [dataset.context_ids, dataset.actions, dataset.losses, positions[dataset.density_index]]
    write_records(path, header, metadata, _CONTINUOUS_FIELDS, columns)


def load_continuous_dataset_jsonl(path: str | Path) -> ContinuousLoggedDataset:
    """Load a continuous dataset as `load_dataset_jsonl` does, by _CONTINUOUS_FIELDS, once each header
    density is built; the constructor judges each record's `density`, an index into the header's list, too.
    A header without that list that marks a discrete log (num_actions) is named as one."""
    densities = []
    with open_dataset(path) as fh:
        header = read_header(fh, path)
        num_contexts = header_count(header, "num_contexts", path)
        if type(header.get("densities")) is not list:
            if "num_actions" in header:
                raise DatasetError(f"{path}: a discrete log (header key 'num_actions'), not a continuous one")
            raise DatasetError(f"{path}: header lacks a list of densities")
        for g, entry in enumerate(header["densities"]):
            try:
                densities.append(PiecewiseConstantDensity.from_json(entry))
            except KeyError as err:
                raise DatasetError(f"{path}: header density {g}: missing key {err}") from None
            except (TypeError, ValueError) as err:
                raise DatasetError(f"{path}: header density {g}: {err}") from None
        columns, problem = read_columns(fh, lambda first: (_CONTINUOUS_FIELDS, None))

    def build() -> ContinuousLoggedDataset:
        ids, actions, losses, index = columns
        return ContinuousLoggedDataset(ids, actions, losses, tuple(densities), index, num_contexts)

    return judged(path, build if columns else None, problem)
