"""Cost-sensitive classification oracles and the reduction of the penalized objective.

The penalized objective ipw_risk + beta * pseudo_loss over any policy class
equals the average policy-weighted cost of a single modified cost matrix, so
training is exactly one oracle call. Oracles minimize costs (losses, not
rewards) and break ties toward the lowest index: lowest member index for the
enumeration oracle, lowest action index for the pointwise argmin. The
regression oracle is approximate by nature and is excluded from the exact
equivalence guarantees; it exists to exercise feature-mode scale.

Oracles are pure functions of immutable inputs, so one oracle serves every
beta of a sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol

import numpy as np

from .estimators import penalized_objective
from .model import (
    LinearCostPolicy,
    DeterministicPolicy,
    LoggedDataset,
    MassPolicy,
    PolicyClass,
    _logged_cells,
    check_index_range,
    context_sums,
)


@dataclass(frozen=True, eq=False)
class CostMatrix:
    """An (n, num_actions) cost table aligned with the rows it was built from.

    Carries the row contexts (`context_ids` or `context_features`, and the
    finite-context table size, inferred as max id + 1 when not given), so
    MassPolicy.pmf_rows evaluates policies against it directly.
    """

    costs: np.ndarray
    context_ids: np.ndarray | None = None
    context_features: np.ndarray | None = None
    num_contexts: int | None = None

    def __post_init__(self):
        costs = np.asarray(self.costs, dtype=float)
        if costs.ndim != 2:
            raise ValueError("cost matrix must be 2-dimensional")
        if not np.all(np.isfinite(costs)):
            raise ValueError("cost matrix entries must be finite")
        object.__setattr__(self, "costs", costs)
        if self.context_ids is not None:
            ids = np.asarray(self.context_ids)
            if len(ids) != len(costs):
                raise ValueError("cost matrix needs one context id per row")
            if self.num_contexts is None:
                object.__setattr__(self, "num_contexts", int(ids.max()) + 1)
            check_index_range("context id", ids, self.num_contexts)

    @property
    def n(self) -> int:
        return self.costs.shape[0]

    @property
    def num_actions(self) -> int:
        return self.costs.shape[1]


class CscOracle(Protocol):
    """Returns an in-class policy minimizing (1/n) sum_i sum_a pi(a|x_i) * costs[i][a]."""

    def solve(self, costs: CostMatrix, policy_class: PolicyClass | None = None) -> MassPolicy: ...


def build_modified_costs(dataset: LoggedDataset, beta: float) -> CostMatrix:
    """Cost row for record i: loss_i/mu(a_i|x_i) at the logged action, plus beta/mu(a|x_i) everywhere.

    The policy-weighted average of these costs equals the penalized objective
    exactly, for every policy.
    """
    if beta < 0:
        raise ValueError("beta must be nonnegative")
    costs = beta / dataset.propensities
    cells = _logged_cells(dataset)
    costs.reshape(-1)[cells] += dataset.losses / dataset.propensities.take(cells)
    return CostMatrix(
        costs=costs,
        context_ids=dataset.context_ids,
        context_features=dataset.context_features,
        num_contexts=dataset.num_contexts,
    )


def average_cost(policy: MassPolicy, costs: CostMatrix) -> float:
    """The CSC objective (1/n) sum_i sum_a pi(a|x_i) * costs[i][a]."""
    rows = policy.pmf_rows(costs)
    return float(np.mean((rows * costs.costs).sum(axis=1)))


class EnumerationOracle:
    """Exact argmin over the members of a finite class, lowest index on ties.

    PolicyClass.argmin scores every member at once, or solves all deterministic
    maps per context; the common 1/n factor cannot change the argmin.
    """

    def solve(self, costs: CostMatrix, policy_class: PolicyClass | None = None) -> MassPolicy:
        if policy_class is None:
            raise ValueError("enumeration oracle needs a policy class")
        return policy_class.argmin(costs.costs, costs)


class PointwiseArgminOracle:
    """CSC over all deterministic maps: per context, the action of minimum summed cost.

    Contexts never seen in the cost rows default to action 0 (the tie rule's
    lowest index). The ignored `policy_class` argument keeps the oracle
    signature uniform.
    """

    def __init__(self, num_contexts: int | None = None):
        self.num_contexts = num_contexts

    def solve(self, costs: CostMatrix, policy_class: PolicyClass | None = None) -> DeterministicPolicy:
        if costs.context_ids is None:
            raise ValueError("pointwise argmin needs finite-context cost rows")
        num_contexts = self.num_contexts or costs.num_contexts
        summed = context_sums(costs.costs, costs.context_ids, num_contexts)
        assignment = tuple(int(a) for a in np.argmin(summed, axis=1))
        return DeterministicPolicy(assignment=assignment, num_actions=costs.num_actions)


class RidgeRegressionOracle:
    """CSC via per-action ridge-regressed cost predictors, then pointwise argmin.

    Fits costs[:, a] ~ features with an unpenalized intercept. As ridge grows
    the predictors collapse to the per-action mean costs. Approximate: no
    exact-equivalence guarantee.
    """

    def __init__(self, ridge: float = 1e-6):
        if ridge < 0:
            raise ValueError("ridge must be nonnegative")
        self.ridge = ridge

    def solve(self, costs: CostMatrix, policy_class: PolicyClass | None = None) -> LinearCostPolicy:
        if costs.context_features is None:
            raise ValueError("regression oracle needs feature-mode cost rows")
        x = costs.context_features
        n, dim = x.shape
        design = np.hstack([x, np.ones((n, 1))])
        gram = design.T @ design
        penalty = np.eye(dim + 1) * self.ridge
        penalty[dim, dim] = 0.0  # intercept unpenalized
        try:
            coef = np.linalg.solve(gram + penalty, design.T @ costs.costs)
        except np.linalg.LinAlgError as err:
            raise ValueError("singular design; increase the ridge strength") from err
        return LinearCostPolicy(weights=coef[:dim], intercepts=coef[dim])


def train_ipw_pl(
    dataset: LoggedDataset,
    beta: float,
    oracle: CscOracle,
    policy_class: PolicyClass | None = None,
) -> tuple[MassPolicy, float]:
    """Minimize ipw_risk + beta * pseudo_loss with exactly one oracle call.

    Returns the oracle's policy and its penalized objective recomputed from
    the dataset (not from the cost matrix).
    """
    costs = build_modified_costs(dataset, beta)
    policy = oracle.solve(costs, policy_class)
    return policy, penalized_objective(policy, dataset, beta)


# brute_force_argmin scores at most this many (member, record, action) cells
# per block, which bounds its memory: 2**13 cells (64 KiB per float array)
# hold one member of 2 000 records x 4 actions, or 341 of 8 records x 3
# actions. On 4 096 such members, blocks of 4 raised the peak resident size
# by 0.6 MB and saved no time: the per-row reductions dominate.
_BLOCK_CELLS = 1 << 13


def brute_force_argmin(
    dataset: LoggedDataset,
    beta: float,
    policy_class: PolicyClass,
) -> tuple[MassPolicy, float]:
    """Reference minimizer: evaluate the penalized objective on every member.

    Each value is mean(ipw_terms) + beta * mean(pl_terms), averaged over the
    records, so it shares no summation with the oracles or with the estimators'
    per-context sums (see _member_values). Shares the lowest-index tie rule
    with the enumeration oracle.
    """
    if beta < 0:
        raise ValueError("beta must be nonnegative")
    best, best_value = None, np.inf
    for i, value in enumerate(_member_values(dataset, beta, policy_class)):
        if value < best_value:
            best, best_value = i, value
    return (None if best is None else policy_class.members[best]), best_value


def _member_values(dataset: LoggedDataset, beta: float, policy_class: PolicyClass) -> list[float]:
    """mean(ipw_terms) + beta * mean(pl_terms) of every member, bitwise the per-member values.

    Members are scored in blocks of at most _BLOCK_CELLS cells, gathered from
    the stacked member tables (finite contexts) or stacked from their pmf_rows
    (feature contexts), with the per-record expressions of ipw_terms and
    pl_terms; each mean is taken over one member's own row.
    """
    cells, n = _logged_cells(dataset), dataset.n
    logged = dataset.propensities.take(cells)
    finite = dataset.context_ids is not None
    tables = policy_class.tables(dataset.num_contexts, dataset.num_actions) if finite else None
    step = max(1, _BLOCK_CELLS // dataset.propensities.size)
    values = []
    for lo in range(0, policy_class.size, step):
        if finite:
            rows = tables[lo : lo + step][:, dataset.context_ids]
        else:
            rows = np.stack([m.pmf_rows(dataset) for m in policy_class.members[lo : lo + step]])
        ipw = rows.reshape(len(rows), -1).take(cells, axis=1) / logged * dataset.losses
        pl = (rows / dataset.propensities).sum(axis=2)
        # np.mean of a 1-D row is add.reduce(row) / n; a mean along axis 1 of
        # the block sums in another order and differs in the last bits.
        ipw_means = np.array([np.add.reduce(row) for row in ipw]) / n
        pl_means = np.array([np.add.reduce(row) for row in pl]) / n
        values += (ipw_means + beta * pl_means).tolist()
    return values
