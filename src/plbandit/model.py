"""Core domain types for offline contextual-bandit policy optimization.

Logged datasets store the *full* logging pmf for every record, not only the
propensity of the logged action: the pseudo-loss regularizer needs
``mu(a | x_i)`` for every action, and self-contained records avoid carrying a
live logging-policy object around at estimation time.

Two context modes are supported. In finite-context mode a context is an
integer index into an environment table, which is what the brute-force
verification machinery needs. Feature mode (real-valued vectors) exists to
feed the regression-based cost-sensitive oracle.

All types are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import itertools
import json
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

# Propensities below this are treated as zero (support violation); guards the
# 1/mu terms in every estimator.
PROPENSITY_FLOOR = 1e-12

# Tolerance for "sums to one" checks on pmfs and distributions.
PMF_ATOL = 1e-9


class SupportError(ValueError):
    """A propensity or density required by an importance weight is (near) zero."""


class DatasetError(ValueError):
    """A logged dataset is malformed: misaligned arrays or an index out of range."""


def check_index_range(name: str, values: np.ndarray, upper: int) -> None:
    """Reject any entry of `values` outside [0, upper), naming the first offending record.

    Numpy would otherwise wrap a negative index into another row silently.
    """
    bad = np.flatnonzero((values < 0) | (values >= upper))
    if bad.size:
        i = int(bad[0])
        raise DatasetError(f"{name} {int(values[i])} out of range [0, {upper}) at record {i}")


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.array(a)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class Context:
    """A context, either an integer id (finite mode) or a feature vector."""

    id: int | None = None
    features: np.ndarray | None = None

    def __post_init__(self):
        if (self.id is None) == (self.features is None):
            raise ValueError("context needs exactly one of id / features")
        if self.id is not None and self.id < 0:
            raise ValueError("context id must be nonnegative")
        if self.features is not None:
            object.__setattr__(self, "features", _frozen(np.asarray(self.features, dtype=float)))


@dataclass(frozen=True)
class DiscreteActionSpace:
    count: int

    def __post_init__(self):
        if self.count < 2:
            raise ValueError("action space needs at least 2 actions")


class MassPolicy(ABC):
    """A policy producing a probability mass function over actions per context.

    A finite-context policy is its (X, A) table: `pmf` and `pmf_rows` index
    `pmf_table`, and enumerated classes stack the tables of their members.
    """

    @abstractmethod
    def pmf_table(self, num_contexts: int) -> np.ndarray:
        """Pmf at every context id in [0, num_contexts), as a (num_contexts, num_actions) array."""

    def pmf(self, context: Context) -> np.ndarray:
        """Probability vector over actions for one context."""
        if context.id is None:
            raise ValueError(f"{type(self).__name__} needs finite contexts")
        return self.pmf_table(context.id + 1)[context.id]

    def pmf_rows(self, rows) -> np.ndarray:
        """Pmf at every row's context, as an (n, num_actions) array.

        `rows` is a LoggedDataset or a CostMatrix: anything carrying
        `context_ids` (with `num_contexts`) or `context_features` per row.
        """
        if rows.context_ids is None:
            raise ValueError(f"{type(self).__name__} needs finite contexts")
        return self.pmf_table(rows.num_contexts)[rows.context_ids]


def _leading_rows(table: np.ndarray, num_contexts: int) -> np.ndarray:
    if table.shape[0] < num_contexts:
        raise ValueError(f"policy covers {table.shape[0]} contexts, {num_contexts} needed")
    return table[:num_contexts]


def _check_pmf(p: np.ndarray) -> np.ndarray:
    p = np.asarray(p, dtype=float)
    if p.ndim != 2:
        raise ValueError("pmf table must be 2-dimensional")
    if np.any(p < 0) or not np.all(np.isfinite(p)):
        raise ValueError("pmf entries must be finite and nonnegative")
    if np.any(np.abs(p.sum(axis=1) - 1.0) > PMF_ATOL):
        raise ValueError("pmf rows must sum to 1 within 1e-9")
    return p


@dataclass(frozen=True, eq=False)
class TabularPolicy(MassPolicy):
    """Mass policy for finite contexts: row x of `table` is the pmf at context x."""

    table: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "table", _frozen(_check_pmf(self.table)))

    @property
    def num_actions(self) -> int:
        return self.table.shape[1]

    def pmf_table(self, num_contexts: int) -> np.ndarray:
        return _leading_rows(self.table, num_contexts)


@dataclass(frozen=True)
class UniformPolicy(MassPolicy):
    """The same uniform pmf at every context, finite or feature."""

    num_actions: int

    def pmf_table(self, num_contexts: int) -> np.ndarray:
        return np.full((num_contexts, self.num_actions), 1.0 / self.num_actions)

    def pmf(self, context: Context) -> np.ndarray:
        return np.full(self.num_actions, 1.0 / self.num_actions)

    def pmf_rows(self, rows) -> np.ndarray:
        return np.full((rows.n, self.num_actions), 1.0 / self.num_actions)


@dataclass(frozen=True)
class DeterministicPolicy(MassPolicy):
    """One action per context id; the pmf is the indicator of `assignment`.

    The pmf supremum of any such policy is 1 and the infimum is 0.
    """

    assignment: tuple[int, ...]
    num_actions: int

    def __post_init__(self):
        if any(a < 0 or a >= self.num_actions for a in self.assignment):
            raise ValueError("assignment actions out of range")
        object.__setattr__(self, "assignment", tuple(int(a) for a in self.assignment))

    def pmf_table(self, num_contexts: int) -> np.ndarray:
        return np.eye(self.num_actions)[_leading_rows(np.asarray(self.assignment), num_contexts)]


@dataclass(frozen=True, eq=False)
class LinearCostPolicy(MassPolicy):
    """Deterministic feature-mode policy: argmin over fitted per-action cost scores."""

    weights: np.ndarray  # (dim, num_actions)
    intercepts: np.ndarray  # (num_actions,)

    def __post_init__(self):
        object.__setattr__(self, "weights", _frozen(np.asarray(self.weights, dtype=float)))
        object.__setattr__(self, "intercepts", _frozen(np.asarray(self.intercepts, dtype=float)))

    @property
    def num_actions(self) -> int:
        return self.weights.shape[1]

    def scores(self, features: np.ndarray) -> np.ndarray:
        return np.atleast_2d(features) @ self.weights + self.intercepts

    def action(self, context: Context) -> int:
        if context.features is None:
            raise ValueError("linear cost policy needs feature contexts")
        return int(np.argmin(self.scores(context.features)[0]))

    def pmf_table(self, num_contexts: int) -> np.ndarray:
        raise ValueError("linear cost policy needs feature contexts")

    def pmf(self, context: Context) -> np.ndarray:
        row = np.zeros(self.num_actions)
        row[self.action(context)] = 1.0
        return row

    def pmf_rows(self, rows) -> np.ndarray:
        if rows.context_features is None:
            raise ValueError("linear cost policy needs feature contexts")
        chosen = np.argmin(self.scores(rows.context_features), axis=1)
        return np.eye(self.num_actions)[chosen]


def context_sums(values: np.ndarray, context_ids: np.ndarray, num_contexts: int) -> np.ndarray:
    """Rows of an (n, A) array summed per context id, as a (num_contexts, A) array."""
    summed = np.zeros((num_contexts, values.shape[1]))
    np.add.at(summed, context_ids, values)
    return summed


@dataclass(frozen=True)
class PolicyClass:
    """A finite policy class: explicit members, or a bare size surrogate.

    `size` enters every bound through ln(4|class|/alpha); enumeration mode is
    required by the oracles and the brute-force reference minimizer.
    """

    members: tuple[MassPolicy, ...] | None
    size: int
    # Stacked member pmf tables, (size, X, A): built on first use, kept for the
    # life of the class, and sliced for any smaller X. 8*size*X*A bytes.
    # Threads racing on the first use may each build it; every copy is equal.
    _tables: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.size < 1:
            raise ValueError("policy class size must be >= 1")
        if self.members is not None and len(self.members) != self.size:
            raise ValueError("size must equal member count in enumeration mode")

    @classmethod
    def from_members(cls, members: Sequence[MassPolicy]) -> "PolicyClass":
        members = tuple(members)
        return cls(members=members, size=len(members))

    @classmethod
    def with_size(cls, size: int) -> "PolicyClass":
        return cls(members=None, size=size)

    @property
    def is_enumerated(self) -> bool:
        return self.members is not None

    def tables(self, num_contexts: int) -> np.ndarray:
        """Every member's pmf_table(num_contexts), stacked as a read-only (size, X, A) array."""
        if not self.is_enumerated:
            raise ValueError("member tables need an enumerated class")
        cached = self._tables
        if cached is None or cached.shape[1] < num_contexts:
            cached = np.stack([m.pmf_table(num_contexts) for m in self.members])
            cached.setflags(write=False)
            object.__setattr__(self, "_tables", cached)
        return cached[:, :num_contexts]

    def member_sums(self, weights: np.ndarray, rows) -> np.ndarray:
        """sum_i sum_a pi(a|x_i) * weights[i, a] for every member pi, as a (size,) array.

        `rows` carries the row contexts (a LoggedDataset or CostMatrix). The
        sum is linear in pi, so for finite contexts it is one contraction of
        the stacked tables against `weights` summed per context:
        O(n*A + size*X*A). Feature-mode rows evaluate pmf_rows per member.
        """
        if rows.context_ids is None:
            return np.array([float((m.pmf_rows(rows) * weights).sum()) for m in self.members])
        summed = context_sums(weights, rows.context_ids, rows.num_contexts)
        # einsum, not BLAS: every member's sum runs in the same order, so
        # identical tables give bitwise-identical values and ties stay exact.
        return np.einsum("cxa,xa->c", self.tables(rows.num_contexts), summed)


def deterministic_class(num_contexts: int, num_actions: int) -> PolicyClass:
    """All num_actions**num_contexts deterministic policies.

    Member order is lexicographic in the assignment tuple with context 0 most
    significant, so the lowest-index tie rule of the enumeration oracle agrees
    with per-context lowest-action tie-breaking.
    """
    members = tuple(
        DeterministicPolicy(assignment=assign, num_actions=num_actions)
        for assign in itertools.product(range(num_actions), repeat=num_contexts)
    )
    # Member i's assignment is i written in base num_actions, context 0 the
    # most significant digit: the order itertools.product yields.
    place = num_actions ** np.arange(num_contexts - 1, -1, -1)
    assignments = np.arange(len(members))[:, None] // place % num_actions
    tables = np.eye(num_actions)[assignments]
    tables.setflags(write=False)
    return PolicyClass(members=members, size=len(members), _tables=tables)


@dataclass(frozen=True)
class ClassStats:
    """Scalar statistics of a policy class against a logging policy.

    pmf_sup        largest pmf value any member assigns to any action,
    mu_pmf_inf     smallest logging propensity,
    weight_ratio_sup  largest member-to-logging probability ratio,
    mismatch       max(sqrt(pmf_sup / mu_pmf_inf), weight_ratio_sup),
    class_size     number of policies the union bound runs over.

    `mismatch` is always recomputed from the other fields. Densities are
    allowed (pmf_sup may exceed 1), which is how the smoothed continuous-action
    class reuses the discrete bounds.
    """

    pmf_sup: float
    mu_pmf_inf: float
    weight_ratio_sup: float
    class_size: int
    mismatch: float = field(init=False)

    def __post_init__(self):
        if not (self.pmf_sup > 0 and np.isfinite(self.pmf_sup)):
            raise ValueError("pmf_sup must be positive and finite")
        if not (self.mu_pmf_inf > 0 and np.isfinite(self.mu_pmf_inf)):
            raise ValueError("mu_pmf_inf must be positive and finite")
        if not (self.weight_ratio_sup > 0 and np.isfinite(self.weight_ratio_sup)):
            raise ValueError("weight_ratio_sup must be positive and finite")
        if self.class_size < 1:
            raise ValueError("class_size must be >= 1")
        object.__setattr__(
            self,
            "mismatch",
            max(float(np.sqrt(self.pmf_sup / self.mu_pmf_inf)), float(self.weight_ratio_sup)),
        )


@dataclass(frozen=True)
class LoggedRecord:
    """One logged interaction: context, chosen action, loss in [0,1], full logging pmf."""

    context: Context
    action: int
    loss: float
    logging_pmf: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "logging_pmf", _frozen(np.asarray(self.logging_pmf, dtype=float)))


@dataclass(frozen=True, eq=False)
class LoggedDataset:
    """Batch of logged records in array form.

    Exactly one of `context_ids` / `context_features` is set. `num_contexts`
    is the finite-context table size when known (generators set it; loaders
    infer max id + 1).
    """

    actions: np.ndarray
    losses: np.ndarray
    propensities: np.ndarray
    context_ids: np.ndarray | None = None
    context_features: np.ndarray | None = None
    num_contexts: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "actions", _frozen(np.asarray(self.actions, dtype=np.int64)))
        object.__setattr__(self, "losses", _frozen(np.asarray(self.losses, dtype=float)))
        object.__setattr__(self, "propensities", _frozen(np.asarray(self.propensities, dtype=float)))
        if (self.context_ids is None) == (self.context_features is None):
            raise DatasetError("dataset needs exactly one of context_ids / context_features")
        if self.context_ids is not None:
            object.__setattr__(self, "context_ids", _frozen(np.asarray(self.context_ids, dtype=np.int64)))
        else:
            object.__setattr__(
                self, "context_features", _frozen(np.asarray(self.context_features, dtype=float))
            )
        n = len(self.actions)
        if n < 1:
            raise DatasetError("dataset must contain at least one record")
        contexts = self.context_ids if self.context_ids is not None else self.context_features
        if self.propensities.ndim != 2 or {len(self.propensities), len(self.losses), len(contexts)} != {n}:
            raise DatasetError("dataset arrays are not aligned")
        check_index_range("action", self.actions, self.num_actions)
        if self.context_ids is not None:
            if self.num_contexts is None:
                object.__setattr__(self, "num_contexts", int(self.context_ids.max()) + 1)
            check_index_range("context id", self.context_ids, self.num_contexts)

    @property
    def n(self) -> int:
        return len(self.actions)

    @property
    def num_actions(self) -> int:
        return self.propensities.shape[1]

    @property
    def action_space(self) -> DiscreteActionSpace:
        return DiscreteActionSpace(self.num_actions)

    def context(self, i: int) -> Context:
        if self.context_ids is not None:
            return Context(id=int(self.context_ids[i]))
        return Context(features=self.context_features[i])

    def record(self, i: int) -> LoggedRecord:
        return LoggedRecord(
            context=self.context(i),
            action=int(self.actions[i]),
            loss=float(self.losses[i]),
            logging_pmf=self.propensities[i],
        )

    @property
    def records(self) -> tuple[LoggedRecord, ...]:
        return tuple(self.record(i) for i in range(self.n))

    @classmethod
    def from_records(cls, records: Sequence[LoggedRecord], num_contexts: int | None = None) -> "LoggedDataset":
        records = list(records)
        if not records:
            raise ValueError("dataset must contain at least one record")
        finite = records[0].context.id is not None
        if any((r.context.id is not None) != finite for r in records):
            raise ValueError("records mix finite and feature contexts")
        kwargs = dict(
            actions=np.array([r.action for r in records]),
            losses=np.array([r.loss for r in records]),
            propensities=np.stack([r.logging_pmf for r in records]),
            num_contexts=num_contexts,
        )
        if finite:
            kwargs["context_ids"] = np.array([r.context.id for r in records])
        else:
            kwargs["context_features"] = np.stack([r.context.features for r in records])
        return cls(**kwargs)


def validate_dataset(dataset: LoggedDataset) -> list[str]:
    """Check every record invariant; return a report of violations (empty = valid).

    Propensities below 1e-12 count as zero, guarding the 1/mu terms downstream.
    """
    report: list[str] = []
    p = dataset.propensities
    for i in range(dataset.n):
        loss = dataset.losses[i]
        if not np.isfinite(loss):
            report.append(f"non-finite loss at record {i}")
        elif loss < 0.0 or loss > 1.0:
            report.append(f"loss out of [0,1] at record {i}")
        row = p[i]
        if not np.all(np.isfinite(row)):
            report.append(f"non-finite propensity at record {i}")
            continue
        if abs(row.sum() - 1.0) > PMF_ATOL:
            report.append(f"propensities do not sum to 1 at record {i}")
        if np.any(row <= PROPENSITY_FLOOR):
            report.append(f"zero propensity at record {i}")
        if row[dataset.actions[i]] <= PROPENSITY_FLOOR:
            report.append(f"logged action has zero propensity at record {i}")
    return report


def _context_ids(contexts: Sequence[Context]) -> np.ndarray:
    ids = [c.id for c in contexts]
    if not ids:
        raise ValueError("need at least one context")
    if any(x is None for x in ids):
        raise ValueError("policy tables need finite contexts")
    return np.asarray(ids, dtype=np.int64)


def pmf_extrema(policy: MassPolicy, contexts: Sequence[Context]) -> tuple[float, float]:
    """(sup, inf) of the policy pmf over the given contexts and all actions."""
    ids = _context_ids(contexts)
    rows = policy.pmf_table(int(ids.max()) + 1)[ids]
    return float(rows.max()), float(rows.min())


def class_stats(
    policy_class: PolicyClass,
    logging_policy: MassPolicy,
    contexts: Sequence[Context],
) -> ClassStats:
    """Compute ClassStats for an enumerated class over the given contexts.

    Extrema are the empirical extrema over the supplied contexts; construct
    ClassStats directly to supply analytic values instead.
    """
    if not policy_class.is_enumerated:
        raise ValueError("class_stats needs an enumerated class; build ClassStats directly otherwise")
    ids = _context_ids(contexts)
    num_contexts = int(ids.max()) + 1
    mu_rows = logging_policy.pmf_table(num_contexts)[ids]
    if np.any(mu_rows <= PROPENSITY_FLOOR):
        raise SupportError("logging policy has a zero propensity on the given contexts")
    # Largest member pmf per (context, action). Dividing by mu > 0 is monotone,
    # so the largest ratio is this maximum over mu.
    top = policy_class.tables(num_contexts).max(axis=0)[ids]
    return ClassStats(
        pmf_sup=float(top.max()),
        mu_pmf_inf=float(mu_rows.min()),
        weight_ratio_sup=float((top / mu_rows).max()),
        class_size=policy_class.size,
    )


# ---------------------------------------------------------------------------
# Dataset files: JSON Lines with a one-line header declaring the action count.


def _context_json(dataset: LoggedDataset, i: int) -> dict:
    if dataset.context_ids is not None:
        return {"id": int(dataset.context_ids[i])}
    return {"features": [float(v) for v in dataset.context_features[i]]}


def save_dataset_jsonl(dataset: LoggedDataset, path: str | Path, metadata: dict | None = None) -> None:
    """Write `{"header": {"num_actions": ...}}` then one record object per line."""
    header = {"num_actions": dataset.num_actions}
    if dataset.num_contexts is not None:
        header["num_contexts"] = dataset.num_contexts
    if metadata:
        header.update(metadata)
    with open(path, "w") as fh:
        fh.write(json.dumps({"header": header}, sort_keys=True) + "\n")
        for i in range(dataset.n):
            rec = {
                "context": _context_json(dataset, i),
                "action": int(dataset.actions[i]),
                "loss": float(dataset.losses[i]),
                "propensities": [float(v) for v in dataset.propensities[i]],
            }
            fh.write(json.dumps(rec, sort_keys=True) + "\n")


def load_dataset_jsonl(path: str | Path) -> LoggedDataset:
    with open(path) as fh:
        lines = [json.loads(line) for line in fh if line.strip()]
    if not lines or "header" not in lines[0]:
        raise DatasetError(f"{path}: missing header line")
    header = lines[0]["header"]
    num_actions = int(header["num_actions"])
    actions, losses, propensities = [], [], []
    ids: list[int] = []
    features: list[list[float]] = []
    for row in lines[1:]:
        ctx = row["context"]
        if "id" in ctx:
            ids.append(int(ctx["id"]))
        else:
            features.append([float(v) for v in ctx["features"]])
        actions.append(int(row["action"]))
        losses.append(float(row["loss"]))
        pmf = [float(v) for v in row["propensities"]]
        if len(pmf) != num_actions:
            raise DatasetError(f"{path}: propensity vector does not match header action count")
        propensities.append(pmf)
    if ids and features:
        raise DatasetError(f"{path}: records mix finite and feature contexts")
    try:
        return LoggedDataset(
            actions=np.array(actions),
            losses=np.array(losses),
            propensities=np.array(propensities),
            context_ids=np.array(ids) if ids else None,
            context_features=np.array(features) if features else None,
            num_contexts=int(header["num_contexts"]) if "num_contexts" in header else None,
        )
    except DatasetError as err:
        raise DatasetError(f"{path}: {err}") from err
