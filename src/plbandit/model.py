"""Core domain types for offline contextual-bandit policy optimization.

Logged datasets store the *full* logging pmf for every record, not only the
propensity of the logged action: the pseudo-loss regularizer needs
``mu(a | x_i)`` for every action, and self-contained records avoid carrying a
live logging-policy object around at estimation time.

Two context modes are supported. In finite-context mode a context is an
integer index into an environment table, which is what the brute-force
verification machinery needs. Feature mode (real-valued vectors) exists to
feed the regression-based cost-sensitive oracle.

Policies and datasets are not changed after construction. Some values are
built on first use and then kept: a deterministic policy's one-hot table, an
explicit class's stacked member tables, an `all-det` class's members, a
dataset's per-context sums. plbandit runs no threads, and those writes take
no lock.
"""

from __future__ import annotations

import functools
import itertools
import json
import operator
import sys
from abc import ABC, abstractmethod
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

# A propensity at or below this counts as zero: LoggedDataset rejects its row,
# which guards the 1/mu terms in every estimator.
PROPENSITY_FLOOR = 1e-12

# Tolerance for "sums to one" checks on pmfs and distributions.
PMF_ATOL = 1e-9


class DatasetError(ValueError):
    """A logged dataset is malformed: an array of the wrong rank or length, or a record it may not hold."""


def is_integer(value) -> bool:
    """A Python or numpy integer; a bool is not one."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _out_of_range(name: str, value, upper: int) -> str:
    return f"{name} {int(value)} out of range [0, {upper})"


def check_index_range(name: str, values: np.ndarray, upper: int) -> None:
    """Reject any entry of `values` outside [0, upper), naming the first offending record.

    Numpy would otherwise wrap a negative index into another row silently.
    """
    bad = (values < 0) | (values >= upper)
    if bad.any():
        i = int(bad.argmax())
        raise DatasetError(f"{_out_of_range(name, values[i], upper)} at record {i}")


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.array(a)
    a.setflags(write=False)
    return a


def check_num_actions(policy_actions: int, num_actions: int) -> None:
    """The rule wherever a policy's pmfs meet rows, an environment or a cost table of num_actions
    actions: ValueError naming both counts, where numpy would broadcast a one-action table silently."""
    if policy_actions != num_actions:
        raise ValueError(f"policy has {policy_actions} actions, {num_actions} needed")


class MassPolicy(ABC):
    """A policy producing a probability mass function over actions per context.

    A finite-context policy is its (X, A) table: `pmf_rows` and every
    estimator read `checked_table`, and policy classes stack the tables of
    their members.
    """

    @abstractmethod
    def pmf_table(self, num_contexts: int) -> np.ndarray:
        """Pmf at every context id in [0, num_contexts), as a (num_contexts, num_actions) array."""

    def checked_table(self, num_contexts: int, num_actions: int) -> np.ndarray:
        """pmf_table(num_contexts), read against data or an environment of num_actions actions (check_num_actions)."""
        table = self.pmf_table(num_contexts)
        check_num_actions(table.shape[1], num_actions)
        return table

    def pmf_rows(self, rows) -> np.ndarray:
        """Pmf at every row's context, as an (n, num_actions) array.

        `rows` is a LoggedDataset or a CostMatrix: anything carrying
        `num_actions` and `context_ids` (with `num_contexts`) or
        `context_features` per row.
        """
        if rows.context_ids is None:
            raise ValueError(f"{type(self).__name__} needs finite contexts")
        return self.checked_table(rows.num_contexts, rows.num_actions)[rows.context_ids]


def _leading_rows(table: np.ndarray, num_contexts: int) -> np.ndarray:
    if table.shape[0] < num_contexts:
        raise ValueError(f"policy covers {table.shape[0]} contexts, {num_contexts} needed")
    return table[:num_contexts]


def _check_pmf(p: np.ndarray) -> np.ndarray:
    p = np.asarray(p, dtype=float)
    if p.ndim != 2:
        raise ValueError("pmf table must be 2-dimensional")
    # One pass decides: min propagates NaN, and an infinite entry makes its row
    # sum infinite. Which message applies is sorted out only on failure.
    if not (p.min(initial=0.0) >= 0.0 and abs(p.sum(axis=1) - 1.0).max(initial=0.0) <= PMF_ATOL):
        if not (p.min(initial=0.0) >= 0.0 and p.max(initial=0.0) < np.inf):
            raise ValueError("pmf entries must be finite and nonnegative")
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
class DeterministicPolicy(MassPolicy):
    """One action per context id; the pmf is the indicator of `assignment`.

    Each action, and num_actions (>= 1), must be an integer (is_integer: a
    numpy integer too, a bool not), each action in [0, num_actions); both are
    kept as ints. The pmf supremum of any such policy is 1 and the infimum is 0.
    """

    assignment: tuple[int, ...]
    num_actions: int

    def __post_init__(self):
        k = self.num_actions
        if not is_integer(k) or k < 1:
            raise ValueError(f"num_actions must be an integer >= 1, not {k!r}")
        # One pass keeps each action that is an integer in range; an entry it drops is named after.
        assignment = tuple(int(a) for a in self.assignment if is_integer(a) and 0 <= a < k)
        if len(assignment) < len(self.assignment):
            bad = next(a for a in self.assignment if not (is_integer(a) and 0 <= a < k))
            problem = "actions out of range" if is_integer(bad) else f"action {bad!r} is not an integer"
            raise ValueError(f"assignment {problem}")
        object.__setattr__(self, "assignment", assignment)
        object.__setattr__(self, "num_actions", int(k))

    @cached_property
    def table(self) -> np.ndarray:
        """The one-hot (len(assignment), num_actions) pmf table, built once, read-only."""
        table = np.eye(self.num_actions)[np.asarray(self.assignment, dtype=np.intp)]
        table.setflags(write=False)
        return table

    def pmf_table(self, num_contexts: int) -> np.ndarray:
        return _leading_rows(self.table, num_contexts)


@dataclass(frozen=True, eq=False)
class LinearCostPolicy(MassPolicy):
    """Deterministic feature-mode policy: argmin over fitted per-action cost scores."""

    weights: np.ndarray  # (dim, num_actions)
    intercepts: np.ndarray  # (num_actions,)

    def __post_init__(self):
        weights = np.asarray(self.weights, dtype=float)
        intercepts = np.asarray(self.intercepts, dtype=float)
        if weights.ndim != 2 or intercepts.shape != weights.shape[1:]:
            raise ValueError(
                "linear policy needs 2-D weights and one intercept per column, "
                f"not weights of shape {weights.shape} and intercepts of shape {intercepts.shape}"
            )
        object.__setattr__(self, "weights", _frozen(weights))
        object.__setattr__(self, "intercepts", _frozen(intercepts))

    @property
    def num_actions(self) -> int:
        return self.weights.shape[1]

    def scores(self, features: np.ndarray) -> np.ndarray:
        return np.atleast_2d(features) @ self.weights + self.intercepts

    def pmf_table(self, num_contexts: int) -> np.ndarray:
        raise ValueError("linear cost policy needs feature contexts")

    def pmf_rows(self, rows) -> np.ndarray:
        if rows.context_features is None:
            raise ValueError("linear cost policy needs feature contexts")
        check_num_actions(self.num_actions, rows.num_actions)
        if rows.context_features.shape[1] != len(self.weights):
            raise ValueError(f"policy weights have {len(self.weights)} rows for {rows.context_features.shape[1]} features")
        chosen = np.argmin(self.scores(rows.context_features), axis=1)
        return np.eye(self.num_actions)[chosen]


def context_sums(values: np.ndarray, context_ids: np.ndarray, num_contexts: int) -> np.ndarray:
    """Rows of an (n, A) array summed per context id, as a (num_contexts, A) array.

    One np.bincount per action column: bincount adds each cell's values in
    record order, starting from 0.0, as np.add.at does, so sums of finite
    values are bitwise those of np.add.at. A column at a time, because numpy
    reduces and scatters row by row over a 3- or 4-wide inner axis.
    """
    ids = np.asarray(context_ids)
    summed = np.empty((num_contexts, values.shape[1]))
    for a in range(values.shape[1]):
        summed[:, a] = np.bincount(ids, weights=values[:, a], minlength=num_contexts)
    return summed


# PolicyClass.member_sums stacks at most this many (member, context, action)
# table cells at a time: 2**13 cells (64 KiB) hold 256 members of 8 contexts
# x 4 actions.
_BLOCK_CELLS = 1 << 13


@dataclass(frozen=True)
class PolicyClass:
    """A finite policy class given by its members.

    `members` is a tuple, or for `deterministic_class` a read-only sequence
    that builds each member on first access. `size`, the member count, enters
    every bound through ln(4|class|/alpha).
    """

    members: Sequence[MassPolicy]
    # (num_contexts, num_actions) -> the stacked member tables; see tables().
    _stacks: dict[tuple[int, int], np.ndarray] = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.members:
            raise ValueError("policy class needs at least one member")

    @classmethod
    def from_members(cls, members: Sequence[MassPolicy]) -> "PolicyClass":
        return cls(members=tuple(members))

    @property
    def size(self) -> int:
        return len(self.members)

    def tables(self, num_contexts: int, num_actions: int, lo: int = 0, hi: int | None = None) -> np.ndarray:
        """The checked_table(num_contexts, num_actions) of every member, or of
        members lo..hi-1, as a read-only (members, X, A) array.

        The first call for a (num_contexts, num_actions) stacks every
        member's table, and the class keeps that stack for as long as it
        lives: 8*size*X*A bytes per pair. Every later call, a range of
        members included, is a view of it and calls no pmf_table.
        """
        stack = self._stacks.get((num_contexts, num_actions))
        if stack is None:
            stack = np.stack([m.checked_table(num_contexts, num_actions) for m in self.members])
            stack.setflags(write=False)
            self._stacks[num_contexts, num_actions] = stack
        return stack[lo:hi]

    def pmf_max(self, num_contexts: int, num_actions: int) -> np.ndarray:
        """The largest pmf any member gives each (context, action), as an (X, A) array."""
        return self.tables(num_contexts, num_actions).max(axis=0)

    def member_sums(self, weights: np.ndarray, rows) -> np.ndarray:
        """sum_i sum_a pi(a|x_i) * weights[i, a] for every member pi, as a (size,) array.

        `rows` carries the row contexts (a LoggedDataset or CostMatrix). The
        sum is linear in pi, so for finite contexts it is one contraction of
        the stacked tables against `weights` summed per context:
        O(n*A + size*X*A). It contracts a block of members at a time, at
        most _BLOCK_CELLS cells: an explicit class slices each block from its
        kept stack, and an all-det class of A**X members builds each block
        in closed form, so it needs O(size) memory, not O(size*X*A).
        Feature-mode rows evaluate pmf_rows per member.
        """
        if rows.context_ids is None:
            return np.array([float((m.pmf_rows(rows) * weights).sum()) for m in self.members])
        summed = context_sums(weights, rows.context_ids, rows.num_contexts)
        step = max(1, _BLOCK_CELLS // summed.size)
        # einsum, not BLAS: every member's sum runs in the same order, whatever
        # its block, so identical tables give bitwise-identical values and ties
        # stay exact.
        return np.concatenate(
            [
                np.einsum("cxa,xa->c", self.tables(rows.num_contexts, weights.shape[1], lo, lo + step), summed)
                for lo in range(0, self.size, step)
            ]
        )

    def argmin(self, weights: np.ndarray, rows) -> MassPolicy:
        """The member of least member_sums, the lowest index on ties."""
        return self.members[int(np.argmin(self.member_sums(weights, rows)))]


class _DeterministicMembers(Sequence):
    """The num_actions**num_contexts deterministic policies as a read-only sequence.

    Member i's assignment is i written in base num_actions, context 0 the most
    significant digit: the order itertools.product yields. A member is built
    on first access and kept, so members[i] is members[i].
    """

    def __init__(self, num_contexts: int, num_actions: int):
        self.digits = (num_actions,) * num_contexts
        self.num_actions = num_actions
        self._decoded: dict[int, DeterministicPolicy] = {}

    def __len__(self) -> int:
        return self.num_actions ** len(self.digits)

    def __getitem__(self, index):
        i = range(len(self))[index]  # IndexError and TypeError as on a tuple
        if isinstance(i, range):
            return tuple(map(self.__getitem__, i))
        if i not in self._decoded:
            assignment = np.unravel_index(i, self.digits)
            self._decoded[i] = DeterministicPolicy(assignment=assignment, num_actions=self.num_actions)
        return self._decoded[i]


class _DeterministicClass(PolicyClass):
    """All deterministic maps: a member picks each context's action freely, so some
    member puts pmf 1 on every (context, action) and the minimizer is per context."""

    def tables(self, num_contexts: int, num_actions: int, lo: int = 0, hi: int | None = None) -> np.ndarray:
        """The stacked member tables in closed form, without decoding a member:
        row x of the unravelled member indices holds context x's action for
        every member of the range, in member order."""
        check_num_actions(self.members.num_actions, num_actions)
        members = range(self.size)[lo:hi]
        digits = self.members.digits
        actions = np.unravel_index(np.arange(members.start, members.stop), digits)
        assignments = _leading_rows(np.array(actions), num_contexts)
        return np.eye(num_actions)[assignments.T]

    def pmf_max(self, num_contexts: int, num_actions: int) -> np.ndarray:
        check_num_actions(self.members.num_actions, num_actions)
        return _leading_rows(np.ones((len(self.members.digits), num_actions)), num_contexts)

    def argmin(self, weights: np.ndarray, rows) -> MassPolicy:
        """The least-sum action at each context, the lowest on ties: the lowest-index minimizer."""
        if rows.context_ids is None:
            raise ValueError("all deterministic maps need finite contexts")
        check_num_actions(self.members.num_actions, weights.shape[1])
        digits = self.members.digits
        check_index_range("context id", rows.context_ids, len(digits))
        summed = context_sums(weights, rows.context_ids, len(digits))
        return self.members[np.ravel_multi_index(summed.argmin(axis=1), digits)]


def deterministic_class(num_contexts: int, num_actions: int) -> PolicyClass:
    """All num_actions**num_contexts deterministic policies.

    Member order is lexicographic in the assignment tuple with context 0 most
    significant, so the lowest member index among the minimizers takes the
    lowest least-cost action at every context. Members are decoded from their
    index on first access. A member index must fit a Py_ssize_t, so a class
    of more than sys.maxsize members raises ValueError.
    """
    size = num_actions**num_contexts
    if size > sys.maxsize:
        raise ValueError(f"all-det class would have {size} members, more than a member index can hold")
    return _DeterministicClass(members=_DeterministicMembers(num_contexts, num_actions))


@dataclass(frozen=True)
class ClassStats:
    """Scalar statistics of a policy class against a logging policy.

    pmf_sup        largest pmf value any member assigns to any action,
    mu_pmf_inf     smallest logging propensity,
    weight_ratio_sup  largest member-to-logging probability ratio,
    mismatch       max(sqrt(pmf_sup / mu_pmf_inf), weight_ratio_sup),
    class_size     number of policies the union bound runs over.

    `mismatch` is always recomputed from the other fields. Densities are
    allowed (pmf_sup may exceed 1): `continuous.smoothed_class_stats` is how
    the smoothed continuous-action class reaches the discrete bounds. The
    class size may be an int beyond the float range.
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


def first_fault(kinds: list) -> tuple[int, str] | None:
    """The first record flagged by `kinds`, (mask, text of record i) pairs in naming order, and its text."""
    masks = np.stack([mask for mask, _ in kinds], axis=1)
    i, kind = divmod(int(masks.argmax()), len(kinds))  # row-major: the first record, then its first kind
    return (i, kinds[kind][1](i)) if masks[i, kind] else None


def context_fault(contexts: np.ndarray, num_contexts: int | None) -> tuple:
    """A first_fault kind: a non-finite feature row, or an id below 0 or at or above num_contexts (if known)."""
    if contexts.ndim == 2:
        return ~np.isfinite(contexts).all(axis=1), lambda i: "non-finite context feature"
    if num_contexts is None:
        return contexts < 0, lambda i: f"context id {int(contexts[i])} is negative"
    return (contexts < 0) | (contexts >= num_contexts), lambda i: _out_of_range("context id", contexts[i], num_contexts)


def _record_fault(contexts, actions, losses, p, num_contexts) -> tuple[int, str] | None:
    """The first fault of a LoggedDataset's records (contexts: the id column or
    the feature rows), in order: a context_fault; an action outside [0, A); a
    loss not finite or not in [0, 1]; a propensity not finite, a row sum off 1
    by more than PMF_ATOL (p.sum(axis=1): pairwise on 8 or more entries), or
    one at or below PROPENSITY_FLOOR. min and max decide in one pass, as in
    _check_pmf; the masks run only on failure."""
    num_actions = p.shape[1]
    with np.errstate(over="ignore", invalid="ignore"):
        off_sum = np.abs(p.sum(axis=1) - 1.0)
    context = context_fault(contexts, num_contexts)
    if not context[0].any() and actions.min() >= 0 and actions.max() < num_actions:
        if losses.min() >= 0.0 and losses.max() <= 1.0 and p.min() > PROPENSITY_FLOOR and off_sum.max() <= PMF_ATOL:
            return None
    return first_fault(
        [
            context,
            ((actions < 0) | (actions >= num_actions), lambda i: _out_of_range("action", actions[i], num_actions)),
            (~np.isfinite(losses), lambda i: "non-finite loss"),
            (~((losses >= 0.0) & (losses <= 1.0)), lambda i: "loss out of [0,1]"),
            (~np.isfinite(p).all(axis=1), lambda i: "non-finite propensity"),
            (off_sum > PMF_ATOL, lambda i: "propensities do not sum to 1"),
            ((p <= PROPENSITY_FLOOR).any(axis=1), lambda i: "zero propensity"),
        ]
    )


def set_num_contexts(dataset) -> None:
    """Keep a dataset's num_contexts as an int; DatasetError unless it is None or
    an integer >= 1 (a numpy integer too, a bool not)."""
    count = dataset.num_contexts
    if count is None:
        return
    if not is_integer(count) or count < 1:
        raise DatasetError(f"num_contexts must be an integer >= 1, not {count!r}")
    object.__setattr__(dataset, "num_contexts", int(count))


def set_column(dataset, name: str, dtype, ndim: int = 1) -> np.ndarray:
    """Set a dataset's field to a read-only C-ordered copy of dtype (C order: the flat index of
    _logged_cells names cell (i, a_i)), and return it; DatasetError unless it has `ndim` axes."""
    array = _frozen(np.asarray(getattr(dataset, name), dtype=dtype, order="C"))
    if array.ndim != ndim:
        raise DatasetError(f"{name} must be {ndim}-D, not of shape {array.shape}")
    object.__setattr__(dataset, name, array)
    return array


@dataclass(frozen=True, eq=False)
class LoggedDataset:
    """Batch of logged records in array form.

    Exactly one of `context_ids` / `context_features` is set. `num_contexts`,
    the finite-context table size, defaults to max id + 1. The constructor
    rejects an array of the wrong rank, propensity rows with no column, a
    num_contexts that set_num_contexts refuses and the record validate_dataset
    names, so every loss is in [0, 1], every 1/mu term is defined and nothing
    checks the records again.

    A finite-context dataset also carries `ipw_sums` and `pl_sums`, the two
    (num_contexts, A) tables that the estimators contract with a policy's
    pmf table. Each is built on first use and kept, read-only.
    """

    actions: np.ndarray
    losses: np.ndarray
    propensities: np.ndarray
    context_ids: np.ndarray | None = None
    context_features: np.ndarray | None = None
    num_contexts: int | None = None

    def __post_init__(self):
        n = len(set_column(self, "actions", np.int64))
        set_column(self, "losses", float)
        if set_column(self, "propensities", float, 2).shape[1] < 1:
            raise DatasetError(f"propensities must have at least one column, not shape {self.propensities.shape}")
        set_num_contexts(self)
        if (self.context_ids is None) == (self.context_features is None):
            raise DatasetError("dataset needs exactly one of context_ids / context_features")
        if self.context_ids is not None:
            contexts = set_column(self, "context_ids", np.int64)
        else:
            contexts = set_column(self, "context_features", float, 2)
        if n < 1:
            raise DatasetError("dataset must contain at least one record")
        if {len(self.propensities), len(self.losses), len(contexts)} != {n}:
            raise DatasetError("dataset arrays are not aligned")
        report = validate_dataset(self)
        if report:
            raise DatasetError(report[0])
        if self.context_ids is not None and self.num_contexts is None:
            object.__setattr__(self, "num_contexts", int(self.context_ids.max()) + 1)

    @property
    def n(self) -> int:
        return len(self.actions)

    @property
    def num_actions(self) -> int:
        return self.propensities.shape[1]

    @cached_property
    def ipw_sums(self) -> np.ndarray:
        """loss_i / mu(a_i|x_i) summed over the records logged at each (context, action)."""
        logged = self.propensities.take(_logged_cells(self))
        # One np.bincount over the flat cell index adds each cell's values in record order.
        cells = self._finite_ids() * self.num_actions + self.actions
        summed = np.bincount(cells, weights=self.losses / logged, minlength=self.num_contexts * self.num_actions)
        return _frozen(summed.reshape(self.num_contexts, self.num_actions))

    @cached_property
    def pl_sums(self) -> np.ndarray:
        """1/mu(a|x_i) summed over the records at each context, for every action."""
        return _frozen(context_sums(1.0 / self.propensities, self._finite_ids(), self.num_contexts))

    def _finite_ids(self) -> np.ndarray:
        if self.context_ids is None:
            raise ValueError("per-context sums need finite contexts")
        return self.context_ids


def _logged_cells(dataset: LoggedDataset) -> np.ndarray:
    """Row-major flat index of each record's logged cell in an (n, A) array:
    `rows.take(_logged_cells(dataset))` is rows[i, actions[i]] for every record i.

    A flat gather or scatter costs a third of the (np.arange(n), actions) pair.
    `take` flattens in row-major order whatever the layout, but a scatter
    through `reshape(-1)` writes in place only into a C-ordered array, so
    LoggedDataset stores its propensities C-ordered. The index is safe only
    because LoggedDataset.__post_init__ range-checks the actions: an action
    out of range would read another record's cell.
    """
    return np.arange(0, dataset.propensities.size, dataset.num_actions) + dataset.actions


def validate_dataset(dataset: LoggedDataset) -> list[str]:
    """LoggedDataset's record check: [] or the message it raises, _record_fault's."""
    contexts = dataset.context_ids if dataset.context_ids is not None else dataset.context_features
    fault = _record_fault(contexts, dataset.actions, dataset.losses, dataset.propensities, dataset.num_contexts)
    return [] if fault is None else [f"{fault[1]} at record {fault[0]}"]


def class_stats(policy_class: PolicyClass, context_ids: np.ndarray, propensities: np.ndarray) -> ClassStats:
    """ClassStats of a class against logging propensity rows.

    Row i of `propensities` is the logging pmf at context `context_ids[i]`.
    Extrema are taken over every row, so a context logged with different
    rows contributes the smallest propensity and the largest ratio of any of
    them. `continuous.smoothed_class_stats` supplies analytic values instead.
    """
    ids = np.asarray(context_ids, dtype=np.int64)
    mu_rows = np.asarray(propensities, dtype=float)
    if mu_rows.ndim != 2 or len(mu_rows) != len(ids):
        raise ValueError(f"{len(ids)} context ids need as many propensity rows, not an array of shape {mu_rows.shape}")
    if np.any(mu_rows <= PROPENSITY_FLOOR):
        raise ValueError("logging policy has a zero propensity on the given contexts")
    # Dividing by mu > 0 is monotone, so the largest ratio is the largest
    # member pmf over mu.
    top = policy_class.pmf_max(int(ids.max()) + 1, mu_rows.shape[1])[ids]
    return ClassStats(
        pmf_sup=float(top.max()),
        mu_pmf_inf=float(mu_rows.min()),
        weight_ratio_sup=float((top / mu_rows).max()),
        class_size=policy_class.size,
    )


# ---------------------------------------------------------------------------
# Dataset files: JSON Lines with a one-line header. Records cross the file
# boundary as numpy columns, a bounded chunk at a time, by a field list of
# (dotted key, kind) pairs: both loaders read them through read_columns, and
# both writers write them through write_records, by the same list.

# Bytes of record lines the loaders parse per json.loads call.
CHUNK_BYTES = 1 << 18
# Records the writer formats per writelines call.
CHUNK_RECORDS = 4096

# Field kinds of a record layout, a list of (dotted key, kind) pairs: a JSON
# integer that fits an int64, a JSON number, or (an int w) a list of exactly
# w JSON numbers.
INTEGER, NUMBER = "integer", "number"


def _json_texts(values: np.ndarray) -> list[str]:
    """JSON text of each float of a 1-D array, or of each row of a 2-D one as a
    list, exactly as json.dumps writes it; a log holds finite floats only.
    write_records formats each NUMBER field and each list field through it.

    The shortest-repr conversion is the slow step, and logged columns repeat
    few values (one pmf per context, 0/1 losses), so each distinct value or
    row is converted once. Values are keyed by their bits: 0.0 == -0.0. When
    no value repeats (a continuous log's actions), each is converted in place.
    """
    bits = np.ascontiguousarray(values).view(np.int64).tolist()
    if values.ndim == 2:
        bits = list(map(tuple, bits))
    distinct = list(set(bits))
    if len(distinct) == len(bits):
        return list(map(repr, values.tolist()))
    decoded = np.array(distinct, dtype=np.int64).view(np.float64).tolist()
    text = dict(zip(distinct, map(repr, decoded)))
    return list(map(text.__getitem__, bits))


def _field_texts(bits: np.ndarray, kind) -> list[str]:
    """The JSON text of each row of one field's int64 bit columns, each distinct value converted once."""
    if kind == INTEGER:
        values = bits[:, 0].tolist()
        text = {value: str(value) for value in set(values)}
        return list(map(text.__getitem__, values))
    return _json_texts(bits.view(np.float64)[:, 0] if kind == NUMBER else bits.view(np.float64))


def _line_pieces(keys: list[str]) -> tuple[list[str], list[int]]:
    """The constant text around the fields of a record line, as
    json.dumps(record, sort_keys=True) writes a record with these dotted keys,
    and the fields in the order it writes them: sorted by their key parts,
    which keeps the keys of one nested object together."""
    tree: dict = {}
    for key in keys:
        *parents, leaf = key.split(".")
        functools.reduce(lambda node, part: node.setdefault(part, {}), parents, tree)[leaf] = "\0"
    pieces = json.dumps(tree, sort_keys=True).split(json.dumps("\0"))
    pieces[-1] += "\n"
    return pieces, sorted(range(len(keys)), key=lambda i: keys[i].split("."))


# Header keys the dataset writers set themselves, so metadata may not hold them.
FORMAT_KEYS = ("action_space", "densities", "num_actions", "num_contexts")


def write_records(path: str | Path, header: dict, metadata: dict | None, fields: list, columns: list) -> None:
    """Write `{"header": header | metadata}`, then one line per record: row i
    of each field's column (an (n,) array, or (n, w) for a list of w) at its
    dotted key, byte-identical to json.dumps(record, sort_keys=True).

    Metadata holding a key the format writes (FORMAT_KEYS) raises ValueError,
    and a header json cannot encode TypeError, before the file is opened.
    Records are written CHUNK_RECORDS at a time: a chunk's rows are keyed by
    the int64 bits of their columns, and only its distinct rows, in
    first-seen order, are formatted, a field at a time by its kind. A
    simulated discrete log has few (one propensity row per context, 0/1
    losses); when no row repeats, as in a continuous log, the lines are
    written in order, with no gather.
    """
    metadata = metadata or {}
    for key in FORMAT_KEYS:
        if key in metadata:
            raise ValueError(f"metadata key '{key}' is a header key the dataset format writes")
    head = json.dumps({"header": header | metadata}, sort_keys=True) + "\n"
    pieces, order = _line_pieces([key for key, _ in fields])
    constants = [itertools.repeat(piece) for piece in pieces]
    bits = [(c[:, None] if c.ndim == 1 else c).view(np.int64) for c in columns]
    ends = [0, *itertools.accumulate(b.shape[1] for b in bits)]
    with open(path, "w") as fh:
        fh.write(head)
        for lo in range(0, len(bits[0]), CHUNK_RECORDS):
            block = np.hstack([b[lo : lo + CHUNK_RECORDS] for b in bits])
            keys = block.view(np.dtype((np.void, block.shape[1] * 8))).ravel().tolist()
            distinct = dict.fromkeys(keys)
            repeats = len(distinct) < len(keys)
            if repeats:
                block = np.frombuffer(b"".join(distinct), dtype=np.int64).reshape(len(distinct), -1)
            texts = [_field_texts(block[:, ends[i] : ends[i + 1]], fields[i][1]) for i in order]
            lines = map("".join, zip(*itertools.chain.from_iterable(zip(constants, texts)), constants[-1]))
            fh.writelines(map(dict(zip(distinct, lines)).__getitem__, keys) if repeats else lines)


def _discrete_fields(width: int | None, num_actions: int) -> list:
    """The field list of a discrete record: context.id (width None), or
    context.features of `width`; action; loss; propensities of num_actions."""
    context = ("context.id", INTEGER) if width is None else ("context.features", width)
    return [context, ("action", INTEGER), ("loss", NUMBER), ("propensities", num_actions)]


def save_dataset_jsonl(dataset: LoggedDataset, path: str | Path, metadata: dict | None = None) -> None:
    """Write `{"header": {"num_actions": ...}}` then one record object per line,
    by write_records and the discrete field list the loader reads. `metadata`
    adds keys to the header; one the format writes itself (FORMAT_KEYS)
    raises ValueError before the file is opened."""
    header = {"num_actions": dataset.num_actions}
    if dataset.num_contexts is not None:
        header["num_contexts"] = dataset.num_contexts
    contexts = dataset.context_ids if dataset.context_ids is not None else dataset.context_features
    fields = _discrete_fields(None if contexts.ndim == 1 else contexts.shape[1], dataset.num_actions)
    write_records(path, header, metadata, fields, [contexts, dataset.actions, dataset.losses, dataset.propensities])


def load_json(path: str | Path):
    """The parsed JSON of a file; a file that is not valid JSON raises DatasetError naming it."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except ValueError as err:
            raise DatasetError(f"{path}: invalid JSON ({err})") from None


def open_dataset(path: str | Path):
    """Open a dataset file for reading as UTF-8 text with universal newlines.

    A byte that is not UTF-8 decodes to a lone surrogate (surrogateescape)
    instead of raising mid-read, so the loader can name the record it is on.
    """
    return open(path, encoding="utf-8", errors="surrogateescape")


def _utf8_problem(text: str) -> str | None:
    """Why `text`, read through open_dataset, is not UTF-8 (it holds an escaped byte), or None."""
    if text.isascii():  # O(1): a flag of the string
        return None
    try:
        text.encode("utf-8")
    except UnicodeEncodeError as err:
        return f"invalid UTF-8 byte 0x{ord(text[err.start]) - 0xDC00:02x}"
    return None


class _Unreadable(str):
    """A record line that is not UTF-8 or not one JSON value, read as the text of
    its problem: missing_field returns it, as it names a missing key."""


def _read_line(line: str):
    """The JSON value of one record line, or an _Unreadable saying why it has none."""
    problem = _utf8_problem(line)
    if problem is None:
        try:
            return json.loads(line)
        except ValueError as err:
            problem = f"invalid JSON ({err.msg})"
    return _Unreadable(problem)


def _json_array(lines: list[str]) -> list | None:
    """The JSON value of each line, from one json.loads over the lines joined
    into a JSON array; None when a line is not UTF-8 or not one JSON value.

    The joined text, as large as the lines, is freed on return.
    """
    joined = "[" + ",".join(lines) + "]"
    if _utf8_problem(joined) is not None:
        return None
    try:
        values = json.loads(joined)
    except ValueError:
        return None
    return values if len(values) == len(lines) else None


def read_header(fh, path: str | Path) -> dict:
    """The header object on the first non-blank line of a file opened by open_dataset."""
    line = fh.readline()
    while line.isspace():
        line = fh.readline()
    problem = _utf8_problem(line)
    if problem is not None:
        raise DatasetError(f"{path}: {problem} in the header line")
    try:
        header = json.loads(line)["header"]
    except (ValueError, KeyError, TypeError):
        header = None
    if not isinstance(header, dict):
        raise DatasetError(f"{path}: missing header line")
    return header


def read_record_chunks(fh):
    """Yield (start, records, inverse) for the rest of a file opened by open_dataset.

    Lines of only whitespace (str.isspace, Unicode included) are skipped.
    Each chunk of about CHUNK_BYTES is keyed by the exact text of its lines
    (universal newlines: LF, CRLF and CR end a line alike): dict.fromkeys
    collects the distinct lines in first-seen order, and a C-level map over
    the chunk numbers every record into `inverse`, an int array (np.arange
    when no line repeats, as in a continuous log). The blank test runs on
    the distinct lines only. The distinct lines are parsed by
    one json.loads over them joined into a JSON array: record `start + k` is
    `records[inverse[k]]`. A simulated log has few distinct lines (one
    propensity row per context, 0/1 losses), and each is parsed once per
    chunk. The reader judges nothing: when the joined array does not parse,
    each distinct line is parsed alone, and a line that is not UTF-8 or not
    one JSON value is read as a record that carries its problem, which
    missing_field returns.
    """
    start = 0
    while chunk := fh.readlines(CHUNK_BYTES):
        number = dict.fromkeys(chunk, -1)
        distinct = list(itertools.filterfalse(str.isspace, number))
        if not distinct:
            continue
        if len(distinct) == len(chunk):  # no line repeats and none is blank
            inverse = np.arange(len(chunk))
        else:
            number.update(zip(distinct, range(len(distinct))))
            inverse = np.fromiter(map(number.__getitem__, chunk), np.intp, len(chunk))
            if len(distinct) < len(number):
                inverse = inverse[inverse >= 0]
        records = _json_array(distinct)
        if records is None:
            records = list(map(_read_line, distinct))
        yield start, records, inverse
        start += len(inverse)


def header_count(header: dict, key: str, path: str | Path) -> int | None:
    """header[key], which must be a JSON integer >= 1, or None when the header lacks the key."""
    if key not in header:
        return None
    problem = index_problem(f"header {key}", header[key])
    if problem is None and header[key] < 1:
        problem = f"header {key} {header[key]} is not >= 1"
    if problem is not None:
        raise DatasetError(f"{path}: {problem}")
    return header[key]


def index_problem(name: str, value) -> str | None:
    """Why a parsed record's `name` is not a JSON integer that fits an int64, or None."""
    if type(value) is not int:
        return f"{name} {json.dumps(value)} is not an integer"
    if not -(2**63) <= value < 2**63:
        return f"{name} {value} out of range"
    return None


def is_number(value) -> bool:
    """A JSON number that converts to a float (not a bool or string)."""
    if type(value) is float:
        return True
    if type(value) is not int:
        return False
    try:
        float(value)
    except OverflowError:
        return False
    return True


def number_array(value, ndim: int, key: str) -> np.ndarray:
    """A parsed JSON value as a float array: nested lists, at most `ndim` deep,
    of JSON numbers by the `is_number` rule.

    A bool, a string, a null, a deeper list or a ragged list raises ValueError
    naming `key`. A shallower value is returned as read; the caller's shape
    checks name its shape.
    """
    leaves = [value]
    for _ in range(ndim):
        leaves = list(itertools.chain.from_iterable(v if type(v) is list else (v,) for v in leaves))
    if not all(map(is_number, leaves)):
        raise ValueError(f"{key} is not a {ndim}-D array of JSON numbers")
    try:
        return np.array(value, dtype=float)
    except ValueError:
        raise ValueError(f"{key} is a ragged array") from None


def missing_field(record, keys: Sequence[str]) -> str | None:
    """Why a parsed record cannot be read: its line is not UTF-8 or not JSON, it
    is not an object, or the first dotted key it lacks."""
    if isinstance(record, _Unreadable):
        return str(record)
    if not isinstance(record, dict):
        return "record is not a JSON object"
    for key in keys:
        obj, parts = record, key.split(".")
        for depth, part in enumerate(parts, 1):
            if not isinstance(obj, dict) or part not in obj:
                return f"missing key '{'.'.join(parts[:depth])}'"
            obj = obj[part]
    return None


_NUMBER_TYPES = {int, float}


def _column(records: list, key: str, kind) -> np.ndarray:
    """The values at a dotted key of a chunk's parsed records as one array.
    Their types are tested once for the whole chunk: KeyError or TypeError
    when a record lacks the key or a value is not of `kind`, OverflowError
    when an integer does not fit an int64 or a number a float."""
    values = records
    for part in key.split("."):
        values = list(map(operator.itemgetter(part), values))
    types = set(map(type, values))
    if kind == INTEGER:
        ok = types == {int}
    elif kind == NUMBER:
        ok = types <= _NUMBER_TYPES
    else:
        entries = set(map(type, itertools.chain.from_iterable(values)))
        ok = types == {list} and set(map(len, values)) == {kind} and entries <= _NUMBER_TYPES
    if not ok:
        raise TypeError(f"{key} is not of kind {kind}")
    return np.array(values, dtype=np.int64 if kind == INTEGER else float)


def _columns(records: list, fields: list, rule) -> list[np.ndarray] | None:
    """A chunk's columns, one per field, or None when a record breaks `rule`
    or cannot be turned into columns."""
    try:
        if rule is None or not any(map(rule, records)):
            return [_column(records, key, kind) for key, kind in fields]
    except (KeyError, TypeError, OverflowError):
        pass
    return None


def _kind_problem(key: str, kind, value) -> str | None:
    """Why a parsed record's value at `key` is not of `kind`, or None."""
    if kind == INTEGER:
        return index_problem(key, value)
    if kind == NUMBER:
        return None if is_number(value) else f"{key} {json.dumps(value)} is not a number"
    if type(value) is not list or not all(map(is_number, value)):
        return f"{key} is not a list of numbers"
    return None if len(value) == kind else f"{key} has {len(value)} entries, not {kind}"


def _read_problem(record, fields: list, rule) -> str | None:
    """Why one parsed record cannot be turned into columns, or None: the
    loader's own `rule`, then missing_field, then the first value not of its
    field's kind."""
    problem = (rule and rule(record)) or missing_field(record, [key for key, _ in fields])
    if problem is not None:
        return problem
    values = ((key, kind, functools.reduce(operator.getitem, key.split("."), record)) for key, kind in fields)
    return next(filter(None, itertools.starmap(_kind_problem, values)), None)


def read_columns(fh, layout) -> tuple[list[np.ndarray], str | None]:
    """The records of a file opened by open_dataset as columns, one per field
    and in file order ([] when no record was read), and the problem of the
    first record that cannot be turned into columns, with its index (None
    when every record was read).

    `layout(record 0)` gives the log's field list and its loader's own rule
    (None, or a function giving why one parsed record breaks it, or None).
    Each chunk of read_record_chunks is turned into columns whole, each
    distinct line once and each field's types tested once. A chunk that
    fails is searched record by record for its first distinct record with a
    problem, which first-seen order makes its first in file order; reading
    stops there, and the records before it are kept.
    """
    chunks, inverses, problem = [], [], None
    offset = 0  # distinct records in the chunks before this one
    for start, records, inverse in read_record_chunks(fh):
        if start == 0:
            fields, rule = layout(records[0])
        columns = _columns(records, fields, rule)
        if columns is None:  # keep the records before the first that does not load
            problems = (_read_problem(record, fields, rule) for record in records)
            j, problem = next(((j, p) for j, p in enumerate(problems) if p is not None), (0, None))
            if problem is None:
                problem = f"unreadable record among records {start} to {start + len(inverse) - 1}"
                break
            k = int(np.argmax(inverse == j))  # records before k are distinct records before j
            problem = f"{problem} at record {start + k}"
            if j:
                chunks.append(_columns(records[:j], fields, rule))
                inverses.append(np.add(inverse[:k], offset))
            break
        chunks.append(columns)
        inverses.append(np.add(inverse, offset))
        offset += len(records)
    if not chunks:
        return [], problem
    order = np.concatenate(inverses)
    return [np.concatenate(column).take(order, axis=0) for column in zip(*chunks)], problem


def judged(path: str | Path, build, problem: str | None):
    """The dataset build() makes of the records a loader read before `problem`,
    the first record it could not turn into columns (None: it read them all;
    build None: it read none). The constructor judges first, so the
    DatasetError raised names the file and its first bad record in file order."""
    try:
        dataset = None if build is None else build()
    except DatasetError as err:
        raise DatasetError(f"{path}: {err}") from None
    if problem is None and dataset is None:
        problem = "dataset must contain at least one record"
    if problem is not None:
        raise DatasetError(f"{path}: {problem}")
    return dataset


def _discrete_layout(first, num_actions: int):
    """The field list of a discrete log whose record 0 is `first`, and its own
    rule: no record mixes finite and feature contexts. The log holds feature
    contexts when record 0's context has features and no id, else finite ones;
    a record with an id is finite, and one with features and no id is not."""
    ctx = first.get("context") if type(first) is dict else None
    features = type(ctx) is dict and "features" in ctx and "id" not in ctx
    width = (len(ctx["features"]) if type(ctx["features"]) is list else 0) if features else None

    def rule(record) -> str | None:
        ctx = record.get("context") if type(record) is dict else None
        if type(ctx) is dict and ("id" in ctx if features else "features" in ctx and "id" not in ctx):
            return "records mix finite and feature contexts"
        return None

    return _discrete_fields(width, num_actions), rule


def load_dataset_jsonl(path: str | Path) -> LoggedDataset:
    """Read a file written by save_dataset_jsonl.

    read_columns turns the records into columns by the discrete field list
    (context.id, or context.features of record 0's width; action; loss;
    propensities of num_actions) up to the first record it cannot read.
    LoggedDataset (with the header's num_contexts) then judges every record
    before it, and `judged` raises DatasetError naming the file and the first
    bad record. A header without num_actions that marks a continuous log
    (action_space "unit_interval") is named as one.
    """
    with open_dataset(path) as fh:
        header = read_header(fh, path)
        num_actions = header_count(header, "num_actions", path)
        if num_actions is None:
            if header.get("action_space") == "unit_interval":
                kind = "a continuous log (header action_space 'unit_interval')"
                raise DatasetError(f"{path}: {kind}, not a discrete one")
            raise DatasetError(f"{path}: header lacks key 'num_actions'")
        num_contexts = header_count(header, "num_contexts", path)
        columns, problem = read_columns(fh, lambda first: _discrete_layout(first, num_actions))

    def build() -> LoggedDataset:
        contexts, actions, losses, propensities = columns
        name = "context_ids" if contexts.ndim == 1 else "context_features"
        return LoggedDataset(actions, losses, propensities, num_contexts=num_contexts, **{name: contexts})

    return judged(path, build if columns else None, problem)
