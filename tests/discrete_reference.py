"""Per-record loop references for the discrete dataset boundary.

These are the record-by-record writer, loader and validator that the columnar
versions in `plbandit.model` replaced, kept verbatim (renamed) so tests can
check that the library writes the same bytes, loads the same arrays and
reports the same violations in the same order: the loss violations from
`validate_dataset`, the first propensity violation from the `LoggedDataset`
constructor. `reference_generate_logs` is
the discrete branch of the generator that drew contexts with `rng.choice` and
actions with `_sample_categorical`, kept verbatim, so tests can check that
the library draws the same records per seed. `reference_objective` is the
penalized objective as a pure-Python double loop over records, a second code
path for the estimators' per-context contractions. `reference_brute_force_argmin`
is `csc.brute_force_argmin` as it was before it scored members in blocks: one
`ipw_terms` and one `pl_terms` call per member. `reference_pmf_table` and
`reference_tables` are `DeterministicPolicy.pmf_table` and `PolicyClass.tables`
as they were before the policy kept its one-hot table and the class its
stack: a new array on every call.
"""

import json
from pathlib import Path

import numpy as np

from plbandit.estimators import ipw_terms, pl_terms
from plbandit.model import PMF_ATOL, PROPENSITY_FLOOR, DatasetError, LoggedDataset, _leading_rows
from plbandit.simulator import make_rng


def _sample_categorical(rng: np.random.Generator, pmf_rows: np.ndarray) -> np.ndarray:
    cum = np.cumsum(pmf_rows, axis=1)
    u = rng.random(len(pmf_rows))
    return np.minimum((u[:, None] > cum).sum(axis=1), pmf_rows.shape[1] - 1)


def reference_generate_logs(env, n: int, seed: int):
    """Draw n i.i.d. logged records under a discrete environment's logging policy."""
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = make_rng(seed)
    xs = rng.choice(env.num_contexts, size=n, p=env.context_dist)
    mu_rows = env.mu_table[xs]
    actions = _sample_categorical(rng, mu_rows)
    means = env.loss_means[xs, actions]
    losses = (rng.random(n) < means).astype(float) if env.bernoulli_noise else means
    return LoggedDataset(
        actions=actions,
        losses=losses,
        propensities=mu_rows,
        context_ids=xs,
        num_contexts=env.num_contexts,
    )


def reference_objective(policy, dataset: LoggedDataset, beta: float) -> float:
    """ipw_risk + beta * pseudo_loss, summed record by record in Python."""
    table = policy.pmf_table(dataset.num_contexts)
    total = 0.0
    for i in range(dataset.n):
        pmf, mu, action = table[dataset.context_ids[i]], dataset.propensities[i], dataset.actions[i]
        total += pmf[action] / mu[action] * dataset.losses[i]
        total += beta * sum(pmf[a] / mu[a] for a in range(len(pmf)))
    return total / dataset.n


def reference_brute_force_argmin(dataset: LoggedDataset, beta: float, policy_class):
    """Reference minimizer: evaluate the penalized objective on every member."""
    if beta < 0:
        raise ValueError("beta must be nonnegative")
    best, best_value = None, np.inf
    for member in policy_class.members:
        value = float(np.mean(ipw_terms(member, dataset))) + beta * float(np.mean(pl_terms(member, dataset)))
        if value < best_value:
            best, best_value = member, value
    return best, best_value


def reference_pmf_table(policy, num_contexts: int) -> np.ndarray:
    return np.eye(policy.num_actions)[_leading_rows(np.asarray(policy.assignment), num_contexts)]


def reference_tables(policy_class, num_contexts: int, lo: int = 0, hi: int | None = None) -> np.ndarray:
    return np.stack([m.pmf_table(num_contexts) for m in policy_class.members[lo:hi]])


def reference_validate(dataset) -> list[str]:
    """Check every record invariant; return a report of violations (empty = valid).

    Propensities below 1e-12 count as zero, guarding the 1/mu terms downstream.

    `dataset` is anything with `n`, `actions`, `losses` and `propensities`:
    LoggedDataset now rejects a bad propensity row when it is built, so the
    rows this loop reports on come as a plain namespace of arrays. Its loss
    entries are `validate_dataset`'s report; its first propensity entry is
    the record and kind the constructor names.
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


def _context_json(dataset: LoggedDataset, i: int) -> dict:
    if dataset.context_ids is not None:
        return {"id": int(dataset.context_ids[i])}
    return {"features": [float(v) for v in dataset.context_features[i]]}


def reference_save(dataset: LoggedDataset, path: str | Path, metadata: dict | None = None) -> None:
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


def reference_load(path: str | Path) -> LoggedDataset:
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
