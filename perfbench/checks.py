"""Output checks that hold for any workload seed.

Each checker takes what a CLI command wrote and returns a list of failure
messages; an empty list means the output is correct. The discrete argmin
reference is computed independently of the code under test, in plain numpy
over records parsed with `json`; the others go through the library's own
reference paths (`csc.brute_force_argmin`, `csc.average_cost`).
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from plbandit import continuous as cont
from plbandit import csc, model

# Relative slack for near-ties and for rounding in summation order; exact
# ties among distinct random-cost actions have probability zero.
TIE_RTOL = 1e-9

EXACT_VERIFY_CHECKS = (
    "dataset_validation",
    "discrete_reduction",
    "continuous_reduction",
    "variance_domination",
    "pessimism_path",
    "smoothing_bounds",
    "oracle_call_count",
)
STATISTICAL_VERIFY_CHECKS = (
    "pl_band_coverage",
    "confidence_coverage",
    "ucb_simultaneous_coverage",
    "unbiasedness",
)


def read_json(path: str | Path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def read_csv(path: str | Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def read_discrete_records(path: str | Path) -> tuple[dict, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Parse a discrete dataset file with the standard library, not the library loader."""
    with open(path) as fh:
        header = json.loads(fh.readline())["header"]
        rows = [json.loads(line) for line in fh if line.strip()]
    ids = np.array([r["context"]["id"] for r in rows], dtype=np.int64)
    actions = np.array([r["action"] for r in rows], dtype=np.int64)
    losses = np.array([r["loss"] for r in rows], dtype=float)
    props = np.array([r["propensities"] for r in rows], dtype=float)
    return header, ids, actions, losses, props


def check_generated(path: str | Path, n: int, seed: int, num_actions: int) -> list[str]:
    """The dataset file has the header it should and exactly n valid records."""
    header, ids, actions, losses, props = read_discrete_records(path)
    failures = []
    if header.get("seed") != seed or header.get("num_actions") != num_actions:
        failures.append(f"header {header} does not match seed {seed}, {num_actions} actions")
    if len(actions) != n:
        failures.append(f"{len(actions)} records, expected {n}")
    if props.ndim != 2 or props.shape[1:] != (num_actions,):
        failures.append("propensity rows have the wrong width")
    elif np.any(actions < 0) or np.any(actions >= num_actions) or np.any((losses < 0) | (losses > 1)):
        failures.append("record out of range")
    return failures


def naive_argmin(ids, actions, losses, props, beta: float, num_contexts: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-context summed cost loss/mu*1{a=a_i} + beta/mu, and its lowest-index argmin."""
    costs = beta / props
    rows = np.arange(len(actions))
    costs[rows, actions] += losses / props[rows, actions]
    summed = np.stack([costs[ids == x].sum(axis=0) for x in range(num_contexts)])
    return summed, np.argmin(summed, axis=1)


def _assignment_failures(summed: np.ndarray, chosen, reference, label: str) -> list[str]:
    chosen = np.asarray(chosen)
    if chosen.shape != reference.shape:
        return [f"{label}: assignment {chosen.tolist()} has the wrong length"]
    failures = []
    for x in np.flatnonzero(chosen != reference):
        a, b = int(chosen[x]), int(reference[x])
        if not 0 <= a < summed.shape[1]:
            failures.append(f"{label}: context {x} action {a} out of range")
            continue
        if abs(summed[x, a] - summed[x, b]) > TIE_RTOL * max(1.0, abs(summed[x, b])):
            failures.append(f"{label}: context {x} chose {a}, argmin is {b}")
    return failures


def check_train_argmin(dataset_path, policy: dict, beta: float, num_contexts: int) -> list[str]:
    """The trained deterministic assignment is the per-context argmin of the modified costs."""
    if policy.get("type") != "deterministic":
        return [f"policy type {policy.get('type')!r}, expected deterministic"]
    _, ids, actions, losses, props = read_discrete_records(dataset_path)
    summed, reference = naive_argmin(ids, actions, losses, props, beta, num_contexts)
    return _assignment_failures(summed, policy.get("assignment", []), reference, "train")


def check_evaluate_matches_train(train_metrics: dict, eval_metrics: dict) -> list[str]:
    """evaluate on the saved policy reproduces train's numbers exactly."""
    return [
        f"evaluate {key}={eval_metrics.get(key)!r} but train {key}={train_metrics.get(key)!r}"
        for key in ("beta", "ipw_risk", "pseudo_loss", "objective")
        if key not in train_metrics or eval_metrics.get(key) != train_metrics[key]
    ]


def check_sweep_path(rows: list[dict], betas: list[float]) -> list[str]:
    """One row per beta in grid order, and pl_hat never increases as beta grows."""
    try:
        got = [float(r["beta"]) for r in rows]
        path = [float(r["pl_hat"]) for r in rows]
    except (KeyError, ValueError) as err:
        return [f"bad sweep row: {err}"]
    if got != list(betas):
        return [f"sweep betas {got}, expected {list(betas)}"]
    return [
        f"pl_hat rises from {a} to {b} between beta {got[i]} and {got[i + 1]}"
        for i, (a, b) in enumerate(zip(path, path[1:]))
        if b > a + TIE_RTOL * max(1.0, abs(a))
    ]


def check_enum_references(dataset: model.LoggedDataset, policy: dict, beta: float) -> list[str]:
    """The enumeration winner equals csc.brute_force_argmin and the pointwise argmin."""
    pclass = model.deterministic_class(dataset.num_contexts, dataset.num_actions)
    reference, _ = csc.brute_force_argmin(dataset, beta, pclass)
    pointwise = csc.PointwiseArgminOracle(num_contexts=dataset.num_contexts).solve(
        csc.build_modified_costs(dataset, beta)
    )
    chosen = tuple(policy.get("assignment", ()))
    failures = []
    if chosen != tuple(reference.assignment):
        failures.append(f"enum chose {chosen}, brute force {reference.assignment}")
    if chosen != tuple(pointwise.assignment):
        failures.append(f"enum chose {chosen}, pointwise argmin {pointwise.assignment}")
    return failures


def check_continuous_rows(
    dataset: cont.ContinuousLoggedDataset, rows: list[dict], beta: float, hs: list[float]
) -> list[str]:
    """Reduction identity per row: the grid-side CSC value of the row's
    per-context-argmin grid policy equals the row's density-side objective."""
    if len(rows) != len(hs):
        return [f"{len(rows)} sweep rows, expected {len(hs)}"]
    failures = []
    for row, h in zip(rows, hs):
        try:
            k, row_h, objective = int(row["k"]), float(row["h"]), float(row["objective"])
        except (KeyError, ValueError) as err:
            failures.append(f"bad sweep row: {err}")
            continue
        if row_h != h or float(row["beta"]) != beta:
            failures.append(f"row h={row_h} beta={row['beta']}, expected h={h} beta={beta}")
            continue
        grid = cont.SurrogateGrid(k)
        costs = cont.build_modified_costs_continuous(dataset, grid, h, beta)
        chosen = csc.PointwiseArgminOracle(num_contexts=dataset.num_contexts).solve(costs)
        policy = cont.GridMassPolicy(grid=grid, table=np.eye(k)[np.asarray(chosen.assignment)])
        gap = abs(csc.average_cost(policy, costs) - objective)
        if not gap <= 1e-9:
            failures.append(f"h={h}: grid-side and density-side objectives differ by {gap}")
    return failures


def check_verify_report(exit_code: int, report: dict) -> tuple[list[str], int]:
    """Exact checks must pass; statistical misses are returned as a count, not failures."""
    checks = {c.get("name"): c.get("passed") for c in report.get("checks", [])}
    failures = []
    if len(report.get("checks", [])) != 11 or report.get("num_checks") != 11:
        failures.append(f"report lists {len(report.get('checks', []))} checks, expected 11")
    for name in EXACT_VERIFY_CHECKS:
        if checks.get(name) is not True:
            failures.append(f"exact check {name} did not pass")
    misses = sum(checks.get(name) is not True for name in STATISTICAL_VERIFY_CHECKS)
    if exit_code != (0 if report.get("passed") is True else 3):
        failures.append(f"exit code {exit_code} disagrees with report passed={report.get('passed')}")
    return failures, misses
