"""Command-line front end: generate, train, sweep, evaluate, verify.

Outputs are machine-readable (JSON reports, CSV sweep tables); plotting is out
of scope. Exit codes: 0 success, 2 validation/usage error, 3 verification
failure, 1 anything else. A sweep fits its grid points one after another and
writes one row per point, in grid order.

`main` builds the parser of the command it runs, not of all five: argparse
would build every subparser and then use one.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from pathlib import Path

from . import continuous as cont
from . import csc, estimators, simulator, verify
from .model import (
    DatasetError,
    DeterministicPolicy,
    LinearCostPolicy,
    LoggedDataset,
    PolicyClass,
    TabularPolicy,
    class_stats,
    deterministic_class,
    index_problem,
    load_dataset_jsonl,
    load_json,
    number_array,
    open_dataset,
    read_header,
    save_dataset_jsonl,
)


class UsageError(Exception):
    pass


BUILTIN_ENVS = ("hard", "demo", "demo-continuous")
SEED_HELP = "seed of a builtin --env; defaults to the seed in the dataset header"


def _resolve_env(spec: str, seed: int):
    if spec == "hard":
        return simulator.hard_instance(num_contexts=2, num_actions=3, spurious_propensity=0.01, seed=seed)
    if spec == "demo":
        return simulator.random_environment((seed, 101), num_contexts=4, num_actions=3)
    if spec == "demo-continuous":
        return simulator.random_continuous_environment((seed, 202), num_contexts=3)
    path = Path(spec)
    if not path.exists():
        raise UsageError(f"unknown environment '{spec}' (builtin names: {', '.join(BUILTIN_ENVS)})")
    return simulator.load_environment(path)


def _policy_to_json(policy) -> dict:
    if isinstance(policy, DeterministicPolicy):
        return {
            "type": "deterministic",
            "assignment": list(policy.assignment),
            "num_actions": policy.num_actions,
        }
    if isinstance(policy, LinearCostPolicy):
        # JSON floats round-trip exactly, so a reloaded policy scores any
        # dataset exactly as the trained one does.
        return {
            "type": "linear",
            "weights": [[float(v) for v in row] for row in policy.weights],
            "intercepts": [float(v) for v in policy.intercepts],
        }
    if isinstance(policy, TabularPolicy):
        return {"type": "tabular", "table": [[float(v) for v in row] for row in policy.table]}
    raise UsageError(f"cannot serialize policy of type {type(policy).__name__}")


def _policy_from_json(obj: dict):
    if not isinstance(obj, dict):
        raise ValueError("policy is not a JSON object")
    kind = obj["type"]
    if kind == "deterministic":
        assignment, num_actions = obj["assignment"], obj["num_actions"]
        if type(assignment) is not list:
            raise ValueError("assignment is not a list")
        indices = [("num_actions", num_actions)] + [(f"assignment[{i}]", a) for i, a in enumerate(assignment)]
        problem = next(filter(None, (index_problem(name, value) for name, value in indices)), None)
        if problem:
            raise ValueError(problem)
        return DeterministicPolicy(assignment=tuple(assignment), num_actions=num_actions)
    if kind == "linear":
        return LinearCostPolicy(
            weights=number_array(obj["weights"], 2, "weights"),
            intercepts=number_array(obj["intercepts"], 1, "intercepts"),
        )
    if kind == "tabular":
        return TabularPolicy(table=number_array(obj["table"], 2, "table"))
    raise ValueError(f"unknown policy type '{kind}'")


def _read_policy(obj, source: str, dataset: LoggedDataset):
    """The policy a parsed JSON object describes, checked against the dataset it
    scores; a malformed or mismatched policy is a UsageError naming `source`."""
    try:
        policy = _policy_from_json(obj)
        if policy.num_actions != dataset.num_actions:
            raise ValueError(f"policy has {policy.num_actions} actions, the dataset has {dataset.num_actions}")
        policy.pmf_rows(dataset)  # raises unless the policy covers every record's context
    except KeyError as err:
        raise UsageError(f"{source}: missing key {err}") from None
    except (TypeError, ValueError) as err:
        raise UsageError(f"{source}: {err}") from None
    return policy


def _load_policy_class(spec: str, dataset: LoggedDataset) -> PolicyClass:
    if spec == "all-det":
        if dataset.context_ids is None:
            raise UsageError("--class all-det needs a finite-context dataset")
        try:
            return deterministic_class(dataset.num_contexts, dataset.num_actions)
        except ValueError as err:
            raise UsageError(f"{err}; supply an explicit class file") from None
    path = Path(spec)
    if not path.exists():
        raise UsageError(f"policy class '{spec}' is neither 'all-det' nor a file")
    obj = load_json(path)
    if not isinstance(obj, dict) or not isinstance(obj.get("policies"), list) or not obj["policies"]:
        raise UsageError(f"{path}: needs a non-empty list under key 'policies'")
    return PolicyClass.from_members(
        [_read_policy(p, f"{path}: policy {i}", dataset) for i, p in enumerate(obj["policies"])]
    )


def _make_oracle(name: str, ridge: float):
    if name == "enum":
        return csc.EnumerationOracle()
    if name == "argmin":
        return csc.PointwiseArgminOracle()
    return csc.RidgeRegressionOracle(ridge=ridge)


def _policy_metrics(policy, dataset: LoggedDataset, beta: float, env, stats=None, alpha=None) -> dict:
    """What `train`, `evaluate` and a discrete sweep row report for a policy: its
    estimates at beta, its ucb_risk and slack given class statistics, and its
    exact risk given an environment."""
    metrics = {
        "beta": beta,
        "ipw_risk": estimators.ipw_risk(policy, dataset),
        "pseudo_loss": estimators.pseudo_loss(policy, dataset),
        "objective": estimators.penalized_objective(policy, dataset, beta),
    }
    if stats is not None:
        slack = estimators.confidence_slack(stats, dataset.n, alpha, beta)
        metrics["ucb_risk"] = metrics["objective"] + slack.value
        metrics["slack"] = slack.as_dict()
    if env is not None:
        metrics["exact_risk"] = simulator.exact_risk(policy, env)
    return metrics


def _write_json(obj: dict, path: str | Path) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, sort_keys=True, indent=1)
        fh.write("\n")


def cmd_generate(args) -> int:
    env = _resolve_env(args.env, args.seed)
    data = simulator.generate_logs(env, args.n, seed=args.seed)
    metadata = {"seed": args.seed, "rng": "philox", "env": args.env}
    dataset_path = f"{args.out}.dataset.jsonl"
    env_path = f"{args.out}.env.json"
    if isinstance(data, LoggedDataset):
        save_dataset_jsonl(data, dataset_path, metadata=metadata)
    else:
        cont.save_continuous_dataset_jsonl(data, dataset_path, metadata=metadata)
    simulator.save_environment(env, env_path, metadata=metadata)
    print(dataset_path)
    print(env_path)
    return 0


def _shape(obj) -> str:
    """The context and action counts of an environment or dataset, as text."""
    contexts = "feature contexts" if obj.num_contexts is None else f"{obj.num_contexts} contexts"
    if isinstance(obj, (simulator.ContinuousEnvironment, cont.ContinuousLoggedDataset)):
        return f"{contexts} and continuous actions"
    return f"{contexts} and {obj.num_actions} actions"


def _dataset_env(spec: str | None, seed: int | None, dataset_path: str, dataset):
    """The environment a dataset is scored against, or None without --env.

    A builtin environment must be the one the dataset header names (a header
    without `env` is accepted), and is rebuilt from the seed in the header,
    which must be a JSON integer >= 0 as --seed is; an explicit --seed must
    agree with it. The environment must have the dataset's context and
    action counts.
    """
    if spec is None:
        return None
    if spec in BUILTIN_ENVS:
        with open_dataset(dataset_path) as fh:
            header = read_header(fh, dataset_path)
        header_env, header_seed = header.get("env"), header.get("seed")
        if "seed" in header and not (type(header_seed) is int and header_seed >= 0):
            raise UsageError(f"{dataset_path}: header seed {json.dumps(header_seed)} is not an integer >= 0")
        if header_env is not None and header_env != spec:
            raise UsageError(f"--env {spec} contradicts the env '{header_env}' in {dataset_path}")
        if seed is None:
            if header_seed is None:
                raise UsageError(f"--env {spec} needs --seed: {dataset_path} records no seed")
            seed = header_seed
        elif header_seed is not None and seed != header_seed:
            raise UsageError(f"--seed {seed} contradicts the seed {header_seed} in {dataset_path}")
    env = _resolve_env(spec, seed)
    if _shape(env) != _shape(dataset):
        raise UsageError(f"--env {spec} has {_shape(env)}, but {dataset_path} has {_shape(dataset)}")
    return env


def _training_setup(args, betas: list[float]):
    """What `train` and the discrete `sweep` fit `betas` with: the loaded
    dataset, the policy class (enum only), the oracle, the --env environment
    (or None) and the class statistics of --alpha (or None). Usage errors:
    --alpha or a --class file with an oracle that takes no class, --alpha
    with a zero beta (the slack divides by beta) or on feature contexts, and
    --oracle argmin on feature contexts or regression on finite ones. An
    unset sweep --class, --oracle or --ridge means all-det, enum or 1e-6."""
    oracle_name, policy_class = args.oracle or "enum", args.policy_class or "all-det"
    if oracle_name != "enum" and (args.alpha is not None or policy_class != "all-det"):
        flag = "--alpha" if args.alpha is not None else "--class"
        raise UsageError(f"{flag} needs --oracle enum; --oracle {oracle_name} takes no policy class")
    if args.alpha is not None and 0.0 in betas:
        given = "--beta 0" if args.command == "train" else "a 0 in --beta-grid"
        raise UsageError(f"--alpha needs beta > 0, not {given}: the ucb_risk slack divides by beta")
    dataset = load_dataset_jsonl(args.dataset)
    finite = dataset.context_ids is not None
    if args.alpha is not None and not finite:
        raise UsageError(f"--alpha needs finite contexts; {args.dataset} has feature contexts")
    if oracle_name == "argmin" and not finite:
        raise UsageError(f"--oracle argmin needs finite contexts; {args.dataset} has feature contexts")
    if oracle_name == "regression" and finite:
        raise UsageError(f"--oracle regression needs feature contexts; {args.dataset} has finite contexts")
    pclass = _load_policy_class(policy_class, dataset) if oracle_name == "enum" else None
    oracle = _make_oracle(oracle_name, 1e-6 if args.ridge is None else args.ridge)
    env = _dataset_env(args.env, args.seed, args.dataset, dataset)
    stats = None
    if args.alpha is not None:
        stats = class_stats(pclass, dataset.context_ids, dataset.propensities)
    return dataset, pclass, oracle, env, stats


def cmd_train(args) -> int:
    dataset, pclass, oracle, env, stats = _training_setup(args, [args.beta])
    policy, _ = csc.train_ipw_pl(dataset, args.beta, oracle, pclass)
    metrics = _policy_metrics(policy, dataset, args.beta, env, stats, args.alpha)
    metrics["oracle"] = args.oracle
    _write_json(_policy_to_json(policy), f"{args.out}.policy.json")
    _write_json(metrics, f"{args.out}.metrics.json")
    print(f"{args.out}.policy.json")
    print(f"{args.out}.metrics.json")
    return 0


def cmd_evaluate(args) -> int:
    dataset = load_dataset_jsonl(args.dataset)
    policy = _read_policy(load_json(args.policy), args.policy, dataset)
    env = _dataset_env(args.env, args.seed, args.dataset, dataset)
    metrics = _policy_metrics(policy, dataset, args.beta, env)
    if args.out:
        _write_json(metrics, args.out)
    print(json.dumps(metrics, sort_keys=True))
    return 0


SWEEP_COLUMNS = ["beta", "k", "h", "objective", "pl_hat", "ucb_risk", "exact_risk"]


# The flags only one sweep mode reads, by argparse dest; the other mode rejects them.
DISCRETE_SWEEP_FLAGS = {"beta_grid": "--beta-grid", "policy_class": "--class", "oracle": "--oracle", "ridge": "--ridge"}
CONTINUOUS_SWEEP_FLAGS = {"k": "--k", "beta": "--beta"}


def cmd_sweep(args) -> int:
    continuous = args.h_grid_m is not None
    mode = "continuous sweep (--h-grid-m)" if continuous else "discrete sweep (no --h-grid-m)"
    for dest, flag in (DISCRETE_SWEEP_FLAGS if continuous else CONTINUOUS_SWEEP_FLAGS).items():
        if getattr(args, dest) is not None:
            raise UsageError(f"{flag} does not apply to a {mode}")
    rows = _continuous_sweep(args) if continuous else _discrete_sweep(args)
    with open(args.out, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=SWEEP_COLUMNS)
        writer.writeheader()
        writer.writerows(rows)
    print(args.out)
    return 0


def _discrete_sweep(args) -> list[dict]:
    if args.beta_grid is None:
        raise UsageError("discrete sweep needs --beta-grid")
    dataset, pclass, oracle, env, stats = _training_setup(args, args.beta_grid)
    rows = []
    for beta in args.beta_grid:
        policy, _ = csc.train_ipw_pl(dataset, beta, oracle, pclass)
        metrics = _policy_metrics(policy, dataset, beta, env, stats, args.alpha)
        row = {"beta": beta, "k": "", "h": "", "objective": metrics["objective"], "pl_hat": metrics["pseudo_loss"]}
        rows.append(row | {key: metrics.get(key, "") for key in ("ucb_risk", "exact_risk")})
    return rows


def _continuous_sweep(args) -> list[dict]:
    beta = 0.1 if args.beta is None else args.beta
    if beta == 0.0:
        raise UsageError("--h-grid-m needs --beta > 0: the ucb_risk slack of every row divides by beta")
    dataset = cont.load_continuous_dataset_jsonl(args.dataset)
    env = _dataset_env(args.env, args.seed, args.dataset, dataset)
    alpha = args.alpha if args.alpha is not None else 0.05
    mu_inf = dataset.min_logging_density
    rows = []
    for h in cont.h_grid(args.h_grid_m):
        k = args.k if args.k is not None else cont.suggest_k(dataset.n, mu_inf, h, alpha)
        policy, objective, pl_hat = cont.train_smoothed(dataset, k, h, beta)
        stats = cont.smoothed_class_stats(h, mu_inf, k**dataset.num_contexts)
        slack = estimators.confidence_slack(stats, dataset.n, alpha, beta)
        row = {
            "beta": beta,
            "k": k,
            "h": h,
            "objective": objective,
            "pl_hat": pl_hat,
            "ucb_risk": objective + slack.value,
            "exact_risk": "",
        }
        if env is not None:
            row["exact_risk"] = simulator.exact_risk(policy, env)
        rows.append(row)
    return rows


def cmd_verify(args) -> int:
    env = _resolve_env(args.env, args.seed)
    if isinstance(env, simulator.ContinuousEnvironment):
        raise UsageError(
            f"verify needs a discrete environment, not '{args.env}'; its continuous checks build their own"
        )
    cfg = verify.VerifyConfig(env=env, reps=args.reps, alpha=args.alpha, seed=args.seed, n=args.n)
    report = verify.run_verification(cfg)
    for check in report["checks"]:
        print(("PASS " if check["passed"] else "FAIL ") + check["name"])
    if args.out:
        _write_json(report, args.out)
    else:
        print(json.dumps(report, sort_keys=True))
    return 0 if report["passed"] else 3


# Flag types: argparse rejects a bad value with exit 2, naming the flag,
# before the command loads anything.


def _number(text: str) -> float:
    """The float `text` spells, or nan if it spells none."""
    try:
        return float(text)
    except ValueError:
        return math.nan


def _nonnegative(text: str) -> float:
    """--beta, --ridge and each --beta-grid entry: a finite number >= 0."""
    value = _number(text)
    if not 0.0 <= value < math.inf:
        raise argparse.ArgumentTypeError(f"must be a finite number >= 0, not '{text}'")
    return value


def _alpha(text: str) -> float:
    """--alpha: a number strictly between 0 and 1."""
    value = _number(text)
    if not 0.0 < value < 1.0:
        raise argparse.ArgumentTypeError(f"must be a number strictly between 0 and 1, not '{text}'")
    return value


def _beta_grid(text: str) -> list[float]:
    values = [_nonnegative(v) for v in text.split(",") if v.strip()]
    if not values:
        raise argparse.ArgumentTypeError("needs at least one beta")
    return values


def _positive_int(text: str) -> int:
    """--k, --h-grid-m, --n and --reps: an integer >= 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, not '{text}'")
    return value


def _reps(text: str) -> int:
    """verify --reps: an integer in [1, 2**32]."""
    value = _positive_int(text)
    if value > 2**32:
        raise argparse.ArgumentTypeError(f"must be at most 2**32, not '{text}'")
    return value


def _seed(text: str) -> int:
    """Every --seed: an integer >= 0, the seeds numpy's generators accept."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be an integer >= 0, not '{text}'")
    return value


# One function per command adds its flags and its handler to its subparser.
# The handler is looked up when the parser is built, so one rebound on this
# module (perfbench's tracer wraps every cmd_*) is the one that runs.


def _generate_flags(gen: argparse.ArgumentParser) -> None:
    gen.add_argument("--env", required=True, help=f"builtin name ({', '.join(BUILTIN_ENVS)}) or env JSON path")
    gen.add_argument("--n", type=_positive_int, required=True)
    gen.add_argument("--seed", type=_seed, required=True)
    gen.add_argument("--out", required=True, help="output prefix")
    gen.set_defaults(func=cmd_generate)


def _train_flags(train: argparse.ArgumentParser) -> None:
    train.add_argument("--dataset", required=True)
    train.add_argument("--class", dest="policy_class", default="all-det")
    train.add_argument("--oracle", choices=["enum", "argmin", "regression"], default="enum")
    train.add_argument("--ridge", type=_nonnegative, default=1e-6)
    train.add_argument("--beta", type=_nonnegative, required=True)
    train.add_argument("--alpha", type=_alpha, default=None)
    train.add_argument("--env", default=None, help="adds exact risk to the metrics")
    train.add_argument("--seed", type=_seed, default=None, help=SEED_HELP)
    train.add_argument("--out", required=True, help="output prefix")
    train.set_defaults(func=cmd_train)


def _evaluate_flags(ev: argparse.ArgumentParser) -> None:
    ev.add_argument("--dataset", required=True)
    ev.add_argument("--policy", required=True)
    ev.add_argument("--beta", type=_nonnegative, required=True)
    ev.add_argument("--env", default=None)
    ev.add_argument("--seed", type=_seed, default=None, help=SEED_HELP)
    ev.add_argument("--out", default=None)
    ev.set_defaults(func=cmd_evaluate)


def _sweep_flags(sweep: argparse.ArgumentParser) -> None:
    sweep.add_argument("--dataset", required=True)
    # The flags of one mode default to None, so the other can reject them (cmd_sweep).
    sweep.add_argument("--class", dest="policy_class", help="discrete mode; default all-det")
    sweep.add_argument("--oracle", choices=["enum", "argmin", "regression"], help="discrete mode; default enum")
    sweep.add_argument("--ridge", type=_nonnegative, help="discrete mode; default 1e-6")
    sweep.add_argument("--beta-grid", type=_beta_grid, help="comma-separated betas (discrete mode)")
    sweep.add_argument("--beta", type=_nonnegative, help="fixed beta (continuous mode); default 0.1")
    sweep.add_argument("--k", type=_positive_int, help="grid size (continuous mode); default suggests per bandwidth")
    sweep.add_argument("--h-grid-m", type=_positive_int, default=None, help="bandwidths 1/1..1/m (continuous mode)")
    sweep.add_argument("--alpha", type=_alpha, default=None)
    sweep.add_argument("--env", default=None)
    sweep.add_argument("--seed", type=_seed, default=None, help=SEED_HELP)
    sweep.add_argument("--out", required=True, help="CSV path")
    sweep.set_defaults(func=cmd_sweep)


def _verify_flags(ver: argparse.ArgumentParser) -> None:
    ver.add_argument("--env", default="demo")
    ver.add_argument("--reps", type=_reps, default=300)
    ver.add_argument("--alpha", type=_alpha, default=0.05)
    ver.add_argument("--n", type=_positive_int, default=500)
    ver.add_argument("--seed", type=_seed, default=0)
    ver.add_argument("--out", default=None, help="report JSON path")
    ver.set_defaults(func=cmd_verify)


# Each command's help line and the function that adds its flags and handler,
# in the order the top-level help lists them.
COMMANDS = {
    "generate": ("simulate a logged dataset from an environment", _generate_flags),
    "train": ("minimize ipw_risk + beta * pseudo_loss via a CSC oracle", _train_flags),
    "evaluate": ("recompute metrics for a saved policy", _evaluate_flags),
    "sweep": ("grid sweep; CSV row per grid point", _sweep_flags),
    "verify": ("run the bound/reduction verification suite", _verify_flags),
}

# The help text is the docstring's first two paragraphs, the part written for users.
DESCRIPTION = "\n\n".join(__doc__.split("\n\n")[:2])


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every command, or of `command` alone.

    argparse reports an unrecognized argument with the top-level usage line,
    so a one-command parser names every command there, as the full parser does.
    """
    parser = argparse.ArgumentParser(prog="plbandit", description=DESCRIPTION)
    metavar = None if command is None else "{" + ",".join(COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in COMMANDS if command is None else [command]:
        help_text, add_flags = COMMANDS[name]
        add_flags(sub.add_parser(name, help=help_text))
    return parser


def _check_paths(args) -> None:
    """The --dataset and --policy files must exist, and every file a command
    writes lies in the directory of its --out path or prefix, which must exist
    too, before the command does any work. `generate` and `train` append
    suffixes to --out, so it needs a file-name part; the other commands write
    --out itself, so it must not be a directory."""
    for flag in ("dataset", "policy"):
        path = getattr(args, flag, None)
        if path is not None and not os.path.exists(path):
            raise UsageError(f"--{flag} {path} does not exist")
    command, out = args.command, args.out
    directory = os.path.dirname(out or "") or "."
    if not os.path.isdir(directory):
        raise UsageError(f"output directory '{directory}' does not exist (--out {out})")
    if command in ("generate", "train"):
        if not os.path.basename(out):
            raise UsageError(f"--out {out} names a directory; give a file-name prefix inside it")
    elif out is not None and os.path.isdir(out):
        raise UsageError(f"--out {out} is a directory; give a file path")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # Only a command named exactly first gets its own parser; anything else
    # (no arguments, -h, an unknown or abbreviated command, a flag before the
    # command) gets the full parser, and so its help and errors.
    command = argv[0] if argv and argv[0] in COMMANDS else None
    args = build_parser(command).parse_args(argv)
    try:
        _check_paths(args)
        return args.func(args)
    except (UsageError, DatasetError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except Exception as err:  # noqa: BLE001 - CLI boundary
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
