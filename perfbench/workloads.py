"""The four workloads: environment files, CLI flows and their output checks.

Each workload is a closed loop with one client. Iteration i runs its flow on
fresh files generated with seed = workload seed + i, and passes that seed to
every command, so no cache keyed on a path or on file contents can carry work
from one iteration to the next. Environments are JSON files written once from
the workload seed; builtin environment names are never used.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from plbandit import continuous as cont
from plbandit import model, simulator

from . import checks

BETAS = (0.01, 0.03, 0.1, 0.3, 1.0)


@dataclass(frozen=True)
class Step:
    command: str
    argv: list[str]
    records: int  # logged records the command produces or consumes
    ok_codes: tuple[int, ...] = (0,)


def _grid(values) -> str:
    return ",".join(repr(float(v)) for v in values)


def _generate(prefix: Path, env_path: Path, n: int, seed: int) -> Step:
    argv = ["generate", "--env", str(env_path), "--n", str(n), "--out", str(prefix), "--seed", str(seed)]
    return Step("generate", argv, n)


def _write_discrete_env(path: Path, seed: int, num_contexts: int, num_actions: int) -> Path:
    env = simulator.random_environment((seed, 101), num_contexts, num_actions)
    simulator.save_environment(env, path, metadata={"seed": seed})
    return path


@dataclass(frozen=True)
class DiscreteFlow:
    """generate -> train -> evaluate -> sweep on a finite-context discrete environment."""

    num_contexts: int
    num_actions: int
    n: int
    oracle: str
    alpha: float | None = None
    beta: float = 0.1
    betas: tuple[float, ...] = BETAS

    def write_env(self, workdir: Path, seed: int) -> Path:
        return _write_discrete_env(workdir / "env.json", seed, self.num_contexts, self.num_actions)

    def first_dataset(self, workdir: Path, env_path: Path, seed: int) -> list[Step]:
        return self.steps(workdir / f"it{seed}", env_path, seed)[:1]

    def steps(self, prefix: Path, env_path: Path, seed: int) -> list[Step]:
        data = f"{prefix}.dataset.jsonl"
        alpha = ["--alpha", repr(self.alpha)] if self.alpha is not None else []
        common = ["--seed", str(seed)]
        return [
            _generate(prefix, env_path, self.n, seed),
            Step(
                "train",
                ["train", "--dataset", data, "--oracle", self.oracle, "--beta", repr(self.beta), "--out", str(prefix)]
                + alpha
                + common,
                self.n,
            ),
            Step(
                "evaluate",
                ["evaluate", "--dataset", data, "--policy", f"{prefix}.policy.json", "--beta", repr(self.beta)]
                + ["--out", f"{prefix}.eval.json"]
                + common,
                self.n,
            ),
            Step(
                "sweep",
                ["sweep", "--dataset", data, "--oracle", self.oracle, "--beta-grid", _grid(self.betas)]
                + ["--out", f"{prefix}.sweep.csv"]
                + alpha
                + common,
                self.n,
            ),
        ]

    def checks(self, prefix: Path, seed: int, codes: dict) -> list:
        data = f"{prefix}.dataset.jsonl"

        def train() -> list[str]:
            policy = checks.read_json(f"{prefix}.policy.json")
            failures = checks.check_train_argmin(data, policy, self.beta, self.num_contexts)
            if self.oracle == "enum":
                failures += checks.check_enum_references(model.load_dataset_jsonl(data), policy, self.beta)
            return failures

        return [
            ("generate", lambda: checks.check_generated(data, self.n, seed, self.num_actions)),
            ("train", train),
            (
                "evaluate",
                lambda: checks.check_evaluate_matches_train(
                    checks.read_json(f"{prefix}.metrics.json"), checks.read_json(f"{prefix}.eval.json")
                ),
            ),
            ("sweep", lambda: checks.check_sweep_path(checks.read_csv(f"{prefix}.sweep.csv"), list(self.betas))),
        ]


def continuous_environment(seed: int, num_contexts: int, pieces: int = 3, min_density: float = 0.5):
    """A continuous environment whose logging densities all have minimum exactly
    `min_density`, so the suggested grid sizes (and the work) do not vary with the seed."""
    rng = np.random.Generator(np.random.Philox((seed, 202)))

    def breaks() -> np.ndarray:
        return np.concatenate([[0.0], np.sort(0.05 + 0.9 * rng.random(pieces - 1)), [1.0]])

    losses, densities = [], []
    for _ in range(num_contexts):
        losses.append(cont.PiecewiseConstant(breaks=breaks(), values=rng.random(pieces)))
        edges = breaks()
        raw = rng.random(pieces)
        raw -= raw.min()
        values = min_density + (1.0 - min_density) * raw / float(np.diff(edges) @ raw)
        densities.append(cont.PiecewiseConstantDensity(breaks=edges, values=values))
    dist = 0.2 + rng.random(num_contexts)
    return simulator.ContinuousEnvironment(
        context_dist=dist / dist.sum(), loss_fns=tuple(losses), logging_densities=tuple(densities)
    )


@dataclass(frozen=True)
class ContinuousFlow:
    """generate -> sweep --h-grid-m over bandwidths 1/1..1/m, grid size suggested per bandwidth."""

    num_contexts: int
    n: int
    h_grid_m: int
    beta: float = 0.05

    def write_env(self, workdir: Path, seed: int) -> Path:
        path = workdir / "env.json"
        simulator.save_environment(continuous_environment(seed, self.num_contexts), path, metadata={"seed": seed})
        return path

    def first_dataset(self, workdir: Path, env_path: Path, seed: int) -> list[Step]:
        return self.steps(workdir / f"it{seed}", env_path, seed)[:1]

    def steps(self, prefix: Path, env_path: Path, seed: int) -> list[Step]:
        common = ["--seed", str(seed)]
        return [
            _generate(prefix, env_path, self.n, seed),
            Step(
                "sweep",
                ["sweep", "--dataset", f"{prefix}.dataset.jsonl", "--h-grid-m", str(self.h_grid_m)]
                + ["--beta", repr(self.beta), "--out", f"{prefix}.sweep.csv"]
                + common,
                self.n,
            ),
        ]

    def checks(self, prefix: Path, seed: int, codes: dict) -> list:
        loaded: list = []

        def dataset():
            if not loaded:
                loaded.append(cont.load_continuous_dataset_jsonl(f"{prefix}.dataset.jsonl"))
            return loaded[0]

        def generate() -> list[str]:
            data = dataset()
            failures = cont.validate_continuous_dataset(data)[:3]
            if data.n != self.n or data.num_contexts != self.num_contexts:
                failures.append(f"{data.n} records over {data.num_contexts} contexts, expected {self.n}")
            return failures

        return [
            ("generate", generate),
            (
                "sweep",
                lambda: checks.check_continuous_rows(
                    dataset(), checks.read_csv(f"{prefix}.sweep.csv"), self.beta, cont.h_grid(self.h_grid_m)
                ),
            ),
        ]


@dataclass(frozen=True)
class VerifyFlow:
    """plbandit verify on a 4-context x 3-action environment file."""

    reps: int
    n: int
    num_contexts: int = 4
    num_actions: int = 3

    def write_env(self, workdir: Path, seed: int) -> Path:
        return _write_discrete_env(workdir / "env.json", seed, self.num_contexts, self.num_actions)

    def first_dataset(self, workdir: Path, env_path: Path, seed: int) -> list[Step]:
        return []

    def steps(self, prefix: Path, env_path: Path, seed: int) -> list[Step]:
        argv = ["verify", "--env", str(env_path), "--reps", str(self.reps), "--n", str(self.n)]
        argv += ["--seed", str(seed), "--out", f"{prefix}.verify.json"]
        return [Step("verify", argv, 0, ok_codes=(0, 3))]

    def checks(self, prefix: Path, seed: int, codes: dict) -> list:
        report = f"{prefix}.verify.json"
        return [("verify", lambda: checks.check_verify_report(codes["verify"], checks.read_json(report)))]


FLOWS = {
    "discrete-logs": DiscreteFlow(num_contexts=4, num_actions=3, n=20_000, oracle="argmin"),
    "wide-class": DiscreteFlow(num_contexts=6, num_actions=4, n=2_000, oracle="enum", alpha=0.05),
    "continuous-sweep": ContinuousFlow(num_contexts=3, n=1_000, h_grid_m=4),
    "verify-small": VerifyFlow(reps=300, n=500),
}
