import contextlib
import csv
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plbandit import continuous as cont
from plbandit import csc, estimators, simulator, verify
from plbandit.cli import main
from plbandit.model import UniformPolicy, save_dataset_jsonl
from plbandit.simulator import random_environment

from continuous_reference import reference_train_smoothed


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture
def generated(tmp_path):
    out = tmp_path / "run"
    assert run("generate", "--env", "hard", "--n", 400, "--seed", 7, "--out", out) == 0
    return tmp_path, f"{out}.dataset.jsonl", f"{out}.env.json"


class TestGenerate:
    def test_deterministic_outputs(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run("generate", "--env", "demo", "--n", 100, "--seed", 3, "--out", a) == 0
        assert run("generate", "--env", "demo", "--n", 100, "--seed", 3, "--out", b) == 0
        assert (tmp_path / "a.dataset.jsonl").read_bytes() == (tmp_path / "b.dataset.jsonl").read_bytes()
        assert (tmp_path / "a.env.json").read_bytes() == (tmp_path / "b.env.json").read_bytes()

    def test_record_count(self, generated):
        _, dataset_path, _ = generated
        with open(dataset_path) as fh:
            lines = fh.read().splitlines()
        assert len(lines) == 401  # header + records
        assert "num_actions" in lines[0]

    def test_n_must_be_positive(self, tmp_path, capsys):
        assert run("generate", "--env", "hard", "--n", 0, "--seed", 1, "--out", tmp_path / "x") == 2
        assert "n must be >= 1" in capsys.readouterr().err

    def test_unknown_env(self, tmp_path):
        assert run("generate", "--env", "nope", "--n", 5, "--seed", 1, "--out", tmp_path / "x") == 2


class TestTrainEvaluate:
    def test_round_trip_metrics_exact(self, generated):
        tmp_path, dataset_path, env_path = generated
        out = tmp_path / "model"
        assert (
            run(
                "train", "--dataset", dataset_path, "--class", "all-det", "--oracle", "enum",
                "--beta", 0.1, "--alpha", 0.05, "--env", env_path, "--out", out,
            )
            == 0
        )
        metrics = json.loads((tmp_path / "model.metrics.json").read_text())
        assert metrics["objective"] == pytest.approx(
            metrics["ipw_risk"] + 0.1 * metrics["pseudo_loss"], abs=1e-12
        )
        assert "ucb_risk" in metrics and "exact_risk" in metrics
        assert run(
            "evaluate", "--dataset", dataset_path, "--policy", tmp_path / "model.policy.json",
            "--beta", 0.1, "--out", tmp_path / "eval.json",
        ) == 0
        evaluated = json.loads((tmp_path / "eval.json").read_text())
        for key in ("ipw_risk", "pseudo_loss", "objective"):
            assert evaluated[key] == metrics[key]

    def test_unknown_oracle_is_usage_error(self, generated):
        tmp_path, dataset_path, _ = generated
        with pytest.raises(SystemExit) as exc:
            run("train", "--dataset", dataset_path, "--oracle", "magic", "--beta", 0.1, "--out", tmp_path / "m")
        assert exc.value.code == 2

    def test_argmin_oracle(self, generated):
        tmp_path, dataset_path, _ = generated
        out = tmp_path / "pw"
        assert run("train", "--dataset", dataset_path, "--oracle", "argmin", "--beta", 0.5, "--out", out) == 0
        policy = json.loads((tmp_path / "pw.policy.json").read_text())
        assert policy["type"] == "deterministic"


    def test_regression_policy_scores_another_dataset(self, tmp_path):
        # The saved policy must score a second dataset of the same length
        # exactly as the in-memory policy does, not replay training rows.
        rng = np.random.default_rng(5)

        def feature_data(path, seed):
            features = rng.random((60, 2))
            labels = (features[:, 0] > features[:, 1]).astype(int)
            data = simulator.supervised_to_bandit(features, labels, UniformPolicy(2), seed=seed)
            save_dataset_jsonl(data, path)
            return data

        first = feature_data(tmp_path / "a.jsonl", 1)
        second = feature_data(tmp_path / "b.jsonl", 2)
        out = tmp_path / "reg"
        assert run(
            "train", "--dataset", tmp_path / "a.jsonl", "--oracle", "regression", "--beta", 0.1, "--out", out
        ) == 0
        assert json.loads((tmp_path / "reg.policy.json").read_text())["type"] == "linear"
        assert run(
            "evaluate", "--dataset", tmp_path / "b.jsonl", "--policy", tmp_path / "reg.policy.json",
            "--beta", 0.1, "--out", tmp_path / "eval.json",
        ) == 0
        evaluated = json.loads((tmp_path / "eval.json").read_text())
        policy = csc.RidgeRegressionOracle(ridge=1e-6).solve(csc.build_modified_costs(first, 0.1))
        assert evaluated["ipw_risk"] == estimators.ipw_risk(policy, second)
        assert evaluated["pseudo_loss"] == estimators.pseudo_loss(policy, second)
        assert evaluated["objective"] == estimators.penalized_objective(policy, second, 0.1)


CLEAN_DATASET = simulator.generate_logs(random_environment((0, 101), 4, 3), 30, seed=3)


class TestCorruptDataset:
    @settings(max_examples=20)
    @given(
        record=st.integers(0, CLEAN_DATASET.n - 1),
        field=st.sampled_from(["action", "id"]),
        offset=st.integers(-3, 3),
    )
    def test_out_of_range_index_exits_two(self, record, field, offset):
        # offset < 0 gives a negative index; offset >= 0 gives bound + offset.
        bound = CLEAN_DATASET.num_actions if field == "action" else CLEAN_DATASET.num_contexts
        bad_value = offset if offset < 0 else bound + offset
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            save_dataset_jsonl(CLEAN_DATASET, tmp / "clean.jsonl")
            lines = (tmp / "clean.jsonl").read_text().splitlines()
            row = json.loads(lines[record + 1])
            if field == "action":
                row["action"] = bad_value
            else:
                row["context"]["id"] = bad_value
            lines[record + 1] = json.dumps(row, sort_keys=True)
            bad = tmp / "bad.jsonl"
            bad.write_text("\n".join(lines) + "\n")
            (tmp / "policy.json").write_text(
                json.dumps({"type": "deterministic", "assignment": [0, 0, 0, 0], "num_actions": 3})
            )
            commands = [
                ["train", "--dataset", bad, "--beta", 0.1, "--out", tmp / "m"],
                ["evaluate", "--dataset", bad, "--policy", tmp / "policy.json", "--beta", 0.1],
                ["sweep", "--dataset", bad, "--beta-grid", "0.1,1", "--out", tmp / "s.csv"],
            ]
            for argv in commands:
                err = io.StringIO()
                with contextlib.redirect_stderr(err):
                    assert run(*argv) == 2
                assert f"at record {record}" in err.getvalue()


CLEAN_CONTINUOUS = simulator.generate_logs(simulator.random_continuous_environment((0, 202), 3), 30, seed=3)


class TestCorruptContinuousDataset:
    @settings(max_examples=20)
    @given(
        record=st.integers(0, CLEAN_CONTINUOUS.n - 1),
        field=st.sampled_from(["loss", "action", "density"]),
        bad=st.sampled_from([-0.25, 1.5, 7.0]),
    )
    def test_corrupt_record_exits_two(self, record, field, bad):
        # A bad loss or action passes the loader and must be caught by the
        # sweep's validation; a density that does not integrate to 1 is
        # rejected by the loader.
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            cont.save_continuous_dataset_jsonl(CLEAN_CONTINUOUS, tmp / "clean.jsonl")
            lines = (tmp / "clean.jsonl").read_text().splitlines()
            row = json.loads(lines[record + 1])
            if field == "density":
                row["density"]["values"] = [v * (1.0 + bad) for v in row["density"]["values"]]
            else:
                row[field] = bad
            lines[record + 1] = json.dumps(row, sort_keys=True)
            (tmp / "bad.jsonl").write_text("\n".join(lines) + "\n")
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = run("sweep", "--dataset", tmp / "bad.jsonl", "--h-grid-m", 2, "--out", tmp / "s.csv")
            assert code == 2
            assert f"at record {record}" in err.getvalue()
            assert not (tmp / "s.csv").exists()


class TestHeaderSeed:
    @pytest.fixture
    def demo7(self, tmp_path):
        out = tmp_path / "d"
        assert run("generate", "--env", "demo", "--n", 200, "--seed", 7, "--out", out) == 0
        policy = tmp_path / "policy.json"
        policy.write_text(json.dumps({"type": "deterministic", "assignment": [0, 1, 2, 0], "num_actions": 3}))
        return tmp_path, f"{out}.dataset.jsonl", f"{out}.env.json", policy

    def commands(self, tmp_path, dataset, policy):
        common = ["--dataset", dataset, "--beta"]
        return {
            "train": ["train", *common, 0.1, "--oracle", "argmin", "--out", tmp_path / "m"],
            "evaluate": ["evaluate", *common, 0.1, "--policy", policy, "--out", tmp_path / "e"],
            "sweep": ["sweep", *common[:2], "--beta-grid", "0.1", "--oracle", "argmin", "--out", tmp_path / "s"],
        }

    def exact_risk(self, tmp_path, command):
        if command == "sweep":
            with open(tmp_path / "s") as fh:
                return float(next(csv.DictReader(fh))["exact_risk"])
        return json.loads((tmp_path / ("m.metrics.json" if command == "train" else "e")).read_text())["exact_risk"]

    @pytest.mark.parametrize("command", ["train", "evaluate", "sweep"])
    def test_builtin_env_uses_header_seed(self, demo7, command):
        tmp_path, dataset, env_file, policy = demo7
        argv = self.commands(tmp_path, dataset, policy)[command]
        assert run(*argv, "--env", env_file) == 0
        from_file = self.exact_risk(tmp_path, command)
        assert run(*argv, "--env", "demo") == 0
        assert self.exact_risk(tmp_path, command) == from_file
        assert run(*argv, "--env", "demo", "--seed", 7) == 0
        assert self.exact_risk(tmp_path, command) == from_file

    @pytest.mark.parametrize("command", ["train", "evaluate", "sweep"])
    def test_contradicting_seed_exits_two(self, demo7, command, capsys):
        tmp_path, dataset, _, policy = demo7
        argv = self.commands(tmp_path, dataset, policy)[command]
        assert run(*argv, "--env", "demo", "--seed", 0) == 2
        assert "contradicts the seed 7" in capsys.readouterr().err

    def test_header_without_seed_needs_flag(self, tmp_path, capsys):
        data = simulator.generate_logs(random_environment((3, 101), 4, 3), 50, seed=3)
        path = tmp_path / "noseed.jsonl"
        save_dataset_jsonl(data, path)
        argv = ["train", "--dataset", path, "--beta", 0.1, "--env", "demo", "--out", tmp_path / "m"]
        assert run(*argv) == 2
        assert "records no seed" in capsys.readouterr().err
        assert run(*argv, "--seed", 3) == 0


class TestSweep:
    def test_discrete_rows_and_pl_monotone(self, generated):
        tmp_path, dataset_path, env_path = generated
        out = tmp_path / "sweep.csv"
        assert (
            run(
                "sweep", "--dataset", dataset_path, "--beta-grid", "0.01,0.1,1",
                "--alpha", 0.05, "--env", env_path, "--out", out,
            )
            == 0
        )
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert [float(r["beta"]) for r in rows] == [0.01, 0.1, 1.0]
        pl_values = [float(r["pl_hat"]) for r in rows]
        assert all(b <= a + 1e-12 for a, b in zip(pl_values, pl_values[1:]))

    def test_continuous_rows(self, tmp_path):
        out = tmp_path / "c"
        assert run("generate", "--env", "demo-continuous", "--n", 80, "--seed", 5, "--out", out) == 0
        csv_path = tmp_path / "csweep.csv"
        assert (
            run(
                "sweep", "--dataset", f"{out}.dataset.jsonl", "--h-grid-m", 4, "--beta", 0.05,
                "--env", f"{out}.env.json", "--out", csv_path,
            )
            == 0
        )
        with open(csv_path) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4
        assert all(r["k"] for r in rows)
        assert [float(r["h"]) for r in rows] == pytest.approx([1.0, 0.5, 1 / 3, 0.25])

    def test_continuous_rows_match_per_record_reference(self, tmp_path):
        out = tmp_path / "c"
        assert run("generate", "--env", "demo-continuous", "--n", 120, "--seed", 5, "--out", out) == 0
        csv_path = tmp_path / "csweep.csv"
        beta, alpha = 0.05, 0.05
        assert run(
            "sweep", "--dataset", f"{out}.dataset.jsonl", "--h-grid-m", 4, "--beta", beta,
            "--env", "demo-continuous", "--out", csv_path,
        ) == 0
        data = cont.load_continuous_dataset_jsonl(f"{out}.dataset.jsonl")
        env = simulator.load_environment(f"{out}.env.json")
        with open(csv_path) as fh:
            rows = list(csv.DictReader(fh))
        assert [float(r["h"]) for r in rows] == cont.h_grid(4)
        for row in rows:
            h, k = float(row["h"]), int(row["k"])
            assert k == cont.suggest_k(data.n, data.min_logging_density, h, alpha)
            policy, objective, pl_hat = reference_train_smoothed(data, k, h, beta)
            assert float(row["objective"]) == pytest.approx(objective, rel=1e-12, abs=1e-12)
            assert float(row["pl_hat"]) == pytest.approx(pl_hat, rel=1e-12, abs=1e-12)
            exact = simulator.exact_risk(policy, env)
            assert float(row["exact_risk"]) == pytest.approx(exact, rel=1e-12, abs=1e-12)

    def test_thread_env_variable(self, generated, monkeypatch):
        tmp_path, dataset_path, _ = generated
        monkeypatch.setenv("OPO_THREADS", "4")
        out = tmp_path / "tsweep.csv"
        assert run("sweep", "--dataset", dataset_path, "--beta-grid", "0.5,0.1,0.01", "--out", out) == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert [float(r["beta"]) for r in rows] == [0.5, 0.1, 0.01]  # grid order preserved


class TestVerify:
    def test_clean_run_exits_zero(self, tmp_path):
        report_path = tmp_path / "report.json"
        code = run("verify", "--env", "demo", "--reps", 40, "--n", 150, "--seed", 0, "--out", report_path)
        assert code == 0
        report = json.loads(report_path.read_text())
        assert report["passed"] and report["num_checks"] == len(verify.ALL_CHECKS)

    def test_zero_propensity_dataset_fails(self, tmp_path, generated):
        _, dataset_path, _ = generated
        lines = open(dataset_path).read().splitlines()
        record = json.loads(lines[1])
        record["propensities"] = [1.0, 0.0, 0.0]
        lines[1] = json.dumps(record, sort_keys=True)
        bad = tmp_path / "bad.jsonl"
        bad.write_text("\n".join(lines) + "\n")
        code = run("verify", "--env", "demo", "--reps", 5, "--n", 50, "--seed", 0, "--dataset", bad)
        assert code == 3


class TestVerifyHarness:
    def test_report_is_json_serializable(self):
        env = random_environment((0, 101), 4, 3)
        cfg = verify.VerifyConfig(env=env, reps=20, alpha=0.05, seed=0, n=100)
        report = verify.run_verification(cfg)
        json.dumps(report)
        names = {c["name"] for c in report["checks"]}
        assert {"discrete_reduction", "continuous_reduction", "smoothing_bounds"} <= names
