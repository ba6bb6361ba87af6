import argparse
import contextlib
import csv
import hashlib
import io
import json
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plbandit import continuous as cont
from plbandit import cli, csc, estimators, model, simulator, verify
from plbandit.cli import main
from plbandit.model import ClassStats, save_dataset_jsonl
from plbandit.simulator import random_environment

from continuous_reference import reference_train_smoothed


def run(*argv):
    return main([str(a) for a in argv])


# The two dataset loaders, as the commands call them: a test that patches both
# proves a command stopped before it read its dataset.
LOADERS = [(cli, "load_dataset_jsonl"), (cont, "load_continuous_dataset_jsonl")]


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
        with pytest.raises(SystemExit) as exc:
            run("generate", "--env", "hard", "--n", 0, "--seed", 1, "--out", tmp_path / "x")
        assert exc.value.code == 2
        assert "argument --n: must be an integer >= 1, not '0'" in capsys.readouterr().err

    def test_unknown_env(self, tmp_path):
        assert run("generate", "--env", "nope", "--n", 5, "--seed", 1, "--out", tmp_path / "x") == 2

    def test_help_lists_builtin_envs(self, capsys):
        with pytest.raises(SystemExit):
            run("generate", "--help")
        assert "(hard, demo, demo-continuous)" in " ".join(capsys.readouterr().out.split())

    # SHA-256 of `generate --n 1000 --seed 11` output, pinned at numpy 2.4.6:
    # any change to the bytes a seed produces fails here.
    @pytest.mark.parametrize(
        "env, digest",
        [
            ("demo", "cf3f6c3223421b8c7e7f70c91c2c53937da2cd599515387e6bed0ea77a41d2ed"),
            ("hard", "bbe1aa084b0dc146870ccf5bae9ff664a3c90d970c67cb460319323286f214fd"),
            ("demo-continuous", "37929201f72113ac7c5836597b251dd485f2efb9480ae3a0cc4c8fdf929d58b7"),
        ],
    )
    def test_output_bytes_pinned(self, tmp_path, env, digest):
        assert run("generate", "--env", env, "--n", 1000, "--seed", 11, "--out", tmp_path / "g") == 0
        assert hashlib.sha256((tmp_path / "g.dataset.jsonl").read_bytes()).hexdigest() == digest

    # SHA-256 of the continuous sweep CSV on that log, pinned at numpy 2.4.6:
    # any change to the bits of the continuous estimators fails here.
    def test_continuous_sweep_bytes_pinned(self, tmp_path):
        assert run("generate", "--env", "demo-continuous", "--n", 1000, "--seed", 11, "--out", tmp_path / "g") == 0
        argv = ["--h-grid-m", 6, "--beta", 0.05, "--env", "demo-continuous", "--out", tmp_path / "s.csv"]
        assert run("sweep", "--dataset", tmp_path / "g.dataset.jsonl", *argv) == 0
        digest = "89a5d3d337a23e45bf008f7df59a905afe05bf609b4d6ae9b3320ebcc2177609"
        assert hashlib.sha256((tmp_path / "s.csv").read_bytes()).hexdigest() == digest


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

    def test_ucb_slack_covers_every_logged_row(self, tmp_path):
        # Context 0 is logged with two different propensity rows. The slack
        # must use the smallest propensity of either, in any record order.
        records = [
            {"action": 1, "context": {"id": 0}, "loss": 0.5, "propensities": [0.01, 0.99]},
            {"action": 0, "context": {"id": 0}, "loss": 0.2, "propensities": [0.5, 0.5]},
            {"action": 0, "context": {"id": 1}, "loss": 0.4, "propensities": [0.5, 0.5]},
        ]
        texts = []
        for name, order in (("forward", records), ("reversed", records[::-1])):
            path = tmp_path / f"{name}.jsonl"
            path.write_text("".join(json.dumps(r) + "\n" for r in [{"header": {"num_actions": 2}}, *order]))
            assert run("train", "--dataset", path, "--beta", 0.1, "--alpha", 0.05, "--out", tmp_path / name) == 0
            texts.append((tmp_path / f"{name}.metrics.json").read_text())
        assert texts[0] == texts[1]
        props = np.array([r["propensities"] for r in records])
        # all-det over 2 contexts and 2 actions: 4 members, each pmf at most 1.
        stats = ClassStats(
            pmf_sup=1.0, mu_pmf_inf=float(props.min()), weight_ratio_sup=float((1.0 / props).max()), class_size=4
        )
        assert json.loads(texts[0])["slack"] == estimators.confidence_slack(stats, 3, 0.05, 0.1).as_dict()

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
            data = simulator.supervised_to_bandit(features, labels, np.full((60, 2), 0.5), seed=seed)
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

    def test_regression_rejects_a_non_finite_feature(self, tmp_path, capsys):
        # The ridge fit used to take a NaN feature, exit 0 and save NaN weights.
        features = np.random.default_rng(5).random((20, 2))
        data = simulator.supervised_to_bandit(features, np.zeros(20, dtype=int), np.full((20, 2), 0.5), seed=1)
        save_dataset_jsonl(data, tmp_path / "a.jsonl")
        nan_feature = {2: lambda r: r["context"]["features"].__setitem__(1, float("nan"))}
        bad = rewrite_records(tmp_path / "a.jsonl", tmp_path / "bad.jsonl", nan_feature)
        out = tmp_path / "reg"
        assert run("train", "--dataset", bad, "--oracle", "regression", "--beta", 0.1, "--out", out) == 2
        assert capsys.readouterr().err.strip() == f"error: {bad}: non-finite context feature at record 2"
        assert not (tmp_path / "reg.policy.json").exists()


class TestAllDetSize:
    def test_class_beyond_two_hundred_thousand_members_trains(self, tmp_path):
        # 4**12 = 16.8 M members, which the CLI used to refuse: the class is
        # solved per context and never enumerated.
        env = random_environment((0, 101), 12, 4)
        data = simulator.generate_logs(env, 300, seed=0)
        save_dataset_jsonl(data, tmp_path / "d.jsonl")
        out = tmp_path / "m"
        assert run("train", "--dataset", tmp_path / "d.jsonl", "--beta", 0.1, "--alpha", 0.05, "--out", out) == 0
        policy = json.loads((tmp_path / "m.policy.json").read_text())
        expected = csc.PointwiseArgminOracle().solve(csc.build_modified_costs(data, 0.1))
        assert tuple(policy["assignment"]) == expected.assignment
        props = data.propensities
        stats = ClassStats(
            pmf_sup=1.0, mu_pmf_inf=float(props.min()), weight_ratio_sup=float((1.0 / props).max()), class_size=4**12
        )
        metrics = json.loads((tmp_path / "m.metrics.json").read_text())
        assert metrics["slack"] == estimators.confidence_slack(stats, data.n, 0.05, 0.1).as_dict()

    def test_class_beyond_a_member_index_exits_two(self, tmp_path, capsys):
        path = tmp_path / "d.jsonl"
        record = {"action": 0, "context": {"id": 63}, "loss": 0.5, "propensities": [0.5, 0.5]}
        path.write_text(json.dumps({"header": {"num_actions": 2, "num_contexts": 64}}) + "\n" + json.dumps(record) + "\n")
        assert run("train", "--dataset", path, "--beta", 0.1, "--out", tmp_path / "m") == 2
        assert f"all-det class would have {2**64} members" in capsys.readouterr().err


class TestFlagsTheOracleIgnores:
    @pytest.mark.parametrize("command", ["train", "sweep"])
    @pytest.mark.parametrize("oracle", ["argmin", "regression"])
    @pytest.mark.parametrize("flag", ["--alpha", "--class"])
    def test_exits_two_naming_the_flag(self, generated, capsys, command, oracle, flag):
        # These combinations used to exit 0 with the flag silently dropped.
        tmp_path, dataset_path, _ = generated
        value = {"--alpha": 0.05, "--class": tmp_path / "nonexistent.json"}[flag]
        argv = {
            "train": ["train", "--beta", 0.1, "--out", tmp_path / "m"],
            "sweep": ["sweep", "--beta-grid", "0.1", "--out", tmp_path / "s.csv"],
        }[command]
        assert run(*argv, "--dataset", dataset_path, "--oracle", oracle, flag, value) == 2
        assert f"error: {flag} needs --oracle enum; --oracle {oracle} takes no policy class" in capsys.readouterr().err
        assert not any(tmp_path.glob("m.*")) and not (tmp_path / "s.csv").exists()

    @staticmethod
    def feature_log(path):
        """A 40-record, 2-action log with 2-D feature contexts, saved at `path`."""
        features = np.random.default_rng(0).random((40, 2))
        labels = (features[:, 0] > features[:, 1]).astype(int)
        save_dataset_jsonl(simulator.supervised_to_bandit(features, labels, np.full((40, 2), 0.5), seed=1), path)
        return path

    @pytest.mark.parametrize("command", ["train", "sweep"])
    def test_alpha_on_feature_contexts_exits_two(self, tmp_path, capsys, command):
        # Class statistics need finite contexts; this used to exit 0 with no ucb_risk.
        self.feature_log(tmp_path / "f.jsonl")
        linear = {"type": "linear", "weights": [[1.0, 0.0], [0.0, 1.0]], "intercepts": [0.0, 0.0]}
        (tmp_path / "class.json").write_text(json.dumps({"policies": [linear]}))
        argv = {
            "train": ["train", "--beta", 0.1, "--out", tmp_path / "m"],
            "sweep": ["sweep", "--beta-grid", "0.1", "--out", tmp_path / "s.csv"],
        }[command]
        common = ["--dataset", tmp_path / "f.jsonl", "--class", tmp_path / "class.json"]
        assert run(*argv, *common, "--alpha", 0.05) == 2
        assert f"error: --alpha needs finite contexts; {tmp_path / 'f.jsonl'} has feature contexts" in capsys.readouterr().err
        assert not any(tmp_path.glob("m.*")) and not (tmp_path / "s.csv").exists()
        assert run(*argv, *common) == 0

    @pytest.mark.parametrize("command", ["train", "sweep"])
    @pytest.mark.parametrize(
        "oracle, need, have", [("argmin", "finite", "feature"), ("regression", "feature", "finite")]
    )
    def test_oracle_on_the_other_context_mode_exits_two(self, generated, capsys, command, oracle, need, have):
        # These used to exit 1 after the cost matrix was built.
        tmp_path, dataset_path, _ = generated
        if have == "feature":
            dataset_path = self.feature_log(tmp_path / "f.jsonl")
        argv = {
            "train": ["train", "--beta", 0.1, "--out", tmp_path / "m"],
            "sweep": ["sweep", "--beta-grid", "0.1", "--out", tmp_path / "s.csv"],
        }[command]
        assert run(*argv, "--dataset", dataset_path, "--oracle", oracle) == 2
        err = capsys.readouterr().err
        assert f"error: --oracle {oracle} needs {need} contexts; {dataset_path} has {have} contexts" in err
        assert not any(tmp_path.glob("m.*")) and not (tmp_path / "s.csv").exists()

    def test_default_class_is_accepted(self, generated):
        tmp_path, dataset_path, _ = generated
        argv = ["--dataset", dataset_path, "--oracle", "argmin", "--class", "all-det", "--beta", 0.1]
        assert run("train", *argv, "--out", tmp_path / "m") == 0


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


def run_corrupted(edit, record: int) -> list[tuple[int, str]]:
    """Apply `edit` to one record of a saved CLEAN_DATASET; (exit code, stderr) of train, evaluate, sweep."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        save_dataset_jsonl(CLEAN_DATASET, tmp / "clean.jsonl")
        lines = (tmp / "clean.jsonl").read_text().splitlines()
        lines[record + 1] = edit(json.loads(lines[record + 1]))
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
        results = []
        for argv in commands:
            err, out = io.StringIO(), io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(out):
                results.append((run(*argv), err.getvalue()))
            assert not (tmp / "s.csv").exists()
        return results


class TestMalformedRecord:
    @settings(max_examples=20)
    @given(record=st.integers(0, CLEAN_DATASET.n - 1), key=st.sampled_from(["action", "loss", "propensities", "context"]))
    def test_missing_field_exits_two(self, record, key):
        def edit(row):
            del row[key]
            return json.dumps(row)

        for code, err in run_corrupted(edit, record):
            assert code == 2
            assert f"bad.jsonl: missing key '{key}' at record {record}" in err

    @settings(max_examples=10)
    @given(record=st.integers(0, CLEAN_DATASET.n - 1), line=st.sampled_from(["[1, 2]", '"x"', "7", "null"]))
    def test_line_not_an_object_exits_two(self, record, line):
        for code, err in run_corrupted(lambda row: line, record):
            assert code == 2
            assert f"record is not a JSON object at record {record}" in err

    @settings(max_examples=20)
    @given(
        record=st.integers(0, CLEAN_DATASET.n - 1),
        field=st.sampled_from(["action", "id"]),
        value=st.sampled_from([1.7, 1.0, True, "1"]),
    )
    def test_non_integer_index_exits_two(self, record, field, value):
        # Before, int() truncated 1.7 to 1 and the command exited 0.
        def edit(row):
            (row if field == "action" else row["context"])[field] = value
            return json.dumps(row)

        name = "action" if field == "action" else "context.id"
        for code, err in run_corrupted(edit, record):
            assert code == 2
            assert f"{name} {json.dumps(value)} is not an integer at record {record}" in err


class TestNotUtf8:
    """A dataset byte that is not UTF-8 exits 2 naming the file and the record, not 1 with a codec error."""

    @pytest.mark.parametrize("record", [0, 17])
    def test_discrete_record_exits_two(self, tmp_path, capsys, record):
        path = tmp_path / "bad.jsonl"
        save_dataset_jsonl(CLEAN_DATASET, path)
        lines = path.read_bytes().splitlines(keepends=True)
        lines[record + 1] = lines[record + 1].replace(b'"loss"', b'"lo\xffss"')
        path.write_bytes(b"".join(lines))
        (tmp_path / "policy.json").write_text(
            json.dumps({"type": "deterministic", "assignment": [0, 0, 0, 0], "num_actions": 3})
        )
        commands = [
            ["train", "--dataset", path, "--beta", 0.1, "--out", tmp_path / "m"],
            ["evaluate", "--dataset", path, "--policy", tmp_path / "policy.json", "--beta", 0.1],
            ["sweep", "--dataset", path, "--beta-grid", "0.1,1", "--out", tmp_path / "s.csv"],
        ]
        for argv in commands:
            assert run(*argv) == 2
            assert f"bad.jsonl: invalid UTF-8 byte 0xff at record {record}" in capsys.readouterr().err

    def test_continuous_record_exits_two(self, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        cont.save_continuous_dataset_jsonl(CLEAN_CONTINUOUS, path)
        lines = path.read_bytes().splitlines(keepends=True)
        lines[5] = lines[5].replace(b'"loss"', b'"lo\xffss"')
        path.write_bytes(b"".join(lines))
        assert run("sweep", "--dataset", path, "--h-grid-m", 2, "--out", tmp_path / "s.csv") == 2
        assert "bad.jsonl: invalid UTF-8 byte 0xff at record 4" in capsys.readouterr().err

    def test_header_exits_two(self, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        save_dataset_jsonl(CLEAN_DATASET, path)
        lines = path.read_bytes().splitlines(keepends=True)
        lines[0] = lines[0].replace(b'{"header": {', b'{"header": {"note": "\xff", ')
        path.write_bytes(b"".join(lines))
        assert run("train", "--dataset", path, "--beta", 0.1, "--out", tmp_path / "m") == 2
        assert "bad.jsonl: invalid UTF-8 byte 0xff in the header line" in capsys.readouterr().err


class TestEveryEntryPointValidates:
    @settings(max_examples=20)
    @given(
        record=st.integers(0, CLEAN_DATASET.n - 1),
        field=st.sampled_from(["loss", "propensity", "scale"]),
        value=st.sampled_from([-0.25, 1.5, 7.0, float("nan"), float("inf")]),
    )
    def test_invalid_values_exit_two(self, record, field, value):
        # evaluate and sweep used to score such a file and exit 0.
        def edit(row):
            if field == "loss":
                row["loss"] = value
            elif field == "propensity":
                row["propensities"][0] = value
            else:
                row["propensities"] = [p * (1.0 + value) for p in row["propensities"]]
            return json.dumps(row)

        # The loader rejects the record, naming it and what is wrong with it.
        kinds = {
            "loss": r"(non-finite loss|loss out of \[0,1\])",
            "propensity": "(non-finite propensity|propensities do not sum to 1|zero propensity)",
        }
        for code, err in run_corrupted(edit, record):
            assert code == 2
            kind = kinds["loss" if field == "loss" else "propensity"]
            assert re.search(rf"bad\.jsonl: {kind} at record {record}$", err.strip()), err


def rewrite_records(source, out: Path, edits: dict) -> Path:
    """A copy of a dataset file at `out`, record i edited in place by edits[i]."""
    lines = Path(source).read_text().splitlines()
    for i, edit in edits.items():
        record = json.loads(lines[i + 1])
        edit(record)
        lines[i + 1] = json.dumps(record, sort_keys=True)
    out.write_text("\n".join(lines) + "\n")
    return out


class TestFirstBadRecordInFileOrder:
    """A file with a rejected record 0 and an unloadable record 3 (no loss,
    not JSON, or not UTF-8) exits 2 naming record 0: each loader reads up to
    the first record it cannot turn into columns, and the dataset constructor
    judges every record before that one is named, also when the two records
    fall in different chunks."""

    # How record 3 is made unloadable, for corrupt().
    LATER = ["missing loss", "invalid JSON", "not UTF-8"]
    CHUNKS = (model.CHUNK_BYTES, 1)  # one chunk, then a chunk per line

    @staticmethod
    def corrupt(source, out, key, value, later):
        """`source` with record 0's `key` (or context `id`) set to `value` and
        record 3 unloadable as `later` says; a context id of -1 also drops the
        header's num_contexts."""

        def edit(record):
            (record["context"] if key == "id" else record)[key] = value

        edits = {0: edit, 3: lambda r: r.pop("loss")} if later == "missing loss" else {0: edit}
        lines = rewrite_records(source, out, edits).read_bytes().splitlines(keepends=True)
        if (key, value) == ("id", -1):
            lines[0] = re.sub(rb'"num_contexts": \d+, ', b"", lines[0])
        if later == "invalid JSON":
            lines[4] = b"{bad json\n"
        elif later == "not UTF-8":
            lines[4] = lines[4].replace(b'"loss"', b'"lo\xffss"')
        out.write_bytes(b"".join(lines))
        return out

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("action", 7, "action 7 out of range [0, 3) at record 0"),
            ("propensities", [0.3, 0.3, 0.3], "propensities do not sum to 1 at record 0"),
            ("loss", 1.5, "loss out of [0,1] at record 0"),
            ("id", 4, "context id 4 out of range [0, 4) at record 0"),
            ("id", -1, "context id -1 is negative at record 0"),
        ],
        ids=["action", "propensities", "loss", "context-id-at-count", "negative-context-id-no-count"],
    )
    def test_discrete_train(self, tmp_path, capsys, monkeypatch, key, value, message):
        assert run("generate", "--env", "demo", "--n", 20, "--seed", 0, "--out", tmp_path / "d") == 0
        for later in self.LATER:
            bad = self.corrupt(tmp_path / "d.dataset.jsonl", tmp_path / "bad.jsonl", key, value, later)
            for chunk in self.CHUNKS:
                monkeypatch.setattr(model, "CHUNK_BYTES", chunk)
                assert run("train", "--dataset", bad, "--beta", 0.1, "--out", tmp_path / "m") == 2
                assert capsys.readouterr().err.strip() == f"error: {bad}: {message}"

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("action", 1.5, "action 1.5 out of [0, 1] at record 0"),
            ("action", float("nan"), "action nan out of [0, 1] at record 0"),
            ("loss", 1.5, "loss out of [0,1] at record 0"),
            ("id", 3, "context id 3 out of range [0, 3) at record 0"),
            ("id", -1, "context id -1 is negative at record 0"),
        ],
        ids=["above-one", "nan", "loss", "context-id-at-count", "negative-context-id-no-count"],
    )
    def test_continuous_sweep(self, tmp_path, capsys, monkeypatch, key, value, message):
        assert run("generate", "--env", "demo-continuous", "--n", 20, "--seed", 0, "--out", tmp_path / "c") == 0
        for later in self.LATER:
            bad = self.corrupt(tmp_path / "c.dataset.jsonl", tmp_path / "bad.jsonl", key, value, later)
            for chunk in self.CHUNKS:
                monkeypatch.setattr(model, "CHUNK_BYTES", chunk)
                assert run("sweep", "--dataset", bad, "--h-grid-m", 2, "--out", tmp_path / "s.csv") == 2
                assert capsys.readouterr().err.strip() == f"error: {bad}: {message}"


class TestHeaderEnv:
    @pytest.fixture(scope="class")
    def generated_by_env(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("envs")
        files = {}
        for env, contexts in (("demo", 4), ("hard", 2)):
            assert run("generate", "--env", env, "--n", 200, "--seed", 4, "--out", tmp / env) == 0
            policy = tmp / f"{env}.policy.json"
            policy.write_text(json.dumps({"type": "deterministic", "assignment": [0] * contexts, "num_actions": 3}))
            files[env] = (f"{tmp / env}.dataset.jsonl", policy)
        return tmp, files

    @settings(max_examples=18)
    @given(
        generated=st.sampled_from(["demo", "hard"]),
        requested=st.sampled_from(["demo", "hard", "demo-continuous"]),
        command=st.sampled_from(["train", "evaluate", "sweep"]),
    )
    def test_other_builtin_env_exits_two(self, generated_by_env, generated, requested, command):
        tmp, files = generated_by_env
        dataset, policy = files[generated]
        argv = {
            "train": ["train", "--dataset", dataset, "--beta", 0.1, "--oracle", "argmin", "--out", tmp / "m"],
            "evaluate": ["evaluate", "--dataset", dataset, "--policy", policy, "--beta", 0.1, "--out", tmp / "e"],
            "sweep": ["sweep", "--dataset", dataset, "--beta-grid", "0.1", "--oracle", "argmin", "--out", tmp / "s"],
        }[command]
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = run(*argv, "--env", requested)
        if requested == generated:
            assert code == 0
        else:
            assert code == 2
            assert f"--env {requested} contradicts the env '{generated}'" in err.getvalue()


DELETE = object()
CLEAN_CONTINUOUS = simulator.generate_logs(simulator.random_continuous_environment((0, 202), 3), 30, seed=3)


class TestCorruptContinuousDataset:
    @settings(max_examples=20)
    @given(
        record=st.integers(0, CLEAN_CONTINUOUS.n - 1),
        field=st.sampled_from(["loss", "action", "density"]),
        bad=st.sampled_from([-0.25, 1.5, 7.0]),
    )
    def test_corrupt_record_exits_two(self, record, field, bad):
        # Each is rejected when the dataset is built: a loss or an action
        # outside [0, 1], and a density index outside the header's list.
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            cont.save_continuous_dataset_jsonl(CLEAN_CONTINUOUS, tmp / "clean.jsonl")
            lines = (tmp / "clean.jsonl").read_text().splitlines()
            row = json.loads(lines[record + 1])
            if field == "density":
                row["density"] = round(bad * 4)  # -1, 6 or 28: the header lists 3
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


class TestContinuousLoaderErrors:
    """Each malformed record of a continuous log exits 2 naming the file and the record."""

    @pytest.fixture(scope="class")
    def lines(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("cont") / "clean.jsonl"
        cont.save_continuous_dataset_jsonl(CLEAN_CONTINUOUS, path)
        return path.read_text().splitlines()

    def sweep(self, tmp_path, lines, record, text):
        lines = list(lines)
        lines[record + 1] = text
        (tmp_path / "bad.jsonl").write_text("\n".join(lines) + "\n")
        return run("sweep", "--dataset", tmp_path / "bad.jsonl", "--h-grid-m", 2, "--out", tmp_path / "s.csv")

    @staticmethod
    def edited(line, key, value):
        row = json.loads(line)
        *path, last = key.split(".")
        target = row
        for part in path:
            target = target[part]
        if value is DELETE:
            del target[last]
        else:
            target[last] = value
        return json.dumps(row, sort_keys=True)

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("context.id", DELETE, "missing key 'context.id'"),
            ("action", DELETE, "missing key 'action'"),
            ("loss", DELETE, "missing key 'loss'"),
            ("density", DELETE, "missing key 'density'"),
            ("density", 1.0, "density 1.0 is not an integer"),
            ("context.id", 1.0, "context.id 1.0 is not an integer"),
            ("context.id", True, "context.id true is not an integer"),
            ("context.id", "1", 'context.id "1" is not an integer'),
            ("action", "0.5", 'action "0.5" is not a number'),
            ("action", None, "action null is not a number"),
            ("loss", True, "loss true is not a number"),
            ("loss", [0.5], "loss [0.5] is not a number"),
            ("density", True, "density true is not an integer"),
            ("density", "0", 'density "0" is not an integer'),
            ("action", 1.5, "action 1.5 out of [0, 1]"),
            ("action", -0.25, "action -0.25 out of [0, 1]"),
            ("action", float("nan"), "action nan out of [0, 1]"),
            # A record of the old layout, its density in full.
            (
                "density",
                {"breaks": [0.0, 1.0], "values": [1.0]},
                'density {"breaks": [0.0, 1.0], "values": [1.0]} is not an integer',
            ),
            ("density", 2**63, "density 9223372036854775808 out of range"),
            # The constructor range-checks an index against the header's three densities.
            ("density", 7, "density index 7 out of range [0, 3)"),
            ("density", -1, "density index -1 out of range [0, 3)"),
        ],
    )
    def test_malformed_field_exits_two(self, tmp_path, capsys, lines, key, value, message):
        assert self.sweep(tmp_path, lines, 4, self.edited(lines[5], key, value)) == 2
        assert f"bad.jsonl: {message} at record 4" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["[1, 2]", '"text"', "3", "null"])
    def test_not_an_object_exits_two(self, tmp_path, capsys, lines, text):
        assert self.sweep(tmp_path, lines, 4, text) == 2
        assert "bad.jsonl: record is not a JSON object at record 4" in capsys.readouterr().err

    def test_invalid_json_exits_two(self, tmp_path, capsys, lines):
        assert self.sweep(tmp_path, lines, 4, '{"context": ') == 2
        assert "bad.jsonl: invalid JSON (" in capsys.readouterr().err

    @staticmethod
    def header_edited(line, edit):
        row = json.loads(line)
        edit(row["header"])
        return json.dumps(row, sort_keys=True)

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda h: h.pop("densities"), "header lacks a list of densities"),
            (lambda h: h.update(densities={"breaks": [0.0, 1.0], "values": [1.0]}), "header lacks a list of densities"),
            (lambda h: h["densities"][1]["breaks"].__setitem__(0, False), "header density 1: breaks is not a 1-D"),
            (lambda h: h["densities"][1]["values"].__setitem__(1, True), "header density 1: values is not a 1-D"),
            (lambda h: h["densities"][2]["values"].__setitem__(0, "1.0"), "header density 2: values is not a 1-D"),
            (lambda h: h["densities"][0].pop("values"), "header density 0: missing key 'values'"),
            (lambda h: h["densities"].__setitem__(2, 3), "header density 2: piecewise function is not a JSON object"),
            (
                lambda h: h["densities"][2].update(values=[v * 2 for v in h["densities"][2]["values"]]),
                "header density 2: density must integrate to 1 within 1e-9",
            ),
            (
                lambda h: h["densities"][0].update(breaks=[0.0, 0.5, 1.0], values=[2.0, 0.0]),
                "header density 0: density must be strictly positive",
            ),
        ],
        ids=[
            "missing", "not-a-list", "bool-break", "bool-value", "string-value", "no-values", "not-an-object", "mass-2",
            "zero-piece",
        ],
    )
    def test_bad_header_density_exits_two(self, tmp_path, capsys, lines, edit, message):
        # Named at the header before any record is read: record 4 is not JSON.
        assert self.sweep(tmp_path, [self.header_edited(lines[0], edit), *lines[1:]], 4, "{bad json") == 2
        assert f"bad.jsonl: {message}" in capsys.readouterr().err

    def test_old_layout_exits_two_naming_the_header(self, tmp_path, capsys, lines):
        # Each record carries its density in full, and the header lists none.
        header = self.header_edited(lines[0], lambda h: h.pop("densities"))
        densities = json.loads(lines[0])["header"]["densities"]
        old = [self.edited(line, "density", densities[json.loads(line)["density"]]) for line in lines[1:]]
        (tmp_path / "old.jsonl").write_text("\n".join([header, *old]) + "\n")
        assert run("sweep", "--dataset", tmp_path / "old.jsonl", "--h-grid-m", 2, "--out", tmp_path / "s.csv") == 2
        assert "old.jsonl: header lacks a list of densities" in capsys.readouterr().err
        assert not (tmp_path / "s.csv").exists()

    @pytest.mark.parametrize("command", ["generate", "sweep"])
    def test_env_with_string_loss_values_exits_two(self, tmp_path, capsys, command):
        env_path = tmp_path / "env.json"
        simulator.save_environment(simulator.random_continuous_environment((0, 202), 3), env_path)
        spec = json.loads(env_path.read_text())
        spec["loss"][0]["values"] = [str(v) for v in spec["loss"][0]["values"]]
        env_path.write_text(json.dumps(spec))
        cont.save_continuous_dataset_jsonl(CLEAN_CONTINUOUS, tmp_path / "d.jsonl")
        argv = {
            "generate": ["generate", "--n", 10, "--seed", 3, "--out", tmp_path / "g"],
            "sweep": ["sweep", "--dataset", tmp_path / "d.jsonl", "--h-grid-m", 2, "--out", tmp_path / "s.csv"],
        }[command]
        assert run(*argv, "--env", env_path) == 2
        assert "env.json: values is not a 1-D array of JSON numbers" in capsys.readouterr().err


class TestEnvShape:
    @pytest.fixture
    def files(self, tmp_path):
        assert run("generate", "--env", "demo", "--n", 200, "--seed", 3, "--out", tmp_path / "d") == 0
        assert run("generate", "--env", "hard", "--n", 50, "--seed", 1, "--out", tmp_path / "h") == 0
        assert run("generate", "--env", "demo-continuous", "--n", 60, "--seed", 2, "--out", tmp_path / "c") == 0
        simulator.save_environment(simulator.random_continuous_environment(5, 2), tmp_path / "c2.json")
        c2 = tmp_path / "c2.json"
        assert run("generate", "--env", c2, "--n", 60, "--seed", 2, "--out", tmp_path / "c2") == 0
        for name, num_contexts in (("d", 4), ("h", 2)):
            policy = {"type": "deterministic", "assignment": [0] * num_contexts, "num_actions": 3}
            (tmp_path / f"{name}.policy.json").write_text(json.dumps(policy))
        return tmp_path

    @pytest.mark.parametrize(
        "data, env, command",
        [
            (data, env, command)
            for data, env in (("d", "h"), ("h", "d"), ("d", "c"))
            for command in ("train", "evaluate", "sweep")
        ]
        + [("c", "c2", "sweep"), ("c2", "c", "sweep"), ("c", "d", "sweep")],
    )
    def test_mismatched_env_exits_two(self, files, data, env, command, capsys):
        dataset = files / f"{data}.dataset.jsonl"
        env_file = files / ("c2.json" if env == "c2" else f"{env}.env.json")
        argv = {
            "train": ["train", "--dataset", dataset, "--beta", 0.1, "--out", files / "m"],
            "evaluate": ["evaluate", "--dataset", dataset, "--policy", files / f"{data}.policy.json", "--beta", 0.1],
            "sweep": ["sweep", "--dataset", dataset, "--out", files / "s.csv"]
            + (["--beta-grid", "0.1"] if data in ("d", "h") else ["--h-grid-m", 2]),
        }[command]
        assert run(*argv, "--env", env_file) == 2
        err = capsys.readouterr().err
        assert f"--env {env_file} has" in err and f"but {dataset} has" in err

    def test_matching_env_file_accepted(self, files):
        argv = ["train", "--dataset", files / "h.dataset.jsonl", "--beta", 0.1, "--out", files / "m"]
        assert run(*argv, "--env", files / "h.env.json") == 0


class TestMalformedPolicyFiles:
    VALID = {"type": "deterministic", "assignment": [0, 1, 2, 0], "num_actions": 3}

    @pytest.mark.parametrize(
        "kind, obj, message",
        [
            ("policy", {"assignment": [0, 1, 2, 0], "num_actions": 3}, "policy.json: missing key 'type'"),
            ("class", {"members": [VALID]}, "policy.json: needs a non-empty list under key 'policies'"),
            ("policy", {**VALID, "assignment": [0, 1, 2, 5]}, "policy.json: assignment actions out of range"),
            ("policy", {**VALID, "assignment": [0, 1]}, "policy.json: policy covers 2 contexts, 4 needed"),
            ("policy", {"type": "tabular", "table": [[0.5, 0.5]] * 4}, "policy has 2 actions, the dataset has 3"),
            ("class", {"policies": [VALID, {**VALID, "assignment": [9]}]}, "policy.json: policy 1: assignment"),
            ("class", {"policies": [VALID, {"type": "tabular"}]}, "policy.json: policy 1: missing key 'table'"),
            ("policy", '{"type": ', "policy.json: invalid JSON"),
            ("class", "[", "policy.json: invalid JSON"),
            ("policy", {**VALID, "assignment": [0.9] * 4}, "policy.json: assignment[0] 0.9 is not an integer"),
            ("policy", {**VALID, "assignment": [0, True, 2, 0]}, "policy.json: assignment[1] true is not an integer"),
            ("policy", {**VALID, "num_actions": 3.9}, "policy.json: num_actions 3.9 is not an integer"),
            (
                "policy",
                {"type": "tabular", "table": [["0.5", "0.25", "0.25"]] * 4},
                "policy.json: table is not a 2-D array of JSON numbers",
            ),
            (
                "class",
                {"policies": [VALID, {"type": "tabular", "table": [[0.5, 0.5, False]] * 4}]},
                "policy.json: policy 1: table is not a 2-D array of JSON numbers",
            ),
            ("policy", [1, 2], "policy.json: policy is not a JSON object"),
            ("class", {"policies": [3]}, "policy.json: policy 0: policy is not a JSON object"),
            ("policy", {**VALID, "assignment": 5}, "policy.json: assignment is not a list"),
        ],
    )
    def test_exits_two_naming_the_file(self, tmp_path, kind, obj, message, capsys):
        assert run("generate", "--env", "demo", "--n", 50, "--seed", 3, "--out", tmp_path / "d") == 0
        path = tmp_path / "policy.json"
        path.write_text(obj if isinstance(obj, str) else json.dumps(obj))
        common = ["--dataset", tmp_path / "d.dataset.jsonl", "--beta", 0.1]
        if kind == "policy":
            argv = ["evaluate", *common, "--policy", path]
        else:
            argv = ["train", *common, "--class", path, "--out", tmp_path / "m"]
        assert run(*argv) == 2
        assert message in capsys.readouterr().err


    LINEAR = {"type": "linear", "weights": [[1.0, 0.0], [0.0, 1.0]], "intercepts": [0.0, 0.0]}

    @pytest.mark.parametrize(
        "kind, obj, message",
        [
            ("policy", {"type": "tabular", "table": [[0.5, 0.5]]}, "policy.json: TabularPolicy needs finite"),
            (
                "policy",
                {"type": "deterministic", "assignment": [0], "num_actions": 2},
                "policy.json: DeterministicPolicy needs finite",
            ),
            (
                "policy",
                {**LINEAR, "weights": [[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]]},
                "policy.json: policy weights have 3 rows for 2 features",
            ),
            (
                "policy",
                {**LINEAR, "weights": [1.0, 0.0]},
                "policy.json: linear policy needs 2-D weights and one intercept per column, "
                "not weights of shape (2,) and intercepts of shape (2,)",
            ),
            (
                "class",
                {"policies": [LINEAR, {"type": "tabular", "table": [[0.5, 0.5]]}]},
                "policy.json: policy 1: TabularPolicy needs finite",
            ),
            (
                "policy",
                {**LINEAR, "intercepts": [0.0, 0.0, 0.0]},
                "policy.json: linear policy needs 2-D weights and one intercept per column, "
                "not weights of shape (2, 2) and intercepts of shape (3,)",
            ),
            (
                "policy",
                {**LINEAR, "weights": [["1.0", 0.0], [0.0, 1.0]]},
                "policy.json: weights is not a 2-D array of JSON numbers",
            ),
            ("policy", {**LINEAR, "intercepts": [0.0, None]}, "policy.json: intercepts is not a 1-D array of JSON numbers"),
        ],
    )
    def test_feature_dataset_exits_two_naming_the_file(self, tmp_path, kind, obj, message, capsys):
        features = np.random.default_rng(0).random((40, 2))
        labels = (features[:, 0] > features[:, 1]).astype(int)
        data = simulator.supervised_to_bandit(features, labels, np.full((40, 2), 0.5), seed=1)
        save_dataset_jsonl(data, tmp_path / "f.jsonl")
        path = tmp_path / "policy.json"
        path.write_text(json.dumps(obj))
        common = ["--dataset", tmp_path / "f.jsonl", "--beta", 0.1]
        if kind == "policy":
            argv = ["evaluate", *common, "--policy", path]
        else:
            argv = ["train", *common, "--class", path, "--out", tmp_path / "m"]
        assert run(*argv) == 2
        assert message in capsys.readouterr().err


def continuous_spec(**fields) -> dict:
    """A valid continuous environment spec over four contexts, with `fields` replaced."""
    piece = {"breaks": [0.0, 1.0], "values": [1.0]}
    return {"type": "continuous", "context_dist": [0.25] * 4, "loss": [piece] * 4, "logging_density": [piece] * 4} | fields


class TestMalformedEnvFiles:
    @pytest.fixture(scope="class")
    def dataset(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("envfiles") / "d"
        assert run("generate", "--env", "demo", "--n", 50, "--seed", 3, "--out", out) == 0
        return f"{out}.dataset.jsonl"

    @pytest.mark.parametrize("command", ["generate", "train", "evaluate", "sweep", "verify"])
    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda spec: '{"type": ', "env.json: invalid JSON"),
            (lambda spec: {k: v for k, v in spec.items() if k != "loss_means"}, "env.json: missing key 'loss_means'"),
            (lambda spec: {**spec, "type": "weird"}, 'env.json: unknown environment type "weird"'),
            (lambda spec: {**spec, "bernoulli_noise": "false"}, "env.json: bernoulli_noise is not a JSON boolean"),
            (
                lambda spec: {**spec, "loss_means": [[True, False, True]] * 4},
                "env.json: loss_means is not a 2-D array of JSON numbers",
            ),
            (
                lambda spec: {**spec, "logging_pmf": [["0.5", "0.25", "0.25"]] * 4},
                "env.json: logging_pmf is not a 2-D array of JSON numbers",
            ),
            (
                lambda spec: {**spec, "context_dist": ["0.25"] * 4},
                "env.json: context_dist is not a 1-D array of JSON numbers",
            ),
            # A logging pmf of another shape than loss_means, each a valid pmf table.
            (
                lambda spec: {**spec, "logging_pmf": [[0.5, 0.5]] * 4},
                "env.json: logging_pmf has shape (4, 2), loss_means (4, 3)",
            ),
            (
                lambda spec: {**spec, "loss_means": [row[:2] for row in spec["loss_means"]]},
                "env.json: logging_pmf has shape (4, 3), loss_means (4, 2)",
            ),
            (
                lambda spec: {**spec, "logging_pmf": spec["logging_pmf"] + [[0.5, 0.25, 0.25]]},
                "env.json: logging_pmf has shape (5, 3), loss_means (4, 3)",
            ),
            (lambda spec: [1], "env.json: environment is not a JSON object"),
            (lambda spec: '"hard"', "env.json: environment is not a JSON object"),
            (lambda spec: continuous_spec(loss=5), "env.json: loss is not a list"),
            (lambda spec: continuous_spec(loss="x"), "env.json: loss is not a list"),
            (lambda spec: continuous_spec(loss={"breaks": [0.0, 1.0], "values": [1.0]}), "env.json: loss is not a list"),
            (lambda spec: continuous_spec(logging_density=5), "env.json: logging_density is not a list"),
            (lambda spec: continuous_spec(logging_density="x"), "env.json: logging_density is not a list"),
            (
                lambda spec: continuous_spec(logging_density={"breaks": [0.0, 1.0], "values": [1.0]}),
                "env.json: logging_density is not a list",
            ),
        ],
        ids=[
            "invalid-json",
            "missing-key",
            "unknown-type",
            "string-noise",
            "bool-loss-means",
            "string-logging-pmf",
            "string-context-dist",
            "narrow-logging-pmf",
            "wide-logging-pmf",
            "extra-logging-pmf-row",
            "list",
            "string",
            "int-loss",
            "string-loss",
            "object-loss",
            "int-logging-density",
            "string-logging-density",
            "object-logging-density",
        ],
    )
    def test_exits_two_naming_the_file(self, tmp_path, dataset, command, edit, message, capsys):
        env_path = tmp_path / "env.json"
        simulator.save_environment(random_environment((3, 101), 4, 3), env_path)
        spec = edit(json.loads(env_path.read_text()))
        env_path.write_text(spec if isinstance(spec, str) else json.dumps(spec))
        policy = tmp_path / "policy.json"
        policy.write_text(json.dumps({"type": "deterministic", "assignment": [0, 1, 2, 0], "num_actions": 3}))
        argv = {
            "generate": ["generate", "--n", 10, "--seed", 3, "--out", tmp_path / "g"],
            "train": ["train", "--dataset", dataset, "--beta", 0.1, "--out", tmp_path / "m"],
            "evaluate": ["evaluate", "--dataset", dataset, "--policy", policy, "--beta", 0.1],
            "sweep": ["sweep", "--dataset", dataset, "--beta-grid", "0.1", "--out", tmp_path / "s.csv"],
            "verify": ["verify", "--reps", 5, "--n", 50],
        }[command]
        assert run(*argv, "--env", env_path) == 2
        assert message in capsys.readouterr().err


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

    @pytest.mark.parametrize("command", ["train", "evaluate", "sweep"])
    @pytest.mark.parametrize("seed", ["7.0", "-7", "true", '"7"'])
    def test_header_seed_not_an_integer_exits_two(self, demo7, command, seed, capsys):
        tmp_path, dataset, _, policy = demo7
        path = Path(dataset)
        path.write_text(path.read_text().replace('"seed": 7', f'"seed": {seed}', 1))
        argv = self.commands(tmp_path, dataset, policy)[command]
        for given in ([], ["--seed", 7]):
            assert run(*argv, "--env", "demo", *given) == 2
            assert f"error: {dataset}: header seed {seed} is not an integer >= 0" in capsys.readouterr().err

    def test_large_header_seed_is_used(self, tmp_path):
        seed = 2**70
        out = tmp_path / "big"
        assert run("generate", "--env", "demo", "--n", 50, "--seed", seed, "--out", out) == 0
        argv = ["train", "--dataset", f"{out}.dataset.jsonl", "--beta", 0.1, "--oracle", "argmin"]
        assert run(*argv, "--env", f"{out}.env.json", "--out", tmp_path / "file") == 0
        assert run(*argv, "--env", "demo", "--out", tmp_path / "builtin") == 0
        from_file, builtin = (json.loads((tmp_path / f"{m}.metrics.json").read_text()) for m in ("file", "builtin"))
        assert builtin["exact_risk"] == from_file["exact_risk"]

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

    @pytest.mark.parametrize("k", [None, 3])
    def test_continuous_ucb_risk_is_objective_plus_the_smoothed_slack(self, tmp_path, k):
        out = tmp_path / "c"
        assert run("generate", "--env", "demo-continuous", "--n", 120, "--seed", 5, "--out", out) == 0
        csv_path, beta = tmp_path / "csweep.csv", 0.05
        k_flag = [] if k is None else ["--k", k]
        argv = ["sweep", "--dataset", f"{out}.dataset.jsonl", "--h-grid-m", 4, "--beta", beta, *k_flag]
        assert run(*argv, "--out", csv_path) == 0
        data = cont.load_continuous_dataset_jsonl(f"{out}.dataset.jsonl")
        with open(csv_path) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4
        for row in rows:
            h, k_row = float(row["h"]), int(row["k"])
            stats = cont.smoothed_class_stats(h, data.min_logging_density, k_row**data.num_contexts)
            slack = estimators.confidence_slack(stats, data.n, 0.05, beta).value
            assert float(row["ucb_risk"]) == float(row["objective"]) + slack

    def test_continuous_sweep_over_a_class_beyond_the_float_range(self, tmp_path):
        """600 contexts make the smoothed class k**600 members, too many for a
        float; ln(4|C|/alpha) must still be finite."""
        env_path = tmp_path / "env.json"
        simulator.save_environment(simulator.random_continuous_environment((1, 2), 600), env_path)
        out = tmp_path / "c"
        assert run("generate", "--env", env_path, "--n", 3000, "--seed", 0, "--out", out) == 0
        csv_path = tmp_path / "csweep.csv"
        assert run("sweep", "--dataset", f"{out}.dataset.jsonl", "--h-grid-m", 2, "--out", csv_path) == 0
        with open(csv_path) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        for row in rows:
            assert int(row["k"]) ** 600 > 2**1024
            assert np.isfinite(float(row["ucb_risk"])) and float(row["ucb_risk"]) > float(row["objective"])

    def test_rows_in_grid_order(self, generated):
        tmp_path, dataset_path, _ = generated
        out = tmp_path / "tsweep.csv"
        assert run("sweep", "--dataset", dataset_path, "--beta-grid", "0.5,0.1,0.01", "--out", out) == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert [float(r["beta"]) for r in rows] == [0.5, 0.1, 0.01]  # grid order preserved

    @pytest.mark.parametrize("enum_alpha_env", [True, False], ids=["enum-alpha-env", "argmin"])
    def test_rows_equal_train_at_each_beta(self, generated, enum_alpha_env):
        tmp_path, dataset_path, env_path = generated
        options = ["--oracle", "enum", "--alpha", 0.05, "--env", env_path] if enum_alpha_env else ["--oracle", "argmin"]
        betas = [0.01, 0.1, 1.0]
        out = tmp_path / "sweep.csv"
        grid = ",".join(map(str, betas))
        assert run("sweep", "--dataset", dataset_path, "--beta-grid", grid, *options, "--out", out) == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        for beta, row in zip(betas, rows, strict=True):
            prefix = tmp_path / f"train-{beta}"
            assert run("train", "--dataset", dataset_path, "--beta", beta, *options, "--out", prefix) == 0
            metrics = json.loads(Path(f"{prefix}.metrics.json").read_text())
            for column, key in [
                ("objective", "objective"),
                ("pl_hat", "pseudo_loss"),
                ("ucb_risk", "ucb_risk"),
                ("exact_risk", "exact_risk"),
            ]:
                if enum_alpha_env or key in ("objective", "pseudo_loss"):
                    assert float(row[column]) == metrics[key]
                else:
                    assert row[column] == "" and key not in metrics
            # evaluate scores the trained policy through the same metrics as train.
            env = ["--env", env_path] if enum_alpha_env else []
            policy = f"{prefix}.policy.json"
            assert run("evaluate", "--dataset", dataset_path, "--policy", policy, "--beta", beta, *env, "--out", out) == 0
            evaluated = json.loads(out.read_text())
            for key in ("ipw_risk", "pseudo_loss", "objective", "exact_risk"):
                assert evaluated.get(key) == metrics.get(key)
            assert ("exact_risk" in evaluated) == enum_alpha_env


class TestMissingOutDirectory:
    @pytest.fixture
    def no_work(self, monkeypatch):
        """Make loading, generating and verifying fail the command (exit 1) if reached."""

        def reached(*args, **kwargs):
            raise AssertionError("work started before --out was checked")

        for target, name in LOADERS + [(simulator, "generate_logs"), (verify, "run_verification")]:
            monkeypatch.setattr(target, name, reached)

    @pytest.mark.parametrize(
        "command, argv",
        [
            ("generate", ["--env", "demo", "--n", 10, "--seed", 1]),
            ("train", ["--dataset", "{d}", "--beta", 0.1]),
            ("evaluate", ["--dataset", "{d}", "--policy", "{d}", "--beta", 0.1]),
            ("sweep", ["--dataset", "{d}", "--beta-grid", "0.1,1"]),
            ("verify", ["--env", "demo", "--reps", 5, "--n", 50]),
        ],
    )
    def test_exits_two_naming_the_directory(self, generated, no_work, capsys, command, argv):
        tmp_path, dataset_path, _ = generated
        before = sorted(tmp_path.iterdir())
        missing = tmp_path / "nodir"
        argv = [dataset_path if a == "{d}" else a for a in argv]
        assert run(command, *argv, "--out", missing / "x") == 2
        assert f"output directory '{missing}' does not exist" in capsys.readouterr().err
        assert sorted(tmp_path.iterdir()) == before

    def test_prefix_ending_in_a_separator_names_that_directory(self, tmp_path, capsys):
        prefix = f"{tmp_path / 'nodir'}/"
        assert run("generate", "--env", "demo", "--n", 10, "--seed", 1, "--out", prefix) == 2
        assert f"output directory '{tmp_path / 'nodir'}' does not exist" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, argv, out, message",
        [
            ("generate", ["--env", "demo", "--n", 10, "--seed", 1], "{dir}/", "--out {dir}/ names a directory"),
            ("train", ["--dataset", "{d}", "--beta", 0.1], "{dir}/", "--out {dir}/ names a directory"),
            ("evaluate", ["--dataset", "{d}", "--policy", "{d}", "--beta", 0.1], "{dir}", "--out {dir} is a directory"),
            ("sweep", ["--dataset", "{d}", "--beta-grid", "0.1,1"], "{dir}", "--out {dir} is a directory"),
            ("verify", ["--env", "demo", "--reps", 5, "--n", 50], "{dir}", "--out {dir} is a directory"),
        ],
    )
    def test_out_naming_a_directory_exits_two(self, generated, no_work, capsys, command, argv, out, message):
        tmp_path, dataset_path, _ = generated
        directory = tmp_path / "outdir"
        directory.mkdir()
        argv = [dataset_path if a == "{d}" else a for a in argv]
        assert run(command, *argv, "--out", out.format(dir=directory)) == 2
        assert message.format(dir=directory) in capsys.readouterr().err
        assert list(directory.iterdir()) == []


class TestFlagValues:
    """A bad --beta, --beta-grid entry, --ridge, --alpha, --k, --h-grid-m,
    --reps or verify --n exits 2 naming the flag, before any file is loaded
    or any check runs."""

    BASE = {
        "train": ["train", "--dataset", "{d}", "--beta", "0.1", "--out", "{o}"],
        "evaluate": ["evaluate", "--dataset", "{d}", "--policy", "{d}", "--beta", "0.1"],
        "continuous sweep": ["sweep", "--dataset", "{d}", "--h-grid-m", "2", "--out", "{o}.csv"],
        "discrete sweep": ["sweep", "--dataset", "{d}", "--beta-grid", "0.1", "--out", "{o}.csv"],
        "verify": ["verify", "--env", "demo", "--reps", "5", "--n", "50"],
    }

    @pytest.mark.parametrize(
        "command, flag, value",
        [
            ("train", "--beta", "nan"),
            ("train", "--beta", "inf"),
            ("train", "--beta", "1e400"),
            ("train", "--beta", "-1"),
            ("evaluate", "--beta", "nan"),
            ("evaluate", "--beta", "inf"),
            ("evaluate", "--beta", "-1"),
            ("continuous sweep", "--beta", "nan"),
            ("continuous sweep", "--beta", "-inf"),
            ("continuous sweep", "--beta", "-1"),
            ("discrete sweep", "--beta-grid", "-0.1,0.1"),
            ("discrete sweep", "--beta-grid", "0.1,nan"),
            ("discrete sweep", "--beta-grid", "0.1,1e400"),
            ("discrete sweep", "--beta-grid", "0.1,x"),
            ("discrete sweep", "--beta-grid", ","),
            ("continuous sweep", "--h-grid-m", "0"),
            ("continuous sweep", "--k", "0"),
            ("continuous sweep", "--k", "-2"),
            ("train", "--ridge", "-1"),
            ("train", "--ridge", "nan"),
            ("discrete sweep", "--ridge", "-1"),
            ("train", "--alpha", "nan"),
            ("train", "--alpha", "1"),
            ("train", "--alpha", "x"),
            ("continuous sweep", "--alpha", "2"),
            ("continuous sweep", "--alpha", "nan"),
            ("discrete sweep", "--alpha", "0"),
            ("discrete sweep", "--alpha", "-0.5"),
            ("verify", "--alpha", "inf"),
            ("verify", "--reps", "0"),
            ("verify", "--reps", "-3"),
            ("verify", "--reps", "4294967297"),
            ("verify", "--n", "0"),
            ("verify", "--alpha", "1.5"),
            ("verify", "--alpha", "0"),
        ],
    )
    def test_exits_two_naming_the_flag(self, generated, monkeypatch, capsys, command, flag, value):
        def reached(*args, **kwargs):
            raise AssertionError("a file was loaded or a check ran before the flags were checked")

        for target, name in LOADERS + [(verify, "run_verification")]:
            monkeypatch.setattr(target, name, reached)
        tmp_path, dataset_path, _ = generated
        argv = [a.format(d=dataset_path, o=tmp_path / "out") for a in self.BASE[command]]
        with pytest.raises(SystemExit) as exc:
            run(*argv, f"{flag}={value}")
        assert exc.value.code == 2
        assert f"argument {flag}: " in capsys.readouterr().err

    def test_zero_beta_is_accepted(self, generated):
        tmp_path, dataset_path, _ = generated
        assert run("train", "--dataset", dataset_path, "--beta", "0", "--out", tmp_path / "m") == 0
        assert run("sweep", "--dataset", dataset_path, "--beta-grid", "0,0.1", "--out", tmp_path / "s.csv") == 0


class TestCrossFlagUsage:
    """Flag combinations the command cannot honour exit 2 naming the flags,
    before the dataset is loaded and before any output is written."""

    @pytest.fixture
    def no_load(self, monkeypatch):
        def reached(*args, **kwargs):
            raise AssertionError("the dataset was loaded before the flags were checked")

        for target, name in LOADERS:
            monkeypatch.setattr(target, name, reached)

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["train", "--beta", "0", "--alpha", "0.05"], "--alpha needs beta > 0, not --beta 0"),
            (["train", "--beta", "-0", "--alpha", "0.05"], "--alpha needs beta > 0, not --beta 0"),
            (["sweep", "--beta-grid", "0.1,0", "--alpha", "0.05"], "--alpha needs beta > 0, not a 0 in --beta-grid"),
            (["sweep", "--h-grid-m", "2", "--beta", "0"], "--h-grid-m needs --beta > 0"),
            (["sweep", "--h-grid-m", "2", "--beta", "0", "--alpha", "0.05"], "--h-grid-m needs --beta > 0"),
        ],
        ids=["train", "train-negative-zero", "discrete-sweep", "continuous-sweep", "continuous-sweep-alpha"],
    )
    def test_zero_beta_with_a_ucb_exits_two(self, generated, no_load, capsys, argv, message):
        tmp_path, dataset_path, _ = generated
        before = sorted(tmp_path.iterdir())
        assert run(*argv, "--dataset", dataset_path, "--out", tmp_path / "out") == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert sorted(tmp_path.iterdir()) == before

    @pytest.mark.parametrize(
        "mode, argv, flag",
        [
            ("--h-grid-m", ["--beta-grid", "5,6"], "--beta-grid"),
            ("--h-grid-m", ["--class", "nope.json"], "--class"),
            ("--h-grid-m", ["--class", "all-det"], "--class"),
            ("--h-grid-m", ["--oracle", "regression"], "--oracle"),
            ("--h-grid-m", ["--oracle", "enum"], "--oracle"),
            ("--h-grid-m", ["--ridge", "1"], "--ridge"),
            ("--beta-grid", ["--k", "3"], "--k"),
            ("--beta-grid", ["--beta", "7"], "--beta"),
            ("--beta-grid", ["--beta", "0.1"], "--beta"),
        ],
    )
    def test_sweep_flag_of_the_other_mode_exits_two(self, generated, no_load, capsys, mode, argv, flag):
        tmp_path, dataset_path, _ = generated
        value = "2" if mode == "--h-grid-m" else "0.1"
        out = tmp_path / "s.csv"
        assert run("sweep", "--dataset", dataset_path, mode, value, *argv, "--out", out) == 2
        kind = "continuous sweep (--h-grid-m)" if mode == "--h-grid-m" else "discrete sweep (no --h-grid-m)"
        assert f"error: {flag} does not apply to a {kind}" in capsys.readouterr().err
        assert not out.exists()


class TestMissingInputFile:
    @pytest.mark.parametrize(
        "command, argv, flag",
        [
            ("train", ["--dataset", "{m}", "--beta", 0.1, "--out", "{o}"], "--dataset"),
            ("evaluate", ["--dataset", "{m}", "--policy", "{d}", "--beta", 0.1], "--dataset"),
            ("evaluate", ["--dataset", "{d}", "--policy", "{m}", "--beta", 0.1], "--policy"),
            ("sweep", ["--dataset", "{m}", "--beta-grid", "0.1", "--out", "{o}"], "--dataset"),
        ],
    )
    def test_exits_two_naming_the_flag_and_path(self, generated, monkeypatch, capsys, command, argv, flag):
        monkeypatch.setattr(verify, "run_verification", lambda cfg: pytest.fail("verify ran"))
        tmp_path, dataset_path, _ = generated
        missing = tmp_path / "absent.jsonl"
        values = {"{m}": missing, "{d}": dataset_path, "{o}": tmp_path / "out"}
        assert run(command, *[values.get(a, a) for a in argv]) == 2
        assert f"error: {flag} {missing} does not exist" in capsys.readouterr().err


class TestVerify:
    def test_clean_run_exits_zero(self, tmp_path):
        report_path = tmp_path / "report.json"
        code = run("verify", "--env", "demo", "--reps", 40, "--n", 150, "--seed", 0, "--out", report_path)
        assert code == 0
        report = json.loads(report_path.read_text())
        assert report["passed"] and report["num_checks"] == len(verify.ALL_CHECKS)

    @staticmethod
    def dataset_validation(tmp_path, monkeypatch, blind) -> tuple[int, dict]:
        """verify's exit code and dataset_validation entry with LoggedDataset's
        record check fed `blind`'s edit of its arrays."""
        real = model._record_fault
        monkeypatch.setattr(model, "_record_fault", lambda *arrays: real(*blind(*arrays)))
        report_path = tmp_path / "report.json"
        code = run("verify", "--env", "demo", "--reps", 5, "--n", 50, "--seed", 0, "--out", report_path)
        checks = json.loads(report_path.read_text())["checks"]
        return code, next(c for c in checks if c["name"] == "dataset_validation")

    def test_zero_propensity_dataset_fails(self, tmp_path, monkeypatch):
        # With the row rule patched out (every row read as uniform), the
        # planted row faults get through and the check fails.
        def blind(contexts, actions, losses, p, num_contexts):
            return contexts, actions, losses, np.full_like(p, 1.0 / p.shape[1]), num_contexts

        code, check = self.dataset_validation(tmp_path, monkeypatch, blind)
        assert code == 3 and not check["passed"]
        assert [m["fault"] for m in check["details"]["missed"]] == [
            "non-finite propensity",
            "propensities do not sum to 1",
            "zero propensity",
        ]

    def test_out_of_range_loss_fails_dataset_validation(self, tmp_path, monkeypatch):
        # With the loss rule patched out (every loss read as 0), the planted
        # losses get through and the check fails, naming what was accepted.
        def blind(contexts, actions, losses, p, num_contexts):
            return contexts, actions, np.zeros_like(losses), p, num_contexts

        code, check = self.dataset_validation(tmp_path, monkeypatch, blind)
        assert code == 3 and not check["passed"]
        assert check["details"]["missed"] == [
            {"fault": "non-finite loss", "record": 54, "constructor": "accepted"},
            {"fault": "loss out of [0,1]", "record": 72, "constructor": "accepted"},
        ]

    def test_clean_run_plants_every_fault(self, tmp_path):
        report_path = tmp_path / "report.json"
        assert run("verify", "--env", "hard", "--reps", 5, "--n", 50, "--seed", 3, "--out", report_path) == 0
        check = json.loads(report_path.read_text())["checks"][0]
        assert check["name"] == "dataset_validation" and check["passed"]
        assert check["details"] == {"planted": 11, "missed": []}

    def test_dataset_flag_is_gone(self, generated, capsys):
        # Every log is checked when it is built, so verify no longer reads one.
        with pytest.raises(SystemExit) as exc:
            run("verify", "--env", "demo", "--reps", 5, "--dataset", generated[1])
        assert exc.value.code == 2
        assert "unrecognized arguments: --dataset" in capsys.readouterr().err

    def test_continuous_env_is_usage_error(self, capsys):
        assert run("verify", "--env", "demo-continuous", "--reps", 5, "--n", 50) == 2
        assert "verify needs a discrete environment" in capsys.readouterr().err


class TestVerifyHarness:
    def test_report_is_json_serializable(self):
        env = random_environment((0, 101), 4, 3)
        cfg = verify.VerifyConfig(env=env, reps=20, alpha=0.05, seed=0, n=100)
        report = verify.run_verification(cfg)
        json.dumps(report)
        names = {c["name"] for c in report["checks"]}
        assert {"discrete_reduction", "continuous_reduction", "smoothing_bounds"} <= names

    def test_each_check_reports_its_seconds(self):
        env = random_environment((0, 101), 3, 2)
        cfg = verify.VerifyConfig(env=env, reps=5, alpha=0.05, seed=0, n=50)
        report = verify.run_verification(cfg)
        assert len(report["checks"]) == report["num_checks"] == len(verify.ALL_CHECKS)
        for check in report["checks"]:
            assert isinstance(check["seconds"], float) and check["seconds"] >= 0.0


class TestSeedFlag:
    """A negative or non-integer --seed exits 2 naming the flag, before any
    file is loaded, any log is generated or any check runs."""

    ARGV = {
        "generate": ["--env", "demo", "--n", 10, "--out", "{o}"],
        "train": ["--dataset", "{d}", "--beta", 0.1, "--env", "hard", "--out", "{o}"],
        "evaluate": ["--dataset", "{d}", "--policy", "{d}", "--beta", 0.1, "--env", "hard"],
        "sweep": ["--dataset", "{d}", "--beta-grid", "0.1", "--env", "hard", "--out", "{o}.csv"],
        "verify": ["--env", "demo", "--reps", 5, "--n", 50],
    }

    @pytest.mark.parametrize("value", ["-1", "-7", "x", "1.5"])
    @pytest.mark.parametrize("command", list(ARGV))
    def test_exits_two_naming_the_flag(self, generated, monkeypatch, capsys, command, value):
        def reached(*args, **kwargs):
            raise AssertionError("work started before --seed was checked")

        for target, name in LOADERS + [(simulator, "generate_logs"), (verify, "run_verification")]:
            monkeypatch.setattr(target, name, reached)
        tmp_path, dataset_path, _ = generated
        before = sorted(tmp_path.iterdir())
        values = {"{d}": dataset_path, "{o}": tmp_path / "out", "{o}.csv": tmp_path / "out.csv"}
        with pytest.raises(SystemExit) as exc:
            run(command, *[values.get(a, a) for a in self.ARGV[command]], f"--seed={value}")
        assert exc.value.code == 2
        assert f"argument --seed: must be an integer >= 0, not '{value}'" in capsys.readouterr().err
        assert sorted(tmp_path.iterdir()) == before

    def test_zero_is_accepted(self, tmp_path):
        assert run("generate", "--env", "demo", "--n", 10, "--seed", 0, "--out", tmp_path / "g") == 0


def parsed(call) -> tuple[object, str, str]:
    """The SystemExit code, stdout and stderr of `call()`, which must exit."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with pytest.raises(SystemExit) as exc:
            call()
    return exc.value.code, out.getvalue(), err.getvalue()


class TestDispatch:
    """main builds the parser of the command it runs, and reads exactly as the
    full parser: every help text and usage error is the full parser's."""

    COMPLETE = {
        "generate": ["--env", "demo", "--n", "1", "--seed", "0", "--out", "x"],
        "train": ["--dataset", "d", "--beta", "0.1", "--out", "x"],
        "evaluate": ["--dataset", "d", "--policy", "p", "--beta", "0.1"],
        "sweep": ["--dataset", "d", "--out", "x"],
        "verify": [],
    }
    BAD_VALUE = {
        "generate": ["--n", "0"],
        "train": ["--beta", "nan"],
        "evaluate": ["--beta", "-1"],
        "sweep": ["--k", "0"],
        "verify": ["--reps", "0"],
    }
    CASES = (
        [["-h"], [], ["bogus"], ["tra"], ["-x", "train"]]
        + [[c, "-h"] for c in cli.COMMANDS]
        + [[c] for c in cli.COMMANDS if c != "verify"]
        + [[c, *argv] for c, argv in BAD_VALUE.items()]
        + [[c, *argv, "--bogus"] for c, argv in COMPLETE.items()]
    )

    @pytest.mark.parametrize("argv", CASES, ids=" ".join)
    def test_reads_as_the_full_parser(self, argv):
        expected = parsed(lambda: cli.build_parser().parse_args(argv))
        assert parsed(lambda: main(argv)) == expected
        assert expected[0] in (0, 2)

    def test_no_argv_reads_sys_argv(self, monkeypatch):
        expected = parsed(lambda: cli.build_parser().parse_args(["train", "-h"]))
        monkeypatch.setattr("sys.argv", ["plbandit", "train", "-h"])
        assert parsed(main) == expected
        assert expected[1].startswith("usage: plbandit train ")

    @staticmethod
    def choices(parser) -> list[str]:
        (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        return list(subparsers.choices)

    def test_a_command_gets_a_parser_of_its_own(self, generated, monkeypatch):
        built, build_parser = [], cli.build_parser

        def spy(command=None):
            built.append(build_parser(command))
            return built[-1]

        monkeypatch.setattr(cli, "build_parser", spy)
        tmp_path, dataset_path, _ = generated
        assert run("train", "--dataset", dataset_path, "--beta", 0.1, "--out", tmp_path / "m") == 0
        assert [self.choices(parser) for parser in built] == [["train"]]

    def test_the_full_parser_has_every_command(self):
        assert self.choices(cli.build_parser()) == list(cli.COMMANDS) == [
            "generate",
            "train",
            "evaluate",
            "sweep",
            "verify",
        ]
