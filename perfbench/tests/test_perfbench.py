"""Tests of the benchmark itself: tiny-size smoke runs, the tracer, and the output checks.

Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

import io
import json
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from plbandit import cli, csc, model  # noqa: E402

from perfbench import checks, runner, spec  # noqa: E402
from perfbench.tracer import Tracer, TracerError  # noqa: E402
from perfbench.workloads import ContinuousFlow, DiscreteFlow, VerifyFlow  # noqa: E402

TINY = {
    "discrete-logs": DiscreteFlow(num_contexts=4, num_actions=3, n=300, oracle="argmin"),
    "wide-class": DiscreteFlow(num_contexts=3, num_actions=3, n=200, oracle="enum", alpha=0.05),
    "continuous-sweep": ContinuousFlow(num_contexts=3, n=60, h_grid_m=2),
    "verify-small": VerifyFlow(reps=10, n=60),
}


def test_benchmark_json_matches_spec():
    assert (ROOT / "BENCHMARK.json").read_text() == spec.render_benchmark_json()


def test_every_workload_has_a_flow_and_a_dominance_prediction():
    assert set(TINY) == set(spec.WORKLOADS) == set(spec.FLOW_COMMANDS) == set(spec.DOMINANT)


@pytest.mark.parametrize("name", list(TINY))
def test_smoke_untraced(name, tmp_path):
    result = runner.run_workload(name, 3, 0.2, False, tmp_path, flow=TINY[name], probes=1)
    line = result.json_line()
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 2 * len(spec.FLOW_COMMANDS[name])
    assert list(line["metrics"]) == [m["name"] for m in spec.END_TO_END]
    assert all(m["value"] > 0 for m in line["metrics"].values())
    out = io.StringIO()
    runner.print_result(result, out)
    assert json.loads(out.getvalue().splitlines()[-1]) == line
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("name", list(TINY))
def test_smoke_traced(name, tmp_path):
    result = runner.run_workload(name, 5, 0.2, True, tmp_path, flow=TINY[name])
    line = result.json_line()
    assert line["correct"]
    assert list(line["metrics"]) == [m["name"] for m in spec.per_layer_metrics()]
    for fn in spec.expected_on(name):
        if f"{fn}.self_ms" in line["metrics"]:
            assert line["metrics"][f"{fn}.self_ms"]["value"] > 0, fn
    assert line["metrics"]["csc.oracle_calls_per_train"]["value"] in (0.0, 1.0)
    assert [p.name for p in tmp_path.iterdir()] == [f"trace-{name}-seed5.jsonl.gz"]


def test_tracer_rejects_a_missing_function():
    with pytest.raises(TracerError, match="no_such_function"):
        Tracer(["model.no_such_function"]).install()


def test_tracer_patches_every_binding_and_restores_it(tmp_path):
    original = model.load_dataset_jsonl
    tracer = Tracer()
    flow = TINY["wide-class"]
    env = flow.write_env(tmp_path, 1)
    with tracer.op(1):
        assert cli.load_dataset_jsonl is not original and model.load_dataset_jsonl is cli.load_dataset_jsonl
        for step in flow.steps(tmp_path / "it", env, 1):
            with redirect_stdout(io.StringIO()):
                assert cli.main(step.argv) == 0
    assert model.load_dataset_jsonl is original and cli.load_dataset_jsonl is original
    assert not hasattr(csc.penalized_objective, "__wrapped__")
    by_id = {s[0]: s for s in tracer.spans}
    # Oracle calls made in sweep's worker thread keep the sweep command as an ancestor.
    sweep_solves = []
    for span in tracer.spans:
        if span[2] == "csc.EnumerationOracle.solve":
            parent = span[1]
            while parent in by_id and not by_id[parent][2].startswith("cli."):
                parent = by_id[parent][1]
            sweep_solves.append(by_id[parent][2] if parent in by_id else None)
    assert sweep_solves.count("cli.cmd_sweep") == len(flow.betas)
    assert sweep_solves.count("cli.cmd_train") == 1
    assert tracer.metrics()["csc.oracle_calls_per_train"] == 1.0


def test_missing_layer_fails_the_traced_run(tmp_path):
    result = runner.run_workload("continuous-sweep", 2, 0.1, True, tmp_path, flow=TINY["continuous-sweep"])
    tracer = Tracer()
    with pytest.raises(TracerError, match="no span recorded"):
        runner.finish_trace(result, tracer, tmp_path)


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """Real outputs of one tiny flow per workload, for corrupting."""
    out = {}
    for name, flow in TINY.items():
        workdir = tmp_path_factory.mktemp(name)
        env = flow.write_env(workdir, 7)
        prefix = workdir / "it7"
        codes = {}
        for step in flow.steps(prefix, env, 7):
            with redirect_stdout(io.StringIO()):
                codes[step.command] = cli.main(step.argv)
            assert codes[step.command] in step.ok_codes
        out[name] = (flow, prefix, codes)
    return out


def counted(thunk) -> runner.Tally:
    tally = runner.Tally()
    tally.check("cmd", thunk)
    return tally


@pytest.mark.parametrize("name", ["discrete-logs", "wide-class", "continuous-sweep", "verify-small"])
def test_outputs_pass_their_checks(outputs, name):
    flow, prefix, codes = outputs[name]
    for command, thunk in flow.checks(prefix, 7, codes):
        assert counted(thunk).failed == 0, command


def _edit_lines(path: Path, edit) -> None:
    lines = path.read_text().splitlines()
    path.write_text("\n".join(edit(lines)) + "\n")


def test_corrupt_generated_dataset_counts_as_failed(outputs, tmp_path):
    flow, prefix, _ = outputs["discrete-logs"]
    bad = tmp_path / "d.jsonl"
    shutil.copy(f"{prefix}.dataset.jsonl", bad)
    _edit_lines(bad, lambda lines: lines[:-1])
    assert counted(lambda: checks.check_generated(bad, flow.n, 7, flow.num_actions)).failed == 1
    assert counted(lambda: checks.check_generated(f"{prefix}.dataset.jsonl", flow.n, 8, flow.num_actions)).failed == 1
    _edit_lines(bad, lambda lines: lines[:1] + ["{not json"])
    assert counted(lambda: checks.check_generated(bad, flow.n, 7, flow.num_actions)).failed == 1


@pytest.mark.parametrize("name", ["discrete-logs", "wide-class"])
def test_corrupt_trained_policy_counts_as_failed(outputs, name):
    flow, prefix, _ = outputs[name]
    policy = checks.read_json(f"{prefix}.policy.json")
    wrong = dict(policy, assignment=[(a + 1) % flow.num_actions for a in policy["assignment"]])
    data = f"{prefix}.dataset.jsonl"
    assert counted(lambda: checks.check_train_argmin(data, wrong, flow.beta, flow.num_contexts)).failed == 1
    tabular = dict(policy, type="tabular")
    assert counted(lambda: checks.check_train_argmin(data, tabular, flow.beta, flow.num_contexts)).failed == 1
    dataset = model.load_dataset_jsonl(data)
    assert counted(lambda: checks.check_enum_references(dataset, wrong, flow.beta)).failed == 1


def test_corrupt_evaluate_metrics_count_as_failed(outputs):
    _, prefix, _ = outputs["discrete-logs"]
    train = checks.read_json(f"{prefix}.metrics.json")
    evaluated = checks.read_json(f"{prefix}.eval.json")
    evaluated["objective"] = evaluated["objective"] * (1 + 1e-15) + 1e-15
    assert counted(lambda: checks.check_evaluate_matches_train(train, evaluated)).failed == 1


def test_corrupt_sweep_rows_count_as_failed(outputs):
    flow, prefix, _ = outputs["discrete-logs"]
    rows = checks.read_csv(f"{prefix}.sweep.csv")
    rising = [dict(r, pl_hat=str(10.0 + i)) for i, r in enumerate(rows)]
    assert counted(lambda: checks.check_sweep_path(rising, list(flow.betas))).failed == 1
    assert counted(lambda: checks.check_sweep_path(rows[:-1], list(flow.betas))).failed == 1


def test_corrupt_continuous_rows_count_as_failed(outputs):
    flow, prefix, _ = outputs["continuous-sweep"]
    from plbandit import continuous as cont

    dataset = cont.load_continuous_dataset_jsonl(f"{prefix}.dataset.jsonl")
    rows = checks.read_csv(f"{prefix}.sweep.csv")
    hs = cont.h_grid(flow.h_grid_m)
    shifted = [dict(rows[0], objective=repr(float(rows[0]["objective"]) + 1e-6))] + rows[1:]
    assert counted(lambda: checks.check_continuous_rows(dataset, shifted, flow.beta, hs)).failed == 1
    assert counted(lambda: checks.check_continuous_rows(dataset, rows[:1], flow.beta, hs)).failed == 1


def test_corrupt_verify_report_counts_as_failed(outputs):
    _, prefix, codes = outputs["verify-small"]
    report = checks.read_json(f"{prefix}.verify.json")
    code = codes["verify"]

    def with_check(name, passed):
        return dict(report, checks=[dict(c, passed=passed) if c["name"] == name else c for c in report["checks"]])

    assert counted(lambda: checks.check_verify_report(code, with_check("discrete_reduction", False))).failed == 1
    assert counted(lambda: checks.check_verify_report(code, dict(report, checks=report["checks"][:10]))).failed == 1
    assert counted(lambda: checks.check_verify_report(3 - code, report)).failed == 1
    missed = with_check("unbiasedness", False)
    missed["passed"] = False
    tally = counted(lambda: checks.check_verify_report(3, missed))
    assert tally.failed == 0 and tally.statistical_misses >= 1


def test_benchmark_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "discrete-logs"]
        + ["--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout.strip() == ""
