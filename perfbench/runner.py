"""Closed-loop runner: set-up probes, timed CLI flows, output checks and metrics."""

from __future__ import annotations

import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from contextlib import nullcontext, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np
from plbandit import cli

from . import spec
from .tracer import Tracer, TracerError
from .workloads import FLOWS

PROBE = Path(__file__).resolve().parent / "setup_probe.py"

# Milliseconds the calibration loop takes on the reference machine (a shared
# 2-core x86_64 VM, Python 3.11, numpy 2.4). Latencies are reported at that speed.
CAL_REF_MS = 15.0


def calibrate() -> float:
    """Milliseconds for a fixed single-threaded mix of interpreter, JSON and numpy work.

    A shared VM's CPU speed drifts by tens of percent over tens of seconds, so
    each timed command is bracketed by this loop and its latency rescaled to
    CAL_REF_MS; the loop does not touch plbandit, so a change to the program
    cannot move it.
    """
    start = perf_counter()
    total = 0
    for i in range(30_000):
        total += i * i % 7
    rows = [json.dumps({"id": i, "p": [0.1, 0.2, 0.7], "loss": 0.5}) for i in range(1_500)]
    total += sum(len(json.loads(row)["p"]) for row in rows)
    x = np.arange(20_000.0)
    for _ in range(50):
        x = np.sqrt(x * 1.0001 + 1.0)
    return 1000 * (perf_counter() - start)


@dataclass
class Tally:
    """Operations attempted and failed; an operation is one CLI command."""

    attempted: int = 0
    failed: int = 0
    statistical_misses: int = 0
    messages: list[str] = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.messages) < 20:
            self.messages.append(message)

    def check(self, command: str, thunk) -> None:
        """Run one output check; a failed or crashing check fails its command.

        A check returns its failure messages, or (messages, statistical misses)."""
        try:
            result = thunk()
        except Exception as err:  # noqa: BLE001 - a crashing check is a failed output
            result = [f"check raised {type(err).__name__}: {err}"]
        failures, misses = result if isinstance(result, tuple) else (result, 0)
        self.statistical_misses += misses
        if failures:
            self.fail(f"{command}: {'; '.join(failures[:3])}")


@dataclass
class Samples:
    """Latencies in reference ms: each command's wall ms rescaled by the calibrations around it."""

    commands: dict[str, list[float]] = field(default_factory=dict)  # per command
    flows: list[float] = field(default_factory=list)  # per untraced flow
    traced_flows: list[float] = field(default_factory=list)  # per traced flow
    wall_flows: list[float] = field(default_factory=list)  # wall ms per untraced flow
    calibration: list[float] = field(default_factory=list)  # median calibration ms per flow
    records: int = 0
    timed_s: float = 0.0  # wall seconds of timed commands


def run_iteration(flow, workdir: Path, env_path: Path, seed: int, tally: Tally, tracer=None):
    """Run one flow on fresh files and check its outputs.

    Returns ({command: wall seconds}, {command: reference ms}, records,
    calibration ms) for a flow whose commands all exited as expected, else
    None. With a tracer the commands run as one traced operation; the output
    checks always run after it, untraced.
    """
    prefix = workdir / f"it{seed}"
    try:
        with tracer.op(seed) if tracer is not None else nullcontext():
            outcome = _run_commands(flow, prefix, env_path, seed, tally)
        if outcome is None:
            return None
        times, codes, records, calibrations = outcome
        for command, thunk in flow.checks(prefix, seed, codes):
            tally.check(command, thunk)
        reference = {
            command: 1000 * elapsed * CAL_REF_MS / ((before + after) / 2)
            for (command, elapsed), before, after in zip(times.items(), calibrations, calibrations[1:])
        }
        return times, reference, records, statistics.median(calibrations)
    finally:
        for path in workdir.glob(f"it{seed}.*"):
            path.unlink()


def _run_commands(flow, prefix: Path, env_path: Path, seed: int, tally: Tally):
    """Run the flow's commands, each bracketed by calibrations outside its timing."""
    times, codes, records = {}, {}, 0
    calibrations = [calibrate()]
    sink = io.StringIO()
    for step in flow.steps(prefix, env_path, seed):
        tally.attempted += 1
        sink.seek(0)
        sink.truncate()
        with redirect_stdout(sink):
            start = perf_counter()
            try:
                code = cli.main(step.argv)
            except SystemExit as exc:
                code = exc.code
            elapsed = perf_counter() - start
        if code not in step.ok_codes:
            tally.fail(f"{step.command} exited {code}")
            return None
        calibrations.append(calibrate())
        times[step.command], codes[step.command] = elapsed, code
        records += step.records
    return times, codes, records, calibrations


def probe_setup(name: str, seed: int, workdir: Path, count: int) -> list[tuple[float, float]]:
    """(wall seconds, calibration ms) of `count` set-ups, each in a fresh interpreter
    (import, env files, first dataset)."""
    out = []
    for i in range(count):
        probe_dir = workdir / f"probe{i}"
        probe_dir.mkdir()
        before = calibrate()
        proc = subprocess.run(
            [sys.executable, str(PROBE), "--workload", name, "--seed", str(seed), "--dir", str(probe_dir)],
            capture_output=True,
            text=True,
            timeout=120,
            env={k: v for k, v in os.environ.items() if k != "OPO_THREADS"},
        )
        calibration = (before + calibrate()) / 2
        shutil.rmtree(probe_dir)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        out.append((float(proc.stdout.split()[-1]), calibration))
    return out


def tail(samples: list[float]) -> tuple[float, int] | None:
    """The highest percentile with at least ten samples above it, as (value, percentile)."""
    if len(samples) < 11:
        return None
    ordered = sorted(samples)
    j = len(ordered) - 11
    return ordered[j], int(100 * (j + 1) / len(ordered))


@dataclass
class Result:
    workload: str
    seed: int
    trace: bool
    tally: Tally
    samples: Samples
    setup: list[tuple[float, float]]  # (wall seconds, calibration ms) per set-up
    peak_rss_mb: float
    layer: dict[str, float] = field(default_factory=dict)
    dominant: str = ""

    def setup_s(self) -> float:
        """Median set-up seconds at the reference speed."""
        return statistics.median(wall * CAL_REF_MS / cal for wall, cal in self.setup)

    def end_to_end(self) -> dict[str, float]:
        return {
            "setup_s": self.setup_s(),
            "flow_ms_p50": statistics.median(self.samples.flows),
            "peak_rss_mb": self.peak_rss_mb,
        }

    def report_rows(self) -> list[tuple[str, str, str, str]]:
        """(name, value, unit, note) for every metric this workload defines, gated or not.

        Times are at the reference speed unless the name says wall."""
        s = self.samples
        rows = []
        if self.setup:
            rows.append(("setup_s", f"{self.setup_s():.4f}", "s", f"median of {len(self.setup)} set-ups"))
            wall = statistics.median(w for w, _ in self.setup)
            rows.append(("setup_wall_s", f"{wall:.4f}", "s", "not rescaled"))
        rows.append(("flow_ms_p50", f"{statistics.median(s.flows):.3f}", "ms", f"{len(s.flows)} flows"))
        rows.append(("flow_wall_ms_p50", f"{statistics.median(s.wall_flows):.3f}", "ms", "not rescaled"))
        rows.append(
            ("calibration_ms_p50", f"{statistics.median(s.calibration):.3f}", "ms", f"reference {CAL_REF_MS} ms")
        )
        for command in spec.FLOW_COMMANDS[self.workload]:
            values = s.commands.get(command, [])
            if not values:
                continue
            rows.append((f"{command}_ms_p50", f"{statistics.median(values):.3f}", "ms", f"{len(values)} samples"))
            t = tail(values)
            rows.append(
                (f"{command}_ms_tail", f"{t[0]:.3f}" if t else "n/a", "ms",
                 f"p{t[1]} of {len(values)} samples" if t else f"needs 11 samples, have {len(values)}")
            )
        if s.records:
            rate = s.records / (sum(s.flows) / 1000)
            rows.append(("records_per_s", f"{rate:.1f}", "1/s", "records produced or consumed"))
        rows.append(("peak_rss_mb", f"{self.peak_rss_mb:.2f}", "MB", "ru_maxrss"))
        ratio = self.tally.failed / max(1, self.tally.attempted)
        rows.append(("failed_ratio", f"{ratio:.4f}", "ratio", f"{self.tally.failed}/{self.tally.attempted} commands"))
        if self.workload == "verify-small":
            rows.append(("verify.statistical_misses", str(self.tally.statistical_misses), "count", "not failures"))
        return rows

    def json_line(self) -> dict:
        if self.trace:
            metrics = {m["name"]: {"value": self.layer[m["name"]], "unit": m["unit"]} for m in spec.per_layer_metrics()}
        else:
            values = self.end_to_end()
            metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec.END_TO_END}
        return {
            "correct": self.tally.failed == 0,
            "attempted": self.tally.attempted,
            "failed": self.tally.failed,
            "metrics": metrics,
        }


def _dominance(name: str, selfs: dict[str, float]) -> str:
    label, group = spec.DOMINANT[name]
    total = sum(selfs.values()) or 1.0
    inside = sum(selfs.get(fn, 0.0) for fn in group)
    others = [(v, fn) for fn, v in selfs.items() if fn not in group]
    rival_ms, rival = max(others, default=(0.0, ""))
    verdict = "as predicted" if inside > rival_ms else f"NOT as predicted: {rival} is larger"
    return f"{label}: {100 * inside / total:.1f}% of traced self time ({verdict})"


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    workroot: Path,
    flow=None,
    probes: int = 5,
) -> Result:
    """Measure one workload for `seconds` of timed commands (after a checked warm-up flow)."""
    flow = flow or FLOWS[name]
    os.environ.pop("OPO_THREADS", None)
    workdir = workroot / f"{name}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    tally, samples = Tally(), Samples()
    tracer = Tracer() if trace else None
    try:
        setup = [] if trace else probe_setup(name, seed, workdir, probes)
        env_path = flow.write_env(workdir, seed)
        run_iteration(flow, workdir, env_path, seed, tally)  # warm-up, checked but not timed
        wall_start = perf_counter()
        i = 1
        # Iterations 1 and 2 always run, so a traced run has an untraced and a traced flow.
        # The wall cap (checks included) bounds a run on a slow machine.
        while i <= 2 or (samples.timed_s < seconds and perf_counter() - wall_start < 1.5 * seconds):
            traced = tracer is not None and i % 2 == 0
            outcome = run_iteration(flow, workdir, env_path, seed + i, tally, tracer if traced else None)
            i += 1
            if outcome is None:
                continue
            times, reference, records, calibration = outcome
            samples.timed_s += sum(times.values())
            if traced:
                samples.traced_flows.append(sum(reference.values()))
                continue
            samples.flows.append(sum(reference.values()))
            samples.wall_flows.append(1000 * sum(times.values()))
            samples.calibration.append(calibration)
            samples.records += records
            for command, ms in reference.items():
                samples.commands.setdefault(command, []).append(ms)
    finally:
        shutil.rmtree(workdir)
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result = Result(name, seed, trace, tally, samples, setup, peak)
    if not samples.flows or (trace and not samples.traced_flows):
        raise RuntimeError(f"{name}: no flow completed; {tally.messages[:3]}")
    if tracer is not None:
        finish_trace(result, tracer, workroot)
    return result


def finish_trace(result: Result, tracer: Tracer, workroot: Path) -> None:
    missing = tracer.missing(spec.expected_on(result.workload))
    if missing:
        raise TracerError(f"{result.workload}: no span recorded for {', '.join(missing)}")
    layer = tracer.metrics()
    if layer["csc.oracle_calls_per_train"] not in (0.0, 1.0):
        raise TracerError(f"oracle calls per train is {layer['csc.oracle_calls_per_train']}, must be 1")
    s = result.samples
    layer["verify.statistical_misses"] = float(result.tally.statistical_misses)
    layer["trace.overhead_pct"] = 100.0 * (statistics.median(s.traced_flows) / statistics.median(s.flows) - 1.0)
    result.layer = layer
    result.dominant = _dominance(result.workload, tracer.self_times())
    tracer.write(workroot / f"trace-{result.workload}-seed{result.seed}.jsonl.gz")


def print_result(result: Result, out=sys.stdout) -> None:
    print(f"# workload {result.workload} seed {result.seed} trace {int(result.trace)}", file=out)
    for row in result.report_rows():
        print("  {:<28} {:>14} {:<6} {}".format(*row), file=out)
    if result.trace:
        top = sorted(
            ((k, v) for k, v in result.layer.items() if k.endswith(".self_ms")), key=lambda kv: -kv[1]
        )[:8]
        for key, value in top:
            print(f"  {key:<52} {value:>10.3f} ms/op", file=out)
        print(f"  trace.overhead_pct {result.layer['trace.overhead_pct']:.2f}", file=out)
        print(f"  dominant: {result.dominant}", file=out)
    for message in result.tally.messages:
        print(f"  FAILED {message}", file=out)
    print(json.dumps(result.json_line()), file=out)
