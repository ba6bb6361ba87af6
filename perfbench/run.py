"""Run the plbandit benchmark.

    python3 perfbench/run.py                       # all workloads, every metric, with units
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

With --workload, the last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics: the end-to-end metrics of
BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1. Without
--workload, each workload runs in its own interpreter and the results, with the
environment (commit, Python and numpy versions, nproc), are also written to
perfbench/.work/results.json. The benchmark runs plbandit from ./src of the
checkout that holds it and exits with status 2 if that source is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / "perfbench" / ".work"


def _import_checkout():
    if not (ROOT / "src" / "plbandit" / "__init__.py").is_file():
        print(f"error: no plbandit source under {ROOT / 'src'}", file=sys.stderr)
        raise SystemExit(2)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    import plbandit

    if Path(plbandit.__file__).resolve().parent != (ROOT / "src" / "plbandit").resolve():
        print(f"error: imported plbandit from {plbandit.__file__}, not this checkout", file=sys.stderr)
        raise SystemExit(2)


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    if path.is_file():
        return path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def environment() -> dict:
    import numpy

    return {
        "commit": _commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
    }


def run_all(seed: int, seconds: float, trace: int) -> int:
    from perfbench import spec

    results = {}
    for name in spec.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name]
            + ["--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
            capture_output=True,
            text=True,
            timeout=600,
        )
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited {proc.returncode}", file=sys.stderr)
            return 1
        results[name] = {
            "report": [line.strip() for line in lines[:-1]],
            "result": json.loads(lines[-1]),
        }
    summary = {"environment": environment(), "seed": seed, "seconds": seconds, "trace": trace, "workloads": results}
    WORK.mkdir(parents=True, exist_ok=True)
    (WORK / "results.json").write_text(json.dumps(summary, indent=1) + "\n")
    print(f"# environment {json.dumps(summary['environment'], sort_keys=True)}")
    correct = all(r["result"]["correct"] for r in results.values())
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default=None)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _import_checkout()
    from perfbench import runner, spec

    seconds = args.seconds if args.seconds is not None else spec.RUN_SECONDS
    if args.workload is None:
        return run_all(args.seed, seconds, args.trace)
    if args.workload not in spec.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(spec.WORKLOADS)}")
    result = runner.run_workload(args.workload, args.seed, seconds, bool(args.trace), WORK)
    runner.print_result(result)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
