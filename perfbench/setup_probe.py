"""One set-up measurement in a fresh interpreter: prints the seconds it took.

Set-up is what a workload does before its first timed command: import
plbandit, write the environment spec file, and generate the first dataset.
Run by the benchmark itself; usage:

    python3 perfbench/setup_probe.py --workload NAME --seed N --dir DIR
"""

from time import perf_counter

START = perf_counter()

import argparse  # noqa: E402 - the clock starts before any import
import io  # noqa: E402
import sys  # noqa: E402
from contextlib import redirect_stdout  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", required=True)
    args = parser.parse_args()
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from plbandit import cli

    from perfbench.workloads import FLOWS

    flow = FLOWS[args.workload]
    workdir = Path(args.dir)
    env_path = flow.write_env(workdir, args.seed)
    for step in flow.first_dataset(workdir, env_path, args.seed):
        with redirect_stdout(io.StringIO()):
            code = cli.main(step.argv)
        if code != 0:
            print(f"{step.command} exited {code}", file=sys.stderr)
            return 1
    print(f"{perf_counter() - START:.6f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
