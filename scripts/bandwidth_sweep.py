"""Continuous-action bandwidth sweep with suggested grid sizes.

Generates logs from a random continuous environment, then for each bandwidth
on a reciprocal grid picks the suggested surrogate grid size, trains with
`continuous.train_smoothed` (per-context argmin on the modified grid costs),
and records objective, exact risk and the pseudo-loss. Equivalent to
`plbandit sweep --h-grid-m ...` but kept as a library-level script for
experimentation.

Usage: python scripts/bandwidth_sweep.py [--n 2000] [--m 8] [--out bandwidth.csv]
"""

import argparse
import csv

from plbandit import continuous as cont
from plbandit import simulator


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=2000)
    parser.add_argument("--m", type=int, default=8, help="bandwidth grid 1/1 .. 1/m")
    parser.add_argument("--beta", type=float, default=0.05)
    parser.add_argument("--alpha", type=float, default=0.05)
    parser.add_argument("--contexts", type=int, default=3)
    parser.add_argument("--seed", type=int, default=4)
    parser.add_argument("--out", default="bandwidth.csv")
    args = parser.parse_args()

    env = simulator.random_continuous_environment((args.seed, 1), args.contexts)
    data = simulator.generate_logs(env, args.n, seed=(args.seed, 2))
    mu_inf = data.min_logging_density

    rows = []
    for h in cont.h_grid(args.m):
        k = cont.suggest_k(data.n, mu_inf, h, args.alpha)
        policy, objective, pl_hat = cont.train_smoothed(data, k, h, args.beta)
        exact = simulator.exact_risk(policy, env)
        row = {"h": h, "k": k, "objective": objective, "pl_hat": pl_hat, "exact_risk": exact}
        rows.append(row)
        print(f"h={h:.4f}  k={k:>3}  objective={row['objective']:.4f}  exact_risk={row['exact_risk']:.4f}")

    with open(args.out, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
