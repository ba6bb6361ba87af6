"""Pessimism payoff experiment on the hard logging instance.

A rarely logged, genuinely bad action occasionally shows up with an all-zero
logged loss, in which case the plain IPW argmin happily picks it. The
pseudo-loss penalty charges that policy 1/propensity, so even a small beta
repairs the choice. This script measures mean excess risk for beta = 0 and for
beta chosen from a grid by exact risk, and prints a per-beta table.

Usage: python scripts/pessimism_payoff.py [--reps 500] [--n 50] [--out table.csv]

Acceptance criterion 8 (tests/test_acceptance.py) runs it with --reps 500
--n 50 --seed 801 and asserts the grid-tuned row beats the beta = 0 row.
"""

import argparse
import csv

import numpy as np

from plbandit import csc
from plbandit.model import deterministic_class
from plbandit.simulator import exact_risk, generate_logs, hard_instance


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--reps", type=int, default=500)
    parser.add_argument("--n", type=int, default=50)
    parser.add_argument("--epsilon", type=float, default=0.01)
    parser.add_argument("--seed", type=int, default=77)
    parser.add_argument("--beta-grid", default="0.001,0.01,0.1,1,10")
    parser.add_argument("--out", default=None, help="optional CSV path")
    args = parser.parse_args()

    env = hard_instance(num_contexts=1, num_actions=2, spurious_propensity=args.epsilon, seed=args.seed)
    pclass = deterministic_class(env.num_contexts, env.num_actions)
    best = min(exact_risk(m, env) for m in pclass.members)
    betas = [float(b) for b in args.beta_grid.split(",")]
    oracle = csc.EnumerationOracle()

    per_beta = {beta: [] for beta in betas}
    plain, tuned = [], []
    for rep in range(args.reps):
        data = generate_logs(env, args.n, seed=(args.seed, rep))
        plain_policy, _ = csc.train_ipw_pl(data, 0.0, oracle, pclass)
        plain.append(exact_risk(plain_policy, env) - best)
        rep_risks = []
        for beta in betas:
            policy, _ = csc.train_ipw_pl(data, beta, oracle, pclass)
            excess = exact_risk(policy, env) - best
            per_beta[beta].append(excess)
            rep_risks.append(excess)
        tuned.append(min(rep_risks))

    rows = [{"beta": 0.0, "mean_excess_risk": float(np.mean(plain))}]
    rows += [{"beta": beta, "mean_excess_risk": float(np.mean(per_beta[beta]))} for beta in betas]
    rows.append({"beta": "grid-by-exact-risk", "mean_excess_risk": float(np.mean(tuned))})

    print(f"hard instance: epsilon={args.epsilon}, n={args.n}, reps={args.reps}")
    for row in rows:
        print(f"  beta={row['beta']!s:>20}  mean excess risk={row['mean_excess_risk']:.5f}")
    print(f"payoff: {np.mean(tuned):.5f} (IPW+PL, tuned) vs {np.mean(plain):.5f} (plain IPW)")

    if args.out:
        with open(args.out, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=["beta", "mean_excess_risk"])
            writer.writeheader()
            writer.writerows(rows)
        print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
