"""Excess-risk rate curve: realized excess vs sample size, against the tuned bound.

Trains with the per-policy candidate regularizer weights on growing logs of a
fixed environment, selects the candidate by exact risk, and writes one CSV row
per sample size with the realized mean excess and the tuned excess bound. The
realized curve should decay roughly like 1/sqrt(n), well under the bound.

Usage: python scripts/rate_curve.py [--reps 200] [--out rate.csv]
"""

import argparse
import csv

import numpy as np

from plbandit import csc, estimators
from plbandit.model import TabularPolicy, class_stats, deterministic_class
from plbandit.simulator import SyntheticEnvironment, exact_risk, generate_logs


def default_environment() -> SyntheticEnvironment:
    return SyntheticEnvironment(
        context_dist=np.array([0.5, 0.5]),
        loss_means=np.array([[0.30, 0.33, 0.60], [0.40, 0.42, 0.80]]),
        logging_policy=TabularPolicy(np.array([[0.4, 0.35, 0.25], [0.4, 0.35, 0.25]])),
        bernoulli_noise=True,
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sizes", default="100,400,1600,6400")
    parser.add_argument("--reps", type=int, default=200)
    parser.add_argument("--alpha", type=float, default=0.05)
    parser.add_argument("--seed", type=int, default=901)
    parser.add_argument("--out", default="rate.csv")
    args = parser.parse_args()

    env = default_environment()
    pclass = deterministic_class(env.num_contexts, env.num_actions)
    stats = class_stats(pclass, np.arange(env.num_contexts), env.mu_table)
    risks = [exact_risk(m, env) for m in pclass.members]
    best = min(risks)
    pl_values = [estimators.exact_pl(m, env) for m in pclass.members]
    oracle = csc.EnumerationOracle()

    rows = []
    for n in [int(s) for s in args.sizes.split(",")]:
        excesses = []
        for rep in range(args.reps):
            data = generate_logs(env, n, seed=(args.seed, n, rep))
            candidates = estimators.beta_candidates(pclass, data, stats, args.alpha)
            betas = sorted(set(round(b, 12) for b in candidates.tolist()))
            realized = min(exact_risk(csc.train_ipw_pl(data, b, oracle, pclass)[0], env) for b in betas)
            excesses.append(realized - best)
        bound = min(
            (risks[i] - best)
            + estimators.oracle_inequality_bound_tuned(stats, n, args.alpha, pl_values[i])
            for i in range(len(pl_values))
        )
        row = {
            "n": n,
            "mean_excess_risk": float(np.mean(excesses)),
            "se": float(np.std(excesses) / np.sqrt(args.reps)),
            "tuned_excess_bound": bound,
        }
        rows.append(row)
        print(f"n={n:>6}  excess={row['mean_excess_risk']:.5f} +- {row['se']:.5f}  bound={bound:.3f}")

    with open(args.out, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
