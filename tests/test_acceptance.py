"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`. Every tolerance and budget is
pinned here; seeds are frozen so the statistical checks are reproducible.

Criteria 8 and 9 are the paper's two experiments, written once, in
scripts/pessimism_payoff.py and scripts/rate_curve.py. Each criterion runs its
script through the script's own command line, at settings pinned here, and
asserts the script's claim on the CSV it writes.
"""

import csv
import runpy
import sys
import time
from pathlib import Path

import numpy as np

from plbandit import continuous as cont
from plbandit import csc, estimators, simulator
from plbandit.model import PolicyClass, class_stats, deterministic_class
from plbandit.simulator import exact_risk, exact_risk_smoothed, generate_logs

ORACLE = csc.EnumerationOracle()
SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _run_script(monkeypatch, tmp_path, name, *args) -> list[dict]:
    """The rows of the CSV that scripts/<name> writes, run through its own command line with `args`."""
    out = tmp_path / f"{Path(name).stem}.csv"
    monkeypatch.setattr(sys, "argv", [name, *map(str, args), "--out", str(out)])
    runpy.run_path(str(SCRIPTS / name), run_name="__main__")
    with open(out, newline="") as fh:
        return list(csv.DictReader(fh))


def _report(criterion, passed, detail):
    line = f"criterion {criterion}: {'PASS' if passed else 'FAIL'} ({detail})"
    print(line)
    assert passed, line


def test_c01_discrete_reduction_equivalence():
    rng = simulator.make_rng(1001)
    start = time.perf_counter()
    worst = 0.0
    for i in range(50):
        num_contexts = int(rng.integers(1, 5))
        num_actions = int(rng.integers(2, 4))
        env = simulator.random_environment(rng, num_contexts, num_actions)
        data = generate_logs(env, int(rng.integers(1, 9)), seed=(1001, i))
        beta = [0.01, 0.1, 1.0][i % 3]
        pclass = deterministic_class(num_contexts, num_actions)
        learned, value = csc.train_ipw_pl(data, beta, ORACLE, pclass)
        reference, ref_value = csc.brute_force_argmin(data, beta, pclass)
        assert learned is reference, f"instance {i}: policies differ"
        worst = max(worst, abs(value - ref_value))
    elapsed = time.perf_counter() - start
    _report(1, worst <= 1e-12 and elapsed < 10.0, f"max gap {worst:.2e}, {elapsed:.2f}s")


def test_c02_continuous_reduction_equivalence():
    rng = simulator.make_rng(1002)
    start = time.perf_counter()
    worst = 0.0
    for i in range(20):
        num_contexts = int(rng.integers(1, 4))
        env = simulator.random_continuous_environment(rng, num_contexts, max_pieces=3)
        data = generate_logs(env, int(rng.integers(1, 7)), seed=(1002, i))
        k = int(rng.integers(1, 7))
        h = [0.2, 0.5][i % 2]
        beta = [0.01, 0.1, 1.0][i % 3]
        policy = simulator.random_grid_policy(rng, num_contexts, k)
        costs = cont.build_modified_costs_continuous(data, policy.grid, h, beta)
        grid_side = csc.average_cost(policy, costs)
        density_side = cont.continuous_penalized_objective(cont.SmoothedDensityPolicy(policy, h), data, beta)
        worst = max(worst, abs(grid_side - density_side))
    elapsed = time.perf_counter() - start
    _report(2, worst <= 1e-9 and elapsed < 10.0, f"max gap {worst:.2e}, {elapsed:.2f}s")


def test_c03_variance_domination():
    rng = simulator.make_rng(1003)
    worst = -np.inf
    for _ in range(200):
        env = simulator.random_environment(rng, int(rng.integers(1, 5)), int(rng.integers(2, 5)))
        policy = simulator.random_policy(rng, env.num_contexts, env.num_actions)
        sup = float(policy.table.max())
        gap = estimators.exact_variance(policy, env) - sup * estimators.exact_pl(policy, env)
        worst = max(worst, gap)
    _report(3, worst <= 1e-10, f"max violation {worst:.2e}")


def test_c04_pl_concentration_coverage():
    env = simulator.random_environment((401,), 4, 3)
    policy = simulator.random_policy((402,), 4, 3)
    truth = estimators.exact_pl(policy, env)
    mu_inf = float(env.mu_table.min())
    start = time.perf_counter()
    hits = 0
    for rep in range(1000):
        data = generate_logs(env, 1000, seed=(403, rep))
        lo, hi = estimators.pl_confidence_band(estimators.pseudo_loss(policy, data), 1000, 0.1, mu_inf)
        hits += lo <= truth <= hi
    elapsed = time.perf_counter() - start
    coverage = hits / 1000
    _report(4, coverage >= 0.90 and elapsed < 60.0, f"coverage {coverage:.3f}, {elapsed:.1f}s")


def test_c05_simultaneous_ucb_validity():
    env = simulator.random_environment((401,), 4, 3)
    rng = simulator.make_rng((501,))
    members = [simulator.random_policy(rng, 4, 3) for _ in range(8)]
    pclass = PolicyClass.from_members(members)
    stats = class_stats(pclass, np.arange(4), env.mu_table)
    truths = [exact_risk(m, env) for m in members]
    beta = 0.05
    start = time.perf_counter()
    hits = 0
    for rep in range(1000):
        data = generate_logs(env, 500, seed=(502, rep))
        hits += all(
            truth <= estimators.ucb_risk(member, data, stats, 0.05, beta)
            for member, truth in zip(members, truths)
        )
    elapsed = time.perf_counter() - start
    coverage = hits / 1000
    _report(5, coverage >= 0.95 and elapsed < 120.0, f"coverage {coverage:.3f}, {elapsed:.1f}s")


def test_c06_oracle_inequality_sanity():
    env = simulator.random_environment((601,), 2, 3)
    pclass = deterministic_class(2, 3)
    stats = class_stats(pclass, np.arange(2), env.mu_table)
    risks = np.array([exact_risk(m, env) for m in pclass.members])
    best = float(risks.min())
    pl_values = [estimators.exact_pl(m, env) for m in pclass.members]
    n = 500
    bound = min(
        (float(risks[i]) - best) + estimators.oracle_inequality_bound_tuned(stats, n, 0.05, pl_values[i])
        for i in range(len(pl_values))
    )
    violations = 0
    for rep in range(200):
        data = generate_logs(env, n, seed=(802, rep))
        candidates = estimators.beta_candidates(pclass, data, stats, 0.05)
        betas = sorted(set(round(b, 12) for b in candidates.tolist()))
        realized = min(exact_risk(csc.train_ipw_pl(data, b, ORACLE, pclass)[0], env) for b in betas)
        violations += (realized - best) > bound
    _report(6, violations <= 10, f"violations {violations}/200, bound {bound:.3f}")


def test_c07_smoothing_bounds():
    rng = simulator.make_rng((701,))
    disc_viol = band_viol = 0
    for i in range(50):
        num_contexts = int(rng.integers(1, 4))
        env = simulator.random_continuous_environment(rng, num_contexts)
        base = simulator.random_density_policy(rng, num_contexts)
        k = int(rng.integers(1, 9))
        h = [0.2, 0.4, 0.5][i % 3]
        gamma = [0.05, 0.1, 0.3][i % 3]
        reference = exact_risk_smoothed(base, h, env)
        grid_policy = cont.discretize(base, k, num_contexts)
        gap_k = abs(exact_risk(cont.SmoothedDensityPolicy(grid_policy, h), env) - reference)
        disc_viol += gap_k > min(1.0, 1.0 / (h * k)) + 1e-12
        tilde = simulator.random_grid_policy(rng, num_contexts, k)
        gap_h = abs(
            exact_risk(cont.SmoothedDensityPolicy(tilde, h), env)
            - exact_risk(cont.SmoothedDensityPolicy(tilde, h + gamma), env)
        )
        band_viol += gap_h > min(1.0, 2.0 * gamma / h) + 1e-12
    _report(7, disc_viol == 0 and band_viol == 0, f"violations {disc_viol}+{band_viol} of 50+50")


def test_c08_pessimism_payoff(tmp_path, monkeypatch):
    # With two actions hard_instance draws nothing, so --seed 801 keeps the
    # environment of the script's default seed and seeds the logs (801, rep).
    rows = _run_script(monkeypatch, tmp_path, "pessimism_payoff.py", "--reps", 500, "--n", 50, "--seed", 801)
    assert list(rows[0]) == ["beta", "mean_excess_risk"]
    assert [row["beta"] for row in rows] == ["0.0", "0.001", "0.01", "0.1", "1.0", "10.0", "grid-by-exact-risk"]
    means = {row["beta"]: float(row["mean_excess_risk"]) for row in rows}
    assert min(means.values()) >= -1e-12
    mean_reg, mean_plain = means["grid-by-exact-risk"], means["0.0"]
    _report(8, mean_reg < mean_plain, f"IPW+PL {mean_reg:.4f} vs plain IPW {mean_plain:.4f}")


def test_c09_rate_check(tmp_path, monkeypatch):
    rows = _run_script(monkeypatch, tmp_path, "rate_curve.py")
    assert list(rows[0]) == ["n", "mean_excess_risk", "se", "tuned_excess_bound"]
    assert [int(row["n"]) for row in rows] == [100, 400, 1600, 6400]
    means = [float(row["mean_excess_risk"]) for row in rows]
    bounds = [float(row["tuned_excess_bound"]) for row in rows]
    assert min(means) >= -1e-12
    assert all(mean < bound for mean, bound in zip(means, bounds)), f"means {means} not under bounds {bounds}"
    monotone = all(later <= earlier for earlier, later in zip(means, means[1:]))
    ratio = means[3] / means[1]
    _report(9, monotone and ratio <= 0.55, f"means {[f'{m:.4f}' for m in means]}, ratio {ratio:.3f}")


def test_c10_unbiasedness():
    env = simulator.random_environment((401,), 4, 3)
    rng = simulator.make_rng((1001,))
    worst_z = 0.0
    for j in range(10):
        policy = simulator.random_policy(rng, 4, 3)
        # 10^4 replications of the single-record estimators, drawn as one batch.
        data = generate_logs(env, 10_000, seed=(1002, j))
        for terms, truth in [
            (estimators.ipw_terms(policy, data), exact_risk(policy, env)),
            (estimators.pl_terms(policy, data), estimators.exact_pl(policy, env)),
        ]:
            se = float(np.std(terms)) / np.sqrt(len(terms)) + 1e-12
            worst_z = max(worst_z, abs(float(np.mean(terms)) - truth) / se)
    _report(10, worst_z <= 3.0, f"worst z {worst_z:.2f} over 10 policies")
