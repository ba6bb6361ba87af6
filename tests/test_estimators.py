import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from plbandit import estimators, simulator
from plbandit.estimators import (
    BoundReport,
    beta_candidates,
    confidence_slack,
    confidence_width,
    exact_pl,
    exact_variance,
    ipw_risk,
    oracle_inequality_bound,
    oracle_inequality_bound_tuned,
    penalized_objective,
    pl_confidence_band,
    pseudo_loss,
    ucb_risk,
)
from plbandit.model import (
    ClassStats,
    DeterministicPolicy,
    LoggedDataset,
    PolicyClass,
    SupportError,
    TabularPolicy,
    class_stats,
    deterministic_class,
)

from discrete_reference import reference_objective

# Frozen expected values, computed once with 50-digit arithmetic (mpmath) from
# the closed-form expressions; tests assert the double-precision code matches.
PL_BAND_LO = 1.989348507471808
PL_BAND_HI = 6.031954477584576
CW_SQRT = 0.6279987238208764
CW_CROSS = 0.1431163905898182
CW_RANGE = 0.0584270217956518
CW_TOTAL = 0.8295421362063463
CW_MAX_ENVELOPE = 0.9142315050005127
SLACK_TOTAL = 0.2714872705274651
ORACLE_INEQ_FIXED = 7.700183228103332
ORACLE_INEQ_TUNED = 4.091557339359799
BETA_CANDIDATE = 0.1126407321446579

STATS = ClassStats(pmf_sup=1.0, mu_pmf_inf=0.25, weight_ratio_sup=4.0, class_size=2)
# The uniform pmf on two actions, at up to two contexts.
UNIFORM = TabularPolicy(np.full((2, 2), 0.5))


def dataset(actions, losses, propensities, ids=None):
    n = len(actions)
    return LoggedDataset(
        actions=np.array(actions),
        losses=np.array(losses),
        propensities=np.array(propensities),
        context_ids=np.array(ids if ids is not None else [0] * n),
    )


class TestIpwRisk:
    def test_logging_policy_gives_sample_mean(self):
        data = dataset([0, 1, 0], [0.2, 0.4, 0.6], [[0.5, 0.5]] * 3)
        assert ipw_risk(UNIFORM, data) == pytest.approx(0.4)

    def test_single_record_arithmetic(self):
        data = dataset([0], [0.5], [[0.25, 0.75]])
        policy = TabularPolicy(np.array([[0.5, 0.5]]))
        assert ipw_risk(policy, data) == pytest.approx(1.0)

    def test_zero_mass_on_logged_actions(self):
        data = dataset([0, 0], [0.5, 0.9], [[0.5, 0.5]] * 2)
        policy = DeterministicPolicy(assignment=(1,), num_actions=2)
        assert ipw_risk(policy, data) == 0.0

    def test_floor_violation(self):
        data = dataset([0], [0.5], [[1e-15, 1.0]])
        with pytest.raises(SupportError):
            ipw_risk(UNIFORM, data)


class TestPseudoLoss:
    def test_matching_policy_counts_actions(self):
        data = dataset([0], [0.1], [[0.2, 0.3, 0.5]])
        policy = TabularPolicy(np.array([[0.2, 0.3, 0.5]]))
        assert pseudo_loss(policy, data) == pytest.approx(3.0)

    def test_one_hot_collapses_inner_sum(self):
        data = dataset([0, 0], [0.1, 0.1], [[0.5, 0.5], [0.25, 0.75]], ids=[0, 1])
        policy = DeterministicPolicy(assignment=(0, 0), num_actions=2)
        assert pseudo_loss(policy, data) == pytest.approx(3.0)

    def test_uniform_policy_direct_arithmetic(self):
        data = dataset([0], [0.1], [[0.8, 0.2]])
        assert pseudo_loss(UNIFORM, data) == pytest.approx(0.5 / 0.8 + 0.5 / 0.2)

    @given(seed=st.integers(min_value=0, max_value=2_000))
    def test_at_least_one(self, seed):
        env = simulator.random_environment((11, seed), 3, 4)
        data = simulator.generate_logs(env, 10, seed=(12, seed))
        policy = simulator.random_policy((13, seed), 3, 4)
        assert pseudo_loss(policy, data) >= 1.0 - 1e-12


class TestPenalizedObjective:
    def test_beta_zero_is_ipw(self):
        data = dataset([0, 1], [0.3, 0.9], [[0.6, 0.4]] * 2)
        policy = TabularPolicy(np.array([[0.3, 0.7]]))
        assert penalized_objective(policy, data, 0.0) == ipw_risk(policy, data)

    def test_matching_policy_composition(self):
        data = dataset([0, 1], [0.3, 0.5], [[0.5, 0.5]] * 2)
        assert penalized_objective(UNIFORM, data, 0.1) == pytest.approx(0.4 + 0.1 * 2.0)

    def test_matches_independent_recomputation(self):
        rng = simulator.make_rng(99)
        for _ in range(10):
            env = simulator.random_environment(rng, 3, 3)
            data = simulator.generate_logs(env, 5, seed=int(rng.integers(1 << 30)))
            policy = simulator.random_policy(rng, 3, 3)
            beta = float(rng.random())
            assert penalized_objective(policy, data, beta) == pytest.approx(
                reference_objective(policy, data, beta), abs=1e-12
            )

    def test_negative_beta_rejected(self):
        data = dataset([0], [0.1], [[0.5, 0.5]])
        with pytest.raises(ValueError):
            penalized_objective(UNIFORM, data, -0.1)


class TestExactQuantities:
    def test_exact_pl_matching_policy(self):
        env = simulator.random_environment((21, 0), 2, 4)
        assert exact_pl(env.logging_policy, env) == pytest.approx(4.0)

    def test_exact_pl_two_contexts(self):
        mu = TabularPolicy(np.array([[0.5, 0.5], [0.2, 0.8]]))
        pi = TabularPolicy(np.array([[0.5, 0.5], [0.8, 0.2]]))
        env = simulator.SyntheticEnvironment(
            context_dist=np.array([0.5, 0.5]),
            loss_means=np.zeros((2, 2)),
            logging_policy=mu,
        )
        # inner sums: 2 and 0.8/0.2 + 0.2/0.8 = 4.25
        assert exact_pl(pi, env) == pytest.approx((2.0 + 4.25) / 2)

    def test_exact_pl_matches_monte_carlo(self):
        env = simulator.random_environment((22, 3), 4, 3)
        policy = simulator.random_policy((23, 3), 4, 3)
        data = simulator.generate_logs(env, 100_000, seed=24)
        terms = estimators.pl_terms(policy, data)
        se = float(np.std(terms)) / math.sqrt(len(terms))
        assert abs(float(np.mean(terms)) - exact_pl(policy, env)) <= 3 * se

    def test_exact_variance_constant_terms(self):
        env = simulator.SyntheticEnvironment(
            context_dist=np.array([1.0]),
            loss_means=np.full((1, 2), 0.7),
            logging_policy=UNIFORM,
            bernoulli_noise=False,
        )
        assert exact_variance(env.logging_policy, env) == pytest.approx(0.0)

    def test_exact_variance_two_outcome(self):
        env = simulator.SyntheticEnvironment(
            context_dist=np.array([1.0]),
            loss_means=np.array([[1.0, 0.0]]),
            logging_policy=UNIFORM,
            bernoulli_noise=True,
        )
        policy = DeterministicPolicy(assignment=(0,), num_actions=2)
        assert exact_variance(policy, env) == pytest.approx(1.0)

    def test_exact_variance_matches_monte_carlo(self):
        env = simulator.random_environment((25, 1), 3, 3)
        policy = simulator.random_policy((26, 1), 3, 3)
        data = simulator.generate_logs(env, 1_000_000, seed=27)
        terms = estimators.ipw_terms(policy, data)
        sample_var = float(np.var(terms))
        # variance of the sample variance ~ (m4 - var^2)/n
        m4 = float(np.mean((terms - terms.mean()) ** 4))
        se = math.sqrt(max(m4 - sample_var**2, 0.0) / len(terms))
        assert abs(sample_var - exact_variance(policy, env)) <= 3 * se

    def test_variance_domination(self):
        rng = simulator.make_rng(28)
        for _ in range(50):
            env = simulator.random_environment(rng, int(rng.integers(1, 4)), int(rng.integers(2, 4)))
            policy = simulator.random_policy(rng, env.num_contexts, env.num_actions)
            sup = float(policy.table.max())
            assert exact_variance(policy, env) <= sup * exact_pl(policy, env) + 1e-10


class TestPlConfidenceBand:
    def test_asymptotic_band(self):
        lo, hi = pl_confidence_band(3.0, 10**15, 0.1, 0.25)
        assert lo == pytest.approx(2.0, abs=1e-9)
        assert hi == pytest.approx(6.0, abs=1e-9)

    def test_frozen_value(self):
        lo, hi = pl_confidence_band(3.0, 1000, 0.1, 0.25)
        assert lo == pytest.approx(PL_BAND_LO, abs=1e-14)
        assert hi == pytest.approx(PL_BAND_HI, abs=1e-14)

    def test_lower_clamp(self):
        lo, _ = pl_confidence_band(0.001, 5, 0.1, 0.1)
        assert lo == 0.0

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            pl_confidence_band(3.0, 100, 0.1, 0.0)

    def test_coverage(self):
        env = simulator.random_environment((31, 0), 4, 3)
        policy = simulator.random_policy((32, 0), 4, 3)
        truth = exact_pl(policy, env)
        mu_inf = float(env.mu_table.min())
        hits = 0
        reps = 300
        for rep in range(reps):
            data = simulator.generate_logs(env, 500, seed=(33, rep))
            lo, hi = pl_confidence_band(pseudo_loss(policy, data), 500, 0.1, mu_inf)
            hits += lo <= truth <= hi
        assert hits / reps >= 0.90


class TestConfidenceWidth:
    def test_vanishes_with_n(self):
        big = confidence_width(3.0, STATS, 10**12, 0.05).value
        assert big < 1e-5

    def test_frozen_terms(self):
        report = confidence_width(3.0, STATS, 100, 0.05)
        assert report.terms["sqrtTerm"] == pytest.approx(CW_SQRT, abs=1e-14)
        assert report.terms["crossTerm"] == pytest.approx(CW_CROSS, abs=1e-14)
        assert report.terms["rangeTerm"] == pytest.approx(CW_RANGE, abs=1e-14)
        assert report.value == pytest.approx(CW_TOTAL, abs=1e-14)
        assert report.derived["maxEnvelope"] == pytest.approx(CW_MAX_ENVELOPE, abs=1e-14)

    def test_sum_is_tighter_than_max_envelope(self):
        report = confidence_width(3.0, STATS, 100, 0.05)
        assert report.value <= report.derived["maxEnvelope"]

    def test_coverage(self):
        env = simulator.random_environment((34, 0), 3, 3)
        policy = simulator.random_policy((35, 0), 3, 3)
        sup = float(policy.table.max())
        ratio = float((policy.table / env.mu_table).max())
        stats = ClassStats(
            pmf_sup=sup, mu_pmf_inf=float(env.mu_table.min()), weight_ratio_sup=ratio, class_size=1
        )
        truth = simulator.exact_risk(policy, env)
        hits = 0
        reps = 300
        for rep in range(reps):
            data = simulator.generate_logs(env, 400, seed=(36, rep))
            width = confidence_width(pseudo_loss(policy, data), stats, 400, 0.05).value
            hits += abs(truth - ipw_risk(policy, data)) <= width
        assert hits / reps >= 0.95


class TestConfidenceSlack:
    def test_beta_limit(self):
        small = confidence_slack(STATS, 100, 0.05, 1e12)
        assert small.terms["betaTerm"] == pytest.approx(0.0, abs=1e-12)
        assert small.value == pytest.approx(small.terms["crossTerm"] + small.terms["rangeTerm"])

    def test_frozen_value(self):
        assert confidence_slack(STATS, 100, 0.05, 1.0).value == pytest.approx(SLACK_TOTAL, abs=1e-14)

    def test_decreasing_in_n(self):
        values = [confidence_slack(STATS, n, 0.05, 0.5).value for n in [50, 100, 200, 400, 800]]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_convex_in_beta(self):
        betas = np.geomspace(0.01, 10, 30)
        values = [confidence_slack(STATS, 100, 0.05, float(b)).value for b in betas]
        for i in range(1, len(betas) - 1):
            mid = confidence_slack(STATS, 100, 0.05, float((betas[i - 1] + betas[i + 1]) / 2)).value
            assert mid <= (values[i - 1] + values[i + 1]) / 2 + 1e-12

    def test_beta_must_be_positive(self):
        with pytest.raises(ValueError):
            confidence_slack(STATS, 100, 0.05, 0.0)


class TestUcbRisk:
    def test_composition(self):
        env = simulator.random_environment((41, 0), 2, 3)
        data = simulator.generate_logs(env, 40, seed=42)
        policy = simulator.random_policy((43, 0), 2, 3)
        stats = ClassStats(pmf_sup=1.0, mu_pmf_inf=0.1, weight_ratio_sup=10.0, class_size=4)
        expected = penalized_objective(policy, data, 0.3) + confidence_slack(stats, data.n, 0.05, 0.3).value
        assert ucb_risk(policy, data, stats, 0.05, 0.3) == expected

    def test_dominates_ipw(self):
        env = simulator.random_environment((44, 0), 2, 3)
        data = simulator.generate_logs(env, 40, seed=45)
        policy = simulator.random_policy((46, 0), 2, 3)
        stats = ClassStats(pmf_sup=1.0, mu_pmf_inf=0.1, weight_ratio_sup=10.0, class_size=4)
        for beta in [0.01, 0.1, 1.0]:
            assert ucb_risk(policy, data, stats, 0.05, beta) >= ipw_risk(policy, data)

    def test_pessimism_ordering(self):
        # Same pmf on the logged action, more mass on a rarely logged one.
        data = dataset([0, 0], [0.4, 0.6], [[0.5, 0.3, 0.2]] * 2)
        narrow = TabularPolicy(np.array([[0.5, 0.5, 0.0]]))
        wide = TabularPolicy(np.array([[0.5, 0.0, 0.5]]))
        stats = ClassStats(pmf_sup=0.5, mu_pmf_inf=0.2, weight_ratio_sup=2.5, class_size=2)
        assert ipw_risk(narrow, data) == ipw_risk(wide, data)
        assert pseudo_loss(wide, data) > pseudo_loss(narrow, data)
        assert ucb_risk(wide, data, stats, 0.05, 0.2) > ucb_risk(narrow, data, stats, 0.05, 0.2)


class TestOracleInequalityBounds:
    def test_divergence_at_small_beta(self):
        assert oracle_inequality_bound(STATS, 100, 0.05, 1e-9, 3.0) > 1e6

    def test_am_gm_minimizer(self):
        pl_hat = 3.0
        log_term = math.log(4 * STATS.class_size / 0.05)
        beta_opt = math.sqrt(3.0 * STATS.pmf_sup * log_term / (4 * 100 * pl_hat))
        at_opt = oracle_inequality_bound(STATS, 100, 0.05, beta_opt, pl_hat)
        assert at_opt <= oracle_inequality_bound(STATS, 100, 0.05, beta_opt * 1.3, pl_hat)
        assert at_opt <= oracle_inequality_bound(STATS, 100, 0.05, beta_opt / 1.3, pl_hat)

    def test_frozen_fixed_beta(self):
        assert oracle_inequality_bound(STATS, 100, 0.05, 1.0, 3.0) == pytest.approx(
            ORACLE_INEQ_FIXED, abs=1e-12
        )

    def test_frozen_tuned(self):
        assert oracle_inequality_bound_tuned(STATS, 100, 0.05, 3.0) == pytest.approx(
            ORACLE_INEQ_TUNED, abs=1e-12
        )

    def test_tuned_scales_like_inverse_sqrt_n(self):
        n = 10**8
        ratio = oracle_inequality_bound_tuned(STATS, n, 0.05, 3.0) / oracle_inequality_bound_tuned(
            STATS, 4 * n, 0.05, 3.0
        )
        assert ratio == pytest.approx(2.0, rel=1e-3)

    @given(
        pl=st.floats(min_value=1.0, max_value=100.0),
        n=st.integers(min_value=1, max_value=10**6),
    )
    def test_tuned_nonnegative(self, pl, n):
        assert oracle_inequality_bound_tuned(STATS, n, 0.05, pl) >= 0.0


class TestLogUnion:
    """ln(4|class|/alpha), the union-bound factor every class-wide bound shares."""

    @staticmethod
    def float_product_log(class_size, alpha):
        try:
            return math.log(4.0 * class_size / alpha)
        except OverflowError:
            return math.inf

    @given(
        class_size=st.one_of(st.integers(1, 2**70), st.integers(2**1000, 2**1100)),
        alpha=st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True),
    )
    def test_bitwise_the_float_product_log_where_that_is_finite(self, class_size, alpha):
        value = estimators._log_union(class_size, alpha)
        direct = self.float_product_log(class_size, alpha)
        if math.isfinite(direct):
            assert value.hex() == direct.hex()
        else:
            assert math.isfinite(value)
            assert value == pytest.approx(math.log(4 * class_size) - math.log(alpha), rel=1e-12)

    @pytest.mark.parametrize("k", [2, 7, 40])
    def test_finite_for_the_smoothed_class_of_600_contexts(self, k):
        value = estimators._log_union(k**600, 0.05)
        assert math.isfinite(value)
        assert value == pytest.approx(600 * math.log(k) + math.log(80.0), rel=1e-14)
        stats = ClassStats(pmf_sup=1.0, mu_pmf_inf=0.5, weight_ratio_sup=2.0, class_size=k**600)
        assert math.isfinite(confidence_slack(stats, 100, 0.05, 0.1).value)
        assert math.isfinite(oracle_inequality_bound(stats, 100, 0.05, 0.1, 1.0))
        assert math.isfinite(oracle_inequality_bound_tuned(stats, 100, 0.05, 1.0))


class TestBetaCandidates:
    def test_frozen_value(self):
        data = dataset([0, 0], [0.1, 0.2], [[0.5, 0.5], [0.25, 0.75]], ids=[0, 1])
        policy = DeterministicPolicy(assignment=(0, 0), num_actions=2)  # pl_hat = 3
        pclass = PolicyClass.from_members([policy, UNIFORM])
        # STATS has class_size=2 and pmf_sup=1, matching the construction.
        betas = beta_candidates(pclass, data, STATS, 0.05)
        # n=2 here; rescale to the frozen n=100 value.
        expected_at_n2 = BETA_CANDIDATE * math.sqrt(100 / 2)
        assert betas[0] == pytest.approx(expected_at_n2, abs=1e-12)

    def test_monotone_in_pl(self):
        data = dataset([0], [0.1], [[0.8, 0.2]])
        low_pl = TabularPolicy(np.array([[1.0, 0.0]]))  # pl = 1.25
        high_pl = TabularPolicy(np.array([[0.0, 1.0]]))  # pl = 5
        pclass = PolicyClass.from_members([low_pl, high_pl])
        betas = beta_candidates(pclass, data, STATS, 0.05)
        assert betas[0] > betas[1]

    def test_matches_per_member_loop(self):
        # Reference: the per-member pseudo_loss loop the contraction replaced.
        env = simulator.random_environment(120, 3, 3)
        data = simulator.generate_logs(env, 300, seed=121)
        members = list(deterministic_class(3, 3).members) + [simulator.random_policy(122, 3, 3)]
        pclass = PolicyClass.from_members(members)
        stats = ClassStats(pmf_sup=1.0, mu_pmf_inf=0.1, weight_ratio_sup=10.0, class_size=pclass.size)
        betas = beta_candidates(pclass, data, stats, 0.05)
        log_term = math.log(4.0 * pclass.size / 0.05)
        assert betas.shape == (len(members),)
        for member, beta in zip(members, betas):
            expected = math.sqrt(3.0 * log_term / (4.0 * data.n * pseudo_loss(member, data)))
            assert beta == pytest.approx(expected, rel=1e-12)

    def test_all_det_decodes_no_member(self):
        env = simulator.random_environment(123, 6, 3)
        data = simulator.generate_logs(env, 400, seed=124)
        pclass = deterministic_class(6, 3)
        stats = class_stats(pclass, np.arange(6), env.mu_table)
        betas = beta_candidates(pclass, data, stats, 0.05)
        assert pclass.members._decoded == {}
        assert betas.shape == (pclass.size,) == (729,)
        log_term = math.log(4.0 * pclass.size / 0.05)
        for i in [0, 1, 300, 728]:
            expected = math.sqrt(3.0 * stats.pmf_sup * log_term / (4.0 * data.n * pseudo_loss(pclass.members[i], data)))
            assert betas[i] == pytest.approx(expected, rel=1e-12)

    def test_all_det_memory_is_bounded(self):
        # 4**8 members: the stacked (size, 8, 4) tables alone would take 16.8 MB.
        env = simulator.random_environment(125, 8, 4)
        data = simulator.generate_logs(env, 500, seed=126)
        pclass = deterministic_class(8, 4)
        stats = class_stats(pclass, np.arange(8), env.mu_table)
        tracemalloc.start()
        try:
            betas = beta_candidates(pclass, data, stats, 0.05)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert betas.shape == (4**8,)
        assert peak < 4 * 2**20

    def test_zero_propensity_rejected(self):
        data = dataset([0], [0.1], [[1.0, 0.0]])
        with pytest.raises(SupportError):
            beta_candidates(PolicyClass.from_members([UNIFORM]), data, STATS, 0.05)

    def test_identical_policies_identical_betas(self):
        data = dataset([0], [0.1], [[0.8, 0.2]])
        pclass = PolicyClass.from_members([UNIFORM, TabularPolicy(UNIFORM.table)])
        betas = beta_candidates(pclass, data, STATS, 0.05)
        assert betas[0] == betas[1]


class TestBoundReport:
    def test_sum_enforced(self):
        with pytest.raises(ValueError):
            BoundReport(value=1.0, terms={"a": 0.3, "b": 0.3}, alpha=0.1)

    def test_json_round_trip(self):
        import json

        report = confidence_slack(STATS, 100, 0.05, 1.0)
        decoded = json.loads(json.dumps(report.as_dict(), sort_keys=True))
        assert decoded["value"] == pytest.approx(sum(decoded["terms"].values()), abs=1e-12)
        assert set(decoded["terms"]) == {"betaTerm", "crossTerm", "rangeTerm"}

    def test_reports_sum_within_tolerance(self):
        for n in [10, 100, 1000]:
            for report in [
                confidence_width(2.5, STATS, n, 0.1),
                confidence_slack(STATS, n, 0.1, 0.7),
            ]:
                assert abs(report.value - sum(report.terms.values())) <= 1e-12
