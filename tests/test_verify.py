import hashlib
import re
import tracemalloc
from statistics import NormalDist
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from plbandit import cli, csc, estimators, model, simulator, verify
from plbandit.model import DeterministicPolicy, PolicyClass, TabularPolicy

from verify_reference import (
    reference_check_confidence_coverage,
    reference_check_pl_band_coverage,
    reference_check_ucb_coverage,
    reference_check_variance_domination,
    reference_variance_gaps,
)

COVERAGE_CHECKS = {
    "pl_band": (verify.check_pl_band_coverage, reference_check_pl_band_coverage),
    "confidence": (verify.check_confidence_coverage, reference_check_confidence_coverage),
    "ucb": (verify.check_ucb_coverage, reference_check_ucb_coverage),
}

ENVS = {
    "demo": lambda seed: cli._resolve_env("demo", seed),
    "hard": lambda seed: cli._resolve_env("hard", seed),
    "random-noisy": lambda seed: simulator.random_environment((seed, 31), 3, 4),
    "random-noiseless": lambda seed: simulator.random_environment((seed, 32), 5, 2, bernoulli_noise=False),
}


def edge_environment(noise: bool) -> simulator.SyntheticEnvironment:
    """Context 1 is never drawn, and cells with mean 0.0 or 1.0 give records of one loss only."""
    return simulator.SyntheticEnvironment(
        context_dist=np.array([0.6, 0.0, 0.4]),
        loss_means=np.array([[0.0, 1.0, 0.3], [1.0, 0.0, 0.5], [0.0, 0.75, 1.0]]),
        logging_policy=TabularPolicy(np.array([[0.5, 0.3, 0.2], [0.2, 0.2, 0.6], [0.1, 0.1, 0.8]])),
        bernoulli_noise=noise,
    )


def replicate_sums(cfg, check):
    return verify._replicate_sums(cfg.env, verify._replicate_counts(cfg, check))


class TestReplicateSums:
    @given(
        env_seed=st.integers(0, 2**16),
        num_contexts=st.integers(1, 5),
        num_actions=st.integers(2, 4),
        n=st.integers(1, 60),
        noise=st.booleans(),
        reps=st.sampled_from([1, 2, 17]),
        seed=st.integers(0, 2**16),
        check=st.sampled_from([5, 6, 7]),
        order_seed=st.integers(0, 2**32 - 1),
    )
    def test_each_replicate_is_bitwise_its_own_log(
        self, env_seed, num_contexts, num_actions, n, noise, reps, seed, check, order_seed
    ):
        """Each replicate's sums are bitwise its counted dataset's, and those of
        the same records in any order."""
        env = simulator.random_environment(env_seed, num_contexts, num_actions, bernoulli_noise=noise)
        cfg = verify.VerifyConfig(env=env, reps=reps, seed=seed, n=n)
        counts = verify._replicate_counts(cfg, check)
        ipw_sums, pl_sums = verify._replicate_sums(env, counts)
        assert ipw_sums.shape == pl_sums.shape == (reps, num_contexts, num_actions)
        order = np.random.default_rng(order_seed).permutation(n)
        for rep in range(reps):
            data = verify._counted_dataset(env, counts[rep])
            shuffled = model.LoggedDataset(
                actions=data.actions[order],
                losses=data.losses[order],
                propensities=data.propensities[order],
                context_ids=data.context_ids[order],
                num_contexts=num_contexts,
            )
            for logged in (data, shuffled):
                assert ipw_sums[rep].tobytes() == logged.ipw_sums.tobytes()
                assert pl_sums[rep].tobytes() == logged.pl_sums.tobytes()

    @pytest.mark.parametrize("noise", [True, False])
    def test_unreachable_context_and_exact_zero_and_one_means(self, noise):
        env = edge_environment(noise)
        means = env.loss_means
        cfg = verify.VerifyConfig(env=env, reps=33, seed=9, n=40)
        counts = verify._replicate_counts(cfg, 6)
        assert not counts[:, 1].any()
        assert not counts[:, means == 0.0, 1].any()
        # A loss-0 record needs a mean below 1 with noise, and a mean of 0 without.
        assert not counts[:, means == 1.0 if noise else means > 0, 0].any()
        ipw_sums, pl_sums = verify._replicate_sums(env, counts)
        assert not pl_sums[:, 1].any()
        for rep in range(cfg.reps):
            data = verify._counted_dataset(env, counts[rep])
            assert data.n == cfg.n
            assert ipw_sums[rep].tobytes() == data.ipw_sums.tobytes()
            assert pl_sums[rep].tobytes() == data.pl_sums.tobytes()

    @given(
        weights=st.lists(
            st.sampled_from([5e-324, 1e-300, 1e12, 1e300]) | st.floats(0.0, 1e300), min_size=1, max_size=6
        ),
        count=st.integers(0, 2000),
        zeros=st.integers(0, 200),
        order_seed=st.integers(0, 2**32 - 1),
    )
    def test_running_sum_row_is_the_bincount_of_repeated_weights(self, weights, count, zeros, order_seed):
        """The identity _replicate_sums rests on: row k of the running sum from 0.0
        of a repeated weight is np.bincount of k records of that weight, bit for
        bit, whatever 0.0-weight records lie between them."""
        table = np.zeros((count + 1, len(weights)))
        table[1:] = weights
        table = table.cumsum(axis=0)
        order = np.random.default_rng(order_seed).permutation(count + zeros) < count
        for column, weight in enumerate(weights):
            summed = np.bincount(np.zeros(count + zeros, dtype=np.int64), weights=order * weight, minlength=1)
            assert table[count, column].tobytes() == summed[0].tobytes()

    def test_peak_memory_stays_below_one_full_count_table(self):
        # A table of every cell's running sum, (X * A, n + 1) floats, is what the
        # per-context tables avoid.
        num_contexts, num_actions, n = 64, 8, 20_000
        env = simulator.random_environment(5, num_contexts, num_actions)
        cfg = verify.VerifyConfig(env=env, reps=32, seed=0, n=n)
        tracemalloc.start()
        try:
            replicate_sums(cfg, 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * num_contexts * num_actions * (n + 1)


class TestCellCounts:
    @pytest.mark.parametrize("env_name", ["demo", "random-noiseless"])
    def test_mean_counts_are_n_times_the_cell_probabilities(self, env_name):
        env = ENVS[env_name](0)
        cfg = verify.VerifyConfig(env=env, reps=20_000, seed=0, n=500)
        counts = verify._replicate_counts(cfg, 6)
        p = verify._cell_probabilities(env)
        assert (counts.sum(axis=(1, 2, 3)) == cfg.n).all()
        # Within 5 standard errors of a mean of 20 000 Binomial(n, p) counts per
        # cell; a cell of probability 0 has no records at all.
        se = np.sqrt(cfg.n * p * (1.0 - p) / cfg.reps)
        assert (np.abs(counts.mean(axis=0) - cfg.n * p) <= 5.0 * se).all()

    @pytest.mark.parametrize(
        "env",
        [ENVS["demo"](0), ENVS["random-noiseless"](0), edge_environment(True), edge_environment(False)],
        ids=["demo", "random-noiseless", "edge-noisy", "edge-noiseless"],
    )
    def test_cell_probabilities_are_the_record_generators(self, env):
        """The count model and generate_logs agree: the cell frequencies of
        200 000 generated records lie within 5 standard errors of the cell
        probabilities, and a cell of probability 0 gets no record."""
        data = simulator.generate_logs(env, 200_000, seed=3)
        cells = (data.context_ids * env.num_actions + data.actions) * 2 + (data.losses > 0)
        p = verify._cell_probabilities(env).ravel()
        frequency = np.bincount(cells, minlength=p.size) / data.n
        assert (np.abs(frequency - p) <= 5.0 * np.sqrt(p * (1.0 - p) / data.n)).all()

    def test_context_dist_above_one_within_tolerance(self):
        # context_dist sums to 1 + 9e-10, inside PMF_ATOL, and the last cell
        # (last context, last action, loss 1) has mean 0, so the cells before it
        # sum to more than the 1 + 1e-12 that Generator.multinomial accepts.
        env = simulator.SyntheticEnvironment(
            context_dist=np.array([0.5, 0.5 + 9e-10]),
            loss_means=np.array([[0.2, 0.7], [0.4, 0.0]]),
            logging_policy=TabularPolicy(np.array([[0.5, 0.5], [0.3, 0.7]])),
        )
        means = env.loss_means
        unnormalized = (env.context_dist[:, None] * env.mu_table)[..., None] * np.stack([1 - means, means], -1)
        with pytest.raises(ValueError):
            simulator.make_rng(0).multinomial(10, unnormalized.ravel())
        cfg = verify.VerifyConfig(env=env, reps=50, seed=0, n=100)
        for check in (5, 6, 7):
            assert (verify._replicate_counts(cfg, check).sum(axis=(1, 2, 3)) == cfg.n).all()
        for batched, _ in COVERAGE_CHECKS.values():
            details = batched(cfg).details
            assert "coverage" in details and "batch_mismatch" not in details


# SHA-256 of the bytes of a coverage check's replicate sums, ipw_sums then
# pl_sums, at reps 300 and n 500. The counts come from Generator.multinomial,
# and the sums pass through np.cumsum only, no BLAS call, so they are the same
# bytes on any CPU. numpy's stream policy lets multinomial draws change
# between numpy versions; these are the draws of numpy 2.4. 2**40 + 3 is a
# seed of two 32-bit words.
REPLICATE_SUMS_SHA256 = {
    ("demo", 0, 5): "4597aed0c256f1a84f0df3e57593f0023417fe0576d2a7ba9ea9e6ec11c6b93e",
    ("demo", 0, 6): "ec597d08e73382b6cd97da6a00e0f279bd91925d2f4d351de9955b3db90d4c69",
    ("demo", 0, 7): "9ec82be35eb487f9d98604fc3c9caaeca3688c725ee7d67c2d8748b95433a230",
    ("demo", 2**40 + 3, 5): "9a9595358d687d6b7f81d256504a8229a3409cef1448a90168465180e8bb39f0",
    ("demo", 2**40 + 3, 6): "1f7cc282efa0f98bfec98ad2a1884ba368ecac08a8aa24e87416b566bde5c702",
    ("demo", 2**40 + 3, 7): "b7351f51d6d7622355e93a06da5a821929d9fca07566caff442f2ad00c5cfe55",
    ("hard", 0, 5): "ce0354e49ec3531aeb0c0a7cf458405bca24fa38326cb0907cc79ca7c2d76370",
    ("hard", 0, 6): "32bf4e358e36d3b66ec37908c4be1ce0b45bcb44338556a52af18d29a397f333",
    ("hard", 0, 7): "023e2baffb9690b0e138b7fa4486017111457104a9ad5007b696cd28fed3ca87",
    ("hard", 2**40 + 3, 5): "ae1efe8093ebeb976c7f85921cdd9516df815bcab09da82c2e74da9dbd4180b7",
    ("hard", 2**40 + 3, 6): "c7b3422b8a69ec1f1f3c5159e1ba06d9c61b4dd731c9cb4eb12cc39ca9ced40d",
    ("hard", 2**40 + 3, 7): "20f46537c052bbdda776af6411b39c65688dc486ecbf1817af454d2630796d55",
}


@pytest.mark.parametrize("env_name, seed, check", REPLICATE_SUMS_SHA256)
def test_replicate_sums_bytes_pinned(env_name, seed, check):
    cfg = verify.VerifyConfig(env=ENVS[env_name](seed), reps=300, seed=seed, n=500)
    ipw_sums, pl_sums = replicate_sums(cfg, check)
    digest = hashlib.sha256(ipw_sums.tobytes() + pl_sums.tobytes()).hexdigest()
    assert digest == REPLICATE_SUMS_SHA256[env_name, seed, check]


class TestCoverageChecks:
    @pytest.mark.parametrize("check", COVERAGE_CHECKS)
    @pytest.mark.parametrize("env_name", ENVS)
    def test_equal_to_per_replicate_reference(self, env_name, check):
        batched, reference = COVERAGE_CHECKS[check]
        for seed in range(6):
            env = ENVS[env_name](seed)
            for reps in (1, 7, 300):
                cfg = verify.VerifyConfig(env=env, reps=reps, seed=seed, n=100)
                assert batched(cfg) == reference(cfg)

    @pytest.mark.parametrize("check", COVERAGE_CHECKS)
    def test_one_ulp_shift_fails_with_batch_mismatch(self, monkeypatch, check):
        """Shift one cell of replicate 0's batched sums by one ulp: for some cell
        the batched score moves, and the check must then fail naming the mismatch."""
        batched, _ = COVERAGE_CHECKS[check]
        cfg = verify.VerifyConfig(env=ENVS["demo"](0), reps=3, seed=0, n=100)
        assert "batch_mismatch" not in batched(cfg).details
        original = verify._replicate_sums
        fired = []
        for cell in np.ndindex(2, cfg.env.num_contexts, cfg.env.num_actions):

            def shifted(env, counts, cell=cell):
                sums = [s.copy() for s in original(env, counts)]
                which, x, a = cell
                sums[which][0, x, a] = np.nextafter(sums[which][0, x, a], np.inf)
                return tuple(sums)

            monkeypatch.setattr(verify, "_replicate_sums", shifted)
            result = batched(cfg)
            if "batch_mismatch" in result.details:
                mismatch = result.details["batch_mismatch"]
                assert not result.passed and mismatch["batched"] != mismatch["direct"]
                fired.append(cell)
        assert fired


class TestVarianceDomination:
    # At these seeds numpy's square of some instance's mean differs by one ulp
    # from Python's pow, which exact_variance uses: the batched gaps must square
    # as exact_variance does.
    SQUARE_DIFFERS_FROM_POW = [93, 103, 116, 154]

    def test_equal_to_per_instance_reference(self):
        for seed in [*range(200), 2**32, 2**40 + 3]:
            cfg = verify.VerifyConfig(env=ENVS["demo"](0), seed=seed)
            assert verify.check_variance_domination(cfg) == reference_check_variance_domination(cfg), seed

    @pytest.mark.parametrize("seed", SQUARE_DIFFERS_FROM_POW)
    def test_every_gap_is_bitwise_the_public_one(self, monkeypatch, seed):
        """Not only the largest: every instance's batched gap, gathered over the (X, A) groups."""
        cfg = verify.VerifyConfig(env=ENVS["demo"](0), seed=seed)
        original, batched = verify._variance_gaps, []

        def recorded(*args):
            gaps = original(*args)
            batched.extend(gaps)
            return gaps

        monkeypatch.setattr(verify, "_variance_gaps", recorded)
        verify.check_variance_domination(cfg)
        assert np.sort(batched).tobytes() == np.sort(list(reference_variance_gaps(cfg))).tobytes()

    def test_one_ulp_shift_of_instance_zero_fails_with_batch_mismatch(self, monkeypatch):
        original, groups = verify._variance_gaps, []

        def shifted(*args):
            gaps = original(*args)
            if not groups:  # instance 0's group is scored first, and instance 0 is its first row
                gaps[0] = float(np.nextafter(gaps[0], np.inf))
            groups.append(args)
            return gaps

        monkeypatch.setattr(verify, "_variance_gaps", shifted)
        self.assert_batch_mismatch()

    def test_planted_exact_variance_fails_with_batch_mismatch(self, monkeypatch):
        exact_variance = estimators.exact_variance
        monkeypatch.setattr(estimators, "exact_variance", lambda policy, env: exact_variance(policy, env) + 1e-9)
        self.assert_batch_mismatch()

    def assert_batch_mismatch(self):
        result = verify.check_variance_domination(verify.VerifyConfig(env=ENVS["demo"](0), seed=0))
        mismatch = result.details["batch_mismatch"]
        assert not result.passed and mismatch["batched"] != mismatch["direct"]


class TestVerifyConfig:
    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("reps", 0, "reps must be >= 1, not 0"),
            ("n", -2, "n must be >= 1, not -2"),
            ("alpha", 0.0, r"alpha must lie in \(0, 1\), not 0.0"),
            ("alpha", 1.0, r"alpha must lie in \(0, 1\), not 1.0"),
            ("alpha", float("nan"), r"alpha must lie in \(0, 1\), not nan"),
            ("reps", 2**32 + 1, r"reps must be <= 2\*\*32, not 4294967297"),
            ("seed", -1, "seed must be an integer >= 0, not -1"),
            ("seed", 1.5, "seed must be an integer >= 0, not 1.5"),
            ("seed", True, "seed must be an integer >= 0, not True"),
            ("seed", np.int64(3), "seed must be an integer >= 0, not " + re.escape(repr(np.int64(3)))),
            ("seed", "0", "seed must be an integer >= 0, not '0'"),
            ("reps", 2.5, "reps must be an integer, not 2.5"),
            ("n", 2.5, "n must be an integer, not 2.5"),
            ("reps", True, "reps must be an integer, not True"),
            ("n", True, "n must be an integer, not True"),
            ("reps", "300", "reps must be an integer, not '300'"),
            ("n", np.int64(500), "n must be an integer, not " + re.escape(repr(np.int64(500)))),
        ],
    )
    def test_bad_field_raises_naming_it(self, field, value, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            verify.VerifyConfig(env=ENVS["demo"](0), **{field: value})


class TestDiscreteReduction:
    def test_passes(self):
        assert verify.check_discrete_reduction(verify.VerifyConfig(env=ENVS["demo"](0))).passed

    def test_covers_the_explicit_class_contraction(self, monkeypatch):
        # The all-det class is solved per context; the check also solves an
        # explicit copy of it, so a wrong contraction must fail the check.
        monkeypatch.setattr(PolicyClass, "argmin", lambda self, weights, rows: self.members[-1])
        result = verify.check_discrete_reduction(verify.VerifyConfig(env=ENVS["demo"](0)))
        assert not result.passed and "instance" in result.details
        assert result.details["paths"] == ["explicit"]

    @pytest.mark.parametrize(
        "path, target, name, broken",
        [
            ("enumeration", model._DeterministicClass, "argmin", lambda self, weights, rows: self.members[-1]),
            # An empty assignment is never the reference's.
            ("pointwise", csc.PointwiseArgminOracle, "solve", lambda self, costs: DeterministicPolicy((), 2)),
        ],
    )
    def test_failure_names_the_path_and_the_instance(self, monkeypatch, path, target, name, broken):
        monkeypatch.setattr(target, name, broken)
        result = verify.check_discrete_reduction(verify.VerifyConfig(env=ENVS["demo"](0)))
        assert not result.passed
        details = result.details
        assert details["paths"] == [path]
        assert details["beta"] == [0.01, 0.1, 1.0][details["instance"] % 3]
        assert 1 <= details["X"] <= 4 and 2 <= details["A"] <= 3

    def test_a_permuted_explicit_stack_fails(self, monkeypatch):
        # The brute force reads the explicit class's member stack, as the explicit
        # path does; the closed-form all-det solve and the pointwise argmin do not.
        tables = PolicyClass.tables
        monkeypatch.setattr(PolicyClass, "tables", lambda self, x, lo=0, hi=None: tables(self, x)[::-1][lo:hi])
        result = verify.check_discrete_reduction(verify.VerifyConfig(env=ENVS["demo"](0)))
        assert not result.passed and result.details["paths"] == ["enumeration", "pointwise"]

    def test_one_cost_build_per_instance_and_no_closed_form_stack(self, monkeypatch):
        builds = []
        build = csc.build_modified_costs
        monkeypatch.setattr(csc, "build_modified_costs", lambda *args: builds.append(args) or build(*args))
        monkeypatch.setattr(model._DeterministicClass, "tables", lambda *args: pytest.fail("all-det tables built"))
        verify.run_verification(verify.VerifyConfig(env=ENVS["demo"](0), reps=20, n=100))
        # 30 reduction instances, 7 betas of pessimism_path and 1 oracle_call_count fit.
        assert len(builds) == 38

    def test_passing_details_hold_only_the_gap(self):
        result = verify.check_discrete_reduction(verify.VerifyConfig(env=ENVS["demo"](0)))
        assert result.passed and list(result.details) == ["max_objective_gap"]


class TestMaxUsedFraction:
    def test_above_one_exactly_when_a_miss_is_recorded(self, monkeypatch):
        """With the confidence width halved, some `hard` seeds record misses and
        some do not; the fraction exceeds 1 in exactly the former."""
        width = estimators.confidence_width
        monkeypatch.setattr(estimators, "confidence_width", lambda *args: SimpleNamespace(value=width(*args).value / 2))
        missed = []
        for seed in range(6):
            details = verify.check_confidence_coverage(verify.VerifyConfig(env=ENVS["hard"](seed), seed=seed)).details
            missed.append(details["coverage"] < 1.0)
            assert (details["max_used_fraction"] > 1.0) == missed[-1]
        assert set(missed) == {True, False}


class TestSeedStreams:
    @pytest.mark.parametrize("seed", [0, 1, 2**32, 2**40 + 3])
    def test_every_seeded_stream_of_a_run_is_its_own(self, monkeypatch, seed):
        """Every seed a check hands to make_rng, in every check, gives its own Philox key.

        SeedSequence pads a seed's words with zeros, so (seed, k, 0) is the
        stream (seed, k): a check whose instance rng is (seed, k) must not
        seed a log (seed, k, 0).
        """
        cfg = verify.VerifyConfig(env=ENVS["demo"](0), reps=2, n=20, seed=seed)
        calls = []
        make_rng = simulator.make_rng

        def recording(seed_or_rng):
            if not isinstance(seed_or_rng, np.random.Generator):
                key = np.random.SeedSequence(seed_or_rng).generate_state(2, np.uint64)
                calls.append((check.__name__, seed_or_rng, key.tobytes()))
            return make_rng(seed_or_rng)

        monkeypatch.setattr(simulator, "make_rng", recording)
        for check in verify.ALL_CHECKS:
            check(cfg)
        assert {name for name, _, _ in calls} == {check.__name__ for check in verify.ALL_CHECKS}
        by_key = {}
        for name, seed_words, key in calls:
            by_key.setdefault(key, []).append((name, seed_words))
        assert [users for users in by_key.values() if len(users) > 1] == []


class TestUnbiasedness:
    def test_threshold_is_bonferroni_over_eight_two_sided_tests(self):
        assert verify._UNBIASED_Z == pytest.approx(NormalDist().inv_cdf(1 - 1e-3 / 16), rel=1e-12)

    @pytest.mark.parametrize("seed, worst_z", [(1, 3.261), (11, 3.265)])
    def test_chance_failures_at_three_sigma_pass(self, seed, worst_z):
        result = verify.check_unbiasedness(verify.VerifyConfig(env=ENVS["demo"](seed), seed=seed))
        assert result.passed
        assert result.details == {"worst_z": pytest.approx(worst_z, abs=1e-3), "z_threshold": verify._UNBIASED_Z}

    @pytest.mark.parametrize("seed", range(3))
    def test_planted_ipw_bias_still_fails(self, monkeypatch, seed):
        ipw_terms = estimators.ipw_terms
        monkeypatch.setattr(estimators, "ipw_terms", lambda policy, data: ipw_terms(policy, data) + 0.03)
        result = verify.check_unbiasedness(verify.VerifyConfig(env=ENVS["demo"](seed), seed=seed))
        assert not result.passed and result.details["worst_z"] > verify._UNBIASED_Z
