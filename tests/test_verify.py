import hashlib
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from plbandit import cli, csc, model, simulator, verify
from plbandit.model import DeterministicPolicy, PolicyClass, TabularPolicy

from verify_reference import (
    reference_check_confidence_coverage,
    reference_check_pl_band_coverage,
    reference_check_ucb_coverage,
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


class TestReplicateSums:
    @given(
        env_seed=st.integers(0, 2**16),
        num_contexts=st.integers(1, 5),
        num_actions=st.integers(2, 4),
        n=st.integers(1, 60),
        noise=st.booleans(),
        reps=st.sampled_from([1, verify._BLOCK, 2 * verify._BLOCK + 3]),
        seed=st.integers(0, 2**16),
        check=st.sampled_from([5, 6, 7]),
    )
    def test_each_replicate_is_bitwise_its_own_log(
        self, env_seed, num_contexts, num_actions, n, noise, reps, seed, check
    ):
        env = simulator.random_environment(env_seed, num_contexts, num_actions, bernoulli_noise=noise)
        cfg = verify.VerifyConfig(env=env, reps=reps, seed=seed, n=n)
        ipw_sums, pl_sums = verify._replicate_sums(cfg, check)
        assert ipw_sums.shape == pl_sums.shape == (reps, num_contexts, num_actions)
        for rep in range(reps):
            data = simulator.generate_logs(env, n, seed=(seed, check, rep))
            assert ipw_sums[rep].tobytes() == data.ipw_sums.tobytes()
            assert pl_sums[rep].tobytes() == data.pl_sums.tobytes()

    @pytest.mark.parametrize("noise", [True, False])
    def test_unreachable_context_and_exact_zero_and_one_means(self, noise):
        # Context 1 is never drawn, and cells with mean 0.0 or 1.0 give records of
        # one loss only; 2 * _BLOCK + 1 replicates end in a block of one log.
        env = simulator.SyntheticEnvironment(
            context_dist=np.array([0.6, 0.0, 0.4]),
            loss_means=np.array([[0.0, 1.0, 0.3], [1.0, 0.0, 0.5], [0.0, 0.75, 1.0]]),
            logging_policy=TabularPolicy(np.array([[0.5, 0.3, 0.2], [0.2, 0.2, 0.6], [0.1, 0.1, 0.8]])),
            bernoulli_noise=noise,
        )
        reps = 2 * verify._BLOCK + 1
        cfg = verify.VerifyConfig(env=env, reps=reps, seed=9, n=40)
        ipw_sums, pl_sums = verify._replicate_sums(cfg, 6)
        assert not pl_sums[:, 1].any()
        for rep in range(reps):
            data = simulator.generate_logs(env, cfg.n, seed=(cfg.seed, 6, rep))
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
            verify._replicate_sums(cfg, 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * num_contexts * num_actions * (n + 1)


# SHA-256 of the bytes of _replicate_sums(cfg, check), ipw_sums then pl_sums,
# at reps 300 and n 500. The sums pass through np.bincount and np.cumsum only,
# no BLAS call, so they are the same bytes on any CPU. 2**40 + 3 is a seed of
# two 32-bit words.
REPLICATE_SUMS_SHA256 = {
    ("demo", 0, 5): "07159b5b1303ba8717f6cad78db11f255e6385b389fb805ae570a5fbe73b3633",
    ("demo", 0, 6): "2140cdc9ed8974e0b145b10ea1988d74b80e52cc4b2e991681f53d4c1eaf2e1a",
    ("demo", 0, 7): "cf9afd8563e435a1e3072cd3ce717287243429ba78b2c6412221f89ee112864b",
    ("demo", 2**40 + 3, 5): "c869620a17c77b8c04300256407f3174c40338248a93e73fe251d6d5eed007e0",
    ("demo", 2**40 + 3, 6): "d077f84e86904e5ba82ef5eeae6cc37659a8c56910efbe21b8f7a415625d13fb",
    ("demo", 2**40 + 3, 7): "b2f7662953a3d124a6442113abd1702d8d45705a892c502e02116179679d1f90",
    ("hard", 0, 5): "b4e44edeec5206342fb30777f1a9035ca9d3926d6498e608e533e347bec3af7a",
    ("hard", 0, 6): "9755c20c523815fc66b7b8063de39353f3fae976d1e7e615fc2c97e0313a73b8",
    ("hard", 0, 7): "be23b3e1e181170004f92b81fc30b5f3738e6c1d6bb81addfde851f0620608f1",
    ("hard", 2**40 + 3, 5): "9e6c20c214eb05013c8a95adbfe5b401e2c412f6a3c5e6006f223b35e87a010b",
    ("hard", 2**40 + 3, 6): "b0f1f8a2a984c76b9d21dedd87b0ad182da99e520762b9eecae46cfc9940b255",
    ("hard", 2**40 + 3, 7): "e125f5b3969d1f77357bc650b7dfecba7a0f50c1c147a256c803e5f25065562f",
}


@pytest.mark.parametrize("env_name, seed, check", REPLICATE_SUMS_SHA256)
def test_replicate_sums_bytes_pinned(env_name, seed, check):
    cfg = verify.VerifyConfig(env=ENVS[env_name](seed), reps=300, seed=seed, n=500)
    ipw_sums, pl_sums = verify._replicate_sums(cfg, check)
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
        replicate_sums = verify._replicate_sums
        fired = []
        for cell in np.ndindex(2, cfg.env.num_contexts, cfg.env.num_actions):

            def shifted(cfg, check, cell=cell):
                sums = [s.copy() for s in replicate_sums(cfg, check)]
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

    def test_passing_details_hold_only_the_gap(self):
        result = verify.check_discrete_reduction(verify.VerifyConfig(env=ENVS["demo"](0)))
        assert result.passed and list(result.details) == ["max_objective_gap"]
