import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from plbandit import cli, simulator, verify
from plbandit.model import PolicyClass

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
