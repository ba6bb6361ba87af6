import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from plbandit import estimators, simulator
from plbandit.continuous import ContinuousLoggedDataset
from plbandit.model import (
    DeterministicPolicy,
    TabularPolicy,
    UniformPolicy,
    save_dataset_jsonl,
    validate_dataset,
)
from plbandit.simulator import (
    ContinuousEnvironment,
    SyntheticEnvironment,
    exact_risk,
    generate_logs,
    hard_instance,
    load_environment,
    save_environment,
    supervised_to_bandit,
)

from continuous_reference import reference_generate_continuous

NAN, INF = float("nan"), float("inf")


class TestGenerateLogs:
    def test_rejects_empty(self):
        env = simulator.random_environment(0, 2, 2)
        with pytest.raises(ValueError):
            generate_logs(env, 0, seed=1)

    def test_same_seed_identical_files(self, tmp_path):
        env = simulator.random_environment(1, 3, 3)
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        save_dataset_jsonl(generate_logs(env, 200, seed=9), a, metadata={"seed": 9})
        save_dataset_jsonl(generate_logs(env, 200, seed=9), b, metadata={"seed": 9})
        assert a.read_bytes() == b.read_bytes()

    def test_action_frequencies_match_logging_policy(self):
        eps = 0.05
        env = SyntheticEnvironment(
            context_dist=np.array([1.0]),
            loss_means=np.array([[0.2, 0.8]]),
            logging_policy=TabularPolicy(np.array([[1 - eps, eps]])),
            bernoulli_noise=False,
        )
        data = generate_logs(env, 10_000, seed=11)
        freq = float(np.mean(data.actions == 0))
        se = math.sqrt(eps * (1 - eps) / 10_000)
        assert abs(freq - (1 - eps)) <= 3 * se

    def test_generated_datasets_validate(self):
        for seed in range(4):
            env = simulator.random_environment((12, seed), 4, 3)
            assert validate_dataset(generate_logs(env, 100, seed=seed)) == []

    def test_continuous_records_carry_logging_density(self):
        env = simulator.random_continuous_environment(13, 2)
        data = generate_logs(env, 30, seed=14)
        assert isinstance(data, ContinuousLoggedDataset)
        for i in range(data.n):
            assert data.densities[data.density_index[i]] is env.logging_densities[data.context_ids[i]]
            assert 0.0 <= data.actions[i] <= 1.0

    @given(
        env_seed=st.integers(0, 2**16),
        seed=st.integers(0, 2**16),
        num_contexts=st.integers(1, 4),
        max_pieces=st.integers(1, 4),
        n=st.integers(1, 40),
        never_drawn=st.sets(st.integers(0, 3), max_size=2),
    )
    def test_continuous_matches_per_record_reference(self, env_seed, seed, num_contexts, max_pieces, n, never_drawn):
        env = simulator.random_continuous_environment(env_seed, num_contexts, max_pieces=max_pieces)
        dist = env.context_dist.copy()
        dist[[x for x in never_drawn if x < num_contexts - 1]] = 0.0
        env = ContinuousEnvironment(dist / dist.sum(), env.loss_fns, env.logging_densities)
        data = generate_logs(env, n, seed=seed)
        reference = reference_generate_continuous(env, n, seed)
        assert np.array_equal(data.context_ids, reference.context_ids)
        assert np.array_equal(data.density_index, reference.density_index)
        assert data.densities == reference.densities
        assert data.actions.tobytes() == reference.actions.tobytes()
        assert data.losses.tobytes() == reference.losses.tobytes()

    def test_empirical_moments_match_logging_policy(self):
        env = simulator.random_environment(15, 3, 3)
        mu = env.logging_policy
        data = generate_logs(env, 40_000, seed=16)
        ipw_terms = estimators.ipw_terms(mu, data)
        se = float(np.std(ipw_terms)) / math.sqrt(data.n)
        assert abs(float(np.mean(ipw_terms)) - exact_risk(mu, env)) <= 3 * se
        assert estimators.pseudo_loss(mu, data) == pytest.approx(env.num_actions)
        var = float(np.var(ipw_terms))
        m4 = float(np.mean((ipw_terms - ipw_terms.mean()) ** 4))
        var_se = math.sqrt(max(m4 - var**2, 0.0) / data.n)
        assert abs(var - estimators.exact_variance(mu, env)) <= 3 * var_se


class TestExactRisk:
    def test_argmin_policy_achieves_minimum(self):
        env = simulator.random_environment(21, 3, 4)
        best = DeterministicPolicy(
            assignment=tuple(int(a) for a in np.argmin(env.loss_means, axis=1)),
            num_actions=4,
        )
        candidates = [
            DeterministicPolicy(assignment=(i, j, k), num_actions=4)
            for i in range(4)
            for j in range(4)
            for k in range(4)
        ]
        assert exact_risk(best, env) == min(exact_risk(c, env) for c in candidates)

    def test_uniform_average(self):
        env = SyntheticEnvironment(
            context_dist=np.array([1.0]),
            loss_means=np.array([[0.0, 1.0]]),
            logging_policy=UniformPolicy(2),
        )
        assert exact_risk(UniformPolicy(2), env) == pytest.approx(0.5)

    def test_matches_monte_carlo(self):
        env = simulator.random_environment(22, 3, 3)
        policy = simulator.random_policy(23, 3, 3)
        rng = simulator.make_rng(24)
        n = 1_000_000
        xs = rng.choice(env.num_contexts, size=n, p=env.context_dist)
        pi_rows = np.stack([policy.table[x] for x in range(env.num_contexts)])[xs]
        cum = np.cumsum(pi_rows, axis=1)
        acts = np.minimum((rng.random(n)[:, None] > cum).sum(axis=1), env.num_actions - 1)
        means = env.loss_means[xs, acts]
        losses = (rng.random(n) < means).astype(float)
        se = float(np.std(losses)) / math.sqrt(n)
        assert abs(float(np.mean(losses)) - exact_risk(policy, env)) <= 3 * se


class TestSupervisedToBandit:
    def test_concentrated_logging_near_zero_loss(self):
        labels = np.array([0, 1, 2, 1, 0] * 40)
        table = np.eye(3) * 0.96 + 0.02
        pmf_rows = table[labels]
        data = supervised_to_bandit(np.random.default_rng(0).random((200, 2)), labels, pmf_rows, seed=31)
        assert float(np.mean(data.losses)) <= 0.1

    def test_uniform_logging_mean_loss(self):
        c = 4
        labels = np.arange(1000) % c
        features = np.zeros((1000, 2))
        data = supervised_to_bandit(features, labels, np.full((1000, c), 1 / c), seed=32)
        expected = (c - 1) / c
        se = math.sqrt(expected * (1 - expected) / 1000)
        assert abs(float(np.mean(data.losses)) - expected) <= 3 * se

    def test_label_out_of_range(self):
        with pytest.raises(ValueError):
            supervised_to_bandit(np.zeros((2, 1)), np.array([0, 5]), np.full((2, 3), 1 / 3), seed=33)

    def test_deterministic(self):
        features = np.linspace(0, 1, 20).reshape(10, 2)
        labels = np.arange(10) % 3
        a = supervised_to_bandit(features, labels, np.full((10, 3), 1 / 3), seed=34)
        b = supervised_to_bandit(features, labels, np.full((10, 3), 1 / 3), seed=34)
        assert np.array_equal(a.actions, b.actions)
        assert np.array_equal(a.losses, b.losses)


class TestHardInstance:
    def test_pseudo_loss_gap(self):
        env = hard_instance(1, 2, 0.01, seed=41)
        data = generate_logs(env, 50, seed=42)
        spurious = DeterministicPolicy(assignment=(1,), num_actions=2)
        safe = DeterministicPolicy(assignment=(0,), num_actions=2)
        assert estimators.pseudo_loss(spurious, data) == pytest.approx(100.0)
        assert estimators.pseudo_loss(safe, data) == pytest.approx(1.0 / 0.99)

    def test_risk_ordering(self):
        env = hard_instance(3, 4, 0.02, seed=43)
        spurious = DeterministicPolicy(assignment=(3,) * 3, num_actions=4)
        safe = DeterministicPolicy(assignment=(0,) * 3, num_actions=4)
        assert exact_risk(spurious, env) > exact_risk(safe, env)
        assert exact_risk(safe, env) == min(
            exact_risk(DeterministicPolicy(assignment=(a,) * 3, num_actions=4), env) for a in range(4)
        )

    def test_epsilon_domain(self):
        with pytest.raises(ValueError):
            hard_instance(2, 4, 0.3, seed=44)

    def test_all_zero_loss_sample_possible(self):
        env = hard_instance(1, 2, 0.01, seed=45)
        assert env.bernoulli_noise
        assert np.all(env.loss_means > 0.0) and np.all(env.loss_means < 1.0)


class TestEnvironmentFiles:
    def test_discrete_round_trip(self, tmp_path):
        env = simulator.random_environment(51, 3, 3)
        path = tmp_path / "env.json"
        save_environment(env, path, metadata={"seed": 51})
        loaded = load_environment(path)
        assert np.allclose(loaded.context_dist, env.context_dist)
        assert np.allclose(loaded.loss_means, env.loss_means)
        assert np.allclose(loaded.mu_table, env.mu_table)
        assert loaded.bernoulli_noise == env.bernoulli_noise

    def test_continuous_round_trip(self, tmp_path):
        env = simulator.random_continuous_environment(52, 2)
        path = tmp_path / "env.json"
        save_environment(env, path)
        loaded = load_environment(path)
        assert isinstance(loaded, ContinuousEnvironment)
        for a, b in zip(loaded.logging_densities, env.logging_densities):
            assert np.allclose(a.breaks, b.breaks)
            assert np.allclose(a.values, b.values)

    @pytest.mark.parametrize(
        "dist, means, logging, message",
        [
            ([NAN, 1.0], [[0.5, 0.5]] * 2, None, "context_dist must be a probability vector"),
            ([INF, 0.0], [[0.5, 0.5]] * 2, None, "context_dist must be a probability vector"),
            ([-INF, 1.0], [[0.5, 0.5]] * 2, None, "context_dist must be a probability vector"),
            ([1.5, -0.5], [[0.5, 0.5]] * 2, None, "context_dist must be a probability vector"),
            ([0.6, 0.6], [[0.5, 0.5]] * 2, None, "context_dist must be a probability vector"),
            ([], np.zeros((0, 2)), None, "context_dist must be a probability vector"),
            ([1.0], [[NAN, 0.5]], None, r"loss means must lie in \[0, 1\]"),
            ([1.0], [[INF, 0.5]], None, r"loss means must lie in \[0, 1\]"),
            ([1.0], [[-INF, 0.5]], None, r"loss means must lie in \[0, 1\]"),
            ([1.0], [[-0.1, 0.5]], None, r"loss means must lie in \[0, 1\]"),
            ([1.0], [[0.2, 1.4]], None, r"loss means must lie in \[0, 1\]"),
            ([1.0], [[0.2, 0.4]], [[1.0, 0.0]], "logging policy must be strictly positive everywhere"),
            ([1.0], [[0.2, 0.4]], [[1.0 - 1e-12, 1e-12]], "logging policy must be strictly positive everywhere"),
            ([1.0], [[0.2, 0.4]] * 2, None, "context_dist and loss_means are not aligned"),
        ],
        ids=[
            "dist-nan", "dist-inf", "dist-minus-inf", "dist-negative", "dist-off-sum", "dist-empty",
            "means-nan", "means-inf", "means-minus-inf", "means-negative", "means-above-one",
            "logging-zero", "logging-at-floor", "misaligned",
        ],
    )
    def test_environment_guard_messages(self, dist, means, logging, message):
        logging_policy = UniformPolicy(2) if logging is None else TabularPolicy(np.array(logging))
        with pytest.raises(ValueError, match=f"^{message}$"):
            SyntheticEnvironment(np.array(dist), np.array(means), logging_policy)

    def test_environment_accepts_boundary_means(self):
        env = SyntheticEnvironment(np.array([0.25, 0.75]), np.array([[0.0, 1.0], [1.0, 0.0]]), UniformPolicy(2))
        assert env.num_contexts == 2 and env.num_actions == 2

    def test_continuous_context_dist_rejects_nan(self):
        env = simulator.random_continuous_environment(53, 2)
        with pytest.raises(ValueError, match="probability vector"):
            ContinuousEnvironment(np.array([np.nan, 1.0]), env.loss_fns, env.logging_densities)

    def test_environment_validation(self):
        with pytest.raises(ValueError):
            SyntheticEnvironment(
                context_dist=np.array([0.6, 0.6]),
                loss_means=np.zeros((2, 2)),
                logging_policy=UniformPolicy(2),
            )
        with pytest.raises(ValueError):
            SyntheticEnvironment(
                context_dist=np.array([1.0]),
                loss_means=np.array([[0.2, 1.4]]),
                logging_policy=UniformPolicy(2),
            )
