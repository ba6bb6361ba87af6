import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from plbandit.model import (
    ClassStats,
    Context,
    DatasetError,
    DeterministicPolicy,
    DiscreteActionSpace,
    LinearCostPolicy,
    LoggedDataset,
    LoggedRecord,
    PolicyClass,
    SupportError,
    TabularPolicy,
    UniformPolicy,
    class_stats,
    deterministic_class,
    load_dataset_jsonl,
    pmf_extrema,
    save_dataset_jsonl,
    validate_dataset,
)
from plbandit import simulator


def single_context_dataset(pmf, action=0, loss=0.3):
    return LoggedDataset(
        actions=np.array([action]),
        losses=np.array([loss]),
        propensities=np.array([pmf]),
        context_ids=np.array([0]),
    )


class TestValidateDataset:
    def test_clean_record(self):
        assert validate_dataset(single_context_dataset([0.5, 0.5], loss=0.3)) == []

    def test_zero_propensity(self):
        report = validate_dataset(single_context_dataset([1.0, 0.0]))
        assert "zero propensity at record 0" in report

    def test_loss_out_of_range(self):
        report = validate_dataset(single_context_dataset([0.5, 0.5], loss=1.5))
        assert "loss out of [0,1] at record 0" in report

    def test_unnormalized_propensities(self):
        report = validate_dataset(single_context_dataset([0.5, 0.4]))
        assert "propensities do not sum to 1 at record 0" in report

    def test_simulated_datasets_validate(self):
        for seed in range(5):
            env = simulator.random_environment((1, seed), 3, 3)
            data = simulator.generate_logs(env, 50, seed=seed)
            assert validate_dataset(data) == []


class TestPmfExtrema:
    def test_uniform(self):
        contexts = [Context(id=0), Context(id=1)]
        assert pmf_extrema(UniformPolicy(4), contexts) == (0.25, 0.25)

    def test_deterministic(self):
        policy = DeterministicPolicy(assignment=(1, 0), num_actions=3)
        assert pmf_extrema(policy, [Context(id=0), Context(id=1)]) == (1.0, 0.0)

    def test_table(self):
        policy = TabularPolicy(np.array([[0.8, 0.2], [0.6, 0.4]]))
        assert pmf_extrema(policy, [Context(id=0), Context(id=1)]) == (0.8, 0.2)

    def test_empty_contexts(self):
        with pytest.raises(ValueError):
            pmf_extrema(UniformPolicy(2), [])


class TestClassStats:
    def test_matched_uniform(self):
        pclass = PolicyClass.from_members([UniformPolicy(2)])
        stats = class_stats(pclass, UniformPolicy(2), [Context(id=0)])
        assert stats.pmf_sup == 0.5
        assert stats.mu_pmf_inf == 0.5
        assert stats.weight_ratio_sup == 1.0
        assert stats.mismatch == 1.0

    def test_deterministic_vs_skewed_logging(self):
        pclass = PolicyClass.from_members([DeterministicPolicy(assignment=(1,), num_actions=2)])
        mu = TabularPolicy(np.array([[0.8, 0.2]]))
        stats = class_stats(pclass, mu, [Context(id=0)])
        assert stats.pmf_sup == 1.0
        assert stats.weight_ratio_sup == pytest.approx(5.0)
        assert stats.mismatch == pytest.approx(5.0)

    def test_sup_over_members(self):
        members = [
            TabularPolicy(np.array([[0.6, 0.4]])),
            TabularPolicy(np.array([[0.9, 0.1]])),
        ]
        stats = class_stats(PolicyClass.from_members(members), UniformPolicy(2), [Context(id=0)])
        assert stats.pmf_sup == 0.9

    def test_zero_propensity_rejected(self):
        pclass = PolicyClass.from_members([UniformPolicy(2)])
        mu = DeterministicPolicy(assignment=(0,), num_actions=2)
        with pytest.raises(SupportError):
            class_stats(pclass, mu, [Context(id=0)])

    @given(
        sup=st.floats(min_value=1e-3, max_value=50.0),
        inf=st.floats(min_value=1e-3, max_value=1.0),
        ratio=st.floats(min_value=1e-3, max_value=1e3),
        size=st.integers(min_value=1, max_value=10_000),
    )
    def test_mismatch_identity(self, sup, inf, ratio, size):
        stats = ClassStats(pmf_sup=sup, mu_pmf_inf=inf, weight_ratio_sup=ratio, class_size=size)
        assert stats.mismatch == max(np.sqrt(sup / inf), ratio)

    def test_matches_per_member_loop(self):
        # Reference: the per-member, per-context loop the contraction replaced.
        for seed in range(5):
            env = simulator.random_environment((5, seed), 4, 3)
            members = [simulator.random_policy((6, seed, j), 4, 3) for j in range(6)]
            members += list(deterministic_class(4, 3).members[::7])
            contexts = [Context(id=x) for x in (3, 1, 1, 2)]
            mu_rows = np.stack([env.logging_policy.pmf(c) for c in contexts])
            pmf_sup = max(float(np.stack([m.pmf(c) for c in contexts]).max()) for m in members)
            ratio_sup = max(float((np.stack([m.pmf(c) for c in contexts]) / mu_rows).max()) for m in members)
            stats = class_stats(PolicyClass.from_members(members), env.logging_policy, contexts)
            assert stats.pmf_sup == pmf_sup
            assert stats.weight_ratio_sup == ratio_sup
            assert stats.mu_pmf_inf == float(mu_rows.min())

    def test_pmf_chain_for_mass_policies(self):
        # For enumerated mass-policy classes: mu_inf <= 1/|A| <= pmf_sup.
        for seed in range(5):
            env = simulator.random_environment((2, seed), 3, 4)
            members = [simulator.random_policy((3, seed, j), 3, 4) for j in range(3)]
            contexts = [Context(id=x) for x in range(3)]
            stats = class_stats(PolicyClass.from_members(members), env.logging_policy, contexts)
            assert stats.mu_pmf_inf <= 1.0 / 4 <= stats.pmf_sup <= 1.0


class TestPolicies:
    @given(st.lists(st.lists(st.floats(min_value=0.01, max_value=10.0), min_size=2, max_size=5), min_size=1, max_size=4))
    def test_tabular_rows_are_pmfs(self, raw):
        width = len(raw[0])
        rows = np.array([r[:width] + [0.5] * (width - len(r)) for r in raw])
        policy = TabularPolicy(rows / rows.sum(axis=1, keepdims=True))
        for x in range(rows.shape[0]):
            pmf = policy.pmf(Context(id=x))
            assert abs(pmf.sum() - 1.0) <= 1e-9
            assert np.all(pmf >= 0)

    def test_tabular_rejects_bad_rows(self):
        with pytest.raises(ValueError):
            TabularPolicy(np.array([[0.7, 0.2]]))
        with pytest.raises(ValueError):
            TabularPolicy(np.array([[1.2, -0.2]]))

    def test_pmf_tables(self):
        assert np.array_equal(UniformPolicy(2).pmf_table(3), np.full((3, 2), 0.5))
        assert np.array_equal(
            DeterministicPolicy(assignment=(2, 0), num_actions=3).pmf_table(2), [[0, 0, 1], [1, 0, 0]]
        )
        table = np.array([[0.8, 0.2], [0.6, 0.4], [0.5, 0.5]])
        assert np.array_equal(TabularPolicy(table).pmf_table(2), table[:2])
        with pytest.raises(ValueError):
            TabularPolicy(table).pmf_table(4)
        with pytest.raises(ValueError):
            LinearCostPolicy(weights=np.eye(2), intercepts=np.zeros(2)).pmf_table(1)

    def test_pmf_rows_index_the_table(self):
        data = simulator.generate_logs(simulator.random_environment((7, 0), 3, 3), 20, seed=8)
        policy = simulator.random_policy((7, 1), 3, 3)
        assert np.array_equal(policy.pmf_rows(data), policy.table[data.context_ids])
        for i in range(data.n):
            assert np.array_equal(policy.pmf(data.context(i)), policy.table[data.context_ids[i]])

    def test_class_tables_stack_member_tables(self):
        members = [simulator.random_policy((9, j), 3, 2) for j in range(4)] + [UniformPolicy(2)]
        pclass = PolicyClass.from_members(members)
        tables = pclass.tables(3)
        assert tables.shape == (5, 3, 2)
        for table, member in zip(tables, members):
            assert np.array_equal(table, member.pmf_table(3))
        assert not tables.flags.writeable
        assert np.shares_memory(pclass.tables(2), tables)  # cached, sliced for fewer contexts

    def test_deterministic_class_tables_match_members(self):
        for num_contexts, num_actions in [(1, 2), (2, 3), (3, 4)]:
            pclass = deterministic_class(num_contexts, num_actions)
            tables = pclass.tables(num_contexts)
            for table, member in zip(tables, pclass.members):
                assert np.array_equal(table, member.pmf_table(num_contexts))

    def test_deterministic_class_order(self):
        pclass = deterministic_class(2, 3)
        assert pclass.size == 9
        assignments = [m.assignment for m in pclass.members]
        assert assignments[0] == (0, 0)
        assert assignments[1] == (0, 1)
        assert assignments == sorted(assignments)

    def test_action_space_needs_two_actions(self):
        with pytest.raises(ValueError):
            DiscreteActionSpace(1)

    def test_context_needs_exactly_one_mode(self):
        with pytest.raises(ValueError):
            Context()
        with pytest.raises(ValueError):
            Context(id=1, features=np.array([1.0]))


class TestDatasetIndexRanges:
    @pytest.mark.parametrize(
        "actions, ids, num_contexts, message",
        [
            ([0, 1, -1], [0, 1, 0], None, "action -1 out of range [0, 2) at record 2"),
            ([0, 2, 1], [0, 1, 0], None, "action 2 out of range [0, 2) at record 1"),
            ([0, 1, 1], [0, -1, 0], None, "context id -1 out of range [0, 1) at record 1"),
            ([0, 1, 1], [0, 1, 3], 3, "context id 3 out of range [0, 3) at record 2"),
        ],
    )
    def test_out_of_range_indices_rejected(self, actions, ids, num_contexts, message):
        with pytest.raises(DatasetError) as err:
            LoggedDataset(
                actions=np.array(actions),
                losses=np.zeros(3),
                propensities=np.full((3, 2), 0.5),
                context_ids=np.array(ids),
                num_contexts=num_contexts,
            )
        assert message in str(err.value)

    def test_misaligned_contexts_rejected(self):
        with pytest.raises(DatasetError):
            LoggedDataset(
                actions=np.zeros(2, dtype=np.int64),
                losses=np.zeros(2),
                propensities=np.full((2, 2), 0.5),
                context_ids=np.array([0]),
            )

    def test_loader_names_file_and_record(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            '{"header": {"num_actions": 2, "num_contexts": 1}}\n'
            '{"context": {"id": 0}, "action": 0, "loss": 0.1, "propensities": [0.5, 0.5]}\n'
            '{"context": {"id": 0}, "action": -1, "loss": 0.1, "propensities": [0.5, 0.5]}\n'
        )
        with pytest.raises(DatasetError, match=r"bad\.jsonl: action -1 out of range \[0, 2\) at record 1"):
            load_dataset_jsonl(path)


class TestDatasetRoundTrips:
    def test_records_round_trip(self):
        env = simulator.random_environment((4, 0), 3, 3)
        data = simulator.generate_logs(env, 20, seed=5)
        rebuilt = LoggedDataset.from_records(data.records, num_contexts=data.num_contexts)
        assert np.array_equal(rebuilt.actions, data.actions)
        assert np.array_equal(rebuilt.propensities, data.propensities)

    def test_jsonl_round_trip(self, tmp_path):
        env = simulator.random_environment((4, 1), 3, 3)
        data = simulator.generate_logs(env, 25, seed=6)
        path = tmp_path / "data.jsonl"
        save_dataset_jsonl(data, path, metadata={"seed": 6})
        loaded = load_dataset_jsonl(path)
        assert loaded.num_actions == data.num_actions
        assert loaded.num_contexts == data.num_contexts
        assert np.array_equal(loaded.actions, data.actions)
        assert np.array_equal(loaded.losses, data.losses)
        assert np.array_equal(loaded.propensities, data.propensities)
        assert validate_dataset(loaded) == []

    def test_feature_mode_jsonl(self, tmp_path):
        features = np.array([[0.1, 0.2], [0.3, 0.4]])
        data = simulator.supervised_to_bandit(features, np.array([0, 1]), UniformPolicy(2), seed=3)
        path = tmp_path / "feat.jsonl"
        save_dataset_jsonl(data, path)
        loaded = load_dataset_jsonl(path)
        assert np.array_equal(loaded.context_features, features)

    def test_header_mismatch_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            '{"header": {"num_actions": 3}}\n'
            '{"context": {"id": 0}, "action": 0, "loss": 0.1, "propensities": [0.5, 0.5]}\n'
        )
        with pytest.raises(ValueError):
            load_dataset_jsonl(path)

    def test_record_invariants(self):
        record = LoggedRecord(context=Context(id=0), action=1, loss=0.2, logging_pmf=np.array([0.4, 0.6]))
        assert record.logging_pmf.flags.writeable is False
