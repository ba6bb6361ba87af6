import itertools
import sys
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plbandit.model import (
    ClassStats,
    DatasetError,
    DeterministicPolicy,
    LinearCostPolicy,
    LoggedDataset,
    PolicyClass,
    SupportError,
    TabularPolicy,
    _check_pmf,
    check_floor,
    class_stats,
    context_sums,
    deterministic_class,
    load_dataset_jsonl,
    save_dataset_jsonl,
    validate_dataset,
)
from plbandit import model, simulator


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


class TestClassStats:
    def test_matched_uniform(self):
        pclass = PolicyClass.from_members([TabularPolicy(np.array([[0.5, 0.5]]))])
        stats = class_stats(pclass, np.array([0]), np.array([[0.5, 0.5]]))
        assert stats.pmf_sup == 0.5
        assert stats.mu_pmf_inf == 0.5
        assert stats.weight_ratio_sup == 1.0
        assert stats.mismatch == 1.0

    def test_deterministic_vs_skewed_logging(self):
        pclass = PolicyClass.from_members([DeterministicPolicy(assignment=(1,), num_actions=2)])
        stats = class_stats(pclass, np.array([0]), np.array([[0.8, 0.2]]))
        assert stats.pmf_sup == 1.0
        assert stats.weight_ratio_sup == pytest.approx(5.0)
        assert stats.mismatch == pytest.approx(5.0)

    def test_sup_over_members(self):
        members = [
            TabularPolicy(np.array([[0.6, 0.4]])),
            TabularPolicy(np.array([[0.9, 0.1]])),
        ]
        stats = class_stats(PolicyClass.from_members(members), np.array([0]), np.array([[0.5, 0.5]]))
        assert stats.pmf_sup == 0.9

    def test_zero_propensity_rejected(self):
        pclass = PolicyClass.from_members([TabularPolicy(np.array([[0.5, 0.5]]))])
        with pytest.raises(SupportError):
            class_stats(pclass, np.array([0]), np.array([[1.0, 0.0]]))

    def test_every_logged_row_counts(self):
        # A context logged with two different rows: the extrema cover both,
        # whatever their order.
        pclass = deterministic_class(2, 2)
        rows = np.array([[0.01, 0.99], [0.5, 0.5], [0.3, 0.7]])
        for order in ([0, 1, 2], [1, 0, 2], [2, 1, 0]):
            stats = class_stats(pclass, np.array([0, 0, 1])[order], rows[order])
            assert (stats.pmf_sup, stats.mu_pmf_inf, stats.weight_ratio_sup) == (1.0, 0.01, 100.0)

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
            ids = [3, 1, 1, 2]
            mu_rows = np.stack([env.mu_table[x] for x in ids])
            member_rows = [np.stack([m.pmf_table(4)[x] for x in ids]) for m in members]
            pmf_sup = max(float(rows.max()) for rows in member_rows)
            ratio_sup = max(float((rows / mu_rows).max()) for rows in member_rows)
            stats = class_stats(PolicyClass.from_members(members), np.array(ids), mu_rows)
            assert stats.pmf_sup == pmf_sup
            assert stats.weight_ratio_sup == ratio_sup
            assert stats.mu_pmf_inf == float(mu_rows.min())

    def test_pmf_chain_for_mass_policies(self):
        # For enumerated mass-policy classes: mu_inf <= 1/|A| <= pmf_sup.
        for seed in range(5):
            env = simulator.random_environment((2, seed), 3, 4)
            members = [simulator.random_policy((3, seed, j), 3, 4) for j in range(3)]
            stats = class_stats(PolicyClass.from_members(members), np.arange(3), env.mu_table)
            assert stats.mu_pmf_inf <= 1.0 / 4 <= stats.pmf_sup <= 1.0


NAN, INF = float("nan"), float("inf")
NOT_A_PMF = "pmf entries must be finite and nonnegative"
OFF_SUM = "pmf rows must sum to 1 within 1e-9"


class TestGuards:
    @pytest.mark.parametrize(
        "table, message",
        [
            ([[NAN, 1.0]], NOT_A_PMF),
            ([[1.0, 0.0], [NAN, NAN]], NOT_A_PMF),
            ([[INF, 0.0]], NOT_A_PMF),
            ([[-INF, 1.0]], NOT_A_PMF),
            ([[1.2, -0.2]], NOT_A_PMF),
            ([[0.7, 0.2]], OFF_SUM),
            ([[1e308, 1e308]], OFF_SUM),
            (np.zeros((2, 0)), OFF_SUM),
            ([0.5, 0.5], "pmf table must be 2-dimensional"),
        ],
        ids=["nan", "nan-row", "inf", "minus-inf", "negative", "off-sum", "sum-overflows", "no-actions", "1-d"],
    )
    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_check_pmf_messages(self, table, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            _check_pmf(table)

    @pytest.mark.parametrize("table", [[[0.0, 1.0]], [[1e-13, 1.0 - 1e-13]], np.zeros((0, 3))])
    def test_check_pmf_accepts_zeros_and_no_rows(self, table):
        assert np.array_equal(_check_pmf(table), np.asarray(table, dtype=float))

    @pytest.mark.parametrize(
        "values",
        [[0.5, 1e-12], [0.5, 0.0], [0.5, -0.1], [-INF], [NAN, 0.0], [[0.5, 0.5], [1.0, 1e-13]]],
        ids=["at-floor", "zero", "negative", "minus-inf", "nan-beside-zero", "2-d"],
    )
    def test_check_floor_raises(self, values):
        with pytest.raises(SupportError, match="^propensity below floor; support assumption violated$"):
            check_floor(np.array(values))

    @pytest.mark.parametrize("values", [[0.5, NAN], [INF, 0.5], [1.1e-12], np.zeros(0)], ids=["nan", "inf", "above-floor", "empty"])
    def test_check_floor_passes(self, values):
        # NaN compares false against the floor, so it passes, as before.
        check_floor(np.array(values))


class TestPolicies:
    @given(st.lists(st.lists(st.floats(min_value=0.01, max_value=10.0), min_size=2, max_size=5), min_size=1, max_size=4))
    def test_tabular_rows_are_pmfs(self, raw):
        width = len(raw[0])
        rows = np.array([r[:width] + [0.5] * (width - len(r)) for r in raw])
        policy = TabularPolicy(rows / rows.sum(axis=1, keepdims=True))
        for pmf in policy.pmf_table(rows.shape[0]):
            assert abs(pmf.sum() - 1.0) <= 1e-9
            assert np.all(pmf >= 0)

    def test_tabular_rejects_bad_rows(self):
        with pytest.raises(ValueError):
            TabularPolicy(np.array([[0.7, 0.2]]))
        with pytest.raises(ValueError):
            TabularPolicy(np.array([[1.2, -0.2]]))

    def test_pmf_tables(self):
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

    def test_class_tables_stack_member_tables(self):
        members = [simulator.random_policy((9, j), 3, 2) for j in range(4)] + [TabularPolicy(np.full((3, 2), 0.5))]
        pclass = PolicyClass.from_members(members)
        tables = pclass.tables(3)
        assert tables.shape == (5, 3, 2)
        for table, member in zip(tables, members):
            assert np.array_equal(table, member.pmf_table(3))
        assert np.array_equal(pclass.tables(2), tables[:, :2])

    def test_deterministic_class_tables_match_members(self):
        # tables() is closed form: it must equal the decoded members' tables
        # stacked, for the leading contexts too, and decode no member.
        for num_contexts, num_actions in itertools.product(range(1, 5), repeat=2):
            for leading in range(1, num_contexts + 1):
                pclass = deterministic_class(num_contexts, num_actions)
                tables = pclass.tables(leading)
                assert not pclass.members._decoded
                stacked = np.stack([member.pmf_table(leading) for member in pclass.members])
                assert tables.dtype == stacked.dtype and tables.tobytes() == stacked.tobytes()
                assert tables.shape == (num_actions**num_contexts, leading, num_actions)
            message = f"policy covers {num_contexts} contexts, {num_contexts + 1} needed"
            with pytest.raises(ValueError, match=message):
                pclass.tables(num_contexts + 1)
            with pytest.raises(ValueError, match=message):
                pclass.members[0].pmf_table(num_contexts + 1)

    @settings(max_examples=60, deadline=None)
    @given(
        num_contexts=st.integers(1, 7),
        num_actions=st.integers(1, 4),
        block_cells=st.integers(1, 3000),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_blocked_member_sums_are_bitwise_the_unblocked_contraction(
        self, num_contexts, num_actions, block_cells, seed
    ):
        # member_sums stacks the tables a block at a time; each member's sum
        # must be bitwise the one contraction of all stacked tables.
        rng = np.random.default_rng(seed)
        ids = rng.integers(0, num_contexts, size=30)
        weights = rng.exponential(size=(30, num_actions))
        rows = SimpleNamespace(context_ids=ids, num_contexts=num_contexts)
        summed = context_sums(weights, ids, num_contexts)
        digits = (num_actions,) * num_contexts
        tables = np.eye(num_actions)[np.indices(digits).reshape(num_contexts, -1).T]
        expected = np.einsum("cxa,xa->c", tables, summed)
        pclass = deterministic_class(num_contexts, num_actions)
        members = rng.permutation(pclass.size)[:20]
        explicit = PolicyClass.from_members([pclass.members[i] for i in members])
        with mock.patch.object(model, "_BLOCK_CELLS", block_cells):
            assert pclass.member_sums(weights, rows).tobytes() == expected.tobytes()
            assert explicit.member_sums(weights, rows).tobytes() == expected[members].tobytes()
        lo, hi = sorted(rng.integers(0, pclass.size + 1, size=2))
        assert pclass.tables(num_contexts, lo, hi).tobytes() == tables[lo:hi].tobytes()

    def test_deterministic_class_statistics_are_closed_form(self):
        # Some member puts pmf 1 on every (context, action), so pmf_sup is 1 and
        # the largest ratio is the largest 1/mu, bitwise what the member tables give.
        ids = np.array([0, 2, 1, 2, 0])
        props = np.array([[0.25, 0.75], [0.1, 0.9], [0.5, 0.5], [0.3, 0.7], [0.6, 0.4]])
        pclass = deterministic_class(3, 2)
        explicit = PolicyClass.from_members(pclass.members)
        assert np.array_equal(pclass.pmf_max(3), explicit.pmf_max(3))
        assert class_stats(pclass, ids, props) == class_stats(explicit, ids, props)
        assert class_stats(pclass, ids, props) == ClassStats(1.0, 0.1, 10.0, 8)
        with pytest.raises(ValueError, match="policy covers 3 contexts, 4 needed"):
            class_stats(pclass, np.array([3]), props[:1])

    def test_deterministic_class_beyond_a_member_index_raises(self):
        assert deterministic_class(31, 4).size == 4**31 <= sys.maxsize
        with pytest.raises(ValueError, match=f"would have {2**64} members"):
            deterministic_class(64, 2)

    def test_deterministic_class_memo_holds_only_decoded_members(self):
        members = deterministic_class(12, 4).members
        assert len(members) == 4**12
        assert members[-1].assignment == (3,) * 12 and members[-1] is members[4**12 - 1]
        assert len(members._decoded) == 1

    def test_deterministic_class_order(self):
        pclass = deterministic_class(2, 3)
        assert pclass.size == 9
        assignments = [m.assignment for m in pclass.members]
        assert assignments[0] == (0, 0)
        assert assignments[1] == (0, 1)
        assert assignments == sorted(assignments)

    @pytest.mark.parametrize("num_contexts, num_actions", [(1, 2), (2, 3), (3, 4), (6, 4)])
    def test_deterministic_class_members_in_product_order(self, num_contexts, num_actions):
        members = deterministic_class(num_contexts, num_actions).members
        assert [m.assignment for m in members] == list(itertools.product(range(num_actions), repeat=num_contexts))

    def test_deterministic_class_members_index_like_a_tuple(self):
        members = deterministic_class(3, 4).members
        first = members[-59]
        assert members[5] is first and members[-59] is first
        reference = tuple(members)
        assert len(members) == len(reference) == 64
        assert reference[5] is first
        for i in (0, 17, 63, -1, -17, -64):
            assert members[i] is reference[i]
        for s in (slice(None), slice(None, None, 7), slice(3, 40, 5), slice(-5, None), slice(50, 10, -3), slice(70, 80)):
            assert members[s] == reference[s]
        assert members[::7][1] is members[7]
        assert members.index(members[42]) == 42
        assert members.index(DeterministicPolicy(assignment=(2, 2, 2), num_actions=4)) == 42
        with pytest.raises(ValueError):
            members.index(DeterministicPolicy(assignment=(0, 0, 0, 0), num_actions=4))
        for i in (64, -65):
            with pytest.raises(IndexError):
                members[i]


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

    @pytest.mark.parametrize("ids, features", [(None, None), ([0, 1], [[0.1], [0.2]])])
    def test_needs_exactly_one_context_mode(self, ids, features):
        with pytest.raises(DatasetError, match="exactly one of context_ids / context_features"):
            LoggedDataset(
                actions=np.zeros(2, dtype=np.int64),
                losses=np.zeros(2),
                propensities=np.full((2, 2), 0.5),
                context_ids=None if ids is None else np.array(ids),
                context_features=None if features is None else np.array(features),
            )

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
        data = simulator.supervised_to_bandit(features, np.array([0, 1]), np.full((2, 2), 0.5), seed=3)
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
        # Each record's logging pmf is a row of the dataset's read-only propensities.
        data = single_context_dataset([0.4, 0.6], action=1, loss=0.2)
        assert data.propensities.flags.writeable is False
        assert data.propensities[0].flags.writeable is False
