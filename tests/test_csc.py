from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plbandit import cli, csc, estimators, model, simulator
from plbandit.csc import (
    CostMatrix,
    EnumerationOracle,
    PointwiseArgminOracle,
    RidgeRegressionOracle,
    average_cost,
    brute_force_argmin,
    build_modified_costs,
    train_ipw_pl,
)
from plbandit.estimators import ipw_risk, ipw_terms, penalized_objective, pl_terms, pseudo_loss
from plbandit.model import (
    DeterministicPolicy,
    LinearCostPolicy,
    LoggedDataset,
    MassPolicy,
    PolicyClass,
    TabularPolicy,
    deterministic_class,
    save_dataset_jsonl,
)

from discrete_reference import reference_brute_force_argmin


def dataset(actions, losses, propensities, ids=None):
    n = len(actions)
    return LoggedDataset(
        actions=np.array(actions),
        losses=np.array(losses),
        propensities=np.array(propensities),
        context_ids=np.array(ids if ids is not None else [0] * n),
    )


class CountingOracle:
    def __init__(self, inner):
        self.inner = inner
        self.calls = 0

    def solve(self, costs, policy_class=None):
        self.calls += 1
        return self.inner.solve(costs, policy_class)


class TestBuildModifiedCosts:
    def test_single_record_row(self):
        data = dataset([0], [0.5], [[0.5, 0.5]])
        costs = build_modified_costs(data, 0.1)
        assert costs.costs[0] == pytest.approx([1.2, 0.2])

    def test_beta_zero_is_one_hot_ipw(self):
        data = dataset([1], [0.4], [[0.2, 0.8]])
        costs = build_modified_costs(data, 0.0)
        assert costs.costs[0] == pytest.approx([0.0, 0.5])

    def test_policy_weighted_cost_equals_objective(self):
        rng = simulator.make_rng(101)
        for _ in range(20):
            env = simulator.random_environment(rng, int(rng.integers(1, 4)), int(rng.integers(2, 4)))
            data = simulator.generate_logs(env, int(rng.integers(1, 10)), seed=int(rng.integers(1 << 30)))
            policy = simulator.random_policy(rng, env.num_contexts, env.num_actions)
            beta = float(rng.random())
            costs = build_modified_costs(data, beta)
            assert average_cost(policy, costs) == pytest.approx(
                penalized_objective(policy, data, beta), abs=1e-12
            )


    @given(
        num_actions=st.integers(1, 12),
        n=st.integers(1, 40),
        seed=st.integers(0, 2**32 - 1),
        beta=st.sampled_from([0.0, 0.01, 0.5, 3.0, 1e300]),
    )
    def test_bitwise_equal_per_record_rows(self, num_actions, n, seed, beta):
        # Each row is beta / mu(.|x_i), then loss_i / mu(a_i|x_i) added at the
        # logged action, one record at a time.
        rng = np.random.default_rng(seed)
        props = rng.random((n, num_actions)) ** 4 + 1e-3
        props /= props.sum(axis=1, keepdims=True)
        actions = rng.integers(0, num_actions, n)
        losses = np.where(rng.random(n) < 0.5, rng.integers(0, 2, n), rng.random(n))
        data = dataset(actions, losses, props)
        expected = np.empty((n, num_actions))
        for i in range(n):
            row = beta / props[i]
            row[actions[i]] += losses[i] / props[i, actions[i]]
            expected[i] = row
        assert build_modified_costs(data, beta).costs.tobytes() == expected.tobytes()

    def test_fortran_ordered_propensities_bitwise_equal_c_ordered(self):
        # The logged-cell scatter writes through a flat view, which exists
        # only for a C-ordered array; the dataset must store one whatever
        # layout it was given.
        rng = np.random.default_rng(5)
        props = rng.random((30, 4)) + 0.05
        props /= props.sum(axis=1, keepdims=True)
        actions = rng.integers(0, 4, 30)
        losses = rng.random(30)
        c_data = dataset(actions, losses, props)
        f_data = dataset(actions, losses, np.asfortranarray(props))
        assert f_data.propensities.flags.c_contiguous
        for beta in (0.0, 0.3):
            c_costs = build_modified_costs(c_data, beta).costs
            assert build_modified_costs(f_data, beta).costs.tobytes() == c_costs.tobytes()

    def test_fortran_ordered_pmf_rows_through_supervised_to_bandit(self):
        rng = np.random.default_rng(6)
        pmf = rng.random((25, 3)) + 0.1
        pmf /= pmf.sum(axis=1, keepdims=True)
        features, labels = rng.random((25, 2)), rng.integers(0, 3, 25)
        c_data = simulator.supervised_to_bandit(features, labels, pmf, seed=2)
        f_data = simulator.supervised_to_bandit(features, labels, np.asfortranarray(pmf), seed=2)
        c_costs = build_modified_costs(c_data, 0.2).costs
        assert build_modified_costs(f_data, 0.2).costs.tobytes() == c_costs.tobytes()


class TestEnumerationOracle:
    def test_single_member(self):
        data = dataset([0], [0.5], [[0.5, 0.5]])
        member = TabularPolicy(np.array([[0.4, 0.6]]))
        pclass = PolicyClass.from_members([member])
        assert EnumerationOracle().solve(build_modified_costs(data, 0.1), pclass) is member

    def test_picks_cheaper_member(self):
        costs = CostMatrix(costs=np.array([[0.3, 0.7]]), context_ids=np.array([0]))
        cheap = DeterministicPolicy(assignment=(0,), num_actions=2)
        dear = DeterministicPolicy(assignment=(1,), num_actions=2)
        assert EnumerationOracle().solve(costs, PolicyClass.from_members([dear, cheap])) is cheap

    def test_tie_breaks_to_lowest_index(self):
        costs = CostMatrix(costs=np.array([[0.5, 0.5]]), context_ids=np.array([0]))
        first = DeterministicPolicy(assignment=(0,), num_actions=2)
        second = DeterministicPolicy(assignment=(1,), num_actions=2)
        assert EnumerationOracle().solve(costs, PolicyClass.from_members([first, second])) is first

    def test_returned_objective_never_above_any_member(self):
        rng = simulator.make_rng(108)
        for _ in range(10):
            env = simulator.random_environment(rng, 2, 3)
            data = simulator.generate_logs(env, 6, seed=int(rng.integers(1 << 30)))
            costs = build_modified_costs(data, 0.1)
            pclass = deterministic_class(2, 3)
            chosen = EnumerationOracle().solve(costs, pclass)
            chosen_cost = average_cost(chosen, costs)
            assert all(chosen_cost <= average_cost(m, costs) for m in pclass.members)

    def test_matches_brute_force_on_random_instances(self):
        rng = simulator.make_rng(102)
        for _ in range(15):
            num_contexts, num_actions = int(rng.integers(1, 5)), int(rng.integers(2, 4))
            env = simulator.random_environment(rng, num_contexts, num_actions)
            data = simulator.generate_logs(env, int(rng.integers(1, 9)), seed=int(rng.integers(1 << 30)))
            beta = [0.01, 0.1, 1.0][int(rng.integers(0, 3))]
            pclass = deterministic_class(num_contexts, num_actions)
            learned, value = train_ipw_pl(data, beta, EnumerationOracle(), pclass)
            reference, ref_value = brute_force_argmin(data, beta, pclass)
            assert learned is reference
            assert value == pytest.approx(ref_value, abs=1e-12)


def assert_same_lowest_index_winner(data, beta, pclass, num_contexts):
    """Enumeration, brute force and (on the full deterministic class) the
    pointwise argmin all pick the same member."""
    costs = build_modified_costs(data, beta)
    learned = EnumerationOracle().solve(costs, pclass)
    reference, _ = brute_force_argmin(data, beta, pclass)
    assert learned is reference
    pointwise = PointwiseArgminOracle(num_contexts=num_contexts).solve(costs)
    assert pointwise.assignment == learned.assignment
    return learned


class TestExactTies:
    """Ties built on purpose: every oracle must break them toward the lowest index."""

    def test_duplicate_members(self):
        env = simulator.random_environment(110, 2, 3)
        data = simulator.generate_logs(env, 12, seed=111)
        costs = build_modified_costs(data, 0.1)
        best = EnumerationOracle().solve(costs, deterministic_class(2, 3))
        twin = DeterministicPolicy(assignment=best.assignment, num_actions=3)
        worse = DeterministicPolicy(assignment=tuple((a + 1) % 3 for a in best.assignment), num_actions=3)
        pclass = PolicyClass.from_members([worse, best, twin])
        assert EnumerationOracle().solve(costs, pclass) is best
        assert brute_force_argmin(data, 0.1, pclass)[0] is best

    def test_contexts_absent_from_the_data(self):
        # Only context 1 of 4 is logged: members that differ only on the other
        # contexts tie exactly, and the lowest index assigns them action 0.
        data = dataset([0, 1, 2, 1], [0.9, 0.1, 0.7, 0.3], [[0.3, 0.5, 0.2]] * 4, ids=[1, 1, 1, 1])
        pclass = deterministic_class(4, 3)
        learned = assert_same_lowest_index_winner(data, 0.05, pclass, num_contexts=4)
        assert learned.assignment == (0, 1, 0, 0)

    def test_identical_cost_columns(self):
        # Actions 0 and 1 share a propensity and never see a loss, so their
        # cost columns are identical and cheapest; action 2 is logged with loss.
        props = [[0.4, 0.4, 0.2]] * 6
        data = dataset([2, 2, 2, 2, 2, 2], [0.5, 0.1, 0.9, 0.2, 0.3, 0.8], props, ids=[0, 1, 2, 0, 1, 2])
        pclass = deterministic_class(3, 3)
        learned = assert_same_lowest_index_winner(data, 0.3, pclass, num_contexts=3)
        assert learned.assignment == (0, 0, 0)
        assert pclass.members.index(learned) == 0

    def test_contexts_absent_from_the_data_of_a_4096_member_class(self):
        # Only contexts 1 and 4 of 6 are logged, so the members tie exactly in
        # groups of 256; the lowest index of the winning group assigns action 0
        # everywhere else.
        props = [[0.1, 0.2, 0.3, 0.4], [0.25, 0.25, 0.25, 0.25]] * 4
        data = dataset([3, 0, 2, 1, 0, 3, 1, 2], [0.1, 0.6, 0.2, 0.9, 0.8, 0.3, 0.5, 0.4], props, ids=[1, 4] * 4)
        pclass = deterministic_class(6, 4)
        costs = build_modified_costs(data, 0.05)
        learned = EnumerationOracle().solve(costs, pclass)
        assert learned is brute_force_argmin(data, 0.05, pclass)[0]
        assert learned.assignment == PointwiseArgminOracle(num_contexts=6).solve(costs).assignment
        assert [learned.assignment[x] for x in (0, 2, 3, 5)] == [0, 0, 0, 0]

    def test_train_decodes_only_the_members_it_returns(self, tmp_path, monkeypatch):
        # A log shaped like the benchmark's wide class: 6 contexts, 4 actions.
        env = simulator.random_environment((0, 101), 6, 4)
        simulator.save_environment(env, tmp_path / "env.json")
        save_dataset_jsonl(simulator.generate_logs(env, 2000, seed=0), tmp_path / "d.jsonl")
        built = []

        def recording_class(num_contexts, num_actions):
            built.append(deterministic_class(num_contexts, num_actions))
            return built[-1]

        monkeypatch.setattr(cli, "deterministic_class", recording_class)
        monkeypatch.setattr(model._DeterministicClass, "tables", lambda *args: pytest.fail("tables() on train"))
        argv = ["train", "--dataset", tmp_path / "d.jsonl", "--beta", 0.1, "--alpha", 0.05]
        assert cli.main([str(a) for a in argv + ["--env", tmp_path / "env.json", "--out", tmp_path / "m"]]) == 0
        assert len(built) == 1 and built[0].size == 4096
        assert len(built[0].members._decoded) == 1

    def test_rounding_tie_goes_to_the_minimizer(self):
        # Every member's summed cost rounds to 1e16, so scoring whole members
        # cannot tell them apart; per context, action 1 is the cheaper at
        # context 1, and the all-det class returns the exact minimizer.
        costs = CostMatrix(costs=np.array([[1e16, 1e16], [1.0, 0.5]]), context_ids=np.array([0, 1]))
        pclass = deterministic_class(2, 2)
        assert len(set(pclass.member_sums(costs.costs, costs).tolist())) == 1
        learned = EnumerationOracle().solve(costs, pclass)
        assert learned.assignment == (0, 1) == PointwiseArgminOracle().solve(costs).assignment
        assert learned is pclass.members[1]

    def test_contexts_beyond_the_class_are_rejected(self):
        costs = CostMatrix(costs=np.ones((2, 2)), context_ids=np.array([0, 2]))
        with pytest.raises(ValueError, match=r"context id 2 out of range \[0, 2\) at record 1"):
            EnumerationOracle().solve(costs, deterministic_class(2, 2))

    def test_feature_rows_are_rejected(self):
        costs = CostMatrix(costs=np.ones((2, 2)), context_features=np.zeros((2, 1)))
        with pytest.raises(ValueError, match="finite contexts"):
            EnumerationOracle().solve(costs, deterministic_class(2, 2))

    @given(st.data())
    def test_dyadic_inputs_match_brute_force(self, draw):
        # Propensities are powers of two and losses and beta are multiples of
        # 1/8, and n is a power of two, so every sum and mean in either code
        # path is exact: ties are real ties, whatever the summation order.
        num_contexts = draw.draw(st.integers(1, 3))
        num_actions = draw.draw(st.integers(2, 3))
        n = draw.draw(st.sampled_from([1, 2, 4, 8]))
        props = []
        for _ in range(n):
            pmf = [1.0]
            while len(pmf) < num_actions:
                k = draw.draw(st.integers(0, len(pmf) - 1))
                pmf[k:k + 1] = [pmf[k] / 2, pmf[k] / 2]
            props.append(draw.draw(st.permutations(pmf)))
        data = LoggedDataset(
            actions=np.array(draw.draw(st.lists(st.integers(0, num_actions - 1), min_size=n, max_size=n))),
            losses=np.array(draw.draw(st.lists(st.integers(0, 8), min_size=n, max_size=n))) / 8,
            propensities=np.array(props),
            context_ids=np.array(draw.draw(st.lists(st.integers(0, num_contexts - 1), min_size=n, max_size=n))),
            num_contexts=num_contexts,
        )
        beta = draw.draw(st.sampled_from([0.0, 0.125, 0.5, 1.0, 2.0]))
        assert_same_lowest_index_winner(data, beta, deterministic_class(num_contexts, num_actions), num_contexts)

    def test_large_class_solve_makes_no_per_member_calls(self, monkeypatch):
        calls = {"pmf_rows": 0, "pmf_table": 0, "average_cost": 0}

        def counting(name, inner):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return inner(*args, **kwargs)

            return wrapper

        env = simulator.random_environment(112, 6, 4)
        data = simulator.generate_logs(env, 500, seed=113)
        costs = build_modified_costs(data, 0.1)
        pclass = deterministic_class(6, 4)
        assert pclass.size == 4096
        monkeypatch.setattr(MassPolicy, "pmf_rows", counting("pmf_rows", MassPolicy.pmf_rows))
        monkeypatch.setattr(DeterministicPolicy, "pmf_table", counting("pmf_table", DeterministicPolicy.pmf_table))
        monkeypatch.setattr(csc, "average_cost", counting("average_cost", csc.average_cost))
        learned = EnumerationOracle().solve(costs, pclass)
        assert calls == {"pmf_rows": 0, "pmf_table": 0, "average_cost": 0}
        monkeypatch.undo()
        assert learned.assignment == PointwiseArgminOracle(num_contexts=6).solve(costs).assignment


class TestPointwiseArgminOracle:
    def test_single_row(self):
        costs = CostMatrix(costs=np.array([[1.2, 0.2]]), context_ids=np.array([0]))
        assert PointwiseArgminOracle().solve(costs).assignment == (1,)

    def test_sums_rows_per_context(self):
        costs = CostMatrix(costs=np.array([[1.0, 0.0], [0.0, 2.0]]), context_ids=np.array([0, 0]))
        assert PointwiseArgminOracle().solve(costs).assignment == (0,)

    def test_unseen_context_defaults_to_action_zero(self):
        costs = CostMatrix(costs=np.array([[1.0, 0.0]]), context_ids=np.array([1]))
        policy = PointwiseArgminOracle(num_contexts=3).solve(costs)
        assert policy.assignment == (0, 1, 0)

    def test_feature_mode_rejected(self):
        costs = CostMatrix(costs=np.array([[1.0, 0.0]]), context_features=np.array([[0.5]]))
        with pytest.raises(ValueError):
            PointwiseArgminOracle().solve(costs)

    def test_equals_enumeration_over_full_class(self):
        rng = simulator.make_rng(103)
        for _ in range(10):
            num_contexts, num_actions = int(rng.integers(1, 4)), int(rng.integers(2, 4))
            env = simulator.random_environment(rng, num_contexts, num_actions)
            data = simulator.generate_logs(env, int(rng.integers(1, 8)), seed=int(rng.integers(1 << 30)))
            costs = build_modified_costs(data, 0.1)
            pclass = deterministic_class(num_contexts, num_actions)
            enum_policy = EnumerationOracle().solve(costs, pclass)
            point_policy = PointwiseArgminOracle(num_contexts=num_contexts).solve(costs)
            assert point_policy.assignment == enum_policy.assignment


class TestRidgeRegressionOracle:
    def make_linear_instance(self, rng, n=40, dim=3, num_actions=3):
        features = rng.random((n, dim))
        weights = rng.normal(size=(dim, num_actions))
        intercepts = rng.normal(size=num_actions)
        costs = features @ weights + intercepts
        return features, CostMatrix(costs=costs, context_features=features)

    def test_recovers_pointwise_argmin_on_linear_costs(self, rng):
        features, costs = self.make_linear_instance(rng)
        policy = RidgeRegressionOracle(ridge=0.0).solve(costs)
        predicted = policy.pmf_rows(
            LoggedDataset(
                actions=np.zeros(len(features), dtype=np.int64),
                losses=np.zeros(len(features)),
                propensities=np.full((len(features), costs.num_actions), 1.0 / costs.num_actions),
                context_features=features,
            )
        )
        assert np.array_equal(np.argmax(predicted, axis=1), np.argmin(costs.costs, axis=1))

    def test_huge_ridge_collapses_to_mean_costs(self, rng):
        features, costs = self.make_linear_instance(rng)
        policy = RidgeRegressionOracle(ridge=1e12).solve(costs)
        global_best = int(np.argmin(costs.costs.mean(axis=0)))
        scores = policy.scores(features)
        assert np.all(np.argmin(scores, axis=1) == global_best)

    def test_beats_constant_baseline_on_separable_instance(self, rng):
        features, costs = self.make_linear_instance(rng)
        policy = RidgeRegressionOracle(ridge=1e-9).solve(costs)
        constant_best = min(float(costs.costs[:, a].mean()) for a in range(costs.num_actions))
        assert average_cost(policy, costs) <= constant_best + 1e-9

    def test_singular_design_without_ridge(self):
        features = np.zeros((4, 2))  # rank-deficient with duplicate zero columns
        costs = CostMatrix(costs=np.ones((4, 2)), context_features=features)
        with pytest.raises(ValueError):
            RidgeRegressionOracle(ridge=0.0).solve(costs)


class TestTrainIpwPl:
    def test_huge_beta_minimizes_pseudo_loss(self):
        data = dataset([0, 1], [0.9, 0.0], [[0.9, 0.1], [0.9, 0.1]])
        pclass = deterministic_class(1, 2)
        policy, _ = train_ipw_pl(data, 1e6, EnumerationOracle(), pclass)
        assert policy.assignment == (0,)  # max-propensity action
        assert pseudo_loss(policy, data) == min(pseudo_loss(m, data) for m in pclass.members)

    def test_beta_zero_returns_ipw_argmin(self):
        data = dataset([0, 1], [0.9, 0.0], [[0.5, 0.5], [0.5, 0.5]])
        pclass = deterministic_class(1, 2)
        policy, value = train_ipw_pl(data, 0.0, EnumerationOracle(), pclass)
        assert value == min(ipw_risk(m, data) for m in pclass.members)
        assert policy.assignment == (1,)

    def test_exactly_one_oracle_call(self):
        data = dataset([0], [0.5], [[0.5, 0.5]])
        oracle = CountingOracle(EnumerationOracle())
        train_ipw_pl(data, 0.1, oracle, deterministic_class(1, 2))
        assert oracle.calls == 1

    def test_objective_recomputed_from_dataset(self):
        env = simulator.random_environment(104, 2, 3)
        data = simulator.generate_logs(env, 30, seed=105)
        pclass = deterministic_class(2, 3)
        policy, value = train_ipw_pl(data, 0.2, EnumerationOracle(), pclass)
        assert value == penalized_objective(policy, data, 0.2)


@st.composite
def brute_force_cases(draw):
    """A finite- or feature-context log, a policy class over it and a beta.

    n reaches 300 and A reaches 9, past numpy's 8-wide pairwise-sum unroll, so
    a sum or mean taken in another order than the per-member one shows. Classes
    hold repeated members and equal tables, so ties occur.
    """
    num_actions = draw(st.integers(2, 9))
    n = draw(st.one_of(st.integers(1, 12), st.integers(200, 300)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    props = rng.random((n, num_actions)) ** 4 + draw(st.sampled_from([0.01, 0.5]))
    props /= props.sum(axis=1, keepdims=True)
    actions = rng.integers(0, num_actions, n)
    losses = np.where(rng.random(n) < 0.5, rng.integers(0, 2, n), rng.random(n))
    size = draw(st.integers(1, 10))
    if draw(st.booleans()):
        num_contexts = draw(st.integers(1, 4))
        ids = rng.integers(0, num_contexts, n)
        data = LoggedDataset(actions, losses, props, context_ids=ids, num_contexts=num_contexts)
        if num_actions**num_contexts <= 256 and draw(st.booleans()):
            return data, deterministic_class(num_contexts, num_actions), draw(st.sampled_from([0.0, 0.01, 0.5, 3.0]))
        members = [simulator.random_policy(rng, num_contexts, num_actions) for _ in range(size)]
        assignment = tuple(rng.integers(0, num_actions, num_contexts))
        uniform = TabularPolicy(np.full((num_contexts, num_actions), 1 / num_actions))
        members += [uniform, DeterministicPolicy(assignment, num_actions)]
        members += [TabularPolicy(members[0].table)]
    else:
        dim = draw(st.integers(1, 3))
        data = LoggedDataset(actions, losses, props, context_features=rng.normal(size=(n, dim)))
        members = [LinearCostPolicy(rng.normal(size=(dim, num_actions)), rng.normal(size=num_actions)) for _ in range(size)]
    members += [members[int(rng.integers(len(members)))]]
    order = rng.permutation(len(members))
    pclass = PolicyClass.from_members([members[i] for i in order])
    return data, pclass, draw(st.sampled_from([0.0, 0.01, 0.5, 3.0]))


class TestBruteForce:
    @settings(max_examples=100)
    @given(brute_force_cases(), st.sampled_from(["one", "two", "whole class"]))
    def test_blocks_equal_the_per_member_loop(self, case, block):
        data, pclass, beta = case
        cells = data.propensities.size
        budget = {"one": 1, "two": 2 * cells, "whole class": (pclass.size + 1) * cells}[block]
        with mock.patch.object(csc, "_BLOCK_CELLS", budget):
            values = csc._member_values(data, beta, pclass)
            best, value = brute_force_argmin(data, beta, pclass)
        per_member = [
            float(np.mean(ipw_terms(m, data))) + beta * float(np.mean(pl_terms(m, data))) for m in pclass.members
        ]
        assert np.array(values).tobytes() == np.array(per_member).tobytes()
        reference, ref_value = reference_brute_force_argmin(data, beta, pclass)
        assert best is reference
        assert np.float64(value).tobytes() == np.float64(ref_value).tobytes()

    def test_decodes_only_the_winner(self):
        data = simulator.generate_logs(simulator.random_environment(5, 3, 4), 50, seed=6)
        pclass = deterministic_class(3, 4)
        best, _ = brute_force_argmin(data, 0.1, pclass)
        assert list(pclass.members._decoded.values()) == [best]

    def test_single_member(self):
        data = dataset([0], [0.5], [[0.5, 0.5]])
        member = TabularPolicy(np.array([[0.4, 0.6]]))
        policy, _ = brute_force_argmin(data, 0.1, PolicyClass.from_members([member]))
        assert policy is member

    def test_identical_members_tie_to_first(self):
        data = dataset([0], [0.5], [[0.5, 0.5]])
        a = TabularPolicy(np.array([[0.4, 0.6]]))
        b = TabularPolicy(np.array([[0.4, 0.6]]))
        policy, _ = brute_force_argmin(data, 0.1, PolicyClass.from_members([a, b]))
        assert policy is a


class TestPessimismPath:
    def test_pl_non_increasing_in_beta(self):
        env = simulator.random_environment(106, 3, 3)
        data = simulator.generate_logs(env, 200, seed=107)
        pclass = deterministic_class(3, 3)
        path = []
        for beta in [0.0, 0.001, 0.01, 0.1, 1.0, 10.0, 100.0]:
            policy, _ = train_ipw_pl(data, beta, EnumerationOracle(), pclass)
            path.append(pseudo_loss(policy, data))
        assert all(later <= earlier + 1e-12 for earlier, later in zip(path, path[1:]))


class TestCostMatrix:
    @pytest.mark.parametrize("ids, num_contexts", [([0, -1], None), ([0, 3], 3)])
    def test_out_of_range_context_id_rejected(self, ids, num_contexts):
        # np.add.at would fold a negative id into the last context's row.
        with pytest.raises(ValueError):
            CostMatrix(costs=np.ones((2, 2)), context_ids=np.array(ids), num_contexts=num_contexts)

    def test_context_ids_must_align_with_rows(self):
        with pytest.raises(ValueError):
            CostMatrix(costs=np.ones((2, 2)), context_ids=np.array([0]))
