import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from plbandit import csc, simulator
from plbandit.continuous import (
    ContinuousLoggedDataset,
    GridMassPolicy,
    PiecewiseConstant,
    PiecewiseConstantDensity,
    SurrogateGrid,
    build_modified_costs_continuous,
    continuous_ipw_risk,
    continuous_penalized_objective,
    continuous_pseudo_loss,
    discretize,
    effective_bandwidth,
    h_grid,
    inverse_density_integral,
    load_continuous_dataset_jsonl,
    save_continuous_dataset_jsonl,
    smooth,
    smoothed_excess_bound,
    suggest_k,
    surrogate_set,
    train_smoothed,
    validate_continuous_dataset,
)
from plbandit.estimators import oracle_inequality_bound, oracle_inequality_bound_tuned
from plbandit.model import ClassStats, DatasetError, SupportError

from continuous_reference import (
    reference_costs,
    reference_ipw,
    reference_pseudo_loss,
    reference_train_smoothed,
    reference_validate,
)

UNIFORM = PiecewiseConstantDensity(breaks=np.array([0.0, 1.0]), values=np.array([1.0]))

# Frozen values (50-digit arithmetic): n=1000, H=0.1, mu_inf=0.5, |class|=16, alpha=0.05.
COROLLARY_TUNED_PL2 = 5.703868000462022
COROLLARY_FIXED_B1_PL2 = 6.504115374919782


def one_hot_grid_policy(k, index, num_contexts=1):
    table = np.zeros((num_contexts, k))
    table[:, index] = 1.0
    return GridMassPolicy(grid=SurrogateGrid(k), table=table)


def continuous_dataset(actions, losses, densities, ids=None):
    n = len(actions)
    return ContinuousLoggedDataset(
        context_ids=np.array(ids if ids is not None else [0] * n),
        actions=np.array(actions),
        losses=np.array(losses),
        densities=tuple(densities),
    )


class TestEffectiveBandwidth:
    def test_interior_window(self):
        assert effective_bandwidth(0.5, 0.2) == pytest.approx(0.2)

    def test_left_clipping(self):
        assert effective_bandwidth(0.05, 0.2) == pytest.approx(0.15)

    def test_right_clipping(self):
        assert effective_bandwidth(0.95, 0.2) == pytest.approx(0.15)

    @given(
        a=st.floats(min_value=1e-6, max_value=1.0 - 1e-6),
        h=st.floats(min_value=1e-6, max_value=1.0),
    )
    def test_bounds(self, a, h):
        value = effective_bandwidth(a, h)
        assert h / 2 - 1e-12 <= value <= h + 1e-12


class TestSurrogateSet:
    GRID = SurrogateGrid(5)  # points 0.1, 0.3, 0.5, 0.7, 0.9

    def points(self, a, h):
        return set(np.round(self.GRID.points[surrogate_set(a, self.GRID, h)], 10))

    def test_interior_window(self):
        assert self.points(0.32, 0.2) == {0.3}

    def test_closed_endpoints(self):
        assert self.points(0.4, 0.2) == {0.3, 0.5}

    def test_boundary_window(self):
        assert self.points(0.0, 0.2) == {0.1}

    def test_can_be_empty(self):
        assert self.points(0.2, 0.1) == set()


class TestSmoothing:
    def test_left_clipped_point_mass(self):
        policy = smooth(one_hot_grid_policy(5, 0), 0.2)
        assert policy.density(0.05, 0) == pytest.approx(5.0)
        assert policy.density(0.19, 0) == pytest.approx(5.0)
        assert policy.density(0.25, 0) == 0.0

    def test_interior_point_mass(self):
        policy = smooth(one_hot_grid_policy(5, 2), 0.2)
        assert policy.density(0.45, 0) == pytest.approx(5.0)
        assert policy.density(0.61, 0) == 0.0

    def test_density_integrates_to_one(self):
        for seed in range(8):
            k = 2 + seed % 5
            policy = smooth(simulator.random_grid_policy((201, seed), 2, k), [0.2, 0.35, 0.5, 1.0][seed % 4])
            for x in range(2):
                assert policy.density_pieces(x).integral() == pytest.approx(1.0, abs=1e-9)

    def test_density_capped_by_two_over_h(self):
        for seed in range(8):
            h = [0.2, 0.5, 0.9][seed % 3]
            policy = smooth(simulator.random_grid_policy((202, seed), 1, 4 + seed), h)
            assert policy.density_pieces(0).values.max() <= 2.0 / h + 1e-12

    def test_bandwidth_domain(self):
        with pytest.raises(ValueError):
            smooth(one_hot_grid_policy(3, 0), 1.5)


class TestDiscretize:
    def test_uniform_density_equal_bins(self):
        class Uniform:
            def density_pieces(self, x):
                return UNIFORM

        policy = discretize(Uniform(), 4, 1)
        assert policy.table[0] == pytest.approx([0.25] * 4)

    def test_mass_in_one_bin(self):
        # all mass inside bin 2 of a K=4 grid, i.e. [0.5, 0.75]
        class BinTwo:
            def density_pieces(self, x):
                return PiecewiseConstantDensity(
                    breaks=np.array([0.0, 0.5, 0.75, 1.0]), values=np.array([1e-9, 4.0, 1e-9])
                )

        policy = discretize(BinTwo(), 4, 1)
        assert policy.table[0][2] == pytest.approx(1.0, abs=1e-6)

    def test_round_trip_mass_conservation(self):
        base = simulator.random_grid_policy(203, 2, 5)
        again = discretize(smooth(base, 0.3), 5, 2)
        assert np.allclose(again.table.sum(axis=1), 1.0, atol=1e-9)


class TestInverseDensityIntegral:
    def test_uniform(self):
        assert inverse_density_integral(UNIFORM, 0.2, 0.7) == pytest.approx(0.5)

    def test_two_pieces(self):
        mu = PiecewiseConstantDensity(breaks=np.array([0.0, 0.5, 1.0]), values=np.array([1.5, 0.5]))
        assert inverse_density_integral(mu, 0.25, 0.75) == pytest.approx(2.0 / 3.0)

    def test_empty_window(self):
        assert inverse_density_integral(UNIFORM, 0.4, 0.4) == 0.0

    def test_zero_piece_rejected(self):
        bad = PiecewiseConstant(breaks=np.array([0.0, 0.5, 1.0]), values=np.array([2.0, 0.0]))
        with pytest.raises(SupportError):
            inverse_density_integral(bad, 0.4, 0.6)


class TestModifiedCostsContinuous:
    def test_uniform_logging_example(self):
        data = continuous_dataset([0.32], [0.5], [UNIFORM])
        costs = build_modified_costs_continuous(data, SurrogateGrid(5), 0.2, 0.1)
        assert costs.costs[0][1] == pytest.approx(0.5 / 0.2 + 0.1)  # a~ = 0.3 in-window
        assert costs.costs[0][2] == pytest.approx(0.1)  # a~ = 0.5 out-of-window

    def test_beta_zero_keeps_only_loss_term(self):
        data = continuous_dataset([0.32], [0.5], [UNIFORM])
        costs = build_modified_costs_continuous(data, SurrogateGrid(5), 0.2, 0.0)
        assert costs.costs[0] == pytest.approx([0.0, 2.5, 0.0, 0.0, 0.0])

    def test_grid_objective_matches_density_objective(self):
        rng = simulator.make_rng(204)
        worst = 0.0
        for i in range(20):
            num_contexts = int(rng.integers(1, 4))
            env = simulator.random_continuous_environment(rng, num_contexts)
            data = simulator.generate_logs(env, int(rng.integers(1, 7)), seed=(204, i))
            k = int(rng.integers(1, 7))
            h = [0.2, 0.5][i % 2]
            beta = [0.01, 0.1, 1.0][i % 3]
            policy = simulator.random_grid_policy(rng, num_contexts, k)
            costs = build_modified_costs_continuous(data, policy.grid, h, beta)
            gap = abs(
                csc.average_cost(policy, costs)
                - continuous_penalized_objective(smooth(policy, h), data, beta)
            )
            worst = max(worst, gap)
        assert worst <= 1e-9


class TestContinuousEstimators:
    def test_uniform_policy_matching_uniform_logging(self):
        # K point masses smoothed with h = 1/K tile [0,1] into the uniform density.
        k = 4
        table = np.full((1, k), 1.0 / k)
        policy = smooth(GridMassPolicy(grid=SurrogateGrid(k), table=table), 1.0 / k)
        data = continuous_dataset([0.1, 0.6, 0.9], [0.2, 0.4, 0.9], [UNIFORM] * 3)
        assert continuous_ipw_risk(policy, data) == pytest.approx(0.5)
        assert continuous_pseudo_loss(policy, data) == pytest.approx(1.0, abs=1e-9)

    def test_uniform_logging_gives_unit_pseudo_loss_for_any_policy(self):
        data = continuous_dataset([0.3], [0.5], [UNIFORM])
        for seed in range(5):
            policy = smooth(simulator.random_grid_policy((205, seed), 1, 3 + seed), 0.3)
            assert continuous_pseudo_loss(policy, data) == pytest.approx(1.0, abs=1e-9)

    def test_zero_density_at_logged_actions(self):
        policy = smooth(one_hot_grid_policy(5, 0), 0.2)  # supported on [0, 0.2]
        data = continuous_dataset([0.8, 0.95], [0.5, 0.7], [UNIFORM] * 2)
        assert continuous_ipw_risk(policy, data) == 0.0

    def test_pseudo_loss_can_drop_below_one_for_nonuniform_logging(self):
        # Mass concentrated where the logging density is high: the integral of
        # pi/mu is 2/3 < 1, so no general lower bound of 1 holds here.
        mu = PiecewiseConstantDensity(breaks=np.array([0.0, 0.5, 1.0]), values=np.array([1.5, 0.5]))
        policy = smooth(one_hot_grid_policy(2, 0), 0.5)  # density 2 on [0, 0.5]
        data = continuous_dataset([0.2], [0.5], [mu])
        assert continuous_pseudo_loss(policy, data) == pytest.approx(2.0 / 3.0)


class TestSmoothedExcessBound:
    def test_frozen_values(self):
        tuned = smoothed_excess_bound(1000, 0.05, 0.1, 0.5, 16, exact_pl_value=2.0)
        fixed = smoothed_excess_bound(1000, 0.05, 0.1, 0.5, 16, beta=1.0, pl_hat=2.0)
        assert tuned == pytest.approx(COROLLARY_TUNED_PL2, abs=1e-12)
        assert fixed == pytest.approx(COROLLARY_FIXED_B1_PL2, abs=1e-12)

    def test_halving_h_doubles_bandwidth_terms(self):
        slack_only = lambda h: smoothed_excess_bound(500, 0.1, h, 0.4, 8, beta=0.7, pl_hat=0.0)
        assert slack_only(0.25) == pytest.approx(2.0 * slack_only(0.5), rel=1e-12)

    def test_matches_generic_bounds_under_substitution(self):
        for h in [0.1, 0.2, 0.5]:
            for mu_inf in [0.3, 0.5, 0.9]:
                stats = ClassStats(
                    pmf_sup=2.0 / h,
                    mu_pmf_inf=mu_inf,
                    weight_ratio_sup=2.0 / (h * mu_inf),
                    class_size=16,
                )
                assert stats.mismatch == pytest.approx(2.0 / (h * mu_inf))
                fixed = smoothed_excess_bound(1000, 0.05, h, mu_inf, 16, beta=0.8, pl_hat=2.5)
                assert fixed == pytest.approx(
                    oracle_inequality_bound(stats, 1000, 0.05, 0.8, 2.5), rel=1e-12
                )
                tuned = smoothed_excess_bound(1000, 0.05, h, mu_inf, 16, exact_pl_value=2.5)
                assert tuned == pytest.approx(
                    oracle_inequality_bound_tuned(stats, 1000, 0.05, 2.5), rel=1e-12
                )

    def test_h_domain(self):
        with pytest.raises(ValueError):
            smoothed_excess_bound(100, 0.05, 1.5, 0.5, 4, exact_pl_value=2.0)


class TestHyperParameterGuidance:
    def test_suggest_k_frozen(self):
        assert suggest_k(1000, 0.5, 0.1, 0.05) == 12

    def test_suggest_k_cube_root_scaling(self):
        base = suggest_k(2000, 0.5, 0.2, 0.05)
        eight_fold = suggest_k(16000, 0.5, 0.2, 0.05)
        assert abs(eight_fold - 2 * base) <= 1

    def test_suggest_k_floor(self):
        assert suggest_k(1, 0.01, 1.0, 0.5) == 1

    def test_h_grid(self):
        assert h_grid(4) == pytest.approx([1.0, 0.5, 1.0 / 3.0, 0.25])
        assert h_grid(1) == [1.0]
        assert [round(1.0 / h) for h in h_grid(7)] == list(range(1, 8))


class TestSmoothingRiskBounds:
    def test_discretization_and_bandwidth_bounds(self):
        rng = simulator.make_rng(206)
        for i in range(10):
            num_contexts = int(rng.integers(1, 4))
            env = simulator.random_continuous_environment(rng, num_contexts)
            base = simulator.random_density_policy(rng, num_contexts)
            k = int(rng.integers(1, 9))
            h = [0.2, 0.4][i % 2]
            gamma = [0.05, 0.2][i % 2]
            reference = simulator.exact_risk_smoothed(base, h, env)
            grid_policy = discretize(base, k, num_contexts)
            gap_k = abs(simulator.exact_risk(smooth(grid_policy, h), env) - reference)
            assert gap_k <= min(1.0, 1.0 / (h * k)) + 1e-12
            tilde = simulator.random_grid_policy(rng, num_contexts, k)
            gap_h = abs(
                simulator.exact_risk(smooth(tilde, h), env)
                - simulator.exact_risk(smooth(tilde, h + gamma), env)
            )
            assert gap_h <= min(1.0, 2.0 * gamma / h) + 1e-12


class TestExactRiskSmoothedOracle:
    def test_matches_quadrature(self):
        env = simulator.random_continuous_environment(207, 2)
        base = simulator.random_density_policy(208, 2)
        h = 0.3
        closed_form = simulator.exact_risk_smoothed(base, h, env)
        m = 20_000
        grid = (np.arange(m) + 0.5) / m
        total = 0.0
        for x in range(env.num_contexts):
            pieces = base.density_pieces(x)
            g = np.array([pieces.value_at(v) for v in grid])
            h_eff = np.minimum(1.0, grid + h / 2) - np.maximum(0.0, grid - h / 2)
            loss = env.loss_fns[x]
            window_loss = np.array(
                [loss.integral(max(0.0, v - h / 2), min(1.0, v + h / 2)) for v in grid]
            )
            total += env.context_dist[x] * float(np.mean(g * window_loss / h_eff))
        assert closed_form == pytest.approx(total, abs=5e-4)

    def test_matches_large_k_discretization(self):
        env = simulator.random_continuous_environment(209, 2)
        base = simulator.random_density_policy(210, 2)
        h = 0.4
        reference = simulator.exact_risk_smoothed(base, h, env)
        fine = simulator.exact_risk(smooth(discretize(base, 400, 2), h), env)
        assert fine == pytest.approx(reference, abs=1.0 / (h * 400))


class TestContinuousDatasetIO:
    def test_jsonl_round_trip(self, tmp_path):
        env = simulator.random_continuous_environment(211, 2)
        data = simulator.generate_logs(env, 12, seed=212)
        path = tmp_path / "cont.jsonl"
        save_continuous_dataset_jsonl(data, path, metadata={"seed": 212})
        loaded = load_continuous_dataset_jsonl(path)
        assert np.array_equal(loaded.actions, data.actions)
        assert np.array_equal(loaded.context_ids, data.context_ids)
        for da, db in zip(loaded.densities, data.densities):
            assert np.array_equal(da.breaks, db.breaks)
            assert np.array_equal(da.values, db.values)
        assert validate_continuous_dataset(loaded) == []

    def test_validator_flags_bad_records(self):
        data = continuous_dataset([1.5], [0.5], [UNIFORM])
        assert any("action out of [0,1]" in v for v in validate_continuous_dataset(data))


class TestPiecewiseTypes:
    def test_density_must_integrate_to_one(self):
        with pytest.raises(ValueError):
            PiecewiseConstantDensity(breaks=np.array([0.0, 1.0]), values=np.array([0.5]))

    def test_density_must_be_positive(self):
        with pytest.raises(ValueError):
            PiecewiseConstantDensity(breaks=np.array([0.0, 0.5, 1.0]), values=np.array([2.0, 0.0]))

    def test_grid_points_tile_unit_interval(self):
        grid = SurrogateGrid(6)
        assert np.allclose(np.diff(grid.points), 1.0 / 6)
        assert 0.0 < grid.points[0] and grid.points[-1] < 1.0

    def test_value_at_endpoints(self):
        fn = PiecewiseConstant(breaks=np.array([0.0, 0.5, 1.0]), values=np.array([2.0, 3.0]))
        assert fn.value_at(0.0) == 2.0
        assert fn.value_at(1.0) == 3.0


# ---------------------------------------------------------------------------
# Grouped estimators against the per-record loop references.

H_CHOICES = [1.0, 0.5, 1.0 / 3.0, 0.25, 0.2, 0.15]


@st.composite
def densities(draw):
    """A piecewise-constant density with breaks on a 1/64 lattice."""
    inner = sorted(draw(st.sets(st.integers(1, 63), max_size=3)))
    breaks = np.array([0.0, *[b / 64.0 for b in inner], 1.0])
    raw = np.array(draw(st.lists(st.floats(0.1, 4.0), min_size=len(breaks) - 1, max_size=len(breaks) - 1)))
    return PiecewiseConstantDensity(breaks=breaks, values=raw / (np.diff(breaks) @ raw))


def copy_density(density):
    return PiecewiseConstantDensity(breaks=density.breaks.copy(), values=density.values.copy())


@st.composite
def grouped_datasets(draw):
    """(dataset, k, h, beta) of one of three kinds:

    shared  -- a few densities by content, but every record holds its own copy;
    distinct -- every record has its own density;
    edges   -- actions exactly on window edges a~_j +- h/2 and on density breaks.
    """
    kind = draw(st.sampled_from(["shared", "distinct", "edges"]))
    n = draw(st.integers(1, 12))
    num_contexts = draw(st.integers(1, 3))
    k = draw(st.integers(1, 8))
    h = draw(st.sampled_from(H_CHOICES))
    ids = draw(st.lists(st.integers(0, num_contexts - 1), min_size=n, max_size=n))
    if kind == "distinct":
        dens = [draw(densities()) for _ in range(n)]
    else:
        pool = draw(st.lists(densities(), min_size=1, max_size=3))
        dens = [copy_density(pool[draw(st.integers(0, len(pool) - 1))]) for _ in range(n)]
    if kind == "edges":
        points = SurrogateGrid(k).points
        actions = []
        for density in dens:
            edges = np.clip(np.concatenate([points - h / 2.0, points + h / 2.0]), 0.0, 1.0)
            candidates = [*edges, *density.breaks]
            actions.append(float(draw(st.sampled_from(candidates))))
    else:
        actions = draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n))
    losses = draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n))
    beta = draw(st.sampled_from([0.0, 0.01, 0.1, 1.0]))
    dataset = ContinuousLoggedDataset(
        context_ids=np.array(ids),
        actions=np.array(actions),
        losses=np.array(losses),
        densities=tuple(dens),
        num_contexts=num_contexts,
    )
    return dataset, k, h, beta


class TestGroupedEstimators:
    @given(case=grouped_datasets())
    def test_costs_match_per_record_loop(self, case):
        data, k, h, beta = case
        grid = SurrogateGrid(k)
        costs = build_modified_costs_continuous(data, grid, h, beta)
        reference = reference_costs(data, grid, h, beta)
        assert np.max(np.abs(costs.costs - reference)) <= 1e-12
        oracle = csc.PointwiseArgminOracle(num_contexts=data.num_contexts)
        reference_matrix = csc.CostMatrix(reference, context_ids=data.context_ids, num_contexts=data.num_contexts)
        assert oracle.solve(costs).assignment == oracle.solve(reference_matrix).assignment

    @given(case=grouped_datasets(), seed=st.integers(0, 2**16))
    def test_ipw_and_pseudo_loss_match_per_record_loop(self, case, seed):
        data, k, h, _ = case
        policy = smooth(simulator.random_grid_policy(seed, data.num_contexts, k), h)
        ipw, pseudo_loss = continuous_ipw_risk(policy, data), continuous_pseudo_loss(policy, data)
        assert ipw == pytest.approx(reference_ipw(policy, data), rel=1e-12, abs=1e-12)
        assert pseudo_loss == pytest.approx(reference_pseudo_loss(policy, data), rel=1e-12, abs=1e-12)

    @given(case=grouped_datasets())
    def test_train_smoothed_matches_reference_pipeline(self, case):
        data, k, h, beta = case
        policy, objective, pl_hat = train_smoothed(data, k, h, beta)
        ref_policy, ref_objective, ref_pl_hat = reference_train_smoothed(data, k, h, beta)
        assert np.array_equal(policy.base.table, ref_policy.base.table)
        assert policy.bandwidth == h
        assert objective == pytest.approx(ref_objective, rel=1e-12, abs=1e-12)
        assert pl_hat == pytest.approx(ref_pl_hat, rel=1e-12, abs=1e-12)
        assert objective == pytest.approx(continuous_penalized_objective(policy, data, beta), rel=1e-12, abs=1e-12)

    def test_window_edge_membership_is_closed(self):
        # a = 0.4 sits exactly on the edges of the windows of 0.3 and 0.5
        # (h = 0.2), so both atoms count, as in SmoothedDensityPolicy.density;
        # the right-continuous density_pieces(x).value_at(0.4) sees only 0.5.
        policy = smooth(GridMassPolicy(grid=SurrogateGrid(5), table=np.full((1, 5), 0.2)), 0.2)
        data = continuous_dataset([0.4], [1.0], [UNIFORM])
        assert continuous_ipw_risk(policy, data) == pytest.approx(policy.density(0.4, 0)) == pytest.approx(2.0)
        assert policy.density_pieces(0).value_at(0.4) == pytest.approx(1.0)

    def test_groups_by_content_not_identity(self):
        mu = PiecewiseConstantDensity(breaks=np.array([0.0, 0.5, 1.0]), values=np.array([1.5, 0.5]))
        data = continuous_dataset([0.1, 0.7, 0.3], [0.2, 0.4, 0.9], [mu, UNIFORM, copy_density(mu)])
        distinct, index = data.density_groups
        assert distinct == (mu, UNIFORM)
        assert index.tolist() == [0, 1, 0]
        assert data.logged_density.tolist() == [1.5, 1.0, 1.5]

    def test_zero_density_at_logged_action_rejected(self):
        # A dataset cannot be built with a zero piece through the public
        # constructors, so build the density without its checks.
        mu = PiecewiseConstantDensity.__new__(PiecewiseConstantDensity)
        object.__setattr__(mu, "breaks", np.array([0.0, 0.5, 1.0]))
        object.__setattr__(mu, "values", np.array([2.0, 0.0]))
        data = continuous_dataset([0.2, 0.8], [0.5, 0.5], [UNIFORM, mu])
        policy = smooth(one_hot_grid_policy(2, 0), 0.5)
        with pytest.raises(SupportError, match="at record 1"):
            build_modified_costs_continuous(data, SurrogateGrid(2), 0.5, 0.0)
        with pytest.raises(SupportError, match="at record 1"):
            continuous_ipw_risk(policy, data)

    def test_action_outside_unit_interval_rejected(self):
        data = continuous_dataset([0.5, 1.5], [0.5, 0.5], [UNIFORM] * 2)
        with pytest.raises(ValueError, match="at record 1"):
            build_modified_costs_continuous(data, SurrogateGrid(3), 0.5, 0.1)
        with pytest.raises(ValueError, match="at record 1"):
            continuous_ipw_risk(smooth(one_hot_grid_policy(3, 0), 0.5), data)


class TestValidatorMatchesLoop:
    @given(
        case=grouped_datasets(),
        bad_actions=st.dictionaries(st.integers(0, 11), st.sampled_from([-0.5, 1.5, 2.0, float("nan")])),
        bad_losses=st.dictionaries(st.integers(0, 11), st.sampled_from([-0.1, 7.0, float("inf"), float("nan")])),
    )
    def test_report_matches_per_record_loop(self, case, bad_actions, bad_losses):
        data, _, _, _ = case
        actions, losses = data.actions.copy(), data.losses.copy()
        for i, value in bad_actions.items():
            actions[i % data.n] = value
        for i, value in bad_losses.items():
            losses[i % data.n] = value
        corrupt = ContinuousLoggedDataset(
            context_ids=data.context_ids, actions=actions, losses=losses, densities=data.densities
        )
        assert validate_continuous_dataset(corrupt) == reference_validate(corrupt)

    def test_unnormalized_and_zero_densities_reported_in_record_order(self):
        class Unchecked(PiecewiseConstant):
            @property
            def min_density(self):
                return float(self.values.min())

        double = Unchecked(breaks=np.array([0.0, 1.0]), values=np.array([2.0]))
        holed = Unchecked(breaks=np.array([0.0, 0.5, 1.0]), values=np.array([2.0, 0.0]))
        data = continuous_dataset([0.2, 0.7, 1.5, 0.1], [0.5, 2.0, 0.5, 0.5], [UNIFORM, holed, double, double])
        report = validate_continuous_dataset(data)
        assert report == reference_validate(data)
        assert report == [
            "loss out of [0,1] at record 1",
            "zero logging density at record 1",
            "action out of [0,1] at record 2",
            "density does not integrate to 1 at record 2",
            "density does not integrate to 1 at record 3",
        ]


class TestLoaderInterning:
    @given(case=grouped_datasets())
    def test_interned_dataset_equals_uninterned(self, case):
        data, k, h, beta = case
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "data.jsonl"
            save_continuous_dataset_jsonl(data, path)
            loaded = load_continuous_dataset_jsonl(path)
        assert np.array_equal(loaded.actions, data.actions)
        assert np.array_equal(loaded.losses, data.losses)
        assert np.array_equal(loaded.context_ids, data.context_ids)
        first_seen = {}
        for da, db in zip(loaded.densities, data.densities):
            assert np.array_equal(da.breaks, db.breaks) and np.array_equal(da.values, db.values)
            # Equal content loads as one shared object.
            assert da is first_seen.setdefault((db.breaks.tobytes(), db.values.tobytes()), da)
        grid = SurrogateGrid(k)
        assert np.array_equal(
            build_modified_costs_continuous(loaded, grid, h, beta).costs,
            build_modified_costs_continuous(data, grid, h, beta).costs,
        )
        assert validate_continuous_dataset(loaded) == validate_continuous_dataset(data) == []

    def test_density_not_integrating_to_one_names_record(self, tmp_path):
        data = continuous_dataset([0.2, 0.7], [0.5, 0.5], [UNIFORM, UNIFORM])
        path = tmp_path / "data.jsonl"
        save_continuous_dataset_jsonl(data, path)
        lines = path.read_text().splitlines()
        row = json.loads(lines[2])
        row["density"]["values"] = [2.0]
        lines[2] = json.dumps(row)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DatasetError, match="integrate to 1.*at record 1"):
            load_continuous_dataset_jsonl(path)
