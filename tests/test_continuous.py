import json
import math
import sys
import tempfile
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from plbandit import continuous as cont
from plbandit import csc, model, simulator
from plbandit.continuous import (
    ContinuousLoggedDataset,
    _dedupe_breaks,
    GridMassPolicy,
    PiecewiseConstant,
    PiecewiseConstantDensity,
    SmoothedDensityPolicy,
    SurrogateGrid,
    build_modified_costs_continuous,
    continuous_ipw_risk,
    continuous_penalized_objective,
    continuous_pseudo_loss,
    discretize,
    effective_bandwidth,
    h_grid,
    load_continuous_dataset_jsonl,
    save_continuous_dataset_jsonl,
    smoothed_class_stats,
    suggest_k,
    surrogate_set,
    train_smoothed,
    validate_continuous_dataset,
)
from plbandit.estimators import oracle_inequality_bound, oracle_inequality_bound_tuned
from plbandit.model import CHUNK_BYTES, DatasetError

from continuous_reference import (
    reciprocal_integral,
    reference_costs,
    reference_dedupe_breaks,
    reference_density_pieces,
    reference_discretize,
    reference_exact_risk_smoothed,
    reference_ipw,
    reference_load_continuous,
    reference_pseudo_loss,
    reference_train_smoothed,
    reference_validate,
    reference_value_at,
    reference_values_at,
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
    """Record i logged under densities[i]; the same object is listed once."""
    n = len(actions)
    distinct = tuple(dict.fromkeys(densities))
    return ContinuousLoggedDataset(
        context_ids=np.array(ids if ids is not None else [0] * n),
        actions=np.array(actions),
        losses=np.array(losses),
        densities=distinct,
        density_index=np.array([distinct.index(d) for d in densities]),
    )


def logged_densities(dataset):
    return [dataset.densities[g] for g in dataset.density_index]


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
        policy = SmoothedDensityPolicy(one_hot_grid_policy(5, 0), 0.2)
        assert policy.density(0.05, 0) == pytest.approx(5.0)
        assert policy.density(0.19, 0) == pytest.approx(5.0)
        assert policy.density(0.25, 0) == 0.0

    def test_interior_point_mass(self):
        policy = SmoothedDensityPolicy(one_hot_grid_policy(5, 2), 0.2)
        assert policy.density(0.45, 0) == pytest.approx(5.0)
        assert policy.density(0.61, 0) == 0.0

    def test_density_integrates_to_one(self):
        for seed in range(8):
            k = 2 + seed % 5
            h = [0.2, 0.35, 0.5, 1.0][seed % 4]
            policy = SmoothedDensityPolicy(simulator.random_grid_policy((201, seed), 2, k), h)
            for x in range(2):
                assert policy.density_pieces(x).integral() == pytest.approx(1.0, abs=1e-9)

    def test_density_capped_by_two_over_h(self):
        for seed in range(8):
            h = [0.2, 0.5, 0.9][seed % 3]
            policy = SmoothedDensityPolicy(simulator.random_grid_policy((202, seed), 1, 4 + seed), h)
            assert policy.density_pieces(0).values.max() <= 2.0 / h + 1e-12

    def test_bandwidth_domain(self):
        with pytest.raises(ValueError):
            SmoothedDensityPolicy(one_hot_grid_policy(3, 0), 1.5)


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
        again = discretize(SmoothedDensityPolicy(base, 0.3), 5, 2)
        assert np.allclose(again.table.sum(axis=1), 1.0, atol=1e-9)


class TestInverseDensityIntegral:
    def test_uniform(self):
        assert reciprocal_integral(UNIFORM, 0.2, 0.7) == pytest.approx(0.5)

    def test_two_pieces(self):
        mu = PiecewiseConstantDensity(breaks=np.array([0.0, 0.5, 1.0]), values=np.array([1.5, 0.5]))
        assert reciprocal_integral(mu, 0.25, 0.75) == pytest.approx(2.0 / 3.0)

    def test_empty_window(self):
        assert reciprocal_integral(UNIFORM, 0.4, 0.4) == 0.0

    @pytest.mark.parametrize("lo, hi", [(0.6, 0.4), (-0.1, 0.5), (0.5, 1.1)])
    def test_window_outside_unit_interval_rejected(self, lo, hi):
        with pytest.raises(ValueError, match="0 <= lo <= hi <= 1"):
            reciprocal_integral(UNIFORM, lo, hi)

    def test_zero_piece_rejected(self):
        bad = PiecewiseConstant(breaks=np.array([0.0, 0.5, 1.0]), values=np.array([2.0, 0.0]))
        with pytest.raises(ValueError, match="zero-density piece inside the integration window"):
            reciprocal_integral(bad, 0.4, 0.6)


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

    @pytest.mark.parametrize("h", [-0.5, 0.0, 2.0, float("nan")])
    def test_bandwidth_outside_unit_interval_rejected(self, h):
        data = continuous_dataset([0.32], [0.5], [UNIFORM])
        with pytest.raises(ValueError, match=r"^bandwidth must lie in \(0, 1\]$"):
            build_modified_costs_continuous(data, SurrogateGrid(4), h, 0.1)

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
                - continuous_penalized_objective(SmoothedDensityPolicy(policy, h), data, beta)
            )
            worst = max(worst, gap)
        assert worst <= 1e-9


class TestContinuousEstimators:
    def test_uniform_policy_matching_uniform_logging(self):
        # K point masses smoothed with h = 1/K tile [0,1] into the uniform density.
        k = 4
        table = np.full((1, k), 1.0 / k)
        policy = SmoothedDensityPolicy(GridMassPolicy(grid=SurrogateGrid(k), table=table), 1.0 / k)
        data = continuous_dataset([0.1, 0.6, 0.9], [0.2, 0.4, 0.9], [UNIFORM] * 3)
        assert continuous_ipw_risk(policy, data) == pytest.approx(0.5)
        assert continuous_pseudo_loss(policy, data) == pytest.approx(1.0, abs=1e-9)

    def test_uniform_logging_gives_unit_pseudo_loss_for_any_policy(self):
        data = continuous_dataset([0.3], [0.5], [UNIFORM])
        for seed in range(5):
            policy = SmoothedDensityPolicy(simulator.random_grid_policy((205, seed), 1, 3 + seed), 0.3)
            assert continuous_pseudo_loss(policy, data) == pytest.approx(1.0, abs=1e-9)

    def test_zero_density_at_logged_actions(self):
        policy = SmoothedDensityPolicy(one_hot_grid_policy(5, 0), 0.2)  # supported on [0, 0.2]
        data = continuous_dataset([0.8, 0.95], [0.5, 0.7], [UNIFORM] * 2)
        assert continuous_ipw_risk(policy, data) == 0.0

    def test_pseudo_loss_can_drop_below_one_for_nonuniform_logging(self):
        # Mass concentrated where the logging density is high: the integral of
        # pi/mu is 2/3 < 1, so no general lower bound of 1 holds here.
        mu = PiecewiseConstantDensity(breaks=np.array([0.0, 0.5, 1.0]), values=np.array([1.5, 0.5]))
        policy = SmoothedDensityPolicy(one_hot_grid_policy(2, 0), 0.5)  # density 2 on [0, 0.5]
        data = continuous_dataset([0.2], [0.5], [mu])
        assert continuous_pseudo_loss(policy, data) == pytest.approx(2.0 / 3.0)


def smoothed_fixed(n, alpha, h, mu_inf, size, beta, pl_hat):
    return oracle_inequality_bound(smoothed_class_stats(h, mu_inf, size), n, alpha, beta, pl_hat)


def smoothed_tuned(n, alpha, h, mu_inf, size, exact_pl_value):
    return oracle_inequality_bound_tuned(smoothed_class_stats(h, mu_inf, size), n, alpha, exact_pl_value)


class TestSmoothedExcessBound:
    """The oracle inequalities of the smoothed class: the discrete bounds over
    its `smoothed_class_stats`."""

    def test_frozen_values(self):
        tuned = smoothed_tuned(1000, 0.05, 0.1, 0.5, 16, exact_pl_value=2.0)
        fixed = smoothed_fixed(1000, 0.05, 0.1, 0.5, 16, beta=1.0, pl_hat=2.0)
        assert tuned == pytest.approx(COROLLARY_TUNED_PL2, abs=1e-12)
        assert fixed == pytest.approx(COROLLARY_FIXED_B1_PL2, abs=1e-12)

    def test_halving_h_doubles_bandwidth_terms(self):
        slack_only = lambda h: smoothed_fixed(500, 0.1, h, 0.4, 8, beta=0.7, pl_hat=0.0)
        assert slack_only(0.25) == pytest.approx(2.0 * slack_only(0.5), rel=1e-12)

    def test_matches_generic_bounds_under_substitution(self):
        """The composition equals the closed forms with pmf_sup = 2/h and
        mismatch = 2/(h * mu_inf) substituted."""
        for h in [0.1, 0.2, 0.5]:
            for mu_inf in [0.3, 0.5, 0.9]:
                stats = smoothed_class_stats(h, mu_inf, 16)
                assert (stats.pmf_sup, stats.mu_pmf_inf, stats.class_size) == (2.0 / h, mu_inf, 16)
                assert stats.weight_ratio_sup == stats.mismatch == pytest.approx(2.0 / (h * mu_inf))
                log_term = math.log(4.0 * 16 / 0.05)
                fixed = smoothed_fixed(1000, 0.05, h, mu_inf, 16, beta=0.8, pl_hat=2.5)
                assert fixed == pytest.approx(
                    2.0 * 0.8 * 2.5 + (3.0 / 0.8 + 16.0 / mu_inf) * log_term / (1000 * h), rel=1e-12
                )
                tuned = smoothed_tuned(1000, 0.05, h, mu_inf, 16, exact_pl_value=2.5)
                assert tuned == pytest.approx(
                    6.0 * math.sqrt(2.5 * log_term / (1000 * h)) + 24.0 * log_term / (1000 * h * mu_inf),
                    rel=1e-12,
                )

    def test_h_domain(self):
        for h in [1.5, 0.0, -0.1, math.nan]:
            with pytest.raises(ValueError, match="bandwidth"):
                smoothed_class_stats(h, 0.5, 4)
        with pytest.raises(ValueError, match="mu_density_inf"):
            smoothed_class_stats(0.5, 0.0, 4)


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
            gap_k = abs(simulator.exact_risk(SmoothedDensityPolicy(grid_policy, h), env) - reference)
            assert gap_k <= min(1.0, 1.0 / (h * k)) + 1e-12
            tilde = simulator.random_grid_policy(rng, num_contexts, k)
            gap_h = abs(
                simulator.exact_risk(SmoothedDensityPolicy(tilde, h), env)
                - simulator.exact_risk(SmoothedDensityPolicy(tilde, h + gamma), env)
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
        fine = simulator.exact_risk(SmoothedDensityPolicy(discretize(base, 400, 2), h), env)
        assert fine == pytest.approx(reference, abs=1.0 / (h * 400))


class TestContinuousDatasetIO:
    def test_jsonl_round_trip(self, tmp_path):
        env = simulator.random_continuous_environment(211, 2)
        data = simulator.generate_logs(env, 12, seed=212)
        path = tmp_path / "cont.jsonl"
        save_continuous_dataset_jsonl(data, path, metadata={"seed": 212})
        loaded = load_continuous_dataset_jsonl(path)
        for name in ("context_ids", "actions", "losses", "density_index"):
            a, b = getattr(loaded, name), getattr(data, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
        for da, db in zip(logged_densities(loaded), logged_densities(data)):
            assert np.array_equal(da.breaks, db.breaks)
            assert np.array_equal(da.values, db.values)

    @pytest.mark.parametrize("seed", range(20))
    def test_round_trip_keeps_density_numbering(self, tmp_path, seed):
        data = simulator.generate_logs(simulator.random_continuous_environment((seed, 202), 3), 50, seed=seed)
        path = tmp_path / "cont.jsonl"
        save_continuous_dataset_jsonl(data, path)
        loaded = load_continuous_dataset_jsonl(path)
        for da, db in zip(logged_densities(loaded), logged_densities(data)):
            assert da.breaks.tobytes() == db.breaks.tobytes() and da.values.tobytes() == db.values.tobytes()
        texts = [json.dumps(d.to_json(), sort_keys=True) for d in data.densities]
        if len(set(texts)) == len(texts):  # distinct densities: the file keeps their numbers
            assert loaded.density_index.tolist() == data.density_index.tolist()
            assert [json.dumps(d.to_json(), sort_keys=True) for d in loaded.densities] == texts

    def test_unencodable_metadata_leaves_the_file(self, tmp_path):
        # A numpy integer is not JSON: the header is encoded before the file is opened.
        data = simulator.generate_logs(simulator.random_continuous_environment(211, 3), 12, seed=212)
        path = tmp_path / "cont.jsonl"
        save_continuous_dataset_jsonl(data, path, metadata={"seed": 212})
        before = path.read_bytes()
        with pytest.raises(TypeError):
            save_continuous_dataset_jsonl(data, path, metadata={"x": np.int64(3)})
        assert path.read_bytes() == before

    @pytest.mark.parametrize("key", ["action_space", "densities", "num_actions", "num_contexts"])
    def test_metadata_may_not_overwrite_a_format_key(self, tmp_path, key):
        # num_contexts 9 over a 3-context log used to load as a 9-context one.
        data = simulator.generate_logs(simulator.random_continuous_environment(211, 3), 12, seed=212)
        with pytest.raises(ValueError, match=f"^metadata key '{key}' is a header key the dataset format writes$"):
            save_continuous_dataset_jsonl(data, tmp_path / "cont.jsonl", metadata={"seed": 212, key: 9})
        assert not (tmp_path / "cont.jsonl").exists()

    @pytest.mark.parametrize("num_contexts", [0, -1, 2.5, 3.0, True, np.True_, "3"])
    def test_bad_num_contexts_named_before_any_record(self, num_contexts):
        # Record 0's context id 5 and density index 4 are out of range; the count is named first.
        with pytest.raises(DatasetError, match=r"^num_contexts must be an integer >= 1, not "):
            ContinuousLoggedDataset([5], [0.5], [0.5], (UNIFORM,), [4], num_contexts)

    @pytest.mark.parametrize("num_contexts", [6, np.int64(6), np.uint8(6)])
    def test_integer_num_contexts_kept_as_int(self, num_contexts):
        data = ContinuousLoggedDataset([5], [0.5], [0.5], (UNIFORM,), [0], num_contexts)
        assert type(data.num_contexts) is int and data.num_contexts == 6

    def test_validator_flags_bad_records(self):
        # The constructor rejects the action, and the loss; the validator is its check.
        with pytest.raises(DatasetError, match=r"^action 1\.5 out of \[0, 1\] at record 0$"):
            continuous_dataset([1.5], [0.5], [UNIFORM])
        with pytest.raises(DatasetError, match=r"^loss out of \[0,1\] at record 0$"):
            continuous_dataset([0.5, 1.0], [1.5, 0.5], [UNIFORM] * 2)
        assert validate_continuous_dataset(continuous_dataset([0.5, 1.0], [1.0, -0.0], [UNIFORM] * 2)) == []

    @pytest.mark.parametrize("index, record", [([0, 2], 1), ([-1, 0], 0)])
    def test_density_index_out_of_range_names_record(self, index, record):
        message = f"density index {index[record]} out of range \\[0, 2\\) at record {record}"
        with pytest.raises(DatasetError, match=message):
            ContinuousLoggedDataset(
                context_ids=np.zeros(2),
                actions=np.array([0.2, 0.7]),
                losses=np.array([0.5, 0.5]),
                densities=(UNIFORM, UNIFORM),
                density_index=np.array(index),
            )

    @pytest.mark.parametrize("record", [0, 5])
    def test_byte_that_is_not_utf8_names_record(self, tmp_path, record):
        data = simulator.generate_logs(simulator.random_continuous_environment(211, 2), 8, seed=212)
        path = tmp_path / "cont.jsonl"
        save_continuous_dataset_jsonl(data, path)
        lines = path.read_bytes().splitlines(keepends=True)
        lines[record + 1] = lines[record + 1].replace(b'"loss"', b'"lo\xffss"')
        path.write_bytes(b"".join(lines))
        with pytest.raises(DatasetError, match=rf"cont\.jsonl: invalid UTF-8 byte 0xff at record {record}$"):
            load_continuous_dataset_jsonl(path)

    def test_min_logging_density_ignores_unused_densities(self):
        low = PiecewiseConstantDensity(breaks=np.array([0.0, 0.5, 1.0]), values=np.array([1.9, 0.1]))
        data = ContinuousLoggedDataset(
            context_ids=np.array([0, 1]),
            actions=np.array([0.2, 0.7]),
            losses=np.array([0.5, 0.5]),
            densities=(low, UNIFORM),
            density_index=np.array([1, 1]),
        )
        assert data.min_logging_density == 1.0


class TestPiecewiseTypes:
    @pytest.mark.parametrize(
        "table", [[[np.nan, 1.0]], [[np.inf, 0.0]], [[1.5, -0.5]], [[0.5, 0.6]], [[0.5, 0.5, 0.0]]]
    )
    def test_grid_mass_policy_rejects_bad_tables(self, table):
        with pytest.raises(ValueError):
            GridMassPolicy(grid=SurrogateGrid(2), table=np.array(table))

    def test_density_must_integrate_to_one(self):
        with pytest.raises(ValueError):
            PiecewiseConstantDensity(breaks=np.array([0.0, 1.0]), values=np.array([0.5]))

    @pytest.mark.parametrize("breaks", [[0.0, np.nan, 1.0], [np.nan, 1.0], [0.0, np.nan]])
    def test_nan_breaks_rejected(self, breaks):
        with pytest.raises(ValueError, match="breaks must"):
            PiecewiseConstant(breaks=np.array(breaks), values=np.ones(len(breaks) - 1))

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
    """(dataset, k, h, beta) of one of four kinds:

    shared  -- a few densities by content, but every record has its own copy;
    distinct -- every record has its own density;
    pooled  -- a few densities, some perhaps used by no record, indexed per record;
    edges   -- pooled, with actions exactly on window edges a~_j +- h/2 and on density breaks.
    """
    kind = draw(st.sampled_from(["shared", "distinct", "pooled", "edges"]))
    n = draw(st.integers(1, 12))
    num_contexts = draw(st.integers(1, 3))
    k = draw(st.integers(1, 8))
    h = draw(st.sampled_from(H_CHOICES))
    ids = draw(st.lists(st.integers(0, num_contexts - 1), min_size=n, max_size=n))
    if kind == "distinct":
        dens, index = [draw(densities()) for _ in range(n)], list(range(n))
    else:
        dens = draw(st.lists(densities(), min_size=1, max_size=3))
        index = draw(st.lists(st.integers(0, len(dens) - 1), min_size=n, max_size=n))
        if kind == "shared":
            dens, index = [copy_density(dens[g]) for g in index], list(range(n))
    if kind == "edges":
        points = SurrogateGrid(k).points
        actions = []
        for density in (dens[g] for g in index):
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
        density_index=np.array(index),
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
        policy = SmoothedDensityPolicy(simulator.random_grid_policy(seed, data.num_contexts, k), h)
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
        policy = SmoothedDensityPolicy(GridMassPolicy(grid=SurrogateGrid(5), table=np.full((1, 5), 0.2)), 0.2)
        data = continuous_dataset([0.4], [1.0], [UNIFORM])
        assert continuous_ipw_risk(policy, data) == pytest.approx(policy.density(0.4, 0)) == pytest.approx(2.0)
        assert policy.density_pieces(0).value_at(0.4) == pytest.approx(1.0)

    def test_groups_by_content_not_identity(self, tmp_path):
        mu = PiecewiseConstantDensity(breaks=np.array([0.0, 0.5, 1.0]), values=np.array([1.5, 0.5]))
        saved = continuous_dataset([0.1, 0.7, 0.3], [0.2, 0.4, 0.9], [mu, UNIFORM, copy_density(mu)])
        path = tmp_path / "data.jsonl"
        save_continuous_dataset_jsonl(saved, path)
        data = load_continuous_dataset_jsonl(path)
        distinct, index = data.densities, data.density_index
        assert [(d.breaks.tolist(), d.values.tolist()) for d in distinct] == [
            (mu.breaks.tolist(), mu.values.tolist()),
            (UNIFORM.breaks.tolist(), UNIFORM.values.tolist()),
        ]
        assert index.tolist() == [0, 1, 0]
        assert data.logged_density.tolist() == [1.5, 1.0, 1.5]

    def test_zero_density_at_logged_action_rejected(self):
        # A zero piece fails the density's own checks, and a PiecewiseConstant
        # holding one is not a density, so no dataset holds it.
        breaks, values = np.array([0.0, 0.5, 1.0]), np.array([2.0, 0.0])
        with pytest.raises(ValueError, match="^density must be strictly positive$"):
            PiecewiseConstantDensity(breaks=breaks, values=values)
        holed = PiecewiseConstant(breaks=breaks, values=values)
        with pytest.raises(DatasetError, match="^density 1 is not a PiecewiseConstantDensity at record 1$"):
            continuous_dataset([0.2, 0.8], [0.5, 0.5], [UNIFORM, holed])

    def test_action_outside_unit_interval_rejected(self):
        # The rule is [0, 1] exactly, and the first bad record is named.
        for action, text in [(1.5, "1.5"), (-0.25, "-0.25"), (1.0 + 1e-10, "1.0000000001"), (float("nan"), "nan")]:
            with pytest.raises(DatasetError, match=rf"^action {text} out of \[0, 1\] at record 1$"):
                continuous_dataset([0.5, action, 2.0], [0.5] * 3, [UNIFORM] * 3)


class TestRecordRules:
    """ContinuousLoggedDataset's rules on losses and array ranks, at their
    float edges, with the bad value at record 0 and at a middle record; and
    the loader's order: the constructor judges every record before the first
    one the loader cannot read, and names its fault first."""

    @staticmethod
    def build(record=None, loss=0.5, **arrays):
        losses = np.full(5, 0.5)
        if record is not None:
            losses[record] = loss
        fields = dict(context_ids=np.zeros(5), actions=np.full(5, 0.5), losses=losses, density_index=np.zeros(5))
        return ContinuousLoggedDataset(densities=(UNIFORM,), **fields | arrays)

    @pytest.mark.parametrize("record", [0, 2])
    @pytest.mark.parametrize("loss", [-0.0, 0.0, 1.0, 5e-324])
    def test_edge_losses_accepted(self, record, loss):
        assert self.build(record, loss).losses.tobytes() == np.where(np.arange(5) == record, loss, 0.5).tobytes()

    @pytest.mark.parametrize("record", [0, 2])
    @pytest.mark.parametrize(
        "loss", [np.nextafter(1.0, 2.0), np.nextafter(0.0, -1.0), float("nan"), float("inf"), float("-inf")]
    )
    def test_edge_losses_rejected(self, record, loss):
        with pytest.raises(DatasetError, match=rf"^loss out of \[0,1\] at record {record}$"):
            self.build(record, loss)

    @pytest.mark.parametrize("name", ["context_ids", "actions", "losses", "density_index"])
    def test_wrong_rank_rejected(self, name):
        with pytest.raises(DatasetError, match=rf"^{name} must be 1-D, not of shape \(5, 1\)$"):
            self.build(**{name: np.zeros((5, 1))})

    @pytest.mark.parametrize("chunk", [1, CHUNK_BYTES])
    @pytest.mark.parametrize(
        "edit, with_count, without_count",
        [
            (lambda r: r.update(loss=1.5), r"loss out of \[0,1\] at record 0", r"loss out of \[0,1\] at record 0"),
            # Without the header's count an id above every other is no fault,
            # so record 3's own problem is named (None).
            (lambda r: r["context"].update(id=2), r"context id 2 out of range \[0, 2\) at record 0", None),
            (
                lambda r: r["context"].update(id=-1),
                r"context id -1 out of range \[0, 2\) at record 0",
                "context id -1 is negative at record 0",
            ),
        ],
        ids=["loss", "context-id-at-count", "negative-context-id"],
    )
    def test_loader_names_record_zero_before_a_later_missing_field(
        self, tmp_path, chunk, edit, with_count, without_count
    ):
        # Record 3 lacks its loss, is not JSON, or holds a byte that is not
        # UTF-8; the constructor judges records 0-2 before it is named.
        path = tmp_path / "cont.jsonl"
        save_continuous_dataset_jsonl(self.build(context_ids=[0, 1, 0, 1, 0]), path)
        header, *lines = path.read_text().splitlines()
        records = [json.loads(line) for line in lines]
        edit(records[0])
        lines = [json.dumps(r) for r in records]
        del records[3]["loss"]
        for later, problem in [
            (json.dumps(records[3]), "missing key 'loss'"),
            ("{bad json", r"invalid JSON \(.*\)"),
            (lines[3].replace('"loss"', '"lo\udcffss"'), "invalid UTF-8 byte 0xff"),
        ]:
            for head, message in [
                (header, with_count),
                (header.replace(', "num_contexts": 2', ""), without_count or f"{problem} at record 3"),
            ]:
                text = "\n".join([head, *lines[:3], later, *lines[4:]]) + "\n"
                path.write_text(text, encoding="utf-8", errors="surrogateescape")
                with mock.patch.object(model, "CHUNK_BYTES", chunk):
                    with pytest.raises(DatasetError, match=rf"cont\.jsonl: {message}$"):
                        load_continuous_dataset_jsonl(path)

    @pytest.mark.parametrize("chunk", [1, CHUNK_BYTES])
    @pytest.mark.parametrize("order, record", [("AAB", 2), ("ABAB", 1)])
    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda r: r.update(density=1.5), "density 1.5 is not an integer"),
            (lambda r: r.pop("loss"), "missing key 'loss'"),
        ],
        ids=["non-integer-density", "missing-loss"],
    )
    def test_first_bad_record_through_repeated_lines(self, tmp_path, chunk, order, record, edit, message):
        # Repeated lines are read once: the bad line B is named at its first record.
        path = tmp_path / "cont.jsonl"
        save_continuous_dataset_jsonl(self.build(), path)
        header, good = path.read_text().splitlines()[:2]
        row = json.loads(good)
        edit(row)
        lines = {"A": good, "B": json.dumps(row)}
        path.write_text("\n".join([header, *map(lines.get, order)]) + "\n")
        with mock.patch.object(model, "CHUNK_BYTES", chunk):
            with pytest.raises(DatasetError, match=rf"cont\.jsonl: {message} at record {record}$"):
                load_continuous_dataset_jsonl(path)

    @pytest.mark.parametrize("count", [0, -1])
    def test_loader_names_a_header_count_below_one(self, tmp_path, count):
        path = tmp_path / "cont.jsonl"
        save_continuous_dataset_jsonl(self.build(), path)
        path.write_text(path.read_text().replace('"num_contexts": 1', f'"num_contexts": {count}', 1))
        with pytest.raises(DatasetError, match=rf"cont\.jsonl: header num_contexts {count} is not >= 1$"):
            load_continuous_dataset_jsonl(path)

    def test_records_judged_once_per_load(self, tmp_path):
        # The loader only reads: the record check runs once, from the
        # constructor, over every chunk of the log.
        path = tmp_path / "cont.jsonl"
        save_continuous_dataset_jsonl(self.build(context_ids=[0, 1, 0, 1, 0]), path)
        real, callers = cont._record_fault, []

        def counted(*arrays):
            callers.append(sys._getframe(1).f_code.co_name)
            return real(*arrays)

        with mock.patch.object(cont, "_record_fault", counted), mock.patch.object(model, "CHUNK_BYTES", 1):
            assert load_continuous_dataset_jsonl(path).n == 5
        assert callers == ["validate_continuous_dataset"]


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
        fields = dict(context_ids=data.context_ids, densities=data.densities, density_index=data.density_index)
        # The first bad record is named; a record's action before its loss.
        loss_faults = reference_validate(SimpleNamespace(n=data.n, losses=losses))
        faults = [(i % data.n, 0, "action .* out of \\[0, 1\\]") for i in bad_actions]
        faults += [(int(text.rsplit(" ", 1)[1]), 1, "loss out of \\[0,1\\]") for text in loss_faults]
        if faults:
            record, _, kind = min(faults)
            with pytest.raises(DatasetError, match=rf"^{kind} at record {record}$"):
                ContinuousLoggedDataset(actions=actions, losses=losses, **fields)
        else:
            assert validate_continuous_dataset(ContinuousLoggedDataset(actions=actions, losses=losses, **fields)) == []

    def test_unnormalized_and_zero_densities_reported_in_record_order(self):
        # Neither function is a PiecewiseConstantDensity. The constructor
        # names the first by its index and its first record, before the bad
        # action of record 2; one that no record uses is named by its index.
        double = PiecewiseConstant(breaks=np.array([0.0, 1.0]), values=np.array([2.0]))
        holed = PiecewiseConstant(breaks=np.array([0.0, 0.5, 1.0]), values=np.array([2.0, 0.0]))
        with pytest.raises(DatasetError, match="^density 1 is not a PiecewiseConstantDensity at record 1$"):
            continuous_dataset([0.2, 0.7, 1.5, 0.1], [0.5, 2.0, 0.5, 0.5], [UNIFORM, holed, double, double])
        with pytest.raises(DatasetError, match="^density 1 is not a PiecewiseConstantDensity, which no record uses$"):
            ContinuousLoggedDataset(
                context_ids=[0], actions=[0.2], losses=[0.5], densities=(UNIFORM, double), density_index=[0]
            )
        losses = np.array([0.5, 2.0, -0.5, 0.5])
        assert reference_validate(SimpleNamespace(n=4, losses=losses)) == [
            "loss out of [0,1] at record 1",
            "loss out of [0,1] at record 2",
        ]
        with pytest.raises(DatasetError, match=r"^loss out of \[0,1\] at record 1$"):
            continuous_dataset([0.2, 0.7, 0.9, 0.1], losses, [UNIFORM] * 4)


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
        for da, db in zip(logged_densities(loaded), logged_densities(data)):
            assert np.array_equal(da.breaks, db.breaks) and np.array_equal(da.values, db.values)
            # Equal content loads as one shared object.
            assert da is first_seen.setdefault((db.breaks.tobytes(), db.values.tobytes()), da)
        grid = SurrogateGrid(k)
        assert np.array_equal(
            build_modified_costs_continuous(loaded, grid, h, beta).costs,
            build_modified_costs_continuous(data, grid, h, beta).costs,
        )

    @given(
        case=grouped_datasets(),
        repeat=st.tuples(st.integers(0, 11), st.integers(0, 12)),
        blanks=st.lists(st.tuples(st.integers(0, 14), st.sampled_from(["", "  ", "\t"])), max_size=4),
        ends=st.lists(st.sampled_from(["\n", "\r\n"]), min_size=18, max_size=18),
        chunk=st.sampled_from([1, CHUNK_BYTES]),
    )
    def test_arrays_bitwise_equal_to_per_line_loop(self, case, repeat, blanks, ends, chunk):
        # One record line repeated, blank lines and LF or CRLF line ends, read
        # a line per chunk and in one chunk: the arrays of a per-line loop.
        data = case[0]
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "data.jsonl"
            save_continuous_dataset_jsonl(data, path)
            header, *lines = path.read_text().splitlines()
            source, target = repeat
            lines.insert(target % (len(lines) + 1), lines[source % len(lines)])
            for position, blank in sorted(blanks, reverse=True):
                lines.insert(min(position, len(lines)), blank)
            path.write_bytes("".join(map(str.__add__, [header, *lines], ends)).encode())
            with mock.patch.object(model, "CHUNK_BYTES", chunk):
                loaded = load_continuous_dataset_jsonl(path)
            expected = reference_load_continuous(path)
        for name in ("context_ids", "actions", "losses", "density_index"):
            a, b = getattr(loaded, name), getattr(expected, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
        assert len(loaded.densities) == len(expected.densities)
        for da, db in zip(loaded.densities, expected.densities):
            assert da.breaks.tobytes() == db.breaks.tobytes() and da.values.tobytes() == db.values.tobytes()
        assert loaded.num_contexts == expected.num_contexts

    @given(
        case=grouped_datasets(),
        bad_actions=st.dictionaries(
            st.integers(0, 11), st.sampled_from([-0.5, -0.0, 1.5, 1e300, float("nan"), float("-inf")])
        ),
        bad_losses=st.dictionaries(
            st.integers(0, 11), st.sampled_from([-0.1, 7.0, float("inf"), float("nan"), -0.0, 5e-324, 1.0])
        ),
        pool=st.none() | st.lists(st.integers(0, 2), min_size=12, max_size=12),
        chunk=st.sampled_from([1, 2, 3, 4096]),
    )
    def test_saved_lines_equal_json_dumps(self, case, bad_actions, bad_losses, pool, chunk):
        data, _, _, _ = case
        # With a pool, each record copies one of the first three: records repeat, in a chunk too.
        rows = np.arange(data.n) if pool is None else np.array(pool[: data.n]) % data.n
        fields = dict(context_ids=data.context_ids[rows], densities=data.densities, density_index=data.density_index[rows])
        actions, losses = data.actions[rows], data.losses[rows]
        for i, value in bad_actions.items():
            actions[i % data.n] = value
        for i, value in bad_losses.items():
            losses[i % data.n] = value
        # The constructor rejects an action or a loss outside [0, 1]; -0.0 is kept and saved.
        out_of_range = [i for i, (a, loss) in enumerate(zip(actions, losses)) if not (0 <= a <= 1 and 0 <= loss <= 1)]
        if out_of_range:
            with pytest.raises(DatasetError, match=rf"out of \[0, ?1\] at record {out_of_range[0]}$"):
                ContinuousLoggedDataset(actions=actions, losses=losses, **fields)
            actions[out_of_range] = data.actions[rows[out_of_range]]
            losses[out_of_range] = data.losses[rows[out_of_range]]
        data = ContinuousLoggedDataset(actions=actions, losses=losses, **fields)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "data.jsonl"
            with mock.patch.object(model, "CHUNK_RECORDS", chunk):
                save_continuous_dataset_jsonl(data, path, metadata={"seed": 3})
            lines = path.read_text().splitlines()
        # The header lists each distinct density text once, in first-occurrence order.
        texts = [
            json.dumps(
                {"breaks": [float(b) for b in mu.breaks], "values": [float(v) for v in mu.values]}, sort_keys=True
            )
            for mu in data.densities
        ]
        listed = list(dict.fromkeys(texts))
        header = {
            "action_space": "unit_interval",
            "densities": [json.loads(text) for text in listed],
            "num_contexts": data.num_contexts,
            "seed": 3,
        }
        assert lines[0] == json.dumps({"header": header}, sort_keys=True)
        expected = [
            json.dumps(
                {
                    "context": {"id": int(data.context_ids[i])},
                    "action": float(data.actions[i]),
                    "loss": float(data.losses[i]),
                    "density": listed.index(texts[g]),
                },
                sort_keys=True,
            )
            for i, g in enumerate(data.density_index.tolist())
        ]
        assert lines[1:] == expected

    def test_density_not_integrating_to_one_names_record(self, tmp_path):
        # The density is named at its header entry, before any record is read.
        mu = PiecewiseConstantDensity(breaks=np.array([0.0, 0.5, 1.0]), values=np.array([1.5, 0.5]))
        data = continuous_dataset([0.2, 0.7], [0.5, 0.5], [UNIFORM, mu])
        path = tmp_path / "data.jsonl"
        save_continuous_dataset_jsonl(data, path)
        header, *records = path.read_text().splitlines()
        row = json.loads(header)
        row["header"]["densities"][1]["values"] = [2.0, 0.5]
        path.write_text("\n".join([json.dumps(row), "{bad json", *records]) + "\n")
        message = r"data\.jsonl: header density 1: density must integrate to 1 within 1e-9$"
        with pytest.raises(DatasetError, match=message):
            load_continuous_dataset_jsonl(path)


# ---------------------------------------------------------------------------
# Array paths against the per-piece and per-bin loops they replaced, bitwise.

# Gaps at, just under and just over the 1e-12 sliver threshold, and zero.
SLIVERS = [0.0, 1e-13, 5e-13, 1e-12, 1.5e-12, 2e-12, 1e-9]


@st.composite
def break_arrays(draw):
    """Unsorted breaks with duplicates and slivers of at most about 1e-12, usually with 0 and 1."""
    values = draw(st.lists(st.floats(0.0, 1.0), max_size=8))
    if draw(st.booleans()):
        values += [0.0, 1.0]
    else:
        values += draw(st.lists(st.floats(-0.5, 1.5), min_size=1, max_size=3))
    for gap in draw(st.lists(st.sampled_from(SLIVERS), max_size=4)):
        values.append(draw(st.sampled_from(values)) + gap)
    for _ in range(draw(st.integers(0, 2))):  # a break one ulp from another
        values.append(float(np.nextafter(draw(st.sampled_from(values)), 2.0)))
    values += draw(st.lists(st.sampled_from(values), max_size=3))  # exact duplicates
    return np.array(draw(st.permutations(values)))


SEEDS = st.integers(0, 2**16)


def density_policy(kind, seed, num_contexts, k, h):
    """A policy exposing density_pieces: random densities, or a smoothed grid
    policy, one-hot (so some pieces are zero) or not."""
    if kind == "densities":
        return simulator.random_density_policy(seed, num_contexts, max_pieces=5)
    table = simulator.random_grid_policy(seed, num_contexts, k).table
    if kind == "one-hot":
        table = np.eye(k)[table.argmax(axis=1)]
    return SmoothedDensityPolicy(GridMassPolicy(SurrogateGrid(k), table), h)


POLICY_KINDS = st.sampled_from(["densities", "smoothed", "one-hot"])
BANDWIDTHS = st.sampled_from([*H_CHOICES, 0.1, 0.05, 0.37])


class TestArrayPathsMatchLoops:
    @given(breaks=break_arrays())
    def test_dedupe_breaks(self, breaks):
        got, want = _dedupe_breaks(breaks.copy()), reference_dedupe_breaks(breaks.copy())
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_dedupe_breaks_collapses_a_sliver(self):
        breaks = np.array([0.0, 0.3 - 0.1, 0.1 + 0.1, 0.5, 0.5 + 1e-12, 1.0])
        assert _dedupe_breaks(breaks).tolist() == [0.0, 0.3 - 0.1, 0.5, 1.0]

    @given(
        breaks=st.lists(st.floats(0.01, 0.99), max_size=5, unique=True),
        extra=st.lists(st.sampled_from([-1.0, -0.0, 0.0, 1.0, 1.5, np.nan]), max_size=3),
        points=st.lists(st.floats(-0.5, 1.5), max_size=6),
    )
    def test_values_at(self, breaks, extra, points):
        fn = PiecewiseConstant(breaks=np.array([0.0, *sorted(breaks), 1.0]), values=np.arange(len(breaks) + 1.0))
        a = np.array([*points, *fn.breaks, *(fn.breaks[:-1] + fn.breaks[1:]) / 2, *extra])
        assert fn.values_at(a).tobytes() == reference_values_at(fn, a).tobytes()
        assert [fn.value_at(v) for v in a.tolist()] == [reference_value_at(fn, v) for v in a.tolist()]

    @given(kind=POLICY_KINDS, seed=SEEDS, num_contexts=st.integers(1, 3), k=st.integers(1, 12), h=BANDWIDTHS)
    def test_discretize(self, kind, seed, num_contexts, k, h):
        policy = density_policy(kind, seed, num_contexts, max(k - 2, 1), h)
        got, want = discretize(policy, k, num_contexts), reference_discretize(policy, k, num_contexts)
        assert got.table.tobytes() == want.table.tobytes()

    @given(kind=st.sampled_from(["smoothed", "one-hot"]), seed=SEEDS, k=st.integers(1, 12), h=BANDWIDTHS)
    def test_smoothed_density_pieces(self, kind, seed, k, h):
        policy = density_policy(kind, seed, 3, k, h)
        for x in range(3):
            got, want = policy.density_pieces(x), reference_density_pieces(policy, x)
            assert got.breaks.tobytes() == want.breaks.tobytes()
            assert got.values.tobytes() == want.values.tobytes()

    @given(kind=POLICY_KINDS, seed=SEEDS, num_contexts=st.integers(1, 3), k=st.integers(1, 8), h=BANDWIDTHS)
    def test_exact_risk_smoothed(self, kind, seed, num_contexts, k, h):
        env = simulator.random_continuous_environment((seed, 1), num_contexts, max_pieces=4)
        base = density_policy(kind, seed, num_contexts, k, h)
        assert simulator.exact_risk_smoothed(base, h, env) == reference_exact_risk_smoothed(base, h, env)

    def test_piecewise_constant_copies_its_inputs_once(self):
        breaks, values = np.array([0.0, 0.25, 1.0]), np.array([2.0, 2.0 / 3.0])
        fn = PiecewiseConstant(breaks=breaks, values=values)
        breaks[1], values[0] = 0.5, 9.0
        assert fn.breaks.tolist() == [0.0, 0.25, 1.0] and fn.values.tolist() == [2.0, 2.0 / 3.0]
        assert not fn.breaks.flags.writeable and not fn.values.flags.writeable
