"""Finite-context estimators read cached per-context sums; check them against the per-record path.

`ipw_risk` and `pseudo_loss` contract a policy's pmf table with
`LoggedDataset.ipw_sums` / `pl_sums`. The per-record means of `ipw_terms` and
`pl_terms` are the reference, and `brute_force_argmin` averages the same
per-record terms, bitwise as a per-member loop over them would.
`context_sums` must equal np.add.at bit for bit, and `generate_logs` must
draw the same records as the generator it replaced (`discrete_reference`).
"""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from plbandit import csc, simulator
from plbandit.estimators import (
    beta_candidates,
    confidence_slack,
    ipw_risk,
    ipw_terms,
    penalized_objective,
    pl_terms,
    pseudo_loss,
    ucb_risk,
)
from plbandit.model import (
    PROPENSITY_FLOOR,
    ClassStats,
    DatasetError,
    DeterministicPolicy,
    LinearCostPolicy,
    LoggedDataset,
    PolicyClass,
    TabularPolicy,
    _logged_cells,
    context_sums,
)

from discrete_reference import reference_generate_logs

STATS = ClassStats(pmf_sup=1.0, mu_pmf_inf=0.01, weight_ratio_sup=100.0, class_size=8)
masses = st.one_of(st.just(0.0), st.floats(1e-3, 1.0))
losses = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(1e-3, 1.0))


def normalized(raw) -> np.ndarray:
    raw = np.asarray(raw, dtype=float)
    return raw / raw.sum(axis=-1, keepdims=True)


def uniform(data) -> TabularPolicy:
    """The uniform pmf at every context of `data`."""
    return TabularPolicy(np.full((data.num_contexts, data.num_actions), 1 / data.num_actions))


@st.composite
def logged_cases(draw):
    """A finite-context dataset and a policy over its contexts.

    Contexts may be absent from the log, `num_contexts` may exceed the largest
    logged id + 1, n may be 1, and records may repeat.
    """
    num_actions = draw(st.integers(2, 5))
    num_contexts = draw(st.integers(1, 6))
    logged = draw(st.lists(st.integers(0, num_contexts - 1), min_size=1, max_size=12))
    records = []
    for x in logged:
        props = normalized(draw(st.lists(st.floats(0.01, 1.0), min_size=num_actions, max_size=num_actions)))
        record = (x, draw(st.integers(0, num_actions - 1)), draw(losses), props)
        records += [record] * draw(st.integers(1, 3))
    extra = draw(st.integers(0, 3))
    ids, actions, loss, props = zip(*records)
    data = LoggedDataset(
        actions=np.array(actions),
        losses=np.array(loss),
        propensities=np.array(props),
        context_ids=np.array(ids),
        num_contexts=max(ids) + 1 + extra if extra else None,
    )
    rows = [
        draw(st.lists(masses, min_size=num_actions, max_size=num_actions).filter(lambda r: sum(r) > 0))
        for _ in range(data.num_contexts)
    ]
    return data, TabularPolicy(normalized(rows)), draw(st.sampled_from([0.0, 0.01, 0.5, 3.0]))


class TestAggregateMatchesPerRecord:
    @given(logged_cases())
    def test_estimators(self, case):
        data, policy, beta = case
        ipw = float(np.mean(ipw_terms(policy, data)))
        pl = float(np.mean(pl_terms(policy, data)))
        assert ipw_risk(policy, data) == pytest.approx(ipw, rel=1e-12, abs=0.0)
        assert pseudo_loss(policy, data) == pytest.approx(pl, rel=1e-12, abs=0.0)
        assert penalized_objective(policy, data, beta) == pytest.approx(ipw + beta * pl, rel=1e-12, abs=0.0)
        if beta > 0:
            slack = confidence_slack(STATS, data.n, 0.05, beta).value
            assert ucb_risk(policy, data, STATS, 0.05, beta) == pytest.approx(ipw + beta * pl + slack, rel=1e-12)

    @given(logged_cases())
    def test_sums_are_the_per_record_cells(self, case):
        data, _, _ = case
        idx = np.arange(data.n)
        ipw_ref = np.zeros((data.num_contexts, data.num_actions))
        np.add.at(ipw_ref, (data.context_ids, data.actions), data.losses / data.propensities[idx, data.actions])
        pl_ref = np.zeros((data.num_contexts, data.num_actions))
        np.add.at(pl_ref, data.context_ids, 1.0 / data.propensities)
        assert data.ipw_sums.tobytes() == ipw_ref.tobytes()
        assert data.pl_sums.tobytes() == pl_ref.tobytes()

    def test_contexts_beyond_the_log_need_policy_rows(self):
        data = LoggedDataset(
            actions=np.array([0]), losses=np.array([1.0]), propensities=np.array([[0.5, 0.5]]),
            context_ids=np.array([0]), num_contexts=3,
        )
        with pytest.raises(ValueError, match="3 needed"):
            ipw_risk(TabularPolicy(np.array([[0.5, 0.5]])), data)
        assert ipw_risk(TabularPolicy(np.array([[1.0, 0.0]] * 3)), data) == 2.0

    def test_sums_are_cached_and_read_only(self):
        data = simulator.generate_logs(simulator.random_environment(3, 3, 2), 40, seed=4)
        assert data.ipw_sums is data.ipw_sums and data.pl_sums is data.pl_sums
        for sums in (data.ipw_sums, data.pl_sums):
            with pytest.raises(ValueError):
                sums[0, 0] = 1.0

    def test_feature_contexts_keep_the_per_record_path(self):
        data = LoggedDataset(
            actions=np.array([0, 1]), losses=np.array([0.2, 0.7]),
            propensities=np.array([[0.5, 0.5], [0.25, 0.75]]), context_features=np.zeros((2, 1)),
        )
        policy = LinearCostPolicy(weights=np.zeros((1, 2)), intercepts=np.array([0.0, 1.0]))
        assert ipw_risk(policy, data) == float(np.mean(ipw_terms(policy, data)))
        assert pseudo_loss(policy, data) == float(np.mean(pl_terms(policy, data)))
        with pytest.raises(ValueError, match="finite contexts"):
            data.pl_sums


class TestFloor:
    # A propensity at or below the floor, logged or not, is rejected when the
    # log is built, so neither estimator ever sees it.

    def test_unlogged_zero_propensity_fails_pseudo_loss(self):
        # Action 1 is never logged and has propensity zero.
        with pytest.raises(DatasetError, match=r"^zero propensity at record 0$"):
            LoggedDataset(
                actions=np.array([0, 0]), losses=np.array([0.3, 0.9]),
                propensities=np.array([[1.0, 0.0], [1.0, 0.0]]), context_ids=np.array([0, 0]),
            )

    def test_logged_propensity_at_floor_fails_ipw_risk(self):
        with pytest.raises(DatasetError, match=r"^zero propensity at record 1$"):
            LoggedDataset(
                actions=np.array([0, 1]), losses=np.array([0.3, 0.3]),
                propensities=np.array([[0.5, 0.5], [1.0 - PROPENSITY_FLOOR, PROPENSITY_FLOOR]]),
                context_ids=np.array([0, 0]),
            )


class TestSameNumberEverywhere:
    @given(logged_cases())
    def test_brute_force_value_is_per_record(self, case):
        data, policy, beta = case
        constant = [
            DeterministicPolicy(assignment=(a,) * data.num_contexts, num_actions=data.num_actions)
            for a in range(data.num_actions)
        ]
        pclass = PolicyClass.from_members(constant + [policy, uniform(data), policy])
        best, value = csc.brute_force_argmin(data, beta, pclass)
        per_record = [
            float(np.mean(ipw_terms(m, data))) + beta * float(np.mean(pl_terms(m, data))) for m in pclass.members
        ]
        assert best is pclass.members[int(np.argmin(per_record))]
        assert value == per_record[int(np.argmin(per_record))]
        assert penalized_objective(best, data, beta) == pytest.approx(value, rel=1e-12)

    @given(logged_cases())
    def test_beta_candidates_match_pseudo_loss(self, case):
        data, policy, _ = case
        pclass = PolicyClass.from_members([policy, uniform(data)])
        log_term = math.log(4.0 * STATS.class_size / 0.05)
        betas = beta_candidates(pclass, data, STATS, 0.05)
        assert betas.shape == (pclass.size,)
        for member, beta in zip(pclass.members, betas):
            expected = math.sqrt(3.0 * log_term / (4.0 * data.n * pseudo_loss(member, data)))
            assert beta == pytest.approx(expected, rel=1e-12)


# Finite values only: the library sums finite costs and 1/mu, and the sign of
# the NaN that inf + -inf makes differs between the two routines.
edge_values = st.one_of(
    st.sampled_from([-0.0, 0.0, 1e300, -1e300, 5e-324, -5e-324, 0.1, 1 / 3]),
    st.floats(-10.0, 10.0),
)


@given(st.data())
def test_context_sums_bitwise_equal_add_at(data):
    num_contexts = data.draw(st.integers(1, 5))
    num_actions = data.draw(st.integers(1, 12))
    n = data.draw(st.integers(0, 40))
    ids = np.array(data.draw(st.lists(st.integers(0, num_contexts - 1), min_size=n, max_size=n)), dtype=np.int64)
    flat = data.draw(st.lists(edge_values, min_size=n * num_actions, max_size=n * num_actions))
    values = np.array(flat, dtype=float).reshape(n, num_actions)
    reference = np.zeros((num_contexts, num_actions))
    np.add.at(reference, ids, values)
    got = context_sums(values, ids, num_contexts)
    assert got.shape == reference.shape
    assert got.tobytes() == reference.tobytes()


@given(st.data())
def test_logged_cell_gathers_bitwise_equal_fancy_indexing(data):
    # The flat index reads each record's logged cell, from the propensities,
    # from a policy's (n, A) rows and from an (m, n, A) block of member rows.
    num_actions = data.draw(st.integers(1, 12))
    n = data.draw(st.integers(1, 40))
    flat = data.draw(st.lists(edge_values, min_size=3 * n * num_actions, max_size=3 * n * num_actions))
    block = np.array(flat).reshape(3, n, num_actions)
    actions = np.array(data.draw(st.lists(st.integers(0, num_actions - 1), min_size=n, max_size=n)))
    props = normalized(np.arange(1, n * num_actions + 1).reshape(n, num_actions))
    dataset = LoggedDataset(actions=actions, losses=np.zeros(n), propensities=props, context_ids=np.zeros(n))
    idx = np.arange(n)
    cells = _logged_cells(dataset)
    p = dataset.propensities
    assert p.take(cells).tobytes() == p[idx, actions].tobytes()
    for rows in block:
        assert rows.take(cells).tobytes() == rows[idx, actions].tobytes()
    assert block.reshape(3, -1).take(cells, axis=1).tobytes() == block[:, idx, actions].tobytes()


@pytest.mark.parametrize("width", [2, 4])
def test_ipw_terms_rejects_a_policy_of_another_width(width):
    # The flat gather is valid only on rows as wide as the propensities.
    data = LoggedDataset(
        actions=np.array([0, 2]), losses=np.ones(2), propensities=np.full((2, 3), 1 / 3), context_ids=np.zeros(2)
    )
    with pytest.raises(ValueError, match=f"policy has {width} actions, the dataset 3"):
        ipw_terms(TabularPolicy(np.full((1, width), 1 / width)), data)


def test_context_sums_all_negative_zero_cell():
    values = np.array([[-0.0, 1.0], [-0.0, -0.0]])
    got = context_sums(values, np.array([1, 1]), 2)
    reference = np.zeros((2, 2))
    np.add.at(reference, np.array([1, 1]), values)
    assert got.tobytes() == reference.tobytes()


@st.composite
def environments(draw):
    num_contexts = draw(st.integers(1, 6))
    num_actions = draw(st.integers(2, 5))
    dist = draw(
        st.lists(st.one_of(st.just(0.0), st.floats(1e-6, 1.0)), min_size=num_contexts, max_size=num_contexts)
        .filter(lambda d: sum(d) > 0)
    )
    logging = draw(
        st.lists(
            st.lists(st.floats(1e-6, 1.0), min_size=num_actions, max_size=num_actions),
            min_size=num_contexts,
            max_size=num_contexts,
        )
    )
    means = draw(
        st.lists(
            st.lists(st.floats(0.0, 1.0), min_size=num_actions, max_size=num_actions),
            min_size=num_contexts,
            max_size=num_contexts,
        )
    )
    return simulator.SyntheticEnvironment(
        context_dist=normalized(dist),
        loss_means=np.array(means),
        logging_policy=TabularPolicy(normalized(logging)),
        bernoulli_noise=draw(st.booleans()),
    )


@given(environments(), st.sampled_from([1, 2, 500]), st.integers(0, 2**32 - 1))
def test_generate_logs_bitwise_equal_reference(env, n, seed):
    got = simulator.generate_logs(env, n, seed)
    reference = reference_generate_logs(env, n, seed)
    assert got.num_contexts == reference.num_contexts
    for name in ("actions", "losses", "propensities", "context_ids"):
        a, b = getattr(got, name), getattr(reference, name)
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes(), name


def test_environment_rejects_nan_context_dist():
    with pytest.raises(ValueError, match="probability vector"):
        simulator.SyntheticEnvironment(
            context_dist=np.array([np.nan, 1.0]),
            loss_means=np.full((2, 2), 0.5),
            logging_policy=TabularPolicy(np.full((2, 2), 0.5)),
        )
