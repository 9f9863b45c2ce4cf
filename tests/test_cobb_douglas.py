import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from wagedyn import (ContractParams, DpGrid, Horizon, TableEffortPolicy,
                     WorkerPrefs, always_sampled_path, policy_monotonicity_report,
                     solve_policy)
from wagedyn.cobb_douglas import EffortPolicy, solve_policies
from wagedyn.distribution import responder
from wagedyn.params import UtilityFamily

CONTRACT = ContractParams(0.2, 0.1, 0.4)
PREFS = WorkerPrefs.cobb_douglas(delta=0.9, gamma=0.4, beta=0.6)
T10 = Horizon(10)


@pytest.fixture(scope="module")
def policy():
    return solve_policy(CONTRACT, PREFS, T10)


def test_grid_validation():
    DpGrid(0.1, 0.1, 1.0)
    DpGrid(0.05, 0.1, 1.0)  # finer wages than efforts is fine
    with pytest.raises(ValueError):
        DpGrid(0.1, 0.05, 1.0)  # efforts off the wage grid
    with pytest.raises(ValueError):
        DpGrid(0.3, 0.3, 1.0)  # does not divide evenly
    with pytest.raises(ValueError):
        DpGrid(0.1, 0.1, 0.5)  # efforts above wage_max
    with pytest.raises(ValueError):
        DpGrid(0.3, 0.3, 1.2)  # efforts 1/3 and 2/3 off the wage grid
    grid = DpGrid()
    assert grid.wages[0] == 0.0 and grid.wages[-1] == 1.0
    assert grid.efforts[0] == 0.0 and grid.efforts[-1] == 1.0


def test_grid_arrays_built_once_and_read_only():
    grid = DpGrid(0.05, 0.1, 1.0)
    assert grid.wages is grid.wages and grid.efforts is grid.efforts
    for arr in (grid.wages, grid.efforts):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 1.0
    assert grid == DpGrid(0.05, 0.1, 1.0)  # the cached arrays are not fields


def test_grid_index():
    grid = DpGrid()
    assert grid.index(0.3) == 3
    assert grid.index([[0.0, 1.0], [0.7, 0.1 + 0.2]]).tolist() == [[0, 10], [7, 3]]
    for off, first in (([0.2, 0.25, 0.35], "0.25"), (1.1, "1.1"), (-0.1, "-0.1"),
                       (1e300, "1e+300")):
        with pytest.raises(ValueError, match=re.escape(
                f"wage {first} is not on the policy grid (step 0.1)")):
            grid.index(off)


def test_wrong_family_rejected():
    with pytest.raises(ValueError):
        solve_policy(CONTRACT, WorkerPrefs.additive(delta=0.9), T10)


def test_bellman_consistency(policy):
    """Recompute the maximized objective at every state; must equal the value."""
    g = policy.grid
    w = g.wages
    e = g.efforts
    p, alpha, delta = CONTRACT.p, CONTRACT.alpha, PREFS.delta
    gamma, beta = PREFS.gamma, PREFS.beta
    V_next = np.zeros(len(w))
    for t in range(T10.T, 0, -1):
        for i, wage in enumerate(w):
            best = -np.inf
            for ee in e:
                c_eval = max(wage + alpha * (ee - wage), 0.0)
                val = (1 - ee) ** gamma * (p * c_eval ** beta
                                           + (1 - p) * wage ** beta)
                j = int(round(ee / g.wage_step))
                val += delta * (p * V_next[j] + (1 - p) * V_next[i])
                best = max(best, val)
            assert policy.value[t - 1, i] == pytest.approx(best, abs=1e-12)
        V_next = policy.value[t - 1]


def test_resolve_is_bit_identical(policy):
    again = solve_policy(CONTRACT, PREFS, T10)
    assert np.array_equal(again.table, policy.table)
    assert np.array_equal(again.value, policy.value)


def test_effort_grid_refinement_weakly_improves(policy):
    fine = solve_policy(CONTRACT, PREFS, T10, DpGrid(0.05, 0.05, 1.0))
    coarse_idx = [int(round(w / 0.05)) for w in policy.grid.wages]
    v_fine = fine.value[0, coarse_idx]
    assert np.all(v_fine >= policy.value[0] - 1e-9)


def test_no_monitoring_means_no_effort():
    lazy = solve_policy(ContractParams(0.0, 0.1, 0.4), PREFS, T10)
    assert np.all(lazy.table == 0.0)


def test_lower_leisure_weight_raises_effort(policy):
    # monotone at every positive-wage state; at w = 0 the all-in corner e = 1
    # yields zero current utility, which a low-leisure-weight worker values
    # less than working 0.9 for the immediate bonus, so that row may fall
    greedy = solve_policy(CONTRACT,
                          WorkerPrefs.cobb_douglas(delta=0.9, gamma=0.05, beta=0.6),
                          T10)
    assert np.all(greedy.table[:, 1:] >= policy.table[:, 1:] - 1e-12)


def test_terminal_period_behavior(policy):
    # with lagged consumption, final-period effort is worthless at positive
    # wages but a zero-wage worker still works for the immediate bonus
    final = policy.table[-1]
    assert final[0] > 0.0
    assert np.all(final[1:] == 0.0)


def test_policy_lookup_and_errors(policy):
    respond = responder(TableEffortPolicy(policy))
    assert respond(5, 0.4)[0] == pytest.approx(0.5)
    with pytest.raises(ValueError, match=r"^period 0 outside 1\.\.10$"):
        respond(0, 0.4)
    with pytest.raises(ValueError):
        respond(1, 0.45)  # off the grid


def test_monotonicity_report(policy):
    report = policy_monotonicity_report(policy)
    assert all(report.decreasing_in_wage)
    assert all(report.decreasing_over_periods)
    assert report.checked_rows[0] == pytest.approx(0.1)


def test_monotonicity_report_single_period():
    short = solve_policy(CONTRACT, PREFS, Horizon(1))
    report = policy_monotonicity_report(short)
    assert len(report.decreasing_in_wage) == 1


def test_always_sampled_path_accounting(policy):
    path = always_sampled_path(policy, 0.4)
    assert all(type(x) is float for x in path.efforts + path.bonuses + path.totals)
    assert path.wages == path.efforts
    prev = [0.4] + path.wages[:-1]
    for t in range(10):
        assert path.bonuses[t] == pytest.approx(
            CONTRACT.alpha * (path.efforts[t] - prev[t]), abs=1e-12)
        assert path.totals[t] == pytest.approx(path.wages[t] + path.bonuses[t])
    assert path.totals[0] == pytest.approx(0.62)


def test_constant_policy_fixed_point():
    # when the policy returns the previous wage, the path is flat, bonus-free
    policy = solve_policy(CONTRACT, PREFS, Horizon(3))
    object.__setattr__(policy, "table",
                       np.tile(policy.grid.wages, (3, 1)))
    path = always_sampled_path(policy, 0.4)
    assert path.wages == [0.4, 0.4, 0.4]
    assert path.bonuses == [0.0, 0.0, 0.0]


def test_adapter_vectorizes(policy):
    respond = responder(TableEffortPolicy(policy))
    wages = np.array([0.0, 0.4, 1.0])
    e, nxt, _ = respond(1, wages)
    assert e.shape == (3,)
    cell = policy.table[0, policy.grid.index(0.4)]
    assert respond(1, 0.4)[0] == cell
    assert np.array_equal(nxt, e)
    b = respond(1, 0.4)[2]
    assert b == pytest.approx(CONTRACT.alpha * (cell - 0.4))
    with pytest.raises(ValueError):
        respond(1, 0.42)


def solve_policy_reference(contract, prefs, horizon, grid=None):
    """Reference: solve_policy as it was before the slab solve, one backward
    induction over an (effort, wage) array per contract."""
    if prefs.family is not UtilityFamily.COBB_DOUGLAS:
        raise ValueError("solve_policy requires the Cobb-Douglas utility family")
    grid = grid or DpGrid()
    w = grid.wages
    e = grid.efforts
    p, alpha, delta = contract.p, contract.alpha, prefs.delta
    gamma, beta = prefs.gamma, prefs.beta
    T = horizon.T

    W = w[None, :]  # previous wage axis 1
    E = e[:, None]  # effort axis 0
    c_eval = np.maximum(W + alpha * (E - W), 0.0)
    leisure = (1.0 - E) ** gamma
    u_eval = leisure * c_eval ** beta
    u_keep = leisure * W ** beta
    reward = p * u_eval + (1.0 - p) * u_keep

    e_idx = grid.index(e)  # next state after an evaluation

    table = np.zeros((T, len(w)))
    value = np.zeros((T, len(w)))
    V_next = np.zeros(len(w))
    for t in range(T, 0, -1):
        cont = delta * (p * V_next[e_idx][:, None] + (1.0 - p) * V_next[None, :])
        obj = reward + cont
        best = np.argmax(obj, axis=0)  # first max = smallest effort on ties
        table[t - 1] = e[best]
        value[t - 1] = obj[best, np.arange(len(w))]
        V_next = value[t - 1]
    return EffortPolicy(contract=contract, prefs=prefs, horizon=horizon,
                        grid=grid, table=table, value=value)


unit = st.floats(0.0, 1.0)


@settings(max_examples=40, deadline=None)
@given(p=st.one_of(st.sampled_from([0.0, 1.0]), unit),
       alphas=st.lists(st.one_of(st.sampled_from([0.0, 1.0]), unit), min_size=1,
                       max_size=51),
       step=st.sampled_from([0.1, 0.05, 0.02]), T=st.integers(1, 8),
       gamma=st.floats(0.05, 0.95), beta=st.floats(0.05, 0.95),
       delta=st.floats(0.5, 0.99))
@example(p=0.0, alphas=[0.0, 1.0], step=0.1, T=8, gamma=0.4, beta=0.6, delta=0.9)
@example(p=1.0, alphas=[1.0] + [0.5] * 50, step=0.02, T=3, gamma=0.4, beta=0.6, delta=0.9)
def test_slab_solve_rows_equal_one_row_solves(p, alphas, step, T, gamma, beta, delta):
    prefs = WorkerPrefs.cobb_douglas(delta=delta, gamma=gamma, beta=beta)
    grid = DpGrid(step, step, 1.0)
    contracts = [ContractParams(p, a, 0.0) for a in alphas]
    policies = solve_policies(contracts, prefs, Horizon(T), grid)
    assert len(policies) == len(contracts)
    for contract, policy in zip(contracts, policies):
        ref = solve_policy_reference(contract, prefs, Horizon(T), grid)
        assert policy.contract is contract and policy.grid == grid
        assert policy.table.tobytes() == ref.table.tobytes()
        assert policy.value.tobytes() == ref.value.tobytes()


def test_one_row_solve_is_the_reference(policy):
    ref = solve_policy_reference(CONTRACT, PREFS, T10)
    assert policy.table.tobytes() == ref.table.tobytes()
    assert policy.value.tobytes() == ref.value.tobytes()


@settings(max_examples=40, deadline=None)
@given(rows=st.lists(st.tuples(st.one_of(st.sampled_from([0.0, 1.0]), unit),
                               st.one_of(st.sampled_from([0.0, 1.0]), unit)),
                     min_size=1, max_size=12),
       step=st.sampled_from([0.1, 0.05]), T=st.integers(1, 6))
@example(rows=[(0.0, 1.0), (1.0, 1.0), (0.2, 0.1), (0.3, 0.1), (0.2, 0.1)], step=0.1, T=6)
def test_mixed_p_rows_equal_one_row_solves(rows, step, T):
    # rows with different p in one backward induction: each row is its own
    # one-row solve, and the one-row reference loop, to the byte
    grid = DpGrid(step, step, 1.0)
    contracts = [ContractParams(p, a, 0.0) for p, a in rows]
    policies = solve_policies(contracts, PREFS, Horizon(T), grid)
    for contract, policy in zip(contracts, policies):
        assert policy.contract is contract
        for one in (solve_policy(contract, PREFS, Horizon(T), grid),
                    solve_policy_reference(contract, PREFS, Horizon(T), grid)):
            assert policy.table.tobytes() == one.table.tobytes()
            assert policy.value.tobytes() == one.value.tobytes()


def test_slab_solve_rejects_the_wrong_family():
    with pytest.raises(ValueError, match="Cobb-Douglas"):
        solve_policies([CONTRACT], WorkerPrefs.additive(delta=0.9), T10)
