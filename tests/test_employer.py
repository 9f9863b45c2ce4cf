import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from wagedyn import (ContractParams, FirmParams, GridSteps, Horizon, WorkerPrefs,
                     analytic_one_period_optimum, expected_profit,
                     grid_search_optimum, profit_by_history_enumeration,
                     single_period_effort, stationary_grid_search,
                     stationary_one_period_optimum, tech_shock, tech_sweep)
from wagedyn.employer import _one_period_profit, worker_policy

PREFS = WorkerPrefs.additive(delta=0.9)
UNIT_SCALE_FIRM = FirmParams(k=1.5, lam=1.0 / 1.5, c=0.3, eta=0.9)


def test_profit_with_no_monitoring():
    firm = FirmParams(k=1.5, lam=1.0 / 1.5, c=0.3, eta=0.9)
    contract = ContractParams(0.0, 0.3, 0.4)
    T = 4
    expected = sum(firm.eta ** (t - 1) * (0.0 - 0.4) for t in range(1, T + 1))
    assert expected_profit(contract, firm, PREFS, Horizon(T)) == pytest.approx(expected)


def test_one_period_profit_closed_form():
    # k e* - [p p(1+alpha) + (1-p) w0 + p c] at unit scale and b = 1
    firm = FirmParams(k=1.0, lam=1.0, c=0.15, eta=0.9)
    contract = ContractParams(0.3, 0.5, 0.2)
    e_star = single_period_effort(contract)
    expected = (firm.k * e_star
                - (0.3 * 0.3 * 1.5 + 0.7 * 0.2 + 0.3 * 0.15))
    assert expected_profit(contract, firm, PREFS, Horizon(1)) == pytest.approx(expected)
    assert _one_period_profit(0.3, 0.5, 0.2, firm) == pytest.approx(expected)


def test_degenerate_contract_profit():
    firm = UNIT_SCALE_FIRM
    assert expected_profit(ContractParams(0.5, 0.5, 0.0), firm, PREFS,
                           Horizon(1)) == -math.inf


@pytest.mark.parametrize("T", [1, 3, 6, 10])
def test_profit_matches_history_enumeration_additive(T):
    firm = FirmParams(k=1.4, lam=0.8, c=0.1, eta=0.92)
    contract = ContractParams(0.3, 0.4, 0.5)
    direct = expected_profit(contract, firm, PREFS, Horizon(T))
    enumerated = profit_by_history_enumeration(contract, firm, PREFS, Horizon(T))
    assert direct == pytest.approx(enumerated, abs=1e-12)


def test_profit_matches_history_enumeration_cobb_douglas():
    firm = FirmParams(k=1.4, lam=0.8, c=0.1, eta=0.92)
    contract = ContractParams(0.2, 0.1, 0.4)
    prefs = WorkerPrefs.cobb_douglas(delta=0.9, gamma=0.4, beta=0.6)
    direct = expected_profit(contract, firm, prefs, Horizon(6))
    enumerated = profit_by_history_enumeration(contract, firm, prefs, Horizon(6))
    assert direct == pytest.approx(enumerated, abs=1e-12)


def test_analytic_optimum_reference_values():
    opt = analytic_one_period_optimum(UNIT_SCALE_FIRM)
    assert opt.raw_alpha == pytest.approx(0.341641, abs=1e-6)
    assert opt.raw_p == pytest.approx(0.618034, abs=1e-6)
    assert opt.raw_w0 == pytest.approx(0.458359, abs=1e-6)
    assert not opt.flags
    # consistency between the two printed forms of each rule
    k, c = 1.5, 0.3
    assert opt.raw_p == pytest.approx((1 - k) * (math.sqrt(c) - math.sqrt(k))
                                      / math.sqrt(c), abs=1e-9)
    assert opt.raw_w0 == pytest.approx((math.sqrt(k) - math.sqrt(c)) ** 2, abs=1e-9)
    assert opt.raw_w0 < (1 + opt.raw_alpha) * opt.raw_p  # underpayment


def test_analytic_optimum_is_stationary():
    opt = analytic_one_period_optimum(UNIT_SCALE_FIRM)
    firm = UNIT_SCALE_FIRM
    h = 1e-7
    for dp, da, dw in ((h, 0, 0), (0, h, 0), (0, 0, h)):
        up = _one_period_profit(opt.raw_p + dp, opt.raw_alpha + da,
                                opt.raw_w0 + dw, firm)
        down = _one_period_profit(opt.raw_p - dp, opt.raw_alpha - da,
                                  opt.raw_w0 - dw, firm)
        assert abs(up - down) / (2 * h) < 1e-6


def test_analytic_optimum_boundary_case():
    firm = FirmParams(k=2.0, lam=0.5, c=0.5, eta=0.9)
    opt = analytic_one_period_optimum(firm)
    assert opt.raw_alpha == 0.0
    assert opt.raw_p == 1.0
    assert opt.raw_w0 == 0.5


def test_analytic_optimum_out_of_range_flagged():
    firm = FirmParams(k=2.0, lam=0.5, c=0.2, eta=0.9)
    opt = analytic_one_period_optimum(firm)
    assert opt.raw_alpha < 0.0
    assert "alpha_out_of_range" in opt.flags


def test_analytic_optimum_rejects_bad_scale_or_k():
    with pytest.raises(ValueError, match="unit wage scale"):
        analytic_one_period_optimum(FirmParams(k=1.5, lam=0.8, c=0.3, eta=0.9))
    with pytest.raises(ValueError, match="k = 1"):
        analytic_one_period_optimum(FirmParams(k=1.0, lam=1.0, c=0.3, eta=0.9))


def test_stationary_rules_reduce_to_unit_scale_rules():
    opt = stationary_one_period_optimum(UNIT_SCALE_FIRM)
    ref = analytic_one_period_optimum(UNIT_SCALE_FIRM)
    assert opt.contract.p == pytest.approx(ref.raw_p, abs=1e-12)
    assert opt.contract.alpha == pytest.approx(ref.raw_alpha, abs=1e-12)
    assert opt.contract.w0 == pytest.approx(ref.raw_w0, abs=1e-12)


def test_stationary_rules_are_stationary_with_scale():
    firm = FirmParams(k=1.5, lam=0.8, c=0.2, eta=0.9)
    opt = stationary_one_period_optimum(firm)
    assert not opt.flags
    h = 1e-7
    p, a, w = opt.contract.p, opt.contract.alpha, opt.contract.w0
    for dp, da, dw in ((h, 0, 0), (0, h, 0), (0, 0, h)):
        up = _one_period_profit(p + dp, a + da, w + dw, firm)
        down = _one_period_profit(p - dp, a - da, w - dw, firm)
        assert abs(up - down) / (2 * h) < 1e-6


def test_stationary_rules_alpha_bound_branch():
    firm = FirmParams(k=1.1, lam=0.8, c=0.2, eta=0.9)
    opt = stationary_one_period_optimum(firm)
    assert opt.contract.alpha == 1.0
    assert "alpha_at_upper_bound" in opt.flags
    assert opt.contract.p == pytest.approx(1 - 0.5 / 0.8)


def test_c_sweep_comparative_statics():
    # along rising monitoring cost with interior optima: p falls, alpha rises;
    # the base-wage rule (sqrt(k) - sqrt(c))^2 falls even though the narrative
    # around it says otherwise
    k = 1.5
    cs = [0.2, 0.25, 0.3, 0.35, 0.4]
    opts = [analytic_one_period_optimum(FirmParams(k=k, lam=1 / k, c=c, eta=0.9))
            for c in cs]
    assert all(not o.flags for o in opts)
    ps = [o.raw_p for o in opts]
    alphas = [o.raw_alpha for o in opts]
    w0s = [o.raw_w0 for o in opts]
    assert all(b < a for a, b in zip(ps, ps[1:]))
    assert all(b > a for a, b in zip(alphas, alphas[1:]))
    assert all(b < a for a, b in zip(w0s, w0s[1:]))


def test_grid_search_prefers_zero_monitoring_when_costly():
    firm = FirmParams(k=1.2, lam=1 / 1.2, c=50.0, eta=0.9)
    opt = grid_search_optimum(firm, PREFS, Horizon(1),
                              GridSteps(0.05, 0.05, 0.05), refine_rounds=1)
    assert opt.contract.p == 0.0


def test_grid_search_full_share_still_confiscates():
    # even when the worker nominally captures the whole marginal product, the
    # global argmax nullifies the wage through the penalty anchor (large w0,
    # alpha = 1, certain evaluation), so paying-for-effort never shuts down on
    # its own; only a monitoring cost above the output value does that
    firm = FirmParams(k=1.5, lam=1.0, c=0.1, eta=0.9)
    opt = grid_search_optimum(firm, PREFS, Horizon(1),
                              GridSteps(0.05, 0.05, 0.05), refine_rounds=1)
    assert opt.contract.p == 1.0
    assert opt.profit > 1.0
    assert stationary_one_period_optimum(firm).contract.p == 0.0


def test_grid_search_free_monitoring_pushes_sampling_up():
    firm = FirmParams(k=1.5, lam=1 / 1.5, c=0.0, eta=0.9)
    opt = grid_search_optimum(firm, PREFS, Horizon(1),
                              GridSteps(0.05, 0.05, 0.05), refine_rounds=1)
    assert opt.contract.p == 1.0


def test_grid_search_finds_degenerate_corner_not_saddle():
    # the stationary rules sit on a saddle; the honest global argmax is a
    # corner contract with near-total wage confiscation
    opt = grid_search_optimum(UNIT_SCALE_FIRM, PREFS, Horizon(1),
                              GridSteps(0.02, 0.02, 0.02), refine_rounds=2)
    stationary = analytic_one_period_optimum(UNIT_SCALE_FIRM)
    assert opt.profit > stationary.profit + 0.5
    assert opt.contract.p == 1.0


def test_stationary_grid_search_lands_on_rules_for_second_firm():
    # criterion 7 checks the search at k=1.5, c=0.3; a second interior
    # unit-scale firm shows it is not tuned to that one
    firm = FirmParams(k=2.0, lam=0.5, c=1.2, eta=0.9)
    rules = analytic_one_period_optimum(firm)
    assert not rules.flags
    assert (rules.raw_p, rules.raw_alpha, rules.raw_w0) == pytest.approx(
        (0.2910, 0.5492, 0.1016), abs=1e-4)

    def step_offset(cell):
        return max(abs(cell.p - rules.raw_p), abs(cell.alpha - rules.raw_alpha),
                   abs(cell.w0 - rules.raw_w0)) / 0.001

    cell = stationary_grid_search(firm)
    assert step_offset(cell) <= 1.0
    assert _one_period_profit(cell.p, cell.alpha, cell.w0, firm) == pytest.approx(
        rules.profit, abs=1e-6)
    # a nearby firm's stationary cell is more than one step from these rules,
    # so the search tells the two firms' rules apart
    nearby = stationary_grid_search(FirmParams(k=2.0, lam=0.5, c=1.25, eta=0.9))
    assert step_offset(nearby) > 1.0


def test_stationary_grid_search_warning_free():
    # w0 = 0 cells have -inf profit; the search must never difference them
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cell = stationary_grid_search(UNIT_SCALE_FIRM)
    assert cell.w0 > 0.0


def test_grid_search_deterministic():
    a = grid_search_optimum(UNIT_SCALE_FIRM, PREFS, Horizon(1),
                            GridSteps(0.05, 0.05, 0.05), refine_rounds=1)
    b = grid_search_optimum(UNIT_SCALE_FIRM, PREFS, Horizon(1),
                            GridSteps(0.05, 0.05, 0.05), refine_rounds=1)
    assert a.contract == b.contract and a.profit == b.profit


def test_tech_sweep_monotone_outcomes():
    firm = FirmParams(k=1.25, lam=0.8, c=0.2, eta=0.9)
    rows = tech_sweep([1.05, 1.1, 1.15, 1.2, 1.25], firm, PREFS)
    means = [r.wage_mean for r in rows]
    variances = [r.wage_variance for r in rows]
    ratios = [r.std_over_mean for r in rows]
    assert all(b >= a for a, b in zip(means, means[1:]))
    assert all(b >= a for a, b in zip(variances, variances[1:]))
    assert all(b >= a for a, b in zip(ratios, ratios[1:]))
    # underpayment at every optimum in the sweep
    for r in rows:
        s = 0.8 * r.k
        assert r.contract.w0 < s * r.effort + 1e-12


def test_tech_shock_report():
    prefs = PREFS
    before = FirmParams(k=1.1, lam=0.8, c=0.2, eta=0.9)
    after = FirmParams(k=1.2, lam=0.8, c=0.2, eta=0.9)
    report = tech_shock(before, after, prefs, Horizon(5))
    assert np.all(report.profile_after.mean >= report.profile_before.mean)
    assert np.all(report.profile_after.variance >= report.profile_before.variance)
    assert report.turnover[-1]
    assert not report.turnover[0]
    with pytest.raises(ValueError):
        tech_shock(after, before, prefs, Horizon(5))


def profit_per_mask(contract, firm, policy, T):
    """Reference history enumeration: one history at a time, scalar calls."""
    p = contract.p
    total = 0.0
    for mask in range(1 << T):
        prob = 1.0
        w = contract.w0
        contrib = 0.0
        for t in range(1, T + 1):
            e = float(policy.effort(t, w))
            if mask >> (t - 1) & 1:
                prob *= p
                wage = float(policy.next_wage_if_evaluated(t, w))
                comp = wage + float(policy.bonus_if_evaluated(t, w))
                w_next = wage
            else:
                prob *= 1.0 - p
                comp = w
                w_next = w
            contrib += firm.eta ** (t - 1) * (firm.k * e - comp - p * firm.c)
            w = w_next
        if prob > 0.0:
            total += prob * contrib
    return total


@settings(max_examples=30, deadline=None)
@given(p=st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0)),
       alpha=st.floats(0.0, 1.0), w0_step=st.integers(1, 10), T=st.integers(1, 7),
       cobb_douglas=st.booleans())
@example(p=0.9, alpha=0.9, w0_step=10, T=5, cobb_douglas=False)  # clamped fallback
def test_level_wise_profit_enumeration_matches_per_mask(p, alpha, w0_step, T,
                                                        cobb_douglas):
    # w0 on the Cobb-Douglas grid; additive draws reach both the exact affine
    # policy and the clamped-policy numerical fallback
    firm = FirmParams(k=1.4, lam=0.8, c=0.1, eta=0.92)
    prefs = (WorkerPrefs.cobb_douglas(delta=0.9, gamma=0.4, beta=0.6)
             if cobb_douglas else PREFS)
    contract = ContractParams(p, alpha, w0_step / 10)
    policy = worker_policy(contract, prefs, Horizon(T), firm)
    fast = profit_by_history_enumeration(contract, firm, prefs, Horizon(T), policy)
    assert fast == profit_per_mask(contract, firm, policy, T)
