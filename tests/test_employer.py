import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from wagedyn import (ContractParams, FirmParams, GridSteps, Horizon, WageDistribution,
                     WorkerPrefs, additive, distribution, employer, expected_profit,
                     grid_search_optimum, optimal_effort, phi_series_recursive,
                     profit_by_history_enumeration, stationary_grid_search,
                     stationary_one_period_optimum, tech_shock, tech_sweep)
from wagedyn.cobb_douglas import DpGrid, TableEffortPolicy, solve_policies
from wagedyn.additive import best_response, envelope_evaluated_wages
from wagedyn.checks import one_period_second_forms
from wagedyn.distribution import responder
from wagedyn.employer import (_axis, _one_period_profit, _profit_differences, _w0_max,
                              slab_profit_values, worker_policy)

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
    e_star = optimal_effort(contract, PREFS)
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


def test_worker_policy_failure_propagates(monkeypatch):
    # a failing worker solve is an error, not a -inf profit
    def failing(*args, **kwargs):
        raise ValueError("worker solve failed")

    monkeypatch.setattr(employer, "worker_policy", failing)
    with pytest.raises(ValueError, match="worker solve failed"):
        expected_profit(ContractParams(0.3, 0.4, 0.5), UNIT_SCALE_FIRM, PREFS, Horizon(3))


def test_additive_search_builds_no_distribution(monkeypatch):
    # the profit recursion prices states directly; nothing is merged
    calls = [0]
    original = distribution._merge

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(distribution, "_merge", counted)
    firm = FirmParams(k=1.5, lam=0.8, c=0.2, eta=0.9)
    opt = grid_search_optimum(firm, PREFS, Horizon(10), GridSteps(0.25, 0.25, 0.8),
                              refine_rounds=0)
    assert calls[0] == 0
    assert opt.profit == pytest.approx(
        profit_by_history_enumeration(opt.contract, firm, PREFS, Horizon(10)), abs=1e-12)


def printed_rules(k, c):
    """The paper's printed unit-scale first forms (lam*k = 1, b = 1), as
    (alpha*, p*, w0*): the oracle for the rules' solver."""
    alpha = math.sqrt(k * c) / (k - 1.0) - 1.0
    p = 1.0 - alpha / (1.0 + alpha) * k
    return alpha, p, ((1.0 + alpha) * p) ** 2 / k


def raw_rules(opt):
    return opt.raw_alpha, opt.raw_p, opt.raw_w0


def test_analytic_optimum_reference_values():
    opt = stationary_one_period_optimum(UNIT_SCALE_FIRM)
    assert opt.raw_alpha == pytest.approx(0.341641, abs=1e-6)
    assert opt.raw_p == pytest.approx(0.618034, abs=1e-6)
    assert opt.raw_w0 == pytest.approx(0.458359, abs=1e-6)
    assert not opt.flags
    # consistency between the two printed forms of each rule
    k, c = 1.5, 0.3
    assert opt.raw_p == pytest.approx((1 - k) * (math.sqrt(c) - math.sqrt(k))
                                      / math.sqrt(c), abs=1e-9)
    assert opt.raw_w0 == pytest.approx((math.sqrt(k) - math.sqrt(c)) ** 2, abs=1e-9)
    assert one_period_second_forms(UNIT_SCALE_FIRM) == (
        (1 - k) * (math.sqrt(c) - math.sqrt(k)) / math.sqrt(c),
        (math.sqrt(k) - math.sqrt(c)) ** 2)
    assert opt.raw_w0 < (1 + opt.raw_alpha) * opt.raw_p  # underpayment


def test_analytic_optimum_is_stationary():
    opt = stationary_one_period_optimum(UNIT_SCALE_FIRM)
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
    opt = stationary_one_period_optimum(firm)
    assert opt.raw_alpha == 0.0
    assert opt.raw_p == 1.0
    assert opt.raw_w0 == 0.5
    assert opt.contract == ContractParams(1.0, 0.0, 0.5)


def test_analytic_optimum_out_of_range_flagged():
    # the raw values leave the box (p* > 1, alpha* < 0) and are the printed
    # rules'; the contract sets p = 1 and re-evaluates alpha there
    firm = FirmParams(k=2.0, lam=0.5, c=0.2, eta=0.9)
    opt = stationary_one_period_optimum(firm)
    assert opt.raw_alpha < 0.0
    assert (opt.raw_p, opt.raw_alpha) == pytest.approx((2.1623, -0.3675), abs=1e-4)
    assert raw_rules(opt) == pytest.approx(printed_rules(2.0, 0.2), abs=1e-12)
    assert opt.flags == ("p_out_of_range",)
    assert opt.contract.p == 1.0 and opt.contract.alpha == 0.0


def test_one_period_rules_solve_where_the_unit_scale_rules_raised():
    # away from unit wage scale the rules solve: the alpha bound binds here
    opt = stationary_one_period_optimum(FirmParams(k=1.5, lam=0.8, c=0.3, eta=0.9))
    assert opt.flags == ("alpha_at_upper_bound",)
    assert (opt.contract.p, opt.contract.alpha, opt.contract.w0) == pytest.approx(
        (0.375, 1.0, 0.6), abs=1e-12)
    assert math.isfinite(opt.profit)
    # k = 1 at unit scale is lam = 1: the worker captures the whole product
    opt = stationary_one_period_optimum(FirmParams(k=1.0, lam=1.0, c=0.3, eta=0.9))
    assert opt.flags == ("degenerate_full_share",)
    assert opt.contract == ContractParams(0.0, 0.0, 0.0)
    assert raw_rules(opt) == (0.0, 0.0, 0.0)
    assert opt.profit == 0.0
    # free monitoring sends p* to +inf and alpha* to -1, as the printed rules do
    opt = stationary_one_period_optimum(FirmParams(k=1.5, lam=1.0 / 1.5, c=0.0, eta=0.9))
    assert opt.flags == ("p_out_of_range",)
    assert opt.contract == ContractParams(1.0, 0.0, 1.5)
    assert raw_rules(opt) == (-1.0, math.inf, 1.5)


# alpha* grows like 1/(k-1) and both forms lose digits to cancellation as k
# nears 1 (1e-11 apart at k = 1.0001), so k starts at 1.01, where they agree
# to 5e-14
@settings(max_examples=200, deadline=None)
@given(k=st.floats(1.01, 5.0), c_share=st.floats(1e-6, 1.0, exclude_max=True))
@example(k=1.5, c_share=0.2)  # criterion 7's firm
@example(k=2.0, c_share=0.1)  # p* > 1, alpha* < 0
def test_raw_rules_are_the_printed_unit_scale_rules(k, c_share):
    c = c_share * k
    opt = stationary_one_period_optimum(FirmParams(k=k, lam=1.0 / k, c=c, eta=0.9))
    assert raw_rules(opt) == pytest.approx(printed_rules(k, c), rel=1e-12, abs=1e-12)


@st.composite
def firms_with_p_star_in_range(draw):
    """(k, lam, c/k) with k in [0.05, 5], lam in [0.01, 1] and c/k in [0, 1],
    drawn where p* <= 1, that is sqrt(c/k) >= 1 - lam: uniform draws of c/k
    put most firms outside, and Hypothesis's filter health check then fails
    the test at random."""
    lam = draw(st.floats(0.01, 1.0))
    root = draw(st.floats(1.0 - lam, 1.0))
    return draw(st.floats(0.05, 5.0)), lam, root * root


@settings(max_examples=200, deadline=None)
@given(firm=firms_with_p_star_in_range())
@example(firm=(1.5, 0.8, 0.2 / 1.5))
def test_one_period_profit_is_stationary_at_unflagged_rules(firm):
    k, lam, c_share = firm
    firm = FirmParams(k=k, lam=lam, c=c_share * k, eta=0.9)
    opt = stationary_one_period_optimum(firm)
    h = 1e-7
    cell = (opt.contract.p, opt.contract.alpha, opt.contract.w0)
    # the differences must stay inside the box, where the profit is smooth
    assume(not opt.flags and min(*cell, 1.0 - cell[0], 1.0 - cell[1]) > 2 * h)
    assert raw_rules(opt) == (cell[1], cell[0], cell[2])
    grads = [d / (2 * h) for d in _profit_differences(*cell, firm, h)]
    assert max(map(abs, grads)) < 1e-6


def test_stationary_rules_reduce_to_unit_scale_rules():
    opt = stationary_one_period_optimum(UNIT_SCALE_FIRM)
    alpha, p, w0 = printed_rules(UNIT_SCALE_FIRM.k, UNIT_SCALE_FIRM.c)
    assert opt.contract.p == pytest.approx(p, abs=1e-12)
    assert opt.contract.alpha == pytest.approx(alpha, abs=1e-12)
    assert opt.contract.w0 == pytest.approx(w0, abs=1e-12)


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


def test_stationary_rules_free_monitoring():
    # c = 0 sends p* to +inf: p is flagged and set to 1, so alpha = 0, w0 = k
    firm = FirmParams(k=1.5, lam=0.8, c=0.0, eta=0.9)
    opt = stationary_one_period_optimum(firm)
    assert "p_out_of_range" in opt.flags
    assert opt.contract == ContractParams(1.0, 0.0, 1.5)
    near = stationary_one_period_optimum(FirmParams(k=1.5, lam=0.8, c=1e-12, eta=0.9))
    assert near.flags == opt.flags
    assert (near.contract.p, near.contract.alpha, near.contract.w0) == pytest.approx(
        (1.0, 0.0, 1.5), abs=1e-5)
    (row,) = tech_sweep([1.5], firm)
    assert row.contract == opt.contract


def test_c_sweep_comparative_statics():
    # along rising monitoring cost with interior optima: p falls, alpha rises;
    # the base-wage rule (sqrt(k) - sqrt(c))^2 falls even though the narrative
    # around it says otherwise
    k = 1.5
    cs = [0.2, 0.25, 0.3, 0.35, 0.4]
    opts = [stationary_one_period_optimum(FirmParams(k=k, lam=1 / k, c=c, eta=0.9))
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
    stationary = stationary_one_period_optimum(UNIT_SCALE_FIRM)
    assert opt.profit > stationary.profit + 0.5
    assert opt.contract.p == 1.0


def test_stationary_grid_search_lands_on_rules_for_second_firm():
    # criterion 7 checks the search at k=1.5, c=0.3; a second interior
    # unit-scale firm shows it is not tuned to that one
    firm = FirmParams(k=2.0, lam=0.5, c=1.2, eta=0.9)
    rules = stationary_one_period_optimum(firm)
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


def stationary_search_reference(firm):
    """Reference stationary search: the scan and refinement loop that
    stationary_grid_search ran before it called the one box search."""
    h = 1e-6
    hi = np.array([1.0, 1.0, _w0_max(firm, GridSteps())])

    def inside(vals, dim):
        vals = np.unique(vals)
        return vals[(vals > h) & (vals < hi[dim] - h)]

    def scan(p_vals, a_vals, w_vals):
        best = (math.inf, None)
        a, w = a_vals[:, None], w_vals
        for p in p_vals.tolist():
            dp, da, dw = _profit_differences(p, a, w, firm, h)
            grad_sq = dp ** 2 + da ** 2 + dw ** 2
            i, j = np.unravel_index(int(np.argmin(grad_sq)), grad_sq.shape)
            if grad_sq[i, j] < best[0]:
                best = (float(grad_sq[i, j]), (p, float(a_vals[i]), float(w_vals[j])))
        return best

    step = 0.02
    best_grad, best_cell = scan(*(inside(_axis(0.0, hi[d], step), d) for d in range(3)))
    for _ in range(6):
        step = step / 2.0
        grad, cell = scan(*(inside(best_cell[d] + step * np.arange(-3, 4), d)
                            for d in range(3)))
        if grad < best_grad:
            best_grad, best_cell = grad, cell
    return ContractParams(*best_cell)


@settings(max_examples=25, deadline=None)
@given(k=st.floats(0.2, 3.0), lam=st.floats(0.05, 1.0), c=st.floats(0.0, 3.0))
@example(k=1.5, lam=1.0 / 1.5, c=0.3)  # criterion 7's firm
@example(k=1.5, lam=0.8, c=0.0)  # free monitoring
@example(k=0.2, lam=0.05, c=0.0)  # an empty w0 axis
def test_stationary_search_matches_its_reference(k, lam, c):
    # below wage scale 0.01 no w0 of the coarse axis lies inside the box: the
    # search raises naming the box, the reference on numpy's empty slab
    def outcome(search, firm):
        try:
            cell = search(firm)
        except ValueError:
            return "ValueError"
        return cell.p.hex(), cell.alpha.hex(), cell.w0.hex()

    firm = FirmParams(k=k, lam=lam, c=c, eta=0.9)
    assert outcome(stationary_grid_search, firm) == outcome(stationary_search_reference, firm)


def refinement_axis(center, step, top):
    """A refinement scan's axis: center + step*(-3..3), rounded to 12
    decimals as the coarse axes are (_axis), clipped to [0, top]."""
    return np.unique(np.clip(np.round(center + step * np.arange(-3, 4), 12), 0.0, top))


def one_period_search_reference(firm, prefs, steps, refine_rounds):
    """Reference one-period additive search: one _one_period_profit row per
    (p, alpha), the first max of each row, and the incumbent replaced only on
    a strict improvement; returns an OptimalContract like grid_search_optimum."""
    w0_max = _w0_max(firm, steps)

    def scan(p_vals, a_vals, w_vals):
        best = (-math.inf, None)
        w_arr = np.asarray(w_vals, dtype=float)
        for p in p_vals:
            for a in a_vals:
                row = _one_period_profit(float(p), float(a), w_arr, firm, b=prefs.b)
                i = int(np.argmax(row))
                if float(row[i]) > best[0]:
                    best = (float(row[i]), (float(p), float(a), float(w_arr[i])))
        return best

    best_profit, best_cell = scan(_axis(0.0, 1.0, steps.p_step),
                                  _axis(0.0, 1.0, steps.alpha_step),
                                  _axis(0.0, w0_max, steps.w0_step))
    h = np.array([steps.p_step, steps.alpha_step, steps.w0_step])
    for _ in range(refine_rounds):
        h = h / 2.0
        p0, a0, w0 = best_cell
        profit, cell = scan(refinement_axis(p0, h[0], 1.0), refinement_axis(a0, h[1], 1.0),
                            refinement_axis(w0, h[2], w0_max))
        if profit > best_profit:
            best_profit, best_cell = profit, cell
    flags = tuple(f"{name}_at_bound" for name, val, hi in
                  zip(("p", "alpha", "w0"), best_cell, (1.0, 1.0, w0_max)) if val in (0.0, hi))
    return employer.OptimalContract(ContractParams(*best_cell), best_profit, flags)


def assert_same_optimum(got, want):
    assert (got.contract.p, got.contract.alpha, got.contract.w0) == (
        want.contract.p, want.contract.alpha, want.contract.w0)
    assert got.profit == want.profit
    assert got.flags == want.flags
    assert got == want


@settings(max_examples=60, deadline=None)
@given(k=st.floats(0.05, 5.0), lam=st.floats(0.05, 1.0), c=st.floats(0.0, 3.0),
       b=st.floats(0.5, 2.0), p_step=st.floats(0.05, 1.0), alpha_step=st.floats(0.05, 1.0),
       w0_step=st.floats(0.05, 1.0), w0_max=st.one_of(st.none(), st.floats(0.1, 3.0)),
       refine_rounds=st.integers(0, 2))
@example(k=0.5, lam=0.5, c=0.375, b=0.5, p_step=0.25, alpha_step=0.5, w0_step=0.5,
         w0_max=None, refine_rounds=2)  # ties across p
def test_one_period_search_matches_per_row_scan(k, lam, c, b, p_step, alpha_step, w0_step,
                                                w0_max, refine_rounds):
    # a box whose every cell has -inf profit has no incumbent: the reference
    # then fails unpacking it, and the search raises a ValueError naming the box
    firm = FirmParams(k=k, lam=lam, c=c, eta=0.9)
    prefs = WorkerPrefs.additive(delta=0.9, b=b)
    steps = GridSteps(p_step, alpha_step, w0_step, w0_max)
    try:
        want = one_period_search_reference(firm, prefs, steps, refine_rounds)
    except TypeError:
        with pytest.raises(ValueError, match="no contract in the box"):
            grid_search_optimum(firm, prefs, Horizon(1), steps, refine_rounds)
        return
    assert_same_optimum(grid_search_optimum(firm, prefs, Horizon(1), steps, refine_rounds),
                        want)


@pytest.mark.parametrize("firm, b, steps, tied_p", [
    # monitoring this costly never pays: at p = 0 the profit -w0 does not
    # depend on alpha, so every alpha of the p = 0 slab ties
    (FirmParams(k=1.2, lam=1 / 1.2, c=50.0, eta=0.9), 1.0, GridSteps(0.05, 0.05, 0.05),
     [0.0]),
    # the best profit, exactly 0.0, is reached at four values of p
    (FirmParams(k=0.5, lam=0.5, c=0.375, eta=0.9), 0.5, GridSteps(0.25, 0.5, 0.5),
     [0.25, 0.5, 0.75, 1.0])])
def test_one_period_search_ties_go_to_smallest_cell(firm, b, steps, tied_p):
    prefs = WorkerPrefs.additive(delta=0.9, b=b)
    a_col = _axis(0.0, 1.0, steps.alpha_step)[:, None]
    w_vals = _axis(0.0, _w0_max(firm, steps), steps.w0_step)
    slabs = {float(p): _one_period_profit(float(p), a_col, w_vals, firm, b=b)
             for p in _axis(0.0, 1.0, steps.p_step)}
    best = max(slab.max() for slab in slabs.values())
    assert [p for p, slab in slabs.items() if slab.max() == best] == tied_p
    assert sum(int(np.sum(slab == best)) for slab in slabs.values()) > 1
    i, j = np.argwhere(slabs[tied_p[0]] == best)[0]
    for rounds in (0, 1, 2):
        opt = grid_search_optimum(firm, prefs, Horizon(1), steps, refine_rounds=rounds)
        assert_same_optimum(opt, one_period_search_reference(firm, prefs, steps, rounds))
        if rounds == 0:
            assert (opt.contract.p, opt.contract.alpha, opt.contract.w0) == (
                tied_p[0], a_col[i, 0], w_vals[j])


def test_grid_search_deterministic():
    a = grid_search_optimum(UNIT_SCALE_FIRM, PREFS, Horizon(1),
                            GridSteps(0.05, 0.05, 0.05), refine_rounds=1)
    b = grid_search_optimum(UNIT_SCALE_FIRM, PREFS, Horizon(1),
                            GridSteps(0.05, 0.05, 0.05), refine_rounds=1)
    assert a.contract == b.contract and a.profit == b.profit


def test_tech_sweep_monotone_outcomes():
    firm = FirmParams(k=1.25, lam=0.8, c=0.2, eta=0.9)
    rows = tech_sweep([1.05, 1.1, 1.15, 1.2, 1.25], firm)
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
    # the employment cost of each period, beside each cohort's profile
    assert report.cost_before.shape == report.cost_after.shape == (5,)
    assert report.turnover == [bool(c > report.cost_after[0] + 1e-12)
                               for c in report.cost_after]
    with pytest.raises(ValueError):
        tech_shock(after, before, prefs, Horizon(5))


def profit_per_mask(contract, firm, policy, T):
    """Reference history enumeration: one history at a time, scalar calls."""
    p = contract.p
    respond = responder(policy)
    total = 0.0
    for mask in range(1 << T):
        prob = 1.0
        w = contract.w0
        contrib = 0.0
        for t in range(1, T + 1):
            e, wage, bonus = (float(v) for v in respond(t, w))
            if mask >> (t - 1) & 1:
                prob *= p
                comp = wage + bonus
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
@example(p=0.9, alpha=0.9, w0_step=10, T=5, cobb_douglas=False)  # clamped: envelope x*
def test_level_wise_profit_enumeration_matches_per_mask(p, alpha, w0_step, T,
                                                        cobb_douglas):
    # w0 on the Cobb-Douglas grid; additive draws reach both the phi recursion
    # and, where an evaluated wage clamps, the envelope recursion
    firm = FirmParams(k=1.4, lam=0.8, c=0.1, eta=0.92)
    prefs = (WorkerPrefs.cobb_douglas(delta=0.9, gamma=0.4, beta=0.6)
             if cobb_douglas else PREFS)
    contract = ContractParams(p, alpha, w0_step / 10)
    policy = worker_policy(contract, prefs, Horizon(T), firm)
    fast = profit_by_history_enumeration(contract, firm, prefs, Horizon(T), policy)
    assert fast == profit_per_mask(contract, firm, policy, T)


CD_PREFS = WorkerPrefs.cobb_douglas(delta=0.9, gamma=0.4, beta=0.6)
CD_FIRM = FirmParams(k=1.5, lam=0.8, c=0.2, eta=0.9)


def profit_by_distribution_loop(contract, firm, policy, T):
    """Reference profit: the per-period WageDistribution loop, with the step
    built from (wage, mass) pairs and merged by from_pairs."""
    p = contract.p
    respond = responder(policy)
    dist = WageDistribution.point_mass(contract.w0)
    total = 0.0
    for t in range(1, T + 1):
        e, nxt, bonus = respond(t, dist.support)
        comp = nxt + bonus
        wage_cost = (p * float(np.dot(comp, dist.probs))
                     + (1.0 - p) * float(np.dot(dist.support, dist.probs)))
        total += firm.eta ** (t - 1) * (firm.k * float(np.dot(e, dist.probs))
                                        - wage_cost - p * firm.c)
        pairs = []
        if p < 1.0:
            pairs += zip(dist.support.tolist(), (dist.probs * (1.0 - p)).tolist())
        if p > 0.0:
            pairs += zip(nxt.tolist(), (dist.probs * p).tolist())
        dist = WageDistribution.from_pairs(pairs)
    return total


@settings(max_examples=60, deadline=None)
@given(p=st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0)),
       alpha=st.floats(0.0, 1.0), w0_step=st.integers(0, 10), T=st.integers(1, 8),
       gamma=st.floats(0.1, 0.9), beta=st.floats(0.1, 0.9), cobb_douglas=st.booleans())
@example(p=0.9, alpha=0.9, w0_step=10, T=5, gamma=0.4, beta=0.6,
         cobb_douglas=False)  # clamped: envelope x*
def test_grid_profit_matches_enumeration_and_distribution_loop(p, alpha, w0_step, T,
                                                               gamma, beta, cobb_douglas):
    # the recursion sums in another order than the loop and the enumeration,
    # so equality is to 1e-12; additive draws reach both the phi recursion
    # and, where an evaluated wage clamps, the envelope recursion
    assume(cobb_douglas or w0_step > 0 or p == 1.0)  # else -inf, see degenerate test
    prefs = (WorkerPrefs.cobb_douglas(delta=0.9, gamma=gamma, beta=beta)
             if cobb_douglas else PREFS)
    contract = ContractParams(p, alpha, w0_step / 10)
    policy = worker_policy(contract, prefs, Horizon(T), CD_FIRM)
    single = expected_profit(contract, CD_FIRM, prefs, Horizon(T))
    enumerated = profit_by_history_enumeration(contract, CD_FIRM, prefs, Horizon(T), policy)
    assert abs(single - enumerated) <= 1e-12
    assert abs(single - profit_by_distribution_loop(contract, CD_FIRM, policy, T)) <= 1e-12
    # priced inside a row of starting wages, the value is the same to the bit
    grid = DpGrid()
    values = slab_profit_values([policy], p, CD_FIRM, Horizon(T), grid.wages)[0]
    assert values[w0_step] == single
    # handed that priced value, the call returns it
    assert expected_profit(contract, CD_FIRM, prefs, Horizon(T),
                           value=values[w0_step]) == single


def test_grid_profit_rejects_off_grid_w0():
    with pytest.raises(ValueError, match=r"wage 0.45 is not on the policy grid \(step 0.1\)"):
        expected_profit(ContractParams(0.5, 0.5, 0.45), CD_FIRM, CD_PREFS, Horizon(3))


def per_cell_search(firm, prefs, horizon, steps, refine_rounds):
    """Reference grid search: one expected_profit call per cell, each solving a
    fresh worker policy and pricing its own w0; returns an OptimalContract like
    grid_search_optimum."""
    w0_max = _w0_max(firm, steps)

    def scan(p_vals, a_vals, w_vals):
        best = (-math.inf, None)
        for p in p_vals:
            for a in a_vals:
                for w in w_vals:
                    cell = (float(p), float(a), float(w))
                    pi = employer.expected_profit(ContractParams(*cell), firm, prefs,
                                                  horizon)
                    if pi > best[0]:
                        best = (pi, cell)
        return best

    best = scan(_axis(0.0, 1.0, steps.p_step), _axis(0.0, 1.0, steps.alpha_step),
                _axis(0.0, w0_max, steps.w0_step))
    h = np.array([steps.p_step, steps.alpha_step, steps.w0_step])
    for _ in range(refine_rounds):
        h = h / 2.0
        p0, a0, w0 = best[1]
        found = scan(refinement_axis(p0, h[0], 1.0), refinement_axis(a0, h[1], 1.0),
                     refinement_axis(w0, h[2], w0_max))
        if found[0] > best[0]:
            best = found
    flags = tuple(f"{name}_at_bound" for name, val, hi in
                  zip(("p", "alpha", "w0"), best[1], (1.0, 1.0, w0_max)) if val in (0.0, hi))
    return employer.OptimalContract(ContractParams(*best[1]), best[0], flags)


@pytest.fixture
def profit_calls(monkeypatch):
    """Counts calls made through employer.expected_profit."""
    count = [0]
    original = employer.expected_profit

    def counted(*args, **kwargs):
        count[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(employer, "expected_profit", counted)
    return count


def test_cobb_douglas_search_matches_per_cell_scan(profit_calls):
    # halving the 0.4 w0 step keeps every refinement cell on the 0.1 grid
    steps, horizon = GridSteps(0.2, 0.2, 0.4, w0_max=0.8), Horizon(4)
    opt = grid_search_optimum(CD_FIRM, CD_PREFS, horizon, steps, refine_rounds=1)
    search_calls = profit_calls[0]
    assert_same_optimum(opt, per_cell_search(CD_FIRM, CD_PREFS, horizon, steps, 1))
    assert search_calls == profit_calls[0] - search_calls


def test_cobb_douglas_search_solves_one_policy_per_pass(monkeypatch, profit_calls):
    # the 5 x 5 coarse scan (275 starting pairs) is one pass: one solve
    # holding all 25 rows in (p, alpha) order; no per-row solve
    passes = []
    original = employer.solve_policies

    def counted(contracts, *args, **kwargs):
        passes.append([(c.p, c.alpha) for c in contracts])
        return original(contracts, *args, **kwargs)

    def no_row_solve(*args, **kwargs):
        raise AssertionError("the search solved a Cobb-Douglas row on its own")

    monkeypatch.setattr(employer, "solve_policies", counted)
    monkeypatch.setattr(employer, "worker_policy", no_row_solve)
    grid_search_optimum(CD_FIRM, CD_PREFS, Horizon(3),
                        GridSteps(0.25, 0.25, 0.5, w0_max=1.0), refine_rounds=0)
    axis = [0.0, 0.25, 0.5, 0.75, 1.0]
    assert passes == [[(p, a) for p in axis for a in axis]]
    assert profit_calls[0] == 5 * 5 * 3


def test_off_grid_search_raises_at_the_per_cell_scans_cell(monkeypatch, profit_calls):
    # refinement halves the 0.5 w0 step to 0.25, off the 0.1 policy grid: the
    # search raises on the wage the per-cell scan raises on, after every
    # coarse cell and before any refinement solve
    solves = []
    original = employer.solve_policies

    def counted(contracts, *args, **kwargs):
        solves.append(len(contracts))
        return original(contracts, *args, **kwargs)

    monkeypatch.setattr(employer, "solve_policies", counted)
    steps, horizon = GridSteps(0.25, 0.25, 0.5, w0_max=1.0), Horizon(3)
    with pytest.raises(ValueError, match="not on the policy grid") as search_error:
        grid_search_optimum(CD_FIRM, CD_PREFS, horizon, steps, refine_rounds=1)
    search_calls = profit_calls[0]
    assert solves == [5 * 5]  # the coarse pass alone
    assert search_calls == 5 * 5 * 3
    with pytest.raises(ValueError, match="not on the policy grid") as per_cell_error:
        per_cell_search(CD_FIRM, CD_PREFS, horizon, steps, 1)
    # the per-cell scan names the grid's step after the same message
    assert str(per_cell_error.value).startswith(str(search_error.value))
    assert profit_calls[0] - search_calls > search_calls  # it failed in the refinement


def test_off_grid_coarse_axis_raises_before_any_solve(monkeypatch, profit_calls):
    def no_solve(*args, **kwargs):
        raise AssertionError("the search solved a pass of an off-grid scan")

    monkeypatch.setattr(employer, "solve_policies", no_solve)
    with pytest.raises(ValueError, match=r"^wage 0.02 is not on the policy grid$"):
        grid_search_optimum(CD_FIRM, CD_PREFS, Horizon(10))
    assert profit_calls[0] == 0


@pytest.mark.parametrize("cobb_douglas", [True, False])
@pytest.mark.parametrize("steps, refine_rounds", [
    (GridSteps(0.5, 0.5, 0.4, w0_max=0.8), 0),
    (GridSteps(0.25, 0.2, 0.2, w0_max=1.0), 0),
    (GridSteps(0.25, 0.25, 0.4, w0_max=0.8), 1),
])
def test_search_looks_the_w0_axis_up_once_per_scan(monkeypatch, profit_calls, cobb_douglas,
                                                   steps, refine_rounds):
    # a Cobb-Douglas scan picks its w0 columns with one grid_index call,
    # whatever its cell count; an additive scan is priced at its w0 axis and
    # looks nothing up
    lookups = []
    original = employer.grid_index

    def counted(points, wages, *args):
        lookups.append(len(wages))
        return original(points, wages, *args)

    monkeypatch.setattr(employer, "grid_index", counted)
    grid_search_optimum(CD_FIRM, CD_PREFS if cobb_douglas else PREFS, Horizon(3), steps,
                        refine_rounds)
    assert profit_calls[0] > len(lookups)
    assert len(lookups) == (1 + refine_rounds if cobb_douglas else 0)


def test_search_prices_each_cell_at_the_wage_it_reports():
    # refinement axes are rounded to 12 decimals as the coarse axes are, so a
    # refinement from w0 = 0.4 or 0.8 by 0.2 reaches the policy-grid wage 0.6,
    # not 0.6000000000000001: every cell, the reported optimum included, is
    # priced at the w0 it names, to the bit of the standalone call
    cells = []
    original = employer.expected_profit

    def recorded(contract, firm, prefs, horizon, value=None):
        profit = original(contract, firm, prefs, horizon, value)
        cells.append((contract, profit))
        return profit

    horizon, grid = Horizon(3), DpGrid()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(employer, "expected_profit", recorded)
        opt = grid_search_optimum(CD_FIRM, CD_PREFS, horizon,
                                  GridSteps(0.25, 0.25, 0.4, w0_max=0.8), refine_rounds=1)
    assert 0.6 in {contract.w0 for contract, _ in cells}
    for contract, profit in cells:
        assert contract.w0 == grid.wages[grid.index(contract.w0)]
        assert profit.hex() == original(contract, CD_FIRM, CD_PREFS, horizon).hex()
    assert opt.profit.hex() == original(opt.contract, CD_FIRM, CD_PREFS, horizon).hex()


@settings(max_examples=25, deadline=None)
@given(cobb_douglas=st.booleans(), p_step=st.sampled_from([0.25, 0.5]),
       alpha_step=st.sampled_from([0.25, 0.5, 1.0]), T=st.integers(2, 4),
       pass_pairs=st.sampled_from([1, 7, 30, 100]), refine_rounds=st.integers(0, 1))
@example(cobb_douglas=True, p_step=0.25, alpha_step=0.25, T=3, pass_pairs=100,
         refine_rounds=1)  # 55 pairs per slab: one slab per pass
@example(cobb_douglas=False, p_step=0.25, alpha_step=0.5, T=4, pass_pairs=30,
         refine_rounds=1)
def test_search_over_several_passes_matches_per_cell_scan(
        cobb_douglas, p_step, alpha_step, T, pass_pairs, refine_rounds):
    # a small pass cap splits each scan into passes of one or more whole
    # slabs; the cells, their order and the optimum stay the per-cell scan's,
    # and each cell's handed value prices it to the bit as the standalone
    # call, which solves and prices the one contract at the w0 it names
    prefs = CD_PREFS if cobb_douglas else PREFS
    # halving the 0.4 w0 step keeps every Cobb-Douglas refinement cell on the grid
    steps = GridSteps(p_step, alpha_step, 0.4, w0_max=0.8)
    cells = []  # (contract, handed value, profit) per call
    original = employer.expected_profit

    def recorded(contract, firm, prefs, horizon, value=None):
        profit = original(contract, firm, prefs, horizon, value)
        cells.append((contract, value, profit))
        return profit

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(employer, "_PASS_PAIRS", pass_pairs)
        mp.setattr(employer, "expected_profit", recorded)
        opt = grid_search_optimum(CD_FIRM, prefs, Horizon(T), steps, refine_rounds)
        search_cells, cells = cells, []
        ref = per_cell_search(CD_FIRM, prefs, Horizon(T), steps, refine_rounds)
    assert_same_optimum(opt, ref)
    assert opt.profit.hex() == ref.profit.hex()
    assert [c for c, _, _ in search_cells] == [c for c, _, _ in cells]
    assert all(value is not None for _, value, _ in search_cells)
    assert all(value is None for _, value, _ in cells)
    for (_, _, profit), (_, _, standalone) in zip(search_cells, cells):
        assert profit.hex() == standalone.hex()


def test_additive_search_matches_per_cell_scan(monkeypatch, profit_calls):
    # T = 10 at wage scale 1.2, as the benchmark's additive search: some rows
    # clamp along their evaluated wages and take the envelope recursion
    envelope_rows = [0]
    original = additive.envelope_evaluated_wages

    def counted(*args, **kwargs):
        envelope_rows[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(additive, "envelope_evaluated_wages", counted)
    steps, horizon = GridSteps(0.25, 0.25, 0.5), Horizon(10)
    opt = grid_search_optimum(CD_FIRM, PREFS, horizon, steps, refine_rounds=1)
    search_calls, search_envelopes = profit_calls[0], envelope_rows[0]
    assert search_envelopes > 0
    assert_same_optimum(opt, per_cell_search(CD_FIRM, PREFS, horizon, steps, 1))
    assert search_calls == profit_calls[0] - search_calls
    assert opt.profit == pytest.approx(
        profit_by_history_enumeration(opt.contract, CD_FIRM, PREFS, horizon), abs=1e-12)


def test_additive_search_solves_one_exact_policy_per_row(monkeypatch, profit_calls):
    # the 5 x 5 coarse scan (125 starting pairs) is one pass: one array solve
    # (best_responses) holding all 25 rows in (p, alpha) order, each row the
    # exact policy of its one-row solve; no per-row solve and no grid
    grid_solves, passes = [0], []

    def no_grid_solve(*args, **kwargs):
        grid_solves[0] += 1
        raise AssertionError("the employer search solved a grid")

    def no_row_solve(*args, **kwargs):
        raise AssertionError("the search solved an additive row on its own")

    original = employer.best_responses

    def counted(contracts, *args, **kwargs):
        policies = original(contracts, *args, **kwargs)
        passes.append([(c.p, c.alpha) for c in contracts])
        for contract, policy in zip(contracts, policies):
            one = best_response(contract, PREFS, Horizon(10), CD_FIRM.wage_scale)
            assert policy.phi.tobytes() == one.phi.tobytes()
        return policies

    monkeypatch.setattr(additive, "solve_backward_induction", no_grid_solve)
    monkeypatch.setattr(employer, "best_responses", counted)
    monkeypatch.setattr(employer, "worker_policy", no_row_solve)
    grid_search_optimum(CD_FIRM, PREFS, Horizon(10), GridSteps(0.25, 0.25, 0.5),
                        refine_rounds=0)
    axis = [0.0, 0.25, 0.5, 0.75, 1.0]
    assert grid_solves[0] == 0
    assert passes == [[(p, a) for p in axis for a in axis]]
    assert profit_calls[0] == 5 * 5 * 5  # w0 in 0, 0.5, ..., 2.0


def profit_values_per_row(policy, p, firm, horizon, wages):
    """Reference: one policy's employer value as priced before slab pricing,
    one recursion per policy, its reachable wages kept with np.union1d and indexed
    with two searchsorted calls per period."""
    wages = np.asarray(wages, dtype=float)
    respond = responder(policy)
    states, periods = np.unique(wages), []
    for t in range(1, horizon.T + 1):
        e, x, bonus = respond(t, states)
        comp = x + bonus
        pi = firm.k * e - (p * comp + (1.0 - p) * states + p * firm.c)
        reached = np.union1d(states, x)
        periods.append((pi, np.searchsorted(reached, states), np.searchsorted(reached, x)))
        states = reached
    value = np.zeros(len(states))
    for pi, keep, move in reversed(periods):
        value = pi + firm.eta * ((1.0 - p) * value[keep] + p * value[move])
    return value[np.searchsorted(np.unique(wages), wages)]


def reached_wages(policy, T, wages):
    """Number of distinct wages reachable from wages within T periods."""
    respond = responder(policy)
    states = np.unique(wages)
    for t in range(1, T + 1):
        states = np.union1d(states, respond(t, states)[1])
    return len(states)


# policy grids of the dense Cobb-Douglas pricing: effort steps unequal to the
# wage step, and wage grids reaching past 1
SLAB_GRIDS = (DpGrid(), DpGrid(0.05, 0.1), DpGrid(0.025, 0.25), DpGrid(0.1, 0.1, 2.0),
              DpGrid(0.05, 0.2, 1.5), DpGrid(0.1, 0.5, 1.2))


@settings(max_examples=80, deadline=None)
@given(p=st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0)),
       alphas=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4),
       wage_draws=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4),
       T=st.integers(1, 8), cobb_douglas=st.booleans(),
       rates=st.one_of(st.none(), st.lists(st.one_of(st.just(0.0), st.just(1.0),
                                                     st.floats(0.0, 1.0)),
                                           min_size=4, max_size=4)),
       grid=st.sampled_from(SLAB_GRIDS), nudged=st.booleans())
@example(p=0.9, alphas=[0.0, 0.9, 1.0], wage_draws=[0.5], T=5, cobb_douglas=False,
         rates=None, grid=DpGrid(), nudged=False)  # clamped rows take the envelope recursion
@example(p=0.0, alphas=[0.0, 1.0], wage_draws=[0.0, 1.0], T=8, cobb_douglas=False,
         rates=None, grid=DpGrid(), nudged=False)
@example(p=0.7, alphas=[0.0, 0.4], wage_draws=[0.4583], T=2, cobb_douglas=False,
         rates=None, grid=DpGrid(), nudged=False)  # row 0's largest reached wage is row 1's smallest
@example(p=1.0, alphas=[0.5, 1.0], wage_draws=[0.0, 0.3], T=8, cobb_douglas=True,
         rates=None, grid=DpGrid(), nudged=False)
@example(p=0.0, alphas=[0.9, 0.9, 1.0], wage_draws=[0.5], T=5, cobb_douglas=False,
         rates=[0.9, 0.0, 1.0, 0.5], grid=DpGrid(), nudged=False)  # rows of one alpha at different p
@example(p=0.0, alphas=[0.5, 0.5, 1.0, 0.0], wage_draws=[0.0, 0.3], T=8,
         cobb_douglas=True, rates=[1.0, 0.2, 0.0, 0.7], grid=DpGrid(), nudged=False)
@example(p=0.0, alphas=[0.3, 1.0, 0.0], wage_draws=[0.0, 0.55, 1.0], T=6,
         cobb_douglas=True, rates=[0.6, 1.0, 0.25, 0.0], grid=DpGrid(0.05, 0.2, 1.5),
         nudged=True)  # dense pricing on a wide grid, a wage one ulp off it
def test_slab_rows_equal_one_row_passes(p, alphas, wage_draws, T, cobb_douglas, rates, grid,
                                        nudged):
    # a slab prices every row in one recursion; each row must be its one-row
    # pass to the bit, and the per-row recursion over reached wages it
    # replaced, whatever the other rows reach and whether the rows share p
    # (rates None) or each has its own. Cobb-Douglas rows, solved on grid, are
    # priced over the dense (row, wage) array of the starting wages and the
    # effort grid; a nudged starting wage lies one ulp above a grid wage, on
    # the grid within its tolerance, and keeps its own column
    horizon = Horizon(T)
    s = CD_FIRM.wage_scale
    row_p = [p] * len(alphas) if rates is None else rates[:len(alphas)]
    contracts = [ContractParams(q, a, 0.5) for q, a in zip(row_p, alphas)]
    if cobb_douglas:
        prefs = CD_PREFS
        points = grid.wages
        wages = points[np.round(np.array(wage_draws) * (len(points) - 1)).astype(int)]
        if nudged:
            wages = np.append(wages, np.nextafter(wages[0], math.inf))
        policies = [TableEffortPolicy(policy)
                    for policy in solve_policies(contracts, prefs, horizon, grid)]
    else:
        prefs = PREFS
        # draws on [0, 2s], and for alpha >= 0.5 the row's dead-corner wage
        # s(1+alpha)/alpha (at most 3s) and one beyond it
        corners = [s * (1.0 + a) / a for a in alphas if a >= 0.5]
        wages = np.array([2.0 * s * w for w in wage_draws] + corners
                         + [1.05 * w for w in corners])
        policies = [worker_policy(contract, prefs, horizon, CD_FIRM) for contract in contracts]
    slab = slab_profit_values(policies, p if rates is None else np.array(row_p), CD_FIRM,
                              horizon, wages)
    assert slab.shape == (len(alphas), len(wages))
    for q, a, policy, row in zip(row_p, alphas, policies, slab):
        one = slab_profit_values([policy], q, CD_FIRM, horizon, wages)[0]
        assert row.tobytes() == one.tobytes()
        assert row.tobytes() == profit_values_per_row(policy, q, CD_FIRM, horizon,
                                                      wages).tobytes()
        for w, value in zip(wages.tolist(), row.tolist()):
            enumerated = profit_by_history_enumeration(ContractParams(q, a, w), CD_FIRM,
                                                       prefs, horizon, policy)
            assert abs(value - enumerated) <= 1e-12


@pytest.mark.parametrize("direction", [math.inf, -math.inf])
def test_dense_pricing_refuses_an_effort_off_the_state_grid(direction):
    # dense pricing moves an evaluated pair to the column of its effort; a
    # hand-built table whose effort lies one ulp off a grid effort has no such
    # column, and the pricing refuses it rather than read a neighbour's value
    grid = DpGrid()
    policy = solve_policies([ContractParams(0.5, 0.5, 0.5)], CD_PREFS, Horizon(3), grid)[0]
    table = np.array(policy.table)
    table[0, :] = np.nextafter(0.3, direction)
    off = TableEffortPolicy(replace(policy, table=table))
    with pytest.raises(ValueError, match="not a point of the policies' state grid"):
        slab_profit_values([off], 0.5, CD_FIRM, Horizon(3), [0.5])
    # on the grid efforts the same table prices
    table[0, :] = 0.3
    slab_profit_values([TableEffortPolicy(replace(policy, table=table))], 0.5, CD_FIRM,
                       Horizon(3), [0.5])


def test_slab_with_unequal_reach_matches_per_cell_scan(profit_calls):
    # at p = 0.75 and T = 10 the alpha = 0.5..1 rows clamp and take the
    # envelope recursion while the alpha = 0, 0.25 rows do not; the rows reach
    # from 15 to 74 wages, all priced in one slab
    steps, horizon = GridSteps(0.75, 0.25, 0.5), Horizon(10)
    wages = _axis(0.0, _w0_max(CD_FIRM, steps), steps.w0_step)
    slab = [worker_policy(ContractParams(0.75, a, 0.5), PREFS, horizon, CD_FIRM)
            for a in (0.0, 0.25, 0.5, 0.75, 1.0)]
    phi = [phi_series_recursive(pol.contract, PREFS, horizon) for pol in slab]
    assert [pol.phi.tobytes() != f.tobytes() for pol, f in zip(slab, phi)] == [
        False, False, True, True, True]
    assert len({reached_wages(pol, horizon.T, wages) for pol in slab}) == 5
    opt = grid_search_optimum(CD_FIRM, PREFS, horizon, steps, refine_rounds=1)
    search_calls = profit_calls[0]
    ref = per_cell_search(CD_FIRM, PREFS, horizon, steps, 1)
    assert_same_optimum(opt, ref)
    assert opt.profit.hex() == ref.profit.hex()
    assert search_calls == profit_calls[0] - search_calls


def today_rule_unclamped(contract, s, phi, b=1.0):
    """The affine policy never clamps at w0 or at any evaluated wage."""
    p, alpha = contract.p, contract.alpha
    wages = [contract.w0] + [(p / b) * (1.0 + alpha) * s * ph for ph in phi]
    return all(0.0 <= (p / b) * ph + alpha / (1.0 + alpha) * w / s <= 1.0
               for ph in phi for w in wages)


@settings(max_examples=60, deadline=None)
@given(p=st.floats(0.0, 1.0), alpha=st.floats(0.0, 1.0), w0=st.floats(0.0, 2.0),
       T=st.integers(1, 12))
@example(p=0.2, alpha=0.5, w0=0.4, T=10)  # fig3_2's contract
def test_unclamped_contract_takes_phi_recursion_bit_for_bit(p, alpha, w0, T):
    contract = ContractParams(p, alpha, w0)
    phi = phi_series_recursive(contract, PREFS, Horizon(T))
    assume(today_rule_unclamped(contract, CD_FIRM.wage_scale, phi))
    policy = worker_policy(contract, PREFS, Horizon(T), CD_FIRM)
    assert policy.phi.tobytes() == phi.tobytes()


def clamps_reference(contract, b, s, phi):
    """best_response's clamp check as it was: a generator over every
    (period, evaluated wage) pair, true when some affine effort leaves [0, 1]."""
    p, alpha = contract.p, contract.alpha
    A = alpha / (1.0 + alpha)
    wages = [(p / b) * (1.0 + alpha) * s * ph for ph in phi]
    return not all(0.0 <= (p / b) * ph + A * w / s <= 1.0 for ph in phi for w in wages)


@pytest.mark.parametrize("p, alpha, T, clamped", [(0.9, 1.0, 5, True), (0.75, 0.6, 12, True),
                                                  (0.1, 1.0, 6, False), (0.2, 0.5, 10, False)])
def test_clamp_examples_take_both_branches(p, alpha, T, clamped):
    contract = ContractParams(p, alpha, 0.5)
    phi = phi_series_recursive(contract, PREFS, Horizon(T))
    assert clamps_reference(contract, PREFS.b, 1.2, phi) is clamped


@settings(max_examples=60, deadline=None)
@given(p=st.floats(0.0, 1.0), alpha=st.floats(0.0, 1.0), T=st.integers(1, 12),
       b=st.sampled_from([0.5, 1.0, 2.0]), s=st.floats(0.3, 2.0))
@example(p=0.9, alpha=1.0, T=5, b=1.0, s=1.2)   # clamped
@example(p=0.75, alpha=0.6, T=12, b=1.0, s=1.2)  # clamped
@example(p=0.1, alpha=1.0, T=6, b=1.0, s=1.2)   # alpha = 1, unclamped
def test_broadcast_clamp_check_takes_the_generator_branch(p, alpha, T, b, s):
    contract = ContractParams(p, alpha, 0.5)
    prefs = WorkerPrefs.additive(delta=0.9, b=b)
    horizon = Horizon(T)
    phi = phi_series_recursive(contract, prefs, horizon)
    if clamps_reference(contract, b, s, phi):
        phi = envelope_evaluated_wages(contract, prefs, horizon, s) * b / (p * (1.0 + alpha) * s)
    assert best_response(contract, prefs, horizon, s).phi.tobytes() == phi.tobytes()


def test_stationary_search_of_an_empty_box_names_the_box():
    # wage scale 0.01: w0_max = 0.02, and the coarse w0 axis keeps no cell
    # more than h inside the box
    with pytest.raises(ValueError, match=r"no cell of the box .* w0 in \[0, 0.02"):
        stationary_grid_search(FirmParams(k=0.2, lam=0.05, c=0.0, eta=0.9))


@pytest.mark.parametrize("field, value", [
    ("p_step", 0.0), ("alpha_step", -0.1), ("w0_step", math.inf), ("p_step", math.nan),
    ("w0_max", 0.0), ("w0_max", -1.0), ("w0_max", math.inf),
])
def test_grid_steps_reject_a_step_or_bound_that_is_not_finite_and_positive(field, value):
    with pytest.raises(ValueError, match=rf"GridSteps\.{field}: must be finite and > 0"):
        GridSteps(**{field: value})


def test_search_without_finite_profit_names_the_box():
    firm = FirmParams(k=1.0, lam=0.05, c=0.1, eta=0.9)
    for T in (1, 3):
        # the w0 axis is [0] and p never reaches 1: every cell is -inf
        with pytest.raises(ValueError, match=r"no contract in the box .* w0 in \[0, 0.1\]"):
            grid_search_optimum(firm, PREFS, Horizon(T), GridSteps(0.3, 0.3, 0.5),
                                refine_rounds=0)
