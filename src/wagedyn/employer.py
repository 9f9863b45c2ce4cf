"""Employer-side optimization: profit evaluation, the one-period optimum rules,
grid search, and technology experiments.

Profit per period is expected output k*E(e_t) minus expected compensation and
monitoring cost p*c, discounted by eta. Compensation is the worker's total
compensation: the wage alone under the additive scheme, wage plus nonrecurrent
bonus under the Cobb-Douglas scheme.

The worker's best response (worker_policy) depends on (p, alpha) alone in
both families, so a multi-period grid search solves it once per (p, alpha)
row and prices the row's starting wages with one profit_values pass. The
additive response is additive.best_response, exact in every regime: the phi
recursion while no evaluated wage clamps, otherwise the envelope recursion;
no wage grid is solved.

A structural warning, verified numerically and by hand: the one-period rules
(alpha*, p*, w0*) are the unique interior stationary point of the profit
function, but that point is a saddle. The profit is linear in w0 at fixed
(p, alpha), and without a worker participation constraint the global argmax
over the full contract box is a degenerate corner (near-zero base pay, or a
huge never-paid wage anchor with p = 1 that confiscates the whole wage via the
penalty). grid_search_optimum therefore reports those corners, and no profit
grid search can single the rules out: at the rules' w0 the profit is also
flat along a ridge in (p, alpha). stationary_grid_search instead locates the
rules numerically, as the cell with the smallest profit gradient. The
technology experiments use the stationary rules, which is what the reference
results describe. See stationary_one_period_optimum for the scale-aware rules.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .additive import best_response, dead_corner
from .cobb_douglas import DpGrid, TableEffortPolicy, grid_index, solve_policy
from .distribution import WageDistribution, WagePolicy, profile, propagate
from .model import affine_effort
from .params import ContractParams, FirmParams, Horizon, UtilityFamily, WorkerPrefs


class SolveMethod(enum.Enum):
    ANALYTIC = "analytic"
    GRID_SEARCH = "grid_search"


@dataclass(frozen=True)
class OptimalContract:
    contract: ContractParams
    profit: float
    method: SolveMethod
    flags: tuple[str, ...] = ()
    # unclamped rule values, kept even when they leave the admissible box
    raw_alpha: float | None = None
    raw_p: float | None = None
    raw_w0: float | None = None


# ---------------------------------------------------------------------------
# worker best response and profit


def worker_policy(contract: ContractParams, prefs: WorkerPrefs, horizon: Horizon,
                  firm: FirmParams, cd_grid: DpGrid | None = None):
    """Best-response policy for either utility family under wage scale lam*k."""
    if prefs.family is UtilityFamily.ADDITIVE:
        return best_response(contract, prefs, horizon, firm.wage_scale)
    grid = cd_grid or DpGrid()
    return TableEffortPolicy(solve_policy(contract, prefs, horizon, grid))


def expected_profit(contract: ContractParams, firm: FirmParams, prefs: WorkerPrefs,
                    horizon: Horizon, row=None) -> float:
    """Discounted expected profit: the employer value P_1(w0) of profit_values
    under the worker's best response.

    row = (wages, values) hands in P_1 priced by one profit_values pass at
    the increasing starting wages `wages` under the policy of the contract's
    (p, alpha): a Cobb-Douglas policy's whole wage grid, or an additive
    search's w0 axis. The cell is then values[grid_index(wages, w0)]; a w0
    off those wages raises ValueError. A Cobb-Douglas w0 must lie on the
    policy grid (0.1 steps by default) either way. An additive contract with
    w0 = 0 and p < 1 (the never-evaluated worker consumes nothing) yields
    -inf, row or not.
    """
    if prefs.family is UtilityFamily.ADDITIVE and (contract.w0 <= 0.0 and contract.p < 1.0):
        return -math.inf
    if row is not None:
        wages, values = row
        return float(values[grid_index(wages, contract.w0)])
    policy = worker_policy(contract, prefs, horizon, firm)
    return float(profit_values(policy, contract.p, firm, horizon, [contract.w0])[0])


def profit_values(policy: WagePolicy, p: float, firm: FirmParams, horizon: Horizon,
                  wages) -> np.ndarray:
    """Employer value P_1 at each starting wage, by backward recursion:

        P_{T+1} = 0,
        P_t(w) = pi_t(w) + eta*[(1-p)*P_{t+1}(w) + p*P_{t+1}(x_t(w))],
        pi_t(w) = k*e_t(w) - p*(x_t(w) + bonus_t(w)) - (1-p)*w - p*c.

    A forward pass collects the wages reachable in each period, as exact
    floats with no merging, and keeps each state's period profit and
    successor indices; the backward pass calls the policy no further. Every
    operation is elementwise per state, so a wage's value does not depend on
    the other wages priced with it.
    """
    wages = np.asarray(wages, dtype=float)
    states, periods = np.unique(wages), []
    for t in range(1, horizon.T + 1):
        e = np.asarray(policy.effort(t, states), dtype=float)
        x = np.asarray(policy.next_wage_if_evaluated(t, states), dtype=float)
        comp = x + np.asarray(policy.bonus_if_evaluated(t, states), dtype=float)
        pi = firm.k * e - (p * comp + (1.0 - p) * states + p * firm.c)
        reached = np.union1d(states, x)
        periods.append((pi, np.searchsorted(reached, states), np.searchsorted(reached, x)))
        states = reached
    value = np.zeros(len(states))
    for pi, keep, move in reversed(periods):
        value = pi + firm.eta * ((1.0 - p) * value[keep] + p * value[move])
    return value[np.searchsorted(np.unique(wages), wages)]


def profit_by_history_enumeration(contract: ContractParams, firm: FirmParams,
                                  prefs: WorkerPrefs, horizon: Horizon,
                                  policy=None) -> float:
    """Independent profit computation summing over all 2^T sampling histories.

    Walks the histories level by level like enumerate_histories (final index =
    sampling mask). Each history's discounted profit accumulates period by
    period, and the probability-weighted histories are summed in mask order.
    """
    T = horizon.T
    if T > 20:
        raise ValueError("history enumeration refuses T > 20")
    if policy is None:
        policy = worker_policy(contract, prefs, horizon, firm)
    p = contract.p
    wages = np.array([float(contract.w0)])
    probs = np.array([1.0])
    contrib = np.array([0.0])
    for t in range(1, T + 1):
        e = np.asarray(policy.effort(t, wages), dtype=float)
        nxt = np.asarray(policy.next_wage_if_evaluated(t, wages), dtype=float)
        comp = nxt + np.asarray(policy.bonus_if_evaluated(t, wages), dtype=float)
        scale = firm.eta ** (t - 1)
        cost = p * firm.c
        contrib = np.concatenate([contrib + scale * (firm.k * e - wages - cost),
                                  contrib + scale * (firm.k * e - comp - cost)])
        wages = np.concatenate([wages, nxt])
        probs = np.concatenate([probs * (1.0 - p), probs * p])
    # a left-to-right float sum, as the per-history loop added them (np.sum
    # and Python 3.12's sum() round differently)
    total = 0.0
    for term in (probs * contrib)[probs > 0.0].tolist():
        total += term
    return total


# ---------------------------------------------------------------------------
# one-period optimum rules


def analytic_one_period_optimum(firm: FirmParams) -> OptimalContract:
    """One-period optimum rules for the unit wage scale (lam*k = 1), additive
    worker with b = 1:

        alpha* = sqrt(k*c)/(k-1) - 1
        p*     = 1 - alpha*/(1+alpha*) * k
        w0*    = [(1+alpha*) * p*]^2 / k

    Values outside [0,1]^2 x [0, inf) are flagged, not clamped in the raw
    fields. Raises for k = 1 where the alpha* rule divides by zero, and for
    firms whose wage scale is not 1 (set lam = 1/k).
    """
    k, c = firm.k, firm.c
    if k == 1.0:
        raise ValueError("one-period optimum rules are singular at k = 1")
    if abs(firm.wage_scale - 1.0) > 1e-12:
        raise ValueError("one-period optimum rules assume unit wage scale; set lam = 1/k")
    alpha = math.sqrt(k * c) / (k - 1.0) - 1.0
    p = 1.0 - alpha / (1.0 + alpha) * k
    w0 = ((1.0 + alpha) * p) ** 2 / k
    flags = []
    if not 0.0 <= alpha <= 1.0:
        flags.append("alpha_out_of_range")
    if not 0.0 <= p <= 1.0:
        flags.append("p_out_of_range")
    if w0 < 0.0:
        flags.append("w0_out_of_range")
    contract = ContractParams(min(max(p, 0.0), 1.0), min(max(alpha, 0.0), 1.0),
                              max(w0, 0.0))
    profit = _one_period_profit(contract.p, contract.alpha, contract.w0, firm) \
        if not flags else math.nan
    return OptimalContract(contract=contract, profit=profit, method=SolveMethod.ANALYTIC,
                           flags=tuple(flags), raw_alpha=alpha, raw_p=p, raw_w0=w0)


def stationary_one_period_optimum(firm: FirmParams) -> OptimalContract:
    """Scale-aware one-period stationarity rules under wage scale s = lam*k.

    Interior solution: with m = 1 - sqrt(c/k),
        p*      = m*(1-lam) / (lam*(1-m))
        1+alpha*= 1 / (1 - lam*(1-p*))
        w0*     = k*m^2.
    Reduces exactly to the unit-scale rules when lam*k = 1. When alpha* leaves
    [0, 1] the binding bound is imposed and the remaining two first-order
    conditions re-solved; boundary solutions are flagged.
    """
    k, c, lam = firm.k, firm.c, firm.lam
    s = firm.wage_scale
    if c >= k:
        # inducing any effort costs more than it yields; shut monitoring down
        contract = ContractParams(0.0, 0.0, 0.0)
        return OptimalContract(contract, 0.0, SolveMethod.ANALYTIC, ("no_monitoring",))
    m = 1.0 - math.sqrt(c / k)
    flags: list[str] = []
    if lam >= 1.0:
        # the worker captures the whole marginal product; effort is worthless
        p, alpha, w0 = 0.0, 0.0, 0.0
        flags.append("degenerate_full_share")
    else:
        # free monitoring (c = 0, m = 1) sends p* to +inf
        p = m * (1.0 - lam) / (lam * (1.0 - m)) if m < 1.0 else math.inf
        if p > 1.0:
            flags.append("p_out_of_range")
            p = 1.0
        alpha = 1.0 / (1.0 - lam * (1.0 - p)) - 1.0
        w0 = k * m * m
        if alpha > 1.0:
            # alpha bound binds: p from the w0 condition, w0 from the p condition
            alpha = 1.0
            p = 1.0 - 0.5 / lam
            if p < 0.0:
                flags.append("p_out_of_range")
                p = 0.0
            w0 = 4.0 * s * p - k + c
            flags.append("alpha_at_upper_bound")
    if w0 < 0.0:
        flags.append("w0_out_of_range")
        w0 = 0.0
    contract = ContractParams(p, alpha, w0)
    profit = _one_period_profit(p, alpha, w0, firm)
    return OptimalContract(contract, profit, SolveMethod.ANALYTIC, tuple(flags))


def _one_period_response(p: float, alpha, w0, s: float, b: float = 1.0):
    """One-period additive worker's effort e and evaluated wage x.

    e is the affine rule with phi = 1 and x = max(s(1+alpha)e - alpha*w0, 0).
    Both are 0 when p = 0, and in the dead corner (additive.dead_corner),
    where not even full effort yields a positive evaluated consumption, by
    the rule the multi-period exact policy also follows. alpha and w0
    broadcast against each other; scalar input gives Python floats.
    """
    alpha = np.asarray(alpha, dtype=float)
    w0 = np.asarray(w0, dtype=float)
    if p == 0.0:
        e = x = np.zeros(np.broadcast_shapes(alpha.shape, w0.shape))
    else:
        e = affine_effort(p, alpha, w0, b=b, s=s)
        x = np.maximum(s * (1.0 + alpha) * e - alpha * w0, 0.0)
        dead = dead_corner(alpha, w0, s)
        e = np.where(dead, 0.0, e)
        x = np.where(dead, 0.0, x)
    if e.ndim == 0:
        return float(e), float(x)
    return e, x


def _one_period_profit(p: float, alpha, w0, firm: FirmParams, b: float = 1.0):
    """Exact one-period profit k*e - (p*x + (1-p)*w0 + p*c) under the additive
    worker's response (_one_period_response).

    alpha and w0 broadcast against each other; w0 = 0 with p < 1 gives -inf
    (the never-evaluated worker consumes nothing). Scalar input returns a
    Python float.
    """
    e, x = _one_period_response(p, alpha, w0, firm.wage_scale, b)
    w0 = np.asarray(w0, dtype=float)
    out = firm.k * e - (p * x + (1.0 - p) * w0 + p * firm.c)
    if p < 1.0:
        out = np.where(w0 <= 0.0, -math.inf, out)
    return float(out) if np.ndim(out) == 0 else out


# ---------------------------------------------------------------------------
# grid search


@dataclass(frozen=True)
class GridSteps:
    p_step: float = 0.02
    alpha_step: float = 0.02
    w0_step: float = 0.02
    w0_max: float | None = None  # default lam*k*(1 + alpha_max)


def _w0_max(firm: FirmParams, steps: GridSteps) -> float:
    return steps.w0_max if steps.w0_max is not None else firm.wage_scale * 2.0


def _axis(lo: float, hi: float, step: float) -> np.ndarray:
    n = int(math.floor((hi - lo) / step + 1e-9))
    return np.round(np.linspace(lo, lo + n * step, n + 1), 12)


def grid_search_optimum(firm: FirmParams, prefs: WorkerPrefs, horizon: Horizon,
                        steps: GridSteps = GridSteps(), refine_rounds: int = 2) -> OptimalContract:
    """Argmax of expected_profit over the contract box, ties broken
    lexicographically by (p, alpha, w0) ascending; optional local refinement
    halves the steps around the incumbent.

    One-period additive searches use the exact closed-form profit, one
    (alpha, w0) slab per p: the slab's first maximum is its smallest cell,
    and a later p replaces the incumbent only on a strict improvement. Other
    searches solve one worker policy per (p, alpha) row, because neither
    family's policy reads w0, and price the row with one profit_values pass:
    an additive row at the scan's w0 axis, a Cobb-Douglas row at the policy's
    whole wage grid. They then call expected_profit once per cell, in
    (p, alpha, w0) order, handing it the row. Every w0 a Cobb-Douglas search
    reaches, refinement included, must lie on the 0.1 policy grid, or
    expected_profit raises ValueError and so does the search.

    Raises ValueError when no cell of the box has a finite profit.
    """
    w0_max = _w0_max(firm, steps)
    fast = prefs.family is UtilityFamily.ADDITIVE and horizon.T == 1
    cobb_douglas = prefs.family is UtilityFamily.COBB_DOUGLAS
    grid = DpGrid()

    def scan(p_vals, a_vals, w_vals):
        best = (-math.inf, None)
        w_arr = np.asarray(w_vals, dtype=float)
        if fast:
            a_col = np.asarray(a_vals, dtype=float)[:, None]
            for p in p_vals:
                slab = _one_period_profit(float(p), a_col, w_arr, firm, b=prefs.b)
                # first max in (alpha, w0) order = smallest cell on ties
                i, j = np.unravel_index(int(np.argmax(slab)), slab.shape)
                if slab[i, j] > best[0]:
                    best = (float(slab[i, j]), (float(p), float(a_col[i, 0]), float(w_arr[j])))
            return best
        wages = grid.wages if cobb_douglas else w_arr
        for p in p_vals:
            for a in a_vals:
                policy = worker_policy(ContractParams(float(p), float(a), float(w_arr[0])),
                                       prefs, horizon, firm, grid)
                row = wages, profit_values(policy, float(p), firm, horizon, wages)
                for w in w_vals:
                    contract = ContractParams(float(p), float(a), float(w))
                    pi = expected_profit(contract, firm, prefs, horizon, row)
                    if pi > best[0]:
                        best = (pi, (float(p), float(a), float(w)))
        return best

    p_vals = _axis(0.0, 1.0, steps.p_step)
    a_vals = _axis(0.0, 1.0, steps.alpha_step)
    w_vals = _axis(0.0, w0_max, steps.w0_step)
    best_profit, best_cell = scan(p_vals, a_vals, w_vals)
    if best_cell is None:
        raise ValueError(
            f"no contract in the box p in [0, 1] step {steps.p_step}, alpha in [0, 1] "
            f"step {steps.alpha_step}, w0 in [0, {w0_max}] step {steps.w0_step} "
            f"has a finite profit")

    h = np.array([steps.p_step, steps.alpha_step, steps.w0_step])
    for _ in range(refine_rounds):
        h = h / 2.0
        p0, a0, w0 = best_cell
        p_vals = np.clip(p0 + h[0] * np.arange(-3, 4), 0.0, 1.0)
        a_vals = np.clip(a0 + h[1] * np.arange(-3, 4), 0.0, 1.0)
        w_vals = np.clip(w0 + h[2] * np.arange(-3, 4), 0.0, w0_max)
        profit, cell = scan(np.unique(p_vals), np.unique(a_vals), np.unique(w_vals))
        if profit > best_profit:
            best_profit, best_cell = profit, cell

    p, a, w = best_cell
    flags = []
    for name, val, lo, hi in (("p", p, 0.0, 1.0), ("alpha", a, 0.0, 1.0),
                              ("w0", w, 0.0, w0_max)):
        if val in (lo, hi):
            flags.append(f"{name}_at_bound")
    return OptimalContract(ContractParams(p, a, w), best_profit,
                           SolveMethod.GRID_SEARCH, tuple(flags))


_STATIONARY_STEP = 0.02  # starting step on every axis of the stationary search
_STATIONARY_REFINE_ROUNDS = 6


def stationary_grid_search(firm: FirmParams) -> ContractParams:
    """Cell of the one-period contract box (additive worker, b = 1) where the
    exact profit is closest to stationary: the smallest central-difference
    gradient norm (spacing h = 1e-6) of _one_period_profit, scanned at 0.02
    steps and refined by halving the steps around the incumbent six times.

    The profit has no interior maximum (see the module docstring), so this is
    how a numerical search, independent of the closed forms, locates the
    one-period rules. Cells within h of the box boundary are skipped: their
    differences would leave the box, and w0 = 0 has -inf profit. Ties go to
    the smallest (p, alpha, w0).
    """
    h = 1e-6
    hi = np.array([1.0, 1.0, _w0_max(firm, GridSteps())])

    def inside(vals, dim):
        vals = np.unique(vals)
        return vals[(vals > h) & (vals < hi[dim] - h)]

    def profit(p, a, w):
        return _one_period_profit(p, a, w, firm)

    def scan(p_vals, a_vals, w_vals):
        best = (math.inf, None)
        a, w = a_vals[:, None], w_vals
        for p in p_vals.tolist():
            grad_sq = ((profit(p + h, a, w) - profit(p - h, a, w)) ** 2
                       + (profit(p, a + h, w) - profit(p, a - h, w)) ** 2
                       + (profit(p, a, w + h) - profit(p, a, w - h)) ** 2)
            i, j = np.unravel_index(int(np.argmin(grad_sq)), grad_sq.shape)
            if grad_sq[i, j] < best[0]:
                best = (float(grad_sq[i, j]), (p, float(a_vals[i]), float(w_vals[j])))
        return best

    step = _STATIONARY_STEP
    best_grad, best_cell = scan(*(inside(_axis(0.0, hi[d], step), d) for d in range(3)))
    for _ in range(_STATIONARY_REFINE_ROUNDS):
        step = step / 2.0
        grad, cell = scan(*(inside(best_cell[d] + step * np.arange(-3, 4), d)
                            for d in range(3)))
        if grad < best_grad:
            best_grad, best_cell = grad, cell
    return ContractParams(*best_cell)


# ---------------------------------------------------------------------------
# technology experiments


@dataclass(frozen=True)
class SweepRow:
    k: float
    contract: ContractParams
    profit: float
    flags: tuple[str, ...]
    effort: float
    wage_mean: float
    wage_variance: float
    std_over_mean: float


def tech_sweep(k_values, firm_template: FirmParams, prefs: WorkerPrefs | None = None,
               horizon: Horizon = Horizon(1)) -> list[SweepRow]:
    """One-period optimum outcomes across marginal products k.

    Contracts come from the stationary rules under wage scale lam*k; worker
    outcomes are the implied two-point wage distribution.
    """
    rows = []
    for k in k_values:
        firm = FirmParams(k=float(k), lam=firm_template.lam, c=firm_template.c,
                          eta=firm_template.eta)
        opt = stationary_one_period_optimum(firm)
        p, a, w0 = opt.contract.p, opt.contract.alpha, opt.contract.w0
        e, x = _one_period_response(p, a, w0, firm.wage_scale)
        mean = p * x + (1.0 - p) * w0
        var = p * (1.0 - p) * (x - w0) ** 2
        rows.append(SweepRow(k=float(k), contract=opt.contract, profit=opt.profit,
                             flags=opt.flags, effort=e, wage_mean=mean,
                             wage_variance=var,
                             std_over_mean=math.sqrt(var) / mean if mean > 0 else math.nan))
    return rows


@dataclass(frozen=True)
class TechShockReport:
    firm_before: FirmParams
    firm_after: FirmParams
    contract_before: ContractParams
    contract_after: ContractParams
    profile_before: "ProfileDetail"
    profile_after: "ProfileDetail"
    turnover: list[bool]  # per period: incumbent costs more than a fresh hire


@dataclass(frozen=True)
class ProfileDetail:
    mean: np.ndarray
    variance: np.ndarray
    expected_output: np.ndarray
    employment_cost: np.ndarray  # wage expectancy minus expected marginal output


def _contract_profile(contract: ContractParams, firm: FirmParams, prefs: WorkerPrefs,
                      horizon: Horizon) -> ProfileDetail:
    policy = worker_policy(contract, prefs, horizon, firm)
    dists = propagate(policy, contract, horizon)
    # period t's output is read off the distribution entering period t
    entering = [WageDistribution.point_mass(contract.w0)] + dists[:-1]
    outputs = np.array([firm.k * float(np.dot(policy.effort(t, d.support), d.probs))
                        for t, d in enumerate(entering, 1)])
    series = profile(dists)
    return ProfileDetail(series.mean, series.variance, outputs, series.mean - outputs)


def tech_shock(firm_before: FirmParams, firm_after: FirmParams, prefs: WorkerPrefs,
               horizon: Horizon) -> TechShockReport:
    """Before/after profiles under the stationary optimal contracts.

    The turnover indicator marks periods where an incumbent under the new
    technology costs more (wage expectancy minus expected output) than a fresh
    period-1 worker, with zero training cost.
    """
    if not firm_after.k > firm_before.k:
        raise ValueError("the shock must raise k")
    c_before = stationary_one_period_optimum(firm_before).contract
    c_after = stationary_one_period_optimum(firm_after).contract
    prof_before = _contract_profile(c_before, firm_before, prefs, horizon)
    prof_after = _contract_profile(c_after, firm_after, prefs, horizon)
    fresh_cost = prof_after.employment_cost[0]
    turnover = [bool(cost > fresh_cost + 1e-12) for cost in prof_after.employment_cost]
    return TechShockReport(firm_before, firm_after, c_before, c_after,
                           prof_before, prof_after, turnover)
