"""Employer-side optimization: profit evaluation, the one-period optimum rules,
one box search for every grid search, and technology experiments.

Profit per period is expected output k*E(e_t) minus expected compensation and
monitoring cost p*c, discounted by eta. Compensation is the worker's total
compensation: the wage alone under the additive scheme, wage plus nonrecurrent
bonus under the Cobb-Douglas scheme.

The worker's best response (worker_policy) depends on (p, alpha) alone in
both families, so a multi-period grid search prices whole p slabs (all
their alpha rows) together, in bounded passes: a pass solves its workers
once, the Cobb-Douglas rows in one backward induction
(cobb_douglas.solve_policies), the additive rows in one array solve
(additive.best_responses), and slab_profit_values prices the starting wages
of all the pass's rows in one recursion, over (row, wage) pairs: the dense
array of them on the Cobb-Douglas policy grid.
The additive response is additive.best_response, the one-row case of
best_responses, exact in every regime: the phi recursion while no evaluated
wage clamps, otherwise the envelope recursion; no wage grid is solved.

A structural warning, verified numerically and by hand: the one-period rules
(alpha*, p*, w0*) are the unique interior stationary point of the profit
function, but that point is a saddle. The profit is linear in w0 at fixed
(p, alpha), and without a worker participation constraint the global argmax
over the full contract box is a degenerate corner (near-zero base pay, or a
huge never-paid wage anchor with p = 1 that confiscates the whole wage via the
penalty). grid_search_optimum therefore reports those corners, and no profit
grid search can single the rules out: at the rules' w0 the profit is also
flat along a ridge in (p, alpha). stationary_grid_search instead locates the
rules numerically, as the cell with the smallest profit gradient.

stationary_one_period_optimum is the one solver of the rules, at every wage
scale lam*k; it keeps their unclamped values beside the admissible contract.
The technology experiments and the employer-optimum run use it, and
criterion 7 checks it against the paper's printed unit-scale forms.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .additive import best_response, best_responses
from .cobb_douglas import (DpGrid, TableEffortPolicy, grid_index, solve_policies,
                           solve_policy)
from .distribution import (ProfileSeries, WageDistribution, profile, propagate,
                           require_enumerable, responder)
from .model import affine_response, zero_base_consumption
from .params import (ContractParams, FirmParams, Horizon, UtilityFamily, WorkerPrefs,
                     require_family)


@dataclass(frozen=True)
class OptimalContract:
    contract: ContractParams
    profit: float
    flags: tuple[str, ...] = ()
    # unclamped rule values, kept even when they leave the admissible box
    raw_alpha: float | None = None
    raw_p: float | None = None
    raw_w0: float | None = None


# ---------------------------------------------------------------------------
# worker best response and profit


def worker_policy(contract: ContractParams, prefs: WorkerPrefs, horizon: Horizon,
                  firm: FirmParams):
    """Best-response policy for either utility family under wage scale lam*k;
    a Cobb-Douglas worker solves on the default DpGrid."""
    if prefs.family is UtilityFamily.ADDITIVE:
        return best_response(contract, prefs, horizon, firm.wage_scale)
    return TableEffortPolicy(solve_policy(contract, prefs, horizon, DpGrid()))


def _row_policies(contracts, prefs: WorkerPrefs, horizon: Horizon, firm: FirmParams,
                  cd_grid: DpGrid) -> list:
    """worker_policy for each of a search pass's contracts, all in one solve:
    solve_policies for Cobb-Douglas rows, best_responses for additive rows."""
    if prefs.family is UtilityFamily.COBB_DOUGLAS:
        return [TableEffortPolicy(policy)
                for policy in solve_policies(contracts, prefs, horizon, cd_grid)]
    return best_responses(contracts, prefs, horizon, firm.wage_scale)


def expected_profit(contract: ContractParams, firm: FirmParams, prefs: WorkerPrefs,
                    horizon: Horizon, value=None) -> float:
    """Discounted expected profit: the employer value P_1(w0) of
    slab_profit_values under the worker's best response.

    value hands in P_1(w0) already priced by slab_profit_values under the
    policy of the contract's (p, alpha); the call then returns it as a float.
    Without it, the call solves the worker and prices w0, which for a
    Cobb-Douglas contract must lie on the default 0.1 policy grid. An
    additive contract with w0 = 0 and p < 1 (the never-evaluated worker
    consumes nothing) yields -inf, value or not.
    """
    if (prefs.family is UtilityFamily.ADDITIVE
            and zero_base_consumption(contract.p, contract.w0)):
        return -math.inf
    if value is not None:
        return float(value)
    policy = worker_policy(contract, prefs, horizon, firm)
    return float(slab_profit_values([policy], contract.p, firm, horizon,
                                    [contract.w0])[0, 0])


def slab_profit_values(policies, p, firm: FirmParams, horizon: Horizon,
                       wages) -> np.ndarray:
    """Employer value P_1 under each policy (rows) at each starting wage
    (columns), for policies of one type, by backward recursion:

        P_{T+1} = 0,
        P_t(w) = pi_t(w) + eta*[(1-p)*P_{t+1}(w) + p*P_{t+1}(x_t(w))],
        pi_t(w) = k*e_t(w) - p*(x_t(w) + bonus_t(w)) - (1-p)*w - p*c.

    p is each row's evaluation rate (a scalar is every row's). The policies
    answer each period in one call, through the one response their type
    defines (AffinePolicy.stack, TableEffortPolicy.stack), of which a single
    policy (distribution.responder) is the one-row case. A
    type with a closed state grid (TableEffortPolicy.state_grid: every wage
    an evaluation can set) is priced over the dense (row, wage) array of the
    starting wages and that grid, each evaluated pair moving to its x's
    column; an x that is not exactly a point of that array (a hand-built
    table off the effort grid) raises ValueError. Without one (AffinePolicy),
    a forward pass collects the (row, wage) pairs reachable in each period,
    as exact floats with no merging.
    Either way each period keeps every pair's period profit and successor
    indices, and one backward pass calls the policies no further. Every
    operation is elementwise per pair, so a value does not depend on the
    other rows, rates and wages priced with it, nor on the pairs priced
    beside the reachable ones.
    """
    wages = np.asarray(wages, dtype=float)
    policy_type = type(policies[0])
    respond = policy_type.stack(policies)
    state_grid = getattr(policy_type, "state_grid", None)
    n = len(policies)
    rate = np.broadcast_to(np.asarray(p, dtype=float), (n,))
    if state_grid is None:
        start = np.unique(wages)
        rows, states = np.repeat(np.arange(n), len(start)), np.tile(start, n)
    else:
        # the (row, wage) array, by broadcasting
        start = np.union1d(wages, state_grid(policies))
        rows, states = np.arange(n)[:, None], start[None, :]
    periods = []
    for t in range(1, horizon.T + 1):
        e, x, bonus = respond(t, rows, states)
        p = rate[rows]
        pi = firm.k * e - (p * (x + bonus) + (1.0 - p) * states + p * firm.c)
        if state_grid is not None:
            # every pair keeps its column; an evaluation moves to x's column,
            # which must hold x itself
            move = start.searchsorted(x)
            off = start.take(move, mode="clip") != x
            if off.any():
                raise ValueError(f"evaluated wage {float(x[off][0])!r} is not a point "
                                 "of the policies' state grid")
            periods.append((pi, p, slice(None), (rows, move)))
            continue
        # the reached pairs: the kept and the evaluated ones, sorted by (row,
        # wage) and de-duplicated
        pair_rows, pair_wages = np.concatenate([rows, rows]), np.concatenate([states, x])
        order = np.lexsort((pair_wages, pair_rows))
        pair_rows, pair_wages = pair_rows[order], pair_wages[order]
        new = np.ones(len(order), dtype=bool)
        new[1:] = (pair_rows[1:] != pair_rows[:-1]) | (pair_wages[1:] != pair_wages[:-1])
        reached = np.empty(len(order), dtype=np.intp)
        reached[order] = np.cumsum(new) - 1
        periods.append((pi, p, reached[:len(rows)], reached[len(rows):]))
        rows, states = pair_rows[new], pair_wages[new]
    value = np.zeros(np.broadcast(rows, states).shape)
    for pi, p, keep, move in reversed(periods):
        value = pi + firm.eta * ((1.0 - p) * value[keep] + p * value[move])
    return value.reshape(n, len(start))[:, np.searchsorted(start, wages)]


def profit_by_history_enumeration(contract: ContractParams, firm: FirmParams,
                                  prefs: WorkerPrefs, horizon: Horizon,
                                  policy=None) -> float:
    """Independent profit computation summing over all 2^T sampling histories.

    Walks the histories level by level like enumerate_histories (final index =
    sampling mask). Each history's discounted profit accumulates period by
    period, and the probability-weighted histories are summed in mask order.
    """
    require_enumerable(horizon)
    T = horizon.T
    if policy is None:
        policy = worker_policy(contract, prefs, horizon, firm)
    respond = responder(policy)
    p = contract.p
    wages = np.array([float(contract.w0)])
    probs = np.array([1.0])
    contrib = np.array([0.0])
    for t in range(1, T + 1):
        e, nxt, bonus = respond(t, wages)
        comp = nxt + bonus
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


def require_rules_worker(prefs: WorkerPrefs | None, user: str) -> None:
    """The one check of the worker the one-period rules serve, the additive
    worker with b = 1: raise ValueError, naming `user` and prefs.family or
    prefs.b, for any other. No prefs passes."""
    if prefs is not None:
        require_family(prefs, UtilityFamily.ADDITIVE, f"{user}'s stationary rules")
        if prefs.b != 1.0:
            raise ValueError(f"prefs.b: {user}'s stationary rules assume the additive "
                             f"worker with b = 1, got the additive worker with "
                             f"b = {prefs.b}")


def stationary_one_period_optimum(firm: FirmParams) -> OptimalContract:
    """The one-period optimum rules of an additive worker with b = 1 under
    wage scale s = lam*k: the package's one solver for them.

    Interior solution: with m = 1 - sqrt(c/k),
        p*      = m*(1-lam) / (lam*(1-m))
        1+alpha*= 1 / (1 - lam*(1-p*))
        w0*     = k*m^2,
    the paper's unit-scale rules when lam*k = 1. raw_p, raw_alpha and raw_w0
    keep these values before any bound is imposed (free monitoring, c = 0,
    sends p* to +inf). A p* above 1 is set to 1 and alpha* re-evaluated there;
    when alpha* exceeds 1 the bound is imposed and the remaining two
    first-order conditions re-solved; a w0* below 0 is set to 0. Each imposed
    bound is flagged. No interior formula is evaluated when c >= k
    (no_monitoring) or lam = 1 (degenerate_full_share); the contract is then
    (0, 0, 0), the raw values equal it, and the profit is 0: no effort is
    bought and nothing is paid (_one_period_profit would price the zero base
    wage at -inf).
    """
    k, c, lam = firm.k, firm.c, firm.lam
    s = firm.wage_scale
    if c >= k or lam >= 1.0:
        # c >= k: inducing any effort costs more than it yields, so monitoring
        # shuts down; lam >= 1: the worker captures the whole marginal
        # product, so effort is worthless. Neither pays or earns anything.
        flag = "no_monitoring" if c >= k else "degenerate_full_share"
        return OptimalContract(ContractParams(0.0, 0.0, 0.0), 0.0, (flag,),
                               raw_alpha=0.0, raw_p=0.0, raw_w0=0.0)
    m = 1.0 - math.sqrt(c / k)
    flags: list[str] = []

    def alpha_at(p: float) -> float:
        return 1.0 / (1.0 - lam * (1.0 - p)) - 1.0

    p = m * (1.0 - lam) / (lam * (1.0 - m)) if m < 1.0 else math.inf
    w0 = k * m * m
    raw = (alpha_at(p), p, w0)
    if p > 1.0:
        flags.append("p_out_of_range")
        p = 1.0
    alpha = alpha_at(p)
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
    profit = _one_period_profit(p, alpha, w0, firm)
    return OptimalContract(ContractParams(p, alpha, w0), profit, tuple(flags), *raw)


def _one_period_profit(p: float, alpha, w0, firm: FirmParams, b: float = 1.0):
    """Exact one-period profit k*e - (p*x + (1-p)*w0 + p*c) under the additive
    worker's one-period response, model.affine_response with phi = 1.

    alpha and w0 broadcast against each other; w0 = 0 with p < 1 gives -inf
    (the never-evaluated worker consumes nothing). Scalar input returns a
    Python float.
    """
    e, x = affine_response(p, alpha, w0, 1.0, b, firm.wage_scale)
    w0 = np.asarray(w0, dtype=float)
    out = firm.k * e - (p * x + (1.0 - p) * w0 + p * firm.c)
    out = np.where(zero_base_consumption(p, w0), -math.inf, out)
    return float(out) if np.ndim(out) == 0 else out


def _profit_differences(p, alpha, w0, firm: FirmParams, h: float):
    """Central differences f(x + h) - f(x - h) of _one_period_profit along p,
    alpha and w0 at (p, alpha, w0), broadcast over the arguments; divide by
    2h for the gradient."""
    f = _one_period_profit
    return (f(p + h, alpha, w0, firm) - f(p - h, alpha, w0, firm),
            f(p, alpha + h, w0, firm) - f(p, alpha - h, w0, firm),
            f(p, alpha, w0 + h, firm) - f(p, alpha, w0 - h, firm))


# ---------------------------------------------------------------------------
# grid search


@dataclass(frozen=True)
class GridSteps:
    """Coarse steps of a contract search box; construction raises ValueError
    naming the field unless every step and w0_max, when given, is finite and
    positive."""

    p_step: float = 0.02
    alpha_step: float = 0.02
    w0_step: float = 0.02
    w0_max: float | None = None  # default lam*k*(1 + alpha_max)

    def __post_init__(self) -> None:
        for name in ("p_step", "alpha_step", "w0_step", "w0_max"):
            value = getattr(self, name)
            if value is not None and not 0.0 < value < math.inf:
                raise ValueError(f"GridSteps.{name}: must be finite and > 0, got {value}")


def _w0_max(firm: FirmParams, steps: GridSteps) -> float:
    return steps.w0_max if steps.w0_max is not None else firm.wage_scale * 2.0


def _axis(lo: float, hi: float, step: float) -> np.ndarray:
    n = int(math.floor((hi - lo) / step + 1e-9))
    return np.round(np.linspace(lo, lo + n * step, n + 1), 12)


def _box_search(scorer, axes, h, rounds, admit):
    """(score, cell) of the best (p, alpha, w0) cell of a box: the one box
    search of every employer search. scorer(p_vals, a_vals, w_vals) yields
    one (alpha, w0) score array per p slab, in p order; a slab's first
    argmax, the smallest cell on ties, replaces the best cell only on a
    strict improvement. The coarse scan runs over axes; each of the `rounds`
    refinements halves the steps h and scans
    admit(best[d] + h[d] * arange(-3, 4), d) on each axis d. A scan with an
    empty alpha or w0 axis is skipped. Returns (-inf, None) when no coarse
    cell beats -inf.
    """
    def scan(p_vals, a_vals, w_vals):
        best = (-math.inf, None)
        if not (len(a_vals) and len(w_vals)):
            return best
        for p, values in zip(p_vals.tolist(), scorer(p_vals, a_vals, w_vals)):
            i, j = np.unravel_index(int(np.argmax(values)), values.shape)
            if values[i, j] > best[0]:
                best = (float(values[i, j]), (p, float(a_vals[i]), float(w_vals[j])))
        return best

    best = scan(*axes)
    if best[1] is None:
        return best
    for _ in range(rounds):
        h = h / 2.0
        found = scan(*(admit(best[1][d] + h[d] * np.arange(-3, 4), d) for d in range(3)))
        if found[0] > best[0]:
            best = found
    return best


def _slab_by_slab(slab):
    """The scorer that scores each p slab in its own slab(p, a_vals, w_vals)
    call: the one-period searches' scorer."""
    return lambda p_vals, a_vals, w_vals: (slab(p, a_vals, w_vals) for p in p_vals.tolist())


# starting (row, wage) pairs one pass of a multi-period search prices at most,
# unless a single p slab holds more. A default-step additive slab (51 alpha
# rows x 101 to 121 w0 at wage scales 1 to 1.2) stays a pass of its own: three
# such slabs per pass took a T = 5 search on criterion 7's firm from 34 to
# 41 MB peak RSS, and were slower.
_PASS_PAIRS = 2 ** 13


def _priced_slabs(p_vals, a_vals, w_vals, firm: FirmParams, prefs: WorkerPrefs,
                  horizon: Horizon, grid: DpGrid):
    """The multi-period searches' scorer: yields the expected_profit array of
    each p slab, in p order, pricing whole p slabs together in passes of at
    most _PASS_PAIRS starting (row, wage) pairs (at least one slab).

    A pass solves the workers of all its (p, alpha) rows in one call, because
    neither family's policy reads w0: Cobb-Douglas rows in solve_policies on
    `grid`, additive rows in best_responses, which runs the envelope
    recursion for the clamped rows alone. One slab_profit_values recursion
    then prices every row: additive rows at the scan's w0 axis by reachable
    pairs, Cobb-Douglas rows over the dense array of the policy's whole wage
    grid, of which one lookup per scan (grid_index) picks the w0 axis's
    columns. Each cell is then one expected_profit call, in (p, alpha, w0)
    order, handed its priced value. A Cobb-Douglas w0 axis off the policy
    grid raises ValueError before any solve.
    """
    cobb_douglas = prefs.family is UtilityFamily.COBB_DOUGLAS
    wages = grid.wages if cobb_douglas else w_vals
    # an off-grid w0 raises here, before any pass array exists
    cols = grid_index(wages, w_vals) if cobb_douglas else slice(None)
    a_list, w_list = a_vals.tolist(), w_vals.tolist()
    per_pass = max(1, _PASS_PAIRS // (len(a_list) * len(wages)))
    for first in range(0, len(p_vals), per_pass):
        p_pass = p_vals[first:first + per_pass]
        values = slab_profit_values(
            _row_policies([ContractParams(p, a, w_list[0])
                           for p in p_pass.tolist() for a in a_list],
                          prefs, horizon, firm, grid),
            np.repeat(p_pass, len(a_list)), firm, horizon, wages)[:, cols]
        for p, slab in zip(p_pass.tolist(), values.reshape(len(p_pass), len(a_list), -1)):
            yield np.array([[expected_profit(ContractParams(p, a, w), firm, prefs, horizon, v)
                             for w, v in zip(w_list, row)]
                            for a, row in zip(a_list, slab.tolist())])


def grid_search_optimum(firm: FirmParams, prefs: WorkerPrefs, horizon: Horizon,
                        steps: GridSteps = GridSteps(), refine_rounds: int = 2,
                        cd_grid: DpGrid | None = None) -> OptimalContract:
    """Argmax of expected_profit over the contract box by the one box search
    (_box_search), ties broken lexicographically by (p, alpha, w0) ascending;
    optional local refinement halves the steps around the incumbent. Every
    axis, coarse or refined, is rounded to 12 decimals (_axis), so a
    refinement reaches 0.6 rather than 0.6000000000000001, and each cell is
    priced at the w0 it reports.

    One-period additive searches score each p slab with the exact
    closed-form profit. Other searches price whole p slabs together
    (_priced_slabs): one worker solve and one slab_profit_values recursion
    per pass, then one expected_profit call per cell, in (p, alpha, w0)
    order, handed the cell's priced value. A Cobb-Douglas worker solves on
    cd_grid (DpGrid() by default), and every w0 its search reaches,
    refinement included, must lie on that grid's wages, or the search raises
    ValueError before it solves the first pass of the scan holding that w0.

    Raises ValueError when no cell of the box has a finite profit.
    """
    w0_max = _w0_max(firm, steps)
    if prefs.family is UtilityFamily.ADDITIVE and horizon.T == 1:
        scorer = _slab_by_slab(lambda p, a_vals, w_vals: _one_period_profit(
            p, a_vals[:, None], w_vals, firm, b=prefs.b))
    else:
        grid = cd_grid or DpGrid()

        def scorer(p_vals, a_vals, w_vals):
            return _priced_slabs(p_vals, a_vals, w_vals, firm, prefs, horizon, grid)

    hi = (1.0, 1.0, w0_max)
    best_profit, best_cell = _box_search(
        scorer, [_axis(0.0, 1.0, steps.p_step), _axis(0.0, 1.0, steps.alpha_step),
                 _axis(0.0, w0_max, steps.w0_step)],
        np.array([steps.p_step, steps.alpha_step, steps.w0_step]), refine_rounds,
        lambda vals, d: np.unique(np.clip(np.round(vals, 12), 0.0, hi[d])))
    if best_cell is None:
        raise ValueError(
            f"no contract in the box p in [0, 1] step {steps.p_step}, alpha in [0, 1] "
            f"step {steps.alpha_step}, w0 in [0, {w0_max}] step {steps.w0_step} "
            f"has a finite profit")
    flags = tuple(f"{name}_at_bound" for name, val, top in
                  zip(("p", "alpha", "w0"), best_cell, hi) if val in (0.0, top))
    return OptimalContract(ContractParams(*best_cell), best_profit, flags)


_STATIONARY_STEP = 0.02  # starting step on every axis of the stationary search
_STATIONARY_REFINE_ROUNDS = 6


def stationary_grid_search(firm: FirmParams) -> ContractParams:
    """Cell of the one-period contract box (additive worker, b = 1) where the
    exact profit is closest to stationary: the one box search (_box_search)
    for the smallest central-difference gradient norm (spacing h = 1e-6) of
    _one_period_profit, scanned at 0.02 steps and refined by halving the
    steps around the incumbent six times.

    The profit has no interior maximum (see the module docstring), so this is
    how a numerical search, independent of the closed forms, locates the
    one-period rules. Cells within h of the box boundary are skipped: their
    differences would leave the box, and w0 = 0 has -inf profit. Ties go to
    the smallest (p, alpha, w0). Raises ValueError naming the box when no
    coarse cell is left, as at wage scales lam*k <= 0.01.
    """
    h = 1e-6
    hi = (1.0, 1.0, _w0_max(firm, GridSteps()))

    def inside(vals, dim):
        vals = np.unique(vals)
        return vals[(vals > h) & (vals < hi[dim] - h)]

    def slab(p, a_vals, w_vals):
        dp, da, dw = _profit_differences(p, a_vals[:, None], w_vals, firm, h)
        return -(dp ** 2 + da ** 2 + dw ** 2)

    axes = [inside(_axis(0.0, hi[d], _STATIONARY_STEP), d) for d in range(3)]
    _, cell = _box_search(_slab_by_slab(slab), axes, np.full(3, _STATIONARY_STEP),
                          _STATIONARY_REFINE_ROUNDS, inside)
    if cell is None:
        raise ValueError(
            f"no cell of the box p in [0, 1], alpha in [0, 1], w0 in [0, {hi[2]}] "
            f"step {_STATIONARY_STEP} lies more than {h} inside it")
    return ContractParams(*cell)


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


def tech_sweep(k_values, firm_template: FirmParams) -> list[SweepRow]:
    """One-period optimum outcomes across marginal products k.

    Contracts come from the stationary rules under wage scale lam*k, which
    assume an additive worker with b = 1; worker outcomes are that worker's
    one-period response and the implied two-point wage distribution.
    """
    rows = []
    for k in k_values:
        firm = replace(firm_template, k=float(k))
        opt = stationary_one_period_optimum(firm)
        p, a, w0 = opt.contract.p, opt.contract.alpha, opt.contract.w0
        e, x = map(float, affine_response(p, a, w0, 1.0, 1.0, firm.wage_scale))
        mean = p * x + (1.0 - p) * w0
        var = p * (1.0 - p) * (x - w0) ** 2
        rows.append(SweepRow(k=float(k), contract=opt.contract, profit=opt.profit,
                             flags=opt.flags, effort=e, wage_mean=mean,
                             wage_variance=var,
                             std_over_mean=math.sqrt(var) / mean if mean > 0 else math.nan))
    return rows


@dataclass(frozen=True)
class TechShockReport:
    contract_before: ContractParams
    contract_after: ContractParams
    profile_before: ProfileSeries
    profile_after: ProfileSeries
    cost_before: np.ndarray  # per period: wage expectancy minus expected output
    cost_after: np.ndarray
    turnover: list[bool]  # per period: incumbent costs more than a fresh hire


def _contract_profile(contract: ContractParams, firm: FirmParams, prefs: WorkerPrefs,
                      horizon: Horizon) -> tuple[ProfileSeries, np.ndarray]:
    """The wage profile under contract and its per-period employment cost."""
    policy = worker_policy(contract, prefs, horizon, firm)
    dists = propagate(policy, contract, horizon)
    respond = responder(policy)
    # period t's output is read off the distribution entering period t
    entering = [WageDistribution.point_mass(contract.w0)] + dists[:-1]
    outputs = np.array([firm.k * float(np.dot(respond(t, d.support)[0], d.probs))
                        for t, d in enumerate(entering, 1)])
    series = profile(dists)
    return series, series.mean - outputs


def tech_shock(firm_before: FirmParams, firm_after: FirmParams, prefs: WorkerPrefs,
               horizon: Horizon) -> TechShockReport:
    """Before/after profiles under the stationary optimal contracts.

    The turnover indicator marks periods where an incumbent under the new
    technology costs more (wage expectancy minus expected output) than a fresh
    period-1 worker, with zero training cost. Before pricing anything, raises
    ValueError unless k rises and require_rules_worker passes prefs.
    """
    if not firm_after.k > firm_before.k:
        raise ValueError("the shock must raise k")
    require_rules_worker(prefs, "tech-shock")
    c_before = stationary_one_period_optimum(firm_before).contract
    c_after = stationary_one_period_optimum(firm_after).contract
    prof_before, cost_before = _contract_profile(c_before, firm_before, prefs, horizon)
    prof_after, cost_after = _contract_profile(c_after, firm_after, prefs, horizon)
    turnover = [bool(cost > cost_after[0] + 1e-12) for cost in cost_after]
    return TechShockReport(c_before, c_after, prof_before, prof_after,
                           cost_before, cost_after, turnover)
