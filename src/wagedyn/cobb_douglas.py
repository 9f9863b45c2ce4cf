"""Grid-based backward induction for the Cobb-Douglas worker.

Compensation scheme: an evaluation resets the wage state to the current
effort, and pays a nonrecurrent bonus alpha*(e - w_prev) that enters
consumption only. Within an evaluated period the worker consumes the wage in
force before the evaluation plus the bonus; the reset wage is consumed from
the next period on. This timing is what the reference policy tables encode:
it makes final-period effort worthless at positive wages (the whole terminal
column collapses to zero) while a zero-wage worker still works for the bonus.

The effort grid must live on the wage grid so the state space stays closed
without interpolation.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .params import (ContractParams, Horizon, UtilityFamily, WorkerPrefs,
                     require_family)


@dataclass(frozen=True)
class DpGrid:
    """Wage grid 0, wage_step, ..., wage_max and effort grid 0, effort_step,
    ..., 1. An evaluation resets the wage to the effort, so construction
    raises ValueError unless every effort is a wage-grid point (effort_step a
    multiple of wage_step, wage_max >= 1)."""

    wage_step: float = 0.1
    effort_step: float = 0.1
    wage_max: float = 1.0

    def __post_init__(self) -> None:
        if self.wage_step <= 0.0 or self.effort_step <= 0.0:
            raise ValueError("grid steps must be positive")
        n_w = self.wage_max / self.wage_step
        if abs(n_w - round(n_w)) > 1e-9:
            raise ValueError("wage_step must divide wage_max evenly")
        n_e = 1.0 / self.effort_step
        if abs(n_e - round(n_e)) > 1e-9:
            raise ValueError("effort_step must divide 1 evenly")
        try:
            self.index(self.efforts)
        except ValueError:
            raise ValueError("every effort must be a wage-grid point: effort_step a "
                             "multiple of wage_step and wage_max >= 1") from None

    @functools.cached_property
    def wages(self) -> np.ndarray:
        n = int(round(self.wage_max / self.wage_step))
        return _read_only(np.round(np.linspace(0.0, self.wage_max, n + 1), 12))

    @functools.cached_property
    def efforts(self) -> np.ndarray:
        n = int(round(1.0 / self.effort_step))
        return _read_only(np.round(np.linspace(0.0, 1.0, n + 1), 12))

    def index(self, wages) -> np.ndarray:
        """Wage-grid indices of wages (any shape), by grid_index."""
        return grid_index(self.wages, wages, f"the policy grid (step {self.wage_step})")


def grid_index(points: np.ndarray, wages, grid: str = "the policy grid") -> np.ndarray:
    """Indices of wages (any shape) in the increasing array points: each
    wage's nearest point, the lower one on a tie. A wage more than 1e-9 from
    every point raises ValueError naming the first such wage and the grid.

    The one wage-to-index lookup: DpGrid.index and the multi-period employer
    search (employer._priced_slabs, once per Cobb-Douglas scan, to pick the
    scan's w0 columns of the priced wage grid) both use it.
    """
    w = np.asarray(wages, dtype=float)
    # the midpoints split the line into each point's nearest region
    idx = (0.5 * (points[:-1] + points[1:])).searchsorted(w)
    on = np.abs(w - points.take(idx)) <= 1e-9  # NaN is on no grid
    if not on.all():
        raise ValueError(f"wage {float(w[~on].flat[0])!r} is not on {grid}")
    return idx


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class EffortPolicy:
    """Optimal effort table and value function on the joint grid.

    table[t-1, i] is the period-t effort at previous wage wages[i]; value has
    the same layout.
    """

    contract: ContractParams
    prefs: WorkerPrefs
    horizon: Horizon
    grid: DpGrid
    table: np.ndarray
    value: np.ndarray


def solve_policy(contract: ContractParams, prefs: WorkerPrefs, horizon: Horizon,
                 grid: DpGrid | None = None) -> EffortPolicy:
    """Backward induction over the wage grid: the one-row case of
    solve_policies."""
    return solve_policies([contract], prefs, horizon, grid)[0]


def solve_policies(contracts, prefs: WorkerPrefs, horizon: Horizon,
                   grid: DpGrid | None = None) -> list[EffortPolicy]:
    """One EffortPolicy per contract, by one backward induction over (row,
    effort, wage) arrays:

    V_t(w) = max_e (1-e)^gamma * [p*c_eval^beta + (1-p)*w^beta]
             + delta * [p*V_{t+1}(e) + (1-p)*V_{t+1}(w)],
    c_eval = max(w + alpha*(e - w), 0), terminal continuation 0, with each
    row's own p and alpha. Argmax ties break toward the smaller effort. Every
    operation is elementwise per row, so a row's table and value do not
    depend on the other rows.
    """
    require_family(prefs, UtilityFamily.COBB_DOUGLAS, "the Cobb-Douglas solver")
    grid = grid or DpGrid()
    w = grid.wages
    e = grid.efforts
    delta, gamma, beta = prefs.delta, prefs.gamma, prefs.beta
    T = horizon.T

    # (row, effort, wage) axes; E and W broadcast over the rows
    p = np.array([contract.p for contract in contracts])[:, None, None]
    A = np.array([contract.alpha for contract in contracts])[:, None, None]
    W = w[None, :]
    E = e[:, None]
    c_eval = np.maximum(W + A * (E - W), 0.0)
    leisure = (1.0 - E) ** gamma
    u_eval = leisure * c_eval ** beta
    u_keep = leisure * W ** beta
    reward = p * u_eval + (1.0 - p) * u_keep

    e_idx = grid.index(e)  # next state after an evaluation

    n = len(contracts)
    rows, cols = np.arange(n)[:, None], np.arange(len(w))
    table = np.zeros((n, T, len(w)))
    value = np.zeros((n, T, len(w)))
    V_next = np.zeros((n, len(w)))
    for t in range(T, 0, -1):
        cont = delta * (p * V_next.take(e_idx, axis=1)[:, :, None]
                         + (1.0 - p) * V_next[:, None, :])
        obj = reward + cont
        best = np.argmax(obj, axis=1)  # first max = smallest effort on ties
        table[:, t - 1] = e[best]
        value[:, t - 1] = obj[rows, best, cols]
        V_next = value[:, t - 1]
    return [EffortPolicy(contract=contract, prefs=prefs, horizon=horizon, grid=grid,
                         table=tab, value=val)
            for contract, tab, val in zip(contracts, table, value)]


@dataclass(frozen=True)
class SampledPath:
    efforts: list[float]
    wages: list[float]
    bonuses: list[float]
    totals: list[float]


def always_sampled_path(policy: EffortPolicy, w0: float) -> SampledPath:
    """Trace the path of a worker evaluated every period from base wage w0.

    Reported wage is the reset wage (the effort), bonus is alpha*(e - w_prev),
    total is their sum; effort and bonus are read from the policy's response.
    """
    respond = TableEffortPolicy.stack([TableEffortPolicy(policy)])
    efforts, wages, bonuses, totals = [], [], [], []
    w = w0
    for t in range(1, policy.horizon.T + 1):
        e, _, b = (float(x) for x in respond(t, 0, w))
        efforts.append(e)
        wages.append(e)
        bonuses.append(b)
        totals.append(e + b)
        w = e
    return SampledPath(efforts, wages, bonuses, totals)


@dataclass(frozen=True)
class MonotonicityReport:
    decreasing_in_wage: list[bool]          # per period t = 1..T
    decreasing_over_periods: list[bool]     # per wage row, restricted rows only
    checked_rows: list[float]


MONOTONICITY_MIN_ROW = 0.1


def policy_monotonicity_report(policy: EffortPolicy) -> MonotonicityReport:
    """Weak monotonicity of effort in previous wage, and over periods at the
    previous wages from MONOTONICITY_MIN_ROW up."""
    tab = policy.table
    in_wage = [bool(np.all(np.diff(tab[t]) <= 1e-12)) for t in range(tab.shape[0])]
    rows = [float(x) for x in policy.grid.wages if x >= MONOTONICITY_MIN_ROW - 1e-12]
    over_t = []
    for x in rows:
        i = int(policy.grid.index(x))
        over_t.append(bool(np.all(np.diff(tab[:, i]) <= 1e-12)))
    return MonotonicityReport(in_wage, over_t, rows)


class TableEffortPolicy:
    """Distribution-engine adapter, answered through stack: next wage is the
    effort itself, bonus is the nonrecurrent alpha*(e - w_prev)."""

    def __init__(self, policy: EffortPolicy):
        self.policy = policy
        self.contract = policy.contract

    @staticmethod
    def stack(policies):
        """The policy type's one response, for several policies on one grid:
        respond(t, rows, w) returns the effort, the evaluated next wage and the
        bonus at each pair (policies[rows[i]], w[i]) from one grid lookup of w
        (ValueError off the grid). rows and w broadcast: the employer's dense
        pricing passes rows as a column and the wages as a row, and
        distribution.responder answers one policy as rows = 0. The evaluated
        next wage is an effort, exactly a point of state_grid."""
        grid = policies[0].policy.grid
        if any(pol.policy.grid != grid for pol in policies):
            raise ValueError("stacked effort tables must share one grid")
        tables = np.stack([pol.policy.table for pol in policies])  # row, period, wage
        alpha = np.array([pol.contract.alpha for pol in policies])

        def respond(t, rows, w):
            if not 1 <= t <= tables.shape[1]:
                raise ValueError(f"period {t} outside 1..{tables.shape[1]}")
            e = tables[rows, t - 1, grid.index(w)]
            return e, e, alpha[rows] * (e - w)

        return respond

    @staticmethod
    def state_grid(policies):
        """The wages an evaluation can set under these policies: the effort
        grid, whose points are wage-grid points. The starting wages and these
        are every state the policies reach, so employer.slab_profit_values
        prices them as one dense (row, wage) array."""
        return policies[0].policy.grid.efforts
