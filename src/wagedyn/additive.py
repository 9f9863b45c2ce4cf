"""Multi-period worker problem under log-additive utility.

The evaluated-wage coefficients phi_t are fitted from a numerical
backward induction on a wage grid (value iteration with linear interpolation
of continuation values). The golden-section argmax per grid state, which
validates the affine policy, is built only when AdditiveSolution.raw_effort is
first read; only the criterion 4 check and the tests read it. Two independent
cross-checks exist: an exact recursion derived from the log-linear structure
of the value function, and the literal closed-sum formula retained as a
diagnostic (it is known to violate the terminal normalization phi_T = 1).

Key structural facts used throughout: with wage scale s and bonus rate alpha,
the evaluated consumption is x = s*(1+alpha)*e - alpha*w, the first-order
condition pins x independently of the previous wage w, and the optimal effort
is affine in w: e_t(w) = (p/b)*phi_t + (alpha/(1+alpha))*(w/s).
"""
from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .golden import bisect_root, golden_max_vec
from .model import DomainError
from .params import ContractParams, Horizon, UtilityFamily, WorkerPrefs

NEG_INF = float("-inf")


def _require_additive(prefs: WorkerPrefs) -> None:
    if prefs.family is not UtilityFamily.ADDITIVE:
        raise ValueError("additive solver requires the additive utility family")


# ---------------------------------------------------------------------------
# closed-form building blocks


def single_period_effort(contract: ContractParams, b: float = 1.0,
                         wage_scale: float = 1.0) -> float:
    """One-period optimal effort, clamped to [0, 1]."""
    e = contract.p / b + contract.alpha / (1.0 + contract.alpha) * contract.w0 / wage_scale
    return min(max(e, 0.0), 1.0)


@dataclass(frozen=True)
class SinglePeriodWage:
    not_evaluated: float
    evaluated: float
    exceeds_max: bool  # evaluated wage above the maximal attainable one


def single_period_wage_pair(contract: ContractParams, b: float = 1.0,
                            wage_scale: float = 1.0) -> SinglePeriodWage:
    """One-period wage outcomes: (w0 if unsampled, p*(1+alpha)*s/b if sampled).

    The evaluated value is the unclamped first-order-condition wage; the flag
    marks contracts where it exceeds what maximal effort can deliver.
    """
    w_eval = contract.p * (1.0 + contract.alpha) * wage_scale / b
    cap = wage_scale * (1.0 + contract.alpha)
    return SinglePeriodWage(contract.w0, w_eval, w_eval > cap)


def single_period_variance(contract: ContractParams, b: float = 1.0,
                           wage_scale: float = 1.0) -> float:
    """End-of-period wage variance p(1-p)[p(1+alpha)s/b - w0]^2."""
    gap = contract.p * (1.0 + contract.alpha) * wage_scale / b - contract.w0
    return contract.p * (1.0 - contract.p) * gap * gap


def phi_series_recursive(contract: ContractParams, prefs: WorkerPrefs,
                         horizon: Horizon) -> np.ndarray:
    """Exact phi_t from the value-function recursion.

    V_t(w) = C_t + A_t ln(w) + D_t w propagates exactly under the additive
    family, giving phi_t = S_t / (1 + alpha*delta*p*S_{t+1}) with
    S_t = sum_{j=0}^{T-t} (delta*(1-p))^j and S_{T+1} = 0.
    """
    _require_additive(prefs)
    p, alpha, delta = contract.p, contract.alpha, prefs.delta
    T = horizon.T
    q = delta * (1.0 - p)
    S = np.zeros(T + 2)
    for t in range(T, 0, -1):
        S[t] = 1.0 + q * S[t + 1]
    phi = np.array([S[t] / (1.0 + alpha * delta * p * S[t + 1]) for t in range(1, T + 1)])
    return phi


def phi_series_closed_sum(contract: ContractParams, prefs: WorkerPrefs,
                          horizon: Horizon) -> np.ndarray:
    """Literal closed-sum phi variant, kept as a diagnostic only.

    Reads the summation limits as sum_{s=t}^{T} (delta*(1-p))^{s-t}. Violates
    phi_T = 1 whenever alpha*p > 0; undefined at p = 1.
    """
    _require_additive(prefs)
    p, alpha, delta = contract.p, contract.alpha, prefs.delta
    if p >= 1.0:
        raise DomainError("closed-sum phi variant is singular at p = 1")
    T = horizon.T
    q = delta * (1.0 - p)
    out = np.empty(T)
    for t in range(1, T + 1):
        ssum = sum(q ** j for j in range(T - t + 1))
        out[t - 1] = ssum / (1.0 + alpha * delta * p * ssum - alpha * p / (1.0 - p))
    return out


def deterministic_path(contract: ContractParams, efforts: list[float],
                       wage_scale: float = 1.0) -> list[float]:
    """Wage path when the worker is evaluated every period."""
    from .model import wage_update

    wages = []
    w = contract.w0
    for e in efforts:
        if not 0.0 <= e <= 1.0:
            raise ValueError(f"effort outside [0, 1]: {e}")
        w = wage_update(w, e, contract, evaluated=True, wage_scale=wage_scale)
        wages.append(w)
    return wages


# ---------------------------------------------------------------------------
# numerical backward-induction oracle


def default_wage_grid(contract: ContractParams, wage_scale: float = 1.0,
                      n_points: int = 15001) -> np.ndarray:
    """Grid on [0, max(1.5, cap)] where cap covers every attainable wage.

    The default density keeps the linear-interpolation bias of the fitted
    optimum below ~2e-5 in effort, so the returned policy is stationary for
    the true objective to about 1e-4.
    """
    cap = max(1.5, wage_scale * (1.0 + contract.alpha), contract.w0 * 1.01)
    return np.linspace(0.0, cap, n_points)


@dataclass(frozen=True)
class AdditiveSolution:
    """Backward-induction result with fitted closed-form coefficients.

    phi[t-1] and evaluated_wage[t-1] refer to period t; effort follows the
    affine policy e_t(w) = (p/b)*phi_t + (alpha/(1+alpha))*(w/s), clamped to
    [0, 1]. raw_effort, the per-grid-point golden-section argmax that
    validates the affine fit, is built from the stored value table on first
    read; only the criterion 4 check and the tests read it.
    """

    contract: ContractParams
    prefs: WorkerPrefs
    horizon: Horizon
    wage_scale: float
    wage_grid: np.ndarray
    phi: np.ndarray
    evaluated_wage: np.ndarray
    value: np.ndarray           # (T, n_grid) value function per period
    effort_tolerance: float = field(default=1e-6)

    @functools.cached_property
    def raw_effort(self) -> np.ndarray:
        """(T, n_grid) golden-section argmax of each period's objective."""
        c, s, grid = self.contract, self.wage_scale, self.wage_grid
        T, n = self.value.shape
        log_grid = _log_grid(grid)
        if c.p > 0.0:
            lo = np.minimum(c.alpha * grid / ((1.0 + c.alpha) * s) + 1e-12, 1.0)
        else:
            lo = np.zeros(n)
        hi = np.ones(n)
        table = np.zeros((T, n))
        for t in range(T, 0, -1):
            V_next = self.value[t] if t < T else np.zeros(n)
            objective = _period_objective(c, self.prefs, s, grid, log_grid, V_next)
            table[t - 1], _ = golden_max_vec(objective, lo, hi, tol=self.effort_tolerance)
        return table

    def effort(self, t: int, prev_wage: float) -> float:
        """Closed-form effort for period t (1-based) at the given previous wage."""
        if not 1 <= t <= self.horizon.T:
            raise ValueError(f"period {t} outside 1..{self.horizon.T}")
        c = self.contract
        if c.p == 0.0:
            return 0.0  # never evaluated: effort is pure disutility
        e = (c.p / self.prefs.b) * self.phi[t - 1] \
            + c.alpha / (1.0 + c.alpha) * prev_wage / self.wage_scale
        return min(max(e, 0.0), 1.0)

    @property
    def phi_weakly_decreasing(self) -> bool:
        return bool(np.all(np.diff(self.phi) <= 1e-9))


def closed_form_effort(solution: AdditiveSolution, t: int, prev_wage: float) -> float:
    """Affine-policy effort using the solution's fitted phi_t."""
    return solution.effort(t, prev_wage)


def _interp_guarded(x: np.ndarray | float, grid: np.ndarray, values: np.ndarray):
    """Linear interpolation that propagates -inf instead of producing NaN."""
    x = np.asarray(x, dtype=float)
    idx = np.clip(np.searchsorted(grid, x) - 1, 0, len(grid) - 2)
    x0, x1 = grid[idx], grid[idx + 1]
    v0, v1 = values[idx], values[idx + 1]
    with np.errstate(invalid="ignore"):
        frac = np.where(x1 > x0, (x - x0) / (x1 - x0), 0.0)
        out = v0 + frac * (v1 - v0)
    bad = np.isneginf(v0) | np.isneginf(v1)
    return np.where(bad, NEG_INF, out)


def _interp_guarded_float(x: float, grid: list[float], values: list[float]) -> float:
    """_interp_guarded on Python floats: the same index and arithmetic."""
    i = min(max(bisect.bisect_left(grid, x) - 1, 0), len(grid) - 2)
    x0, x1 = grid[i], grid[i + 1]
    v0, v1 = values[i], values[i + 1]
    if v0 == NEG_INF or v1 == NEG_INF:
        return NEG_INF
    frac = (x - x0) / (x1 - x0) if x1 > x0 else 0.0
    return v0 + frac * (v1 - v0)


def _log_grid(grid: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore"):
        return np.where(grid > 0.0, np.log(np.maximum(grid, 1e-300)), NEG_INF)


def _period_objective(contract: ContractParams, prefs: WorkerPrefs, s: float,
                      grid: np.ndarray, log_grid: np.ndarray,
                      V_next: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """Period objective in effort, one problem per grid wage:
        p*ln(x) + (1-p)*ln(w) - b*e + delta*[p*V(x) + (1-p)*V(w)],
    with x = s*(1+alpha)*e - alpha*w and V the next period's value V_next.
    """
    p, alpha = contract.p, contract.alpha
    b, delta = prefs.b, prefs.delta

    def objective(e: np.ndarray) -> np.ndarray:
        x = s * (1.0 + alpha) * e - alpha * grid
        with np.errstate(divide="ignore", invalid="ignore"):
            log_x = np.where(x > 0.0, np.log(np.maximum(x, 1e-300)), NEG_INF)
        cont_eval = _interp_guarded(np.clip(x, grid[0], grid[-1]), grid, V_next)
        cont_eval = np.where(x > 0.0, cont_eval, NEG_INF)
        out = -b * e
        if p > 0.0:
            out = out + p * (log_x + delta * cont_eval)
        if p < 1.0:
            out = out + (1.0 - p) * (log_grid + delta * V_next)
        return out

    return objective


def solve_backward_induction(contract: ContractParams, prefs: WorkerPrefs,
                             horizon: Horizon, wage_grid: np.ndarray | None = None,
                             effort_tolerance: float = 1e-6,
                             wage_scale: float = 1.0) -> AdditiveSolution:
    """Numerical Bellman solve on a wage grid.

    Per period, the objective (see _period_objective) is shared by every grid
    wage through x = s*(1+alpha)*e - alpha*w. The fitted evaluated wage W_t
    comes from bisecting its first-order condition in x, and
    phi_t = W_t * b / (p*(1+alpha)*s). The value table follows the affine
    policy from W_t, clamped to [0, 1]; the golden-section argmax per state
    (raw_effort) is built from it only when read.

    When the fitted phi is not finite (p = 0, where no evaluation happens, or
    a subnormal p, where the division by p overflows), phi comes from the
    exact recursion phi_series_recursive and the evaluated wage is
    s*(1+alpha)*(p/b)*phi.

    Raises DomainError for contracts whose never-evaluated branch has zero
    consumption (w0 = 0 with p < 1 is degenerate for log utility).
    """
    _require_additive(prefs)
    p, alpha, b = contract.p, contract.alpha, prefs.b
    delta = prefs.delta
    s = wage_scale
    if s <= 0.0:
        raise ValueError("wage_scale must be positive")
    if contract.w0 <= 0.0 and p < 1.0:
        raise DomainError("w0 = 0 with p < 1 gives zero consumption when never evaluated")
    T = horizon.T
    grid = default_wage_grid(contract, s) if wage_grid is None else np.asarray(wage_grid, float)
    n = len(grid)
    cap = s * (1.0 + alpha)  # maximal evaluated consumption at w = 0
    log_grid = _log_grid(grid)
    grid_list = grid.tolist()

    phi = np.zeros(T)
    evaluated_wage = np.zeros(T)
    value = np.zeros((T, n))
    V_next = np.zeros(n)  # continuation after the final period

    for t in range(T, 0, -1):
        if p > 0.0:
            V_list = V_next.tolist()

            def g(x: float) -> float:
                # derivative of p*ln(x) + delta*p*V(x) - b*e(x) in x
                h = max(1e-9 * max(x, 1e-6), 1e-12)
                dV = (_interp_guarded_float(min(x + h, grid_list[-1]), grid_list, V_list)
                      - _interp_guarded_float(max(x - h, grid_list[0]), grid_list, V_list)) \
                    / (2 * h)
                if not math.isfinite(dV):
                    return 1.0
                return p / x + delta * p * dV - b / ((1.0 + alpha) * s)

            x_star = bisect_root(g, max(grid_list[1] if n > 1 else 1e-9, 1e-12), cap)
            e_pol = np.clip((x_star + alpha * grid) / ((1.0 + alpha) * s), 0.0, 1.0)
        else:
            x_star = 0.0
            e_pol = np.zeros(n)
        evaluated_wage[t - 1] = x_star
        phi[t - 1] = (x_star * b / (p * (1.0 + alpha) * s)) if p > 0.0 else math.nan

        # value update from the polished policy (affine from x_star, clamped)
        value[t - 1] = _period_objective(contract, prefs, s, grid, log_grid, V_next)(e_pol)
        V_next = value[t - 1]

    # p = 0 leaves phi undefined; a subnormal p overflows the division by p
    if not np.all(np.isfinite(phi)):
        phi = phi_series_recursive(contract, prefs, horizon)
        evaluated_wage = s * (1.0 + alpha) * (p / b) * phi

    return AdditiveSolution(contract=contract, prefs=prefs, horizon=horizon,
                            wage_scale=s, wage_grid=grid, phi=phi,
                            evaluated_wage=evaluated_wage, value=value,
                            effort_tolerance=effort_tolerance)


def wage_support(contract: ContractParams, prefs: WorkerPrefs, horizon: Horizon,
                 wage_scale: float = 1.0,
                 solution: AdditiveSolution | None = None) -> list[tuple[float, int, float]]:
    """Support of the period-T wage distribution as (wage, last evaluation, prob).

    Last evaluation 0 means never evaluated. Probabilities are the geometric
    partition (1-p)^T and p*(1-p)^(T-t).
    """
    _require_additive(prefs)
    p = contract.p
    T = horizon.T
    if solution is None:
        solution = solve_backward_induction(contract, prefs, horizon, wage_scale=wage_scale)
    rows = [(contract.w0, 0, (1.0 - p) ** T)]
    for t in range(1, T + 1):
        rows.append((float(solution.evaluated_wage[t - 1]), t, p * (1.0 - p) ** (T - t)))
    return rows


class AffineEffortPolicy:
    """Distribution-engine adapter for the additive closed-form policy.

    The evaluated next wage folds the bonus into the wage state (additive
    scheme); bonuses are zero by definition here.
    """

    def __init__(self, solution: AdditiveSolution):
        self.solution = solution
        self.contract = solution.contract
        self.horizon = solution.horizon
        self.wage_scale = solution.wage_scale

    def effort(self, t: int, prev_wage):
        sol = self.solution
        c = sol.contract
        w = np.asarray(prev_wage, dtype=float)
        if c.p == 0.0:
            return np.zeros_like(w)
        e = (c.p / sol.prefs.b) * sol.phi[t - 1] \
            + c.alpha / (1.0 + c.alpha) * w / sol.wage_scale
        return np.clip(e, 0.0, 1.0)

    def next_wage_if_evaluated(self, t: int, prev_wage):
        c = self.contract
        w = np.asarray(prev_wage, dtype=float)
        e = self.effort(t, prev_wage)
        x = self.wage_scale * (1.0 + c.alpha) * e - c.alpha * w
        return np.maximum(x, 0.0)

    def bonus_if_evaluated(self, t: int, prev_wage):
        return np.zeros_like(np.asarray(prev_wage, dtype=float))
