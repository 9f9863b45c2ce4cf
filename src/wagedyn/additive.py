"""Multi-period worker problem under log-additive utility.

The worker's best response (best_response) is exact in every regime and is
the one additive policy the package runs: an AffinePolicy whose evaluated-wage
coefficients phi_t come from a recursion derived from the log-linear structure
of the value function (phi_series_recursive), which holds while the affine
policy never clamps on reachable states, and otherwise from an envelope
recursion on the value function's slope (envelope_evaluated_wages), which
holds in every regime. No wage grid is solved for it. best_responses solves
many contracts at once: one phi recursion and one clamp check over arrays,
and the envelope recursion for the clamped rows alone; best_response and
phi_series_recursive are its one-row cases.

A numerical backward induction on a wage grid (solve_backward_induction:
value iteration with linear interpolation of continuation values) fits phi
independently; it is the oracle of the criterion 4 check and of the tests,
and nothing else runs it. The grid must be a strictly increasing np.linspace:
the interpolation finds a wage's cell arithmetically instead of by a sorted
search. The golden-section argmax per grid state, which validates the affine
policy, is built only when AdditiveSolution.raw_effort is first read, to
the tolerance EFFORT_TOLERANCE.

Key structural facts used throughout: with wage scale s and bonus rate alpha,
the evaluated consumption is x = s*(1+alpha)*e - alpha*w, the first-order
condition pins x independently of the previous wage w, and the optimal effort
is affine in w: e_t(w) = (p/b)*phi_t + (alpha/(1+alpha))*(w/s)
(model.affine_effort).
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .golden import bisect_root, golden_max_vec
from .model import affine_effort, require_base_consumption
from .params import ContractParams, Horizon, UtilityFamily, WorkerPrefs

NEG_INF = float("-inf")
# tolerance of the oracle's golden-section argmax per grid state (raw_effort)
EFFORT_TOLERANCE = 1e-7


def _require_additive(prefs: WorkerPrefs) -> None:
    if prefs.family is not UtilityFamily.ADDITIVE:
        raise ValueError("additive solver requires the additive utility family")


# ---------------------------------------------------------------------------
# closed-form building blocks


def single_period_variance(contract: ContractParams, b: float = 1.0,
                           wage_scale: float = 1.0) -> float:
    """End-of-period wage variance p(1-p)[p(1+alpha)s/b - w0]^2."""
    gap = contract.p * (1.0 + contract.alpha) * wage_scale / b - contract.w0
    return contract.p * (1.0 - contract.p) * gap * gap


def phi_series_recursive(contract: ContractParams, prefs: WorkerPrefs,
                         horizon: Horizon) -> np.ndarray:
    """Exact phi_t from the value-function recursion: the one-row case of
    _phi_series, the recursion best_responses runs over all its rows.

    V_t(w) = C_t + A_t ln(w) + D_t w propagates exactly under the additive
    family, giving phi_t = S_t / (1 + alpha*delta*p*S_{t+1}) with
    S_t = sum_{j=0}^{T-t} (delta*(1-p))^j and S_{T+1} = 0.
    """
    _require_additive(prefs)
    return _phi_series(contract.p, contract.alpha, prefs.delta, horizon.T)


def _phi_series(p, alpha, delta: float, T: int) -> np.ndarray:
    """phi_series_recursive's phi_1..phi_T, period first: of shape (T,) for
    one row's floats p and alpha, (T, n) for arrays of n rows. Every
    operation is elementwise per row, so a row's phi does not depend on the
    other rows, and one row runs on floats, not on 1-element arrays."""
    q = delta * (1.0 - p)
    s = 0.0 * q  # S_{T+1} = 0, shaped like q
    S = [s]
    for _ in range(T):
        s = 1.0 + q * s
        S.append(s)
    S = np.array(S[::-1])  # S_1..S_{T+1}
    return S[:-1] / (1.0 + alpha * delta * p * S[1:])


def envelope_evaluated_wages(contract: ContractParams, prefs: WorkerPrefs,
                             horizon: Horizon, wage_scale: float = 1.0) -> np.ndarray:
    """Exact evaluated wages x*_1..x*_T in every regime, clamped or not, by an
    envelope recursion on the value function's slope.

    With S = s*(1+alpha), the best response is e_t(w) = min((x*_t + alpha*w)/S, 1).
    x*_t is the root of

        g_t(x) = p/x + delta*p*V'_{t+1}(x) - b/S

    on (0, S], clipped to S, where V'_{T+1} = 0 and, by the envelope theorem,

        V'_t(w) = (1-p)*[1/w + delta*V'_{t+1}(w)] - b*alpha/S
                  when x*_t + alpha*w <= S (interior), else
        V'_t(w) = (1-p)*[1/w + delta*V'_{t+1}(w)] - p*alpha*[1/y + delta*V'_{t+1}(y)]
                  with y = S - alpha*w (full effort), and -inf when y <= 0.

    The period objective is jointly concave in (e, w), so every V_t is concave,
    g_t decreases and its root is unique. Everything is closed form except
    that scalar root per period: x*_t is the largest float in [1e-12*S, S]
    with g_t >= 0, found by golden.bisect_root from the half of that bracket
    which g_t's sign at the unclamped evaluated wage s(1+alpha)(p/b)phi_t
    (phi_series_recursive) picks; for a decreasing g_t the root does not
    depend on that guess. At the last period
    g_T(x) = p/x - b/S, so x*_T is within 2 ulps of min(p*S/b, S). V'_t(w)
    reads V'_{t+1} only at w and y(w), so one evaluation of g_t visits the
    chain x, y(x), y(y(x)), ...; memoised per evaluation, it costs O(T^2).

    Where no evaluated wage clamps, the roots equal S*(p/b)*phi from
    phi_series_recursive to rounding. Requires p > 0.
    """
    _require_additive(prefs)
    p, alpha, b, delta = contract.p, contract.alpha, prefs.b, prefs.delta
    if not p > 0.0:
        raise ValueError("the envelope recursion needs p > 0")
    S = wage_scale * (1.0 + alpha)
    T = horizon.T
    x_star = [0.0] * (T + 1)  # x_star[t] for t = 1..T, filled backwards

    # the weights of the never-evaluated branch, the interior slope term and
    # the full-effort branch, computed once
    keep, interior, full = 1.0 - p, b * alpha / S, p * alpha

    def slope(t: int, w: float, memo: dict) -> float:
        """V'_t(w) for t <= T, memoised by (t, w) within one evaluation of g;
        V'_{T+1} = 0 is read as a constant, not called."""
        key = (t, w)
        d = memo.get(key)
        if d is None:
            later = t < T
            d = keep * (1.0 / w + delta * (slope(t + 1, w, memo) if later else 0.0)) \
                if p < 1.0 else 0.0
            if x_star[t] + alpha * w <= S:
                d -= interior
            else:
                y = S - alpha * w
                d = -math.inf if y <= 0.0 else \
                    d - full * (1.0 / y + delta * (slope(t + 1, y, memo) if later else 0.0))
            memo[key] = d
        return d

    guesses = ((p / b) * (1.0 + alpha) * wage_scale * phi_series_recursive(
        contract, prefs, horizon)).tolist()
    for t in range(T, 0, -1):
        x_star[t] = bisect_root(
            lambda x: p / x + delta * p * (slope(t + 1, x, {}) if t < T else 0.0) - b / S,
            1e-12 * S, S, guesses[t - 1])
    return np.array(x_star[1:])


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
# the exact best response


def dead_corner(alpha, w, wage_scale: float):
    """True where not even full effort yields a positive evaluated wage,
    s(1+alpha) - alpha*w <= 0. An evaluation then leaves the worker with
    nothing whatever the effort, so the worker idles: e = 0 and x = 0.
    Broadcasts over alpha and w."""
    return wage_scale * (1.0 + alpha) - alpha * w <= 0.0


class AffinePolicy:
    """The additive worker's affine effort policy, answered through stack.

    Period t (1..len(phi)) exerts model.affine_effort(p, alpha, w, phi[t-1],
    b, wage_scale) at previous wage w. The worker exerts no effort when p = 0
    (never evaluated, effort is pure disutility) and in the dead corner (see
    dead_corner), as in the one-period response; only a starting wage
    w0 >= s(1+alpha)/alpha lies there, because every evaluated wage is below
    it. An evaluation folds the bonus into the wage state, so the evaluated
    next wage is max(s(1+alpha)e - alpha*w, 0) and the bonus is zero.
    """

    def __init__(self, contract: ContractParams, b: float, wage_scale: float, phi):
        self.contract = contract
        self.b = b
        self.wage_scale = wage_scale
        self.phi = np.asarray(phi, dtype=float)

    @property
    def evaluated_wages(self) -> np.ndarray:
        """x_t = s(1+alpha)(p/b)phi_t, the wage an evaluation in period t
        sets wherever the policy does not clamp."""
        c = self.contract
        return self.wage_scale * (1.0 + c.alpha) * (c.p / self.b) * self.phi

    @staticmethod
    def stack(policies):
        """The policy type's one response, for several policies of one b and
        wage scale: respond(t, rows, w) returns the effort, the evaluated next
        wage and the (zero) bonus at each pair (policies[rows[i]], w[i]), with
        the effort computed once for both (_affine_response). rows and w
        broadcast; distribution.responder answers one policy as rows = 0."""
        b, s = policies[0].b, policies[0].wage_scale
        if any(pol.b != b or pol.wage_scale != s for pol in policies):
            raise ValueError("stacked affine policies must share b and the wage scale")
        p = np.array([pol.contract.p for pol in policies])
        alpha = np.array([pol.contract.alpha for pol in policies])
        phi = np.stack([pol.phi for pol in policies])  # raises on unequal horizons

        def respond(t, rows, w):
            e, x = _affine_response(p[rows], alpha[rows], w, _phi_at(phi, t)[rows], b, s)
            return e, x, np.zeros_like(w)

        return respond


def _phi_at(phi: np.ndarray, t: int):
    """phi_t, read off the last (period) axis of phi."""
    if not 1 <= t <= phi.shape[-1]:
        raise ValueError(f"period {t} outside 1..{phi.shape[-1]}")
    return phi[..., t - 1]


def _affine_response(p, alpha, w, phi_t, b, s):
    """AffinePolicy's effort e and evaluated next wage max(s(1+alpha)e - alpha*w, 0)
    at previous wages w, with e = 0 where p = 0 and in the dead corner; with
    phi_t = 1 it is the one-period worker's response, which the employer's
    one-period profit prices. The arguments broadcast; 0-d results come back
    as numpy scalars."""
    w = np.asarray(w, dtype=float)
    e = np.where((p == 0.0) | dead_corner(alpha, w, s), 0.0,
                 affine_effort(p, alpha, w, phi_t, b, s))
    return e[()], np.maximum(s * (1.0 + alpha) * e - alpha * w, 0.0)[()]


def best_response(contract: ContractParams, prefs: WorkerPrefs, horizon: Horizon,
                  wage_scale: float = 1.0) -> AffinePolicy:
    """The additive worker's exact best response: the one-row case of
    best_responses, whose solve (_exact_phi) it runs on the contract's floats.
    It depends on (p, alpha) alone; w0 is never read."""
    _require_additive(prefs)
    return AffinePolicy(contract, prefs.b, wage_scale,
                        _exact_phi([contract], contract.p, contract.alpha, prefs, horizon,
                                   wage_scale))


def best_responses(contracts, prefs: WorkerPrefs, horizon: Horizon,
                   wage_scale: float = 1.0) -> list[AffinePolicy]:
    """The additive worker's exact best response to each contract, which
    depends on (p, alpha) alone: the first-order condition pins each period's
    evaluated wage x*_t whatever the previous wage, so w0 is never read.
    All rows are solved at once (_exact_phi), each to the bit of its one-row
    solve (best_response)."""
    _require_additive(prefs)
    p = np.array([contract.p for contract in contracts])
    alpha = np.array([contract.alpha for contract in contracts])
    phi = _exact_phi(contracts, p, alpha, prefs, horizon, wage_scale)
    return [AffinePolicy(contract, prefs.b, wage_scale, row)
            for contract, row in zip(contracts, phi)]


def _exact_phi(contracts, p, alpha, prefs: WorkerPrefs, horizon: Horizon,
               s: float) -> np.ndarray:
    """The exact phi of the contracts, whose p and alpha are floats (one
    contract; phi of shape (T,)) or arrays (phi of shape (n, T)).

    One phi recursion (_phi_series) gives every row's phi, and one clamp
    check runs on (period t, evaluated wage j, row) arrays: the affine effort
    (p/b)*phi_t + (alpha/(1+alpha))*x_j/s at each evaluated wage
    x_j = s(1+alpha)(p/b)phi_j. A row whose efforts all lie in [0, 1] keeps
    that phi. Only a row where one leaves [0, 1] runs the envelope recursion
    (envelope_evaluated_wages) and takes phi_t = x*_t*b/(p*s(1+alpha)).
    Either way the policy is exact; no grid is solved. Every operation is
    elementwise per row.
    """
    b, T = prefs.b, horizon.T
    phi = _phi_series(p, alpha, prefs.delta, T)
    A = alpha / (1.0 + alpha)
    # effort in period t at evaluated wage j, per row; an inf or NaN (p/b
    # overflowing) fails the check silently
    with np.errstate(over="ignore", invalid="ignore"):
        wages = (p / b) * (1.0 + alpha) * s * phi
        effort = ((p / b) * phi)[:, None] + (A * wages / s)[None, :]
    unclamped = ((0.0 <= effort) & (effort <= 1.0)).all(axis=(0, 1))
    columns = phi.reshape(T, -1)  # a view: one column per row
    for i, ok in enumerate(unclamped.reshape(-1).tolist()):
        if not ok:
            c = contracts[i]
            columns[:, i] = envelope_evaluated_wages(c, prefs, horizon, s) * b / (
                c.p * (1.0 + c.alpha) * s)
    return np.ascontiguousarray(phi.T)


def wage_support(policy: AffinePolicy) -> list[tuple[float, int, float]]:
    """Support of the final-period wage distribution under an affine policy
    as (wage, last evaluation, prob).

    Last evaluation 0 means never evaluated, at w0; an evaluation last in
    period t leaves the policy's evaluated wage x_t (AffinePolicy.
    evaluated_wages), which holds while the policy does not clamp on the
    reached wages. Probabilities are the geometric partition (1-p)^T and
    p*(1-p)^(T-t).
    """
    c = policy.contract
    p, T = c.p, len(policy.phi)
    rows = [(c.w0, 0, (1.0 - p) ** T)]
    for t, x in enumerate(policy.evaluated_wages.tolist(), 1):
        rows.append((x, t, p * (1.0 - p) ** (T - t)))
    return rows


# ---------------------------------------------------------------------------
# numerical backward-induction oracle


def default_wage_grid(contract: ContractParams, wage_scale: float = 1.0) -> np.ndarray:
    """15001 points on [0, max(1.5, cap)] where cap covers every attainable wage.

    This density keeps the linear-interpolation bias of the fitted optimum
    below ~2e-5 in effort, so the returned policy is stationary for the true
    objective to about 1e-4.
    """
    cap = max(1.5, wage_scale * (1.0 + contract.alpha), contract.w0 * 1.01)
    return np.linspace(0.0, cap, 15001)


@dataclass(frozen=True)
class AdditiveSolution:
    """Backward-induction result with fitted closed-form coefficients: the
    grid oracle against which the criterion 4 check and the tests hold the
    affine policy; the package's own policy is best_response's.

    phi[t-1] and evaluated_wage[t-1] refer to period t. raw_effort, the
    per-grid-point golden-section argmax that validates the affine fit, is
    built from the stored value table on first read.
    """

    contract: ContractParams
    prefs: WorkerPrefs
    horizon: Horizon
    wage_scale: float
    wage_grid: np.ndarray
    phi: np.ndarray
    evaluated_wage: np.ndarray
    value: np.ndarray           # (T, n_grid) value function per period

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
            table[t - 1], _ = golden_max_vec(
                _period_objective(c, self.prefs, s, grid, log_grid, V_next), lo, hi,
                tol=EFFORT_TOLERANCE)
        return table

    @property
    def phi_weakly_decreasing(self) -> bool:
        return bool(np.all(np.diff(self.phi) <= 1e-9))


def _uniform_interpolant(grid: np.ndarray,
                         values: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """x -> values linearly interpolated at x; -inf where either end of x's
    cell is -inf.

    grid must be a strictly increasing np.linspace (solve_backward_induction
    checks this), so the cell is found arithmetically, much as DpGrid.index
    finds a wage's index: i = int((x - g0)/h) clipped to [0, n-2], then one
    step down where grid[i] >= x and one step up where grid[i+1] < x. That is
    the cell clip(searchsorted(grid, x) - 1, 0, n-2), so x outside the grid
    extrapolates from the end cells. The gaps, value differences and -inf
    mask are computed once per grid and value row.
    """
    n = len(grid)
    g0 = grid[0]
    h = (grid[-1] - g0) / (n - 1)
    x0 = grid[:-1]
    gaps = grid[1:] - x0
    v0 = values[:-1]
    with np.errstate(invalid="ignore"):
        diffs = values[1:] - v0
    bad = np.isneginf(v0) | np.isneginf(values[1:])
    # cell i's ends for the corrections, with no step below cell 0 or above
    # cell n-2
    ends = grid.copy()
    ends[0], ends[-1] = -math.inf, math.inf
    lower, upper = ends[:-1], ends[1:]

    def interp(x):
        x = np.asarray(x, dtype=float)
        i = np.clip((x - g0) / h, 0, n - 2).astype(np.intp)
        i -= lower.take(i) >= x
        i += upper.take(i) < x
        with np.errstate(invalid="ignore"):
            out = v0.take(i) + (x - x0.take(i)) / gaps.take(i) * diffs.take(i)
        return np.where(bad.take(i), NEG_INF, out)

    return interp


def _check_uniform_grid(grid: np.ndarray) -> None:
    if (grid.ndim != 1 or len(grid) < 2 or not np.all(grid[1:] > grid[:-1])
            or not np.array_equal(grid, np.linspace(grid[0], grid[-1], len(grid)))):
        raise ValueError("wage_grid must be a strictly increasing np.linspace "
                         "of at least 2 points")


def _log_grid(grid: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore"):
        return np.where(grid > 0.0, np.log(np.maximum(grid, 1e-300)), NEG_INF)


def _period_objective(contract: ContractParams, prefs: WorkerPrefs, s: float,
                      grid: np.ndarray, log_grid: np.ndarray,
                      V_next: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """Period objective in effort, one problem per grid wage:
        p*ln(x) + (1-p)*ln(w) - b*e + delta*[p*V(x) + (1-p)*V(w)],
    with x = s*(1+alpha)*e - alpha*w and V the next period's value V_next.

    What does not depend on e is computed once: the interpolant of V_next and
    the never-evaluated term (1-p)*(ln w + delta*V(w)), which is left out at
    p = 1 (where it would be 0*(-inf)).
    """
    p, alpha = contract.p, contract.alpha
    b, delta = prefs.b, prefs.delta
    slope, shift = s * (1.0 + alpha), alpha * grid
    cont = _uniform_interpolant(grid, V_next) if p > 0.0 else None
    never = (1.0 - p) * (log_grid + delta * V_next) if p < 1.0 else None

    def objective(e: np.ndarray) -> np.ndarray:
        out = -b * e
        if cont is not None:
            x = slope * e - shift
            pos = x > 0.0
            with np.errstate(divide="ignore", invalid="ignore"):
                log_x = np.where(pos, np.log(np.maximum(x, 1e-300)), NEG_INF)
            cont_eval = np.where(pos, cont(np.clip(x, grid[0], grid[-1])), NEG_INF)
            out = out + p * (log_x + delta * cont_eval)
        if never is not None:
            out = out + never
        return out

    return objective


def solve_backward_induction(contract: ContractParams, prefs: WorkerPrefs,
                             horizon: Horizon, wage_grid: np.ndarray | None = None,
                             wage_scale: float = 1.0) -> AdditiveSolution:
    """Numerical Bellman solve on a wage grid.

    Per period, the objective (see _period_objective) is shared by every grid
    wage through x = s*(1+alpha)*e - alpha*w. The fitted evaluated wage W_t
    is the largest float in [lo, s*(1+alpha)], lo = max(grid[1], 1e-12)
    capped at s*(1+alpha) (a coarse grid's grid[1] can exceed it), where its
    first-order condition in x, which reads V_{t+1} through the objective's
    interpolation (_uniform_interpolant), is >= 0 (golden.bisect_root), and
    phi_t = W_t * b / (p*(1+alpha)*s). Where the numerical slope of V_{t+1}
    is infinite, the condition takes its sign; a NaN slope (both ends -inf)
    reads as too high a wage. The value table follows the affine
    policy from W_t, clamped to [0, 1]; the golden-section argmax per state
    (raw_effort) is built from it only when read.

    When the fitted phi is not finite (p = 0, where no evaluation happens, or
    a subnormal p, where the division by p overflows), phi comes from the
    exact recursion phi_series_recursive and the evaluated wage is
    s*(1+alpha)*(p/b)*phi.

    Raises DomainError for contracts whose never-evaluated branch has zero
    consumption (w0 = 0 with p < 1 is degenerate for log utility), and
    ValueError for a wage_grid that is not a strictly increasing
    np.linspace of at least 2 points (the interpolation finds cells
    arithmetically; see _uniform_interpolant).
    """
    _require_additive(prefs)
    p, alpha, b = contract.p, contract.alpha, prefs.b
    delta = prefs.delta
    s = wage_scale
    if s <= 0.0:
        raise ValueError("wage_scale must be positive")
    require_base_consumption(contract)
    T = horizon.T
    grid = default_wage_grid(contract, s) if wage_grid is None else np.asarray(wage_grid, float)
    _check_uniform_grid(grid)
    n = len(grid)
    cap = s * (1.0 + alpha)  # maximal evaluated consumption at w = 0
    log_grid = _log_grid(grid)
    lo_x, hi_x = float(grid[0]), float(grid[-1])

    phi = np.zeros(T)
    evaluated_wage = np.zeros(T)
    value = np.zeros((T, n))
    V_next = np.zeros(n)  # continuation after the final period

    for t in range(T, 0, -1):
        if p > 0.0:
            V = _uniform_interpolant(grid, V_next)

            def g(x: float) -> float:
                # derivative of p*ln(x) + delta*p*V(x) - b*e(x) in x
                h = max(1e-9 * max(x, 1e-6), 1e-12)
                dV = (float(V(min(x + h, hi_x))) - float(V(max(x - h, lo_x)))) / (2 * h)
                if math.isnan(dV):
                    # both ends -inf: x is too high a wage
                    return -1.0
                if math.isinf(dV):
                    # +inf where V(x - h) is -inf (the low end: V(0) = -inf),
                    # -inf where V(x + h) is -inf (the top at alpha = 1,
                    # where full effort leaves no evaluated consumption)
                    return math.copysign(1.0, dV)
                return p / x + delta * p * dV - b / ((1.0 + alpha) * s)

            x_star = bisect_root(g, min(max(float(grid[1]), 1e-12), cap), cap)
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
                            evaluated_wage=evaluated_wage, value=value)


class AffineEffortPolicy(AffinePolicy):
    """AffinePolicy with the phi fitted by the numerical backward induction.

    No package run path builds it; the benchmark's tracer and its
    distributions check import it by name, so it stays until the benchmark
    reads the package's own trace (ROADMAP item 5 step B)."""

    def __init__(self, solution: AdditiveSolution):
        super().__init__(solution.contract, solution.prefs.b, solution.wage_scale,
                         solution.phi)
