import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from wagedyn import additive
from wagedyn import (AffineEffortPolicy, ContractParams, DomainError, Horizon,
                     WorkerPrefs, best_response, deterministic_path, optimal_effort,
                     phi_series_recursive, propagate, single_period_variance,
                     solve_backward_induction, wage_support)
from wagedyn.additive import _uniform_interpolant
from wagedyn.distribution import responder
from wagedyn.golden import golden_max_vec

PREFS = WorkerPrefs.additive(delta=0.9)
FIG32 = dict(contract=ContractParams(0.2, 0.5, 0.4), prefs=PREFS, horizon=Horizon(10))


@pytest.fixture(scope="module")
def fig32_solution():
    return solve_backward_induction(FIG32["contract"], FIG32["prefs"],
                                    FIG32["horizon"])


def brute_force_effort(contract, b=1.0, step=1e-5):
    """One-period argmax by dense grid scan, independent of the solver."""
    p, alpha, w0 = contract.p, contract.alpha, contract.w0
    best_e, best_val = 0.0, -math.inf
    n = int(round(1.0 / step))
    for i in range(n + 1):
        e = i * step
        x = (1 + alpha) * e - alpha * w0
        if p > 0 and x <= 0:
            continue
        val = -b * e
        if p > 0:
            val += p * math.log(x)
        if p < 1:
            val += (1 - p) * math.log(w0)
        if val > best_val:
            best_e, best_val = e, val
    return best_e


def test_single_period_effort_against_brute_force():
    contract = ContractParams(0.2, 0.5, 0.4)
    e = optimal_effort(contract, PREFS)
    assert e == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert e == pytest.approx(brute_force_effort(contract), abs=1e-5)


def test_single_period_effort_corners():
    assert optimal_effort(ContractParams(0.0, 0.0, 0.0), PREFS) == 0.0
    assert optimal_effort(ContractParams(1.0, 0.0, 0.0), PREFS) == 1.0
    # no bonus rate: effort equals the sampling odds regardless of the base wage
    assert optimal_effort(ContractParams(0.3, 0.0, 0.7), PREFS) == pytest.approx(0.3)
    # clamped above one
    assert optimal_effort(ContractParams(1.0, 1.0, 1.0), PREFS) == 1.0


@dataclass(frozen=True)
class SinglePeriodWage:
    not_evaluated: float
    evaluated: float
    exceeds_max: bool  # evaluated wage above the maximal attainable one


def single_period_wage_pair(contract, b=1.0, wage_scale=1.0):
    """Reference: the one-period wage outcomes (w0 if unsampled,
    p*(1+alpha)*s/b if sampled) as the package once returned them. The
    evaluated value is the unclamped first-order-condition wage; the flag
    marks contracts where it exceeds what maximal effort can deliver."""
    w_eval = contract.p * (1.0 + contract.alpha) * wage_scale / b
    cap = wage_scale * (1.0 + contract.alpha)
    return SinglePeriodWage(contract.w0, w_eval, w_eval > cap)


def test_single_period_wage_pair():
    pair = single_period_wage_pair(ContractParams(0.2, 0.5, 0.4))
    assert pair.not_evaluated == 0.4
    assert pair.evaluated == pytest.approx(0.3)
    assert not pair.exceeds_max
    assert single_period_wage_pair(ContractParams(0.0, 0.3, 0.4)).evaluated == 0.0
    # unclamped formula value reported even at the feasibility edge
    pair = single_period_wage_pair(ContractParams(1.0, 1.0, 0.4))
    assert pair.evaluated == pytest.approx(2.0)
    assert not pair.exceeds_max  # equals the cap exactly
    assert single_period_wage_pair(ContractParams(1.0, 1.0, 0.4), b=0.9).exceeds_max
    # the T = 1 support of the best response holds the pair's wages, and the
    # cap where the pair's evaluated wage exceeds it
    for contract, b in ((ContractParams(0.2, 0.5, 0.4), 1.0),
                        (ContractParams(0.0, 0.3, 0.4), 1.0),
                        (ContractParams(1.0, 1.0, 0.4), 1.0),
                        (ContractParams(1.0, 1.0, 0.4), 0.9)):
        pair = single_period_wage_pair(contract, b)
        prefs = WorkerPrefs.additive(delta=0.9, b=b)
        (w_never, _, _), (w_eval, _, _) = wage_support(best_response(contract, prefs,
                                                                     Horizon(1)))
        assert w_never == pair.not_evaluated
        cap = 1.0 + contract.alpha
        assert w_eval == pytest.approx(cap if pair.exceeds_max else pair.evaluated,
                                       abs=1e-12)


def test_single_period_variance():
    assert single_period_variance(ContractParams(0.0, 0.5, 0.4)) == 0.0
    assert single_period_variance(ContractParams(1.0, 0.5, 0.4)) == 0.0
    assert single_period_variance(ContractParams(0.2, 0.5, 0.4)) == pytest.approx(0.0016)
    # both outcomes equal: p(1+alpha) = w0
    assert single_period_variance(ContractParams(0.2, 0.5, 0.3)) == pytest.approx(0.0)


@pytest.mark.xfail(strict=True, reason="single_period_variance takes the unclamped "
                   "evaluated wage; the fix moves fig3_3/variance_surface.csv past the "
                   "bench's artifact gate, so it waits for ROADMAP item 2's rebuild")
def test_single_period_variance_matches_distribution_where_effort_clamps():
    # fig3_3's cell (w0, p) = (0.9, 0.8): p + alpha*w0/(1+alpha) = 1.1 > 1
    contract = ContractParams(0.8, 0.5, 0.9)
    dist = propagate(best_response(contract, PREFS, Horizon(1)), contract, Horizon(1))[0]
    assert dist.variance() == pytest.approx(0.0036, abs=1e-12)
    assert single_period_variance(contract, PREFS.b) == pytest.approx(dist.variance(),
                                                                       abs=1e-12)


def test_variance_larger_when_underpaid():
    # holding other parameters fixed, w0 below the evaluated wage spreads more
    base = single_period_variance(ContractParams(0.2, 0.5, 0.3))
    under = single_period_variance(ContractParams(0.2, 0.5, 0.15))
    assert under > base


def test_solution_terminal_values(fig32_solution):
    sol = fig32_solution
    assert sol.phi[-1] == pytest.approx(1.0, abs=1e-9)
    assert sol.evaluated_wage[-1] == pytest.approx(0.3, abs=1e-9)
    assert responder(AffineEffortPolicy(sol))(10, 0.4)[0] == pytest.approx(0.2 + 0.4 / 3.0,
                                                                          abs=1e-6)


def test_phi_fit_matches_recursion(fig32_solution):
    sol = fig32_solution
    phi_exact = phi_series_recursive(FIG32["contract"], FIG32["prefs"],
                                     FIG32["horizon"])
    # the grid oracle quantizes the continuation derivative; agreement is at
    # grid accuracy, exact at the terminal period
    assert np.max(np.abs(sol.phi - phi_exact)) < 5e-4
    assert sol.phi[-1] == pytest.approx(1.0, abs=1e-9)
    assert phi_exact[-1] == 1.0


def test_phi_weakly_decreasing(fig32_solution):
    assert fig32_solution.phi_weakly_decreasing


def test_oracle_effort_matches_affine_policy(fig32_solution):
    sol = fig32_solution
    posed = np.isfinite(sol.value)
    respond = responder(AffineEffortPolicy(sol))
    for t in range(1, 11):
        affine = respond(t, sol.wage_grid)[0]
        gap = np.abs(affine - sol.raw_effort[t - 1])[posed[t - 1]]
        assert gap.max() < 1e-5


def test_evaluated_wage_independent_of_history(fig32_solution):
    sol = fig32_solution
    c = FIG32["contract"]
    posed = np.isfinite(sol.value)
    for t in range(1, 11):
        e = sol.raw_effort[t - 1]
        keep = (e < 1 - 1e-9) & posed[t - 1]
        w_eval = 1.5 * e[keep] - c.alpha * sol.wage_grid[keep]
        assert w_eval.max() - w_eval.min() < 1e-6


def test_stationarity_of_interior_optimum(fig32_solution):
    # derivative of the true period objective at the returned optimum, using
    # the exact log-linear continuation V'(x) = A/x + D from the recursion
    sol = fig32_solution
    c, prefs = FIG32["contract"], FIG32["prefs"]
    p, alpha, b, delta = c.p, c.alpha, prefs.b, prefs.delta
    T = FIG32["horizon"].T
    q = delta * (1 - p)
    S = [0.0] * (T + 2)
    for t in range(T, 0, -1):
        S[t] = 1.0 + q * S[t + 1]
    respond = responder(AffineEffortPolicy(sol))
    for t in (1, 5, 9):
        for w in (0.2, 0.4, 0.8):
            e_star = float(respond(t, w)[0])
            x = (1 + alpha) * e_star - alpha * w
            A_next = (1 - p) * S[t + 1]
            D_next = -(b * alpha / (1 + alpha)) * S[t + 1]
            deriv = (p * (1 + alpha) / x - b
                     + delta * p * (1 + alpha) * (A_next / x + D_next))
            assert abs(deriv) < 1e-4, (t, w, deriv)


def test_degenerate_base_wage_rejected():
    with pytest.raises(DomainError):
        solve_backward_induction(ContractParams(0.5, 0.5, 0.0),
                                 WorkerPrefs.additive(delta=0.9), Horizon(3))


def test_never_evaluated_worker_idles():
    contract = ContractParams(0.0, 0.5, 0.4)
    sol = solve_backward_induction(contract, WorkerPrefs.additive(delta=0.9),
                                   Horizon(4))
    respond = responder(AffineEffortPolicy(sol))
    for t in range(1, 5):
        assert respond(t, 0.4)[0] == 0.0
    interior = (sol.wage_grid > 0.05) & (sol.wage_grid < 1.4)
    assert np.all(sol.raw_effort[:, interior] < 1e-5)


def phi_series_closed_sum(contract, prefs, horizon):
    """Reference: the literal closed-sum phi variant, which reads the summation
    limits as sum_{s=t}^{T} (delta*(1-p))^{s-t}. It violates phi_T = 1
    whenever alpha*p > 0 and is undefined at p = 1."""
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


def test_always_evaluated_special_case():
    # p = 1 has no unevaluated branch; the penalty anchor makes phi sit below
    # one before the end (the oracle's phi reflects effort clamping, which the
    # unclamped recursion ignores at these parameters)
    contract = ContractParams(1.0, 0.5, 0.4)
    prefs = WorkerPrefs.additive(delta=0.9)
    sol = solve_backward_induction(contract, prefs, Horizon(5))
    phi_exact = phi_series_recursive(contract, prefs, Horizon(5))
    assert sol.phi[-1] == pytest.approx(1.0, abs=1e-9)
    assert np.all(sol.phi[:-1] < 1.0)
    assert np.all(phi_exact[:-1] < 1.0)
    with pytest.raises(DomainError):
        phi_series_closed_sum(contract, prefs, Horizon(5))


def test_closed_sum_variant_violates_terminal_normalization():
    # the literal closed-sum reading is kept as a diagnostic: it misses
    # phi_T = 1 whenever alpha * p > 0
    contract, prefs, horizon = FIG32["contract"], FIG32["prefs"], FIG32["horizon"]
    literal = phi_series_closed_sum(contract, prefs, horizon)
    assert abs(literal[-1] - 1.0) > 1e-3
    exact = phi_series_recursive(contract, prefs, horizon)
    assert exact[-1] == 1.0


def test_wage_support_structure():
    support = wage_support(best_response(FIG32["contract"], FIG32["prefs"],
                                         FIG32["horizon"]))
    assert len(support) == 11
    assert sum(p for (_, _, p) in support) == pytest.approx(1.0, abs=1e-12)
    w_last, t_last, p_last = support[-1]
    assert t_last == 10
    assert p_last == pytest.approx(0.2)
    assert w_last == pytest.approx(0.3, abs=1e-9)  # p(1+alpha)/b at the end
    assert support[0][0] == 0.4 and support[0][2] == pytest.approx(0.8 ** 10)


def test_wage_support_T1_matches_pair():
    contract = ContractParams(0.2, 0.5, 0.4)
    support = wage_support(best_response(contract, FIG32["prefs"], Horizon(1)))
    assert len(support) == 2
    assert support[0][0] == pytest.approx(0.4)
    assert support[1][0] == pytest.approx(0.3, abs=1e-9)
    assert support[1][2] == pytest.approx(0.2)


def test_deterministic_path_fixed_point_and_contraction():
    contract = ContractParams(1.0, 0.4, 0.5)
    assert deterministic_path(contract, [0.5] * 5) == pytest.approx([0.5] * 5)
    wages = deterministic_path(contract, [0.3] * 6)
    for t, w in enumerate(wages, start=1):
        assert abs(w - 0.3) == pytest.approx(0.4 ** t * 0.2, abs=1e-12)


def test_deterministic_path_growing_effort():
    # 5% effort growth from e0 = 0.3: first-period wage from the update rule
    contract = ContractParams(1.0, 0.4, 0.5)
    efforts = [0.3 * 1.05 ** t for t in range(1, 6)]
    wages = deterministic_path(contract, efforts)
    assert wages[0] == pytest.approx(0.241)
    assert len(wages) == 5


def test_profile_shape_matches_classic_pattern(fig32_solution):
    policy = AffineEffortPolicy(fig32_solution)
    dists = propagate(policy, FIG32["contract"], FIG32["horizon"])
    means = [d.mean() for d in dists]
    # rising with diminishing increments early, declining by the horizon
    assert means[1] > means[0]
    increments = np.diff(means[:6])
    assert np.all(np.diff(increments) < 0)
    assert means[-1] < max(means)


def test_alpha_one_fit_matches_recursion():
    # at alpha = 1 the default grid's top wage s(1+alpha) leaves no evaluated
    # consumption under full effort, so V_{t+1} is -inf in the top cell; the
    # first-order-condition root must read that -inf slope as too high a
    # wage instead of answering full effort (phi = 5.0 at every t < T)
    contract = ContractParams(0.2, 1.0, 0.4)
    prefs = WorkerPrefs.additive(delta=0.9)
    sol = solve_backward_induction(contract, prefs, Horizon(10))
    exact = phi_series_recursive(contract, prefs, Horizon(10))
    assert np.max(np.abs(sol.phi - exact)) <= 2e-4


def test_subnormal_p_takes_phi_from_recursion():
    # p * (1+alpha) * s is subnormal, so the fitted phi = W*b/(p(1+alpha)s)
    # overflows; phi and the evaluated wage come from the exact recursion
    import warnings

    contract = ContractParams(5e-324, 1.0, 0.5)
    prefs = WorkerPrefs.additive(delta=0.9)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sol = solve_backward_induction(contract, prefs, Horizon(4))
    phi_exact = phi_series_recursive(contract, prefs, Horizon(4))
    assert np.all(np.isfinite(sol.phi))
    assert np.array_equal(sol.phi, phi_exact)
    assert np.array_equal(sol.evaluated_wage, 2.0 * contract.p * phi_exact)


def interp_guarded_searchsorted(x, grid, values):
    """Reference: the sorted-search interpolation that the arithmetic cell
    lookup of _uniform_interpolant replaced."""
    x = np.asarray(x, dtype=float)
    idx = np.clip(np.searchsorted(grid, x) - 1, 0, len(grid) - 2)
    x0, x1 = grid[idx], grid[idx + 1]
    v0, v1 = values[idx], values[idx + 1]
    with np.errstate(invalid="ignore"):
        frac = np.where(x1 > x0, (x - x0) / (x1 - x0), 0.0)
        out = v0 + frac * (v1 - v0)
    bad = np.isneginf(v0) | np.isneginf(v1)
    return np.where(bad, -math.inf, out)


def period_objective_reference(contract, prefs, s, grid, log_grid, V_next):
    """Reference: the period objective as it was before its per-period terms
    were precomputed, interpolating by sorted search."""
    p, alpha = contract.p, contract.alpha
    b, delta = prefs.b, prefs.delta

    def objective(e):
        x = s * (1.0 + alpha) * e - alpha * grid
        with np.errstate(divide="ignore", invalid="ignore"):
            log_x = np.where(x > 0.0, np.log(np.maximum(x, 1e-300)), -math.inf)
        cont_eval = interp_guarded_searchsorted(np.clip(x, grid[0], grid[-1]), grid, V_next)
        cont_eval = np.where(x > 0.0, cont_eval, -math.inf)
        out = -b * e
        if p > 0.0:
            out = out + p * (log_x + delta * cont_eval)
        if p < 1.0:
            out = out + (1.0 - p) * (log_grid + delta * V_next)
        return out

    return objective


def oracle_tables_reference(sol):
    """(raw_effort, value) rebuilt in one backward pass from
    period_objective_reference, the affine policy from sol.evaluated_wage and
    the golden-section bracket of AdditiveSolution.raw_effort. The value
    table is only reproducible when evaluated_wage is the fitted one (p = 0
    or a p whose fitted phi is finite)."""
    c, prefs, s, grid = sol.contract, sol.prefs, sol.wage_scale, sol.wage_grid
    T, n = sol.value.shape
    log_grid = additive._log_grid(grid)
    if c.p > 0.0:
        lo = np.minimum(c.alpha * grid / ((1.0 + c.alpha) * s) + 1e-12, 1.0)
    else:
        lo = np.zeros(n)
    raw, value = np.zeros((T, n)), np.zeros((T, n))
    V_next = np.zeros(n)
    for t in range(T, 0, -1):
        objective = period_objective_reference(c, prefs, s, grid, log_grid, V_next)
        raw[t - 1], _ = golden_max_vec(objective, lo, np.ones(n),
                                       tol=additive.EFFORT_TOLERANCE)
        if c.p > 0.0:
            e_pol = np.clip((sol.evaluated_wage[t - 1] + c.alpha * grid)
                            / ((1.0 + c.alpha) * s), 0.0, 1.0)
        else:
            e_pol = np.zeros(n)
        value[t - 1] = V_next = objective(e_pol)
    return raw, value


def hex_list(a):
    return [v.hex() for v in np.asarray(a, dtype=float).ravel().tolist()]


@settings(max_examples=150, deadline=None)
@given(n=st.integers(2, 20001), cap=st.floats(0.1, 3.0),
       start=st.one_of(st.just(0.0), st.floats(-2.0, 2.0)), seed=st.integers(0, 2 ** 32 - 1),
       neg_inf_share=st.sampled_from([0.0, 0.05, 0.5, 1.0]),
       extra=st.lists(st.floats(-6.0, 9.0), max_size=8))
@example(n=15001, cap=1.5, start=0.0, seed=0, neg_inf_share=0.0, extra=[])  # fig3_2 grid
@example(n=20001, cap=3.0, start=0.0, seed=1, neg_inf_share=0.05, extra=[-0.0, 3.0, 1e-300])
@example(n=2, cap=0.1, start=0.0, seed=2, neg_inf_share=0.5, extra=[0.05, -1.0, 0.2])
# (x - g0)/h rounds down into the cell below x's: the one step up is needed
@example(n=3978, cap=1.6987090442367048, start=-1.304845125090036, seed=3,
         neg_inf_share=0.0, extra=[-0.1639721411432826])
def test_uniform_lookup_matches_sorted_search(n, cap, start, seed, neg_inf_share, extra):
    # the arithmetic cell lookup must give the sorted search's bits: at grid
    # points, at their float neighbours, between points, outside the grid and
    # beside -inf cells; a grid starting at 0 never needs the step up, so
    # other starts are drawn too
    grid = np.linspace(start, start + cap, n)
    rng = np.random.default_rng(seed)
    values = rng.uniform(-50.0, 50.0, n)
    values[rng.random(n) < neg_inf_share] = -math.inf
    at = grid[rng.integers(0, n, 64)]
    inner = rng.integers(0, n - 1, 64)
    between = np.concatenate([(grid[inner] + grid[inner + 1]) / 2.0,
                              grid[inner] + rng.random(64) * (grid[inner + 1] - grid[inner])])
    outside = np.concatenate([rng.uniform(grid[0] - cap, grid[0], 8),
                              rng.uniform(grid[-1], grid[-1] + cap, 8)])
    x = np.concatenate([grid[[0, -1]], at, np.nextafter(at, -math.inf),
                        np.nextafter(at, math.inf), between, outside, extra])
    interp = _uniform_interpolant(grid, values)
    got = interp(x)
    assert hex_list(got) == hex_list(interp_guarded_searchsorted(x, grid, values))
    for xi in x[:: max(1, len(x) // 16)]:  # scalar input reads the same cell
        assert float(interp(xi)).hex() == float(
            interp_guarded_searchsorted(xi, grid, values)).hex()


@pytest.mark.parametrize("grid", [
    np.array([0.0]), np.array([]), np.geomspace(0.01, 1.5, 50),
    np.linspace(1.5, 0.0, 50), np.full(4, 0.5), np.linspace(0.0, 1.5, 50)[::2].repeat(2),
    np.array([0.0, 0.5, 1.0 + 1e-12, 1.5]), np.linspace(0.0, 1.5, 12).reshape(3, 4),
    np.array([0.0, math.nan, 1.5])])
def test_non_uniform_wage_grid_rejected(grid):
    with pytest.raises(ValueError, match="strictly increasing np.linspace"):
        solve_backward_induction(FIG32["contract"], FIG32["prefs"], Horizon(2),
                                 wage_grid=grid)


def test_uniform_wage_grid_accepted_as_list():
    grid = np.linspace(0.0, 1.5, 7)
    sol = solve_backward_induction(FIG32["contract"], FIG32["prefs"], Horizon(2),
                                   wage_grid=grid.tolist())
    assert np.array_equal(sol.wage_grid, grid)


def test_oracle_tables_match_reference_objective_fig32(fig32_solution):
    raw, value = oracle_tables_reference(fig32_solution)
    assert np.array_equal(fig32_solution.value, value)
    assert np.array_equal(fig32_solution.raw_effort, raw)


@settings(max_examples=60, deadline=None)
@given(p=st.one_of(st.just(0.0), st.just(1.0), st.floats(1e-3, 1.0)),
       alpha=st.one_of(st.just(0.0), st.floats(0.0, 1.0)), w0=st.floats(0.05, 2.0),
       delta=st.floats(0.05, 0.99), b=st.floats(0.5, 2.0), s=st.floats(0.5, 1.5),
       T=st.integers(1, 4), n=st.integers(2, 80), cap=st.floats(0.1, 3.0))
def test_oracle_tables_match_reference_objective(p, alpha, w0, delta, b, s, T, n, cap):
    # p >= 1e-3 keeps the fitted phi finite, so evaluated_wage is the root
    # one that the value table was built from (a subnormal p replaces it by
    # the recursion's, test_subnormal_p_takes_phi_from_recursion)
    sol = solve_backward_induction(ContractParams(p, alpha, w0),
                                   WorkerPrefs.additive(delta=delta, b=b), Horizon(T),
                                   wage_grid=np.linspace(0.0, cap, n), wage_scale=s)
    raw, value = oracle_tables_reference(sol)
    assert np.array_equal(sol.value, value)
    assert np.array_equal(sol.raw_effort, raw)


@settings(max_examples=60, deadline=None)
@given(p=st.floats(1e-3, 1.0), alpha=st.floats(0.0, 1.0), delta=st.floats(0.05, 0.99),
       b=st.floats(0.5, 2.0), s=st.floats(0.1, 1.5), T=st.integers(1, 4),
       n=st.integers(2, 6), top=st.floats(0.1, 3.0))
@example(p=0.5, alpha=0.0, delta=0.9, b=1.0, s=0.5, T=2, n=2, top=3.0)
def test_oracle_evaluated_wage_within_the_cap(p, alpha, delta, b, s, T, n, top):
    # a coarse grid can put grid[1] above the largest attainable evaluated
    # wage s(1+alpha); the fitted evaluated wage must stay at or below it
    sol = solve_backward_induction(ContractParams(p, alpha, 0.5),
                                   WorkerPrefs.additive(delta=delta, b=b), Horizon(T),
                                   wage_grid=np.linspace(0.0, top, n), wage_scale=s)
    assert np.all(sol.evaluated_wage <= s * (1.0 + alpha))


def test_oracle_table_is_built_only_when_read(monkeypatch):
    calls = []

    def counting_golden(*args, **kwargs):
        calls.append(1)
        return golden_max_vec(*args, **kwargs)

    monkeypatch.setattr(additive, "golden_max_vec", counting_golden)
    contract, prefs, horizon = FIG32["contract"], FIG32["prefs"], Horizon(4)
    grid = np.linspace(0.0, 1.5, 601)
    sol = solve_backward_induction(contract, prefs, horizon, wage_grid=grid)
    assert calls == []
    table = sol.raw_effort
    assert len(calls) == horizon.T
    assert sol.raw_effort is table  # cached after the first read
    assert len(calls) == horizon.T

    # the table and the values match one backward pass of the reference objective
    raw, value = oracle_tables_reference(sol)
    assert np.array_equal(table, raw)
    assert np.array_equal(sol.value, value)
