import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wagedyn import additive
from wagedyn import (AffineEffortPolicy, ContractParams, DomainError, Horizon,
                     WorkerPrefs, deterministic_path, phi_series_recursive,
                     propagate, single_period_effort, single_period_variance,
                     single_period_wage_pair, solve_backward_induction,
                     wage_support)
from wagedyn.additive import _interp_guarded, _interp_guarded_float, phi_series_closed_sum
from wagedyn.golden import golden_max_vec

FIG32 = dict(contract=ContractParams(0.2, 0.5, 0.4),
             prefs=WorkerPrefs.additive(delta=0.9), horizon=Horizon(10))


@pytest.fixture(scope="module")
def fig32_solution():
    return solve_backward_induction(FIG32["contract"], FIG32["prefs"],
                                    FIG32["horizon"], effort_tolerance=1e-7)


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
    e = single_period_effort(contract)
    assert e == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert e == pytest.approx(brute_force_effort(contract), abs=1e-5)


def test_single_period_effort_corners():
    assert single_period_effort(ContractParams(0.0, 0.0, 0.0)) == 0.0
    assert single_period_effort(ContractParams(1.0, 0.0, 0.0)) == 1.0
    # no bonus rate: effort equals the sampling odds regardless of the base wage
    assert single_period_effort(ContractParams(0.3, 0.0, 0.7)) == pytest.approx(0.3)
    # clamped above one
    assert single_period_effort(ContractParams(1.0, 1.0, 1.0)) == 1.0


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


def test_single_period_variance():
    assert single_period_variance(ContractParams(0.0, 0.5, 0.4)) == 0.0
    assert single_period_variance(ContractParams(1.0, 0.5, 0.4)) == 0.0
    assert single_period_variance(ContractParams(0.2, 0.5, 0.4)) == pytest.approx(0.0016)
    # both outcomes equal: p(1+alpha) = w0
    assert single_period_variance(ContractParams(0.2, 0.5, 0.3)) == pytest.approx(0.0)


def test_variance_larger_when_underpaid():
    # holding other parameters fixed, w0 below the evaluated wage spreads more
    base = single_period_variance(ContractParams(0.2, 0.5, 0.3))
    under = single_period_variance(ContractParams(0.2, 0.5, 0.15))
    assert under > base


def test_solution_terminal_values(fig32_solution):
    sol = fig32_solution
    assert sol.phi[-1] == pytest.approx(1.0, abs=1e-9)
    assert sol.evaluated_wage[-1] == pytest.approx(0.3, abs=1e-9)
    assert sol.effort(10, 0.4) == pytest.approx(0.2 + 0.4 / 3.0, abs=1e-6)


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
    grid = sol.wage_grid
    for t in range(1, 11):
        affine = np.array([sol.effort(t, w) for w in grid])
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
    for t in (1, 5, 9):
        for w in (0.2, 0.4, 0.8):
            e_star = sol.effort(t, w)
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
    for t in range(1, 5):
        assert sol.effort(t, 0.4) == 0.0
    interior = (sol.wage_grid > 0.05) & (sol.wage_grid < 1.4)
    assert np.all(sol.raw_effort[:, interior] < 1e-5)


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


def test_wage_support_structure(fig32_solution):
    support = wage_support(FIG32["contract"], FIG32["prefs"], FIG32["horizon"],
                           solution=fig32_solution)
    assert len(support) == 11
    assert sum(p for (_, _, p) in support) == pytest.approx(1.0, abs=1e-12)
    w_last, t_last, p_last = support[-1]
    assert t_last == 10
    assert p_last == pytest.approx(0.2)
    assert w_last == pytest.approx(0.3, abs=1e-9)  # p(1+alpha)/b at the end
    assert support[0][0] == 0.4 and support[0][2] == pytest.approx(0.8 ** 10)


def test_wage_support_T1_matches_pair():
    contract = ContractParams(0.2, 0.5, 0.4)
    support = wage_support(contract, FIG32["prefs"], Horizon(1))
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


grid_values = st.lists(st.one_of(st.floats(-50.0, 50.0), st.just(-math.inf)),
                       min_size=2, max_size=12)


@settings(max_examples=200, deadline=None)
@given(values=grid_values, cap=st.floats(0.1, 3.0), data=st.data())
def test_float_interpolation_matches_array_interpolation(values, cap, data):
    # the first-order condition interpolates on Python floats; it must agree
    # bit for bit with _interp_guarded, at the grid ends and beside -inf cells
    grid = np.linspace(0.0, cap, len(values))
    vals = np.array(values)
    i = data.draw(st.integers(0, len(values) - 2))
    x = data.draw(st.one_of(st.just(grid[0]), st.just(grid[-1]), st.just(grid[i]),
                            st.floats(grid[i], grid[i + 1]),
                            st.floats(0.0, cap)))
    expected = float(_interp_guarded(x, grid, vals))
    got = _interp_guarded_float(float(x), grid.tolist(), vals.tolist())
    assert got.hex() == expected.hex()


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

    # rebuild value and table inline, the way one backward pass computes both
    s, alpha = sol.wage_scale, contract.alpha
    log_grid = additive._log_grid(grid)
    lo = np.minimum(alpha * grid / ((1.0 + alpha) * s) + 1e-12, 1.0)
    V_next = np.zeros(len(grid))
    for t in range(horizon.T, 0, -1):
        objective = additive._period_objective(contract, prefs, s, grid, log_grid, V_next)
        e_raw, _ = golden_max_vec(objective, lo, np.ones(len(grid)),
                                  tol=sol.effort_tolerance)
        assert np.array_equal(table[t - 1], e_raw)
        e_pol = np.clip((sol.evaluated_wage[t - 1] + alpha * grid) / ((1.0 + alpha) * s),
                        0.0, 1.0)
        V_next = objective(e_pol)
        assert np.array_equal(sol.value[t - 1], V_next)
