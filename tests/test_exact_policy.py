"""The additive worker's exact policy (employer.worker_policy) against a
brute-force dynamic program that shares none of its derivation.

The brute force solves V_t on a uniform wage grid of N_GRID points on [0, W]
by maximising over efforts directly. At wage w it tries every effort whose
evaluated wage x = S*e - alpha*w (S = s(1+alpha)) is a grid point, which is an
effort grid of spacing h/S, plus full effort. The effort-dependent part of
the period objective p*ln(x) - b*e + delta*p*V_{t+1}(x) is
F(x) - b*alpha*w/S with F(x) = p*ln(x) + delta*p*V_{t+1}(x) - b*x/S, so the
max over the grid candidates is a running max of F along the grid; full
effort reads V_{t+1} at S - alpha*w by linear interpolation. It uses neither
the first-order condition nor the envelope recursion.

Its resolution, fixed from the grid before any comparison: one grid cell h in
evaluated wage for the candidate spacing and one for the continuation read
between grid points, that is 2h/S in effort.
"""
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from wagedyn import ContractParams, FirmParams, Horizon, WorkerPrefs, phi_series_recursive
from wagedyn.additive import (best_response, best_responses, dead_corner,
                              envelope_evaluated_wages)
from wagedyn.checks import load_scenario
from wagedyn.distribution import responder
from wagedyn.employer import worker_policy

N_GRID = 8001


def _interp(grid, values, x):
    """Linear interpolation on the uniform grid; -inf where either end of x's
    cell is -inf."""
    h = grid[1] - grid[0]
    i = np.clip(np.floor(x / h).astype(int), 0, len(grid) - 2)
    v0, v1 = values[i], values[i + 1]
    with np.errstate(invalid="ignore"):
        out = v0 + (x - grid[i]) / h * (v1 - v0)
    return np.where(np.isneginf(v0) | np.isneginf(v1), -np.inf, out)


def brute_force_effort(contract, prefs, T, s, W):
    """(effort(t, w), h): the brute-force best effort at period t and wage w,
    and the grid step."""
    p, alpha, b, delta = contract.p, contract.alpha, prefs.b, prefs.delta
    S = s * (1.0 + alpha)
    grid = np.linspace(0.0, W, N_GRID)
    with np.errstate(divide="ignore"):
        log_grid = np.log(grid)
    V = np.zeros(N_GRID)
    tables = {}
    for t in range(T, 0, -1):
        with np.errstate(invalid="ignore"):
            F = np.where(grid <= S, p * log_grid + p * delta * V - b * grid / S, -np.inf)
        tables[t] = (F, V)
        y = S - alpha * grid  # evaluated wage at full effort
        k = np.searchsorted(grid, y, side="right") - 1
        best = np.where(k >= 0, np.maximum.accumulate(F)[np.maximum(k, 0)], -np.inf)
        with np.errstate(divide="ignore", invalid="ignore"):
            full = np.where(y > 0.0, p * np.log(np.maximum(y, 1e-300))
                            + p * delta * _interp(grid, V, np.clip(y, 0.0, W)) - b * y / S,
                            -np.inf)
            value = np.maximum(best, full) - b * alpha * grid / S
            if p < 1.0:
                value = value + (1.0 - p) * (log_grid + delta * V)
        V = np.where(np.isnan(value), -np.inf, value)

    def effort(t, w):
        F, V_next = tables[t]
        y = S - alpha * w
        i = int(np.argmax(F[:np.searchsorted(grid, y, side="right")]))
        full = p * math.log(y) + p * delta * float(_interp(grid, V_next, np.array([y]))[0]) \
            - b * y / S
        return 1.0 if full > F[i] else (grid[i] + alpha * w) / S

    return effort, grid[1] - grid[0]


def check_against_brute_force(p, alpha, s, b, delta, T, w0):
    """Compares the exact policy with the brute force on every state reachable
    from w0 and on both sides of each period's clamp threshold; returns the
    number of clamped states compared."""
    contract = ContractParams(p, alpha, w0)
    prefs = WorkerPrefs.additive(delta=delta, b=b)
    firm = FirmParams(k=s / 0.5, lam=0.5, c=0.0, eta=0.9)  # wage scale s
    respond = responder(worker_policy(contract, prefs, Horizon(T), firm))
    S = s * (1.0 + alpha)
    W = 1.05 * max(S, w0)
    effort, h = brute_force_effort(contract, prefs, T, s, W)
    tol = 2.0 * h / S
    states = np.array([w0])
    clamped = 0
    for t in range(1, T + 1):
        probes = list(states)
        if alpha > 0.0:
            # the wage at which period t's effort reaches 1
            threshold = (S - float(respond(t, 0.0)[1])) / alpha
            probes += [w for w in (threshold - 8 * h, threshold + 8 * h) if h < w < W - h]
        for w in probes:
            e = float(respond(t, w)[0])
            if dead_corner(alpha, w, s):
                assert e == 0.0  # the worker idles: no effort helps there
                continue
            clamped += e == 1.0
            assert abs(e - effort(t, w)) <= tol, (t, w, e, effort(t, w))
        states = np.unique(np.concatenate([states, respond(t, states)[1]]))
    return clamped


@pytest.mark.parametrize("p, alpha, w0", [(0.75, 0.5, 0.5), (1.0, 1.0, 1.0)])
def test_exact_policy_matches_brute_force_on_chain_clamped_rows(p, alpha, w0):
    # rows of the benchmark's additive contract search (bench/workloads.py,
    # seed 77) whose evaluated wages clamp; a 241-point grid solve used to
    # answer these
    s, b, delta, T = 1.2, 1.0, 0.9, 10
    contract = ContractParams(p, alpha, w0)
    prefs = WorkerPrefs.additive(delta=delta, b=b)
    phi = phi_series_recursive(contract, prefs, Horizon(T))
    x = s * (1.0 + alpha) * (p / b) * phi
    assert np.any((p / b) * phi[:, None] + alpha / (1.0 + alpha) * x[None, :] / s > 1.0)
    assert check_against_brute_force(p, alpha, s, b, delta, T, w0) > 0


@settings(max_examples=30, deadline=None)
@given(p=st.one_of(st.just(1.0), st.floats(0.05, 1.0)),
       alpha=st.one_of(st.just(1.0), st.floats(0.0, 1.0)),
       S=st.floats(1.5, 2.5), b=st.floats(0.5, 2.0), delta=st.floats(0.5, 0.95),
       T=st.integers(1, 10), w0=st.floats(0.05, 3.0))
@example(p=0.75, alpha=0.5, S=1.8, b=1.0, delta=0.9, T=10, w0=2.0)
@example(p=1.0, alpha=1.0, S=2.4, b=1.0, delta=0.9, T=10, w0=2.4)  # w0 in the dead corner
@example(p=0.2, alpha=1.0, S=2.0, b=1.0, delta=0.9, T=10, w0=0.4)
def test_exact_policy_matches_brute_force(p, alpha, S, b, delta, T, w0):
    # S = s(1+alpha) >= 1.5 keeps the evaluated wages well inside the grid
    check_against_brute_force(p, alpha, S / (1.0 + alpha), b, delta, T, w0)


@settings(max_examples=40, deadline=None)
@given(p=st.floats(0.05, 1.0), alpha=st.floats(0.0, 1.0), s=st.floats(0.5, 2.0),
       b=st.floats(0.5, 2.0), delta=st.floats(0.5, 0.95), T=st.integers(1, 12))
def test_envelope_recursion_reduces_to_phi_recursion_when_unclamped(p, alpha, s, b, delta, T):
    # where no evaluated wage clamps, both exact solutions hold
    contract = ContractParams(p, alpha, 0.5)
    prefs = WorkerPrefs.additive(delta=delta, b=b)
    phi = phi_series_recursive(contract, prefs, Horizon(T))
    x = s * (1.0 + alpha) * (p / b) * phi
    if np.any((p / b) * phi[:, None] + alpha / (1.0 + alpha) * x[None, :] / s > 1.0):
        return
    envelope = envelope_evaluated_wages(contract, prefs, Horizon(T), s)
    np.testing.assert_allclose(envelope, x, rtol=1e-12, atol=0.0)


@settings(max_examples=200, deadline=None)
@given(p=st.one_of(st.just(1.0), st.floats(1e-6, 1.0)),
       alpha=st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0)),
       s=st.floats(0.5, 2.0), b=st.floats(0.5, 2.0), delta=st.floats(0.5, 0.95),
       T=st.integers(1, 14))
@example(p=1.0, alpha=0.4, s=1.0, b=1.0, delta=0.9, T=5)  # fig3_1: x*_5 = 1.4
def test_last_envelope_root_is_the_rounded_closed_form(p, alpha, s, b, delta, T):
    # g_T(x) = p/x - b/S has the root p*S/b, clipped to S; the largest float
    # with g_T >= 0 lies within 2 ulps of its rounding (1 below to 2 above
    # on 2000 random firms)
    S = s * (1.0 + alpha)
    x_T = envelope_evaluated_wages(ContractParams(p, alpha, 0.5),
                                   WorkerPrefs.additive(delta=delta, b=b), Horizon(T), s)[-1]
    exact = min(p * S / b, S)
    assert abs(x_T - exact) <= 2.0 * math.ulp(exact)


def test_fig3_1_last_root_is_exact():
    # p = 1, alpha = 0.4, s = 1, b = 1: x*_5 = p*S/b = 1.4
    sc = load_scenario("fig3_1")
    assert envelope_evaluated_wages(sc.contract, sc.prefs, sc.horizon)[-1] == 1.4


def phi_loop_reference(p, alpha, delta, T):
    """phi_series_recursive as it was before the array recursion: one scalar
    row, S_t built by a loop and phi_t by a list."""
    q = delta * (1.0 - p)
    S = np.zeros(T + 2)
    for t in range(T, 0, -1):
        S[t] = 1.0 + q * S[t + 1]
    return np.array([S[t] / (1.0 + alpha * delta * p * S[t + 1]) for t in range(1, T + 1)])


edge = st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0))


@settings(max_examples=60, deadline=None)
@given(rows=st.lists(st.tuples(edge, edge), min_size=1, max_size=6),
       s=st.one_of(st.just(1.0), st.floats(0.3, 2.5)), b=st.sampled_from([0.25, 1.0, 2.0]),
       delta=st.floats(0.3, 0.99), T=st.integers(1, 12))
@example(rows=[(0.75, 0.5), (0.2, 0.5), (1.0, 1.0), (0.0, 1.0), (1.0, 0.0), (0.0, 0.0)],
         s=1.2, b=1.0, delta=0.9, T=10)  # clamped bench rows among unclamped ones
@example(rows=[(1.0, 0.4)], s=1.0, b=1.0, delta=0.9, T=5)  # fig3_1, clamped
def test_array_solve_rows_equal_one_row_solves(rows, s, b, delta, T):
    # best_responses runs phi and the clamp check for all rows at once, and
    # the envelope recursion for the clamped ones: each row's phi is its
    # one-row solve's to the bit, and an unclamped row keeps the phi of the
    # scalar loop the array recursion replaced
    prefs = WorkerPrefs.additive(delta=delta, b=b)
    contracts = [ContractParams(p, alpha, 0.5) for p, alpha in rows]
    policies = best_responses(contracts, prefs, Horizon(T), s)
    assert len(policies) == len(contracts)
    for contract, policy in zip(contracts, policies):
        one = best_response(contract, prefs, Horizon(T), s)
        assert policy.contract == contract and policy.wage_scale == s and policy.b == b
        assert policy.phi.tobytes() == one.phi.tobytes()
        loop = phi_loop_reference(contract.p, contract.alpha, delta, T)
        assert phi_series_recursive(contract, prefs, Horizon(T)).tobytes() == loop.tobytes()
        # the scalar clamp check: some affine effort at an evaluated wage
        # leaves [0, 1]; only then the envelope recursion's roots
        p, alpha = contract.p, contract.alpha
        wages = [(p / b) * (1.0 + alpha) * s * ph for ph in loop]
        if all(0.0 <= (p / b) * ph + alpha / (1.0 + alpha) * w / s <= 1.0
               for ph in loop for w in wages):
            expected = loop
        else:
            x = envelope_evaluated_wages(contract, prefs, Horizon(T), s)
            expected = x * b / (p * (1.0 + alpha) * s)
        assert policy.phi.tobytes() == expected.tobytes()
