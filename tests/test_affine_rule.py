"""The affine additive effort rule, the policy types' one response and the
one-period profit against the spellings they replaced.

Each reference below is a verbatim copy of an earlier implementation. The
policies share the rule's operation order and must agree bit for bit (compared
with float.hex), except in the dead corner s(1+alpha) - alpha*w <= 0, where the
old policies kept full effort and the policy now idles. A policy answers
through its type's stack, one policy as the one-row case (distribution.
responder); the per-policy methods that answered before it are kept here as
references and must agree with it bit for bit, in both families. The
one-period profit and the sweep's effort used to compute
alpha*w0/((1+alpha)*s) where the rule computes alpha/(1+alpha)*w0/s; they are
held to an error bound fixed from that reordering: a few roundings of the
effort's terms, carried through the wage and profit arithmetic.
"""
import math
import re
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from wagedyn import (AffineEffortPolicy, AffinePolicy, ContractParams, FirmParams,
                     Horizon, TableEffortPolicy, WorkerPrefs, optimal_effort,
                     solve_policy, tech_sweep)
from wagedyn.additive import _phi_at
from wagedyn.distribution import responder
from wagedyn.employer import _one_period_profit
from wagedyn.model import affine_response, dead_corner

EPS = np.finfo(float).eps
ZERO = (0.0).hex()


# ---------------------------------------------------------------------------
# references


class OldAffineEffortPolicy:
    def __init__(self, solution):
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


class OldRecursiveAffinePolicy:
    def __init__(self, contract, prefs, horizon, wage_scale, phi):
        self.contract = contract
        self.prefs = prefs
        self.horizon = horizon
        self.wage_scale = wage_scale
        self.phi = phi

    def effort(self, t: int, prev_wage):
        c = self.contract
        w = np.asarray(prev_wage, dtype=float)
        if c.p == 0.0:
            return np.zeros_like(w)
        e = (c.p / self.prefs.b) * self.phi[t - 1] \
            + c.alpha / (1.0 + c.alpha) * w / self.wage_scale
        return np.clip(e, 0.0, 1.0)

    def next_wage_if_evaluated(self, t: int, prev_wage):
        c = self.contract
        w = np.asarray(prev_wage, dtype=float)
        e = self.effort(t, prev_wage)
        return np.maximum(self.wage_scale * (1.0 + c.alpha) * e - c.alpha * w, 0.0)

    def bonus_if_evaluated(self, t: int, prev_wage):
        return np.zeros_like(np.asarray(prev_wage, dtype=float))


class AffinePolicyMethods:
    """AffinePolicy's per-policy answers as they were before stack became the
    policy type's one response."""

    def __init__(self, policy):
        self.contract = policy.contract
        self.b = policy.b
        self.wage_scale = policy.wage_scale
        self.phi = policy.phi

    def effort(self, t: int, prev_wage):
        c = self.contract
        return affine_response(c.p, c.alpha, prev_wage, _phi_at(self.phi, t), self.b,
                                self.wage_scale)[0]

    def next_wage_if_evaluated(self, t: int, prev_wage):
        c = self.contract
        return affine_response(c.p, c.alpha, prev_wage, _phi_at(self.phi, t), self.b,
                                self.wage_scale)[1]

    def bonus_if_evaluated(self, t: int, prev_wage):
        return np.zeros_like(np.asarray(prev_wage, dtype=float))


class TableEffortPolicyMethods:
    """TableEffortPolicy's per-policy answers as they were before stack became
    the policy type's one response."""

    def __init__(self, policy: TableEffortPolicy):
        self.policy = policy.policy
        self.contract = policy.contract

    def _efforts(self, t: int, prev_wage):
        return self.policy.table[t - 1, self.policy.grid.index(np.atleast_1d(prev_wage))]

    def effort(self, t: int, prev_wage):
        out = self._efforts(t, prev_wage)
        return out if np.ndim(prev_wage) else float(out[0])

    def next_wage_if_evaluated(self, t: int, prev_wage):
        out = self._efforts(t, prev_wage)
        return out if np.ndim(prev_wage) else float(out[0])

    def bonus_if_evaluated(self, t: int, prev_wage):
        w = np.atleast_1d(np.asarray(prev_wage, dtype=float))
        out = self.contract.alpha * (self._efforts(t, prev_wage) - w)
        return out if np.ndim(prev_wage) else float(out[0])


METHODS = ("effort", "next_wage_if_evaluated", "bonus_if_evaluated")


def old_single_period_effort(contract, b=1.0, wage_scale=1.0):
    e = contract.p / b + contract.alpha / (1.0 + contract.alpha) * contract.w0 / wage_scale
    return min(max(e, 0.0), 1.0)


def old_one_period_profit(p, alpha, w0, firm, b=1.0):
    s = firm.wage_scale
    if w0 <= 0.0 and p < 1.0:
        return -math.inf
    if p == 0.0:
        e = 0.0
        x = 0.0
    else:
        cap = s * (1.0 + alpha) - alpha * w0  # evaluated consumption at e = 1
        if cap <= 0.0:
            # no effort yields positive evaluated consumption; no reason to work
            e, x = 0.0, 0.0
        else:
            e = min(p / b + alpha * w0 / ((1.0 + alpha) * s), 1.0)
            x = max(s * (1.0 + alpha) * e - alpha * w0, 0.0)
    return firm.k * e - (p * x + (1.0 - p) * w0 + p * firm.c)


def old_one_period_profit_row(p, alpha, w0, firm, b=1.0):
    s = firm.wage_scale
    alpha = np.asarray(alpha, dtype=float)
    w0 = np.asarray(w0, dtype=float)
    if p == 0.0:
        e = x = np.zeros(np.broadcast_shapes(alpha.shape, w0.shape))
    else:
        cap = s * (1.0 + alpha) - alpha * w0
        e = np.minimum(p / b + alpha * w0 / ((1.0 + alpha) * s), 1.0)
        x = np.maximum(s * (1.0 + alpha) * e - alpha * w0, 0.0)
        dead = cap <= 0.0
        e = np.where(dead, 0.0, e)
        x = np.where(dead, 0.0, x)
    out = firm.k * e - (p * x + (1.0 - p) * w0 + p * firm.c)
    if p < 1.0:
        out = np.where(w0 <= 0.0, -math.inf, out)
    return out


def old_sweep_effort_and_wage(p, a, w0, s):
    e = min(p + a * w0 / ((1.0 + a) * s), 1.0)
    x = max(s * (1.0 + a) * e - a * w0, 0.0)
    return e, x


# ---------------------------------------------------------------------------
# draws


def hexes(values):
    return [float(v).hex() for v in np.ravel(values)]


@st.composite
def contracts(draw, s):
    """p in [0, 1] with both ends, alpha in [0, 1], w0 from 0 to beyond the
    wage s(1+alpha)/alpha at which full effort leaves no evaluated consumption."""
    p = draw(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)))
    if draw(st.booleans()):
        # alpha away from 0 keeps that wage finite
        alpha = draw(st.floats(1e-3, 1.0))
        w0 = s * (1.0 + alpha) / alpha * draw(st.floats(1.0, 3.0))
    else:
        alpha = draw(st.floats(0.0, 1.0))
        w0 = draw(st.one_of(st.just(0.0), st.floats(0.0, 4.0)))
    return ContractParams(p, alpha, w0)


scales = st.floats(0.1, 3.0)
b_values = st.floats(0.1, 3.0)
phis = st.lists(st.floats(0.01, 5.0), min_size=1, max_size=6)


def within_reorder_bound(new, old, scale):
    """|new - old| <= 16 eps * scale, or the same infinity."""
    if not math.isfinite(old):
        return new == old
    return abs(new - old) <= 16 * EPS * scale


# ---------------------------------------------------------------------------
# policies: bit for bit


@settings(max_examples=200, deadline=None)
@given(data=st.data(), s=scales, b=b_values, phi=phis)
def test_affine_policy_matches_old_policies_bit_for_bit(data, s, b, phi):
    contract = data.draw(contracts(s))
    phi = np.array(phi)
    t = data.draw(st.integers(1, len(phi)))
    wages = np.array(data.draw(st.lists(st.floats(0.0, 4.0), min_size=1, max_size=8))
                     + [contract.w0])
    prefs = SimpleNamespace(b=b)
    solution = SimpleNamespace(contract=contract, prefs=prefs, horizon=None,
                               wage_scale=s, phi=phi)
    new_policies = (AffinePolicy(contract, b, s, phi), AffineEffortPolicy(solution))
    old_policies = (OldRecursiveAffinePolicy(contract, prefs, None, s, phi),
                    OldAffineEffortPolicy(solution))
    for new in new_policies:
        respond = responder(new)
        for old in old_policies:
            for w in (wages, contract.w0):
                # in the dead corner the worker idles: e = x = bonus = 0 exactly
                dead = np.ravel(dead_corner(contract.alpha, np.asarray(w), s)).tolist()
                for answer, method in zip(respond(t, w), METHODS, strict=True):
                    got = hexes(answer)
                    want = hexes(getattr(old, method)(t, w))
                    for g, o, d in zip(got, want, dead, strict=True):
                        assert g == (ZERO if d else o), (method, w)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), b=b_values)
def test_single_period_rules_match_old_spelling_bit_for_bit(data, b):
    # the statics run at unit wage scale and take the worker's response: the
    # old clipped rule where p > 0 outside the dead corner, and no effort at
    # p = 0 and in the dead corner, where the old spelling kept the rule
    contract = data.draw(contracts(1.0))
    effort = optimal_effort(contract, WorkerPrefs.additive(delta=0.9, b=b))
    if contract.p == 0.0 or dead_corner(contract.alpha, contract.w0, 1.0):
        assert effort.hex() == ZERO
    else:
        assert effort.hex() == old_single_period_effort(contract, b).hex()


def test_affine_policy_rejects_periods_outside_horizon():
    policy = AffinePolicy(ContractParams(0.2, 0.5, 0.4), 1.0, 1.0, [1.2, 1.1, 1.0])
    respond = responder(policy)
    for t in (0, 4):
        for w in (0.4, np.array([0.4, 0.5])):
            with pytest.raises(ValueError, match=f"period {t} outside 1..3"):
                respond(t, w)


CD_PREFS = WorkerPrefs.cobb_douglas(delta=0.9, gamma=0.4, beta=0.6)


def assert_same_answers(respond, methods, t, w):
    """respond(t, w) equals the three per-policy answers bit for bit, in
    shape too (a scalar wage gives scalars)."""
    for answer, method in zip(respond(t, w), METHODS, strict=True):
        want = getattr(methods, method)(t, w)
        assert np.shape(answer) == np.shape(want), method
        assert hexes(answer) == hexes(want), (method, t, w)


def assert_same_error(call, reference_call):
    with pytest.raises(ValueError) as want:
        reference_call()
    with pytest.raises(ValueError, match=f"^{re.escape(str(want.value))}$"):
        call()


@settings(max_examples=150, deadline=None)
@given(data=st.data(), s=scales, b=b_values, phi=phis)
def test_responder_matches_deleted_affine_methods_bit_for_bit(data, s, b, phi):
    contract = data.draw(contracts(s))  # p = 0 and 1 among them
    wages = data.draw(st.lists(st.floats(0.0, 4.0), max_size=6))
    # dead-corner wages s(1+alpha)/alpha and beyond, where alpha > 0
    if contract.alpha > 0.0:
        wages += [s * (1.0 + contract.alpha) / contract.alpha * f for f in (1.0, 1.5)]
    wages = np.array(wages + [contract.w0])
    policy = AffinePolicy(contract, b, s, phi)
    respond, methods = responder(policy), AffinePolicyMethods(policy)
    for t in range(1, len(phi) + 1):
        for w in (wages, contract.w0, float(wages[0])):
            assert_same_answers(respond, methods, t, w)
    for t in (0, len(phi) + 1):
        for method in ("effort", "next_wage_if_evaluated"):
            assert_same_error(lambda: respond(t, contract.w0),
                              lambda: getattr(methods, method)(t, contract.w0))


@settings(max_examples=60, deadline=None)
@given(p=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
       alpha=st.floats(0.0, 1.0), T=st.integers(1, 5),
       steps=st.lists(st.integers(0, 10), min_size=1, max_size=6))
def test_responder_matches_deleted_table_methods_bit_for_bit(p, alpha, T, steps):
    contract = ContractParams(p, alpha, steps[0] / 10)
    table = solve_policy(contract, CD_PREFS, Horizon(T))
    policy = TableEffortPolicy(table)
    respond, methods = responder(policy), TableEffortPolicyMethods(policy)
    wages = table.grid.wages[steps]
    for t in range(1, T + 1):
        for w in (wages, contract.w0, float(wages[-1])):
            assert_same_answers(respond, methods, t, w)
    # an off-grid wage, alone or among grid wages
    for w in (0.45, np.append(wages, 0.45)):
        assert_same_error(lambda: respond(1, w), lambda: methods.effort(1, w))
    # a period outside 1..T raises with the message the deleted table lookup
    # gave; the deleted methods read the table's last row at t = 0 instead
    for t in (0, T + 1):
        with pytest.raises(ValueError, match=rf"^period {t} outside 1\.\.{T}$"):
            respond(t, contract.w0)

# ---------------------------------------------------------------------------
# one-period profit and sweep: within the reordering bound


@settings(max_examples=300, deadline=None)
@given(data=st.data(), b=b_values, k=st.floats(0.1, 3.0), lam=st.floats(0.01, 1.0),
       c=st.floats(0.0, 2.0))
def test_one_period_profit_matches_old_scalar_and_row(data, b, k, lam, c):
    firm = FirmParams(k=k, lam=lam, c=c, eta=0.9)
    s = firm.wage_scale
    contract = data.draw(contracts(s))
    p, alpha, w0 = contract.p, contract.alpha, contract.w0
    scale = (1.0 + p / b + alpha * w0 / s) * (k + s * (1.0 + alpha) + alpha * w0 + w0 + c)

    new = _one_period_profit(p, alpha, w0, firm, b)
    assert type(new) is float
    assert within_reorder_bound(new, old_one_period_profit(p, alpha, w0, firm, b), scale)

    row_w0 = np.array([0.0, w0, 2.0 * w0, s * (1.0 + alpha) / max(alpha, 1e-3)])
    new_row = _one_period_profit(p, alpha, row_w0, firm, b)
    old_row = old_one_period_profit_row(p, alpha, row_w0, firm, b)
    for n, o, w in zip(new_row.tolist(), old_row.tolist(), row_w0.tolist()):
        bound = (1.0 + p / b + alpha * w / s) * (k + s * (1.0 + alpha) + alpha * w + w + c)
        assert within_reorder_bound(n, o, bound)


@settings(max_examples=100, deadline=None)
@given(k=st.floats(0.1, 3.0), lam=st.floats(0.01, 1.0), c=st.floats(0.0, 3.0))
@example(k=1.5, lam=0.8, c=0.0)
def test_tech_sweep_matches_old_effort_and_wage(k, lam, c):
    template = FirmParams(k=1.0, lam=lam, c=c, eta=0.9)
    (row,) = tech_sweep([k], template)
    p, a, w0 = row.contract.p, row.contract.alpha, row.contract.w0
    s = lam * k
    e_old, x_old = old_sweep_effort_and_wage(p, a, w0, s)
    e_new, x_new = affine_response(p, a, w0, 1.0, 1.0, s)
    scale = (1.0 + p + a * w0 / s) * (1.0 + s * (1.0 + a))
    assert within_reorder_bound(e_new, e_old, scale)
    assert within_reorder_bound(x_new, x_old, scale)
    # Python floats: the sweep's numbers are printed in report details
    assert type(row.effort) is float and type(row.wage_mean) is float
    assert row.effort == e_new
    mean_old = p * x_old + (1.0 - p) * w0
    assert within_reorder_bound(row.wage_mean, mean_old, scale + w0)
