"""golden.golden_max_vec, the package's one golden-section search, against
the two searches it replaced.

old_golden_max is a verbatim copy of the scalar search: one new interior
point per iteration, the retained one reused. old_golden_max_vec is a verbatim
copy of the vectorized search, which evaluated both interior points on every
iteration. golden_max_vec runs the scalar scheme elementwise, so a scalar
bracket, and every bracket of a family of equal widths, must give the scalar
search's bits; brackets of mixed widths all run the widest one's iteration
count, and must agree with the old vectorized search within tol where the
objective resolves that finely.
"""
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from wagedyn import ContractParams, WorkerPrefs, additive, checks, statics
from wagedyn.golden import _INV_PHI, _INV_PHI_SQ, _n_iter, golden_max_vec


# ---------------------------------------------------------------------------
# references


def old_golden_max(f, lo, hi, tol=1e-6):
    if hi < lo:
        raise ValueError(f"empty bracket [{lo}, {hi}]")
    a, b = lo, hi
    n = _n_iter(b - a, tol)
    if n > 0:
        dist = b - a
        c = a + _INV_PHI_SQ * dist
        d = a + _INV_PHI * dist
        yc, yd = f(c), f(d)
        for _ in range(n - 1):
            dist *= _INV_PHI
            if yc >= yd:
                b, d, yd = d, c, yc
                c = a + _INV_PHI_SQ * dist
                yc = f(c)
            else:
                a, c, yc = c, d, yd
                d = a + _INV_PHI * dist
                yd = f(d)
        x = (a + d) / 2.0 if yc >= yd else (c + b) / 2.0
    else:
        x = (a + b) / 2.0
    # endpoint comparison, ties toward the smaller argument
    candidates = [(lo, f(lo)), (x, f(x)), (hi, f(hi))]
    best_x, best_y = candidates[0]
    for cx, cy in candidates[1:]:
        if cy > best_y or (cy == best_y and cx < best_x):
            best_x, best_y = cx, cy
    return best_x, best_y


def old_golden_max_vec(f, lo, hi, tol=1e-6):
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    a = lo.copy()
    b = hi.copy()
    n = _n_iter(float(np.max(b - a, initial=0.0)), tol)
    dist = b - a
    c = a + _INV_PHI_SQ * dist
    d = a + _INV_PHI * dist
    yc, yd = f(c), f(d)
    for _ in range(max(n - 1, 0)):
        dist = dist * _INV_PHI
        left = yc >= yd
        b = np.where(left, d, b)
        a = np.where(left, a, c)
        c = a + _INV_PHI_SQ * dist
        d = a + _INV_PHI * dist
        yc = f(c)
        yd = f(d)
    x = np.where(yc >= yd, (a + d) / 2.0, (c + b) / 2.0)
    y = f(x)
    # endpoint comparison
    ylo, yhi = f(lo), f(hi)
    better_hi = yhi > y
    x = np.where(better_hi, hi, x)
    y = np.where(better_hi, yhi, y)
    better_lo = ylo >= y
    x = np.where(better_lo, lo, x)
    y = np.where(better_lo, ylo, y)
    return x, y


# ---------------------------------------------------------------------------
# objectives: built from +, -, *, / and comparisons only, so a scalar and an
# array evaluation round alike


def quadratic(m, k):
    return lambda x: -k * ((x - m) * (x - m))


def quartic(m1, m2, m3, m4):
    # two humps: local maxima inside the bracket, and ties between them
    return lambda x: -((x - m1) * (x - m2)) * ((x - m3) * (x - m4))


def cliff(cut, k):
    # -inf left of the cut, strictly concave right of it
    def f(x):
        x = np.asarray(x, dtype=float)
        with np.errstate(all="ignore"):
            return np.where(x > cut, -k * x - 1.0 / (x - cut), -math.inf)[()]
    return f


def flat(x):
    return 0.0 * x


points = st.floats(-10.0, 10.0)
objectives = st.one_of(
    st.builds(quadratic, points, st.floats(1e-3, 1e3)),
    st.builds(quartic, points, points, points, points),
    st.builds(cliff, points, st.floats(0.0, 10.0)),
    st.just(flat))
tols = st.sampled_from([1e-3, 1e-5, 1e-6, 1e-7, 1e-9, 1e-10, 1e-11])


def hexes(a):
    return [float(v).hex() for v in np.asarray(a, dtype=float).ravel()]


# ---------------------------------------------------------------------------
# tests


@settings(max_examples=300, deadline=None)
@given(f=objectives, lo=points,
       width=st.one_of(st.just(0.0), st.floats(0.0, 1e-9), st.floats(0.0, 20.0)),
       tol=tols)
@example(f=flat, lo=0.0, width=1.0, tol=1e-6)        # ties everywhere
@example(f=quadratic(0.5, 1.0), lo=0.0, width=1e-7, tol=1e-6)  # no iteration
def test_scalar_bracket_matches_old_scalar_search_bit_for_bit(f, lo, width, tol):
    hi = lo + width
    x, y = golden_max_vec(f, lo, hi, tol)
    x_old, y_old = old_golden_max(f, lo, hi, tol)
    assert type(x) is float and type(y) is float
    assert (x.hex(), y.hex()) == (float(x_old).hex(), float(y_old).hex())


@settings(max_examples=100, deadline=None)
@given(f=objectives, los=st.lists(st.integers(-10240, 10240), min_size=1, max_size=12),
       width=st.integers(0, 20480), tol=tols)
def test_equal_width_brackets_match_scalar_search_bit_for_bit(f, los, width, tol):
    # multiples of 2**-10: every hi - lo is exactly the same width
    lo = np.array(los) / 1024.0
    hi = lo + width / 1024.0
    x, y = golden_max_vec(f, lo, hi, tol)
    ref = [old_golden_max(f, float(l), float(h), tol) for l, h in zip(lo, hi)]
    assert hexes(x) == hexes([r[0] for r in ref])
    assert hexes(y) == hexes([r[1] for r in ref])


@settings(max_examples=150, deadline=None)
@given(data=st.data(), n=st.integers(1, 12), tol=tols)
def test_mixed_width_brackets_agree_with_old_vector_search(data, n, tol):
    # one strictly concave quadratic per bracket, its maximum at 0 (so the
    # values near it resolve far below tol) and its center anywhere: both
    # searches end within tol of the one maximizer
    def draw(elements):
        return np.array(data.draw(st.lists(elements, min_size=n, max_size=n)))

    lo = draw(points)
    hi = lo + draw(st.floats(0.0, 20.0))
    f = quadratic(draw(points), draw(st.floats(1e-3, 1e3)))
    x, _ = golden_max_vec(f, lo, hi, tol)
    x_old, _ = old_golden_max_vec(f, lo, hi, tol)
    assert np.all(np.abs(x - x_old) <= tol)


def test_empty_bracket_rejected():
    with pytest.raises(ValueError, match="empty bracket"):
        golden_max_vec(flat, 1.0, 0.0)
    with pytest.raises(ValueError, match="empty bracket"):
        golden_max_vec(flat, np.zeros(3), np.array([1.0, -1.0, 1.0]))


@settings(max_examples=200, deadline=None)
@given(p=st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0)),
       alpha=st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0)),
       w0=st.floats(1e-3, 2.0), b=st.floats(0.5, 2.0), s=st.floats(0.5, 1.5), tol=tols)
@example(p=1.0, alpha=0.5, w0=0.0, b=1.0, s=1.0, tol=1e-10)
def test_optimal_effort_search_matches_old_scalar_search(p, alpha, w0, b, s, tol):
    contract = ContractParams(p, alpha, w0)
    prefs = WorkerPrefs.additive(delta=0.9, b=b)
    e = statics.optimal_effort_search(contract, prefs, s, tol)
    with mock.patch.object(statics, "golden_max_vec", old_golden_max):
        e_old = statics.optimal_effort_search(contract, prefs, s, tol)
    assert e.hex() == float(e_old).hex()


def test_optimal_effort_search_unmoved():
    # criterion 5's search figure, which the old scalar search gave
    contract = ContractParams(0.2, 0.5, 0.4)
    prefs = WorkerPrefs.additive(delta=0.9, b=1.0)
    assert statics.optimal_effort_search(contract, prefs, tol=1e-10) == 0.3333333237618037


def test_oracle_table_takes_one_new_point_per_iteration(monkeypatch):
    # criterion 4's raw_effort: 10 periods of (2 + 33 + 3) objective calls
    scenario = checks.load_scenario("fig3_2")
    calls = []
    period_objective = additive._period_objective

    def counting(*args):
        objective = period_objective(*args)

        def counted(e):
            calls.append(1)
            return objective(e)
        return counted

    monkeypatch.setattr(additive, "_period_objective", counting)
    sol = additive.solve_backward_induction(scenario.contract, scenario.prefs,
                                            scenario.horizon)
    calls.clear()
    sol.raw_effort
    assert len(calls) <= 380
