"""golden.golden_max_vec, the package's one golden-section search, against
the two searches it replaced; golden.bisect_root, the package's one root
finder, against its contract and the bisection it replaced.

old_golden_max is a verbatim copy of the scalar search: one new interior
point per iteration, the retained one reused. old_golden_max_vec is a verbatim
copy of the vectorized search, which evaluated both interior points on every
iteration. golden_max_vec runs the scalar scheme elementwise, so a scalar
bracket, and every bracket of a family of equal widths, must give the scalar
search's bits; brackets of mixed widths all run the widest one's iteration
count, and must agree with the old vectorized search within tol where the
objective resolves that finely.

bisect_reference is a verbatim copy of the bisection that bisect_root
replaced: it stopped at a 1e-15 bracket and returned the midpoint.
bisect_root returns the largest float with g >= 0, so on the envelope's
roots the two agree to a few ulps, not bit for bit. lattice_root finds that
float by halving the float lattice from the cold bracket alone: the seeded
envelope roots must equal it.
"""
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from wagedyn import ContractParams, Horizon, WorkerPrefs, additive, checks, statics
from wagedyn.golden import (_INV_PHI, _INV_PHI_SQ, _ROOT_MAX_EVALS, _float_at, _n_iter,
                            _ordinal, bisect_root, golden_max_vec)


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
       w0=st.floats(1e-3, 2.0), b=st.floats(0.5, 2.0))
@example(p=1.0, alpha=0.5, w0=0.0, b=1.0)
def test_optimal_effort_search_matches_old_scalar_search(p, alpha, w0, b):
    contract = ContractParams(p, alpha, w0)
    prefs = WorkerPrefs.additive(delta=0.9, b=b)
    e = statics.optimal_effort_search(contract, prefs)
    with mock.patch.object(statics, "golden_max_vec", old_golden_max):
        e_old = statics.optimal_effort_search(contract, prefs)
    assert e.hex() == float(e_old).hex()


def test_optimal_effort_search_unmoved():
    # criterion 5's search figure, which the old scalar search gave
    contract = ContractParams(0.2, 0.5, 0.4)
    prefs = WorkerPrefs.additive(delta=0.9, b=1.0)
    assert statics.SEARCH_TOLERANCE == 1e-10
    assert statics.optimal_effort_search(contract, prefs) == 0.3333333237618037


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


# ---------------------------------------------------------------------------
# bisect_root: the largest float in [lo, hi] with g >= 0

_BISECT_TOL = 1e-15
_BISECT_MAX_ITER = 200


def bisect_reference(g, lo, hi, guess=None):
    # the old bisection took no guess: it always starts from [lo, hi]
    glo, ghi = g(lo), g(hi)
    if glo < 0.0:
        return lo
    if ghi > 0.0:
        return hi
    for _ in range(_BISECT_MAX_ITER):
        mid = 0.5 * (lo + hi)
        if hi - lo <= _BISECT_TOL * max(1.0, abs(mid)):
            return mid
        if g(mid) >= 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def counting(finder, calls):
    """finder with every evaluation of g appended to calls."""
    def counted(g, lo, hi, guess=None):
        def g_counted(x):
            calls.append(x)
            return g(x)
        return finder(g_counted, lo, hi, guess)
    return counted


def check_root(g, lo, hi, x):
    """bisect_root's contract: the end rules, else g(x) >= 0 > g(next float),
    where a NaN counts as g < 0."""
    if not g(lo) >= 0.0:
        assert x == lo
    elif g(hi) >= 0.0:
        assert x == hi
    else:
        assert lo <= x < hi
        assert g(x) >= 0.0 and not g(math.nextafter(x, math.inf)) >= 0.0


# decreasing functions on [-10, 30], built from float arithmetic


def linear(c, k):
    return lambda x: c - k * x


def pole(c, d):
    # the shape of the envelope's g_t, p/x - b/S, with its pole left of -10
    return lambda x: c / (x + 11.0) - d


def cubic(c):
    return lambda x: c - x * x * x


def exponential(c):
    return lambda x: math.exp(-x) - c


def kinked(knots, drops, top):
    """Piecewise linear through sorted knots, falling by whole drops (zero
    drops make flat pieces, and the values reach exactly 0), constant outside
    the knots."""
    xs = sorted(knots)
    ys = [float(top - sum(drops[:i])) for i in range(len(xs))]
    return lambda x: float(np.interp(x, xs, ys))


def step(cut):
    # the sign-valued condition of criterion 4's oracle where its slope is infinite
    return lambda x: 1.0 if x <= cut else -1.0


def cliff(c, cut, beyond):
    # finite, then -inf or NaN (which counts as g < 0) beyond the cut
    return lambda x: c - x if x <= cut else beyond


def alternating(x):
    # not decreasing anywhere: the sign flips from each float to the next
    return 1.0 if _ordinal(x) % 2 == 0 else -1.0


levels = st.floats(-20.0, 40.0)
root_functions = st.one_of(
    st.builds(linear, levels, st.floats(1e-6, 1e6)),
    st.builds(pole, st.floats(1e-6, 1e3), st.floats(-10.0, 10.0)),
    st.builds(cubic, st.floats(-1e4, 3e4)),
    st.builds(exponential, st.floats(-1.0, 1e5)),
    st.builds(kinked, st.lists(st.floats(-10.0, 30.0), min_size=2, max_size=8, unique=True),
              st.lists(st.integers(0, 3), min_size=8, max_size=8), st.integers(-2, 12)),
    st.builds(step, st.floats(-10.0, 30.0)),
    st.builds(cliff, levels, st.floats(-10.0, 30.0), st.sampled_from([-math.inf, math.nan])),
    st.just(alternating))


@settings(max_examples=500, deadline=None)
@given(g=root_functions, lo=st.floats(-10.0, 10.0), width=st.one_of(
    st.just(0.0), st.floats(0.0, 1e-12), st.floats(0.0, 20.0)))
@example(g=step(0.5), lo=0.0, width=1.0)
@example(g=cliff(1.0, 0.5, -math.inf), lo=0.0, width=1.0)
@example(g=kinked([0.0, 1.0, 2.0, 3.0], [0, 1, 0, 1, 0, 0, 0, 0], 1), lo=-1.0, width=5.0)
@example(g=alternating, lo=1.0, width=1.0 - 2.0 ** -52)  # hi, below 2, has g < 0
def test_root_is_the_largest_float_with_g_nonnegative(g, lo, width):
    hi = lo + width
    calls = []
    x = counting(bisect_root, calls)(g, lo, hi)
    check_root(g, lo, hi, x)
    assert len(calls) <= _ROOT_MAX_EVALS


@settings(max_examples=300, deadline=None)
@given(g=root_functions.filter(lambda g: g is not alternating), lo=st.floats(-10.0, 10.0),
       width=st.floats(0.0, 20.0), at=st.floats(-0.5, 1.5))
@example(g=step(0.5), lo=0.0, width=1.0, at=0.5)  # the guess is the root
@example(g=linear(1.0, 1.0), lo=0.0, width=1.0, at=0.99)  # g(hi) = 0: hi
@example(g=cliff(1.0, 0.5, math.nan), lo=0.0, width=1.0, at=0.75)  # NaN at the guess
def test_guess_leaves_a_decreasing_roots_answer_unchanged(g, lo, width, at):
    # a guess inside the bracket (or outside it, where it is ignored) changes
    # the evaluations, not the largest float with g >= 0
    hi = lo + width
    guess = lo + at * width
    calls = []
    x = counting(bisect_root, calls)(g, lo, hi, guess)
    assert x == bisect_root(g, lo, hi)
    check_root(g, lo, hi, x)
    assert len(calls) <= _ROOT_MAX_EVALS


def test_root_end_rules():
    assert bisect_root(lambda x: -1.0, 0.0, 1.0) == 0.0
    assert bisect_root(lambda x: 1.0 - x, 0.0, 1.0) == 1.0   # g(hi) = 0 exactly
    assert bisect_root(lambda x: 2.0 - x, 0.0, 1.0) == 1.0
    assert bisect_root(lambda x: 1.0 - x, 0.5, 0.5) == 0.5
    # the old bisection gave hi only when g(hi) > 0
    assert bisect_reference(lambda x: 1.0 - x, 0.0, 1.0) < 1.0


@settings(max_examples=100, deadline=None)
@given(p=st.one_of(st.just(1.0), st.floats(0.05, 1.0)),
       alpha=st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0)),
       clamp=st.floats(1.01, 4.0), s=st.floats(0.5, 2.0), delta=st.floats(0.5, 0.95),
       T=st.integers(1, 14))
@example(p=1.0, alpha=0.4, clamp=1.4, s=1.0, delta=0.9, T=5)  # fig3_1
def test_envelope_roots_are_the_largest_floats_with_g_nonnegative(p, alpha, clamp, s,
                                                                  delta, T):
    # b = p(1+alpha)/clamp puts period T's effort at the wage x*_T to
    # clamp > 1: every row clamps and takes the envelope recursion
    contract = ContractParams(p, alpha, 0.5)
    prefs = WorkerPrefs.additive(delta=delta, b=p * (1.0 + alpha) / clamp)
    roots = []

    def checked(g, lo, hi, guess=None):
        # g_t reads the loop's t, so it is checked before the loop moves on
        calls = []
        x = counting(bisect_root, calls)(g, lo, hi, guess)
        assert len(calls) <= _ROOT_MAX_EVALS
        check_root(g, lo, hi, x)
        roots.append(x)
        return x

    with mock.patch.object(additive, "bisect_root", checked):
        x_star = additive.envelope_evaluated_wages(contract, prefs, Horizon(T), s)
    assert roots == x_star[::-1].tolist()


# the ten clamped (p, alpha) rows of the benchmark's additive contract search
# at seed 77: T = 10, wage scale 1.2, delta = 0.9, b = 1
SEED_77_ROWS = [(0.75, 0.5), (0.75, 0.75), (0.75, 1.0), (1.0, 0.25), (1.0, 0.5),
                (1.0, 0.75), (1.0, 1.0), (0.625, 0.625), (0.625, 0.75), (0.625, 0.875)]


@pytest.mark.parametrize("p, alpha", SEED_77_ROWS)
def test_envelope_roots_match_the_old_bisection_in_half_the_evaluations(p, alpha):
    contract = ContractParams(p, alpha, 0.0)
    prefs = WorkerPrefs.additive(delta=0.9)
    x_star, evaluations = {}, {}
    for finder in (bisect_reference, bisect_root):
        calls = []
        with mock.patch.object(additive, "bisect_root", counting(finder, calls)):
            x_star[finder] = additive.envelope_evaluated_wages(contract, prefs,
                                                               Horizon(10), 1.2)
        evaluations[finder] = len(calls)
    ulps = [abs(_ordinal(float(a)) - _ordinal(float(b)))
            for a, b in zip(x_star[bisect_root], x_star[bisect_reference])]
    assert max(ulps) <= 8
    assert 2 * evaluations[bisect_root] <= evaluations[bisect_reference]


def lattice_root(g, lo, hi):
    """The largest float in [lo, hi] with g >= 0 for a decreasing g, by the
    end rules and then halving the float lattice between lo and hi: the cold
    bracket, no guess and no interpolation."""
    if not g(lo) >= 0.0:
        return lo
    if g(hi) >= 0.0:
        return hi
    n_lo, n_hi = _ordinal(lo), _ordinal(hi)
    while n_hi - n_lo > 1:
        n_mid = (n_lo + n_hi) // 2
        if g(_float_at(n_mid)) >= 0.0:
            n_lo = n_mid
        else:
            n_hi = n_mid
    return _float_at(n_lo)


@settings(max_examples=100, deadline=None)
@given(p=st.one_of(st.just(1.0), st.floats(0.05, 1.0)),
       alpha=st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0)),
       clamp=st.floats(1.01, 4.0), s=st.one_of(st.just(1.0), st.floats(0.5, 2.0)),
       delta=st.floats(0.5, 0.95), T=st.integers(1, 14))
@example(p=1.0, alpha=0.4, clamp=1.4, s=1.0, delta=0.9, T=5)  # fig3_1
@example(p=0.75, alpha=0.75, clamp=1.05, s=1.2, delta=0.9, T=10)
def test_seeded_envelope_roots_equal_the_cold_bracket_roots(p, alpha, clamp, s, delta, T):
    # b = p(1+alpha)/clamp clamps every row, so best_response runs the
    # envelope recursion with each root's bracket seeded at the unclamped
    # evaluated wage of the array recursion
    contract = ContractParams(p, alpha, 0.5)
    prefs = WorkerPrefs.additive(delta=delta, b=p * (1.0 + alpha) / clamp)
    roots = []

    def seeded(g, lo, hi, guess=None):
        # g_t reads the loop's t, so it is checked before the loop moves on
        assert guess is not None
        x = bisect_root(g, lo, hi, guess)
        assert x == lattice_root(g, lo, hi)
        if lo < x < hi:
            assert g(x) >= 0.0 > g(math.nextafter(x, math.inf))
        roots.append(x)
        return x

    with mock.patch.object(additive, "bisect_root", seeded):
        policy = additive.best_response(contract, prefs, Horizon(T), s)
    assert len(roots) == T
    x_star = np.array(roots[::-1])
    assert policy.phi.tobytes() == (x_star * prefs.b / (p * (1.0 + alpha) * s)).tobytes()
