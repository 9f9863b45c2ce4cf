"""Bounded maximization by golden-section search, and scalar root finding.

golden_max_vec is the package's one golden-section search. It runs a whole
family of one-dimensional problems in lockstep over elementwise brackets
(a scalar bracket is a family of one). The iteration count is deterministic,
from the widest bracket and the requested tolerance. Each iteration keeps
the retained interior point and evaluates one new point per problem. The
interior optimum is compared against both endpoints, ties resolved toward
the smaller argument.

bisect_root is the package's one root finder. For g decreasing on [lo, hi]
it returns the largest float x in [lo, hi] with g(x) >= 0: lo when
g(lo) < 0, hi when g(hi) >= 0. Brent's zeroin steps (Brent 1973, ch. 4)
bring the bracket to a few ulps, and halving on the float lattice ends it
at adjacent floats, in at most _ROOT_MAX_EVALS evaluations of g. It keeps
the name of the bisection it replaced because the benchmark's tracer wraps
it by that name.
"""
from __future__ import annotations

import math
import struct
from typing import Callable

import numpy as np

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_INV_PHI_SQ = (3.0 - math.sqrt(5.0)) / 2.0
# hard cap on the evaluations of g in one bisect_root call
_ROOT_MAX_EVALS = 200
# halvings that end any bracket on the float lattice: floats have 2**64 bit
# patterns
_LATTICE_MAX_EVALS = 64


def _n_iter(width: float, tol: float) -> int:
    if width <= tol:
        return 0
    return int(math.ceil(math.log(tol / width) / math.log(_INV_PHI)))


def _where(cond, x, y):
    """np.where for array conditions, a plain choice for a scalar one."""
    return np.where(cond, x, y) if isinstance(cond, np.ndarray) else (x if cond else y)


def golden_max_vec(f: Callable, lo, hi, tol: float = 1e-6):
    """Maximize f on each bracket [lo, hi]; returns (argmax, value).

    f maps candidate points to values elementwise; a scalar bracket hands it
    Python floats and returns Python floats. Every problem runs the iteration
    count of the widest bracket: a bracket gives the same bits alone as
    among brackets of its own width, and a wider one adds iterations to it.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    if np.any(hi < lo):
        raise ValueError(f"empty bracket [{lo}, {hi}]")
    scalar = lo.ndim == hi.ndim == 0
    if scalar:
        lo, hi = float(lo), float(hi)
    a, b = lo, hi
    n = _n_iter(float(np.max(b - a, initial=0.0)), tol)
    if n > 0:
        dist = b - a
        c = a + _INV_PHI_SQ * dist
        d = a + _INV_PHI * dist
        yc, yd = f(c), f(d)
        for _ in range(n - 1):
            dist = dist * _INV_PHI
            # left: the maximum lies in [a, d], d becomes c and a new c is
            # placed; right: it lies in [c, b], c becomes d and a new d is placed
            left = yc >= yd
            a, b = _where(left, a, c), _where(left, d, b)
            new = a + _where(left, _INV_PHI_SQ, _INV_PHI) * dist
            y_new = f(new)
            c, d = _where(left, new, d), _where(left, c, new)
            yc, yd = _where(left, y_new, yd), _where(left, yc, y_new)
        x = _where(yc >= yd, (a + d) / 2.0, (c + b) / 2.0)
    else:
        x = (a + b) / 2.0
    best_x, best_y = lo, f(lo)
    for cx, cy in ((x, f(x)), (hi, f(hi))):
        better = (cy > best_y) | ((cy == best_y) & (cx < best_x))
        best_x, best_y = _where(better, cx, best_x), _where(better, cy, best_y)
    if scalar:
        return float(best_x), float(best_y)
    return best_x, best_y


def _ordinal(x: float) -> int:
    """x's place on the float lattice: adjacent floats are one apart, and
    0.0 and -0.0 share 0."""
    n = struct.unpack("<q", struct.pack("<d", x))[0]
    return n if n >= 0 else -(n & 0x7FFFFFFFFFFFFFFF)


def _float_at(n: int) -> float:
    """The float at lattice place n (the inverse of _ordinal)."""
    x = struct.unpack("<d", struct.pack("<q", abs(n)))[0]
    return x if n >= 0 else -x


def bisect_root(g: Callable[[float], float], lo: float, hi: float) -> float:
    """The largest float x in [lo, hi] with g(x) >= 0, for g decreasing on
    [lo, hi]: lo when g(lo) < 0 or is NaN, hi when g(hi) >= 0 (g(hi) = 0
    included).

    Otherwise it keeps a bracket with g >= 0 at its low end and g < 0 (or
    NaN) at its high end, takes Brent's zeroin steps (inverse quadratic,
    secant, bisection when those stall or leave the bracket) until the
    bracket is a few ulps wide, then halves it on the float lattice until its
    ends are adjacent floats, and returns the low end. For a g that is not
    decreasing it returns some x with g(x) >= 0 > g(nextafter(x, +inf)).
    Kinks and infinite values of g cost only bisection steps. It evaluates g
    at most _ROOT_MAX_EVALS times. A reversed bracket (hi < lo) takes the
    same end rules, and otherwise gives a sign change of g between them.

    The name is older than the method; the benchmark's tracer wraps this
    function by name.
    """
    glo = g(lo)
    if not glo >= 0.0:
        return lo
    ghi = g(hi)
    if ghi >= 0.0:
        return hi
    # Brent's zeroin: cur is the bracket end with the smaller |g|, blk the
    # other end, pre the iterate before cur; step and pre_step are the last
    # two steps taken
    pre, gpre, cur, gcur = lo, glo, hi, ghi
    blk, gblk = lo, glo
    step = pre_step = hi - lo
    evals = 2
    while evals < _ROOT_MAX_EVALS - _LATTICE_MAX_EVALS:
        if abs(gblk) < abs(gcur):
            pre, cur, blk = cur, blk, cur
            gpre, gcur, gblk = gcur, gblk, gcur
        tol = 2.0 * math.ulp(cur)
        half = 0.5 * blk - 0.5 * cur
        if abs(half) <= tol:
            break
        trial = math.nan
        if abs(pre_step) > tol and abs(gcur) < abs(gpre) and \
                math.isfinite(gpre) and math.isfinite(gblk):
            if pre == blk:  # secant
                num, den = -gcur * (cur - pre), gcur - gpre
            else:  # inverse quadratic interpolation
                d_pre = (gpre - gcur) / (pre - cur)
                d_blk = (gblk - gcur) / (blk - cur)
                num = -gcur * (gblk * d_blk - gpre * d_pre)
                den = d_blk * d_pre * (gblk - gpre)
            if den != 0.0:
                trial = num / den
        # a step is taken only toward blk, and only while steps shrink; a zero
        # step (g(cur) = 0) becomes the step of tol below
        shrinks = 2.0 * abs(trial) < min(abs(pre_step), 3.0 * abs(half) - tol)
        if trial / half >= 0.0 and shrinks:
            pre_step, step = step, trial
        else:
            pre_step = step = half
        x = cur + (step if abs(step) > tol else math.copysign(tol, half))
        if not min(cur, blk) < x < max(cur, blk):
            break
        gx = g(x)
        evals += 1
        if (gx >= 0.0) != (gcur >= 0.0):
            blk, gblk = cur, gcur
            step = pre_step = x - cur
        pre, gpre, cur, gcur = cur, gcur, x, gx
    lo, hi = (cur, blk) if gcur >= 0.0 else (blk, cur)
    # halve the bracket on the float lattice until its ends are adjacent floats
    n_lo, n_hi = _ordinal(lo), _ordinal(hi)
    while abs(n_hi - n_lo) > 1:
        n_mid = (n_lo + n_hi) // 2
        mid = _float_at(n_mid)
        if g(mid) >= 0.0:
            lo, n_lo = mid, n_mid
        else:
            n_hi = n_mid
    return lo
