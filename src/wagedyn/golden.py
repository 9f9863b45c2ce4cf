"""Bounded maximization by golden-section search, and root bisection.

golden_max_vec is the package's one golden-section search. It runs a whole
family of one-dimensional problems in lockstep over elementwise brackets
(a scalar bracket is a family of one). The iteration count is deterministic,
from the widest bracket and the requested tolerance. Each iteration keeps
the retained interior point and evaluates one new point per problem. The
interior optimum is compared against both endpoints, ties resolved toward
the smaller argument.
"""
from __future__ import annotations

import math
from typing import Callable

import numpy as np

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_INV_PHI_SQ = (3.0 - math.sqrt(5.0)) / 2.0
_BISECT_TOL = 1e-15
_BISECT_MAX_ITER = 200


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


def bisect_root(g: Callable[[float], float], lo: float, hi: float) -> float:
    """Root of a decreasing function g on [lo, hi] by bisection.

    Tolerant of kinks; requires g(lo) >= 0 >= g(hi). Stops when the bracket
    is within _BISECT_TOL of max(1, |mid|), or after _BISECT_MAX_ITER halvings.
    """
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
