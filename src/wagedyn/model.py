"""Primitive model functions: the additive worker's response and the
zero-consumption case of the additive scheme.

Two compensation schemes coexist. In the additive scheme the bonus/penalty is
folded into the wage state (the evaluated wage is max{w_hat + alpha*(w_hat -
prev), 0}). In the Cobb-Douglas scheme the evaluated wage state is the deserved
wage itself and the bonus is a nonrecurrent payment entering consumption only.
"""
from __future__ import annotations

import numpy as np

from .params import ContractParams


class DomainError(ValueError):
    """Inputs outside the mathematical domain of an operation."""


def zero_base_consumption(p, w0):
    """True where the never-evaluated worker consumes nothing: w0 = 0 with
    p < 1, which is degenerate for log utility. Broadcasts over p and w0."""
    return (w0 <= 0.0) & (p < 1.0)


def require_base_consumption(contract: ContractParams) -> None:
    """Raise DomainError when the contract's never-evaluated worker consumes
    nothing (zero_base_consumption)."""
    if zero_base_consumption(contract.p, contract.w0):
        raise DomainError("w0 = 0 with p < 1 gives zero consumption when never evaluated")


def dead_corner(alpha, w, wage_scale: float):
    """True where not even full effort yields a positive evaluated wage,
    s(1+alpha) - alpha*w <= 0, so the worker idles. Broadcasts over alpha and w."""
    return wage_scale * (1.0 + alpha) - alpha * w <= 0.0


def affine_response(p, alpha, w, phi_t, b, s):
    """The additive worker's one response at previous wages w: the effort
    e = (p/b)*phi_t + alpha/(1+alpha)*w/s clamped to [0, 1], 0 when p = 0 and
    in the dead corner, and the evaluated next wage max(s(1+alpha)e - alpha*w, 0).
    With phi_t = 1 it is the one-period response. The arguments broadcast;
    0-d results come back as numpy scalars."""
    w = np.asarray(w, dtype=float)
    e = np.where((p == 0.0) | dead_corner(alpha, w, s), 0.0,
                 np.clip((p / b) * phi_t + alpha / (1.0 + alpha) * w / s, 0.0, 1.0))
    return e[()], np.maximum(s * (1.0 + alpha) * e - alpha * w, 0.0)[()]
