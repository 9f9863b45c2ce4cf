"""Primitive model functions: the additive effort rule and the
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


def affine_effort(p, alpha, w, phi=1.0, b=1.0, s=1.0):
    """The additive worker's best response e_t(w) = (p/b)*phi_t + alpha/(1+alpha)*w/s,
    clamped to [0, 1]; phi_t = 1 in the one-period case.

    Vectorised over every argument. It has no p = 0 case, so it stays affine
    in p there (the statics' slopes hold at p = 0); the policy of a worker who
    is never evaluated returns zero effort itself (additive.AffinePolicy).
    """
    return np.clip((p / b) * phi + alpha / (1.0 + alpha) * w / s, 0.0, 1.0)
