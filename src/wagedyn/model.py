"""Primitive model functions: the additive effort rule, wage update, bonus,
consumption, utility, production.

Two compensation schemes coexist. In the additive scheme the bonus/penalty is
folded into the wage state (the evaluated wage is max{w_hat + alpha*(w_hat -
prev), 0}). In the Cobb-Douglas scheme the evaluated wage state is the deserved
wage itself and the bonus is a nonrecurrent payment entering consumption only.
"""
from __future__ import annotations

import math

import numpy as np

from .params import FirmParams, UtilityFamily, WorkerPrefs


class DomainError(ValueError):
    """Inputs outside the mathematical domain of an operation."""


def deserved_wage(effort: float, wage_scale: float = 1.0) -> float:
    """Wage warranted by current effort: linear, wage_scale * effort."""
    return wage_scale * effort


def affine_effort(p, alpha, w, phi=1.0, b=1.0, s=1.0):
    """The additive worker's best response e_t(w) = (p/b)*phi_t + alpha/(1+alpha)*w/s,
    clamped to [0, 1]; phi_t = 1 in the one-period case.

    Vectorised over every argument. It has no p = 0 case, so it stays smooth
    in p there (statics differences across p = 0); the policy of a worker who
    is never evaluated returns zero effort itself (additive.AffinePolicy).
    """
    return np.clip((p / b) * phi + alpha / (1.0 + alpha) * w / s, 0.0, 1.0)


def wage_update(prev_wage: float, effort: float, contract, evaluated: bool,
                wage_scale: float = 1.0) -> float:
    """Next wage state under the additive scheme.

    Unevaluated periods keep the previous wage; evaluated periods reset it to
    max{w_hat(e) + alpha*(w_hat(e) - prev), 0}.
    """
    if not evaluated:
        return prev_wage
    w_hat = deserved_wage(effort, wage_scale)
    return max(w_hat + contract.alpha * (w_hat - prev_wage), 0.0)


def bonus(prev_wage: float, effort: float, alpha: float, evaluated: bool) -> float:
    """Nonrecurrent bonus of the Cobb-Douglas scheme; may be negative."""
    if not evaluated:
        return 0.0
    return alpha * (effort - prev_wage)


def consumption(wage: float, bonus_amount: float) -> float:
    """Per-period consumption: wage plus bonus. Negative totals are rejected."""
    total = wage + bonus_amount
    if total < 0.0:
        raise DomainError(f"consumption would be negative: {wage} + {bonus_amount}")
    return total


def period_utility(consumption_value: float, effort: float, prefs: WorkerPrefs) -> float:
    """Single-period utility.

    Additive: ln(c) - b*e, undefined at c <= 0.
    Cobb-Douglas: (1-e)^gamma * c^beta, well defined at c = 0.
    """
    if prefs.family is UtilityFamily.ADDITIVE:
        if consumption_value <= 0.0:
            raise DomainError(f"log utility undefined at consumption {consumption_value}")
        return math.log(consumption_value) - prefs.b * effort
    if not 0.0 <= effort <= 1.0:
        raise DomainError(f"effort outside [0, 1]: {effort}")
    if consumption_value < 0.0:
        raise DomainError(f"negative consumption: {consumption_value}")
    return (1.0 - effort) ** prefs.gamma * consumption_value ** prefs.beta


def production(effort: float, firm: FirmParams) -> float:
    """Per-worker output, constant returns: k * effort."""
    return firm.k * effort
