"""Comparative statics of the single-period optimal effort.

The additive worker's one-period optimum is the affine rule
e* = clip(p/b + alpha/(1+alpha)*w0/s, 0, 1) (model.affine_effort), so its
slopes are exact: de/dp = 1/b, de/dw0 = alpha/((1+alpha)s) and
de/dalpha = w0/((1+alpha)^2 s) where e* < 1, and 0 where e* = 1. They are
right derivatives, so they hold at the parameter bounds p = 0 and alpha = 0
too. The golden-section search and the first-order-condition residual check
the rule independently. The regime label compares the deserved wage at the
optimum against the base wage: w_hat(e*) <= w0 is the penalty regime.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .golden import golden_max_vec
from .model import DomainError, affine_effort, require_base_consumption
from .params import ContractParams, UtilityFamily, WorkerPrefs


def _require_additive(prefs: WorkerPrefs) -> None:
    if prefs.family is not UtilityFamily.ADDITIVE:
        raise ValueError("comparative statics implemented for the additive family")


def optimal_effort(contract: ContractParams, prefs: WorkerPrefs,
                   wage_scale: float = 1.0) -> float:
    """Single-period optimum, exact and smooth in the parameters."""
    _require_additive(prefs)
    return float(affine_effort(contract.p, contract.alpha, contract.w0, b=prefs.b,
                               s=wage_scale))


def optimal_effort_search(contract: ContractParams, prefs: WorkerPrefs,
                          wage_scale: float = 1.0, tol: float = 1e-10) -> float:
    """Golden-section solution of the same problem, used as an oracle.
    Raises DomainError for w0 = 0 with p < 1 (model.require_base_consumption)."""
    _require_additive(prefs)
    require_base_consumption(contract)
    p, alpha, w0, b = contract.p, contract.alpha, contract.w0, prefs.b
    s = wage_scale

    def objective(e: float) -> float:
        x = s * (1.0 + alpha) * e - alpha * w0
        if p > 0.0 and x <= 0.0:
            return -math.inf
        val = -b * e
        if p > 0.0:
            val += p * math.log(x)
        if p < 1.0:
            val += (1.0 - p) * math.log(w0)
        return val

    lo = min(alpha * w0 / ((1.0 + alpha) * s) + 1e-12, 1.0) if p > 0.0 else 0.0
    e, _ = golden_max_vec(objective, lo, 1.0, tol=tol)
    return e


def foc_residual(contract: ContractParams, prefs: WorkerPrefs, effort: float,
                 wage_scale: float = 1.0) -> float:
    """Residual p - v'(e) / [u'(c_eval(e)) * psi'(e)] with psi = (1+alpha)*w_hat.

    Zero at interior optima. Raises when the evaluated consumption is
    nonpositive under log utility.
    """
    _require_additive(prefs)
    p, alpha, w0, b = contract.p, contract.alpha, contract.w0, prefs.b
    s = wage_scale
    c_eval = (1.0 + alpha) * s * effort - alpha * w0
    if c_eval <= 0.0:
        raise DomainError(f"evaluated consumption {c_eval} <= 0 at effort {effort}")
    u_prime = 1.0 / c_eval
    psi_prime = (1.0 + alpha) * s
    return p - b / (u_prime * psi_prime)


PENALTY_REGIME = "deserved<=w0"
BONUS_REGIME = "deserved>w0"


@dataclass(frozen=True)
class EffortSensitivity:
    effort: float
    de_dp: float
    de_dw0: float
    de_dalpha: float
    regime: str
    boundary: bool                # optimum at an effort bound


def effort_sensitivity(contract: ContractParams, prefs: WorkerPrefs,
                       wage_scale: float = 1.0) -> EffortSensitivity:
    """Exact right derivatives of the optimal effort with respect to p, w0
    and alpha: the affine rule's slopes below full effort, 0 at it."""
    e_star = optimal_effort(contract, prefs, wage_scale)
    alpha, s = contract.alpha, wage_scale
    if e_star < 1.0:
        de_dp, de_dw0 = 1.0 / prefs.b, alpha / ((1.0 + alpha) * s)
        de_da = contract.w0 / ((1.0 + alpha) ** 2 * s)
    else:
        de_dp = de_dw0 = de_da = 0.0
    deserved = wage_scale * e_star
    regime = PENALTY_REGIME if deserved <= contract.w0 + 1e-9 else BONUS_REGIME
    return EffortSensitivity(effort=e_star, de_dp=de_dp, de_dw0=de_dw0,
                             de_dalpha=de_da, regime=regime,
                             boundary=e_star in (0.0, 1.0))


@dataclass(frozen=True)
class SensitivityCell:
    contract: ContractParams
    sensitivity: EffortSensitivity
    foc_residual_at_optimum: float
    interior: bool


def sensitivity_grid(p_values, alpha_values, w0_values, prefs: WorkerPrefs,
                     wage_scale: float = 1.0) -> list[SensitivityCell]:
    """Sensitivity sweep over a parameter grid; cells carry an interior flag."""
    cells = []
    for p in p_values:
        for alpha in alpha_values:
            for w0 in w0_values:
                contract = ContractParams(p, alpha, w0)
                sens = effort_sensitivity(contract, prefs, wage_scale=wage_scale)
                interior = 0.0 < sens.effort < 1.0
                res = foc_residual(contract, prefs, sens.effort, wage_scale) \
                    if interior else math.nan
                cells.append(SensitivityCell(contract, sens, res, interior))
    return cells
