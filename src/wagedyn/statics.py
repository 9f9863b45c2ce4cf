"""Comparative statics of the single-period optimal effort, at unit wage
scale (the deserved wage is the effort itself), as the paper states them.

The additive worker's one-period optimum e* is its one-period response
(model.affine_response with phi = 1): clip(p/b + alpha/(1+alpha)*w0, 0, 1),
and 0 when p = 0 and in the dead corner. The slopes are its exact right
derivatives, at the parameter bounds p = 0 and alpha = 0 too: de/dp = 1/b,
de/dw0 = alpha/(1+alpha) and de/dalpha = w0/(1+alpha)^2 where p > 0 and
e* < 1, 0 at e* = 1 and in the dead corner. At p = 0 the slopes in w0 and
alpha are 0, and de/dp is 1/b where alpha*w0 = 0 and NaN where the effort
jumps, alpha*w0 > 0. The golden-section search and the first-order-condition
residual check the rule independently. The regime label compares the
deserved wage at the optimum against the base wage: w_hat(e*) <= w0 is the
penalty regime.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .golden import golden_max_vec
from .model import DomainError, affine_response, require_base_consumption
from .params import ContractParams, UtilityFamily, WorkerPrefs, require_family

# golden-section tolerance of optimal_effort_search
SEARCH_TOLERANCE = 1e-10


def optimal_effort(contract: ContractParams, prefs: WorkerPrefs) -> float:
    """Single-period optimum: the worker's one-period response, exact."""
    require_family(prefs, UtilityFamily.ADDITIVE, "the comparative statics")
    return float(affine_response(contract.p, contract.alpha, contract.w0, 1.0, prefs.b, 1.0)[0])


def optimal_effort_search(contract: ContractParams, prefs: WorkerPrefs) -> float:
    """Golden-section solution of the same problem, to SEARCH_TOLERANCE, used
    as an oracle. Raises DomainError for w0 = 0 with p < 1
    (model.require_base_consumption)."""
    require_family(prefs, UtilityFamily.ADDITIVE, "the comparative statics")
    require_base_consumption(contract)
    p, alpha, w0, b = contract.p, contract.alpha, contract.w0, prefs.b

    def objective(e: float) -> float:
        x = (1.0 + alpha) * e - alpha * w0
        if p > 0.0 and x <= 0.0:
            return -math.inf
        val = -b * e
        if p > 0.0:
            val += p * math.log(x)
        if p < 1.0:
            val += (1.0 - p) * math.log(w0)
        return val

    lo = min(alpha * w0 / (1.0 + alpha) + 1e-12, 1.0) if p > 0.0 else 0.0
    e, _ = golden_max_vec(objective, lo, 1.0, tol=SEARCH_TOLERANCE)
    return e


def foc_residual(contract: ContractParams, prefs: WorkerPrefs, effort: float) -> float:
    """Residual p - v'(e) / [u'(c_eval(e)) * psi'(e)] with psi = (1+alpha)*w_hat.

    Zero at interior optima. Raises when the evaluated consumption is
    nonpositive under log utility.
    """
    require_family(prefs, UtilityFamily.ADDITIVE, "the comparative statics")
    p, alpha, w0, b = contract.p, contract.alpha, contract.w0, prefs.b
    c_eval = (1.0 + alpha) * effort - alpha * w0
    if c_eval <= 0.0:
        raise DomainError(f"evaluated consumption {c_eval} <= 0 at effort {effort}")
    u_prime = 1.0 / c_eval
    psi_prime = 1.0 + alpha
    return p - b / (u_prime * psi_prime)


PENALTY_REGIME = "deserved<=w0"
BONUS_REGIME = "deserved>w0"


@dataclass(frozen=True)
class EffortSensitivity:
    contract: ContractParams
    effort: float
    de_dp: float
    de_dw0: float
    de_dalpha: float
    regime: str
    interior: bool
    foc_residual: float  # NaN unless interior


def effort_sensitivity(contract: ContractParams, prefs: WorkerPrefs) -> EffortSensitivity:
    """The cell at contract: e*, its exact right derivatives in p, w0 and alpha
    (module docstring), its regime, and the FOC residual where 0 < e* < 1 and
    the evaluated consumption is positive."""
    require_family(prefs, UtilityFamily.ADDITIVE, "the comparative statics")
    p, alpha, w0 = contract.p, contract.alpha, contract.w0
    e_star, x = map(float, affine_response(p, alpha, w0, 1.0, prefs.b, 1.0))
    # the dead corner depends on neither p nor b, and only there does a
    # worker with p = b = 1 idle
    if e_star == 1.0 or affine_response(1.0, alpha, w0, 1.0, 1.0, 1.0)[0] == 0.0:
        de_dp = de_dw0 = de_da = 0.0
    elif p == 0.0:  # the effort jumps to alpha/(1+alpha)*w0 as p leaves 0
        de_dp, de_dw0, de_da = (1.0 / prefs.b if alpha * w0 == 0.0 else math.nan), 0.0, 0.0
    else:
        de_dp, de_dw0, de_da = 1.0 / prefs.b, alpha / (1.0 + alpha), w0 / (1.0 + alpha) ** 2
    # the deserved wage at the optimum is e_star itself
    regime = PENALTY_REGIME if e_star <= w0 + 1e-9 else BONUS_REGIME
    interior = 0.0 < e_star < 1.0 and x > 0.0
    res = foc_residual(contract, prefs, e_star) if interior else math.nan
    return EffortSensitivity(contract=contract, effort=e_star, de_dp=de_dp,
                             de_dw0=de_dw0, de_dalpha=de_da, regime=regime,
                             interior=interior, foc_residual=res)


def sensitivity_grid(p_values, alpha_values, w0_values,
                     prefs: WorkerPrefs) -> list[EffortSensitivity]:
    """effort_sensitivity over every (p, alpha, w0) of a parameter grid."""
    return [effort_sensitivity(ContractParams(p, alpha, w0), prefs)
            for p in p_values for alpha in alpha_values for w0 in w0_values]
