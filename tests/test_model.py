import json
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from wagedyn import (ContractParams, DomainError, FirmParams, Horizon, WorkerPrefs,
                     deterministic_path, optimal_effort_search, require_base_consumption,
                     solve_backward_induction, zero_base_consumption)
from wagedyn.config import ConfigError, validate_config
from wagedyn.params import ParamError, UtilityFamily

UNIT = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


# ---------------------------------------------------------------------------
# references: the per-period primitives as the model module once defined them,
# at unit wage scale. The solvers inline the same formulas.


def wage_update(prev_wage, effort, contract, evaluated):
    """Next wage state under the additive scheme at unit wage scale:
    unevaluated periods keep the previous wage, evaluated periods reset it to
    max{e + alpha*(e - prev), 0}."""
    if not evaluated:
        return prev_wage
    return max(effort + contract.alpha * (effort - prev_wage), 0.0)


def bonus(prev_wage, effort, alpha, evaluated):
    """Nonrecurrent bonus of the Cobb-Douglas scheme; may be negative."""
    if not evaluated:
        return 0.0
    return alpha * (effort - prev_wage)


def consumption(wage, bonus_amount):
    """Per-period consumption: wage plus bonus. Negative totals are rejected."""
    total = wage + bonus_amount
    if total < 0.0:
        raise DomainError(f"consumption would be negative: {wage} + {bonus_amount}")
    return total


def period_utility(consumption_value, effort, prefs):
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


def production(effort, firm):
    """Per-worker output, constant returns: k * effort."""
    return firm.k * effort


def test_contract_validation():
    ContractParams(0.0, 0.0, 0.0)
    ContractParams(1.0, 1.0, 2.5)
    with pytest.raises(ValueError, match="contract.p"):
        ContractParams(1.3, 0.5, 0.4)
    with pytest.raises(ValueError, match="contract.alpha"):
        ContractParams(0.5, -0.1, 0.4)
    with pytest.raises(ValueError, match="contract.w0"):
        ContractParams(0.5, 0.1, -0.4)


def test_every_violated_bound_listed_once():
    with pytest.raises(ParamError) as err:
        ContractParams(1.3, -2.0, -0.4)
    assert err.value.errors == ["contract.p: must be within [0, 1], got 1.3",
                                "contract.alpha: must be within [0, 1], got -2.0",
                                "contract.w0: must be finite and >= 0, got -0.4"]
    with pytest.raises(ParamError) as err:
        FirmParams(k=0.0, lam=1.5, c=-1.0, eta=0.0)
    assert [e.split(":")[0] for e in err.value.errors] == [
        "firm.k", "firm.lambda", "firm.c", "firm.eta"]
    with pytest.raises(ParamError) as err:
        WorkerPrefs.cobb_douglas(delta=1.0, gamma=0.0, beta=-1.0)
    assert [e.split(":")[0] for e in err.value.errors] == [
        "prefs.delta", "prefs.gamma", "prefs.beta"]


def test_prefs_validation():
    WorkerPrefs.additive(delta=0.9)
    WorkerPrefs.cobb_douglas(delta=0.9, gamma=0.4, beta=0.6)
    with pytest.raises(ValueError):
        WorkerPrefs.additive(delta=1.0)
    with pytest.raises(ValueError):
        WorkerPrefs.additive(delta=0.9, b=0.0)
    with pytest.raises(ValueError):
        WorkerPrefs.cobb_douglas(delta=0.9, gamma=0.0, beta=0.6)
    with pytest.raises(ValueError):
        # family-inappropriate parameter
        WorkerPrefs(family=WorkerPrefs.additive(delta=0.9).family, delta=0.9,
                    b=1.0, gamma=0.3)


def test_every_solver_refuses_the_other_family_by_one_guard():
    # params.require_family is the one guard: each solver's refusal names
    # prefs.family, the family it needs and the family it got
    from wagedyn import additive, cobb_douglas, statics

    contract, horizon = ContractParams(0.5, 0.5, 0.5), Horizon(2)
    additive_prefs = WorkerPrefs.additive(delta=0.9)
    cd_prefs = WorkerPrefs.cobb_douglas(delta=0.9, gamma=0.4, beta=0.6)
    refusals = [
        (lambda: additive.best_response(contract, cd_prefs, horizon),
         "prefs.family: must be additive for the additive solver, got cobb_douglas"),
        (lambda: additive.best_responses([contract], cd_prefs, horizon),
         "prefs.family: must be additive for the additive solver, got cobb_douglas"),
        (lambda: statics.optimal_effort(contract, cd_prefs),
         "prefs.family: must be additive for the comparative statics, got cobb_douglas"),
        (lambda: cobb_douglas.solve_policy(contract, additive_prefs, horizon),
         "prefs.family: must be cobb_douglas for the Cobb-Douglas solver, got additive"),
    ]
    for call, message in refusals:
        with pytest.raises(ValueError) as refused:
            call()
        assert str(refused.value) == message


def test_non_finite_params_rejected(tmp_path):
    with pytest.raises(ParamError) as err:
        ContractParams(1.0, 0.5, math.inf)
    assert err.value.errors == ["contract.w0: must be finite and >= 0, got inf"]
    with pytest.raises(ParamError) as err:
        FirmParams(k=math.inf, lam=0.8, c=math.inf, eta=0.9)
    assert err.value.errors == ["firm.k: must be finite and > 0, got inf",
                                "firm.c: must be finite and >= 0, got inf"]
    scenario = tmp_path / "scenario.json"  # json writes inf as Infinity
    scenario.write_text(json.dumps({"contract": {"p": 1.0, "alpha": 0.5, "w0": math.inf},
                                    "firm": {"k": math.inf, "lambda": 0.8, "c": math.inf,
                                             "eta": 0.9}}))
    with pytest.raises(ConfigError) as err:
        validate_config(scenario)
    assert err.value.errors == ["contract.w0: must be finite and >= 0, got inf",
                                "firm.k: must be finite and > 0, got inf",
                                "firm.c: must be finite and >= 0, got inf"]


def test_non_finite_prefs_rejected():
    # like the contract and firm bounds: an infinite b would make de/dp 0 and
    # the first-order residual -inf
    with pytest.raises(ParamError) as err:
        WorkerPrefs.additive(delta=0.9, b=math.inf)
    assert err.value.errors == ["prefs.b: must be finite and > 0, got inf"]
    with pytest.raises(ParamError) as err:
        WorkerPrefs.cobb_douglas(delta=0.9, gamma=math.inf, beta=math.inf)
    assert err.value.errors == ["prefs.gamma: must be finite and > 0, got inf",
                                "prefs.beta: must be finite and > 0, got inf"]


def test_firm_and_horizon_validation():
    firm = FirmParams(k=1.5, lam=0.8, c=0.2, eta=0.9)
    assert firm.wage_scale == pytest.approx(1.2)
    with pytest.raises(ValueError):
        FirmParams(k=0.0, lam=0.8, c=0.2, eta=0.9)
    with pytest.raises(ValueError):
        FirmParams(k=1.5, lam=1.2, c=0.2, eta=0.9)
    with pytest.raises(ValueError):
        Horizon(0)


def test_wage_update_examples():
    c = ContractParams(0.2, 0.5, 0.4)
    # fixed point: effort equal to the previous wage leaves it unchanged
    assert wage_update(0.4, 0.4, c, evaluated=True) == pytest.approx(0.4)
    c2 = ContractParams(1.0, 0.4, 0.5)
    assert wage_update(0.5, 0.315, c2, evaluated=True) == pytest.approx(0.241)
    c3 = ContractParams(0.2, 1.0, 0.9)
    assert wage_update(0.9, 0.0, c3, evaluated=True) == 0.0  # clamped
    assert wage_update(0.7, 0.2, c, evaluated=False) == 0.7


@given(w=UNIT, alpha=UNIT)
def test_wage_update_fixed_point(w, alpha):
    c = ContractParams(0.5, alpha, w)
    assert wage_update(w, w, c, evaluated=True) == pytest.approx(w, abs=1e-12)


@given(w=UNIT, e=UNIT, alpha=UNIT)
def test_wage_update_clamps_at_zero(w, e, alpha):
    c = ContractParams(0.5, alpha, w)
    assert wage_update(w, e, c, evaluated=True) >= 0.0


@pytest.mark.parametrize("alpha", [0.0, 0.4, 1.0])
def test_wage_update_contraction(alpha):
    # evaluated every period at constant effort: |w_t - e| = alpha^t |w0 - e|
    c = ContractParams(1.0, alpha, 0.6)
    e = 0.4
    w = c.w0
    for t in range(1, 21):
        w = wage_update(w, e, c, evaluated=True)
        assert abs(w - e) == pytest.approx(alpha ** t * abs(c.w0 - e), abs=1e-12)


def test_wage_update_monotone_in_effort():
    # strictly increasing wherever the zero clamp does not bind
    c = ContractParams(0.5, 0.4, 0.3)
    lo = c.alpha * 0.3 / (1 + c.alpha)
    efforts = [lo + (1 - lo) * i / 50 for i in range(1, 51)]
    wages = [wage_update(0.3, e, c, evaluated=True) for e in efforts]
    assert all(w > 0 for w in wages)
    assert all(b > a for a, b in zip(wages, wages[1:]))


@given(w0=UNIT, alpha=UNIT, efforts=st.lists(UNIT, max_size=12))
def test_deterministic_path_folds_the_wage_update_bit_for_bit(w0, alpha, efforts):
    c = ContractParams(1.0, alpha, w0)
    want, w = [], w0
    for e in efforts:
        w = wage_update(w, e, c, evaluated=True)
        want.append(w)
    assert [v.hex() for v in deterministic_path(c, efforts)] == [v.hex() for v in want]


def test_bonus_and_consumption():
    assert bonus(0.4, 0.6, 0.1, evaluated=True) == pytest.approx(0.02)
    assert bonus(0.4, 0.6, 0.1, evaluated=False) == 0.0
    assert bonus(0.6, 0.4, 0.1, evaluated=True) == pytest.approx(-0.02)
    assert consumption(0.6, 0.02) == pytest.approx(0.62)
    assert consumption(0.4, 0.0) == pytest.approx(0.4)
    assert consumption(0.5, -0.01) == pytest.approx(0.49)
    with pytest.raises(DomainError):
        consumption(0.1, -0.2)


def test_period_utility_values():
    add = WorkerPrefs.additive(delta=0.9)
    assert period_utility(1.0, 0.0, add) == pytest.approx(0.0)
    assert period_utility(0.3, 0.333, add) == pytest.approx(math.log(0.3) - 0.333)
    with pytest.raises(DomainError):
        period_utility(0.0, 0.2, add)
    cd = WorkerPrefs.cobb_douglas(delta=0.9, gamma=0.3, beta=0.7)
    assert period_utility(0.5, 1.0, cd) == 0.0
    assert period_utility(0.0, 0.3, cd) == 0.0


@given(c1=st.floats(0.05, 2.0), gap=st.floats(1e-6, 1.0),
       e1=st.floats(0.0, 0.9), step=st.floats(1e-6, 0.09))
def test_additive_utility_monotone(c1, gap, e1, step):
    prefs = WorkerPrefs.additive(delta=0.9)
    assert period_utility(c1, 0.5, prefs) < period_utility(c1 + gap, 0.5, prefs)
    assert period_utility(1.0, e1, prefs) > period_utility(1.0, e1 + step, prefs)


@given(c1=st.floats(0.01, 2.0), gap=st.floats(1e-6, 1.0),
       e1=st.floats(0.0, 0.9), step=st.floats(1e-6, 0.05))
def test_cobb_douglas_utility_monotone(c1, gap, e1, step):
    prefs = WorkerPrefs.cobb_douglas(delta=0.9, gamma=0.3, beta=0.7)
    assert period_utility(c1, 0.5, prefs) < period_utility(c1 + gap, 0.5, prefs)
    assert period_utility(c1, e1, prefs) > period_utility(c1, e1 + step, prefs)


def test_production():
    firm = FirmParams(k=1.5, lam=0.8, c=0.2, eta=0.9)
    assert production(0.0, firm) == 0.0
    assert production(1.0, firm) == pytest.approx(1.5)
    assert production(0.618, firm) == pytest.approx(0.927)


def test_zero_base_consumption_defined_once():
    # w0 = 0 with p < 1: the never-evaluated worker consumes nothing
    assert zero_base_consumption(0.5, 0.0)
    assert not zero_base_consumption(1.0, 0.0)
    assert not zero_base_consumption(0.5, 0.1)
    assert zero_base_consumption(0.5, np.array([0.0, 0.2])).tolist() == [True, False]
    assert zero_base_consumption(np.array([0.0, 1.0]), 0.0).tolist() == [True, False]
    message = "w0 = 0 with p < 1 gives zero consumption when never evaluated"
    degenerate = ContractParams(0.5, 0.5, 0.0)
    prefs = WorkerPrefs.additive(delta=0.9)
    for call in (lambda: require_base_consumption(degenerate),
                 lambda: optimal_effort_search(degenerate, prefs),
                 lambda: solve_backward_induction(degenerate, prefs, Horizon(2))):
        with pytest.raises(DomainError, match=message):
            call()
    require_base_consumption(ContractParams(1.0, 0.5, 0.0))
