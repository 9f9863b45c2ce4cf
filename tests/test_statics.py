import math
from dataclasses import replace

import pytest
from hypothesis import assume, given, settings, strategies as st

from wagedyn import (ContractParams, WorkerPrefs, effort_sensitivity, foc_residual,
                     optimal_effort, optimal_effort_search, sensitivity_grid)
from wagedyn.model import DomainError
from wagedyn.statics import BONUS_REGIME, PENALTY_REGIME

PREFS = WorkerPrefs.additive(delta=0.9)


def test_analytic_derivative_values():
    # affine optimum: de/dp = 1/b, de/dw0 = alpha/(1+alpha), de/dalpha =
    # w0/(1+alpha)^2, exactly
    contract = ContractParams(0.3, 0.5, 0.4)
    sens = effort_sensitivity(contract, PREFS)
    assert sens.de_dp == 1.0
    assert sens.de_dw0 == 0.5 / 1.5
    assert sens.de_dalpha == 0.4 / 1.5 ** 2
    assert not sens.boundary


def test_one_sided_at_boundary():
    # right derivatives at the parameter bounds p = 0 and alpha = 0
    prefs = WorkerPrefs.additive(delta=0.9, b=2.0)
    sens = effort_sensitivity(ContractParams(0.0, 0.5, 0.4), prefs)
    assert sens.de_dp == 1.0 / 2.0
    sens = effort_sensitivity(ContractParams(0.3, 0.0, 0.4), PREFS, wage_scale=2.0)
    assert sens.de_dalpha == 0.4 / 2.0


@settings(max_examples=200, deadline=None)
@given(p=st.floats(0.01, 0.99), alpha=st.floats(0.01, 0.99), w0=st.floats(0.01, 2.0),
       b=st.floats(0.5, 3.0).filter(lambda v: v != 1.0),
       s=st.floats(0.5, 3.0).filter(lambda v: v != 1.0))
def test_exact_slopes_match_central_differences(p, alpha, w0, b, s):
    prefs = WorkerPrefs.additive(delta=0.9, b=b)
    contract = ContractParams(p, alpha, w0)
    sens = effort_sensitivity(contract, prefs, wage_scale=s)
    if sens.effort == 1.0:
        assert (sens.de_dp, sens.de_dw0, sens.de_dalpha) == (0.0, 0.0, 0.0)
        return
    # a bump of h moves the effort by at most 4h, so it stays below the clamp
    assume(sens.effort < 1.0 - 1e-4)
    h = 1e-6

    def central(name):
        v = getattr(contract, name)
        up, down = (optimal_effort(replace(contract, **{name: x}), prefs, s)
                    for x in (v + h, v - h))
        return (up - down) / (2.0 * h)

    assert sens.de_dp == pytest.approx(central("p"), abs=1e-6)
    assert sens.de_dw0 == pytest.approx(central("w0"), abs=1e-6)
    assert sens.de_dalpha == pytest.approx(central("alpha"), abs=1e-6)


def test_regime_classification():
    # deserved wage at the optimum vs the base wage
    low_w0 = effort_sensitivity(ContractParams(0.3, 0.5, 0.1), PREFS)
    assert low_w0.regime == BONUS_REGIME
    high_w0 = effort_sensitivity(ContractParams(0.1, 0.1, 0.8), PREFS)
    assert high_w0.regime == PENALTY_REGIME


def test_boundary_optimum_flagged():
    sens = effort_sensitivity(ContractParams(1.0, 1.0, 1.0), PREFS)
    assert sens.boundary
    assert sens.effort == 1.0


def test_foc_residual_zero_at_optimum():
    contract = ContractParams(0.3, 0.5, 0.4)
    e_star = optimal_effort(contract, PREFS)
    assert abs(foc_residual(contract, PREFS, e_star)) < 1e-12
    e_search = optimal_effort_search(contract, PREFS)
    assert abs(foc_residual(contract, PREFS, e_search)) < 1e-8


def test_foc_residual_positive_below_optimum():
    contract = ContractParams(0.3, 0.5, 0.4)
    e_star = optimal_effort(contract, PREFS)
    low = foc_residual(contract, PREFS, e_star * 0.5)
    assert low > 0
    # strictly decreasing in effort near the optimum
    es = [e_star - 0.05, e_star, e_star + 0.05]
    residuals = [foc_residual(contract, PREFS, e) for e in es]
    assert residuals[0] > residuals[1] > residuals[2]


def test_foc_residual_domain_error():
    contract = ContractParams(0.3, 1.0, 0.9)
    with pytest.raises(DomainError):
        foc_residual(contract, PREFS, 0.1)  # evaluated consumption <= 0


def test_search_matches_formula():
    for p in (0.1, 0.3, 0.5):
        for alpha in (0.1, 0.5, 0.9):
            for w0 in (0.2, 0.5, 0.8):
                contract = ContractParams(p, alpha, w0)
                assert optimal_effort_search(contract, PREFS) == pytest.approx(
                    optimal_effort(contract, PREFS), abs=1e-6)


def test_sensitivity_grid_signs():
    cells = sensitivity_grid([0.1, 0.3, 0.5], [0.1, 0.5, 0.9], [0.2, 0.5, 0.8],
                             PREFS)
    assert len(cells) == 27
    interior = [c for c in cells if c.interior]
    assert len(interior) == 27
    for c in interior:
        assert c.sensitivity.de_dp > 0
        assert c.sensitivity.de_dw0 > 0
        if c.sensitivity.regime == PENALTY_REGIME:
            assert c.sensitivity.de_dalpha > 0
        assert not math.isnan(c.foc_residual_at_optimum)


def test_wage_scale_enters_derivatives():
    contract = ContractParams(0.3, 0.5, 0.4)
    sens = effort_sensitivity(contract, PREFS, wage_scale=2.0)
    assert sens.de_dw0 == pytest.approx(0.5 / 1.5 / 2.0, abs=1e-6)
