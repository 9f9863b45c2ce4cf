import csv
import math
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from wagedyn import (ContractParams, WorkerPrefs, effort_sensitivity, foc_residual,
                     optimal_effort, optimal_effort_search, sensitivity_grid)
from wagedyn.model import DomainError, affine_response, dead_corner
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


def test_one_sided_at_boundary():
    # right derivatives at the parameter bounds p = 0 and alpha = 0. At p = 0
    # the worker idles; the effort leaves 0 as p/b where alpha*w0 = 0, and
    # jumps to alpha/(1+alpha)*w0 otherwise, where de/dp is empty
    prefs = WorkerPrefs.additive(delta=0.9, b=2.0)
    for contract in (ContractParams(0.0, 0.0, 0.4), ContractParams(0.0, 0.5, 0.0)):
        sens = effort_sensitivity(contract, prefs)
        assert (sens.effort, sens.de_dp, sens.de_dw0, sens.de_dalpha) == \
            (0.0, 1.0 / 2.0, 0.0, 0.0)
    sens = effort_sensitivity(ContractParams(0.0, 0.5, 0.4), prefs)
    assert math.isnan(sens.de_dp) and (sens.de_dw0, sens.de_dalpha) == (0.0, 0.0)
    sens = effort_sensitivity(ContractParams(0.3, 0.0, 0.4), PREFS)
    assert sens.de_dalpha == 0.4


@settings(max_examples=200, deadline=None)
@given(p=st.floats(0.01, 0.99), alpha=st.floats(0.01, 0.99), w0=st.floats(0.01, 2.0),
       b=st.floats(0.5, 3.0).filter(lambda v: v != 1.0))
def test_exact_slopes_match_central_differences(p, alpha, w0, b):
    prefs = WorkerPrefs.additive(delta=0.9, b=b)
    contract = ContractParams(p, alpha, w0)
    sens = effort_sensitivity(contract, prefs)
    if sens.effort == 1.0:
        assert (sens.de_dp, sens.de_dw0, sens.de_dalpha) == (0.0, 0.0, 0.0)
        return
    # a bump of h moves the effort by at most 4h, so it stays below the clamp
    assume(sens.effort < 1.0 - 1e-4)
    h = 1e-6

    def central(name):
        v = getattr(contract, name)
        up, down = (optimal_effort(replace(contract, **{name: x}), prefs)
                    for x in (v + h, v - h))
        return (up - down) / (2.0 * h)

    assert sens.de_dp == pytest.approx(central("p"), abs=1e-6)
    assert sens.de_dw0 == pytest.approx(central("w0"), abs=1e-6)
    assert sens.de_dalpha == pytest.approx(central("alpha"), abs=1e-6)


# forward step of the slope check against the worker's response
H = 1e-7


def _response_effort(p, alpha, w0, b):
    return float(affine_response(p, alpha, w0, 1.0, b, 1.0)[0])


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(p=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
       alpha=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
       edge_share=st.one_of(st.just(1.0), st.floats(0.0, 2.0)),
       b=st.floats(0.1, 10.0))
def test_statics_differentiate_the_worker_response(p, alpha, edge_share, b):
    # w0 on both sides of the dead-corner edge (1+alpha)/alpha where alpha >=
    # 1e-3, below it otherwise
    w0 = edge_share * (1.0 + alpha) / max(alpha, 1e-3)
    sens = effort_sensitivity(ContractParams(p, alpha, w0),
                              WorkerPrefs.additive(delta=0.9, b=b))
    base = (p, alpha, w0)
    assert sens.effort.hex() == _response_effort(*base, b).hex()
    for i, slope in enumerate((sens.de_dp, sens.de_dalpha, sens.de_dw0)):
        if math.isnan(slope):
            continue
        bumped = list(base)
        bumped[i] += H
        step = bumped[i] - base[i]
        # the step crosses neither the full-effort clamp of the rule
        # p/b + alpha/(1+alpha)*w0 nor the dead-corner edge
        below_one = {q / b + a / (1.0 + a) * w < 1.0 for q, a, w in (base, bumped)}
        dead = {bool(dead_corner(a, w, 1.0)) for _, a, w in (base, bumped)}
        if len(below_one) > 1 or len(dead) > 1:
            continue
        forward = (_response_effort(*bumped, b) - _response_effort(*base, b)) / step
        assert slope == pytest.approx(forward, rel=1e-6, abs=1e-6), (i, base)


def test_regime_classification():
    # deserved wage at the optimum vs the base wage
    low_w0 = effort_sensitivity(ContractParams(0.3, 0.5, 0.1), PREFS)
    assert low_w0.regime == BONUS_REGIME
    high_w0 = effort_sensitivity(ContractParams(0.1, 0.1, 0.8), PREFS)
    assert high_w0.regime == PENALTY_REGIME


def test_boundary_optimum_flagged():
    # at full effort every slope is 0
    sens = effort_sensitivity(ContractParams(1.0, 1.0, 1.0), PREFS)
    assert sens.effort == 1.0
    assert sens.de_dp == sens.de_dw0 == sens.de_dalpha == 0.0


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
        assert c.de_dp > 0
        assert c.de_dw0 > 0
        if c.regime == PENALTY_REGIME:
            assert c.de_dalpha > 0
        assert not math.isnan(c.foc_residual)


def test_no_interior_cell_at_p_0():
    # the never-evaluated worker idles, whatever alpha and w0, so the effort
    # does not move with them; it jumps as p leaves 0, so de/dp is empty
    cells = sensitivity_grid([0.0, 0.3], [0.5], [0.5], PREFS)
    assert [c.interior for c in cells] == [False, True]
    assert math.isnan(cells[0].foc_residual)
    assert cells[0].effort == 0.0 and math.isnan(cells[0].de_dp)
    assert (cells[0].de_dw0, cells[0].de_dalpha) == (0.0, 0.0)
    assert abs(cells[1].foc_residual) < 1e-12


def test_worker_idles_in_the_dead_corner():
    # w0 >= (1+alpha)/alpha: not even full effort leaves a positive evaluated
    # wage, so the worker exerts none, at every p, and no bump of p, w0 or
    # alpha moves it out
    for p in (0.0, 0.5, 1.0):
        for w0 in (2.0, 3.0):
            sens = effort_sensitivity(ContractParams(p, 1.0, w0), PREFS)
            assert sens.effort == 0.0 and not sens.interior, (p, w0)
            assert (sens.de_dp, sens.de_dw0, sens.de_dalpha) == (0.0, 0.0, 0.0)


def test_no_interior_cell_where_p_rounds_away():
    # p/b below an ulp of alpha/(1+alpha)*w0 leaves the evaluated
    # consumption to rounding, so the residual would be noise or raise
    sens = effort_sensitivity(ContractParams(1e-20, 0.5, 0.5), PREFS)
    assert 0.0 < sens.effort < 1.0
    assert not sens.interior and math.isnan(sens.foc_residual)


def _finite_or_empty(cell):
    return cell == "" or math.isfinite(float(cell))


@pytest.mark.xfail(strict=True, reason="the params bounds accept a subnormal b, whose "
                   "1/b (the slope de/dp) overflows to inf")
def test_slope_is_finite_at_a_subnormal_b():
    # at p = 0 with alpha = 0 the effort leaves 0 as p/b: de/dp = 1/b
    sens = effort_sensitivity(ContractParams(0.0, 0.0, 0.5),
                              WorkerPrefs.additive(delta=0.9, b=5e-324))
    assert math.isfinite(sens.de_dp)


# b is drawn over the normal floats: below them 1/b overflows, which
# test_slope_is_finite_at_a_subnormal_b records
@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(p_values=st.lists(st.floats(0.0, 1.0), max_size=3),
       alpha_values=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=3),
       w0_values=st.lists(st.floats(0.0, sys.float_info.max), min_size=1, max_size=3),
       b=st.floats(sys.float_info.min, sys.float_info.max))
def test_statics_runner_writes_finite_numbers(p_values, alpha_values, w0_values, b):
    from wagedyn.config import validate_config
    from wagedyn.report import run_statics

    scenario = validate_config({
        "prefs": {"family": "additive", "delta": 0.9, "b": b},
        "experiment": {"p_values": [0.0, 1.0] + p_values, "alpha_values": alpha_values,
                       "w0_values": w0_values}})
    with tempfile.TemporaryDirectory() as out:
        run_statics(scenario, Path(out))
        with open(Path(out) / "statics.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
    assert len(rows) == (2 + len(p_values)) * len(alpha_values) * len(w0_values)
    numeric = ["p", "alpha", "w0", "effort", "de_dp", "de_dw0", "de_dalpha",
               "foc_residual"]
    for row in rows:
        assert all(_finite_or_empty(row[name]) for name in numeric), row
        if row["interior"] == "true":
            assert row["foc_residual"] != "", row
