import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from wagedyn.checks import load_scenario
from wagedyn.config import ConfigError, resolved_json, validate_config

SCENARIOS = Path(__file__).resolve().parent.parent / "src" / "wagedyn" / "scenarios"
SCENARIO_NAMES = ["fig3_1", "fig3_2", "fig3_3", "table3_2", "table3_3", "table3_4",
                  "fig3_4", "fig4_1", "fig4_2", "appendix1"]

MINIMAL = {
    "contract": {"p": 0.2, "alpha": 0.5, "w0": 0.4},
    "prefs": {"family": "additive", "delta": 0.9},
    "horizon": {"T": 3},
}


def test_bound_violation_names_key():
    bad = {"contract": {"p": 1.3, "alpha": 0.5, "w0": 0.4}}
    with pytest.raises(ConfigError) as err:
        validate_config(bad)
    assert "contract.p" in str(err.value)
    assert "[0, 1]" in str(err.value)


def test_all_violations_collected():
    bad = {"contract": {"p": 1.3, "alpha": -2, "w0": 0.4},
           "prefs": {"family": "additive", "delta": 1.5},
           "horizon": {"T": 0}}
    with pytest.raises(ConfigError) as err:
        validate_config(bad)
    errors = err.value.errors
    assert len(errors) >= 4
    joined = " ".join(errors)
    for key in ("contract.p", "contract.alpha", "prefs.delta", "horizon.T"):
        assert key in joined


def test_missing_required_key_named():
    with pytest.raises(ConfigError) as err:
        validate_config({"contract": {"alpha": 0.5, "w0": 0.4}})
    assert "contract.p" in str(err.value)


def test_unknown_section_rejected():
    with pytest.raises(ConfigError, match="unknown section"):
        validate_config(dict(MINIMAL, bogus={}))


def test_defaults_filled():
    scenario = validate_config(MINIMAL)
    assert scenario.raw["prefs"]["b"] == 1.0
    assert scenario.raw["simulation"] == {"seed": 42, "n_paths": 100000}
    assert scenario.raw["grid"] == {"wage_step": 0.1, "effort_step": 0.1,
                                    "wage_max": 1.0}
    firm = validate_config(dict(MINIMAL, firm={"k": 2.0}))
    assert firm.raw["firm"]["lambda"] == pytest.approx(0.5)  # unit wage scale
    assert firm.raw["firm"]["eta"] == 0.9  # defaults to the worker's delta
    assert firm.raw["firm"]["c"] == 0.0


def test_resolution_is_idempotent():
    scenario = validate_config(MINIMAL)
    again = validate_config(scenario.raw)
    assert again.raw == scenario.raw
    assert resolved_json(again) == resolved_json(scenario)


@pytest.mark.parametrize("name", SCENARIO_NAMES)
def test_bundled_scenarios_validate_and_roundtrip(name):
    scenario = load_scenario(name)
    again = validate_config(scenario.raw)
    assert again.raw == scenario.raw


def run_cli(*args):
    # the child finds the package in this checkout, installed or not
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SCENARIOS.parents[1]),
                                                      env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "wagedyn.cli", *args],
                          capture_output=True, text=True, env=env)


def test_cli_config_error_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"contract": {"p": 1.3, "alpha": 0.5, "w0": 0.4},
                               "prefs": {"family": "additive", "delta": 0.9},
                               "horizon": {"T": 2}}))
    proc = run_cli("additive-profile", "--config", str(bad),
                   "--out", str(tmp_path / "out"))
    assert proc.returncode == 1
    assert "contract.p" in proc.stderr


def test_cli_runs_bundled_scenario(tmp_path):
    out = tmp_path / "out"
    proc = run_cli("cd-policy", "--config", str(SCENARIOS / "table3_2.json"),
                   "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    assert (out / "policy.csv").exists()
    assert (out / "resolved_scenario.json").exists()
    header = (out / "policy.csv").read_text().splitlines()[0]
    assert header.split(",")[0] == "prev_wage"
    assert len(header.split(",")) == 11


def test_monotonicity_json_holds_booleans(tmp_path):
    from wagedyn.report import RUNNERS

    RUNNERS["cd-policy"](load_scenario("table3_2"), tmp_path)
    payload = json.loads((tmp_path / "monotonicity.json").read_text())
    for key in ("decreasing_in_wage", "decreasing_over_periods"):
        assert payload[key], key
        assert all(type(flag) is bool for flag in payload[key]), payload[key]


def test_cli_employer_optimum(tmp_path):
    cfg = tmp_path / "employer.json"
    cfg.write_text(json.dumps({
        "prefs": {"family": "additive", "delta": 0.9},
        "firm": {"k": 1.5, "lambda": 0.6666666666666666, "c": 0.3, "eta": 0.9},
        "horizon": {"T": 1},
        "experiment": {"grid_step": 0.05, "refine_rounds": 1},
    }))
    out = tmp_path / "out"
    proc = run_cli("employer-optimum", "--config", str(cfg), "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    payload = json.loads((out / "optimum.json").read_text())
    assert payload["analytic"]["alpha"] == pytest.approx(0.341641, abs=1e-6)
    assert payload["analytic"]["p"] == pytest.approx(0.618034, abs=1e-6)


def test_cli_seed_override_changes_outputs(tmp_path):
    cfg = str(SCENARIOS / "fig3_2.json")
    small = {"contract": {"p": 0.2, "alpha": 0.5, "w0": 0.4},
             "prefs": {"family": "additive", "delta": 0.9},
             "horizon": {"T": 3}, "simulation": {"seed": 42, "n_paths": 500}}
    cfg = tmp_path / "small.json"
    cfg.write_text(json.dumps(small))
    out1, out2, out3 = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    assert run_cli("additive-profile", "--config", str(cfg), "--out",
                   str(out1)).returncode == 0
    assert run_cli("additive-profile", "--config", str(cfg), "--out",
                   str(out2)).returncode == 0
    assert run_cli("additive-profile", "--config", str(cfg), "--out",
                   str(out3), "--seed", "7").returncode == 0
    same = (out1 / "profile.csv").read_bytes() == (out2 / "profile.csv").read_bytes()
    diff = (out1 / "profile.csv").read_bytes() != (out3 / "profile.csv").read_bytes()
    assert same and diff


def test_cli_writes_every_format_and_has_no_format_option(tmp_path, capsys):
    from wagedyn.cli import main

    out = tmp_path / "out"
    assert main(["cd-path", "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == ["path.csv", "path.json",
                                                     "resolved_scenario.json"]
    with pytest.raises(SystemExit) as exc:
        main(["cd-path", "--out", str(tmp_path / "csv"), "--format", "csv"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --format csv" in capsys.readouterr().err
    assert not (tmp_path / "csv").exists()


FIRM = {"k": 1.5, "lambda": 2.0 / 3.0, "c": 0.3, "eta": 0.9}
WORKER = "contract, prefs and horizon sections"


@pytest.mark.parametrize("command, config, needs", [
    ("additive-profile", {"prefs": MINIMAL["prefs"], "horizon": {"T": 3}}, WORKER),
    ("cd-policy", {"contract": MINIMAL["contract"], "horizon": {"T": 3}}, WORKER),
    ("cd-path", {"contract": MINIMAL["contract"], "prefs": MINIMAL["prefs"]}, WORKER),
    ("cd-distribution", {"prefs": MINIMAL["prefs"], "horizon": {"T": 3}}, WORKER),
    ("employer-optimum", MINIMAL, "the firm section"),
    ("tech-sweep", {"prefs": MINIMAL["prefs"]}, "the firm section"),
    ("tech-shock", {"firm": FIRM, "prefs": MINIMAL["prefs"]},
     "firm, prefs and horizon sections"),
    ("statics", {"contract": MINIMAL["contract"], "firm": FIRM}, "the prefs section"),
])
def test_cli_missing_section_names_what_the_runner_needs(tmp_path, capsys, command,
                                                         config, needs):
    from wagedyn.cli import main

    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {command} needs {needs}\n"
    assert [p.name for p in out.iterdir()] == ["resolved_scenario.json"]


def test_tech_shock_without_k_after_is_a_config_error(tmp_path, capsys):
    from wagedyn.cli import main

    raw = json.loads((SCENARIOS / "fig4_2.json").read_text())
    cfg = tmp_path / "shock.json"
    cfg.write_text(json.dumps(dict(raw, experiment={"k_before": 1.1})))
    out = tmp_path / "out"
    assert main(["tech-shock", "--config", str(cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err == ("error: experiment.k_after: tech-shock needs the "
                                       "marginal product after the shock\n")
    assert [p.name for p in out.iterdir()] == ["resolved_scenario.json"]


def test_employer_optimum_at_free_monitoring_flags_p_out_of_range(tmp_path):
    # c = 0, the config default, sends p* to +inf: the contract is (1, 0, k)
    from wagedyn.cli import main

    cfg = tmp_path / "free.json"
    cfg.write_text(json.dumps({"firm": {"k": 1.5}, "prefs": MINIMAL["prefs"],
                               "horizon": {"T": 1},
                               "experiment": {"grid_step": 0.1, "refine_rounds": 0}}))
    out = tmp_path / "out"
    assert main(["employer-optimum", "--config", str(cfg), "--out", str(out)]) == 0
    rules = json.loads((out / "optimum.json").read_text())["analytic"]
    assert rules["flags"] == ["p_out_of_range"]
    assert (rules["p"], rules["alpha"], rules["w0"]) == (1.0, 0.0, 1.5)


@pytest.mark.parametrize("command", ["employer-optimum", "tech-sweep"])
def test_full_share_firm_prices_the_zero_contract_at_zero(tmp_path, command):
    # lam = 1: the worker captures the whole product, the one-period rules
    # give the contract (0, 0, 0), and it earns and pays nothing
    from wagedyn.cli import main

    cfg = tmp_path / "full_share.json"
    cfg.write_text(json.dumps({"firm": {"k": 1.5, "lambda": 1.0, "c": 0.3, "eta": 0.9},
                               "prefs": MINIMAL["prefs"], "horizon": {"T": 3},
                               "experiment": {"grid_step": 0.25, "refine_rounds": 0}}))
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
    cells = [cell for path in out.glob("*.csv")
             for row in path.read_text().splitlines() for cell in row.split(",")]
    assert not [cell for cell in cells if cell.lower() in ("inf", "-inf", "nan")]
    payloads = {path.name: json.loads(path.read_text(), parse_constant=pytest.fail)
                for path in out.glob("*.json")}
    rules = payloads["optimum.json"]["analytic"] if command == "employer-optimum" \
        else payloads["contracts.json"][0]
    assert rules["flags"] == ["degenerate_full_share"]
    assert rules["profit"] == 0.0


def test_employer_optimum_runs_at_the_technology_firm(tmp_path):
    # fig4_2's firm has wage scale lam*k = 0.88; the T = 5 search runs after
    # the one-period rules
    from wagedyn.cli import main

    raw = json.loads((SCENARIOS / "fig4_2.json").read_text())
    cfg = tmp_path / "fig4_2.json"
    cfg.write_text(json.dumps(dict(raw, experiment={"grid_step": 0.1,
                                                    "refine_rounds": 1})))
    out = tmp_path / "out"
    assert main(["employer-optimum", "--config", str(cfg), "--out", str(out)]) == 0
    payload = json.loads((out / "optimum.json").read_text())
    assert payload["analytic"]["flags"] == ["alpha_at_upper_bound"]
    assert payload["analytic"]["p"] == pytest.approx(0.375, abs=1e-12)
    assert sorted(payload) == ["analytic", "grid_search"]


def test_employer_optimum_searches_on_the_scenario_grid(tmp_path):
    # the 0.05 w0 axis lies on the scenario's 0.05 grid but not on the
    # default 0.1 one: the Cobb-Douglas search solves on the scenario's grid
    from wagedyn.cli import main
    from wagedyn.employer import profit_by_history_enumeration, worker_policy
    from wagedyn.params import ContractParams

    raw = json.loads((SCENARIOS / "table3_2.json").read_text())
    config = {"prefs": raw["prefs"], "firm": {"k": 1.0, "lambda": 0.25, "c": 0.1},
              "horizon": {"T": 3},
              "grid": {"wage_step": 0.05, "effort_step": 0.05, "wage_max": 1.0},
              "experiment": {"grid_step": 0.05, "refine_rounds": 0}}
    cfg = tmp_path / "fine_grid.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert main(["employer-optimum", "--config", str(cfg), "--out", str(out)]) == 0
    found = json.loads((out / "optimum.json").read_text())["grid_search"]
    scenario = validate_config(config)
    contract = ContractParams(found["p"], found["alpha"], found["w0"])
    policy = worker_policy(contract, scenario.prefs, scenario.horizon, scenario.firm,
                           cd_grid=scenario.grid)
    enumerated = profit_by_history_enumeration(contract, scenario.firm, scenario.prefs,
                                               scenario.horizon, policy)
    assert abs(found["profit"] - enumerated) <= 1e-12


@pytest.mark.parametrize("command, scenario, key, value, expected", [
    ("tech-sweep", "fig4_1", "k_values", 1.2, "a list of numbers"),
    ("tech-shock", "fig4_2", "k_after", [1.2], "a number"),
    ("tech-shock", "fig4_2", "k_before", True, "a number"),
    ("additive-profile", "fig3_1", "initial_effort", "0.3", "a number"),
    ("additive-profile", "fig3_3", "variance_w0_values", [0.1, None], "a list of numbers"),
    ("cd-distribution", "fig3_4", "horizons", [10, 20.0], "a list of integers"),
    ("statics", "appendix1", "p_values", [0.1, False], "a list of numbers"),
    ("employer-optimum", None, "refine_rounds", "two", "an integer"),
    ("employer-optimum", None, "grid_step", [0.05], "a number"),
])
def test_experiment_value_of_the_wrong_type_is_a_config_error(tmp_path, capsys, command,
                                                              scenario, key, value,
                                                              expected):
    from wagedyn.cli import main

    raw = (json.loads((SCENARIOS / f"{scenario}.json").read_text()) if scenario else
           {"firm": FIRM, "prefs": MINIMAL["prefs"], "horizon": {"T": 1}})
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(dict(raw, experiment=dict(raw.get("experiment", {}),
                                                        **{key: value}))))
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (f"config error: experiment.{key}: expected "
                                       f"{expected}, got {value!r}\n")
    assert not out.exists()


@pytest.mark.parametrize("value", [0, -0.1, 0.0])
def test_employer_optimum_grid_step_must_be_positive(tmp_path, capsys, value):
    from wagedyn.cli import main

    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"firm": FIRM, "prefs": MINIMAL["prefs"], "horizon": {"T": 1},
                               "experiment": {"grid_step": value}}))
    out = tmp_path / "out"
    assert main(["employer-optimum", "--config", str(cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (f"config error: experiment.grid_step: must be "
                                       f"finite and > 0, got {value!r}\n")
    assert not out.exists()


@pytest.mark.parametrize("value", [-1, -3])
def test_employer_optimum_refine_rounds_must_be_nonnegative(tmp_path, capsys, value):
    from wagedyn.cli import main

    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"firm": FIRM, "prefs": MINIMAL["prefs"], "horizon": {"T": 1},
                               "experiment": {"refine_rounds": value}}))
    out = tmp_path / "out"
    assert main(["employer-optimum", "--config", str(cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (f"config error: experiment.refine_rounds: must be "
                                       f">= 0, got {value!r}\n")
    assert not out.exists()


@pytest.mark.parametrize("section, value", [
    ("contract", [0.2]), ("prefs", "additive"), ("firm", 3), ("horizon", 3),
    ("grid", None), ("simulation", 42), ("experiment", [1]),
])
def test_section_that_is_not_an_object_is_a_config_error(tmp_path, capsys, section, value):
    from wagedyn.cli import main

    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**MINIMAL, "firm": FIRM, section: value}))
    out = tmp_path / "out"
    assert main(["tech-sweep", "--config", str(cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"config error: {section}: expected an object\n"
    assert not out.exists()


def test_cli_zero_consumption_error_writes_only_the_echo(tmp_path):
    # w0 = 0 with p < 1: the never-evaluated worker consumes nothing
    cfg = tmp_path / "zero.json"
    cfg.write_text(json.dumps(dict(MINIMAL, contract={"p": 0.2, "alpha": 0.5, "w0": 0.0})))
    out = tmp_path / "out"
    proc = run_cli("additive-profile", "--config", str(cfg), "--out", str(out))
    assert proc.returncode == 1
    assert proc.stderr == ("error: w0 = 0 with p < 1 gives zero consumption "
                           "when never evaluated\n")
    assert [p.name for p in out.iterdir()] == ["resolved_scenario.json"]



@pytest.mark.parametrize("prefs, worker", [
    ({"family": "additive", "delta": 0.9, "b": 2.0}, "additive worker with b = 2.0"),
    ({"family": "cobb_douglas", "delta": 0.9, "gamma": 0.4, "beta": 0.6},
     "cobb_douglas worker with b = None"),
])
def test_tech_sweep_rejects_a_worker_other_than_b_1(tmp_path, capsys, prefs, worker):
    # the stationary rules the sweep prices assume the additive worker with
    # b = 1, so another worker is refused rather than priced as that one
    from wagedyn.cli import main

    raw = json.loads((SCENARIOS / "fig4_1.json").read_text())
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps(dict(raw, prefs=prefs)))
    out = tmp_path / "out"
    assert main(["tech-sweep", "--config", str(cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err == ("error: prefs.b: tech-sweep's stationary rules "
                                       "assume the additive worker with b = 1, got the "
                                       f"{worker}\n")
    assert [p.name for p in out.iterdir()] == ["resolved_scenario.json"]
    cfg.write_text(json.dumps(raw))  # b = 1
    assert main(["tech-sweep", "--config", str(cfg), "--out", str(tmp_path / "b1")]) == 0

# ---------------------------------------------------------------------------
# the reader's path runs the exact best response, never the grid oracle


def _phi_column(path):
    lines = path.read_text().splitlines()
    column = lines[0].split(",").index("phi")
    return [line.split(",")[column] for line in lines[1:]]


def test_additive_profile_emits_the_exact_phi(tmp_path, capsys):
    from wagedyn.additive import envelope_evaluated_wages, phi_series_recursive
    from wagedyn.cli import main

    for name in ("fig3_2", "fig3_1"):
        sc = load_scenario(name)
        out = tmp_path / name
        assert main(["additive-profile", "--config", str(SCENARIOS / f"{name}.json"),
                     "--out", str(out)]) == 0
        c, prefs, horizon = sc.contract, sc.prefs, sc.horizon
        recursion = phi_series_recursive(c, prefs, horizon)
        if name == "fig3_2":
            expected = recursion
        else:
            # p = 1: the evaluated wages clamp the affine effort, so phi is the
            # envelope recursion's, away from the unclamped recursion
            expected = envelope_evaluated_wages(c, prefs, horizon) * prefs.b \
                / (c.p * (1.0 + c.alpha))
            assert np.max(np.abs(expected - recursion)) > 1e-2
        assert _phi_column(out / "solution.csv") == [repr(float(v)) for v in expected]
    # fig3_1's last evaluated wage is exactly p*s(1+alpha)/b = 1.4, so phi_5 = 1
    assert _phi_column(tmp_path / "fig3_1" / "solution.csv")[-1] == "1.0"


def test_grid_oracle_runs_only_for_criterion_4(tmp_path, monkeypatch, capsys):
    from wagedyn import additive
    from wagedyn.cli import main

    calls = []
    original = additive.solve_backward_induction

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(additive, "solve_backward_induction", counted)
    assert main(["additive-profile", "--out", str(tmp_path / "profile")]) == 0
    assert calls == []
    assert main(["reproduce-all", "--out", str(tmp_path / "all")]) == 2
    assert calls == [1]
