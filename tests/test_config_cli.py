import json
import os
import subprocess
import sys
from pathlib import Path

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


def test_cli_csv_format_only(tmp_path):
    out = tmp_path / "out"
    proc = run_cli("cd-path", "--config", str(SCENARIOS / "table3_3.json"),
                   "--out", str(out), "--format", "csv")
    assert proc.returncode == 0
    assert (out / "path.csv").exists()
    assert not (out / "path.json").exists()
