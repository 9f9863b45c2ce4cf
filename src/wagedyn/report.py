"""Scenario runners: compute results and emit CSV/JSON/SVG artifacts.

Numbers in CSV cells use the shortest round-trip decimal representation so
golden files are byte-stable. Every runner writes the resolved scenario echo
next to its outputs.
"""
from __future__ import annotations

import csv
import json
import math
from dataclasses import replace
from pathlib import Path
from typing import Any, Sequence

import numpy as np

from . import additive, statics
from .cobb_douglas import (TableEffortPolicy, always_sampled_path,
                           policy_monotonicity_report, solve_policy)
from .config import Scenario, resolved_json
from .distribution import cd_bracket_table, profile, propagate, responder, simulate
from .employer import (GridSteps, grid_search_optimum, require_rules_worker,
                       stationary_one_period_optimum, tech_shock, tech_sweep)
from .model import require_base_consumption
from .params import ContractParams, Horizon
from .svgchart import write_line_chart


def fmt(value: Any) -> str:
    """Shortest round-trip cell representation."""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        f = float(value)
        if math.isnan(f):
            return ""
        return repr(f)
    return str(value)


def write_csv(path: Path, header: Sequence[str], rows: Sequence[Sequence[Any]]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([fmt(v) for v in row])


def write_json(path: Path, obj: Any) -> None:
    """Write obj as sorted, indented JSON; numpy values and tuples become
    JSON values and arrays, and NaN becomes null."""
    path.write_text(json.dumps(_jsonify(obj), indent=2, sort_keys=True,
                               allow_nan=False) + "\n", encoding="utf-8")


def _jsonify(value: Any) -> Any:
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (np.floating, float)):
        f = float(value)
        return None if math.isnan(f) else f
    if isinstance(value, (np.integer, int)):
        return int(value)
    if isinstance(value, np.ndarray):
        return [_jsonify(v) for v in value.tolist()]
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    if isinstance(value, dict):
        return {k: _jsonify(v) for k, v in value.items()}
    return value


# ---------------------------------------------------------------------------
# runners: each is (scenario, outdir) -> None and writes every one of its files


def _start(command: str, scenario: Scenario, outdir: Path, *sections: str) -> None:
    """Create outdir and echo the scenario into it, then raise ValueError if
    any of the named scenario sections the runner needs is missing."""
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "resolved_scenario.json").write_text(resolved_json(scenario),
                                                   encoding="utf-8")
    if any(getattr(scenario, name) is None for name in sections):
        needs = (f"the {sections[0]} section" if len(sections) == 1 else
                 f"{', '.join(sections[:-1])} and {sections[-1]} sections")
        raise ValueError(f"{command} needs {needs}")


def _require_w0_on_grid(scenario: Scenario) -> None:
    """Raise ValueError naming contract.w0 unless the base wage is a point of
    the scenario's policy grid, where a Cobb-Douglas table is read."""
    grid, w0 = scenario.grid, scenario.contract.w0
    try:
        grid.index(w0)
    except ValueError:
        raise ValueError(f"contract.w0: must be a point of the policy grid (step "
                         f"{grid.wage_step}, max {grid.wage_max}), got {w0}") from None


def run_additive_profile(scenario: Scenario, outdir: Path) -> None:
    """Additive best response (exact phi), final-period support, exact and
    simulated profiles; optional deterministic path and one-period variance
    surface. Raises DomainError, after echoing the scenario, for w0 = 0 with
    p < 1."""
    _start("additive-profile", scenario, outdir, "contract", "prefs", "horizon")
    contract, prefs, horizon = scenario.contract, scenario.prefs, scenario.horizon
    require_base_consumption(contract)
    policy = additive.best_response(contract, prefs, horizon)
    respond = responder(policy)
    dists = propagate(policy, contract, horizon)
    prof = profile(dists)
    support = additive.wage_support(policy)
    sim = simulate(policy, contract, horizon, scenario.n_paths, scenario.seed)

    write_csv(outdir / "solution.csv",
              ["t", "phi", "evaluated_wage", "effort_at_w0"],
              [[t + 1, policy.phi[t], policy.evaluated_wages[t],
                float(respond(t + 1, contract.w0)[0])]
               for t in range(horizon.T)])
    write_csv(outdir / "support.csv",
              ["wage", "last_evaluated_period", "probability"],
              [[w, t, p] for (w, t, p) in support])
    sim_prof = profile(sim)
    write_csv(outdir / "profile.csv",
              ["period", "mean", "variance", "std_over_mean",
               "mc_mean", "mc_variance", "tv_distance"],
              [[t + 1, prof.mean[t], prof.variance[t], prof.std_over_mean[t],
                sim_prof.mean[t], sim_prof.variance[t],
                dists[t].tv_distance(sim[t])]
               for t in range(horizon.T)])
    write_csv(outdir / "distribution.csv", ["period", "wage", "probability"],
              [[t + 1, w, pr] for t, d in enumerate(dists)
               for w, pr in zip(d.support, d.probs)])
    write_json(outdir / "solution.json", {
        "phi": policy.phi, "evaluated_wage": policy.evaluated_wages,
        "support": [{"wage": w, "last_evaluated_period": t, "probability": p}
                    for (w, t, p) in support],
        "profile": {"mean": prof.mean, "variance": prof.variance,
                    "std_over_mean": prof.std_over_mean}})
    write_line_chart(outdir / "profile.svg", range(1, horizon.T + 1),
                     {"expectancy": prof.mean.tolist(),
                      "variance": prof.variance.tolist()},
                     title="wage profile", x_label="period", y_label="wage")

    exp = scenario.experiment
    if "initial_effort" in exp:
        e0 = float(exp["initial_effort"])
        growth = float(exp.get("effort_growth", 0.0))
        efforts = [min(e0 * (1.0 + growth) ** t, 1.0) for t in range(1, horizon.T + 1)]
        wages = additive.deterministic_path(contract, efforts)
        write_csv(outdir / "deterministic_path.csv", ["period", "effort", "wage"],
                  [[t + 1, efforts[t], wages[t]] for t in range(horizon.T)])
        write_line_chart(outdir / "deterministic_path.svg", range(1, horizon.T + 1),
                         {"wage": wages, "effort": efforts},
                         title="always-sampled wage path", x_label="period")
    if "variance_p_values" in exp:
        p_values = [float(v) for v in exp["variance_p_values"]]
        w0_values = [float(v) for v in exp.get("variance_w0_values", [contract.w0])]
        rows = []
        for w0 in w0_values:
            for p in p_values:
                c = ContractParams(p, contract.alpha, w0)
                rows.append([w0, p, additive.single_period_variance(c, prefs.b)])
        write_csv(outdir / "variance_surface.csv", ["w0", "p", "variance"], rows)
        write_line_chart(outdir / "variance_surface.svg", p_values,
                         {f"w0={w0:g}": [r[2] for r in rows if r[0] == w0]
                          for w0 in w0_values},
                         title="one-period wage variance", x_label="p",
                         y_label="variance")


def run_cd_policy(scenario: Scenario, outdir: Path) -> None:
    _start("cd-policy", scenario, outdir, "contract", "prefs", "horizon")
    contract, prefs, horizon = scenario.contract, scenario.prefs, scenario.horizon
    policy = solve_policy(contract, prefs, horizon, scenario.grid)
    mono = policy_monotonicity_report(policy)
    header = ["prev_wage"] + [str(t) for t in range(1, horizon.T + 1)]
    write_csv(outdir / "policy.csv", header,
              [[w] + policy.table[:, i].tolist()
               for i, w in enumerate(policy.grid.wages)])
    write_csv(outdir / "value.csv", header,
              [[w] + policy.value[:, i].tolist()
               for i, w in enumerate(policy.grid.wages)])
    write_json(outdir / "monotonicity.json", {
        "decreasing_in_wage": mono.decreasing_in_wage,
        "decreasing_over_periods": mono.decreasing_over_periods,
        "checked_rows": mono.checked_rows})


def run_cd_path(scenario: Scenario, outdir: Path) -> None:
    _start("cd-path", scenario, outdir, "contract", "prefs", "horizon")
    _require_w0_on_grid(scenario)
    contract, prefs, horizon = scenario.contract, scenario.prefs, scenario.horizon
    policy = solve_policy(contract, prefs, horizon, scenario.grid)
    path = always_sampled_path(policy, contract.w0)
    write_csv(outdir / "path.csv",
              ["period", "effort", "wage", "bonus", "total_compensation"],
              [[t + 1, path.efforts[t], path.wages[t], path.bonuses[t],
                path.totals[t]] for t in range(horizon.T)])
    write_json(outdir / "path.json", {
        "effort": path.efforts, "wage": path.wages, "bonus": path.bonuses,
        "total_compensation": path.totals})


def run_cd_distribution(scenario: Scenario, outdir: Path) -> None:
    _start("cd-distribution", scenario, outdir, "contract", "prefs", "horizon")
    _require_w0_on_grid(scenario)
    contract, prefs = scenario.contract, scenario.prefs
    horizons = [int(h) for h in scenario.experiment.get("horizons", [scenario.horizon.T])]
    for T in horizons:
        horizon = Horizon(T)
        policy = TableEffortPolicy(solve_policy(contract, prefs, horizon, scenario.grid))
        dists = propagate(policy, contract, horizon)
        prof = profile(dists)
        suffix = f"_T{T}" if len(horizons) > 1 else ""
        labels, cols = cd_bracket_table(dists, contract.w0, scenario.grid.wage_step)
        write_csv(outdir / f"distribution{suffix}.csv",
                  ["period", "wage", "probability"],
                  [[t + 1, w, pr] for t, d in enumerate(dists)
                   for w, pr in zip(d.support, d.probs)])
        write_csv(outdir / f"brackets{suffix}.csv",
                  ["bracket"] + [str(t) for t in range(1, T + 1)],
                  [[lab] + [col.get(lab, 0.0) for col in cols] for lab in labels])
        write_csv(outdir / f"profile{suffix}.csv",
                  ["period", "mean", "variance", "std_over_mean"],
                  [[t + 1, prof.mean[t], prof.variance[t], prof.std_over_mean[t]]
                   for t in range(T)])
        write_json(outdir / f"distribution{suffix}.json", {
            "periods": [{"period": t + 1, "wages": d.support,
                         "probabilities": d.probs}
                        for t, d in enumerate(dists)],
            "profile": {"mean": prof.mean, "variance": prof.variance},
            "bracket_columns": cols})
        write_line_chart(outdir / f"profile{suffix}.svg", range(1, T + 1),
                         {"expectancy": prof.mean.tolist(),
                          "variance": prof.variance.tolist()},
                         title="wage expectancy and variance", x_label="period")


def run_employer_optimum(scenario: Scenario, outdir: Path) -> None:
    _start("employer-optimum", scenario, outdir, "firm")
    firm = scenario.firm
    rules = stationary_one_period_optimum(firm)
    step = float(scenario.experiment.get("grid_step", 0.02))
    steps = GridSteps(p_step=step, alpha_step=step, w0_step=step)
    prefs = scenario.prefs
    horizon = scenario.horizon or Horizon(1)
    refine = int(scenario.experiment.get("refine_rounds", 2))
    # the admissible contract: the raw rule values can be infinite (p* at c = 0)
    payload = {"analytic": _optimum_json(rules)}
    if prefs is not None:
        payload["grid_search"] = _optimum_json(grid_search_optimum(
            firm, prefs, horizon, steps, refine_rounds=refine, cd_grid=scenario.grid))
    write_json(outdir / "optimum.json", payload)


def _optimum_json(opt) -> dict:
    """A contract, its profit and flags (OptimalContract, SweepRow) as JSON."""
    c = opt.contract
    return {"p": c.p, "alpha": c.alpha, "w0": c.w0, "profit": opt.profit,
            "flags": list(opt.flags)}


def run_tech_sweep(scenario: Scenario, outdir: Path) -> None:
    _start("tech-sweep", scenario, outdir, "firm")
    firm = scenario.firm
    require_rules_worker(scenario.prefs, "tech-sweep")
    k_values = [float(k) for k in scenario.experiment.get("k_values", [firm.k])]
    rows = tech_sweep(k_values, firm)
    write_csv(outdir / "sweep.csv",
              ["k", "p", "alpha", "w0", "profit", "effort", "wage_mean",
               "wage_variance", "std_over_mean", "flags"],
              [[r.k, r.contract.p, r.contract.alpha, r.contract.w0, r.profit,
                r.effort, r.wage_mean, r.wage_variance, r.std_over_mean,
                "|".join(r.flags)] for r in rows])
    write_json(outdir / "contracts.json", [{"k": r.k, **_optimum_json(r)} for r in rows])
    write_line_chart(outdir / "sweep.svg", k_values,
                     {"expectancy": [r.wage_mean for r in rows],
                      "variance": [r.wage_variance for r in rows],
                      "std/mean": [r.std_over_mean for r in rows]},
                     title="wage outcomes by marginal product", x_label="k")


def run_tech_shock(scenario: Scenario, outdir: Path) -> None:
    _start("tech-shock", scenario, outdir, "firm", "prefs", "horizon")
    firm, prefs, horizon = scenario.firm, scenario.prefs, scenario.horizon
    if "k_after" not in scenario.experiment:
        raise ValueError("experiment.k_after: tech-shock needs the marginal product "
                         "after the shock")
    k_before = float(scenario.experiment.get("k_before", firm.k))
    k_after = float(scenario.experiment["k_after"])
    report = tech_shock(replace(firm, k=k_before), replace(firm, k=k_after), prefs, horizon)
    before, after = report.profile_before, report.profile_after
    periods = range(1, horizon.T + 1)
    write_csv(outdir / "shock.csv",
              ["period", "mean_before", "variance_before", "cost_before",
               "mean_after", "variance_after", "cost_after", "turnover"],
              list(zip(periods, before.mean, before.variance, report.cost_before,
                       after.mean, after.variance, report.cost_after, report.turnover)))
    write_json(outdir / "contracts.json", {
        side: {"k": k, "p": c.p, "alpha": c.alpha, "w0": c.w0}
        for side, k, c in (("before", k_before, report.contract_before),
                           ("after", k_after, report.contract_after))})
    write_line_chart(outdir / "shock.svg", periods,
                     {"expectancy before": before.mean.tolist(),
                      "expectancy after": after.mean.tolist(),
                      "variance before": before.variance.tolist(),
                      "variance after": after.variance.tolist()},
                     title="profiles before and after the shock", x_label="period")


def run_statics(scenario: Scenario, outdir: Path) -> None:
    _start("statics", scenario, outdir, "prefs")
    prefs = scenario.prefs
    exp = scenario.experiment
    p_values = [float(v) for v in exp.get("p_values", [0.1, 0.3, 0.5])]
    a_values = [float(v) for v in exp.get("alpha_values", [0.1, 0.5, 0.9])]
    w_values = [float(v) for v in exp.get("w0_values", [0.2, 0.5, 0.8])]
    cells = statics.sensitivity_grid(p_values, a_values, w_values, prefs)
    # the alpha sign is asserted in the penalty regime only; elsewhere it
    # is observed and reported. The slopes are exact right derivatives, so the
    # one_sided column is always empty; it stays because bench/reference pins
    # the file's shape.
    write_csv(outdir / "statics.csv",
              ["p", "alpha", "w0", "effort", "de_dp", "de_dw0", "de_dalpha",
               "regime", "dalpha_sign", "interior", "foc_residual",
               "one_sided"],
              [[c.contract.p, c.contract.alpha, c.contract.w0, c.effort,
                c.de_dp, c.de_dw0, c.de_dalpha, c.regime,
                "asserted" if c.regime == statics.PENALTY_REGIME else "observed",
                c.interior, c.foc_residual, ""] for c in cells])


RUNNERS = {
    "additive-profile": run_additive_profile,
    "cd-policy": run_cd_policy,
    "cd-path": run_cd_path,
    "cd-distribution": run_cd_distribution,
    "employer-optimum": run_employer_optimum,
    "tech-sweep": run_tech_sweep,
    "tech-shock": run_tech_shock,
    "statics": run_statics,
}
