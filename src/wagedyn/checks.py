"""Reproduction checks: one structured result per acceptance criterion.

Each criterion yields a CriterionResult with named sub-items so failures point
at the exact clause. Known model-level discrepancies (documented in the README
and the run report) fail honestly here rather than being patched over.
"""
from __future__ import annotations

import importlib.resources
import json
import math
import tempfile
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Mapping

import numpy as np

from . import additive, reference, statics
from .cobb_douglas import TableEffortPolicy, always_sampled_path, solve_policy
from .config import Scenario, validate_config
from .distribution import cd_bracket_table, enumerate_histories, propagate, simulate
from .employer import (GridSteps, _profit_differences, grid_search_optimum,
                       stationary_grid_search, stationary_one_period_optimum,
                       tech_shock, tech_sweep)
from .model import affine_response
from .params import ContractParams, FirmParams, Horizon, WorkerPrefs


@dataclass
class CheckItem:
    name: str
    passed: bool
    detail: str = ""


@dataclass
class CriterionResult:
    number: int
    title: str
    items: list[CheckItem] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(item.passed for item in self.items)

    def add(self, name: str, passed: bool, detail: str = "") -> None:
        self.items.append(CheckItem(name, bool(passed), detail))


# every bundled scenario with the subcommand that renders it: reproduce-all
# writes them in this order, and a subcommand run without --config takes its
# first entry
PLAN = (
    ("fig3_2", "additive-profile"),
    ("fig3_1", "additive-profile"),
    ("fig3_3", "additive-profile"),
    ("table3_2", "cd-policy"),
    ("table3_3", "cd-path"),
    ("table3_4", "cd-distribution"),
    ("fig3_4", "cd-distribution"),
    ("fig4_1", "tech-sweep"),
    ("fig4_2", "tech-shock"),
    ("appendix1", "statics"),
)


def load_scenario(name: str) -> Scenario:
    res = importlib.resources.files("wagedyn").joinpath(f"scenarios/{name}.json")
    return validate_config(json.loads(res.read_text(encoding="utf-8")))


def write_plan(runners: Mapping[str, Callable], tree: Path) -> None:
    """Run every plan entry into tree/<scenario> (the CLI passes
    report.RUNNERS)."""
    for name, command in PLAN:
        runners[command](load_scenario(name), tree / name)


def _policy_for(scenario: Scenario):
    return solve_policy(scenario.contract, scenario.prefs, scenario.horizon,
                        scenario.grid)


# ---------------------------------------------------------------------------


def check_policy_table() -> CriterionResult:
    """Criterion 1: reference policy table reproduction (table3_2 scenario)."""
    out = CriterionResult(1, "policy table reproduction")
    scenario = load_scenario("table3_2")
    start = time.perf_counter()
    policy = _policy_for(scenario)
    elapsed = time.perf_counter() - start
    ref = np.array(reference.POLICY_TABLE_3_2)  # rows wage, cols period
    mine = policy.table.T
    step = scenario.grid.effort_step
    diff = np.round((mine - ref) / step).astype(int)
    n_cells = ref.size
    exact = int((diff == 0).sum())
    max_steps = int(np.abs(diff).max())
    out.add("exact_cells_at_least_90pct", exact >= 0.9 * n_cells,
            f"{exact}/{n_cells} exact")
    out.add("all_cells_within_one_step", max_steps <= 1,
            f"max deviation {max_steps} step(s)")
    quoted = float(policy.table[4, policy.grid.index(0.4)])
    out.add("quoted_cell_t5_w04_exact", abs(quoted - 0.5) < 1e-12,
            f"effort(5, 0.4) = {quoted}")
    # measured seconds stay out of the detail so reports are byte-stable
    out.add("runtime_under_1s", elapsed < 1.0, "solve completed within the bound")
    out.warnings.append(
        "scenario parameters gamma=0.4, beta=0.6, delta=0.90 reconstructed from the "
        "published table; the published caption values (gamma=0.3, beta=0.7, "
        "delta=0.95) reproduce only 24/110 cells under any evaluated timing")
    return out


def check_sampled_path() -> CriterionResult:
    """Criterion 2: always-sampled path reproduction (table3_3 scenario)."""
    out = CriterionResult(2, "always-sampled path reproduction")
    scenario = load_scenario("table3_3")
    policy = _policy_for(scenario)
    path = always_sampled_path(policy, scenario.contract.w0)
    ref_e = reference.PATH_TABLE_3_3_EFFORT
    ref_w = reference.PATH_TABLE_3_3_WAGE
    out.add("effort_row_exact",
            all(abs(a - b) < 1e-12 for a, b in zip(path.efforts, ref_e)),
            f"computed {['%g' % e for e in path.efforts]}")
    out.add("wage_row_exact",
            all(abs(a - b) < 1e-12 for a, b in zip(path.wages, ref_w)),
            f"computed {['%g' % w for w in path.wages]}")
    # bonus magnitudes per the bonus rule alpha*(e_t - w_{t-1})
    alpha = scenario.contract.alpha
    prev = [scenario.contract.w0] + list(path.wages[:-1])
    rule = [alpha * (e - w) for e, w in zip(path.efforts, prev)]
    out.add("bonus_matches_rule",
            all(abs(b - r) < 1e-12 for b, r in zip(path.bonuses, rule)),
            "bonus equals alpha*(e_t - w_prev) per period")
    mags_ok = True
    for t, printed in enumerate(reference.PATH_TABLE_3_3_BONUS_PRINTED):
        if printed is None:
            continue
        if abs(abs(path.bonuses[t]) - abs(printed)) > 1e-9:
            mags_ok = False
    out.add("bonus_magnitudes_match_published", mags_ok,
            "magnitudes agree for every published period")
    signs = [t + 1 for t, printed in enumerate(reference.PATH_TABLE_3_3_BONUS_PRINTED)
             if printed is not None and abs(printed) > 0
             and (path.bonuses[t] > 0) != (printed > 0)]
    if signs:
        out.warnings.append(
            f"published bonus signs disagree with the bonus rule in periods {signs}; "
            "the rule value is emitted and the published row left as is")
    return out


def check_distribution_table() -> CriterionResult:
    """Criterion 3: bracketized distribution reproduction (table3_4 scenario)."""
    out = CriterionResult(3, "bracket distribution reproduction")
    scenario = load_scenario("table3_4")
    policy = TableEffortPolicy(_policy_for(scenario))
    dists = propagate(policy, scenario.contract, scenario.horizon)
    _, cols = cd_bracket_table(dists, scenario.contract.w0, scenario.grid.wage_step)
    col1 = cols[0]
    out.add("period1_single_bracket_mass_1",
            len(col1) == 1 and abs(next(iter(col1.values())) - 1.0) < 1e-12,
            f"column 1: {col1}")
    out.warnings.append(
        "bracket labels follow the stated convention (exclusive low edge, inclusive "
        "high), which places an on-grid wage such as 0.4 in the 0.3-0.4 bracket; the "
        "published rows place it one bracket higher, so labeled comparisons below "
        "carry that offset in addition to policy differences")
    col2 = sorted(cols[1].values(), reverse=True)
    out.add("period2_masses_080_020",
            len(col2) == 2 and abs(col2[0] - 0.8) < 1e-12 and abs(col2[1] - 0.2) < 1e-12,
            f"column 2 masses: {[round(v, 6) for v in col2]}")
    deviations = []
    worst = 0.0
    for t in range(3, scenario.horizon.T + 1):
        ref_col = reference.BRACKETS_TABLE_3_4[t]
        mine = cols[t - 1]
        for label in sorted(set(ref_col) | set(mine)):
            d = abs(mine.get(label, 0.0) - ref_col.get(label, 0.0))
            worst = max(worst, d)
            if d > 0.05:
                deviations.append(f"period {t} bracket {label}: "
                                  f"{mine.get(label, 0.0):.3f} vs {ref_col.get(label, 0.0):.2f}")
    out.add("periods_3_to_10_within_005", not deviations,
            f"worst deviation {worst:.3f}; {len(deviations)} cell(s) beyond 0.05")
    out.warnings.extend(deviations)
    if deviations:
        out.warnings.append(
            "no evaluated parameterization or timing reproduces the published "
            "late-period bracket masses; the published distribution implies a policy "
            "(for example effort 0.5 at wage 0.4 with effort 0.3 at wage 0.5) that no "
            "solved policy at the stated parameters produces")
    return out


def check_additive_oracle() -> CriterionResult:
    """Criterion 4: closed form vs backward induction at the fig3_2 parameters."""
    out = CriterionResult(4, "additive closed form vs oracle")
    scenario = load_scenario("fig3_2")
    contract, prefs, horizon = scenario.contract, scenario.prefs, scenario.horizon
    sol = additive.solve_backward_induction(contract, prefs, horizon)
    T = horizon.T
    grid = sol.wage_grid
    # states with a well-posed problem: finite value (w = 0 is degenerate under
    # log utility with p < 1, every effort is equally bad there)
    posed = np.isfinite(sol.value)
    affine = affine_response(contract.p, contract.alpha, grid[None, :], sol.phi[:, None],
                             prefs.b, sol.wage_scale)[0]
    gap = float(np.abs(affine - sol.raw_effort)[posed].max())
    out.add("effort_agreement_1e-5", gap <= 1e-5,
            f"max |closed form - argmax| = {gap:.2e} over well-posed states")
    out.add("phi_T_equals_1", abs(sol.phi[-1] - 1.0) <= 1e-9,
            f"phi_T = {sol.phi[-1]!r}")
    # independence of the evaluated wage across previous wages: interior,
    # well-posed states (the claim's derivation needs an unclamped optimum)
    worst_var = 0.0
    for t in range(1, T + 1):
        e_raw = sol.raw_effort[t - 1]
        interior = (e_raw < 1.0 - 1e-9) & posed[t - 1]
        w_eval = sol.wage_scale * (1.0 + contract.alpha) * e_raw[interior] \
            - contract.alpha * grid[interior]
        worst_var = max(worst_var, float(w_eval.max() - w_eval.min()))
    out.add("evaluated_wage_independent_1e-6", worst_var < 1e-6,
            f"max spread across previous wages = {worst_var:.2e}")
    out.add("phi_weakly_decreasing", sol.phi_weakly_decreasing,
            f"phi = {[round(x, 6) for x in sol.phi]}")
    phi_exact = additive.phi_series_recursive(contract, prefs, horizon)
    out.warnings.append(
        f"independent recursion cross-check: max |phi_fit - phi_exact| = "
        f"{float(np.abs(sol.phi - phi_exact).max()):.2e}")
    return out


def check_single_period() -> CriterionResult:
    """Criterion 5: one-period formulas against search and exact distribution."""
    out = CriterionResult(5, "single-period formulas")
    prefs = WorkerPrefs.additive(delta=0.9, b=1.0)
    contract = ContractParams(0.2, 0.5, 0.4)
    e_formula = statics.optimal_effort(contract, prefs)
    e_search = statics.optimal_effort_search(contract, prefs)
    out.add("effort_matches_search_1e-6", abs(e_formula - e_search) <= 1e-6,
            f"formula {e_formula!r} vs search {e_search!r}")
    dist = propagate(additive.best_response(contract, prefs, Horizon(1)), contract,
                     Horizon(1))[0]
    var_formula = additive.single_period_variance(contract, prefs.b)
    out.add("variance_matches_distribution_1e-12",
            abs(dist.variance() - var_formula) <= 1e-12,
            f"{var_formula!r} vs {dist.variance()!r}")
    degenerate_ok = True
    for p in (0.0, 1.0):
        c = ContractParams(p, 0.5, 0.4)
        if additive.single_period_variance(c, 1.0) != 0.0:
            degenerate_ok = False
    out.add("variance_zero_at_p_0_and_1", degenerate_ok, "")
    return out


def check_distribution_engine() -> CriterionResult:
    """Criterion 6: propagation vs enumeration, mass, support size, Monte Carlo."""
    out = CriterionResult(6, "distribution engine")
    start = time.perf_counter()
    scenario = load_scenario("fig3_2")
    contract, prefs = scenario.contract, scenario.prefs

    worst_tv = 0.0
    worst_mass = 0.0
    support_ok = True
    for T in (1, 4, 8, 12):
        horizon = Horizon(T)
        pol = additive.best_response(contract, prefs, horizon)
        dists = propagate(pol, contract, horizon)
        final = enumerate_histories(pol, contract, horizon)
        worst_tv = max(worst_tv, dists[-1].tv_distance(final))
        for t, d in enumerate(dists, start=1):
            worst_mass = max(worst_mass, abs(float(d.probs.sum()) - 1.0))
            if len(d.support) != t + 1:
                support_ok = False
    cd = load_scenario("table3_4")
    for T in (4, 12):
        horizon = Horizon(T)
        pol = TableEffortPolicy(solve_policy(cd.contract, cd.prefs, horizon, cd.grid))
        dists = propagate(pol, cd.contract, horizon)
        final = enumerate_histories(pol, cd.contract, horizon)
        worst_tv = max(worst_tv, dists[-1].tv_distance(final))
        for d in dists:
            worst_mass = max(worst_mass, abs(float(d.probs.sum()) - 1.0))
    out.add("propagate_equals_enumeration_1e-12", worst_tv <= 1e-12,
            f"max TV {worst_tv:.2e} across both families, T up to 12")
    out.add("mass_conservation_1e-12", worst_mass <= 1e-12, f"max {worst_mass:.2e}")
    out.add("additive_support_size_t_plus_1", support_ok, "")

    horizon = scenario.horizon
    pol = additive.best_response(contract, prefs, horizon)
    exact = propagate(pol, contract, horizon)
    sim = simulate(pol, contract, horizon, scenario.n_paths, scenario.seed)
    tv_by_period = [e.tv_distance(s) for e, s in zip(exact, sim)]
    out.add("monte_carlo_tv_under_001", max(tv_by_period) < 0.01,
            f"max per-period TV {max(tv_by_period):.4f} at n={scenario.n_paths}")
    elapsed = time.perf_counter() - start
    out.add("runtime_under_10s", elapsed < 10.0, "all checks completed within the bound")
    return out


def one_period_second_forms(firm: FirmParams) -> tuple[float, float]:
    """The paper's second printed forms of the unit-scale rules, which do
    without alpha*: p* = (1-k)(sqrt(c)-sqrt(k))/sqrt(c) and
    w0* = (sqrt(k)-sqrt(c))^2; criterion 7's independent check on the rules'
    solver."""
    rk, rc = math.sqrt(firm.k), math.sqrt(firm.c)
    return (1.0 - firm.k) * (rc - rk) / rc, (rk - rc) ** 2


def check_employer_optimum() -> CriterionResult:
    """Criterion 7: one-period optimum rules, consistency, grid search, boundary."""
    out = CriterionResult(7, "employer one-period optimum")
    firm = FirmParams(k=1.5, lam=1.0 / 1.5, c=0.3, eta=0.9)
    opt = stationary_one_period_optimum(firm)
    ref = reference.EMPLOYER_OPTIMUM_REFERENCE
    out.add("alpha_star", abs(opt.raw_alpha - ref["alpha"]) < 1e-6,
            f"{opt.raw_alpha!r}")
    out.add("p_star", abs(opt.raw_p - ref["p"]) < 1e-6, f"{opt.raw_p!r}")
    out.add("w0_star", abs(opt.raw_w0 - ref["w0"]) < 1e-6, f"{opt.raw_w0!r}")
    p_second, w0_second = one_period_second_forms(firm)
    out.add("p_forms_agree_1e-9", abs(opt.raw_p - p_second) < 1e-9,
            f"{opt.raw_p!r} vs {p_second!r}")
    out.add("w0_forms_agree_1e-9", abs(opt.raw_w0 - w0_second) < 1e-9,
            f"{opt.raw_w0!r} vs {w0_second!r}")
    out.add("underpayment", opt.raw_w0 < (1.0 + opt.raw_alpha) * opt.raw_p,
            f"w0* {opt.raw_w0:.6f} < deserved {(1 + opt.raw_alpha) * opt.raw_p:.6f}")

    # the rules are a saddle, so a profit argmax cannot find them; the search
    # locates the stationary point from the exact profit alone
    cell = stationary_grid_search(firm)
    step_off = max(abs(cell.p - opt.contract.p),
                   abs(cell.alpha - opt.contract.alpha),
                   abs(cell.w0 - opt.contract.w0)) / 0.001
    out.add("grid_search_within_one_step", step_off <= 1.0,
            f"stationary cell ({cell.p:.4f}, {cell.alpha:.4f}, "
            f"{cell.w0:.4f}) is {step_off:.2f} step(s) of 0.001 from the rules")
    corner = grid_search_optimum(firm, WorkerPrefs.additive(delta=0.9, b=1.0), Horizon(1),
                                 GridSteps(0.02, 0.02, 0.02), refine_rounds=2)
    out.warnings.append(
        "the one-period rules are the unique interior stationary point of the profit "
        "surface but that point is a saddle: profit is linear in w0 at fixed "
        "(p, alpha), and without a participation constraint the global grid argmax "
        f"is the degenerate corner ({corner.contract.p:.3f}, {corner.contract.alpha:.3f}, "
        f"{corner.contract.w0:.3f}) with profit {corner.profit:.4f} against "
        f"{opt.profit:.4f} at the rules (p=1 with a large never-paid wage anchor whose "
        "penalty confiscates the wage); the grid search clause therefore looks for "
        "the stationary point")
    # boundary case: exact values
    fb = FirmParams(k=2.0, lam=0.5, c=0.5, eta=0.9)
    ob = stationary_one_period_optimum(fb)
    out.add("boundary_case_exact",
            ob.raw_alpha == 0.0 and ob.raw_p == 1.0 and ob.raw_w0 == 0.5,
            f"(alpha, p, w0) = ({ob.raw_alpha!r}, {ob.raw_p!r}, {ob.raw_w0!r})")
    # stationarity of the rules under central differences on the exact profit
    h = 1e-6
    grads = tuple(d / (2 * h) for d in _profit_differences(opt.raw_p, opt.raw_alpha,
                                                           opt.raw_w0, firm, h))
    out.warnings.append(
        f"numerical profit gradient at the rules: {tuple(round(g, 8) for g in grads)}")
    return out


def check_technology() -> CriterionResult:
    """Criterion 8: k-sweep monotonicity and shock profile properties."""
    out = CriterionResult(8, "technology properties")
    sweep_sc = load_scenario("fig4_1")
    rows = tech_sweep([float(k) for k in sweep_sc.experiment["k_values"]], sweep_sc.firm)
    means = [r.wage_mean for r in rows]
    variances = [r.wage_variance for r in rows]
    ratios = [r.std_over_mean for r in rows]
    eps = 1e-12
    out.add("sweep_expectancy_increasing",
            all(b >= a - eps for a, b in zip(means, means[1:])),
            f"{[round(m, 4) for m in means]}")
    out.add("sweep_variance_increasing",
            all(b >= a - eps for a, b in zip(variances, variances[1:])),
            f"{[round(v, 5) for v in variances]}")
    out.add("sweep_std_over_mean_increasing",
            all(b >= a - eps for a, b in zip(ratios, ratios[1:])),
            f"{[round(r, 4) for r in ratios]}")
    wide = tech_sweep([1.3, 1.5, 1.7, 2.0], sweep_sc.firm)
    wide_ratios = [r.std_over_mean for r in wide]
    if any(b < a for a, b in zip(wide_ratios, wide_ratios[1:])):
        out.warnings.append(
            "the normalized dispersion claim holds on the bundled sweep range, where "
            "the bonus-rate bound binds at the optimum (k <= 1.25 at lambda=0.8, "
            "c=0.2); on the interior branch beyond it, std/mean declines in k: "
            f"{[round(r, 4) for r in wide_ratios]} at k = [1.3, 1.5, 1.7, 2.0]")

    shock_sc = load_scenario("fig4_2")
    report = tech_shock(replace(shock_sc.firm, k=float(shock_sc.experiment["k_before"])),
                        replace(shock_sc.firm, k=float(shock_sc.experiment["k_after"])),
                        shock_sc.prefs, shock_sc.horizon)
    out.add("shock_expectancy_higher_every_period",
            bool(np.all(report.profile_after.mean >= report.profile_before.mean - eps)),
            f"before {np.round(report.profile_before.mean, 4).tolist()} after "
            f"{np.round(report.profile_after.mean, 4).tolist()}")
    out.add("shock_variance_higher_every_period",
            bool(np.all(report.profile_after.variance
                        >= report.profile_before.variance - eps)),
            "")
    rel_before = report.cost_before - report.cost_before[0]
    rel_after = report.cost_after - report.cost_after[0]
    out.add("late_period_relative_cost_rises",
            rel_after[-1] > rel_before[-1] + eps,
            f"relative late-period cost before {rel_before[-1]:.4f} vs after "
            f"{rel_after[-1]:.4f}")
    out.add("turnover_flag_late_periods", bool(report.turnover[-1]),
            f"turnover flags {report.turnover}")
    out.warnings.append(
        "the shock scenario stays in the same bound-bonus regime as the sweep "
        "(k <= 1.25 at lambda=0.8, c=0.2), where the sampling rate is unchanged by "
        "the shock; on the interior branch a shock raises the sampling rate, which "
        "makes wages converge faster and can lower late-period variance and the "
        "late-period relative cost")
    return out


def check_statics() -> CriterionResult:
    """Criterion 9: sign table on the 27-point grid and FOC residuals."""
    out = CriterionResult(9, "comparative statics")
    scenario = load_scenario("appendix1")
    exp = scenario.experiment
    cells = statics.sensitivity_grid(exp["p_values"], exp["alpha_values"],
                                     exp["w0_values"], scenario.prefs)
    interior = [c for c in cells if c.interior]
    out.add("grid_has_interior_cells", len(interior) > 0,
            f"{len(interior)}/{len(cells)} interior")
    out.add("de_dp_positive", all(c.de_dp > 0 for c in interior), "")
    out.add("de_dw0_positive", all(c.de_dw0 > 0 for c in interior), "")
    penalty = [c for c in interior if c.regime == statics.PENALTY_REGIME]
    out.add("de_dalpha_positive_in_penalty_regime",
            all(c.de_dalpha > 0 for c in penalty),
            f"{len(penalty)} penalty-regime cells")
    bonus_regime = [c for c in interior if c.regime == statics.BONUS_REGIME]
    if bonus_regime:
        signs = {c.de_dalpha > 0 for c in bonus_regime}
        out.warnings.append(
            f"bonus-regime de/dalpha observed positive: {signs == {True}} "
            "(reported, not asserted)")
    residuals = []
    for c in interior:
        e = statics.optimal_effort_search(c.contract, scenario.prefs)
        residuals.append(abs(statics.foc_residual(c.contract, scenario.prefs, e)))
    out.add("foc_residual_under_1e-6", max(residuals) < 1e-6,
            f"max residual {max(residuals):.2e}")
    return out


def check_determinism(runners: Mapping[str, Callable], tree: Path) -> CriterionResult:
    """Criterion 10: chunk-invariant simulation, and one rerun of the plan into
    a temporary directory that writes the same files, byte for byte, as the
    tree reproduce-all wrote."""
    out = CriterionResult(10, "determinism")
    scenario = load_scenario("fig3_2")
    pol = additive.best_response(scenario.contract, scenario.prefs, scenario.horizon)
    sim1 = simulate(pol, scenario.contract, scenario.horizon, 20000, scenario.seed,
                    n_chunks=1)
    sim8 = simulate(pol, scenario.contract, scenario.horizon, 20000, scenario.seed,
                    n_chunks=8)
    chunk_ok = all(
        np.array_equal(a.support, b.support) and np.array_equal(a.probs, b.probs)
        for a, b in zip(sim1, sim8))
    out.add("simulation_invariant_to_chunking", chunk_ok, "1 vs 8 chunks")

    problems = []
    n_files = 0
    with tempfile.TemporaryDirectory(prefix="wagedyn-determinism-") as tmp:
        rerun = Path(tmp)
        write_plan(runners, rerun)
        for name, _ in PLAN:
            written = {f.name for f in (tree / name).iterdir()}
            again = {f.name for f in (rerun / name).iterdir()}
            for file in sorted(written | again):
                n_files += 1
                if file not in again:
                    problems.append(f"{name}/{file} not written by the rerun")
                elif file not in written:
                    problems.append(f"{name}/{file} missing from the tree")
                elif (tree / name / file).read_bytes() != (rerun / name / file).read_bytes():
                    problems.append(f"mismatch in {name}/{file}")
    out.add("rerun_outputs_byte_identical", not problems,
            "; ".join(problems) or f"{n_files} files compared across {len(PLAN)} scenarios")
    return out


ALL_CHECKS = (check_policy_table, check_sampled_path, check_distribution_table,
              check_additive_oracle, check_single_period, check_distribution_engine,
              check_employer_optimum, check_technology, check_statics,
              check_determinism)


def run_all_checks(runners: Mapping[str, Callable], tree: Path) -> list[CriterionResult]:
    """Every criterion in order; criterion 10 reruns the plan with the given
    runners against the tree they wrote."""
    return [check(runners, tree) if check is check_determinism else check()
            for check in ALL_CHECKS]
