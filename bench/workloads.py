"""The benchmark's workloads: seeded inputs, the timed body, and the gate.

Each workload has three parts:

- ``prepare(seed, scenarios)`` builds the inputs from the seed alone (set-up,
  untimed by ``run_s``);
- ``run(inputs, workdir)`` is the timed body; it calls wagedyn's public
  functions and keeps every result, recording an operation that raises
  instead of stopping;
- ``check(inputs, raw, workdir)`` is the correctness gate. It counts the
  operations attempted and the ones that failed, by raising or by a wrong
  output, and measures the workload's own figures.

Why each workload exists, and what it bypasses, is in NOTES.md.
"""
from __future__ import annotations

import contextlib
import csv
import dataclasses
import functools
import hashlib
import io
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
REFERENCE = BENCH_DIR / "reference"

BUNDLED_SCENARIOS = ("appendix1", "fig3_1", "fig3_2", "fig3_3", "fig3_4", "fig4_1",
                     "fig4_2", "table3_2", "table3_3", "table3_4")

# numeric artifact cells may move by this much relative to the seed reference;
# exact phi (instead of the fitted one) moves them by about 1e-4
ARTIFACT_REL_TOL = 1e-3


@dataclass
class Outcome:
    """Gate result for one iteration of a workload."""

    attempted: int = 0
    failed: int = 0
    wrong: list[str] = field(default_factory=list)  # outputs that failed the gate
    values: dict[str, float] = field(default_factory=dict)

    def op(self, ok: bool, problem: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if problem:
                self.wrong.append(problem)


def _attempt(fn, *args, **kwargs):
    """Run one operation; an exception becomes its recorded result. The gate
    counts it as failed; a wrong output also makes the run incorrect."""
    try:
        return fn(*args, **kwargs)
    except Exception as exc:  # the workload records the failure and goes on
        sys.stderr.write(f"operation failed: {exc!r}\n")
        return exc


def load_bundled():
    """Validate every bundled scenario (config.validate_config)."""
    from wagedyn.checks import load_scenario

    return {name: load_scenario(name) for name in BUNDLED_SCENARIOS}


# ---------------------------------------------------------------------------
# reproduce


class Reproduce:
    """``wagedyn reproduce-all`` in-process, gated against the seed reference."""

    name = "reproduce"

    def prepare(self, seed: int, scenarios: dict) -> dict:
        # the inputs are the bundled scenarios; the seed does not apply
        return {"fig3_2": scenarios["fig3_2"]}

    def run(self, inputs: dict, workdir: Path):
        from wagedyn import cli

        out = workdir / "out"
        with contextlib.redirect_stdout(io.StringIO()):
            return _attempt(cli.main, ["reproduce-all", "--out", str(out)])

    def check(self, inputs: dict, raw, workdir: Path) -> Outcome:
        from wagedyn.additive import phi_series_recursive

        res = Outcome()
        out = workdir / "out"
        if isinstance(raw, Exception):
            res.op(False)
            return res
        manifest = json.loads((REFERENCE / "manifest.json").read_text(encoding="utf-8"))
        problems = _check_report(out / "report.json", manifest["report"], raw)
        identical, artifact_problems = _check_artifacts(out, manifest["sha256"])
        problems += artifact_problems
        sc = inputs["fig3_2"]
        phi = _csv_column(out / "fig3_2" / "solution.csv", "phi")
        exact = phi_series_recursive(sc.contract, sc.prefs, sc.horizon)
        if len(phi) != len(exact):
            problems.append("fig3_2/solution.csv: wrong number of phi rows")
            phi_err = math.inf
        else:
            phi_err = float(np.max(np.abs(np.array(phi) - exact)))
        res.values["phi_max_err"] = phi_err
        res.values["artifacts_identical"] = float(identical)
        res.op(not problems, "; ".join(problems))
        return res


def _check_report(path: Path, reference: dict, code) -> list[str]:
    """report.json by structure: the same criteria, titles and item names, and
    every item that passed at the reference still passes. Details and warning
    order are not compared (warning order depends on the hash seed)."""
    problems = []
    try:
        report = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return [f"report.json unreadable: {exc}"]
    got = {str(r["criterion"]): r for r in report}
    if sorted(got) != sorted(reference):
        return [f"report.json criteria {sorted(got)} != {sorted(reference)}"]
    for num, ref in reference.items():
        crit = got[num]
        if crit["title"] != ref["title"]:
            problems.append(f"criterion {num} title {crit['title']!r}")
        items = {i["name"]: i["passed"] for i in crit["items"]}
        if sorted(items) != sorted(ref["items"]):
            problems.append(f"criterion {num} items {sorted(items)}")
            continue
        for name, passed in ref["items"].items():
            if passed and not items[name]:
                problems.append(f"criterion {num} item {name} no longer passes")
    expected_code = 0 if all(r["passed"] for r in report) else 2
    if code != expected_code:
        problems.append(f"exit code {code}, expected {expected_code}")
    return problems


def _check_artifacts(out: Path, sha256: dict[str, str]) -> tuple[int, list[str]]:
    """Scenario artifacts: the same file set as the reference; CSV and JSON
    numbers within ARTIFACT_REL_TOL, everything else exact. Returns the number
    of byte-identical files and the problems found."""
    found = sorted(p.relative_to(out).as_posix() for p in out.rglob("*")
                   if p.is_file() and p.parent != out)
    problems = []
    if found != sorted(sha256):
        missing = sorted(set(sha256) - set(found))
        extra = sorted(set(found) - set(sha256))
        problems.append(f"artifact set differs: missing {missing}, extra {extra}")
    identical = 0
    for rel in sorted(set(found) & set(sha256)):
        data = (out / rel).read_bytes()
        if hashlib.sha256(data).hexdigest() == sha256[rel]:
            identical += 1
            continue
        ref_path = REFERENCE / "artifacts" / rel
        if rel.endswith(".csv"):
            problems += _compare_csv(rel, data.decode("utf-8"), ref_path.read_text("utf-8"))
        elif rel.endswith(".json"):
            if not _close(json.loads(data), json.loads(ref_path.read_text("utf-8"))):
                problems.append(f"{rel}: differs beyond tolerance")
        # .svg charts are drawn from the same numbers; they count only
        # towards byte identity
    return identical, problems


def _compare_csv(rel: str, text: str, ref_text: str) -> list[str]:
    rows = list(csv.reader(io.StringIO(text)))
    ref = list(csv.reader(io.StringIO(ref_text)))
    if len(rows) != len(ref) or any(len(a) != len(b) for a, b in zip(rows, ref)):
        return [f"{rel}: shape differs from the reference"]
    for r, (row, ref_row) in enumerate(zip(rows, ref)):
        for c, (a, b) in enumerate(zip(row, ref_row)):
            if not _close(_number(a), _number(b)):
                return [f"{rel}: row {r} column {c} {a!r} vs reference {b!r}"]
    return []


def _number(cell: str):
    try:
        return float(cell)
    except ValueError:
        return cell


def _close(a: Any, b: Any) -> bool:
    if isinstance(a, bool) or isinstance(b, bool):
        return a == b
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        if math.isnan(a) or math.isnan(b) or math.isinf(a) or math.isinf(b):
            return a == b or (math.isnan(a) and math.isnan(b))
        return abs(a - b) <= ARTIFACT_REL_TOL * max(1.0, abs(b))
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(_close(x, y) for x, y in zip(a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        return sorted(a) == sorted(b) and all(_close(a[k], b[k]) for k in a)
    return a == b


def _csv_column(path: Path, column: str) -> list[float]:
    with open(path, newline="", encoding="utf-8") as fh:
        return [float(row[column]) for row in csv.DictReader(fh)]


# ---------------------------------------------------------------------------
# contract_search


# the firm band: k and c vary with the seed; the wage scale lam*k is held at
# 1.2, so every seed poses the same worker problems and only the employer's
# profit surface moves
FIRM_K = (1.45, 1.55)
FIRM_C = (0.18, 0.22)
WAGE_SCALE = 1.2
CONTRACT_T = 10


class ContractSearch:
    """The employer problem at T=10, four grid searches per iteration."""

    name = "contract_search"

    def prepare(self, seed: int, scenarios: dict) -> dict:
        from wagedyn.employer import GridSteps
        from wagedyn.params import FirmParams, Horizon

        rng = np.random.default_rng(seed)
        k = float(rng.uniform(*FIRM_K))
        c = float(rng.uniform(*FIRM_C))
        firm = FirmParams(k=k, lam=WAGE_SCALE / k, c=c, eta=0.9)
        add, cd = scenarios["fig3_2"].prefs, scenarios["table3_2"].prefs
        searches = (
            # (label, prefs, grid_search_optimum keyword arguments)
            ("additive_box_refine1", add,
             {"steps": GridSteps(0.25, 0.25, 0.5), "refine_rounds": 1}),
            ("cd_wage_grid", cd,
             {"steps": GridSteps(0.1, 0.1, 0.1, w0_max=1.0), "refine_rounds": 0}),
            ("cd_defaults", cd, {}),
            # a coarse on-grid box whose refinement halves w0_step to 0.15
            ("cd_coarse_refine1", cd,
             {"steps": GridSteps(0.2, 0.2, 0.3, w0_max=1.0), "refine_rounds": 1}),
        )
        return {"firm": firm, "horizon": Horizon(CONTRACT_T), "searches": searches}

    def run(self, inputs: dict, workdir: Path) -> list:
        from wagedyn import employer

        results = []
        for _, prefs, kw in inputs["searches"]:
            with count_calls(employer, "expected_profit") as cells:
                result = _attempt(employer.grid_search_optimum, inputs["firm"], prefs,
                                  inputs["horizon"], **kw)
            results.append((result, cells[0]))
        return results

    def check(self, inputs: dict, raw: list, workdir: Path) -> Outcome:
        from wagedyn.employer import GridSteps

        res = Outcome()
        firm, horizon = inputs["firm"], inputs["horizon"]
        for (label, prefs, kw), (result, cells) in zip(inputs["searches"], raw):
            res.values[f"{label}.cells"] = float(cells)
            res.values["cells"] = res.values.get("cells", 0.0) + cells
            if isinstance(result, Exception):
                res.op(False)
                res.values[f"{label}.raised"] = 1.0
                continue
            problems = []
            grid_cells = coarse_cells(kw.get("steps", GridSteps()), firm)
            if kw.get("refine_rounds", 2) == 0 and cells != grid_cells:
                problems.append(f"{label}: {cells} cells evaluated, the grid has {grid_cells}")
            enum = _enumerated_profit(result.contract, firm, prefs, horizon)
            if abs(result.profit - enum) > 1e-12:
                problems.append(f"{label}: profit {result.profit!r} != enumeration {enum!r}")
            res.op(not problems, "; ".join(problems))
        return res


@functools.lru_cache(maxsize=None)
def _enumerated_profit(contract, firm, prefs, horizon) -> float:
    """The gate's reference profit. Every iteration of a run returns the same
    contracts, so each is enumerated once per run."""
    from wagedyn.employer import profit_by_history_enumeration

    return profit_by_history_enumeration(contract, firm, prefs, horizon)


@contextlib.contextmanager
def count_calls(module, name: str):
    """Count the calls made through ``module.name`` while the block runs; the
    count is in the yielded list's only item. grid_search_optimum looks
    expected_profit up in its module on every cell, so this counts the
    contract cells a search evaluates, refinement cells and the cells before a
    failure included."""
    original = getattr(module, name)
    count = [0]

    def counted(*args, **kwargs):
        count[0] += 1
        return original(*args, **kwargs)

    setattr(module, name, counted)
    try:
        yield count
    finally:
        setattr(module, name, original)


def coarse_cells(steps, firm) -> int:
    """Cells of the first (unrefined) grid a search scans, counted from the
    steps passed the same way grid_search_optimum lays out its axes."""
    w0_max = steps.w0_max if steps.w0_max is not None else firm.wage_scale * 2.0

    def n(hi, step):
        return int(math.floor(hi / step + 1e-9)) + 1

    return n(1.0, steps.p_step) * n(1.0, steps.alpha_step) * n(w0_max, steps.w0_step)


# ---------------------------------------------------------------------------
# distributions


DIST_BATCH = 16          # contracts per family propagated at DIST_T
DIST_T = 50
CD_GRID_STEP = 0.01
MC_PATHS = 1_000_000
MC_T = 20
ENUM_T = {"additive": 12, "cobb_douglas": 13}
# additive contracts are drawn from a box where the affine policy never
# clamps on reachable states, so worker_policy returns the exact policy
ADD_BOX = {"p": (0.1, 0.35), "alpha": (0.0, 0.5), "w0": (0.1, 0.6)}
CD_BOX = {"p": (0.1, 0.9), "alpha": (0.1, 1.0), "w0": (0.0, 1.0)}
# the Monte Carlo contracts take alpha and w0 from the first batch contract and
# a fixed p: simulate's per-period arrays scale with p, so a fixed p keeps its
# work and peak memory the same for every seed
MC_P = {"additive": 0.3, "cobb_douglas": 0.5}


class Distributions:
    """The distribution layer at scale with a cheap worker solve."""

    name = "distributions"

    def prepare(self, seed: int, scenarios: dict) -> dict:
        from wagedyn.cobb_douglas import DpGrid
        from wagedyn.params import ContractParams, FirmParams

        rng = np.random.default_rng(seed)

        def draw(box, on_grid=False):
            p = float(rng.uniform(*box["p"]))
            alpha = float(rng.uniform(*box["alpha"]))
            w0 = float(rng.uniform(*box["w0"]))
            if on_grid:
                w0 = round(round(w0 / CD_GRID_STEP) * CD_GRID_STEP, 12)
            return ContractParams(p, alpha, w0)

        batch = {"additive": [draw(ADD_BOX) for _ in range(DIST_BATCH)],
                 "cobb_douglas": [draw(CD_BOX, on_grid=True) for _ in range(DIST_BATCH)]}
        return {
            **batch,
            "mc": {family: dataclasses.replace(contracts[0], p=MC_P[family])
                   for family, contracts in batch.items()},
            "prefs": {"additive": scenarios["fig3_2"].prefs,
                      "cobb_douglas": scenarios["table3_2"].prefs},
            # unit wage scale; only lam*k enters the worker's problem
            "firm": FirmParams(k=1.0, lam=1.0, c=0.0, eta=0.9),
            "grid": DpGrid(CD_GRID_STEP, CD_GRID_STEP, 1.0),
            "mc_seed": int(rng.integers(2**31)),
        }

    def _policy(self, inputs: dict, family: str, contract, horizon):
        from wagedyn.cobb_douglas import TableEffortPolicy, solve_policy
        from wagedyn.employer import worker_policy

        prefs = inputs["prefs"][family]
        if family == "additive":
            return worker_policy(contract, prefs, horizon, inputs["firm"])
        return TableEffortPolicy(solve_policy(contract, prefs, horizon, inputs["grid"]))

    def run(self, inputs: dict, workdir: Path) -> dict:
        from wagedyn.distribution import (bracketize, enumerate_histories, profile,
                                          propagate, simulate)
        from wagedyn.params import Horizon

        def batch_op(family, contract):
            horizon = Horizon(DIST_T)
            policy = self._policy(inputs, family, contract, horizon)
            dists = propagate(policy, contract, horizon)
            return {"policy": policy, "dists": dists, "profile": profile(dists),
                    "brackets": bracketize(dists[-1], 0.1)}

        def mc_op(family, contract):
            horizon = Horizon(MC_T)
            policy = self._policy(inputs, family, contract, horizon)
            exact = propagate(policy, contract, horizon)
            sim = simulate(policy, contract, horizon, MC_PATHS, inputs["mc_seed"])
            return {"tv": [e.tv_distance(s) for e, s in zip(exact, sim)], "dists": exact}

        def enum_op(family, contract):
            horizon = Horizon(ENUM_T[family])
            policy = self._policy(inputs, family, contract, horizon)
            final = enumerate_histories(policy, contract, horizon)
            dists = propagate(policy, contract, horizon)
            return {"tv": dists[-1].tv_distance(final), "dists": dists}

        # each entry: (family, contract, T, result)
        raw: dict[str, list] = {"batch": [], "mc": [], "enum": []}
        for family in ("additive", "cobb_douglas"):
            for contract in inputs[family]:
                raw["batch"].append((family, contract, DIST_T,
                                     _attempt(batch_op, family, contract)))
        for family in ("additive", "cobb_douglas"):
            contract = inputs["mc"][family]
            raw["mc"].append((family, contract, MC_T, _attempt(mc_op, family, contract)))
            contract = inputs[family][0]
            raw["enum"].append((family, contract, ENUM_T[family],
                                _attempt(enum_op, family, contract)))
        return raw

    def check(self, inputs: dict, raw: dict, workdir: Path) -> Outcome:
        from wagedyn.additive import AffineEffortPolicy
        from wagedyn.params import Horizon

        def mass_and_support(family, contract, T, dists):
            sizes = None
            if family == "additive":
                sizes = additive_support_sizes(contract, inputs["prefs"][family], Horizon(T),
                                               inputs["firm"].wage_scale)
            return _mass_and_support(family, dists, sizes)

        res = Outcome()
        exact_policies = additive_policies = 0
        for family, contract, T, result in raw["batch"]:
            if isinstance(result, Exception):
                res.op(False)
                continue
            problems = mass_and_support(family, contract, T, result["dists"])
            if family == "additive":
                additive_policies += 1
                exact_policies += not isinstance(result["policy"], AffineEffortPolicy)
            res.op(not problems, "; ".join(problems))
        for family, contract, T, result in raw["mc"]:
            if isinstance(result, Exception):
                res.op(False)
                continue
            problems = mass_and_support(family, contract, T, result["dists"])
            worst = max(result["tv"])
            res.values[f"mc_tv_max.{family}"] = worst
            if worst >= 0.01:
                problems.append(f"{family}: Monte Carlo TV {worst} >= 0.01")
            res.op(not problems, "; ".join(problems))
        for family, contract, T, result in raw["enum"]:
            if isinstance(result, Exception):
                res.op(False)
                continue
            problems = mass_and_support(family, contract, T, result["dists"])
            if result["tv"] > 1e-12:
                problems.append(f"{family}: propagate vs enumerate TV {result['tv']}")
            res.op(not problems, "; ".join(problems))
        res.values["exact_policy_share"] = exact_policies / max(additive_policies, 1)
        return res


def _mass_and_support(family: str, dists: list, expected_sizes=None) -> list[str]:
    """Mass conserved to 1e-12 in every period and, for the additive family,
    the support size each period should have (additive_support_sizes)."""
    problems = []
    for t, d in enumerate(dists, start=1):
        if abs(float(d.probs.sum()) - 1.0) > 1e-12:
            problems.append(f"{family}: period {t} mass {float(d.probs.sum())!r}")
        n = len(d.support)
        if expected_sizes is not None and n != expected_sizes[t - 1]:
            problems.append(f"{family}: period {t} support {n} points, "
                            f"expected {expected_sizes[t - 1]}")
            break
    return problems


def additive_support_sizes(contract, prefs, horizon, wage_scale) -> list[int]:
    """Support size in each period under the exact additive policy, when the
    effort never clamps. The evaluated wage of period t is
    x_t = s(1+alpha)(p/b)phi_t whatever the previous wage, so period t holds w0
    and x_1..x_t: t+1 points. At long horizons the early x_t agree to within
    the 1e-9 merge tolerance (phi_t converges geometrically) and merge. Which
    ones merge depends on the mass-weighted representative of each merged
    point, so the count is replayed period by period, as propagate merges."""
    from wagedyn.additive import phi_series_recursive
    from wagedyn.distribution import WageDistribution

    p, alpha = contract.p, contract.alpha
    phi = phi_series_recursive(contract, prefs, horizon)
    wages = (wage_scale * (1.0 + alpha) * (p / prefs.b) * phi).tolist()
    dist = WageDistribution.point_mass(contract.w0)
    sizes = []
    for x in wages:
        pairs = list(zip(dist.support.tolist(), (dist.probs * (1.0 - p)).tolist()))
        dist = WageDistribution.from_pairs(pairs + [(x, p)])
        sizes.append(len(dist.support))
    return sizes


WORKLOADS = {w.name: w for w in (Reproduce(), ContractSearch(), Distributions())}
