"""Scenario configuration: JSON schema, validation, defaults.

A scenario file has sections contract, prefs, firm, horizon, grid, simulation,
experiment. Validation collects every violation (key path plus bound) instead
of stopping at the first, then fills defaults: additive b = 1, employer
discount eta = worker delta, grid steps 0.1, Monte Carlo seed 42 with 100000
paths, firm revenue share 1/k (unit wage scale).
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from .cobb_douglas import DpGrid
from .params import ContractParams, FirmParams, Horizon, ParamError, WorkerPrefs

KNOWN_SECTIONS = ("contract", "prefs", "firm", "horizon", "grid", "simulation",
                  "experiment")


class ConfigError(ParamError):
    """Every violation in a scenario: missing keys, wrong types and bounds."""


@dataclass(frozen=True)
class Scenario:
    """Validated scenario with constructed parameter objects."""

    raw: dict
    contract: ContractParams | None
    prefs: WorkerPrefs | None
    firm: FirmParams | None
    horizon: Horizon | None
    grid: DpGrid
    seed: int
    n_paths: int
    experiment: dict


def _is_number(value) -> bool:
    return not isinstance(value, bool) and isinstance(value, (int, float))


def _is_integer(value) -> bool:
    return not isinstance(value, bool) and isinstance(value, int)


NUMBER_LISTS = ("k_values", "p_values", "alpha_values", "w0_values", "variance_p_values",
                "variance_w0_values")
# each experiment key a runner or check reads: what it must be, and its test
EXPERIMENT_TYPES = {
    **dict.fromkeys(("initial_effort", "effort_growth", "grid_step", "k_before",
                     "k_after"), ("a number", _is_number)),
    "refine_rounds": ("an integer", _is_integer),
    **dict.fromkeys(NUMBER_LISTS, ("a list of numbers",
                                   lambda v: isinstance(v, list) and all(map(_is_number, v)))),
    "horizons": ("a list of integers",
                 lambda v: isinstance(v, list) and all(map(_is_integer, v))),
}
# the bound on an experiment key of the right type: what it must be, and its test
EXPERIMENT_BOUNDS = {
    "grid_step": ("finite and > 0", lambda v: 0.0 < v < math.inf),
    "refine_rounds": (">= 0", lambda v: v >= 0),
    **dict.fromkeys(NUMBER_LISTS, ("at least one entry", lambda v: len(v) > 0)),
    "horizons": ("at least one entry, each a valid horizon.T",
                 lambda v: len(v) > 0 and all(_build([], Horizon, T) is not None for T in v)),
}


def _number(section: dict, key: str, path: str, errors: list[str],
            required: bool = True, default: float | None = None) -> float | None:
    if key not in section:
        if required:
            errors.append(f"{path}.{key}: missing required key")
        return default
    value = section[key]
    if not _is_number(value):
        errors.append(f"{path}.{key}: expected a number, got {value!r}")
        return default
    return float(value)


def _build(errors: list[str], make, *args, **kwargs):
    """make(*args, **kwargs), or None with its ParamError messages appended."""
    try:
        return make(*args, **kwargs)
    except ParamError as exc:
        errors.extend(exc.errors)
        return None


def validate_config(config: dict | str | Path) -> Scenario:
    """Validate a scenario dict or JSON file; raises ConfigError with the full
    list of violations.

    Missing keys, unknown sections, sections that are not objects and values
    of the wrong type or out of bounds (those of the experiment keys in
    EXPERIMENT_TYPES and EXPERIMENT_BOUNDS included) are reported here.
    Each section whose numbers parse is then built into its params object
    (or DpGrid), which checks the bounds itself; their messages join the
    list.
    """
    if isinstance(config, (str, Path)):
        text = Path(config).read_text(encoding="utf-8")
        try:
            config = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError([f"config: invalid JSON ({exc})"]) from exc
    if not isinstance(config, dict):
        raise ConfigError(["config: top level must be an object"])

    errors: list[str] = []
    for key, value in config.items():
        if key not in KNOWN_SECTIONS:
            errors.append(f"{key}: unknown section")
        elif not isinstance(value, dict):
            errors.append(f"{key}: expected an object")
    # the sections that parse; each reported one is left out
    sections = {key: value for key, value in config.items() if isinstance(value, dict)}

    resolved: dict[str, Any] = {}

    contract = None
    if "contract" in sections:
        sec = sections["contract"]
        parsed = len(errors)
        p = _number(sec, "p", "contract", errors)
        alpha = _number(sec, "alpha", "contract", errors)
        w0 = _number(sec, "w0", "contract", errors)
        if len(errors) == parsed:
            contract = _build(errors, ContractParams, p, alpha, w0)
        resolved["contract"] = {"p": p, "alpha": alpha, "w0": w0}

    prefs = None
    if "prefs" in sections:
        sec = sections["prefs"]
        family = sec.get("family")
        parsed = len(errors)
        delta = _number(sec, "delta", "prefs", errors)
        if family == "additive":
            b = _number(sec, "b", "prefs", errors, required=False, default=1.0)
            if len(errors) == parsed:
                prefs = _build(errors, WorkerPrefs.additive, delta=delta, b=b)
            resolved["prefs"] = {"family": "additive", "delta": delta, "b": b}
        elif family == "cobb_douglas":
            gamma = _number(sec, "gamma", "prefs", errors)
            beta = _number(sec, "beta", "prefs", errors)
            if len(errors) == parsed:
                prefs = _build(errors, WorkerPrefs.cobb_douglas, delta=delta,
                               gamma=gamma, beta=beta)
            resolved["prefs"] = {"family": "cobb_douglas", "delta": delta,
                                 "gamma": gamma, "beta": beta}
        else:
            errors.append(f"prefs.family: must be 'additive' or 'cobb_douglas', "
                          f"got {family!r}")

    firm = None
    if "firm" in sections:
        sec = sections["firm"]
        parsed = len(errors)
        k = _number(sec, "k", "firm", errors)
        # the lambda default 1/k exists only for k > 0; for any other k the
        # unit placeholder lets FirmParams report the bad k alone
        lam_default = 1.0 / k if (k is not None and k > 0) else 1.0
        lam = _number(sec, "lambda", "firm", errors, required=False, default=lam_default)
        c = _number(sec, "c", "firm", errors, required=False, default=0.0)
        eta_default = resolved.get("prefs", {}).get("delta")
        eta = _number(sec, "eta", "firm", errors, required=False, default=eta_default)
        if eta is None:
            errors.append("firm.eta: missing and no prefs.delta to default to")
        if len(errors) == parsed:
            firm = _build(errors, FirmParams, k=k, lam=lam, c=c, eta=eta)
        resolved["firm"] = {"k": k, "lambda": lam, "c": c, "eta": eta}

    horizon = None
    if "horizon" in sections:
        sec = sections["horizon"]
        T = sec.get("T")
        if not _is_integer(T):
            errors.append(f"horizon.T: expected an integer, got {T!r}")
        else:
            horizon = _build(errors, Horizon, T)
        resolved["horizon"] = {"T": T}

    grid_sec = sections.get("grid", {})
    wage_step = _number(grid_sec, "wage_step", "grid", errors, required=False, default=0.1)
    effort_step = _number(grid_sec, "effort_step", "grid", errors, required=False, default=0.1)
    wage_max = _number(grid_sec, "wage_max", "grid", errors, required=False, default=1.0)
    grid = None
    try:
        grid = DpGrid(wage_step=wage_step, effort_step=effort_step, wage_max=wage_max)
    except ValueError as exc:
        errors.append(f"grid: {exc}")
    resolved["grid"] = {"wage_step": wage_step, "effort_step": effort_step,
                        "wage_max": wage_max}

    sim = sections.get("simulation", {})
    seed = sim.get("seed", 42)
    n_paths = sim.get("n_paths", 100000)
    if not _is_integer(seed) or seed < 0:
        errors.append(f"simulation.seed: expected a nonnegative integer, got {seed!r}")
    if not _is_integer(n_paths) or n_paths < 1:
        errors.append(f"simulation.n_paths: expected an integer >= 1, got {n_paths!r}")
    resolved["simulation"] = {"seed": seed, "n_paths": n_paths}

    experiment = dict(sections.get("experiment", {}))
    for key, (expected, valid) in EXPERIMENT_TYPES.items():
        if key not in experiment:
            continue
        value = experiment[key]
        bound, within = EXPERIMENT_BOUNDS.get(key, (None, None))
        if not valid(value):
            errors.append(f"experiment.{key}: expected {expected}, got {value!r}")
        elif bound is not None and not within(value):
            errors.append(f"experiment.{key}: must be {bound}, got {value!r}")
    resolved["experiment"] = experiment

    if errors:
        raise ConfigError(errors)
    return Scenario(raw=resolved, contract=contract, prefs=prefs, firm=firm,
                    horizon=horizon, grid=grid, seed=seed, n_paths=n_paths,
                    experiment=experiment)


def resolved_json(scenario: Scenario) -> str:
    """Canonical JSON echo of the fully resolved scenario."""
    return json.dumps(scenario.raw, indent=2, sort_keys=True) + "\n"
