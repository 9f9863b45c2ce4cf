"""In-memory span tracer that wraps wagedyn functions from the outside.

A traced function is replaced at every place it is bound: module globals
(``report.propagate``, ``checks.propagate`` and ``distribution.propagate`` are
three bindings of one function), class attributes (``WageDistribution.
from_pairs``), and the tuples and dicts that hold functions
(``checks.ALL_CHECKS``, ``report.RUNNERS``). The program's source is never
touched; ``uninstall`` puts every original binding back.

Each call records one span: name, start, end, parent span, run id, whether it
raised, and optional sizes measured from its arguments and result. Spans stay
in memory until the caller writes them out. A span's self time is its
duration minus the durations of its direct children, so the self times of a
tree sum to the duration of its root.
"""
from __future__ import annotations

import contextlib
import functools
import inspect
import json
import math
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

# span tuple layout: [name, start, end, parent, run_id, raised, sizes]
NAME, START, END, PARENT, RUN, RAISED, SIZES = range(7)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.run_id = 0
        self._undo: list[Callable[[], None]] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        rec = [name, 0.0, 0.0, parent, self.run_id, False, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[START] = time.perf_counter()
        return rec

    def _close(self, rec: list) -> None:
        rec[END] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def root(self, name: str):
        """A root span (set-up, one workload iteration) with its own run id."""
        self.run_id += 1
        rec = self._open(name)
        try:
            yield rec
        except BaseException:
            rec[RAISED] = True
            raise
        finally:
            self._close(rec)

    def wrap(self, name: str, fn: Callable,
             measure: Callable[[tuple, dict, Any], dict] | None = None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._close(rec)
                rec[RAISED] = True
                raise
            tracer._close(rec)
            if measure is not None:
                rec[SIZES] = measure(args, kwargs, result)
            return result

        return traced

    # -- binding -----------------------------------------------------------

    def install(self, targets: dict[str, tuple[Callable, Callable | None]]) -> int:
        """Replace every binding of each target function in wagedyn's
        modules. ``targets`` maps span name -> (function, measure). Returns
        the number of bindings replaced."""
        package = "wagedyn"
        by_id = {}
        for name, (fn, measure) in targets.items():
            by_id[id(fn)] = (fn, self.wrap(name, fn, measure))
        replaced = 0
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == package or n.startswith(package + "."))]
        seen_containers: set[int] = set()
        for module in modules:
            for attr, value in list(vars(module).items()):
                if id(value) in by_id and value is by_id[id(value)][0]:
                    self._set(module, attr, by_id[id(value)][1])
                    replaced += 1
                elif isinstance(value, type) and value.__module__.startswith(package):
                    replaced += self._patch_class(value, by_id, seen_containers)
                elif isinstance(value, dict) and id(value) not in seen_containers:
                    seen_containers.add(id(value))
                    for key, item in list(value.items()):
                        if id(item) in by_id and item is by_id[id(item)][0]:
                            self._set_item(value, key, by_id[id(item)][1])
                            replaced += 1
                elif isinstance(value, tuple) and any(
                        id(item) in by_id and item is by_id[id(item)][0]
                        for item in value):
                    new = tuple(by_id[id(item)][1] if id(item) in by_id
                                and item is by_id[id(item)][0] else item
                                for item in value)
                    replaced += sum(a is not b for a, b in zip(value, new))
                    self._set(module, attr, new)
        return replaced

    def _patch_class(self, cls: type, by_id: dict, seen: set[int]) -> int:
        if id(cls) in seen:
            return 0
        seen.add(id(cls))
        replaced = 0
        for attr, raw in list(vars(cls).items()):
            fn = raw.__func__ if isinstance(raw, (staticmethod, classmethod)) else raw
            if id(fn) in by_id and fn is by_id[id(fn)][0]:
                wrapped = by_id[id(fn)][1]
                if isinstance(raw, staticmethod):
                    wrapped = staticmethod(wrapped)
                elif isinstance(raw, classmethod):
                    wrapped = classmethod(wrapped)
                self._set(cls, attr, wrapped, original=raw)
                replaced += 1
        return replaced

    def _set(self, owner, attr: str, value, original=None) -> None:
        old = original if original is not None else getattr(owner, attr)
        setattr(owner, attr, value)
        self._undo.append(lambda: setattr(owner, attr, old))

    def _set_item(self, container: dict, key, value) -> None:
        old = container[key]
        container[key] = value
        self._undo.append(lambda: container.__setitem__(key, old))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()


# ---------------------------------------------------------------------------
# analysis


def self_times(spans: list[list]) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[END] - s[START]
    return out


def self_sum_residual(spans: list[list]) -> float:
    """Largest |sum of self times in a root's tree - root duration| over roots."""
    selfs = self_times(spans)
    root_of = []
    for i, s in enumerate(spans):
        root_of.append(i if s[PARENT] < 0 else root_of[s[PARENT]])
    totals: dict[int, float] = {}
    for i, st in enumerate(selfs):
        totals[root_of[i]] = totals.get(root_of[i], 0.0) + st
    worst = 0.0
    for r, total in totals.items():
        worst = max(worst, abs(total - (spans[r][END] - spans[r][START])))
    return worst


@dataclass
class FunctionStats:
    calls: int = 0
    self_s: float = 0.0
    raised: int = 0
    sizes: dict[str, float] = field(default_factory=dict)


def summarize(spans: list[list], run_id: int) -> dict[str, FunctionStats]:
    """Per span name within one run: calls, total self time, raised calls,
    summed sizes."""
    out: dict[str, FunctionStats] = {}
    for s, st in zip(spans, self_times(spans)):
        if s[RUN] != run_id:
            continue
        stats = out.setdefault(s[NAME], FunctionStats())
        stats.calls += 1
        stats.self_s += st
        stats.raised += bool(s[RAISED])
        if s[SIZES]:
            for key, val in s[SIZES].items():
                stats.sizes[key] = stats.sizes.get(key, 0.0) + val
    return out


def write_spans(path: Path, spans: list[list]) -> None:
    """One JSON document: the name table and each span as
    [name index, start, end, parent, run id, raised, sizes]."""
    names: dict[str, int] = {}
    rows = []
    for s in spans:
        idx = names.setdefault(s[NAME], len(names))
        rows.append([idx, s[START], s[END], s[PARENT], s[RUN], s[RAISED], s[SIZES]])
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"names": list(names), "spans": rows},
                               allow_nan=True), encoding="utf-8")


# ---------------------------------------------------------------------------
# the wagedyn functions to trace, with the sizes each call contributes


@functools.lru_cache(maxsize=None)
def _signature(fn: Callable) -> inspect.Signature:
    return inspect.signature(fn)


def _arg(fn: Callable, name: str, args: tuple, kwargs: dict):
    """Value of parameter ``name`` in a call, defaults applied."""
    bound = _signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments[name]


def wagedyn_targets() -> dict[str, tuple[Callable, Callable | None]]:
    """Span name -> (function, measure) for every traced wagedyn function."""
    import os

    from wagedyn import (additive, checks, cli, cobb_douglas, config, distribution,
                         employer, golden, report, statics, svgchart)

    WD = distribution.WageDistribution

    def solve_bi(args, kwargs, sol):
        return {"grid_states": float(sol.raw_effort.size)}

    def solve_policy(args, kwargs, pol):
        return {"cells": float(pol.table.size * len(pol.grid.efforts))}

    def worker_policy(args, kwargs, pol):
        prefs = _arg(employer.worker_policy, "prefs", args, kwargs)
        is_add = prefs.family.value == "additive"
        return {"additive_calls": float(is_add),
                "additive_fallback": float(isinstance(pol, additive.AffineEffortPolicy))}

    def expected_profit(args, kwargs, value):
        return {"neg_inf": float(value == -math.inf)}

    def propagate(args, kwargs, dists):
        return {"support_points": float(sum(len(d.support) for d in dists))}

    def from_pairs(args, kwargs, dist):
        pairs = args[0] if args else kwargs["pairs"]
        return {"pairs_in": float(len(pairs)), "points_out": float(len(dist.support))}

    def enumerate_histories(args, kwargs, dist):
        horizon = _arg(distribution.enumerate_histories, "horizon", args, kwargs)
        return {"histories": float(1 << horizon.T)}

    def simulate(args, kwargs, dists):
        n_paths = _arg(distribution.simulate, "n_paths", args, kwargs)
        horizon = _arg(distribution.simulate, "horizon", args, kwargs)
        # computed from the arguments: path_uniforms holds an n_paths x T float64 array
        return {"path_periods": float(n_paths * horizon.T),
                "uniform_bytes_computed": float(8 * n_paths * horizon.T)}

    def file_bytes(fn):
        def measure(args, kwargs, _):
            return {"bytes": float(os.path.getsize(_arg(fn, "path", args, kwargs)))}
        return measure

    targets: dict[str, tuple[Callable, Callable | None]] = {
        "config.validate_config": (config.validate_config, None),
        "additive.solve_backward_induction": (additive.solve_backward_induction, solve_bi),
        "additive.phi_series_recursive": (additive.phi_series_recursive, None),
        "golden.golden_max_vec": (golden.golden_max_vec, None),
        "golden.bisect_root": (golden.bisect_root, None),
        "statics.sensitivity_grid": (statics.sensitivity_grid, None),
        "cobb_douglas.solve_policy": (cobb_douglas.solve_policy, solve_policy),
        "employer.worker_policy": (employer.worker_policy, worker_policy),
        "employer.expected_profit": (employer.expected_profit, expected_profit),
        "employer.grid_search_optimum": (employer.grid_search_optimum, None),
        "distribution.propagate": (distribution.propagate, propagate),
        "distribution.WageDistribution.from_pairs":
            (vars(WD)["from_pairs"].__func__, from_pairs),
        "distribution.enumerate_histories":
            (distribution.enumerate_histories, enumerate_histories),
        "distribution.simulate": (distribution.simulate, simulate),
        "distribution.WageDistribution.tv_distance": (WD.tv_distance, None),
        "distribution.profile": (distribution.profile, None),
        "distribution.bracketize": (distribution.bracketize, None),
        "report.write_csv": (report.write_csv, file_bytes(report.write_csv)),
        "report.write_json": (report.write_json, file_bytes(report.write_json)),
        "svgchart.write_line_chart": (svgchart.write_line_chart, None),
        "cli.main": (cli.main, None),
    }
    for check in checks.ALL_CHECKS:
        targets[f"checks.{check.__name__}"] = (check, None)
    for runner in report.RUNNERS.values():
        targets[f"report.{runner.__name__}"] = (runner, None)
    return targets


def layer_of(name: str) -> str:
    """Layer a span belongs to, from its module name."""
    module = name.split(".", 1)[0]
    return {"additive": "worker", "golden": "worker", "cobb_douglas": "worker",
            "statics": "worker", "report": "output", "svgchart": "output"}.get(module, module)
