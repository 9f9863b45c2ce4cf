"""Imports inside the package flow one way:

    params -> model -> worker solvers -> distribution -> employer -> config
    -> checks/report -> cli

A module may import only modules of earlier layers; modules of one layer do
not import each other. Each module's imports are read with ast, function-level
imports included. The package __init__ re-exports everything and is not
layered.

The additive grid oracle (solve_backward_induction and the AffineEffortPolicy
built from it) serves the criterion 4 check alone: no other module, and no
other function of checks, names it, so the package runs one additive policy.
"""
import ast
from pathlib import Path

import wagedyn

PACKAGE = Path(wagedyn.__file__).parent

LAYERS = (
    # leaf helpers that import nothing from the package sit with params
    ("params", {"params", "golden", "reference", "svgchart"}),
    ("model", {"model"}),
    ("worker solvers", {"additive", "cobb_douglas", "statics"}),
    ("distribution", {"distribution"}),
    ("employer", {"employer"}),
    # scenario validation builds the worker's DpGrid and feeds checks/report
    ("config", {"config"}),
    ("checks/report", {"checks", "report"}),
    ("cli", {"cli"}),
)
LAYER_OF = {module: i for i, (_, modules) in enumerate(LAYERS) for module in modules}


def package_imports(path: Path) -> set[str]:
    """Names of the wagedyn modules that a source file imports."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module is None:  # from . import a, b
                found.update(alias.name for alias in node.names)
            else:
                found.add(node.module.split(".")[0])
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("wagedyn"):
            parts = node.module.split(".")
            found.update([parts[1]] if len(parts) > 1 else
                         [alias.name for alias in node.names])
        elif isinstance(node, ast.Import):
            found.update(alias.name.split(".")[1] for alias in node.names
                         if alias.name.startswith("wagedyn."))
    return found


def test_every_module_has_a_layer():
    modules = {p.stem for p in PACKAGE.glob("*.py")} - {"__init__"}
    assert modules == set(LAYER_OF)


def test_imports_flow_from_earlier_layers_only():
    breaches = []
    for module, layer in sorted(LAYER_OF.items()):
        for target in sorted(package_imports(PACKAGE / f"{module}.py")):
            if LAYER_OF[target] >= layer:
                breaches.append(f"{module} ({LAYERS[layer][0]}) imports {target} "
                                f"({LAYERS[LAYER_OF[target]][0]})")
    assert not breaches


def test_import_reader_sees_function_level_and_package_imports(tmp_path):
    src = ("from . import additive, statics\n"
           "from .report import RUNNERS\n"
           "def f():\n"
           "    from .employer import expected_profit\n"
           "    import wagedyn.cli\n"
           "    from wagedyn.distribution import step\n")
    path = tmp_path / "probe.py"
    path.write_text(src, encoding="utf-8")
    assert package_imports(path) == {"additive", "statics", "report", "employer",
                                     "cli", "distribution"}


ORACLE_NAMES = {"solve_backward_induction", "AffineEffortPolicy"}
ORACLE_USERS = {("checks", "check_additive_oracle")}


def oracle_references(path: Path) -> list[tuple[str | None, str]]:
    """(top-level definition, name) for every name, attribute or import of
    the grid oracle in a source file; the definition is None at module level."""
    found = []
    for top in ast.parse(path.read_text(encoding="utf-8")).body:
        owner = getattr(top, "name", None)
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.alias):
                name = node.name.split(".")[-1]
            else:
                continue
            if name in ORACLE_NAMES:
                found.append((owner, name))
    return found


def test_grid_oracle_serves_criterion_4_only():
    breaches = []
    for module in sorted(set(LAYER_OF) - {"additive"}):
        for owner, name in oracle_references(PACKAGE / f"{module}.py"):
            if (module, owner) not in ORACLE_USERS:
                breaches.append(f"{module}.{owner or '<module>'} names {name}")
    assert not breaches
    assert ("check_additive_oracle", "solve_backward_induction") in \
        oracle_references(PACKAGE / "checks.py")


def test_oracle_reader_sees_names_attributes_and_imports(tmp_path):
    src = ("from .additive import AffineEffortPolicy\n"
           "def f():\n"
           "    return additive.solve_backward_induction\n"
           "class C:\n"
           "    def g(self):\n"
           "        return AffineEffortPolicy\n")
    path = tmp_path / "probe.py"
    path.write_text(src, encoding="utf-8")
    assert oracle_references(path) == [(None, "AffineEffortPolicy"),
                                       ("f", "solve_backward_induction"),
                                       ("C", "AffineEffortPolicy")]


# ---------------------------------------------------------------------------
# one response per policy type

PER_POLICY_ANSWERS = ("effort", "next_wage_if_evaluated", "bonus_if_evaluated")
# what computing an additive response takes; the employer reads the response
# from additive instead
RESPONSE_PARTS = {"affine_effort", "dead_corner"}


def test_engine_policy_types_answer_through_stack_alone():
    from wagedyn import AffineEffortPolicy, AffinePolicy, TableEffortPolicy

    for cls in (AffinePolicy, AffineEffortPolicy, TableEffortPolicy):
        assert callable(getattr(cls, "stack", None)), cls.__name__
        defined = [name for name in PER_POLICY_ANSWERS if hasattr(cls, name)]
        assert not defined, (cls.__name__, defined)


def test_employer_defines_no_response_of_its_own():
    tree = ast.parse((PACKAGE / "employer.py").read_text(encoding="utf-8"))
    imported = {alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    responses = [node.name for node in ast.walk(tree)
                 if isinstance(node, ast.FunctionDef) and node.name.endswith("_response")]
    assert not imported & RESPONSE_PARTS
    assert not responses


# ---------------------------------------------------------------------------
# a runner writes its artifacts and nothing else


def test_every_runner_takes_scenario_and_outdir_and_returns_nothing():
    import inspect

    from wagedyn.report import RUNNERS

    for name, runner in RUNNERS.items():
        sig = inspect.signature(runner)
        assert list(sig.parameters) == ["scenario", "outdir"], name
        assert sig.return_annotation == "None", name
        returns = [node for node in ast.walk(ast.parse(inspect.getsource(runner)))
                   if isinstance(node, ast.Return) and node.value is not None]
        assert not returns, name


# ---------------------------------------------------------------------------
# one box search for every employer search

BOX_SEARCHES = ("grid_search_optimum", "stationary_grid_search")


def test_employer_searches_scan_and_refine_through_the_box_search_alone():
    tree = ast.parse((PACKAGE / "employer.py").read_text(encoding="utf-8"))
    functions = {top.name: top for top in tree.body if isinstance(top, ast.FunctionDef)}
    # the slab scan: the only argmax, argmin or unravel_index in the module
    scanners = {name for name, fn in functions.items() for node in ast.walk(fn)
                if isinstance(node, ast.Attribute)
                and node.attr in ("argmax", "argmin", "unravel_index")}
    assert scanners == {"_box_search"}
    for name in BOX_SEARCHES:
        nodes = list(ast.walk(functions[name]))
        assert any(isinstance(node, ast.Name) and node.id == "_box_search"
                   for node in nodes), name
        loops = [node for node in nodes if isinstance(node, (ast.For, ast.While))]
        assert not loops, name


def test_both_searches_call_the_box_search(monkeypatch):
    from wagedyn import FirmParams, GridSteps, Horizon, WorkerPrefs, employer

    calls = []
    original = employer._box_search

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(employer, "_box_search", counted)
    firm = FirmParams(k=1.5, lam=1.0 / 1.5, c=0.3, eta=0.9)
    employer.stationary_grid_search(firm)
    for T in (1, 2):  # the closed-form slab and the recursion slab
        employer.grid_search_optimum(firm, WorkerPrefs.additive(delta=0.9), Horizon(T),
                                     GridSteps(0.5, 0.5, 0.5), refine_rounds=1)
    assert len(calls) == 3


# ---------------------------------------------------------------------------
# one Cobb-Douglas backward induction


def _functions(module: str) -> dict:
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    return {top.name: top for top in tree.body if isinstance(top, ast.FunctionDef)}


def _calls(fn, name: str) -> bool:
    """fn calls the function name."""
    return any(isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
               and node.func.id == name for node in ast.walk(fn))


def _one_row_case(fn, solver: str) -> bool:
    """fn holds no loop or comprehension of its own and calls solver."""
    loops = [node for node in ast.walk(fn)
             if isinstance(node, (ast.For, ast.While, ast.comprehension))]
    return not loops and _calls(fn, solver)


def test_only_the_slab_solve_holds_the_cobb_douglas_dp_loop():
    functions = _functions("cobb_douglas")
    # the DP: a loop whose body takes an argmax over efforts
    dp_loops = {name for name, fn in functions.items() for loop in ast.walk(fn)
                if isinstance(loop, (ast.For, ast.While))
                and any(isinstance(node, ast.Attribute) and node.attr == "argmax"
                        for node in ast.walk(loop))}
    assert dp_loops == {"solve_policies"}
    # solve_policy is its one-row case, with no loop of its own
    assert _one_row_case(functions["solve_policy"], "solve_policies")


# ---------------------------------------------------------------------------
# one additive solve over rows


def test_the_additive_one_row_solves_call_the_array_solve():
    functions = _functions("additive")
    # best_response runs the solve of best_responses on one contract's floats
    assert _one_row_case(functions["best_response"], "_exact_phi")
    assert _one_row_case(functions["phi_series_recursive"], "_phi_series")
    # the solve runs the one phi recursion for all its rows
    assert _calls(functions["best_responses"], "_exact_phi")
    assert _calls(functions["_exact_phi"], "_phi_series")


def test_one_row_case_reader_sees_loops_and_calls(tmp_path):
    src = ("def solve(rows):\n    return rows\n"
           "def one(row):\n    return solve([row])[0]\n"
           "def looped(row):\n    return [solve([r]) for r in row]\n"
           "def other(row):\n    return row\n")
    tree = ast.parse(src)
    functions = {top.name: top for top in tree.body}
    assert _one_row_case(functions["one"], "solve")
    assert not _one_row_case(functions["looped"], "solve")
    assert not _one_row_case(functions["other"], "solve")


# ---------------------------------------------------------------------------
# one employer profit recursion


def _backward_loops(fn) -> list:
    """The loops of fn that run backwards: over reversed(...) or a range with
    a negative step."""
    def backward(it):
        if not isinstance(it, ast.Call) or not isinstance(it.func, ast.Name):
            return False
        if it.func.id == "reversed":
            return True
        step = it.args[2] if it.func.id == "range" and len(it.args) == 3 else None
        return isinstance(step, ast.UnaryOp) and isinstance(step.op, ast.USub)
    return [node for node in ast.walk(fn)
            if isinstance(node, (ast.For, ast.comprehension)) and backward(node.iter)]


def test_employer_keeps_one_backward_profit_loop():
    functions = _functions("employer")
    backward = {name: len(_backward_loops(fn)) for name, fn in functions.items()
                if _backward_loops(fn)}
    assert backward == {"slab_profit_values": 1}
    # the one-row pricing is its one-row case
    assert _one_row_case(functions["profit_values"], "slab_profit_values")


def test_backward_loop_reader_sees_reversed_and_negative_ranges():
    src = ("def f(periods, T):\n"
           "    for a in reversed(periods):\n        pass\n"
           "    for t in range(T, 0, -1):\n        pass\n"
           "    for t in range(1, T + 1):\n        pass\n"
           "    return [t for t in range(T, 0, -2)]\n")
    assert len(_backward_loops(ast.parse(src).body[0])) == 3


# ---------------------------------------------------------------------------
# one root finder


def _is_midpoint(node) -> bool:
    """(a + b) / 2, (a + b) // 2 or 0.5 * (a + b): a bracket's midpoint."""
    if not isinstance(node, ast.BinOp):
        return False
    def is_sum(n):
        return isinstance(n, ast.BinOp) and isinstance(n.op, ast.Add)
    def is_const(n, v):
        return isinstance(n, ast.Constant) and n.value == v
    if isinstance(node.op, (ast.Div, ast.FloorDiv)):
        return is_sum(node.left) and is_const(node.right, 2)
    if isinstance(node.op, ast.Mult):
        return (is_const(node.left, 0.5) and is_sum(node.right)) or \
            (is_sum(node.left) and is_const(node.right, 0.5))
    return False


def bracket_halving_loops(path: Path) -> set[str]:
    """Top-level functions of a source file with a for or while loop that
    takes a bracket's midpoint."""
    found = set()
    for top in ast.parse(path.read_text(encoding="utf-8")).body:
        for loop in ast.walk(top):
            if isinstance(loop, (ast.For, ast.While)) and \
                    any(_is_midpoint(node) for node in ast.walk(loop)):
                found.add(getattr(top, "name", "<module>"))
    return found


def test_golden_holds_the_only_root_finding_loop():
    halving = {module: bracket_halving_loops(PACKAGE / f"{module}.py")
               for module in LAYER_OF}
    assert {module: names for module, names in halving.items() if names} == \
        {"golden": {"bisect_root"}}
    # both of additive's roots come from it: the envelope recursion and the
    # oracle's first-order condition
    tree = ast.parse((PACKAGE / "additive.py").read_text(encoding="utf-8"))
    callers = {top.name for top in tree.body if isinstance(top, ast.FunctionDef)
               for node in ast.walk(top)
               if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
               and node.func.id == "bisect_root"}
    assert callers == {"envelope_evaluated_wages", "solve_backward_induction"}


def test_halving_reader_sees_the_old_bisection(tmp_path):
    src = ("def bisect(g, lo, hi):\n"
           "    for _ in range(200):\n"
           "        mid = 0.5 * (lo + hi)\n"
           "        if g(mid) >= 0.0:\n"
           "            lo = mid\n"
           "        else:\n"
           "            hi = mid\n"
           "    return 0.5 * (lo + hi)\n"
           "def lattice(a, b):\n"
           "    while b - a > 1:\n"
           "        a = (a + b) // 2\n"
           "def midpoint_once(a, b):\n"
           "    return (a + b) / 2\n")
    path = tmp_path / "probe.py"
    path.write_text(src, encoding="utf-8")
    assert bracket_halving_loops(path) == {"bisect", "lattice"}
