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


def test_only_the_slab_solve_holds_the_cobb_douglas_dp_loop():
    tree = ast.parse((PACKAGE / "cobb_douglas.py").read_text(encoding="utf-8"))
    functions = {top.name: top for top in tree.body if isinstance(top, ast.FunctionDef)}
    # the DP: a loop whose body takes an argmax over efforts
    dp_loops = {name for name, fn in functions.items() for loop in ast.walk(fn)
                if isinstance(loop, (ast.For, ast.While))
                and any(isinstance(node, ast.Attribute) and node.attr == "argmax"
                        for node in ast.walk(loop))}
    assert dp_loops == {"solve_policies"}
    # solve_policy is its one-row case, with no loop of its own
    nodes = list(ast.walk(functions["solve_policy"]))
    assert not [node for node in nodes if isinstance(node, (ast.For, ast.While))]
    assert any(isinstance(node, ast.Name) and node.id == "solve_policies" for node in nodes)
