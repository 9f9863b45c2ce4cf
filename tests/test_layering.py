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
