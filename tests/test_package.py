"""The package export list is the union of its modules' own lists, and it
has every name the benchmark imports."""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import opridge
from opridge import core, estimators, harness, schedules, synth

MODULES = (core, estimators, harness, schedules, synth)
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_exports_are_the_modules_lists_once_each():
    module_names = [name for mod in MODULES for name in mod.__all__]
    assert len(set(module_names)) == len(module_names), "a name is listed by two modules"
    assert len(set(opridge.__all__)) == len(opridge.__all__), "a package export repeats"
    assert set(opridge.__all__) == set(module_names)


def test_every_export_resolves_to_its_module_object():
    for mod in MODULES:
        for name in mod.__all__:
            assert getattr(opridge, name) is getattr(mod, name), f"{mod.__name__}.{name}"


def _resolves(module: str, name: str) -> bool:
    """Whether `from module import name` finds an attribute or a submodule."""
    if hasattr(importlib.import_module(module), name):
        return True
    try:
        importlib.import_module(f"{module}.{name}")
    except ModuleNotFoundError:
        return False
    return True


def test_every_name_the_benchmark_imports_resolves():
    # Nothing under tests/ imports perfbench, so without this a removed or
    # renamed name would first show as a failed benchmark run.
    checked, missing = 0, []
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not (isinstance(node, ast.ImportFrom) and node.level == 0
                    and node.module.split(".")[0] == "opridge"):
                continue
            for alias in node.names:
                checked += 1
                if not _resolves(node.module, alias.name):
                    missing.append(f"{path.name}: from {node.module} import {alias.name}")
    assert checked, f"no opridge import found under {PERFBENCH}"
    assert not missing, f"perfbench imports names the package lacks: {missing}"
