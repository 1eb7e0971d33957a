"""The package export list is the union of its modules' own lists, it
has every name the benchmark imports, and the benchmark runs."""

from __future__ import annotations

import ast
import importlib
import subprocess
import sys
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


def test_the_benchmark_runs_end_to_end(tmp_path):
    # Its smoke run of one tiny workload, which also checks the fits against
    # a reference ridge on make_dataset's samples, in a fresh interpreter:
    # run.py pins the BLAS threads before numpy loads.
    test = f"{PERFBENCH / 'test_smoke.py'}::test_end_to_end_run"
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "--basetemp", str(tmp_path / "smoke"), test],
        cwd=PERFBENCH.parent, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, f"{test} failed:\n{proc.stdout}\n{proc.stderr}"
