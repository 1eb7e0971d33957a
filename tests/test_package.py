"""The package export list is the union of its modules' own lists, it
has every name the benchmark imports, the benchmark runs, and README's
library example runs."""

from __future__ import annotations

import ast
import importlib
import re
import subprocess
import sys
from pathlib import Path

import numpy as np

import opridge
from opridge import core, estimators, harness, schedules, synth
from opridge.cli import _template_config

MODULES = (core, estimators, harness, schedules, synth)
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
README = Path(__file__).resolve().parents[1] / "README.md"


def test_the_trial_pass_is_private_to_estimators():
    # harness orchestrates; the pass, its chunking and its scoring live in
    # estimators, and harness reaches them only through these three names.
    src = Path(opridge.__file__).parent
    imported = {alias.name
                for node in ast.walk(ast.parse((src / "harness.py").read_text()))
                if isinstance(node, ast.ImportFrom) and node.module == "estimators"
                for alias in node.names if alias.name.startswith("_")}
    assert imported == {"_pass_state", "_run_trial", "_pass_peak_bytes"}, sorted(imported)
    internals = {"_ROW_CHUNK", "_learned_rows", "_nested_covariances", "_from_sums"}
    for path in sorted(set(src.glob("*.py")) - {src / "estimators.py"}):
        named = set()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                named.update(alias.name for alias in node.names)
        assert not named & internals, f"{path.name} names {sorted(named & internals)}"


def _source_trees() -> list[tuple[str, ast.Module]]:
    """(module name, parsed source) of every module of the package."""
    src = Path(opridge.__file__).parent
    return [(path.stem, ast.parse(path.read_text())) for path in sorted(src.glob("*.py"))]


def _calls_of(attr: str) -> list[str]:
    """'module.qualname' of the function or class around each call of attr(...) or .attr(...)."""
    sites = []
    for module, tree in _source_trees():
        scope = {}  # node -> qualified name of the innermost class or function holding it
        for parent in ast.walk(tree):
            name = scope.get(parent)
            if isinstance(parent, (ast.ClassDef, ast.FunctionDef)):
                name = f"{name}.{parent.name}" if name else parent.name
            for child in ast.iter_child_nodes(parent):
                scope[child] = name
        sites += [f"{module}.{scope[node]}" for node in ast.walk(tree)
                  if isinstance(node, ast.Call)
                  and attr in (getattr(node.func, "attr", None), getattr(node.func, "id", None))]
    return sites


def test_every_out_file_is_written_by_one_function():
    # harness._write is the one write of a file --out names and the one
    # place that words its refusal; the open-probe and the CLI go through it.
    refusals = sum(
        1 for _, tree in _source_trees() for node in ast.walk(tree) if isinstance(node, ast.Raise)
        and any(isinstance(c, ast.Constant) and "cannot be written" in str(c.value)
                for c in ast.walk(node)))
    writers = _calls_of("write_text")
    assert writers == ["harness._write"], writers
    assert refusals == 1, f"{refusals} raises word the --out refusal"


def test_every_snapshot_is_built_by_one_constructor():
    # The snapshot constructor makes the package's one eigendecomposition,
    # and no builder gets round it by allocating a snapshot bare.
    assert _calls_of("eigh") == ["estimators.EmpiricalCovariances.__init__"], _calls_of("eigh")
    bare = [module for module, tree in _source_trees() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "__new__"]
    assert not bare, f"__new__ is named in {bare}"


def test_every_config_has_one_eigenvalue_grid():
    # make_decay is the one builder of an EigenDecay, so a ground truth
    # cannot carry a grid of its own beside the config's.
    assert _calls_of("EigenDecay") == ["core.make_decay"], _calls_of("EigenDecay")


def test_every_ground_truth_is_built_through_its_spec():
    # GroundTruthSpec.build calls each kind's builder from harness's kind
    # table; only the packing oracle calls one by name, and synth exports none.
    names = {"random": "_random_operator", "laplacian": "_laplacian_operator",
             "packing": "_packing_operator"}
    table = {kind: row[0] for kind, row in harness._GROUND_TRUTH_KINDS.items()}
    assert table == {kind: getattr(synth, name) for kind, name in names.items()}, table
    assert not set(names.values()) & set(synth.__all__), synth.__all__
    assert _calls_of("builder") == ["harness.GroundTruthSpec.build"], _calls_of("builder")
    called = [site for name in names.values() for site in _calls_of(name)]
    assert called == ["harness._packing_instance"] * 2, called


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


def test_the_readme_library_example_runs():
    # The python block of README's "Library" section, on the gen-config
    # template with the names it leaves to the reader bound.
    section = README.read_text().split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    (code,) = re.findall(r"```python\n(.*?)```", section, flags=re.S)
    cfg, ground_truth, _, _ = opridge.parse_config(_template_config())
    names = {name: getattr(opridge, name) for name in opridge.__all__}
    names.update(cfg=cfg, a0=ground_truth.build(cfg), n=512, seed=0)
    exec(compile(code, str(README), "exec"), names)
    a_hat = names["a_hat"]
    assert isinstance(a_hat, opridge.OperatorMatrix), f"a_hat is a {type(a_hat).__name__}"
    assert np.all(np.isfinite(a_hat.m)), "the example's estimate is not finite"
