"""The package export list is the union of its modules' own lists."""

from __future__ import annotations

import opridge
from opridge import core, estimators, harness, schedules, synth

MODULES = (core, estimators, harness, schedules, synth)


def test_exports_are_the_modules_lists_once_each():
    module_names = [name for mod in MODULES for name in mod.__all__]
    assert len(set(module_names)) == len(module_names), "a name is listed by two modules"
    assert len(set(opridge.__all__)) == len(opridge.__all__), "a package export repeats"
    assert set(opridge.__all__) == set(module_names)


def test_every_export_resolves_to_its_module_object():
    for mod in MODULES:
        for name in mod.__all__:
            assert getattr(opridge, name) is getattr(mod, name), f"{mod.__name__}.{name}"
