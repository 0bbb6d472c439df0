"""The names the benchmark reads from the package must exist.

``perfbench`` times the package from outside: ``BENCHMARK.json`` names
per-layer metrics after package functions, and the hooks in
``perfbench/layers.py`` read some of their arguments by name. A function or
argument that goes missing makes its metrics absent instead of failing the
run, so these checks catch a rename before a benchmark run does.
"""

import importlib
import inspect
import json
from pathlib import Path

import pytest

BENCHMARK = json.loads((Path(__file__).parent.parent / "BENCHMARK.json").read_text())

# Per-layer names that do not name a package function.
_NOT_FUNCTIONS = ("gsl.recovery.", "trace.")

# Arguments the perfbench hooks read, by function.
HOOKED_ARGUMENTS = {
    "models.backward": ("params",),
    "gsl.fit": ("a", "gnn_kind"),
    "gsl.refine_structure": ("steps",),
    "gsl.refine_report": ("state",),
    "flows.build_snapshot": ("flows",),
    "attacks.apply": ("snapshot", "spec"),
}


def _function_names():
    names = set()
    for entry in BENCHMARK["per_layer"]:
        name = entry["name"].removeprefix("train.")
        if not name.startswith(_NOT_FUNCTIONS):
            names.add(name)
    return sorted(names)


def _resolve(name):
    """The callable a metric name starts with: module, then attributes."""
    module_name, *rest = name.split(".")
    target = importlib.import_module(f"gridsentry.{module_name}")
    resolved = []
    for part in rest:
        if not hasattr(target, part):
            break
        target = getattr(target, part)
        resolved.append(part)
    return target, resolved


@pytest.mark.parametrize("name", _function_names())
def test_per_layer_metric_names_a_package_function(name):
    target, resolved = _resolve(name)
    assert resolved, f"{name}: no function of that name in gridsentry"
    assert callable(target), f"{name}: {'.'.join(resolved)} is not callable"


@pytest.mark.parametrize("func", sorted(HOOKED_ARGUMENTS))
def test_hooked_arguments_exist(func):
    target, resolved = _resolve(func)
    assert len(resolved) == func.count("."), f"{func} is missing"
    parameters = inspect.signature(target).parameters
    for argument in HOOKED_ARGUMENTS[func]:
        assert argument in parameters, f"{func} has no argument {argument!r}"
