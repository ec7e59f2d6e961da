"""Every public module of trapqa declares ``__all__``, and each name in it
resolves; so does every trapqa name the benchmark looks up."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import trapqa

PUBLIC_MODULES = ["trapqa"] + [
    m.name
    for m in pkgutil.walk_packages(trapqa.__path__, "trapqa.")
    if not m.name.rsplit(".", 1)[-1].startswith("_")
]


@pytest.mark.parametrize("name", PUBLIC_MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert missing == []


def _tracer_targets():
    """``TARGETS`` of ``perfbench/tracer.py``, read without importing it."""
    tree = ast.parse((Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["TARGETS"]:
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracer.py has no TARGETS")


def test_every_name_the_benchmark_looks_up_resolves():
    # a missing name breaks traced benchmark runs, and field_scan's output
    # check reads kernels.BACKEND
    targets = [(m, a) for m, a, _ in _tracer_targets() if m.split(".")[0] == "trapqa"]
    assert targets
    missing = [f"{m}.{a}" for m, a in targets if not hasattr(importlib.import_module(m), a)]
    assert missing == []
    assert hasattr(importlib.import_module("trapqa.kernels"), "BACKEND")
