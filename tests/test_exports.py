"""Every public module of trapqa declares ``__all__``, and each name in it resolves."""

import importlib
import pkgutil

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
