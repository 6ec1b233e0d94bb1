"""Every package's ``__all__`` names real, distinct attributes.

A stale export left behind by a deletion otherwise fails only on
``from repro.x import *``, which nothing in the tree does.
"""

import importlib
import pkgutil

import pytest

import repro


def _packages():
    names = [repro.__name__]
    for info in pkgutil.walk_packages(repro.__path__, repro.__name__ + "."):
        if info.ispkg:
            names.append(info.name)
    return names


@pytest.mark.parametrize("name", _packages())
def test_every_export_resolves(name):
    package = importlib.import_module(name)
    exported = getattr(package, "__all__", [])
    missing = [symbol for symbol in exported
               if not hasattr(package, symbol)]
    assert missing == []


@pytest.mark.parametrize("name", _packages())
def test_no_export_is_listed_twice(name):
    exported = list(getattr(importlib.import_module(name), "__all__", []))
    duplicates = sorted({symbol for symbol in exported
                         if exported.count(symbol) > 1})
    assert duplicates == []
