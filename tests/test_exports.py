"""Every name in the ``__all__`` of kljnsim and of each of its modules is
defined there.

Nothing star-imports these modules, so a stale ``__all__`` entry would
pass every other test.
"""

import importlib
import pkgutil
import types

import pytest

import kljnsim

MODULES = ["kljnsim"] + sorted(info.name for info in
                               pkgutil.iter_modules(kljnsim.__path__, "kljnsim."))


def undefined(module):
    """The names of ``module.__all__`` that the module does not define, in order."""
    return [name for name in module.__all__ if not hasattr(module, name)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_is_defined(name):
    assert undefined(importlib.import_module(name)) == []


def test_modules_are_found():
    assert MODULES == ["kljnsim", "kljnsim.attack", "kljnsim.cli", "kljnsim.line",
                       "kljnsim.montecarlo", "kljnsim.noise", "kljnsim.protocol"]


def test_stale_names_are_found():
    module = types.ModuleType("stale")
    module.decide = None
    module.__all__ = ["Removed", "decide", "gone"]
    assert undefined(module) == ["Removed", "gone"]
