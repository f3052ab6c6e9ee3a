"""Every name a module of the package lists in ``__all__`` must exist."""

import importlib
import pkgutil

import pytest

import longcycles

MODULES = ["longcycles"] + [f"longcycles.{m.name}" for m in pkgutil.iter_modules(longcycles.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing
