"""Every name a qortho module or a test oracle exports in ``__all__`` exists."""

import importlib
import pkgutil

import pytest

import oracles
import qortho

MODULES = (["qortho"] + ["qortho." + m.name for m in pkgutil.iter_modules(qortho.__path__)]
           + ["oracles." + m.name for m in pkgutil.iter_modules(oracles.__path__)])


@pytest.mark.parametrize("name", MODULES)
def test_exported_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing
