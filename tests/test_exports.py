"""Every name that a gms module lists in ``__all__`` exists in it.

A deletion that leaves its name in ``__all__`` breaks ``from gms.x import *``
only when someone runs it; this test fails at once instead.
"""

import importlib
import pkgutil

import pytest

import gms

MODULES = ["gms", *(f"gms.{info.name}" for info in pkgutil.iter_modules(gms.__path__))]


@pytest.mark.parametrize("name", MODULES)
def test_all_resolves(name):
    module = importlib.import_module(name)
    assert not [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
