"""The package's declared public names: every ``__all__`` entry must exist."""
import importlib
import pkgutil

import pytest

import crossnet

MODULES = ["crossnet"] + [f"crossnet.{m.name}" for m in pkgutil.iter_modules(crossnet.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve_and_star_import_works(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    assert len(set(exported)) == len(exported)
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, missing
    exec(f"from {name} import *", {})
