"""The package's declared public names: every ``__all__`` entry must exist,
and the package's own list is its re-exported modules' lists, each declared once."""
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


# the modules whose names the package re-exports, in the order it takes them
REEXPORTED = ["dynamics", "errors", "experiments", "graphs", "pde_bridge", "rng", "spectra", "stability"]


def test_package_all_is_the_concatenation_of_the_reexported_modules():
    modules = [importlib.import_module(f"crossnet.{name}") for name in REEXPORTED]
    missing = [m.__name__ for m in modules if "__all__" not in vars(m)]
    assert not missing, missing
    assert crossnet.__all__ == [name for m in modules for name in m.__all__]
    assert len(set(crossnet.__all__)) == len(crossnet.__all__)
    for name in crossnet.__all__:
        assert getattr(crossnet, name) is next(getattr(m, name) for m in modules if name in m.__all__)
