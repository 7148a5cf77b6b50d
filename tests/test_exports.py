"""Each library module's ``__all__`` names exactly the public functions and
classes that the module defines, and every name in it resolves: a deleted
function cannot linger in an export list, nor a new one go unexported."""

import importlib

import pytest

MODULES = ["channel", "codes", "design", "geometry", "metrics", "montecarlo", "orientation"]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_the_public_definitions(name):
    module = importlib.import_module(f"losmimo.{name}")
    exported = module.__all__
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(module, n)] == []
    # functions (lru_cache wrappers too) and classes, not what the module imports
    defined = {n for n, v in vars(module).items() if not n.startswith("_") and callable(v)
               and getattr(v, "__module__", None) == module.__name__}
    assert {n for n in exported if callable(getattr(module, n))} == defined
