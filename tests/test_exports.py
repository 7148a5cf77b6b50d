"""Each library module's ``__all__`` names exactly the public functions and
classes that the module defines, and every name in it resolves: a deleted
function cannot linger in an export list, nor a new one go unexported. And
every name a module imports is used there, and every name it defines but does
not export is read by some module: a stale import or constant cannot linger
after the code that used it goes."""

import ast
import importlib
from pathlib import Path

import pytest
from test_cli import run_fresh
from test_tracing import PATCHED

import losmimo

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


SOURCES = sorted(Path(losmimo.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=[p.stem for p in SOURCES])
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text())
    imported = {(alias.asname or alias.name).split(".")[0]
                for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                and not (isinstance(node, ast.ImportFrom) and node.module == "__future__")
                for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    module = importlib.import_module(f"losmimo.{path.stem}" if path.stem != "__init__"
                                     else "losmimo")
    # the package re-exports, and the benchmark's tracer patches, what it imports
    kept = set(getattr(module, "__all__", ())) if path.stem == "__init__" else set()
    kept |= set(PATCHED.get(module, ()))
    assert imported - used - kept == set()


def defined_names(tree):
    """The names that a module's top-level statements define or assign."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return names


@pytest.mark.parametrize("path", SOURCES, ids=[p.stem for p in SOURCES])
def test_every_module_name_is_read(path):
    # read in the module's own code, or imported by name from it by another;
    # the names in __all__ are the library's, and dunders Python's
    tree = ast.parse(path.read_text())
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for other in SOURCES:
        read |= {alias.name for node in ast.walk(ast.parse(other.read_text()))
                 if isinstance(node, ast.ImportFrom) and node.level == 1
                 and (node.module or "__init__") == path.stem for alias in node.names}
    module = importlib.import_module(f"losmimo.{path.stem}" if path.stem != "__init__"
                                     else "losmimo")
    unread = {n for n in defined_names(tree) - read - set(getattr(module, "__all__", ()))
              if not (n.startswith("__") and n.endswith("__"))}
    assert unread == set()


# every private name one library module imports from another, with the reason
# it is shared rather than made public: (importer, module, name) -> reason
PRIVATE_IMPORTS = {
    ("montecarlo", "channel", "_phasors"):
        "the LoS phasors exp(i 2 pi x / wavelength) of the link path differences are built "
        "in the channel module, in one routine",
    ("cli", "montecarlo", "_usable_cpus"):
        "simulate's default --workers and the manifest take the engine's count of usable CPUs",
    ("cli", "orientation", "_cell_grid"):
        "the manifest records how many grid points the mu* scan screens per eta",
}


def test_private_imports_are_listed():
    # a private name read across modules is an interface no __all__ shows
    found = {(path.stem, node.module or "__init__", alias.name)
             for path in SOURCES for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.ImportFrom) and node.level == 1 for alias in node.names
             if alias.name.startswith("_") and not alias.name.startswith("__")}
    assert found == set(PRIVATE_IMPORTS)


def test_package_import_loads_no_numpy():
    # the package resolves its names lazily, so losmimo.cli is the first
    # losmimo code to load NumPy and sets nothing up before it
    code = ("import os, sys, losmimo; "
            "print('numpy' in sys.modules, 'OPENBLAS_NUM_THREADS' in os.environ)")
    assert run_fresh(code) == "False False"


def test_star_import_resolves_every_exported_name():
    code = ("from losmimo import *; import losmimo; "
            "print([n for n in losmimo.__all__ if n not in globals()])")
    assert run_fresh(code) == "[]"


def test_exported_names_are_their_modules_objects():
    # each name is a module, or the object of that name in the module whose
    # __all__ has it
    owner = {n: m for m in MODULES for n in importlib.import_module(f"losmimo.{m}").__all__}
    for name in losmimo.__all__:
        module = importlib.import_module(f"losmimo.{name if name in MODULES else owner[name]}")
        assert getattr(losmimo, name) is (module if name in MODULES else getattr(module, name))
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        losmimo.no_such_name
