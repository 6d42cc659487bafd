"""Every name in the package's and each module's ``__all__`` resolves, and
each layer module's ``__all__`` lists every public name it defines.

The benchmark tracer looks up each name of a layer module's ``__all__``,
so a stale entry would break traced runs as well as ``import *``.  The
package re-exports each layer module's ``__all__``, so a missing entry
would drop the name from ``arealstat`` and from the tracer.
"""

import ast
import importlib
import inspect
import pkgutil

import pytest

import arealstat

MODULES = ["arealstat"] + [
    f"arealstat.{m.name}" for m in pkgutil.iter_modules(arealstat.__path__)
]

LAYERS = ("ingest", "weights", "stats", "hotspot", "ols",
          "spatial_models", "cluster", "render", "pipeline")


@pytest.mark.parametrize("name", MODULES)
def test_every_all_entry_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert [attr for attr in exported if not hasattr(module, attr)] == []


def test_every_layer_module_is_checked():
    for layer in LAYERS:
        assert f"arealstat.{layer}" in MODULES
        assert importlib.import_module(f"arealstat.{layer}").__all__


def _defined_public_names(module) -> list[str]:
    """Public functions and classes, and upper-case constants, bound at the
    top level of the module's source."""
    names = []
    for node in ast.parse(inspect.getsource(module)).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [t.id for t in targets if isinstance(t, ast.Name) and t.id.isupper()]
    return [name for name in names if not name.startswith("_")]


@pytest.mark.parametrize("layer", LAYERS)
def test_layer_all_lists_every_public_definition(layer):
    module = importlib.import_module(f"arealstat.{layer}")
    defined = _defined_public_names(module)
    assert defined, layer
    assert [name for name in defined if name not in module.__all__] == []


def test_package_reexports_every_layer_all_once():
    expected = ["__version__"]
    for layer in LAYERS:
        expected += importlib.import_module(f"arealstat.{layer}").__all__
    assert arealstat.__all__ == expected
    assert len(set(arealstat.__all__)) == len(arealstat.__all__)
    for name in arealstat.__all__[1:]:
        owner = next(
            layer for layer in LAYERS
            if name in importlib.import_module(f"arealstat.{layer}").__all__
        )
        assert getattr(arealstat, name) is getattr(
            importlib.import_module(f"arealstat.{owner}"), name
        )
