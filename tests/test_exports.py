"""Every name in the package's and each module's ``__all__`` resolves.

The benchmark tracer looks up each name of a layer module's ``__all__``,
so a stale entry would break traced runs as well as ``import *``.
"""

import importlib
import pkgutil

import pytest

import arealstat

MODULES = ["arealstat"] + [
    f"arealstat.{m.name}" for m in pkgutil.iter_modules(arealstat.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_every_all_entry_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert [attr for attr in exported if not hasattr(module, attr)] == []


def test_every_layer_module_is_checked():
    for layer in ("ingest", "weights", "stats", "hotspot", "ols",
                  "spatial_models", "cluster", "render", "pipeline"):
        assert f"arealstat.{layer}" in MODULES
        assert importlib.import_module(f"arealstat.{layer}").__all__
