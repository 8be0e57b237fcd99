import importlib
import pkgutil

import pytest

import twosphere

MODULES = [twosphere] + [
    importlib.import_module(f"twosphere.{info.name}")
    for info in pkgutil.iter_modules(twosphere.__path__)
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_every_exported_name_resolves(module):
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert missing == []
