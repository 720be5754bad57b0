import importlib
import pkgutil
import types

import loctimes


def test_public_names_resolve():
    # a stale __all__ entry breaks only ``import *``, so check every one
    for info in pkgutil.iter_modules(loctimes.__path__):
        if info.name.startswith("_"):
            continue
        mod = importlib.import_module(f"loctimes.{info.name}")
        missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
        assert not missing, f"{mod.__name__}.__all__ names {missing}"
    # every name the package re-exports is public in its own module
    for name, obj in vars(loctimes).items():
        if name.startswith("_") or isinstance(obj, types.ModuleType):
            continue
        assert name in importlib.import_module(obj.__module__).__all__, name
