"""Every exported name exists."""

import importlib
import pkgutil

import motzkinq


def test_every_exported_name_is_defined():
    # a name left in __all__ after its definition moved or went away
    modules = [motzkinq] + [importlib.import_module(f"motzkinq.{info.name}")
                            for info in pkgutil.iter_modules(motzkinq.__path__)]
    dangling = [f"{mod.__name__}.{name}" for mod in modules
                for name in getattr(mod, "__all__", []) if not hasattr(mod, name)]
    assert dangling == []
