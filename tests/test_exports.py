"""Every exported name exists, and the exported signatures stay lean."""

import importlib
import inspect
import pkgutil

import motzkinq


def test_every_exported_name_is_defined():
    # a name left in __all__ after its definition moved or went away
    modules = [motzkinq] + [importlib.import_module(f"motzkinq.{info.name}")
                            for info in pkgutil.iter_modules(motzkinq.__path__)]
    dangling = [f"{mod.__name__}.{name}" for mod in modules
                for name in getattr(mod, "__all__", []) if not hasattr(mod, name)]
    assert dangling == []


def test_only_initial_law_takes_a_tail_tolerance():
    # the finite-L routes cut at one fixed rule (motzkin.TAIL_TOL); only the
    # chain initial law, with two callers needing two cuts, takes its own
    modules = [motzkinq] + [importlib.import_module(f"motzkinq.{info.name}")
                            for info in pkgutil.iter_modules(motzkinq.__path__)]
    takers = set()
    for mod in modules:
        for name in getattr(mod, "__all__", []):
            obj = getattr(mod, name)
            if not callable(obj):
                continue
            try:
                params = inspect.signature(obj).parameters
            except (TypeError, ValueError):
                continue
            if "tail_tol" in params:
                takers.add(f"{obj.__module__}.{obj.__qualname__}")
    assert takers == {"motzkinq.chains.initial_law"}
