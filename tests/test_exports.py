"""Every exported name exists, the exported signatures stay lean, every
raise in the package is one of its typed errors, and the CLI loads no
numpy submodule beyond what it needs."""

import ast
import importlib
import inspect
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import motzkinq

ROOT = Path(__file__).resolve().parent.parent


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


_SUBMODULE_PROBE = """
import contextlib, io, json, sys
import numpy
plain = {name for name in sys.modules if name.startswith("numpy.")}
from motzkinq import cli
with contextlib.redirect_stdout(io.StringIO()):
    for argv in (["locallimit", "--regime", "fixed-q", "--N", "400", "--x", "1", "--y", "2"],
                 ["locallimit", "--regime", "q-to-1", "--N", "400", "--x", "-1", "--y", "1"],
                 ["sample", "--L", "20", "--count", "10"],
                 ["verify"]):
        assert cli.main(argv) == 0, argv
print(json.dumps(sorted(name for name in sys.modules
                        if name.startswith("numpy.") and name not in plain)))
"""


# the errors a failure may raise: plain domain errors, the numeric guards
# of motzkinq.errors and the CLI's configuration error
TYPED_ERRORS = {"ValueError", "OverflowError", "CapacityError", "ConvergenceError", "ConfigError"}


def test_every_raise_in_the_package_is_a_typed_error():
    # a bare ArithmeticError or RuntimeError names no layer and slips past
    # handlers that catch the typed errors
    untyped = []
    for path in sorted((ROOT / "src" / "motzkinq").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise):
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if getattr(exc, "id", getattr(exc, "attr", None)) not in TYPED_ERRORS:
                    untyped.append(f"{path.name}:{node.lineno}")
    assert untyped == []


def test_cli_loads_no_numpy_submodule_beyond_its_generator():
    # a lazily imported numpy submodule (numpy.fft, numpy.polynomial, ...)
    # moves the heap of every CLI run; past a plain `import numpy`, the CLI
    # may load only numpy.random, the sampler's generator, which numpy 2
    # imports on first use.  `verify` runs the orthogonality density.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _SUBMODULE_PROBE], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    extra = json.loads(proc.stdout)
    assert [name for name in extra
            if name != "numpy.random" and not name.startswith("numpy.random.")] == []
