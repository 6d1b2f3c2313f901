"""Every exported name exists, no function takes a tail tolerance, only the
two stepping loops call the tridiagonal step, only the two finite-L routes
and the chains' k-step pass call the power, the kernels take only the
lattice point from the chains, only the height rule and the
integral routes tabulate the weights, every raise in the package is
one of its typed errors, no module imports a name it never uses, and the
CLI loads no numpy submodule beyond what it needs."""

import ast
import importlib
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


def _package_functions():
    """(module file name, function node) for every def in the package."""
    for path in sorted((ROOT / "src" / "motzkinq").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield path.name, node


def test_no_function_takes_a_tail_tolerance():
    # every finite-length route cuts at one rule, numerics.TAIL_TOL, read at
    # call time; no function, public or private, takes a cut of its own
    takers = [f"{name}:{fn.name}" for name, fn in _package_functions()
              if "tail_tol" in {arg.arg for arg in ast.walk(fn.args) if isinstance(arg, ast.arg)}]
    assert takers == []


def _callers(callee: str) -> set[str]:
    """"file:function" of every def in the package that calls ``callee``."""
    return {f"{name}:{fn.name}" for name, fn in _package_functions() for node in ast.walk(fn)
            if isinstance(node, ast.Call) and callee in (getattr(node.func, "id", None),
                                                         getattr(node.func, "attr", None))}


def test_only_the_two_stepping_loops_call_the_tridiagonal_step():
    # every exact multi-step pass runs through motzkin._steps and the
    # Chebyshev pass through chains._chebyshev_blocks; a third caller of
    # the step would be a stepping loop with its own rescale rule
    assert _callers("_tridiagonal_step") == {"motzkin.py:_steps", "chains.py:_chebyshev_blocks"}


def test_only_the_two_finite_l_routes_and_the_chains_kstep_call_the_power():
    # every exact k-step law of the chains, the lattice point's exact
    # branches included, is the one pass chains._kstep; a fourth caller of
    # _power would be a k-step pass with its own leak rule
    assert _callers("_power") == {"motzkin.py:_bilinear_log", "motzkin.py:_integral_logs",
                                  "chains.py:_kstep"}


def test_kernels_takes_only_the_lattice_point_from_chains():
    # how P^k[m, n] is computed is decided in chains; the kernels import
    # its lattice point and nothing of the pass or the chain rows
    tree = ast.parse((ROOT / "src" / "motzkinq" / "kernels.py").read_text())
    taken = {(node.module, alias.name) for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert {name for module, name in taken if module == "chains"} == {"_chain_point_evolution"}
    assert not any(module == "motzkin" for module, _ in taken)


def test_only_the_height_rule_and_the_integral_routes_tabulate_the_weights():
    # every exact finite-L pass takes its tables from motzkin._heights, so
    # each height is certified by one rule, and the integral route
    # tabulates once for all its passes; a fourth caller of _weight_tables
    # would be a pass on a height of its own
    assert _callers("_weight_tables") == {"motzkin.py:_heights", "motzkin.py:_top_tables",
                                          "motzkin.py:_integral_logs"}


def test_only_the_integral_route_and_two_checks_take_moment_integrals():
    # the finite-L integral route takes its moments in motzkin._integral_logs,
    # which names the pass whose integral leaves double range; the chains'
    # k-step integral and the verify suite's moment check are the others
    assert _callers("_moment_integral") == {"motzkin.py:_integral_logs",
                                            "chains.py:kstep_transition_integral",
                                            "verify.py:run_checks"}


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


def test_no_module_imports_a_name_it_never_uses():
    # an import left behind when its last use moved away; a name listed in
    # __all__ counts as used (the package re-exports that way)
    unused = []
    for path in sorted((ROOT / "src" / "motzkinq").glob("*.py")):
        tree = ast.parse(path.read_text())
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__"
                                                    for t in node.targets):
                used |= set(ast.literal_eval(node.value))
        unused += [f"{path.name}:{line} {name}" for name, line in imported.items()
                   if name not in used]
    assert unused == []


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
