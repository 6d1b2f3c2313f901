"""The benchmark's traced run wraps motzkinq functions by module and name
(``bench/tracer.py``); a deleted or renamed target would break that run."""

import importlib
import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "bench_tracer", Path(__file__).resolve().parents[1] / "bench" / "tracer.py")
tracer = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracer)


@pytest.mark.parametrize("home, name", [(home, name) for home, name, *_ in tracer.TARGETS])
def test_traced_target_exists(home, name):
    assert callable(getattr(importlib.import_module(f"motzkinq.{home}"), name, None))
