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


def test_tracer_counts_the_work_of_chain_sample_and_transfer_calls(capsys):
    # the tracer reads simulate_chain's steps at position 1 and sample_paths'
    # L and count at 0 and 2; a changed signature would skew these counts
    mods = {home: importlib.import_module(f"motzkinq.{home}")
            for home in {home for home, *_ in tracer.TARGETS}}
    cli, motzkin, ascpoly = mods["cli"], mods["motzkin"], mods["ascpoly"]
    wm = motzkin.WeightModel.from_qmodel(ascpoly.QModelParams(q=0.5, sigma=0.8, rho0=0.3,
                                                               rho1=0.25))
    tr = tracer.Tracer(mods)
    tr.install()
    try:
        assert cli.main(["chain", "--L", "300", "--seed", "7"]) == 0
        assert cli.main(["sample", "--L", "20", "--count", "7", "--seed", "3"]) == 0
        motzkin.matrix_ansatz_expectation(0.9, 0.8, [0.8], [1.2], 40, wm)
    finally:
        tr.uninstall()
    capsys.readouterr()
    work = {}
    for layer, _, _, parent, _, units in tr.spans:
        if parent < 0 or tr.spans[parent][0] == "cli.main":
            work.setdefault(layer, []).append(units)
    assert work == {"cli.main": [0, 0], "chains.simulate": [300],
                    "motzkin.sample": [20 * 7], "motzkin.transfer": [0]}
    # one transition table inside the simulation: no cap regrowth
    assert tracer.chain_counts(tr.spans) == (0, 0)
