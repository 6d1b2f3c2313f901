"""The benchmark's own output checks (``bench/workloads.py``), run on CLI
output at small sizes: a change to the CLI text that the benchmark would
reject fails here first."""

import importlib.util
import random
import sys
from pathlib import Path

import pytest

from motzkinq import cli

_spec = importlib.util.spec_from_file_location(
    "bench_workloads", Path(__file__).resolve().parents[1] / "bench" / "workloads.py")
workloads = importlib.util.module_from_spec(_spec)
sys.modules[_spec.name] = workloads  # its dataclasses look their module up
_spec.loader.exec_module(workloads)

MODEL = workloads.MODEL_FLAGS


def _workload():
    return workloads.Workload("paths", [], [], random.Random(0))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_benchmark_argv_parse(monkeypatch, seed):
    # every CLI call of the three workloads' ops and warm-ups, recorded and
    # parsed, without running the subcommands
    mods = {name: importlib.import_module(f"motzkinq.{name}")
            for name in ("cli", "kernels", "motzkin", "ascpoly")}
    recorded = []
    monkeypatch.setattr(workloads, "run_cli", lambda _cli, argv: recorded.append(argv))
    for name in workloads.WORKLOADS:
        wl = workloads.build(name, mods, seed)
        for run in [op.run for op in wl.ops] + wl.warmup:
            if "run_cli" in run.__code__.co_names:
                run()
    assert {argv[0] for argv in recorded} == set(cli._COMMANDS)
    for argv in recorded:
        cli._effective_config(cli._build_parser().parse_args(argv))


@pytest.mark.parametrize("L, count", [(1, 3), (20, 50), (200, 40)])
def test_check_sample_accepts_cli_output(L, count):
    wl = _workload()
    argv = ["sample", "--L", str(L), "--count", str(count), "--seed", "9", *MODEL]
    check = workloads.check_sample(wl, "sample", L, count)
    for _ in range(2):  # the second run must repeat the first one's digest
        check(workloads.run_cli(cli, argv), {})


@pytest.mark.parametrize("steps", [1, 2000])
def test_check_chain_accepts_cli_output(steps):
    wl = _workload()
    argv = ["chain", "--L", str(steps), "--seed", "3", *MODEL]
    check = workloads.check_chain(wl, "chain", steps)
    for _ in range(2):
        check(workloads.run_cli(cli, argv), {})


@pytest.mark.parametrize("m, n", [(0, 0), (1, 2), (2, 1)])
def test_check_enumerate_accepts_cli_output(m, n):
    L = 6
    argv = ["enumerate", "--L", str(L), "--m", str(m), "--n", str(n), *MODEL]
    workloads.check_enumerate(L, m, n)(workloads.run_cli(cli, argv), {})


def test_check_verify_accepts_cli_output():
    workloads.check_verify(workloads.run_cli(cli, ["verify", *MODEL]), {})


def test_checks_reject_a_missing_row():
    rc, text = workloads.run_cli(cli, ["sample", "--L", "5", "--count", "4", *MODEL])
    check = workloads.check_sample(_workload(), "sample", 5, 4)
    with pytest.raises(workloads.CheckFailed):
        check((rc, text[:text.rindex("\n", 0, -1) + 1]), {})
    rc, text = workloads.run_cli(cli, ["chain", "--L", "10", *MODEL])
    check = workloads.check_chain(_workload(), "chain", 10)
    with pytest.raises(workloads.CheckFailed):
        check((rc, text[:text.rindex("\n", 0, -1) + 1]), {})
